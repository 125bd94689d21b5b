"""Periodic lattice and the spectral heat propagator.

Fields live on a torus of side L = m * dx per axis with m a power of two.
The half-Laplacian semigroup exp(t kappa Delta / 2) acts by pointwise
multiplication with exp(-kappa t |xi|^2 / 2) on DFT coefficients, where the
lattice frequencies are xi_k = 2 pi k / L.  Real fields use the real FFT
along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class LatticeError(ValueError):
    pass


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LatticeGrid:
    d: int
    m: int
    dx: float

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d in (1, 2, 3)):
            raise LatticeError(f"d must be 1, 2 or 3, got {self.d}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 8 and _is_power_of_two(self.m)):
            raise LatticeError(f"m must be a power of two >= 8, got {self.m}")
        if not (self.dx > 0):
            raise LatticeError(f"dx must be positive, got {self.dx}")

    @property
    def period(self) -> float:
        return self.m * self.dx

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.d

    @property
    def n_sites(self) -> int:
        return self.m**self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def axis_coords(self) -> np.ndarray:
        """Signed coordinates along one axis, in [-L/2, L/2)."""
        m = self.m
        return ((np.arange(m) + m // 2) % m - m // 2) * self.dx

    def coordinate_mesh(self) -> tuple:
        """Signed coordinate arrays broadcastable over the grid shape."""
        ax = self.axis_coords()
        return tuple(
            ax.reshape((1,) * k + (self.m,) + (1,) * (self.d - k - 1)) for k in range(self.d)
        )

    def radius_sq_mesh(self) -> np.ndarray:
        mesh = self.coordinate_mesh()
        out = np.zeros(self.shape)
        for c in mesh:
            out = out + c * c
        return out

    def rfft_shape(self) -> tuple:
        return (self.m,) * (self.d - 1) + (self.m // 2 + 1,)

    def freq_sq_mesh(self) -> np.ndarray:
        """|xi|^2 on the real-FFT frequency grid."""
        full = 2.0 * math.pi * np.fft.fftfreq(self.m, d=self.dx)
        half = 2.0 * math.pi * np.fft.rfftfreq(self.m, d=self.dx)
        axes = [full] * (self.d - 1) + [half]
        out = np.zeros(self.rfft_shape())
        for k, f in enumerate(axes):
            shape = [1] * self.d
            shape[k] = f.size
            out = out + (f.reshape(shape)) ** 2
        return out

    def nearest_index(self, points) -> tuple:
        """Nearest lattice site(s) for signed coordinates, as an index tuple."""
        idx = np.rint(np.asarray(points, dtype=float) / self.dx).astype(int) % self.m
        return tuple(idx[..., k] for k in range(self.d))

    def ball_mask(self, radius: float) -> np.ndarray:
        """Boolean mask of sites within Euclidean torus distance radius of 0."""
        if not radius > 0:
            raise LatticeError(f"ball radius {radius} violates radius > 0")
        if radius > self.period / 2.0:
            raise LatticeError(
                f"ball radius {radius} exceeds period/2 = {self.period / 2.0}"
            )
        return self.radius_sq_mesh() <= radius * radius + 1e-12

    def to_dict(self) -> dict:
        return {"d": self.d, "m": self.m, "dx": self.dx}

    @classmethod
    def from_dict(cls, spec: dict) -> "LatticeGrid":
        return cls(d=spec["d"], m=spec["m"], dx=spec["dx"])


@lru_cache(maxsize=128)
def _freq_sq_cached(grid: LatticeGrid) -> np.ndarray:
    out = grid.freq_sq_mesh()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def propagator_multiplier(grid: LatticeGrid, kappa: float, tau: float) -> np.ndarray:
    """exp(-kappa tau |xi|^2 / 2) on the real-FFT grid."""
    if not (tau >= 0 and kappa > 0):
        raise LatticeError("propagator needs tau >= 0 and kappa > 0")
    mult = np.exp(-0.5 * kappa * tau * _freq_sq_cached(grid))
    mult.setflags(write=False)
    return mult

"""Periodic lattice, heat kernel, and the spectral heat propagator.

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
        if self.d not in (1, 2, 3):
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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and self.d == 1:
            pts = pts.reshape(-1, 1)
        idx = np.rint(pts / self.dx).astype(int) % self.m
        return tuple(idx[..., k] for k in range(self.d))

    def ball_mask(self, radius: float) -> np.ndarray:
        """Boolean mask of sites within Euclidean torus distance radius of 0."""
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


def heat_kernel(t: float, z, kappa: float) -> np.ndarray:
    """Free-space transition density p_t(z) = (2 pi kappa t)^{-d/2} exp(-|z|^2/(2 kappa t)).

    z may be a scalar (d=1), one point, or an array of points with trailing
    axis d; t and kappa must be positive.
    """
    if t <= 0 or kappa <= 0:
        raise LatticeError("heat_kernel needs t > 0 and kappa > 0")
    pts = np.asarray(z, dtype=float)
    if pts.ndim == 0:
        d = 1
        r2 = pts * pts
    else:
        d = pts.shape[-1]
        r2 = np.sum(pts * pts, axis=-1)
    return (2.0 * math.pi * kappa * t) ** (-d / 2.0) * np.exp(-r2 / (2.0 * kappa * t))


@lru_cache(maxsize=128)
def _freq_sq_cached(grid: LatticeGrid) -> np.ndarray:
    out = grid.freq_sq_mesh()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def propagator_multiplier(grid: LatticeGrid, kappa: float, tau: float) -> np.ndarray:
    """exp(-kappa tau |xi|^2 / 2) on the real-FFT grid."""
    if tau < 0 or kappa <= 0:
        raise LatticeError("propagator needs tau >= 0 and kappa > 0")
    mult = np.exp(-0.5 * kappa * tau * _freq_sq_cached(grid))
    mult.setflags(write=False)
    return mult


def sampled_heat_kernel(grid: LatticeGrid, kappa: float, tau: float) -> np.ndarray:
    """Discrete convolution kernel of the propagator (periodized heat kernel).

    Returned in sum convention: the propagated field
    irfftn(rfftn(g) * propagator_multiplier) equals the circular
    convolution sum_j K[i-j] g[j].  Entries are positive up to bandlimit
    ringing of order exp(-kappa tau (pi/dx)^2 / 2); once the multiplier
    underflows at the Nyquist frequency the kernel is positive to roundoff.
    """
    return np.fft.irfftn(
        propagator_multiplier(grid, kappa, tau), s=grid.shape, axes=tuple(range(grid.d))
    )


def d_separation(x, y, period: float | None = None) -> float:
    """Smallest per-coordinate separation min_l |x_l - y_l|.

    With a period L the coordinate differences are reduced to the torus:
    min(|x_l - y_l| mod L, L - |x_l - y_l| mod L).
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape:
        raise LatticeError("points must share a shape")
    diff = np.abs(xv - yv)
    if period is not None:
        diff = diff % period
        diff = np.minimum(diff, period - diff)
    return float(np.min(diff))

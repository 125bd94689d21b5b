"""Synthesis of the correlated Gaussian noise increments on the lattice.

One time slice of the driving noise over a step dt is built in two stages:

1. white noise: independent N(0, dt / dx^d) per site, the cell-averaged
   increment of a Brownian sheet;
2. spatial correlation: circular convolution with the model kernel h,
   realized in Fourier space as

       zeta = irfftn( rfftn(w) * H ),    H[k] = h_hat(xi_k),

   where h_hat is the continuum transform of h evaluated on the lattice
   frequencies.  With this normalization E[zeta(x) zeta(y)] = dt * f_eff(x-y)
   where f_eff(z) = L^{-d} sum_k f_hat(xi_k) exp(i xi_k . z) is the
   grid-regularized covariance (the periodization of f over torus images).

For a riesz model h_hat blows up at frequency zero; the zero mode is set to
the value at the smallest nonzero lattice frequency 2 pi / L.

Tapered levels: the kernel at cutoff level n is h_n(x) = h(x) * taper where
taper is the per-axis triangle of half-width n.  On the grid the tapered
multiplier is rebuilt from the real-space kernel,

    H_n = rfftn( irfftn(H) * taper ),

which makes full-minus-cutoff telescoping exact: convolving the same white
slice against H, H_n and H - H_n satisfies the difference identity to
floating-point roundoff.

Reproducibility: a slice is a pure function of (seed, stream_id, step); the
generator is a counter-based Philox keyed by (seed, stream_id) with the step
index placed in the third counter word, so any step can be replayed without
drawing its predecessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .correlation import CorrelationModel, CutoffConfig, kernel_h_hat_radial
from .lattice import LatticeGrid

FULL_LEVEL = "full"


class NoiseError(ValueError):
    pass


@dataclass
class WhiteNoiseSource:
    """Counter-based white-noise stream for one replica."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**63):
            raise NoiseError("seed must be a nonnegative 63-bit integer")
        if not (0 <= int(self.stream_id) < 2**63):
            raise NoiseError("stream_id must be a nonnegative 63-bit integer")

    def generator_at(self, step: int) -> np.random.Generator:
        bitgen = np.random.Philox(
            key=np.array([self.seed, self.stream_id], dtype=np.uint64),
            counter=np.array([0, 0, step, 0], dtype=np.uint64),
        )
        return np.random.Generator(bitgen)

    def white_at(self, step: int, grid: LatticeGrid, dt: float) -> np.ndarray:
        """White-noise array for one step, independent of source state."""
        if dt <= 0:
            raise NoiseError("dt must be positive")
        scale = np.sqrt(dt / grid.cell_volume)
        rng = self.generator_at(step)
        return scale * rng.standard_normal(grid.shape)


def _require_kernel(model: CorrelationModel):
    if not model.has_kernel:
        raise NoiseError(
            f"correlation kind {model.kind!r} has no convolution kernel h; "
            "kernel-based noise synthesis is unavailable"
        )


def _level_key(level) -> Union[str, float]:
    if level is None or level == FULL_LEVEL:
        return FULL_LEVEL
    if isinstance(level, CutoffConfig):
        return float(level.n)
    return float(level)


@lru_cache(maxsize=256)
def _multiplier_cached(model: CorrelationModel, grid: LatticeGrid, level) -> np.ndarray:
    _require_kernel(model)
    if model.d != grid.d:
        raise NoiseError(f"model dimension {model.d} does not match grid dimension {grid.d}")
    freq_sq = grid.freq_sq_mesh()
    radial = np.sqrt(freq_sq)
    full = np.asarray(kernel_h_hat_radial(model, radial), dtype=float)
    if not np.all(np.isfinite(full)):
        # riesz zero mode: substitute the smallest nonzero lattice frequency
        patch = kernel_h_hat_radial(model, 2.0 * np.pi / grid.period)
        full = np.where(np.isfinite(full), full, patch)
    if level == FULL_LEVEL:
        out = full
    else:
        n = float(level)
        CutoffConfig(n=n)  # validates n >= 1
        if n < grid.dx:
            raise NoiseError(f"cutoff level {n} is below one grid cell dx = {grid.dx}")
        if n > grid.period / 2.0:
            raise NoiseError(f"cutoff level {n} exceeds period/2 = {grid.period / 2.0}")
        h_real = np.fft.irfftn(full, s=grid.shape, axes=tuple(range(grid.d)))
        taper = np.ones(grid.shape)
        for c in grid.coordinate_mesh():
            taper = taper * np.clip(1.0 - np.abs(c) / n, 0.0, None)
        out = np.fft.rfftn(h_real * taper)
        out = np.ascontiguousarray(out.real)
    out.setflags(write=False)
    return out


def kernel_multiplier(model: CorrelationModel, grid: LatticeGrid, level=None) -> np.ndarray:
    """Fourier multiplier of the (possibly tapered) kernel on the rfft grid."""
    return _multiplier_cached(model, grid, _level_key(level))


def gridded_kernel_h(model: CorrelationModel, grid: LatticeGrid, level=None) -> np.ndarray:
    """Real-space kernel on the lattice, h(x_i), from the multiplier."""
    mult = kernel_multiplier(model, grid, level)
    return np.fft.irfftn(mult, s=grid.shape, axes=tuple(range(grid.d))) / grid.cell_volume


def correlate_array(white: np.ndarray, model: CorrelationModel, grid: LatticeGrid, level=None) -> np.ndarray:
    """Array-level correlation pass; leading axes are treated as a batch."""
    mult = kernel_multiplier(model, grid, level)
    axes = tuple(range(white.ndim - grid.d, white.ndim))
    spec = np.fft.rfftn(white, axes=axes)
    spec *= mult
    return np.fft.irfftn(spec, s=grid.shape, axes=axes)


def effective_covariance(model: CorrelationModel, grid: LatticeGrid, level=None) -> np.ndarray:
    """Grid-regularized covariance f_eff indexed by lag.

    f_eff[z] = L^{-d} sum_k |H_k|^2 exp(i xi_k . z); a correlated slice has
    E[zeta(x) zeta(x+z)] = dt * f_eff[z].
    """
    mult = kernel_multiplier(model, grid, level)
    return np.fft.irfftn(mult * mult, s=grid.shape, axes=tuple(range(grid.d))) / grid.cell_volume


def check_covariance_selftest(model: CorrelationModel, grid: LatticeGrid, lags, n_slices: int, level=None) -> list:
    """Raise unless covariance_selftest can run; returns the lags as ints."""
    if n_slices < 2:
        raise NoiseError("need at least two slices")
    lags = [int(l) for l in lags]
    if any(l < 0 or l >= grid.m for l in lags):
        raise NoiseError(f"lags must lie in [0, m), got {lags}")
    kernel_multiplier(model, grid, level)
    return lags


def covariance_selftest(
    model: CorrelationModel,
    grid: LatticeGrid,
    dt: float,
    lags: "list[int]",
    n_slices: int,
    seed: int = 0,
    level=None,
):
    """Empirical check of the slice covariance against dt * f_eff.

    Generates n_slices consecutive correlated slices (stream 0, steps
    0..n_slices-1), accumulates per-slice spatially averaged lag products
    along the first axis, and compares with the multiplier-derived target.
    Also tracks the products of consecutive slices, whose mean must sit in
    a null band (the noise is white in time).

    Returns (rows, cross_time) where rows are dicts with keys lag_cells,
    lag_distance, target, empirical, stderr and cross_time is a dict with
    mean, stderr, n_pairs.
    """
    lags = check_covariance_selftest(model, grid, lags, n_slices, level)
    f_eff = effective_covariance(model, grid, level)
    src = WhiteNoiseSource(seed=seed, stream_id=0)
    chunk = 2048
    sums = np.zeros(len(lags))
    sqs = np.zeros(len(lags))
    ct_sum = 0.0
    ct_sq = 0.0
    ct_n = 0
    prev_last = None
    axes = tuple(range(1, 1 + grid.d))
    for start in range(0, n_slices, chunk):
        stop = min(start + chunk, n_slices)
        w = np.empty((stop - start,) + grid.shape)
        for j in range(start, stop):
            w[j - start] = src.white_at(j, grid, dt)
        zeta = correlate_array(w, model, grid, level)
        flat_mean_axes = tuple(range(1, 1 + grid.d))
        for li, lag in enumerate(lags):
            prod = zeta * np.roll(zeta, -lag, axis=1)
            per_slice = prod.mean(axis=flat_mean_axes)
            sums[li] += float(per_slice.sum())
            sqs[li] += float(np.dot(per_slice, per_slice))
        pair = zeta[:-1] * zeta[1:]
        if prev_last is not None:
            boundary = (prev_last * zeta[0]).mean()
            ct_sum += float(boundary)
            ct_sq += float(boundary**2)
            ct_n += 1
        per_pair = pair.mean(axis=flat_mean_axes)
        ct_sum += float(per_pair.sum())
        ct_sq += float(np.dot(per_pair, per_pair))
        ct_n += per_pair.size
        prev_last = zeta[-1].copy()
    rows = []
    n = n_slices
    for li, lag in enumerate(lags):
        emp = sums[li] / n
        var = max(sqs[li] / n - emp * emp, 0.0)
        se = np.sqrt(var / n)
        target_idx = (lag,) + (0,) * (grid.d - 1)
        rows.append(
            {
                "lag_cells": lag,
                "lag_distance": lag * grid.dx,
                "target": float(dt * f_eff[target_idx]),
                "empirical": float(emp),
                "stderr": float(se),
            }
        )
    ct_mean = ct_sum / ct_n
    ct_var = max(ct_sq / ct_n - ct_mean * ct_mean, 0.0)
    cross_time = {
        "mean": float(ct_mean),
        "stderr": float(np.sqrt(ct_var / ct_n)),
        "n_pairs": int(ct_n),
    }
    return rows, cross_time

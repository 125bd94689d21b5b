"""Synthesis of the correlated Gaussian noise increments on the lattice.

One time slice of the driving noise over a step dt is built in two stages:

1. white noise: independent N(0, dt / dx^d) per site, the cell-averaged
   increment of a Brownian sheet, drawn as its transform w_hat on the rfft
   grid: one complex normal per mode with E|w_hat_k|^2 = N dt / dx^d (N =
   m^d sites), twice that on the planes k_last = 0 and m/2.  There irfftn
   keeps only the Hermitian part (w_hat_k + conj(w_hat_-k)) / 2, which has
   the law of the rfft of real white noise, so irfftn(w_hat) is exactly a
   white slice;
2. spatial correlation: circular convolution with the model kernel h,
   realized in Fourier space as

       zeta = irfftn( w_hat * H ),    H[k] = h_hat(xi_k),

   where h_hat is the continuum transform of h evaluated on the lattice
   frequencies.  With this normalization E[zeta(x) zeta(y)] = dt * f_eff(x-y)
   where f_eff(z) = L^{-d} sum_k f_hat(xi_k) exp(i xi_k . z) is the
   grid-regularized covariance (the periodization of f over torus images).
   H is real and even, so irfftn drops the same part of w_hat * H.

For a riesz model h_hat blows up at frequency zero; the zero mode is set to
the value at the smallest nonzero lattice frequency 2 pi / L.

Tapered levels: the kernel at cutoff level n is h_n(x) = h(x) * taper where
taper is the per-axis triangle of half-width n.  On the grid the tapered
multiplier is rebuilt from the real-space kernel,

    H_n = rfftn( irfftn(H) * taper ),

which makes full-minus-cutoff telescoping exact: convolving the same white
slice against H, H_n and H - H_n satisfies the difference identity to
floating-point roundoff.

Reproducibility: a slice is a pure function of (seed, stream_id, step).
Each stream is one SFC64 generator seeded from SeedSequence([seed,
stream_id]) and drawn forward: step j is the normals [2 j F, 2 (j + 1) F)
of its stream, F the number of modes, read as complex numbers, so a source
draws its steps in order and refuses any other.  The streams of a batch are
seeded in one pass, _stream_words hashing all their SeedSequence bits.  A
normal costs a variable number of words (the ziggurat rejects some), so a
step's place in the word stream is unknown until its predecessors are
drawn; there is no random access.  white_batch draws k consecutive steps of
every source of a batch, one generator call per source, and scales the
whole block once by a per-mode factor; step j has the same bits however
many steps each call draws, since the generator buffers nothing between
calls.  The noise is white in time, so the lattice engines read steps from
white_steps once each, in order: a stepped engine every step, the
constant-sigma full field one step per record time, each standing for a
whole interval.  The real slice's bits also rest on numpy's c2r transform
dropping the imaginary parts named above.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .correlation import CorrelationModel, kernel_h_hat_radial
from .lattice import LatticeGrid


class NoiseError(ValueError):
    pass


def check_seed(seed: int, name: str = "seed") -> int:
    """Raise unless seed is integral and 0 <= seed < 2**63; returns it as an int."""
    if not (isinstance(seed, (int, np.integer)) or isinstance(seed, (float, np.floating)) and seed.is_integer()):
        raise NoiseError(f"{name} = {seed!r} violates {name} integral")
    if not 0 <= seed < 2**63:
        raise NoiseError(f"{name} = {seed} violates 0 <= {name} < 2**63: a nonnegative 63-bit integer")
    return int(seed)


def _stream_words(seed: int, streams: Sequence[int]) -> np.ndarray:
    """Row i is SeedSequence([seed, streams[i]]).generate_state(4, np.uint64):
    numpy's hash, after O'Neill's seed_seq_fe, in uint32 arithmetic over the
    batch.  The entropy (seed's, then the stream's 32-bit words, low first)
    fits the pool of four, where a zero high word hashes as padding does."""
    seed = check_seed(seed)
    ids = np.asarray(streams)
    if ids.dtype.kind not in "iu" or ids.size and not (0 <= ids.min() and ids.max() < 2**63):
        ids = np.array([check_seed(s, "stream_id") for s in streams], dtype=np.int64)
    words = [seed % 2**32, seed >> 32] if seed >> 32 else [seed]
    entropy = [np.full(len(ids), w, np.uint32) for w in words] + [ids.astype(np.uint32), (ids >> 32).astype(np.uint32)]
    a = [0x43B0D7E5 * pow(0x931E8875, j, 2**32) % 2**32 for j in range(17)]  # pool: INIT_A * MULT_A**j
    b = [0x8B51F9DD * pow(0x58F38DED, j, 2**32) % 2**32 for j in range(9)]  # output: INIT_B * MULT_B**j

    def hashmix(v, c, j):
        v = (v ^ c[j]) * c[j + 1]
        return v ^ (v >> 16)

    pool = [hashmix(e, a, j) for j, e in enumerate((entropy + [0 * entropy[0]])[:4])]
    for j, (src, dst) in enumerate(itertools.permutations(range(4), 2), start=4):
        x = pool[dst] * 0xCA01F9DD - hashmix(pool[src], a, j) * 0x4973F715
        pool[dst] = x ^ (x >> 16)
    out = np.stack([hashmix(pool[j % 4], b, j) for j in range(8)], axis=1, dtype="<u4")
    return out.view("<u8").astype(np.uint64, copy=False)


@dataclass
class _Words(np.random.bit_generator.ISeedSequence):
    """SFC64's seed: a row of _stream_words, whose first three words it reads."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words[:n_words]


def _generators(seed: int, streams: Sequence[int]) -> list:
    """Generator(SFC64(SeedSequence([seed, s]))) for every stream s, seeded in one pass."""
    return [np.random.Generator(np.random.SFC64(_Words(row))) for row in _stream_words(seed, streams)]


@dataclass
class WhiteNoiseSource:
    """Forward-drawn white-noise stream for one replica.

    A source holds mutable generator state: its SFC64 generator and the
    index of its next step.  Two threads drawing from one source at once
    would interleave their steps, so each thread uses its own sources.
    """

    seed: int
    stream_id: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    next_step: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        (self._rng,) = _generators(self.seed, [self.stream_id])

    @classmethod
    def _batch(cls, seed: int, streams: Sequence[int]) -> list:
        """WhiteNoiseSource(seed, s) for every stream s, built past __init__ so
        that one pass seeds them all: a pass has a fixed cost of about 0.15 ms."""
        sources = [cls.__new__(cls) for _ in streams]
        for src, stream_id, rng in zip(sources, streams, _generators(seed, streams)):
            src.__dict__.update(seed=seed, stream_id=stream_id, _rng=rng)
        return sources

    def white_at(self, step: int, grid: LatticeGrid, dt: float) -> np.ndarray:
        """White-noise array of this source's next step, which must be step:
        the irfftn of its drawn transform."""
        what = np.empty((1, 1) + grid.rfft_shape(), dtype=complex)
        white_batch([self], step, grid, dt, what)
        return np.fft.irfftn(what[0, 0], s=grid.shape, axes=tuple(range(grid.d)))


def white_batch(sources: Sequence[WhiteNoiseSource], step: int, grid: LatticeGrid, dt: float, out: np.ndarray):
    """Draw the transforms of the k white slices step, ..., step + k - 1 of
    every source into out, a C-contiguous complex128 array of shape
    (len(sources), k, *grid.rfft_shape()), k >= 1; out[i, l] holds step + l
    of sources[i].  Every source must be at step."""
    if not dt > 0:
        raise NoiseError("dt must be positive")
    fshape = grid.rfft_shape()
    if not (isinstance(out, np.ndarray) and out.ndim == 2 + grid.d and out.shape[0] == len(sources)
            and out.shape[1] >= 1 and out.shape[2:] == fshape and out.dtype == np.complex128
            and out.flags.c_contiguous):
        want = ", ".join(map(str, (len(sources), "k") + fshape))
        raise NoiseError(f"out must be a C-contiguous complex128 array of shape ({want}), k >= 1, "
                         f"got {np.shape(out)}")
    for src in sources:
        if src.next_step != step:
            raise NoiseError(f"stream {src.stream_id} expects step {src.next_step}, got step {step}: "
                             "a source draws its steps in order, each once")
    parts = out.view(np.float64)
    for src, row in zip(sources, parts):
        src._rng.standard_normal(out=row)
        src.next_step += out.shape[1]
    # one factor per mode, for its real and its imaginary part
    scale = np.full(fshape, math.sqrt(grid.n_sites * dt / (2.0 * grid.cell_volume)))
    scale[..., [0, -1]] = math.sqrt(grid.n_sites * dt / grid.cell_volume)
    parts *= np.repeat(scale, 2, axis=-1)
    return out


# Steps of white noise drawn per generator call.  Step j's bits do not
# depend on it; a larger block saves calls but holds more slices at once.
BLOCK = 4


def white_steps(seed: int, streams: Sequence[int], grid: LatticeGrid, dt: float, n_steps: int):
    """Yield the transform of every stream's white slice of each step 0 ..
    n_steps - 1, in order: shape (len(streams), *grid.rfft_shape()), a view
    that the next draw overwrites.  It owns one source per stream, so no
    thread shares one, seeds them all in one pass, and draws BLOCK steps of
    all of them at a time, the last block only up to step n_steps - 1."""
    sources = WhiteNoiseSource._batch(seed, streams)
    fshape = grid.rfft_shape()
    buf = np.empty((len(sources) * BLOCK,) + fshape, dtype=complex)
    for first in range(0, n_steps, BLOCK):
        k = min(BLOCK, n_steps - first)
        block = white_batch(sources, first, grid, dt, buf[: len(sources) * k].reshape((len(sources), k) + fshape))
        for lag in range(k):
            yield block[:, lag]


def _require_kernel(model: CorrelationModel):
    if not model.has_kernel:
        raise NoiseError(
            f"correlation kind {model.kind!r} has no convolution kernel h; "
            "kernel-based noise synthesis is unavailable"
        )


@lru_cache(maxsize=256)
def _multiplier_cached(model: CorrelationModel, grid: LatticeGrid, n: Optional[float]) -> np.ndarray:
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
    if n is None:
        out = full
    else:
        if not (n >= 1.0):
            raise NoiseError(f"cutoff level n = {n} violates n >= 1")
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


def kernel_multiplier(model: CorrelationModel, grid: LatticeGrid, level: Optional[float] = None) -> np.ndarray:
    """Fourier multiplier of the kernel on the rfft grid.

    A float level n >= 1 tapers the kernel to the box |x_j| <= n; None
    gives the full kernel.
    """
    return _multiplier_cached(model, grid, None if level is None else float(level))


def effective_covariance(model: CorrelationModel, grid: LatticeGrid) -> np.ndarray:
    """Grid-regularized covariance f_eff indexed by lag.

    f_eff[z] = L^{-d} sum_k |H_k|^2 exp(i xi_k . z); a correlated slice has
    E[zeta(x) zeta(x+z)] = dt * f_eff[z].
    """
    mult = kernel_multiplier(model, grid)
    return np.fft.irfftn(mult * mult, s=grid.shape, axes=tuple(range(grid.d))) / grid.cell_volume


def check_covariance_selftest(model: CorrelationModel, grid: LatticeGrid, lags, n_slices: int) -> list:
    """Raise unless covariance_selftest can run; returns the lags as ints."""
    if n_slices < 2:
        raise NoiseError("need at least two slices")
    lags = [int(l) for l in lags]
    if any(l < 0 or l >= grid.m for l in lags):
        raise NoiseError(f"lags must lie in [0, m), got {lags}")
    kernel_multiplier(model, grid)
    return lags


def covariance_selftest(
    model: CorrelationModel,
    grid: LatticeGrid,
    dt: float,
    lags: "list[int]",
    n_slices: int,
    seed: int = 0,
):
    """Empirical check of the slice covariance against dt * f_eff.

    Draws n_slices consecutive correlated slices (stream 0, steps
    0..n_slices-1) in chunks of 2048, each slice one irfftn(w_hat * H), a
    chunk after the first carrying the last white draw of the chunk before
    it so that every consecutive pair lies in one chunk.  Each slice's
    spatially averaged lag products along the first axis go into a
    (len(lags), n_slices) array, each pair's averaged product into an
    (n_slices - 1,) array, and each row reduces once to its mean and
    std / sqrt(n).  The lag means are compared with the
    multiplier-derived target; the pair mean must sit in a null band (the
    noise is white in time).

    Returns (rows, cross_time) where rows are dicts with keys lag_cells,
    lag_distance, target, empirical, stderr and cross_time is a dict with
    mean, stderr, n_pairs.
    """
    lags = check_covariance_selftest(model, grid, lags, n_slices)
    f_eff = effective_covariance(model, grid)
    H = kernel_multiplier(model, grid)
    src = WhiteNoiseSource(seed=seed, stream_id=0)
    axes = tuple(range(1, 1 + grid.d))
    lag_means = np.empty((len(lags), n_slices))
    pair_means = np.empty(n_slices - 1)
    chunk = 2048
    # w[0, 1:] takes a chunk's white draws, w[0, 0] the last one of the chunk before
    w = np.empty((1, 1 + min(chunk, n_slices)) + grid.rfft_shape(), dtype=complex)
    for start in range(0, n_slices, chunk):
        first, stop = max(start - 1, 0), min(start + chunk, n_slices)
        w[0, 0] = w[0, -1]
        white_batch([src], start, grid, dt, w[:, 1 : 1 + stop - start])
        zeta = np.fft.irfftn(w[0, 1 + first - start : 1 + stop - start] * H, s=grid.shape, axes=axes)
        own = zeta[start - first:]
        for li, lag in enumerate(lags):
            lag_means[li, start:stop] = (own * np.roll(own, -lag, axis=1)).mean(axis=axes)
        pair_means[first : stop - 1] = (zeta[:-1] * zeta[1:]).mean(axis=axes)

    def mean_stderr(x):
        return float(x.mean()), float(x.std() / np.sqrt(x.size))

    rows = []
    for lag, per_slice in zip(lags, lag_means):
        target = float(dt * f_eff[(lag,) + (0,) * (grid.d - 1)])
        emp, se = mean_stderr(per_slice)
        rows.append({"lag_cells": lag, "lag_distance": lag * grid.dx, "target": target,
                     "empirical": emp, "stderr": se})
    ct_mean, ct_se = mean_stderr(pair_means)
    return rows, {"mean": ct_mean, "stderr": ct_se, "n_pairs": pair_means.size}

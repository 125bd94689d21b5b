"""Mild-form solver for the stochastic heat equation on the torus.

The field u solves du = (kappa/2) Laplacian u dt + sigma(u) dF with F the
spatially correlated noise of a CorrelationModel.  One exponential-Euler
step of size dt reads

    u_{t+dt} = P_dt[ u_t + sigma(u_t) * zeta_t ],

where P_dt is the spectral heat semigroup and zeta_t is the correlated
noise increment over [t, t+dt] (variance dt * f_eff(0) per site).  The
noise coefficient is evaluated at the pre-step field, so the stochastic
term is a martingale increment and the site mean is conserved in
expectation.

A localized variant builds the Picard iterates of the mild equation with a
tapered noise kernel (cutoff level beta) and a moving integration window of
per-axis half-width beta * sqrt(s) around each site at evaluation time s:

    U^{l+1}_s = P_s[u0] + sum_{j: s_j < s} T^{(s)}_{s - s_j}[ sigma(U^l_{s_j}) zeta_j ],

where T^{(s)}_tau convolves with the periodized heat kernel of age tau
truncated to the window box.  Truncation and kernel taper both have exact
support on the lattice, so fields at sites separated by more than
2 * depth * beta * (1 + sqrt(t)) in every coordinate are exactly
independent, where depth = floor(log beta) + 1 is the Picard depth.

In Fourier space the sum is a causal time convolution: a lower-triangular
kernel K[f, i, j] (age i - j, window of time i) is built once per call.
The replicas run in groups of one fixed width, GROUP_WIDTH, and each
Picard pass of a group is one matrix-matrix product K[f] @ G[f] per
frequency f; a part-filled group pads only G, with zero columns, so every
product is n x n by n x GROUP_WIDTH whatever the batch.  BLAS may sum a
product in another order at another width, but at one width a column's
bits depend neither on the other columns nor on its slot, so a replica's
bits do not depend on its batch.

Replica batches: the batch entry points evolve many replicas at once with
the grid axes last; each replica's noise depends only on (seed, stream_id,
step), so results are invariant to batch composition and thread count.
Every engine reads the steps in order: a call owns one forward-drawn
source per stream and draws BLOCK steps of all of them at a time.

Buffers: a call allocates its buffers once and steps in place; the noise
white_hat(j) is read-only and valid until the next draw overwrites it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .correlation import CorrelationModel
from .lattice import LatticeGrid, propagator_multiplier
from .noise import WhiteNoiseSource, kernel_multiplier, white_batch


class SolverError(ValueError):
    pass


class SolverBlowup(RuntimeError):
    """Raised when a field stops being finite; carries time and magnitude."""

    def __init__(self, t, max_abs, streams):
        self.t = t
        self.max_abs = max_abs
        self.streams = streams
        super().__init__(f"field not finite at t={t:.6g} (max |u| before failure {max_abs:.3e}), "
                         f"streams {list(streams)}")

    def __reduce__(self):
        # args holds only the message; rebuild from the fields instead, so a
        # blowup raised in a replica_map worker process unpickles in the caller
        return type(self), (self.t, self.max_abs, self.streams)


SIGMA_KINDS = ("constant", "bounded_both", "bounded_below", "linear", "lipschitz_zero")


@dataclass(frozen=True)
class SigmaFunction:
    """Noise coefficient sigma(u), one of SIGMA_KINDS."""

    kind: str
    eps0: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            raise SolverError(f"unknown sigma kind {self.kind!r}")
        if self.kind == "constant" and (self.eps0 is None or not self.eps0 > 0):
            raise SolverError("constant sigma needs eps0 > 0")
        if self.kind in ("linear", "lipschitz_zero") and (self.c is None or not self.c > 0):
            raise SolverError(f"{self.kind} sigma needs c > 0")

    @classmethod
    def constant(cls, eps0: float) -> "SigmaFunction":
        return cls(kind="constant", eps0=eps0)

    @classmethod
    def bounded_both(cls) -> "SigmaFunction":
        """sigma(u) = 1 + 0.5 sin u, bounded in [0.5, 1.5]."""
        return cls(kind="bounded_both")

    @classmethod
    def bounded_below(cls) -> "SigmaFunction":
        """sigma(u) = 1 + 0.5|u|/(1+|u|) + 0.1|u|; >= 1 but unbounded above."""
        return cls(kind="bounded_below")

    @classmethod
    def linear(cls, c: float = 1.0) -> "SigmaFunction":
        """sigma(u) = c u (parabolic Anderson coefficient)."""
        return cls(kind="linear", c=c)

    @classmethod
    def lipschitz_zero(cls, c: float = 1.0) -> "SigmaFunction":
        """sigma(u) = c u / (1 + u^2); sigma(0) = 0 and |sigma| <= c/2."""
        return cls(kind="lipschitz_zero", c=c)

    def __call__(self, u):
        if self.kind == "constant":
            return self.eps0
        if self.kind == "bounded_both":
            return 1.0 + 0.5 * np.sin(u)
        if self.kind == "bounded_below":
            au = np.abs(u)
            return 1.0 + 0.5 * au / (1.0 + au) + 0.1 * au
        if self.kind == "linear":
            return self.c * u
        return self.c * u / (1.0 + u * u)

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "linear"

    @classmethod
    def from_dict(cls, spec: dict) -> "SigmaFunction":
        return cls(**spec)


@dataclass(frozen=True)
class U0Spec:
    """Initial profile: flat positive level or a decaying Gaussian bump."""

    kind: str = "constant"
    level: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "gaussian_decay"):
            raise SolverError(f"unknown u0 kind {self.kind!r}")
        if not self.level > 0:
            raise SolverError("u0 level must be positive")

    def render(self, grid: LatticeGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.shape, float(self.level))
        return self.level * np.exp(-grid.radius_sq_mesh())

    @classmethod
    def from_dict(cls, spec: dict) -> "U0Spec":
        return cls(**spec)


@dataclass(frozen=True)
class SolverConfig:
    grid: LatticeGrid
    model: CorrelationModel
    sigma: SigmaFunction
    kappa: float
    dt: float
    u0: U0Spec = U0Spec()

    def __post_init__(self):
        if not self.kappa > 0:
            raise SolverError("kappa must be positive")
        if not self.dt > 0:
            raise SolverError("dt must be positive")
        if self.model.d != self.grid.d:
            raise SolverError("model and grid dimensions differ")


@dataclass
class SolutionField:
    grid: LatticeGrid
    t: float
    values: np.ndarray


@dataclass(frozen=True)
class LocalizationConfig:
    """Cutoff level and window factor beta >= 1."""

    beta: float

    def __post_init__(self):
        if not self.beta >= 1.0:
            raise SolverError("beta must be >= 1")

    def depth(self) -> int:
        """Picard depth floor(log beta) + 1 (natural log), at least 1: the
        depth at which the localization error bounds kick in."""
        return int(math.floor(math.log(self.beta))) + 1


def _steps_for(t_final: float, dt: float) -> int:
    if not t_final > 0:
        raise SolverError("t_final must be positive")
    n = t_final / dt
    n_round = round(n)
    broken = []
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(1.0, n_round):
        broken.append(f"t_final={t_final} is not an integer multiple of dt={dt}")
    if dt > t_final / 16.0 + 1e-15:
        broken.append(f"dt={dt} too coarse for t_final={t_final}: need dt <= t_final/16 = {t_final / 16.0}")
    if broken:
        raise SolverError("; ".join(broken))
    return int(n_round)


def check_solve(cfg: SolverConfig, t_final: float) -> int:
    """Raise unless cfg can step to t_final = n dt, n >= 16; returns n."""
    n_steps = _steps_for(t_final, cfg.dt)
    kernel_multiplier(cfg.model, cfg.grid, None)
    return n_steps


def check_localization(cfg: SolverConfig, loc: LocalizationConfig, t_final: float) -> None:
    """Raise unless loc can run on cfg to t_final: window beta*sqrt(t_final)
    <= L/4, steps and a cutoff dx <= beta <= L/2."""
    if not t_final > 0:
        raise SolverError("t_final must be positive")
    window = loc.beta * math.sqrt(t_final)
    quarter = cfg.grid.period / 4.0
    if window > quarter + 1e-12:
        raise SolverError(
            f"window beta*sqrt(t_final) = {window:.6g} exceeds period/4 = {quarter:.6g}"
        )
    _steps_for(t_final, cfg.dt)
    kernel_multiplier(cfg.model, cfg.grid, loc.beta)


def _clamp_negatives(u: np.ndarray, stats: dict):
    """Zero out negative sites of u in place, for multiplicative runs.

    Roundoff-scale dips (above -1e-12 * max|u|) are expected from the
    spectral convolution; anything below -1e-8 counts as an excursion and
    is tracked so refinement studies can confirm it shrinks.
    """
    neg = u < 0.0
    if not np.any(neg):
        return
    stats["excursions"] = stats.get("excursions", 0) + int(np.count_nonzero(u < -1e-8))
    floor = -1e-12 * float(np.max(np.abs(u)))
    stats["clamped"] = stats.get("clamped", 0) + int(np.count_nonzero(neg))
    stats["worst_negative"] = min(stats.get("worst_negative", 0.0), float(u.min()))
    if float(u.min()) < floor:
        stats["below_floor"] = stats.get("below_floor", 0) + int(np.count_nonzero(u < floor))
    np.maximum(u, 0.0, out=u)


def _check_finite(t: float, u: np.ndarray, streams: Sequence[int]) -> None:
    """Raise SolverBlowup at time t unless u is finite, naming the streams of
    its non-finite rows and the largest finite |u| (inf when there is none)."""
    finite = np.isfinite(u)
    if finite.all():
        return
    rows_ok = finite.reshape(len(u), -1).all(axis=1)
    bad = [s for s, ok in zip(streams, rows_ok) if not ok]
    peak = float(np.abs(u[finite]).max()) if finite.any() else math.inf
    raise SolverBlowup(t, peak, bad)


# Steps of white noise drawn per generator call.  Step j's bits do not
# depend on it; a larger block saves calls but holds more slices at once.
BLOCK = 4


def _white_hat(cfg: SolverConfig, seed: int, streams: Sequence[int]):
    """Step j -> transform of every stream's white-noise slice of step j, in a
    buffer that the next call overwrites.  Steps come in order (a step of the
    block last drawn may come again); the streams are drawn BLOCK at a time."""
    # One source per stream, owned by this call, so no thread shares one.
    sources = [WhiteNoiseSource(seed=seed, stream_id=s) for s in streams]
    grid = cfg.grid
    axes = tuple(range(1, 1 + grid.d))
    w = np.empty((len(sources), BLOCK) + grid.shape)
    what = np.empty((len(sources),) + grid.rfft_shape(), dtype=complex)
    first = -BLOCK  # the step in w[:, 0]

    def draw(j):
        nonlocal first
        if not first <= j < first + BLOCK:
            white_batch(sources, j, grid, cfg.dt, w)
            first = j
        return np.fft.rfftn(w[:, j - first], axes=axes, out=what)

    return draw


def solve_batch(
    cfg: SolverConfig,
    t_final: float,
    seed: int,
    streams: Sequence[int],
    collect_stats: Optional[dict] = None,
) -> np.ndarray:
    """Evolve a batch of replicas to t_final; returns values (n_rep, *grid.shape)."""
    n_steps = _steps_for(t_final, cfg.dt)
    return _solve_batch(cfg, n_steps, streams, _white_hat(cfg, seed, streams), collect_stats)


def _solve_batch(cfg: SolverConfig, n_steps: int, streams: Sequence[int], white_hat, collect_stats=None) -> np.ndarray:
    """solve_batch driven by white_hat(j), the transformed white slices of step j."""
    grid = cfg.grid
    H = kernel_multiplier(cfg.model, grid, None)
    P = propagator_multiplier(grid, cfg.kappa, cfg.dt)
    axes = tuple(range(1, 1 + grid.d))
    stats = collect_stats if collect_stats is not None else {}

    u0 = cfg.u0.render(grid)
    spec = np.empty((len(streams),) + grid.rfft_shape(), dtype=complex)
    if cfg.sigma.kind == "constant":
        # sigma does not look at the field, so the whole run can stay spectral;
        # overflow is detected on the final field
        uhat = np.broadcast_to(np.fft.rfftn(u0), spec.shape).copy()
        eps0 = cfg.sigma.eps0
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_steps):
                np.multiply(H, white_hat(j), out=spec)
                spec *= eps0
                uhat += spec
                uhat *= P
            u = np.fft.irfftn(uhat, s=grid.shape, axes=axes)
        _check_finite(n_steps * cfg.dt, u, streams)
        return u

    u = np.broadcast_to(u0, (len(streams),) + grid.shape).copy()
    g = np.empty_like(u)
    for j in range(n_steps):
        np.multiply(white_hat(j), H, out=spec)
        np.fft.irfftn(spec, s=grid.shape, axes=axes, out=g)
        # g holds zeta, then u + sigma(u) zeta; overflow is detected below
        with np.errstate(over="ignore", invalid="ignore"):
            g *= cfg.sigma(u)
            g += u
            np.fft.rfftn(g, axes=axes, out=spec)
            spec *= P
            np.fft.irfftn(spec, s=grid.shape, axes=axes, out=u)
        if cfg.sigma.is_multiplicative:
            _clamp_negatives(u, stats)
        _check_finite((j + 1) * cfg.dt, u, streams)
    return u


# Replicas per group of the time contraction.  It is fixed, not sized to
# the batch, so that a replica's bits do not depend on its batch (see the
# module docstring); 16 needs half the BLAS calls of 8, and a part-filled
# group pads only its product, by at most 15 zero columns.
GROUP_WIDTH = 16


def _kernel_stack(cfg: SolverConfig, n: int, beta: Optional[float], rows: Sequence[int]) -> np.ndarray:
    """Causal kernel stack K of shape (F, len(rows), n): K[f, r, j] is the
    transform of the heat kernel of age (i - j) * dt truncated to the window
    of time i * dt, i = rows[r], for j < i, and zero for j >= i."""
    grid = cfg.grid
    axes = tuple(range(1, 1 + grid.d))
    F = math.prod(grid.rfft_shape())
    ages = np.fft.irfftn(
        [propagator_multiplier(grid, cfg.kappa, a * cfg.dt) for a in range(1, n + 1)], s=grid.shape, axes=axes
    )
    K = np.zeros((F, len(rows), n), dtype=complex)
    for r, i in enumerate(rows):
        half = math.inf if beta is None else beta * math.sqrt(i * cfg.dt)
        box = np.ones(grid.shape, dtype=bool)
        for c in grid.coordinate_mesh():
            box &= np.abs(c) <= half + 1e-12
        K[:, r, :i] = np.fft.rfftn(ages[:i] * box, axes=axes)[::-1].reshape(i, F).T
    return K


# overflow is detected on the final field
@np.errstate(over="ignore", invalid="ignore")
def _mild_sum_batch(
    cfg: SolverConfig,
    t_final: float,
    streams: Sequence[int],
    n_iter: int,
    beta: Optional[float],
    white_hat,
) -> np.ndarray:
    """Final-time Picard iterate of the mild equation, optionally windowed
    and tapered; shape (len(streams), *grid.shape).  n_iter >= 1.

    beta, when set, is the cutoff level of the noise kernel and truncates the
    heat kernel of every stochastic convolution evaluated at time s to the
    box |z_l| <= beta*sqrt(s).  None keeps the full kernel and a window that
    covers the torus: the plain Picard iteration, which the tests check
    against solve_batch.  white_hat is the noise, as for _solve_batch.
    """
    grid = cfg.grid
    n = _steps_for(t_final, cfg.dt)
    R = len(streams)
    W = GROUP_WIDTH
    axes = tuple(range(-grid.d, 0))
    fshape = grid.rfft_shape()
    F = math.prod(fshape)
    H = kernel_multiplier(cfg.model, grid, beta)

    zeta = np.empty((n, R) + grid.shape)
    for j in range(n):
        np.fft.irfftn(white_hat(j) * H, s=grid.shape, axes=axes, out=zeta[j])
    # One pass needs only the final time.
    K = _kernel_stack(cfg, n, beta, range(1, n + 1) if n_iter > 1 else range(n, n + 1))

    u0 = cfg.u0.render(grid)
    u0hat = np.fft.rfftn(u0)
    det_hat = [u0hat * propagator_multiplier(grid, cfg.kappa, i * cfg.dt) for i in range(n + 1)]

    # The replicas run W at a time, replica g0 + w in slot w.  Each pass
    # fills G[f, j, w] with the transform of sigma(U_j) zeta_j for the
    # current iterate U, then takes one product K[f] @ G[f] per frequency,
    # always n x n by n x W whatever the batch: traj[f, i - 1, w] is the
    # stochastic term of the next iterate at time i * dt, i < n, kept in
    # place across passes.  The last pass computes the final time only.
    G = np.empty((F, n, W), dtype=complex)
    traj = np.empty((F, n - 1, W), dtype=complex)
    # G_at[j] and traj_at[j] are the (slot, *fshape) views of time j
    G_at = np.moveaxis(G.reshape(fshape + (n, W)), (-2, -1), (0, 1))
    traj_at = np.moveaxis(traj.reshape(fshape + (n - 1, W)), (-2, -1), (0, 1))
    final = np.empty((R,) + grid.shape)
    for g0 in range(0, R, W):
        r = min(W, R - g0)
        G[:, :, r:] = 0  # the empty slots of a part-filled group
        for it in range(n_iter):
            last = it == n_iter - 1
            for j in range(n if last else n - 1):
                u = u0
                if it > 0 and j > 0:
                    u = np.fft.irfftn(traj_at[j - 1, :r] + det_hat[j], s=grid.shape, axes=axes)
                np.fft.rfftn(cfg.sigma(u) * zeta[j, g0 : g0 + r], axes=axes, out=G_at[j, :r])
            if not last:
                np.matmul(K[:, : n - 1, : n - 1], G[:, : n - 1], out=traj)
        acc = np.moveaxis(np.matmul(K[:, -1:], G).reshape(fshape + (W,)), -1, 0)
        np.fft.irfftn(acc[:r] + det_hat[n], s=grid.shape, axes=axes, out=final[g0 : g0 + r])
    _check_finite(t_final, final, streams)
    return final


def localized_solve_batch(
    cfg: SolverConfig,
    loc: LocalizationConfig,
    t_final: float,
    seed: int,
    streams: Sequence[int],
) -> np.ndarray:
    """Localized Picard approximation of depth loc.depth() for a batch of replicas."""
    check_localization(cfg, loc, t_final)
    return next(_coupled_batch(cfg, [loc], t_final, seed, streams))


def _coupled_batch(cfg: SolverConfig, levels: Sequence, t_final: float, seed: int, streams):
    """Yield the field of streams at each of levels, all driven by one draw
    of their white noise: None is the full solution, a LocalizationConfig
    its localized Picard iterate.  More than one level keeps the transformed
    draws, n_steps x len(streams) x F complex; one level reads them as they
    are drawn, as solve_batch does."""
    n_steps = _steps_for(t_final, cfg.dt)
    draw = _white_hat(cfg, seed, streams)
    if len(levels) > 1:
        what = np.empty((n_steps, len(streams)) + cfg.grid.rfft_shape(), dtype=complex)
        for j in range(n_steps):
            what[j] = draw(j)
        draw = what.__getitem__
    for level in levels:
        yield (_solve_batch(cfg, n_steps, streams, draw) if level is None
               else _mild_sum_batch(cfg, t_final, streams, level.depth(), level.beta, draw))

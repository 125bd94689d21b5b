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
The engines read the steps of noise.white_steps once, in order: step j is
w_hat_j, the transform of the white slice of step j, so zeta_j =
irfftn(w_hat_j * H) with no forward transform.  A full field solved alone
with constant sigma is not stepped: one drawn step per record time has the
step loop's exact law.  Any other full field steps: a real-space step runs
three FFTs, zeta_j and the propagation pair.

Buffers: a call allocates its buffers once and steps in place; it reads
each step of the noise and does not write it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .correlation import CorrelationModel
from .lattice import LatticeGrid, propagator_multiplier
from .noise import kernel_multiplier, white_steps


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


def _steps_for(t: float, dt: float, name: str = "t_final") -> int:
    if not t > 0:
        raise SolverError(f"{name} must be positive")
    n = t / dt
    n_round = round(n)
    broken = []
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(1.0, n_round):
        broken.append(f"{name}={t} is not an integer multiple of dt={dt}")
    if dt > t / 16.0 + 1e-15:
        broken.append(f"dt={dt} too coarse for {name}={t}: need dt <= {name}/16 = {t / 16.0}")
    if broken:
        raise SolverError("; ".join(broken))
    return int(n_round)


def check_solve(cfg: SolverConfig, t_final: float) -> int:
    """Raise unless cfg can step to t_final = n dt, n >= 16; returns n."""
    n_steps = _steps_for(t_final, cfg.dt)
    kernel_multiplier(cfg.model, cfg.grid, None)
    return n_steps


def check_record_times(cfg: SolverConfig, times: Sequence[float]) -> list:
    """Raise unless cfg can record at times, one or more strictly increasing; returns their step counts."""
    broken = [] if len(times) >= 1 else [f"record_times = {times} violates len(record_times) >= 1"]
    if any(a >= b for a, b in zip(times, times[1:])):
        broken.append(f"record_times = {times} violates strictly increasing")
    counts = []
    for t in times:
        try:
            counts.append(_steps_for(t, cfg.dt, "record time"))
        except SolverError as e:
            broken.append(str(e))
    if broken:
        raise SolverError("; ".join(broken))
    kernel_multiplier(cfg.model, cfg.grid, None)
    return counts


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


def solve_batch(cfg: SolverConfig, t_final: float, seed: int, streams: Sequence[int]) -> np.ndarray:
    """Evolve a batch of replicas to t_final; returns values (n_rep, *grid.shape)."""
    return next(_coupled_batch(cfg, [None], t_final, seed, streams))


def _record_batch(cfg: SolverConfig, times: Sequence[float], seed: int, streams: Sequence[int]):
    """Yield the full field of streams at each of times, strictly increasing,
    from one pass over their noise.  Any sigma but constant steps to the last
    time, recording as it goes.  Constant sigma makes the spectral step linear
    in the noise: n more steps give P^n u_hat + eps0 H sum_{j<n} P^(n-j)
    w_hat_j, and the sum is one complex normal per mode, a step's variance
    times G = sum_{i=1..n} P^(2i).  So interval i is driven by step i alone,
    scaled by sqrt(G): the step loop's exact joint law at the record times."""
    grid = cfg.grid
    counts = check_record_times(cfg, times)
    if cfg.sigma.kind != "constant":
        yield from _stepped_fields(cfg, streams, counts, white_steps(seed, streams, grid, cfg.dt, counts[-1]))
        return
    a = cfg.kappa * cfg.dt * grid.freq_sq_mesh()  # P^2 = exp(-a)
    mult = cfg.sigma.eps0 * kernel_multiplier(cfg.model, grid, None)
    uhat = np.fft.rfftn(cfg.u0.render(grid))
    for n, dn, what in zip(counts, np.diff([0] + counts), white_steps(seed, streams, grid, cfg.dt, len(counts))):
        with np.errstate(invalid="ignore"):  # the zero mode, 0 / 0, is set below
            gain = np.exp(-a) * np.expm1(-dn * a) / np.expm1(-a)
        gain[a == 0] = dn
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is detected on the field
            uhat = np.exp(-0.5 * dn * a) * uhat + mult * np.sqrt(gain) * what
            u = np.fft.irfftn(uhat, s=grid.shape, axes=tuple(range(1, 1 + grid.d)))
        _check_finite(n * cfg.dt, u, streams)
        yield u


def _stepped_fields(cfg: SolverConfig, streams: Sequence[int], counts: Sequence[int], steps, collect_stats=None):
    """Yield the field after each of counts steps, strictly increasing, of
    the real-space step loop driven by steps, the transformed white slices
    of noise.white_steps; a multiplicative run counts clamps in collect_stats."""
    grid = cfg.grid
    H = kernel_multiplier(cfg.model, grid, None)
    P = propagator_multiplier(grid, cfg.kappa, cfg.dt)
    axes = tuple(range(1, 1 + grid.d))
    stats = collect_stats if collect_stats is not None else {}
    spec = np.empty((len(streams),) + grid.rfft_shape(), dtype=complex)
    u = np.broadcast_to(cfg.u0.render(grid), (len(streams),) + grid.shape).copy()
    g = np.empty_like(u)
    for j, what in enumerate(steps, 1):
        np.multiply(what, H, out=spec)
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
        _check_finite(j * cfg.dt, u, streams)
        if j in counts:
            # u is stepped in place, so an earlier record is a copy
            yield u if j == counts[-1] else u.copy()


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
    streams: Sequence[int],
    n: int,
    steps,
    n_iter: int,
    beta: Optional[float],
) -> np.ndarray:
    """Final-time Picard iterate of the mild equation, optionally windowed
    and tapered; shape (len(streams), *grid.shape).  n_iter >= 1.

    beta, when set, is the cutoff level of the noise kernel and truncates the
    heat kernel of every stochastic convolution evaluated at time s to the
    box |z_l| <= beta*sqrt(s).  None keeps the full kernel and a window that
    covers the torus: the plain Picard iteration, which the tests check
    against solve_batch.  n and steps are the noise, as for _stepped_fields.
    """
    grid = cfg.grid
    R = len(streams)
    W = GROUP_WIDTH
    axes = tuple(range(-grid.d, 0))
    fshape = grid.rfft_shape()
    F = math.prod(fshape)
    H = kernel_multiplier(cfg.model, grid, beta)

    zeta = np.empty((n, R) + grid.shape)
    for j, what in enumerate(steps):
        np.fft.irfftn(what * H, s=grid.shape, axes=axes, out=zeta[j])
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
    _check_finite(n * cfg.dt, final, streams)
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
    its localized Picard iterate.  The single level None is _record_batch's
    field at t_final; other levels step, None in _stepped_fields whatever
    its sigma.  More than one level keeps the transformed draws, n_steps x
    len(streams) x F complex; one reads them as drawn.  Every lattice solve
    enters here, but simulate's, which enters _record_batch with all times."""
    n_steps = _steps_for(t_final, cfg.dt)
    if list(levels) == [None]:
        yield from _record_batch(cfg, [t_final], seed, streams)
        return
    steps = white_steps(seed, streams, cfg.grid, cfg.dt, n_steps)
    if len(levels) > 1:
        what = np.empty((n_steps, len(streams)) + cfg.grid.rfft_shape(), dtype=complex)
        for j, step in enumerate(steps):
            what[j] = step
    for level in levels:
        if len(levels) > 1:
            steps = iter(what)
        yield (next(_stepped_fields(cfg, streams, [n_steps], steps)) if level is None
               else _mild_sum_batch(cfg, streams, n_steps, steps, level.depth(), level.beta))

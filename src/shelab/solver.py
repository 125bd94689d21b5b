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
2 * n_picard * beta * (1 + sqrt(t)) in every coordinate are exactly
independent.

Replica batches: the batch entry points evolve many replicas at once with
the grid axes last; each replica's noise depends only on (seed, stream_id,
step), so results are invariant to batch composition and thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .correlation import CorrelationModel, CorrelationError
from .lattice import LatticeGrid, propagator_multiplier
from .noise import WhiteNoiseSource, kernel_multiplier


class SolverError(ValueError):
    pass


class SolverBlowup(RuntimeError):
    """Raised when a field stops being finite; carries time and magnitude."""

    def __init__(self, t, max_abs, streams=None):
        self.t = t
        self.max_abs = max_abs
        self.streams = streams
        msg = f"field not finite at t={t:.6g} (max |u| before failure {max_abs:.3e})"
        if streams is not None:
            msg += f", streams {list(streams)}"
        super().__init__(msg)


SIGMA_KINDS = ("constant", "bounded_both", "bounded_below", "linear", "lipschitz_zero")


@dataclass(frozen=True)
class SigmaFunction:
    """Noise coefficient sigma(u) with a recorded Lipschitz constant."""

    kind: str
    eps0: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            raise SolverError(f"unknown sigma kind {self.kind!r}")
        if self.kind == "constant" and (self.eps0 is None or self.eps0 <= 0):
            raise SolverError("constant sigma needs eps0 > 0")
        if self.kind in ("linear", "lipschitz_zero") and (self.c is None or self.c <= 0):
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
    def lipschitz(self) -> float:
        return {
            "constant": 0.0,
            "bounded_both": 0.5,
            "bounded_below": 0.6,
            "linear": self.c or 0.0,
            "lipschitz_zero": self.c or 0.0,
        }[self.kind]

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "linear"

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.eps0 is not None:
            out["eps0"] = self.eps0
        if self.c is not None:
            out["c"] = self.c
        return out

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
        if self.level <= 0:
            raise SolverError("u0 level must be positive")

    def render(self, grid: LatticeGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.shape, float(self.level))
        return self.level * np.exp(-grid.radius_sq_mesh())

    def to_dict(self) -> dict:
        return {"kind": self.kind, "level": self.level}

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
        if self.kappa <= 0:
            raise SolverError("kappa must be positive")
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if self.model.d != self.grid.d:
            raise SolverError("model and grid dimensions differ")


@dataclass
class SolutionField:
    grid: LatticeGrid
    t: float
    values: np.ndarray
    provenance: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class LocalizationConfig:
    """Cutoff level and window factor beta, with Picard depth n_picard.

    n_picard defaults to floor(log beta) + 1 (natural log), the depth at
    which the localization error bounds kick in.
    """

    beta: float
    n_picard: Optional[int] = None

    def __post_init__(self):
        if self.beta < 1.0:
            raise SolverError("beta must be >= 1")
        if self.n_picard is not None and self.n_picard < 0:
            raise SolverError("n_picard must be >= 0")

    def depth(self) -> int:
        if self.n_picard is not None:
            return self.n_picard
        return int(math.floor(math.log(self.beta))) + 1


def _steps_for(t_final: float, dt: float) -> int:
    if t_final <= 0:
        raise SolverError("t_final must be positive")
    n = t_final / dt
    n_round = round(n)
    broken = []
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(1.0, n_round):
        broken.append(f"t_final={t_final} is not an integer multiple of dt={dt}")
    if dt > t_final / 16.0 + 1e-15:
        broken.append(f"dt={dt} too coarse: need dt <= t_final/16 = {t_final / 16.0}")
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
    <= L/4 and, with Picard iterates, steps and a cutoff dx <= beta <= L/2."""
    window = loc.beta * math.sqrt(t_final)
    quarter = cfg.grid.period / 4.0
    if window > quarter + 1e-12:
        raise SolverError(
            f"window beta*sqrt(t_final) = {window:.6g} exceeds period/4 = {quarter:.6g}"
        )
    if loc.depth() > 0:
        _steps_for(t_final, cfg.dt)
        kernel_multiplier(cfg.model, cfg.grid, loc.beta)


def _clamp_negatives(u: np.ndarray, stats: dict):
    """Zero out negative sites for multiplicative runs.

    Roundoff-scale dips (above -1e-12 * max|u|) are expected from the
    spectral convolution; anything below -1e-8 counts as an excursion and
    is tracked so refinement studies can confirm it shrinks.
    """
    neg = u < 0.0
    if not np.any(neg):
        return u
    stats["excursions"] = stats.get("excursions", 0) + int(np.count_nonzero(u < -1e-8))
    floor = -1e-12 * float(np.max(np.abs(u)))
    stats["clamped"] = stats.get("clamped", 0) + int(np.count_nonzero(neg))
    stats["worst_negative"] = min(stats.get("worst_negative", 0.0), float(u.min()))
    if float(u.min()) < floor:
        stats["below_floor"] = stats.get("below_floor", 0) + int(np.count_nonzero(u < floor))
    np.maximum(u, 0.0, out=u)
    return u


def _white_batch(cfg: SolverConfig, seed: int, streams: Sequence[int], step_idx: int, refine: int) -> np.ndarray:
    grid = cfg.grid
    out = np.empty((len(streams),) + grid.shape)
    dt_fine = cfg.dt / refine
    for i, s in enumerate(streams):
        src = WhiteNoiseSource(seed=seed, stream_id=s)
        acc = src.white_at(step_idx * refine, grid, dt_fine)
        for r in range(1, refine):
            acc += src.white_at(step_idx * refine + r, grid, dt_fine)
        out[i] = acc
    return out


def solve_batch(
    cfg: SolverConfig,
    t_final: float,
    seed: int,
    streams: Sequence[int],
    refine: int = 1,
    collect_stats: Optional[dict] = None,
) -> np.ndarray:
    """Evolve a batch of replicas to t_final; returns values (n_rep, *grid.shape).

    refine > 1 consumes the white-noise stream at step granularity
    dt / refine and sums sub-increments, so a run at (dt, refine=2) is
    driven by exactly the same noise as a run at (dt/2, refine=1).
    """
    grid = cfg.grid
    n_steps = _steps_for(t_final, cfg.dt)
    if refine < 1:
        raise SolverError("refine must be >= 1")
    H = kernel_multiplier(cfg.model, grid, None)
    P = propagator_multiplier(grid, cfg.kappa, cfg.dt)
    axes = tuple(range(1, 1 + grid.d))
    stats = collect_stats if collect_stats is not None else {}

    u0 = cfg.u0.render(grid)
    if cfg.sigma.kind == "constant":
        # sigma does not look at the field, so the whole run can stay spectral.
        uhat = np.broadcast_to(np.fft.rfftn(u0), (len(streams),) + grid.rfft_shape()).copy()
        eps0 = cfg.sigma.eps0
        for j in range(n_steps):
            w = _white_batch(cfg, seed, streams, j, refine)
            what = np.fft.rfftn(w, axes=axes)
            uhat += eps0 * (H * what)
            uhat *= P
            if not np.all(np.isfinite(uhat)):
                raise SolverBlowup((j + 1) * cfg.dt, math.inf, streams)
        return np.fft.irfftn(uhat, s=grid.shape, axes=axes)

    u = np.broadcast_to(u0, (len(streams),) + grid.shape).copy()
    for j in range(n_steps):
        w = _white_batch(cfg, seed, streams, j, refine)
        zeta = np.fft.irfftn(np.fft.rfftn(w, axes=axes) * H, s=grid.shape, axes=axes)
        # overflow here is legitimate: it is detected below and escalated
        with np.errstate(over="ignore", invalid="ignore"):
            g = u + cfg.sigma(u) * zeta
            u = np.fft.irfftn(np.fft.rfftn(g, axes=axes) * P, s=grid.shape, axes=axes)
        if cfg.sigma.is_multiplicative:
            u = _clamp_negatives(u, stats)
        if not np.all(np.isfinite(u)):
            bad = [s for i, s in enumerate(streams) if not np.all(np.isfinite(u[i]))]
            finite = u[np.isfinite(u)]
            peak = float(np.abs(finite).max()) if finite.size else math.inf
            raise SolverBlowup((j + 1) * cfg.dt, peak, bad)
    return u


def solve(cfg: SolverConfig, t_final: float, src: WhiteNoiseSource, refine: int = 1) -> SolutionField:
    """Single-replica convenience wrapper around solve_batch."""
    stats: dict = {}
    vals = solve_batch(cfg, t_final, src.seed, [src.stream_id], refine=refine, collect_stats=stats)
    prov = {
        "seed": src.seed,
        "stream_id": src.stream_id,
        "steps": _steps_for(t_final, cfg.dt),
        "dt": cfg.dt,
        "refine": refine,
        **stats,
    }
    return SolutionField(grid=cfg.grid, t=t_final, values=vals[0], provenance=prov)


def _window_mask(grid: LatticeGrid, half_width: float) -> np.ndarray:
    mask = np.ones(grid.shape)
    for c in grid.coordinate_mesh():
        mask = mask * (np.abs(c) <= half_width + 1e-12)
    return mask


def _mild_sum_batch(
    cfg: SolverConfig,
    t_final: float,
    seed: int,
    streams: Sequence[int],
    n_iter: int,
    level,
    window_beta: Optional[float],
    record_distances: Optional[list] = None,
    return_trajectory: bool = False,
):
    """Picard iterates of the mild equation, optionally windowed and tapered.

    level selects the noise kernel (None for full, or a cutoff level n).
    window_beta, when set, truncates the heat kernel of every stochastic
    convolution evaluated at time s to the box |z_l| <= window_beta*sqrt(s).
    """
    grid = cfg.grid
    n_steps = _steps_for(t_final, cfg.dt)
    R = len(streams)
    axes_b = tuple(range(1, 1 + grid.d))
    H = kernel_multiplier(cfg.model, grid, level)
    fshape = grid.rfft_shape()

    # Noise slices, shared-white with any coupled run of the same streams.
    zeta_hat = np.empty((n_steps, R) + fshape, dtype=complex)
    for j in range(n_steps):
        w = _white_batch(cfg, seed, streams, j, refine=1)
        zeta_hat[j] = np.fft.rfftn(w, axes=axes_b) * H
    zeta = np.fft.irfftn(zeta_hat, s=grid.shape, axes=tuple(range(2, 2 + grid.d)))
    del zeta_hat

    # Stochastic-term kernels: KH[i, delta-1] is the transform of the heat
    # kernel of age delta*dt, truncated to the window of evaluation time i*dt.
    KH = np.zeros((n_steps + 1, n_steps) + fshape, dtype=complex)
    for i in range(1, n_steps + 1):
        if window_beta is None:
            for delta in range(1, i + 1):
                KH[i, delta - 1] = propagator_multiplier(grid, cfg.kappa, delta * cfg.dt)
        else:
            mask = _window_mask(grid, window_beta * math.sqrt(i * cfg.dt))
            for delta in range(1, i + 1):
                kern = np.fft.irfftn(
                    propagator_multiplier(grid, cfg.kappa, delta * cfg.dt),
                    s=grid.shape,
                    axes=tuple(range(grid.d)),
                )
                KH[i, delta - 1] = np.fft.rfftn(kern * mask)

    u0 = cfg.u0.render(grid)
    u0hat = np.fft.rfftn(u0)
    det_hat = np.array(
        [u0hat * propagator_multiplier(grid, cfg.kappa, i * cfg.dt) for i in range(n_steps + 1)]
    )

    traj = np.broadcast_to(u0, (n_steps + 1, R) + grid.shape).copy()
    for it in range(n_iter):
        ghat = np.empty((n_steps, R) + fshape, dtype=complex)
        for j in range(n_steps):
            ghat[j] = np.fft.rfftn(cfg.sigma(traj[j]) * zeta[j], axes=axes_b)
        new = np.empty_like(traj)
        new[0] = u0
        for i in range(1, n_steps + 1):
            acc = np.einsum("jrf,jf->rf", ghat[:i], KH[i, :i][::-1], optimize=True)
            acc += det_hat[i]
            new[i] = np.fft.irfftn(acc, s=grid.shape, axes=axes_b)
        if record_distances is not None:
            diff = new[n_steps] - traj[n_steps]
            record_distances.append(float(np.sqrt(np.mean(diff * diff))))
        traj = new
    if not np.all(np.isfinite(traj[n_steps])):
        raise SolverBlowup(t_final, float(np.nanmax(np.abs(traj[n_steps]))), streams)
    if return_trajectory:
        return traj
    return traj[n_steps]


def localized_solve_batch(
    cfg: SolverConfig,
    loc: LocalizationConfig,
    t_final: float,
    seed: int,
    streams: Sequence[int],
) -> np.ndarray:
    """Localized Picard approximation for a batch of replicas."""
    check_localization(cfg, loc, t_final)
    depth = loc.depth()
    if depth == 0:
        # Iterate zero followed by the deterministic term only: heat flow of u0.
        u0hat = np.fft.rfftn(cfg.u0.render(cfg.grid))
        out = np.fft.irfftn(
            u0hat * propagator_multiplier(cfg.grid, cfg.kappa, t_final),
            s=cfg.grid.shape,
            axes=tuple(range(cfg.grid.d)),
        )
        return np.broadcast_to(out, (len(streams),) + cfg.grid.shape).copy()
    return _mild_sum_batch(
        cfg,
        t_final,
        seed,
        streams,
        n_iter=depth,
        level=loc.beta,
        window_beta=loc.beta,
    )


def picard_solve(
    cfg: SolverConfig, t_final: float, iterations: int, src: WhiteNoiseSource
) -> SolutionField:
    """Plain (untapered, unwindowed) Picard iteration of the mild equation.

    Successive final-time L2 distances are recorded in the provenance; the
    scheme contracts at these step sizes, so a non-decreasing distance after
    iteration 3 triggers a warning.
    """
    if iterations < 1:
        raise SolverError("picard_solve needs iterations >= 1")
    distances: list = []
    vals = _mild_sum_batch(
        cfg,
        t_final,
        src.seed,
        [src.stream_id],
        n_iter=iterations,
        level=None,
        window_beta=None,
        record_distances=distances,
    )
    for a, b in zip(distances[3:], distances[4:]):
        if b > a > 0:
            warnings.warn(
                f"picard iteration stopped contracting: distances {distances}",
                RuntimeWarning,
            )
            break
    prov = {
        "seed": src.seed,
        "stream_id": src.stream_id,
        "iterations": iterations,
        "picard_distances": distances,
    }
    return SolutionField(grid=cfg.grid, t=t_final, values=vals[0], provenance=prov)

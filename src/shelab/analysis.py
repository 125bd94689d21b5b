"""Monte Carlo estimators, the path-integral moment oracle, and probes.

Replica estimators follow one path.  replica_map farms replicas, solver
runs indexed by stream id, out in fixed chunks (optionally to forked worker
processes).  A chunk solves through _coupled_batch, at the levels the
estimator reads (full solution, localized iterates or both) on one draw of
the noise, and reduces the fields to one row per replica.  Rows merge in
stream order, so results do not depend on the worker count; column means
and their jackknife stderrs come from _jackknife_means.  Each estimator
first calls its check_* function, which raises every rule of the run
before any noise is drawn; manifest validation calls the same functions.

The moment oracle estimates E|u_t(x)|^k for flat initial data without
touching the lattice solver.  For multiplicative noise the k-th moment has
the path-integral representation

    E u_t(x)^k = u0^k * E exp( sum_{i != j} int_0^t f(sqrt(kappa) (b^i_r - b^j_r)) dr ),

with k independent standard d-dimensional Brownian motions b^i.  The time
integral is a trapezoid sum over inner steps; a riesz correlation needs
alpha < min(d, 2), the range where Dalang's condition holds and the moments
are finite, and is evaluated as f(max(|z|, r_reg)) with
r_reg = sqrt(kappa * dt_inner) so the singularity is sampled at the walk's
own resolution.  Averages of exp(large) are done in log space.

At strong coupling a few walkers carry the whole plain average, so the
walkers form a few independent populations that resample, as in population
dynamics (cloning) estimators of Feynman-Kac normalizers (Del Moral 2004;
Giardina, Kurchan and Peliti 2006).  After each inner step a population
whose weights exp(S) have an effective sample size below half its walkers
banks their log mean weight, clones walkers in proportion to the weights
and restarts them at weight 1; its log normalizer is the sum of the banked
log means and the final one.  Without a resampling the result is the plain
average and the stderr of the log-mean is a delete-one jackknife over
walkers; after one, walkers share ancestors, so the jackknife runs over
the independent populations, and their disagreement flags the estimate.

The orders of one oracle block share one walk (_fk_ladder): each step
draws the motions once, for the largest order, mixed so that every order
keeps its own law, and one evaluation of f gives every order its pair sum.
The orders of a block are therefore positively correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from .correlation import GAUSSIAN_H, RIESZ, CorrelationModel
from .noise import _generators, _integral, check_seed
from .solver import (
    LocalizationConfig,
    SolverConfig,
    _coupled_batch,
    check_localization,
    check_solve,
)


class AnalysisError(ValueError):
    pass


_CHUNK = 256


def _chunks(n: int) -> list:
    return [range(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


# The calls of the fork_map that forked this worker; set only in worker
# processes, never in the calling one.
_worker_calls = None


def _init_worker(calls):
    global _worker_calls
    _worker_calls = calls


def _run_call(i: int):
    return _worker_calls[i]()


def _check_threads(threads: int) -> None:
    if not threads >= 1:
        raise AnalysisError(f"threads = {threads} violates threads >= 1")


def fork_map(calls: Sequence[Callable], threads: int = 1) -> list:
    """Run independent zero-argument calls; their results in call order.

    ``threads`` >= 1 counts the worker processes.  With ``threads > 1`` and
    more than one call, the calls run in up to ``threads`` processes forked
    from the caller, so a call need not be picklable (the fork inherits it),
    but its side effects on the caller's objects are lost: it must return
    everything it computes.  Only the results and any exception travel back,
    pickled.  This needs POSIX ``fork``, and fork_map must be called from
    one thread, since forking a process that runs other threads is unsafe.
    With one call, or ``threads == 1``, the calls run in the calling
    process.  An exception surfaces from the first failing call in call
    order, whatever the worker count.
    """
    _check_threads(threads)
    if threads == 1 or len(calls) <= 1:
        return [call() for call in calls]
    # imported here so that runs without workers do not load (and hold the
    # memory of) multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(threads, len(calls)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(calls,),
    ) as ex:
        return list(ex.map(_run_call, range(len(calls))))


def replica_map(fn: Callable, n_replicas: int, threads: int = 1) -> np.ndarray:
    """Run fn(list_of_stream_ids) -> array over replica chunks, ordered merge.

    fn must return one row per stream id.  Chunk boundaries are fixed (not a
    function of the worker count) and per-replica noise depends only on
    (seed, stream id), so the concatenated output is invariant to threads.
    The chunks run through fork_map, in up to ``threads`` worker processes.
    """
    n = _integral(n_replicas, "replicas", AnalysisError)  # an integral float runs as the int
    if n < 1:
        raise AnalysisError(f"replicas = {n_replicas} violates replicas >= 1")
    calls = [partial(fn, list(chunk)) for chunk in _chunks(n)]
    return np.concatenate(fork_map(calls, threads), axis=0)


def _jackknife_se(loo: np.ndarray) -> np.ndarray:
    """Delete-one jackknife stderr from the n leave-one-out estimates along
    the last axis of loo; one value per leading index."""
    n = loo.shape[-1]
    dev = loo - np.mean(loo, axis=-1, keepdims=True)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=-1))


def _jackknife_means(rows: np.ndarray) -> tuple:
    """Mean and delete-one jackknife stderr of each column of rows (n >= 2, c).
    Each column is copied to a contiguous row first, so its mean and its
    leave-one-out means sum in the order of a 1-D array: their bits do not
    depend on the other columns."""
    x = np.ascontiguousarray(np.transpose(rows), dtype=float)
    loo = (np.sum(x, axis=-1, keepdims=True) - x) / (x.shape[-1] - 1)
    return np.mean(x, axis=-1), _jackknife_se(loo)


def jackknife_stat(values: np.ndarray, stat: str = "mean"):
    """Delete-one jackknife estimate and stderr for the mean or variance."""
    x = np.asarray(values, dtype=float)
    n = x.size
    need = 3 if stat == "var" else 2  # a delete-one variance needs two values left
    if n < need:
        raise AnalysisError(f"jackknife {stat} needs n >= {need} values, got n = {n}")
    if stat == "mean":
        est, se = _jackknife_means(x.reshape(n, 1))
        return float(est[0]), float(se[0])
    if stat == "var":
        s1, s2 = np.sum(x), np.sum(x * x)
        est = float(np.var(x, ddof=1))
        mean_loo = (s1 - x) / (n - 1)
        loo = (s2 - x * x - (n - 1) * mean_loo**2) / (n - 2)
        return est, float(_jackknife_se(loo))
    raise AnalysisError(f"unknown jackknife stat {stat!r}")


def _check_replicas(n_replicas: int) -> None:
    if _integral(n_replicas, "replicas", AnalysisError) < 2:
        raise AnalysisError(f"replicas = {n_replicas} violates replicas >= 2: a sample statistic needs two")


def _point_array(points, d: int) -> np.ndarray:
    """Points as an (n, d) array; each point must have d finite coordinates."""
    rows = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    for p, row in zip(points, rows):
        if row.shape != (d,):
            raise AnalysisError(f"point {p} does not have {d} coordinates")
        if not np.isfinite(row).all():
            raise AnalysisError(f"point {p} has a coordinate that is not finite")
    return np.array(rows).reshape(len(rows), d)


@dataclass(frozen=True)
class Scenario:
    """A solver setup plus the probe sites of estimators, by default the grid's origin."""

    cfg: SolverConfig
    t_final: float
    probes: Optional[tuple] = None

    def __post_init__(self):
        if self.probes is None:
            object.__setattr__(self, "probes", ((0.0,) * self.cfg.grid.d,))

    def probe_indices(self) -> tuple:
        grid = self.cfg.grid
        return grid.nearest_index(_point_array(self.probes, grid.d))


@dataclass
class MomentReport:
    ks: list
    estimates: list
    stderrs: list
    flags: list
    n_replicas: int
    t: float


def _heavy_tail_flag(samples: np.ndarray) -> bool:
    """True when the top 1% of samples carries more than half the mass."""
    s = np.sort(np.abs(samples))[::-1]
    top = max(1, math.ceil(0.01 * s.size))
    tot = float(np.sum(s))
    return tot > 0 and float(np.sum(s[:top])) / tot > 0.5


def check_moments(scenario: Scenario, ks: Sequence[int], n_replicas: int) -> tuple:
    """Raise unless estimate_moments can run; returns the probe indices."""
    if not ks:
        raise AnalysisError(f"ks = {list(ks)} violates len(ks) >= 1: at least one moment order")
    for k in ks:
        if _integral(k, "k", AnalysisError) < 1:
            raise AnalysisError(f"k = {k} violates k >= 1")
    if len(scenario.probes) < 1:
        raise AnalysisError(f"probes = {list(scenario.probes)} violates len(probes) >= 1")
    _check_replicas(n_replicas)
    check_solve(scenario.cfg, scenario.t_final)
    return scenario.probe_indices()


def estimate_moments(
    scenario: Scenario,
    ks: Sequence[int],
    n_replicas: int,
    seed: int = 0,
    threads: int = 1,
) -> MomentReport:
    """Monte Carlo absolute moments E|u_t(x)|^k at the probe sites.

    Per-replica values are the probe-site average of |u|^k (probes are
    exchangeable by stationarity); the stderr is a delete-one jackknife over
    replicas.  k outside 1..8, heavy-tailed samples, or relative stderr
    above 50% set the per-k unreliable flag.
    """
    idx = check_moments(scenario, ks, n_replicas)
    ks, n_replicas = [int(k) for k in ks], int(n_replicas)

    def batch(streams):
        vals = next(_coupled_batch(scenario.cfg, [None], scenario.t_final, seed, streams))
        probe_vals = np.abs(vals[(slice(None),) + idx].reshape(len(streams), -1))
        return np.column_stack([np.mean(probe_vals**k, axis=1) for k in ks])

    rows = replica_map(batch, n_replicas, threads)  # (N, len(ks)): probe mean of |u|^k
    estimates, stderrs = (a.tolist() for a in _jackknife_means(rows))
    flags = [bool(k > 8 or _heavy_tail_flag(col) or (est > 0 and se / est > 0.5))
             for k, col, est, se in zip(ks, rows.T, estimates, stderrs)]
    return MomentReport(
        ks=ks,
        estimates=estimates,
        stderrs=stderrs,
        flags=flags,
        n_replicas=n_replicas,
        t=scenario.t_final,
    )


@dataclass(frozen=True)
class FkOracleConfig:
    walkers: int = 10_000
    inner_steps: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("walkers", "inner_steps"):  # an integral float is kept as an int
            object.__setattr__(self, name, _integral(getattr(self, name), name, AnalysisError))
        if self.walkers < 2 or self.inner_steps < 2:
            raise AnalysisError("oracle needs walkers >= 2 and inner_steps >= 2")
        check_seed(self.seed)


@dataclass
class FkOracleResult:
    k: int
    t: float
    log_mean: float
    log_stderr: float
    estimate: float
    stderr: float
    heavy_tail: bool
    walkers: int
    reg_scale: float  # r_reg = sqrt(kappa * t / inner_steps), where riesz kernels are cut off
    resamplings: int


_FK_BLOCKS = 4  # independent walker populations, each resampled as a whole
# Weights within a factor 3 + 2 sqrt(2) of each other keep an effective sample
# size of at least half their number (Kantorovich's inequality), so while the
# log weights spread less than this no population needs the full check.
_FK_SAFE_LOG_SPREAD = math.log(3.0 + 2.0 * math.sqrt(2.0))


def _log_mean_jackknife(logx: np.ndarray) -> tuple:
    """log of the mean of exp(logx), with a delete-one jackknife stderr."""
    n = logx.size
    log_mean = float(logsumexp(logx) - math.log(n))
    shift = float(np.max(logx))
    e = np.exp(logx - shift)
    tot = float(np.sum(e))
    loo = shift + np.log(np.maximum(tot - e, 1e-300) / (n - 1))
    return log_mean, float(_jackknife_se(loo))


def _systematic_resample(w: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling: indices drawn in proportion to weights w."""
    n = w.size
    cum = np.cumsum(w)
    idx = np.searchsorted(cum, (u + np.arange(n)) * (cum[-1] / n), side="right")
    return np.minimum(idx, n - 1)


def check_oracle(model: CorrelationModel, kappa: float, t: float, k: int, u0_level: float) -> int:
    """Raise unless fk_moment_oracle can run and its path integral is finite; returns k as an int.

    A riesz kernel needs alpha < min(d, 2): the paper's range, and the range
    where Dalang's condition (and so a solution with finite moments) holds.
    """
    if _integral(k, "k", AnalysisError) < 2:
        raise AnalysisError(f"oracle moment order k = {k} violates k >= 2")
    for name, value in (("kappa", kappa), ("t", t), ("u0_level", u0_level)):
        if not value > 0:
            raise AnalysisError(f"oracle {name} = {value} violates {name} > 0")
    if model.kind == RIESZ:
        bound = min(model.d, 2)
        if model.alpha >= bound:
            raise AnalysisError(
                f"riesz alpha = {model.alpha} violates alpha < {bound} = min(d, 2)"
            )
    return int(k)


def fk_moment_oracle(
    model: CorrelationModel,
    kappa: float,
    t: float,
    k: int,
    cfg: FkOracleConfig,
    u0_level: float = 1.0,
) -> FkOracleResult:
    """Path-integral estimate of E u_t^k for flat initial data u0_level.

    Exact (zero variance) for the constant correlation, where the exponent
    is k(k-1) c t for every path; equal weights never resample.  Riesz
    correlations need alpha < min(d, 2) (see check_oracle).

    The walkers form _FK_BLOCKS independent populations.  After every inner
    step but the last, a population whose accumulated weights w = exp(S)
    have an effective sample size (sum w)^2 / sum w^2 below half its walkers
    adds log mean(w) to its log normalizer, is resampled systematically in
    proportion to w, and restarts its weights at 1.  log E u^k is the log of
    the mean over populations of exp(log normalizer), each an unbiased
    particle estimate.  When no population resamples this is the plain
    walker average: the stderr is a delete-one jackknife over walkers and
    heavy_tail is set when the top 1% of walkers carry over half the mass.
    After a resampling the walkers of a population share ancestors, so the
    jackknife runs over the independent populations instead, and heavy_tail
    is set when they disagree: a relative stderr above 50%, read on the log
    scale as log_stderr > log 1.5.

    This is the shared walk of _fk_ladder, which an oracle block runs once
    for all its orders, at the one order k: a step draws (k - 1) * d
    normals per walker.
    """
    k = check_oracle(model, kappa, t, k, u0_level)
    return _fk_ladder(model, kappa, t, [k], cfg, u0_level)[0]


@dataclass(eq=False)  # a walk removes its orders by identity
class _FkOrder:
    """One order's weights, populations and log normalizers; acc is the row
    of the pair-sum buffer that holds its pair sum."""

    k: int
    S: np.ndarray
    acc: np.ndarray
    log_norm: np.ndarray
    walk: _FkWalk
    resamplings: int = 0


@dataclass
class _FkWalk:
    """Motions y (motion, coordinate, walker; row 0 stays zero) and the
    orders that read them, lowest first."""

    y: np.ndarray
    orders: list


def _fk_ladder(
    model: CorrelationModel,
    kappa: float,
    t: float,
    ks: Sequence[int],
    cfg: FkOracleConfig,
    u0_level: float,
) -> list:
    """fk_moment_oracle at every order in ks, on one walk; results in ks order.

    Only differences between motions enter the pair sum and the weights, so
    the walk carries y_i = (b^i - b^0) / sqrt(dt) relative to b^0, in units
    of one step, walkers-last (y[i, c, m]: motion i, coordinate c, walker
    m; y_0 stays zero).  With K = max(ks), a step draws one (K - 1, d, M)
    block xi of standard normals and adds xi + c * sum_i xi_i to
    y_1..y_{K-1}, c = (sqrt(K) - 1) / (K - 1): any k - 1 of these motions
    then have the increment covariance I + 11^T of b^i - b^0, so each
    order's walk has the law it has when run alone.  The orders share the
    walk, so their estimates are positively correlated; each stderr is that
    order's own.  Pairs (i, j), i < j, are ordered by j, so the pairs among
    b^0..b^(k-1) are the first k(k-1)/2 rows of one (pairs, M) buffer, and
    a running sum of the per-j block sums gives every order its pair sum
    from one evaluation of f.  Each order keeps its own weights and
    populations.  It reads the shared walk until its first resampling, then
    moves a copy of its own k - 1 motions by the same increments.
    """
    M, n_inner = cfg.walkers, cfg.inner_steps
    dt = t / n_inner
    r_reg = math.sqrt(kappa * dt)
    d = model.d
    K = max(ks)
    rng, resample_rng = _generators(cfg.seed, [0x6F7261636C65, 0x726573616D70])
    y = np.zeros((K, d, M))
    xi = np.empty((K - 1, d, M))
    mix = np.empty((d, M))
    c_mix = (math.sqrt(K) - 1.0) / (K - 1)
    # f(sqrt(kappa) |b^i - b^j|) = amp * g(q) for the squared distance q in step units
    if model.kind == RIESZ:
        amp = model.c0 * r_reg ** (-model.alpha)  # g(q) = max(q, 1)^(-alpha/2): r >= r_reg
    elif model.kind == GAUSSIAN_H:
        amp, gauss = model.f_at_zero(), -kappa * dt / (4.0 * model.width**2)  # g(q) = exp(gauss q)
    else:
        amp = model.c  # g = 1
    # pairs (., j) are rows first[j]:first[j] + j
    first = [j * (j - 1) // 2 for j in range(K + 1)]
    diff, q = np.empty((2, first[K], M))
    cum = np.empty((K - 1, M))
    # Each population holds at least one walker; a single walker never resamples.
    starts = np.linspace(0, M, min(_FK_BLOCKS, M) + 1).astype(int)
    sizes = np.diff(starts)

    def pair_sums(y, n):
        """sum of g(q) over the pairs among y_0..y_j into cum[j - 1], for j < n."""
        qn, dn = q[: first[n]], diff[: first[n]]
        for c in range(d):
            yc, dst = y[:, c], (qn if c == 0 else dn)
            for j in range(1, n):
                np.subtract(yc[j], yc[:j], out=dst[first[j] : first[j + 1]])
            np.multiply(dst, dst, out=dst)
            if c:
                np.add(qn, dn, out=qn)
        if model.kind == RIESZ:
            np.maximum(qn, 1.0, out=qn)
            np.sqrt(qn, out=qn)
            np.power(qn, -model.alpha, out=qn)  # after sqrt: at alpha = 1 cheaper than q ** -0.5
        elif model.kind == GAUSSIAN_H:
            np.multiply(qn, gauss, out=qn)
            np.exp(qn, out=qn)
        else:
            qn.fill(1.0)
        for j in range(1, n):
            np.add.reduce(qn[first[j] : first[j + 1]], axis=0, out=cum[j - 1])
            if j > 1:
                np.add(cum[j - 2], cum[j - 1], out=cum[j - 1])

    def block_weights(S):
        """Weights exp(S) scaled per population, their sums, log mean weights."""
        top = np.maximum.reduceat(S, starts[:-1])
        e = np.exp(S - np.repeat(top, sizes))
        tot = np.add.reduceat(e, starts[:-1])
        return e, tot, top + np.log(tot / sizes)

    # S = 2 amp * trapezoid sum of dt * pair sum over the inner steps
    pair_sums(y, K)
    walks = [_FkWalk(y, [])]
    orders = [_FkOrder(k, amp * dt * cum[k - 2], cum[k - 2], np.zeros(sizes.size), walks[0])
              for k in sorted(set(ks))]
    walks[0].orders += orders
    for step in range(1, n_inner + 1):
        rng.standard_normal(out=xi)
        np.add.reduce(xi, axis=0, out=mix)
        mix *= c_mix
        scale = 2.0 * amp * dt if step < n_inner else amp * dt
        for w in walks:
            n = w.orders[-1].k
            moved = w.y[1:n]
            moved += xi[: n - 1]
            moved += mix
            pair_sums(w.y, n)
            for o in w.orders:
                o.acc *= scale
                o.S += o.acc
        if step == n_inner:
            continue
        for o in orders:
            if np.ptp(o.S) <= _FK_SAFE_LOG_SPREAD:
                continue
            e, tot, log_w = block_weights(o.S)
            low = tot * tot < 0.5 * sizes * np.add.reduceat(e * e, starts[:-1])
            for b in np.flatnonzero(low):
                if len(o.walk.orders) > 1:  # leave the shared walk for a copy of its own motions
                    o.walk.orders.remove(o)
                    o.walk = _FkWalk(o.walk.y[: o.k].copy(), [o])
                    walks.append(o.walk)
                lo, hi = starts[b], starts[b + 1]
                o.log_norm[b] += log_w[b]
                y_o = o.walk.y
                y_o[..., lo:hi] = y_o[..., lo + _systematic_resample(e[lo:hi], resample_rng.random())]
                o.S[lo:hi] = 0.0
                o.resamplings += 1

    results = {}
    for o in orders:
        if o.resamplings == 0:
            log_mean, log_se = _log_mean_jackknife(o.S)
            heavy = _heavy_tail_flag(np.exp(o.S - np.max(o.S)))
        else:
            log_mean, log_se = _log_mean_jackknife(o.log_norm + block_weights(o.S)[2])
            heavy = log_se > math.log(1.5)
        log_total = log_mean + o.k * math.log(u0_level)
        estimate = math.exp(log_total) if log_total < 700 else math.inf
        results[o.k] = FkOracleResult(
            k=o.k,
            t=t,
            log_mean=log_total,
            log_stderr=log_se,
            estimate=estimate,
            stderr=estimate * log_se if math.isfinite(estimate) else math.inf,
            heavy_tail=bool(heavy),
            walkers=M,
            reg_scale=r_reg,
            resamplings=o.resamplings,
        )
    return [results[k] for k in ks]


@dataclass
class TailEstimate:
    lam: float
    p_hat: float
    lo: float
    hi: float
    exceedances: int
    n: int


def wilson_interval(x: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1 or not (0 <= x <= n):
        raise AnalysisError("wilson_interval needs 0 <= x <= n, n >= 1")
    p, z = x / n, 1.96
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def check_tail_threshold(lam: float) -> None:
    """Raise unless lam > e, the tail regime of the growth statements."""
    if not lam > math.e:
        raise AnalysisError(f"tail threshold must exceed e ~ 2.718, got {lam}")


def tail_estimate(sups: np.ndarray, lam: float) -> TailEstimate:
    """Share of sup samples above lam > e, with a Wilson interval whose upper
    bound is informative even at zero exceedances."""
    check_tail_threshold(lam)
    x = int(np.count_nonzero(sups > lam))
    lo, hi = wilson_interval(x, sups.size)
    return TailEstimate(lam=lam, p_hat=x / sups.size, lo=lo, hi=hi, exceedances=x, n=sups.size)


@dataclass
class ExponentFit:
    abscissae: list  # the points that entered the fit
    exponent: float
    stderr: float
    r2: float


def _ols(x: np.ndarray, y: np.ndarray) -> tuple:
    """Slope, slope stderr and r2 of ordinary least squares.  Two points
    determine the line exactly, so their slope stderr is nan."""
    n = x.size
    xbar, ybar = np.mean(x), np.mean(y)
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0:
        raise AnalysisError("degenerate abscissae for a fit")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.nan
    return slope, se, r2


def check_fluctuation_radii(radii: Sequence[float]) -> None:
    """Raise unless the radii rise strictly and each has log R > 0, i.e. R > 1."""
    r = np.asarray(radii, dtype=float)
    if np.any(np.diff(r) <= 0) or np.any(r <= 1.0):
        raise AnalysisError(f"radii must be strictly increasing and > 1, got {r.tolist()}")


def fluctuation_exponent(radii: Sequence[float], mean_log_sup: Sequence[float]) -> ExponentFit:
    """Fit mean log u*(R) = A (log R)^psi, i.e. a line in log-log-R space.

    Nonpositive ordinates cannot enter the outer log: their radii are left
    out of the fit and of its abscissae.  At least two usable rungs are
    required, and radii must be strictly increasing with log R > 0 (R > 1).
    """
    r = np.asarray(radii, dtype=float)
    y = np.asarray(mean_log_sup, dtype=float)
    if r.size != y.size or r.size < 2:
        raise AnalysisError("need matching radii and ordinates, at least two")
    check_fluctuation_radii(radii)
    keep = y > 0
    if int(np.count_nonzero(keep)) < 2:
        raise AnalysisError("fewer than two positive mean-log-sup values")
    slope, se, r2 = _ols(np.log(np.log(r[keep])), np.log(y[keep]))
    return ExponentFit(abscissae=list(r[keep]), exponent=slope, stderr=se, r2=r2)


def _profile_power_fit(ks: np.ndarray, logm: np.ndarray) -> tuple:
    """Least squares for log-moment = a k^theta + b k, profiled over theta.

    The linear nuisance term absorbs u0^k prefactors and the -k part of
    k(k-1)-type exponents, so exact c*k^2 and c*t*k(k-1) inputs both
    recover theta = 2.
    """

    def ssr(theta):
        X = np.column_stack([ks**theta, ks])
        r = logm - X @ np.linalg.lstsq(X, logm, rcond=None)[0]
        return float(np.dot(r, r))

    res = optimize.minimize_scalar(ssr, bounds=(1.05, 5.0), method="bounded", options={"xatol": 1e-12})
    theta = float(res.x)
    return theta, ssr(theta)


def moment_growth_exponent(ks: Sequence[int], log_moments: Sequence[float], flags: Sequence[bool]) -> ExponentFit:
    """Growth exponent theta of log E|u|^k ~ a k^theta (+ linear nuisance).

    Fits the log-moments of the orders ks as a k^theta + b k by profiled
    least squares, leaving out flagged (unreliable) and non-finite ones;
    needs at least four distinct k left, which are the fit's abscissae.
    The stderr is a delete-one jackknife over those orders.
    """
    ks = np.asarray(ks, dtype=float)
    logm = np.asarray(log_moments, dtype=float)
    keep = np.isfinite(logm) & ~np.asarray(flags, dtype=bool)
    ks, logm = ks[keep], logm[keep]
    if ks.size < 4:
        raise AnalysisError("growth fit needs at least four reliable finite log-moments")
    theta, sse = _profile_power_fit(ks, logm)
    # the delete-one refits; with four orders each fits three exactly
    loo = np.array([_profile_power_fit(np.delete(ks, i), np.delete(logm, i))[0] for i in range(ks.size)])
    ss_tot = float(np.sum((logm - logm.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - sse / ss_tot
    return ExponentFit(abscissae=list(ks), exponent=theta, stderr=float(_jackknife_se(loo)), r2=r2)


@dataclass
class IndependenceResult:
    points: list
    correlations: np.ndarray
    max_abs_offdiag: float
    null_band: float
    separations: np.ndarray
    required_separation: float
    exact: bool  # every pair of points is at least required_separation apart
    passed: bool


def check_independence(
    cfg: SolverConfig, loc: LocalizationConfig, t_final: float, points: Sequence, n_replicas: int
) -> np.ndarray:
    """Raise unless independence_test can run; returns the points as an array."""
    pts = _point_array(points, cfg.grid.d)
    if pts.shape[0] < 2:
        raise AnalysisError("independence test needs at least two points")
    _check_replicas(n_replicas)
    check_localization(cfg, loc, t_final)
    return pts


def independence_test(
    cfg: SolverConfig,
    loc: LocalizationConfig,
    t_final: float,
    points: Sequence,
    n_replicas: int,
    seed: int = 0,
    threads: int = 1,
) -> IndependenceResult:
    """Sample correlations of the localized field across probe points.

    The null band is 4 / sqrt(N).  Exact independence is expected when the
    pairwise per-coordinate torus separation D is at least
    2 * depth * beta * (1 + sqrt(t)), depth = loc.depth(); ``exact`` says
    whether every pair of points is that far apart.  On a torus of period
    L no two points are more than L / 2 apart, so it needs L >= 2 D.
    """
    grid = cfg.grid
    pts = check_independence(cfg, loc, t_final, points, n_replicas)
    idx = grid.nearest_index(pts)

    def batch(streams):
        return next(_coupled_batch(cfg, [loc], t_final, seed, streams))[(slice(None),) + idx]

    samples = replica_map(batch, n_replicas, threads)  # (N, P)
    corr = np.corrcoef(samples, rowvar=False)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    max_abs = float(np.max(np.abs(off)))
    band = 4.0 / math.sqrt(n_replicas)
    # per-coordinate torus gaps of every pair, reduced to their smallest
    gap = np.abs(pts[:, None] - pts[None, :]) % grid.period
    seps = np.minimum(gap, grid.period - gap).min(axis=-1)
    np.fill_diagonal(seps, np.inf)
    required = 2.0 * loc.depth() * loc.beta * (1.0 + math.sqrt(t_final))
    return IndependenceResult(
        points=[tuple(p) for p in pts],
        correlations=corr,
        max_abs_offdiag=max_abs,
        null_band=band,
        separations=seps,
        required_separation=required,
        exact=bool(np.all(seps >= required)),
        passed=max_abs < band,
    )


@dataclass
class LocalizationCurve:
    betas: list
    errors: list
    stderrs: list
    k: int
    decay_rate: Optional[float]  # minus the slope of log error against log beta


def check_localization_curve(
    cfg: SolverConfig, t_final: float, betas: Sequence[float], k: int, n_replicas: int
) -> list:
    """Raise unless localization_error_curve can run; returns one config per beta."""
    if not k >= 1:
        raise AnalysisError(f"k = {k} violates k >= 1")
    blist = [float(b) for b in betas]
    if not blist or sorted(blist) != blist or len(set(blist)) != len(blist):
        raise AnalysisError("beta ladder must be nonempty and strictly increasing")
    _check_replicas(n_replicas)
    check_solve(cfg, t_final)
    locs = [LocalizationConfig(beta=beta) for beta in blist]
    for loc in locs:
        check_localization(cfg, loc, t_final)
    return locs


def localization_error_curve(
    cfg: SolverConfig,
    t_final: float,
    betas: Sequence[float],
    k: int,
    n_replicas: int,
    seed: int = 0,
    threads: int = 1,
) -> LocalizationCurve:
    """Coupled L^k error between the full solution and localized iterates.

    Every beta reuses the same white-noise streams (paired comparison), so
    the error ladder is monotone decrease under refinement rather than
    Monte Carlo noise.  Errors are (E |u - U^{beta}|^k)^{1/k} with the
    spatial mean inside the expectation.
    """
    locs = check_localization_curve(cfg, t_final, betas, k, n_replicas)
    blist = [loc.beta for loc in locs]

    def batch(streams):
        solves = _coupled_batch(cfg, [None] + locs, t_final, seed, streams)
        full = next(solves)
        return np.column_stack([(np.abs(full - approx) ** k).reshape(len(streams), -1).mean(axis=1)
                                for approx in solves])

    rows = replica_map(batch, n_replicas, threads)  # (N, B): spatial mean of |u - U^beta|^k
    means, mean_ses = (a.tolist() for a in _jackknife_means(rows))
    errors = [est ** (1.0 / k) for est in means]
    stderrs = [se / k * est ** (1.0 / k - 1.0) if est > 0 else 0.0 for est, se in zip(means, mean_ses)]
    decay_rate = None
    if len(blist) >= 2 and all(e > 0 for e in errors):
        decay_rate = -_ols(np.log(np.asarray(blist)), np.log(np.asarray(errors)))[0]
    return LocalizationCurve(betas=blist, errors=errors, stderrs=stderrs, k=k, decay_rate=decay_rate)


@dataclass
class BoundednessProbe:
    radii: list
    mean_sup: list
    stderr_sup: list
    mean_log_sup: list
    increments: list
    increment_stderrs: list
    verdict: str
    samples: np.ndarray  # (n_replicas, n_radii) raw sups, the input of tail_estimate


def check_boundedness(scenario: Scenario, radii: Sequence[float], n_replicas: int) -> list:
    """Raise unless boundedness_probe can run; returns one ball mask per radius."""
    rl = [float(r) for r in radii]
    if len(rl) < 2 or sorted(rl) != rl or len(set(rl)) != len(rl):
        raise AnalysisError("radius ladder must be strictly increasing with >= 2 rungs")
    _check_replicas(n_replicas)
    check_solve(scenario.cfg, scenario.t_final)
    return [scenario.cfg.grid.ball_mask(r) for r in rl]


def boundedness_probe(
    scenario: Scenario,
    radii: Sequence[float],
    n_replicas: int,
    seed: int = 0,
    threads: int = 1,
) -> BoundednessProbe:
    """Does sup_{|x| <= R} |u_t| saturate or keep growing in R?

    Uses paired per-replica increments between consecutive rungs of the
    radius ladder.  Verdict 'saturating' when the last two mean increments
    are both below 2 stderr, 'growing' when the last increment exceeds
    2 stderr, otherwise 'inconclusive'.
    """
    masks = check_boundedness(scenario, radii, n_replicas)
    rl = [float(r) for r in radii]

    def batch(streams):
        vals = next(_coupled_batch(scenario.cfg, [None], scenario.t_final, seed, streams))
        return np.column_stack([np.max(np.abs(vals[:, mask]), axis=1) for mask in masks])

    sups = replica_map(batch, n_replicas, threads)  # (N, n_radii): sup of |u_t| over each ball
    mean_sup, se_sup = (a.tolist() for a in _jackknife_means(sups))
    increments, inc_se = (a.tolist() for a in _jackknife_means(np.diff(sups, axis=1)))
    mean_log = [float(np.mean(np.log(col[col > 0]))) if np.any(col > 0) else math.nan for col in sups.T]
    last, last_se = increments[-1], inc_se[-1]
    prev, prev_se = (increments[-2], inc_se[-2]) if len(increments) >= 2 else (last, last_se)
    # <= so that exactly-zero increments (sup determined inside the smallest
    # ball in every replica) count as saturation, not as a failed band test.
    if abs(last) <= 2 * last_se and abs(prev) <= 2 * prev_se:
        verdict = "saturating"
    elif last > 2 * last_se:
        verdict = "growing"
    else:
        verdict = "inconclusive"
    return BoundednessProbe(
        radii=rl,
        mean_sup=mean_sup,
        stderr_sup=se_sup,
        mean_log_sup=mean_log,
        increments=increments,
        increment_stderrs=inc_se,
        verdict=verdict,
        samples=sups,
    )

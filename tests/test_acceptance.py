"""End-to-end acceptance runs at pinned tolerances.

Each test drives a full pipeline (solver, noise layer, path-integral
oracle, or result bundles) against a fixed quantitative band and records
one PASS/FAIL line via the `accept` fixture.  Seeds, lattice sizes, and
replica counts are frozen; the whole module is budgeted for a single
desk machine.
"""

import json
import math
import os
import time
from functools import partial

import numpy as np
from scipy import integrate

import shelab as sl
import shelab.analysis as an
import shelab.experiments as exp


# -- additive-noise variance against the heat-kernel quadrature -------------

def test_additive_variance_matches_quadrature(accept):
    # sigma == 1 solution is Gaussian with
    # Var u_t(x0) = (2 pi)^-1 int fhat(xi) (1 - e^{-kappa t xi^2}) / (kappa xi^2) dxi.
    w = a = kappa = 1.0
    t = 0.5
    fhat = lambda xi: a * a * 2 * math.pi * w * w * math.exp(-w * w * xi * xi)
    val, _ = integrate.quad(
        lambda xi: fhat(xi) * (1 - math.exp(-kappa * t * xi * xi)) / (kappa * xi * xi),
        1e-12,
        np.inf,
        limit=200,
    )
    target = 2 * val / (2 * math.pi)

    grid = sl.LatticeGrid(d=1, m=256, dx=0.25)
    cfg = sl.SolverConfig(
        grid=grid,
        model=sl.CorrelationModel.gaussian_h(d=1, width=w, amplitude=a),
        sigma=sl.SigmaFunction.constant(eps0=1.0),
        kappa=kappa,
        dt=1 / 256,
        u0=sl.U0Spec(kind="constant", level=1.0),
    )
    t0 = time.time()

    def fn(streams):
        return sl.solve_batch(cfg, t, 2024, list(streams))[:, 0:1]

    samples = an.replica_map(fn, 20_000, threads=4)[:, 0]
    wall = time.time() - t0
    var_hat, se = an.jackknife_stat(samples, "var")
    allow = 3 * se + 0.05 * target  # stderr band plus discretization allowance
    ok = abs(var_hat - target) < allow and wall < 600
    accept(
        ok,
        f"var={var_hat:.4f}+-{se:.4f} target={target:.4f} |diff|={abs(var_hat - target):.4f} "
        f"tol={allow:.4f} wall={wall:.0f}s/600s",
    )


# -- flat-correlation oracle closed form ------------------------------------

def test_constant_kernel_oracle_closed_form(accept):
    # Flat f makes the pair integrand deterministic, so the walker average
    # is exactly u0^k exp(c t k (k-1)) with zero spread.
    model = sl.CorrelationModel.constant(d=1, c=0.3)
    cfg = an.FkOracleConfig(walkers=5000, inner_steps=64, seed=7)
    t0 = time.time()
    rels = []
    for k in (2, 3, 4):
        res = an.fk_moment_oracle(model, 1.0, 1.0, k, cfg)
        exact = math.exp(0.3 * k * (k - 1))
        rels.append(abs(res.estimate / exact - 1.0))
    wall = time.time() - t0
    ok = max(rels) <= 1e-12 and wall < 1.0
    accept(ok, f"max rel err={max(rels):.2e} (tol 1e-12) k=2,3,4 wall={wall:.2f}s/1s")


# -- oracle vs lattice estimator on the same second moment ------------------

def test_oracle_and_lattice_estimator_agree(accept):
    # Same E[u_t(x0)^2], two unrelated estimators.  The oracle exponentiates
    # the ordered pair sum (twice the unordered one), so the matching
    # multiplicative coupling on the lattice is sqrt(2).
    kappa, t, k = 1.0, 0.25, 2
    model = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0)
    t0 = time.time()
    oracle = an.fk_moment_oracle(
        model, kappa, t, k, an.FkOracleConfig(walkers=200_000, inner_steps=512, seed=7)
    )
    cfg = sl.SolverConfig(
        grid=sl.LatticeGrid(d=1, m=512, dx=0.125),
        model=model,
        sigma=sl.SigmaFunction.linear(c=math.sqrt(2.0)),
        kappa=kappa,
        dt=1 / 256,
        u0=sl.U0Spec(kind="constant", level=1.0),
    )
    scen = an.Scenario(cfg=cfg, t_final=t, probes=((0.0,),))
    rep = an.estimate_moments(scen, [k], 20_000, seed=11, threads=4)
    wall = time.time() - t0
    diff = abs(rep.estimates[0] - oracle.estimate)
    allow = 3 * math.hypot(rep.stderrs[0], oracle.stderr) + 0.05 * oracle.estimate
    ok = diff < allow and wall < 900
    accept(
        ok,
        f"lattice={rep.estimates[0]:.4f}+-{rep.stderrs[0]:.4f} "
        f"oracle={oracle.estimate:.4f}+-{oracle.stderr:.4f} |diff|={diff:.4f} "
        f"tol={allow:.4f} wall={wall:.0f}s/900s",
    )


# -- moment growth exponents -------------------------------------------------

def _oracle_growth_fit(model, t, oracle_cfg):
    ks = list(range(2, 9))
    calls = [partial(an.fk_moment_oracle, model, 1.0, t, k, oracle_cfg) for k in ks]
    results = an.fork_map(calls, threads=2)
    fit = an.moment_growth_exponent(ks, [r.log_mean for r in results], [r.heavy_tail for r in results])
    fit.extras["resamplings"] = sum(r.resamplings for r in results)
    return fit


def test_moment_growth_exponent_flat_kernel(accept):
    fit = _oracle_growth_fit(
        sl.CorrelationModel.constant(d=1, c=0.3),
        1.0,
        an.FkOracleConfig(walkers=5000, inner_steps=16, seed=7),
    )
    ok = 1.9 <= fit.exponent <= 2.1
    accept(ok, f"theta={fit.exponent:.4f} band [1.9, 2.1]")


def test_moment_growth_exponent_long_range_kernel(accept):
    # Band [2.4, 3.6] around the clustering-driven target 3 for alpha=1:
    # log E u^k grows like k^{(4-alpha)/(2-alpha)}.  Parameters are frozen:
    # - d=2, alpha=1 lies inside the paper's range 0 < alpha < min(d, 2),
    #   where Dalang's condition holds and the moments are finite (at
    #   alpha = d they are not, and any walker average measures its cutoff).
    # - The law of the pair functional depends on c0 and t only through the
    #   coupling c0 * t^{(2-alpha)/2} (kappa = 1).  At 0.7 a plain average
    #   of these 20000 walkers flags every k >= 3 as heavy-tailed, while the
    #   oracle's resampled populations still agree on most k (a k whose
    #   populations disagree, log_stderr > log 1.5, is flagged and left out).
    # - walkers=20000 are 4 populations of 5000.  Per population of 2500,
    #   5000, 10000 and 20000 theta reads 2.61 (ks 2-5), 2.73 (ks 2-6), 2.70
    #   (ks 2-8) and 2.72 (ks 2-7): from 5000 up it moves by at most 0.03.
    # - inner_steps=256 puts the cutoff sqrt(kappa * dt) = 0.0625 below the
    #   k=8 cluster width kappa / ((k - 1) c0 sqrt(pi)) = 0.115, the width of
    #   the best Gaussian trial state of 8 walkers in d=2.  With 512 steps
    #   theta reads 2.69 from ks 2-5 only.
    t0 = time.time()
    fit = _oracle_growth_fit(
        sl.CorrelationModel.riesz(d=2, alpha=1.0, c0=0.7),
        1.0,
        an.FkOracleConfig(walkers=20000, inner_steps=256, seed=7),
    )
    wall = time.time() - t0
    ok = 2.4 <= fit.exponent <= 3.6
    accept(
        ok,
        f"theta={fit.exponent:.4f}+-{fit.stderr:.4f} band [2.4, 3.6] "
        f"ks={[int(k) for k in fit.abscissae]} resamplings={fit.extras['resamplings']} "
        f"wall={wall:.0f}s",
    )


# -- noise slice covariance --------------------------------------------------

def test_noise_covariance_selftest(accept):
    grid = sl.LatticeGrid(d=1, m=256, dx=0.25)
    model = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
    rows, cross = sl.covariance_selftest(model, grid, 1 / 256, [0, 2, 5, 10], 100_000, seed=11)
    zs = [(r["empirical"] - r["target"]) / r["stderr"] for r in rows]
    zc = cross["mean"] / cross["stderr"]
    ok = all(abs(z) < 3 for z in zs) and abs(zc) < 4
    accept(
        ok,
        "lag z=[" + " ".join(f"{z:+.2f}" for z in zs) + f"] (band 3), cross-time z={zc:+.2f} (band 4)",
    )


# -- localized-field error ladder and separation test ------------------------

def test_localization_error_ladder(accept):
    cfg = sl.SolverConfig(
        grid=sl.LatticeGrid(d=1, m=512, dx=0.25),
        model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
        sigma=sl.SigmaFunction.linear(c=1.0),
        kappa=1.0,
        dt=1 / 64,
        u0=sl.U0Spec(kind="constant", level=1.0),
    )
    curve = an.localization_error_curve(cfg, 0.25, [8.0, 16.0, 32.0], k=2, n_replicas=64, seed=3)
    ok = curve.errors[0] > curve.errors[1] > curve.errors[2]
    accept(
        ok,
        "coupled L2 errors strictly decreasing over beta=8,16,32: ["
        + " ".join(f"{e:.4f}" for e in curve.errors)
        + "]",
    )


def _separation_setup():
    cfg = sl.SolverConfig(
        grid=sl.LatticeGrid(d=1, m=128, dx=0.25),
        model=sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0),
        sigma=sl.SigmaFunction.linear(c=1.0),
        kappa=1.0,
        dt=0.25,
        u0=sl.U0Spec(kind="constant", level=1.0),
    )
    return cfg, sl.LocalizationConfig(beta=1.0), 4.0  # required separation 2*1*(1+2) = 6


def test_independence_at_full_separation(accept):
    cfg, loc, t = _separation_setup()
    res = an.independence_test(cfg, loc, t, [(0.0,), (6.0,), (12.0,), (18.0,)], 5000, seed=11)
    ok = res.max_abs_offdiag < res.null_band
    accept(
        ok,
        f"max|corr|={res.max_abs_offdiag:.4f} < band={res.null_band:.4f} "
        f"at separation {res.required_separation:.0f}",
    )


def test_dependence_at_half_separation(accept):
    # Below the separation bound the integration windows overlap and share
    # noise, so the correlation must leave the null band.
    cfg, loc, t = _separation_setup()
    res = an.independence_test(cfg, loc, t, [(0.0,), (3.0,)], 5000, seed=11)
    ok = res.max_abs_offdiag > res.null_band
    accept(ok, f"max|corr|={res.max_abs_offdiag:.4f} > band={res.null_band:.4f} at separation 3")


# -- sup growth contrast -----------------------------------------------------

_GRID_SUP = sl.LatticeGrid(d=1, m=1024, dx=0.25)
_RADII = [16.0, 32.0, 64.0, 128.0]


def _growing_probe():
    cfg = sl.SolverConfig(
        grid=_GRID_SUP,
        model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=0.4),
        sigma=sl.SigmaFunction.bounded_both(),
        kappa=1.0,
        dt=1 / 64,
        u0=sl.U0Spec(kind="constant", level=1.0),
    )
    return sl.boundedness_probe(sl.Scenario(cfg=cfg, t_final=0.5), _RADII, 128, seed=23)


def test_boundedness_verdicts(accept):
    growing = _growing_probe()
    cfg = sl.SolverConfig(
        grid=_GRID_SUP,
        model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
        sigma=sl.SigmaFunction.lipschitz_zero(1.0),
        kappa=1.0,
        dt=1 / 64,
        u0=sl.U0Spec(kind="gaussian_decay", level=1.0),
    )
    saturating = sl.boundedness_probe(sl.Scenario(cfg=cfg, t_final=0.5), _RADII, 128, seed=23)
    ok = growing.verdict == "growing" and saturating.verdict == "saturating"
    accept(
        ok,
        f"flat u0 + bounded sigma: {growing.verdict}; "
        f"decaying u0 + sigma(0)=0: {saturating.verdict}",
    )


def test_growing_fluctuation_exponent(accept):
    probe = _growing_probe()
    fit = an.fluctuation_exponent(probe.radii, probe.mean_log_sup)
    ok = 0.3 <= fit.exponent <= 0.7
    accept(ok, f"psi={fit.exponent:.3f}+-{fit.stderr:.3f} band [0.3, 0.7] radii {probe.radii}")


# -- bundle determinism -------------------------------------------------------

def test_bundle_determinism(accept, tmp_path):
    manifest = {
        "version": 1,
        "seed": 11,
        "replicas": 48,
        "model": {"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0},
        "grid": {"d": 1, "m": 64, "dx": 0.25},
        "solver": {
            "kappa": 1.0,
            "dt": 0.015625,
            "t_final": 0.25,
            "sigma": {"kind": "linear", "c": 1.0},
            "u0": {"kind": "constant", "level": 1.0},
        },
        "analysis": {"moments": {"ks": [2, 3]}},
    }
    blobs = []
    for name, threads in (("r1", 1), ("r2", 1), ("r8", 8)):
        out = str(tmp_path / name)
        exp.run(manifest, out, threads=threads)
        with open(os.path.join(out, "moments.csv"), "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1] == blobs[2]
    accept(ok, "moments.csv byte-identical across rerun and threads 1 vs 8")


def test_bundle_determinism_across_workers(accept, tmp_path):
    # 600 replicas make three 256-replica chunks, so at threads=2 the chunks
    # run in forked workers while threads=1 runs them in this process; the
    # oracle's two orders share one walk in this process at either count
    manifest = {
        "version": 1,
        "seed": 23,
        "replicas": 600,
        "model": {"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0},
        "grid": {"d": 1, "m": 64, "dx": 0.25},
        "solver": {
            "kappa": 1.0,
            "dt": 0.015625,
            "t_final": 0.25,
            "sigma": {"kind": "linear", "c": 1.0},
            "u0": {"kind": "constant", "level": 1.0},
        },
        "analysis": {
            "moments": {"ks": [2, 3]},
            "extremes": {"radii": [2.0, 4.0], "tail_lambdas": [3.0, 4.0]},
            "localize": {"betas": [2, 4], "k": 2},
            "independence": {"beta": 2, "points": [[0.0], [6.0]]},
            "oracle": {"ks": [2, 3], "walkers": 400, "inner_steps": 32},
        },
    }
    bundles = []
    for threads in (1, 2):
        out = tmp_path / f"w{threads}"
        assert exp.run(manifest, out, threads=threads).complete
        bundles.append({p.name: p.read_bytes() for p in out.iterdir()})
    csvs = [{name: data for name, data in bundle.items() if name.endswith(".csv")} for bundle in bundles]
    names = sorted(csvs[0])
    ok = len(names) == 6 and csvs[0] == csvs[1]
    accept(ok, f"{len(names)} CSVs byte-identical at threads 1 vs 2 over 3 chunks: {', '.join(names)}")
    # the rest of the bundle: the same file names, every file but summary.json
    # byte-identical, and summaries that differ only in threads and wallclock
    summaries = [json.loads(bundle.pop("summary.json")) for bundle in bundles]
    assert {"manifest.json", "plots.gp"} <= set(bundles[0]) and bundles[0] == bundles[1]
    for summary in summaries:
        del summary["threads"], summary["wallclock_s"]
    assert summaries[0] == summaries[1]

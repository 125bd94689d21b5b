"""Experiment manifests and the deterministic bundle runner.

A manifest is a JSON document naming one model, optionally a grid and
solver setup, a seed, a replica count, and a set of analyses.  The JSON
schema checks only its shape; every rule on a value is the library's own,
raised by a constructor or check_* function with the violated inequality
in the message.  _plan builds the run once: the seed, the model and, from
the grid and solver blocks, sigma, u0 and the solver config.  Each analysis
is one _prepare_<verb>(blk, run) function, listed in the _ANALYSES table
with the blocks it needs besides the model: it runs the library's checks on
its block and returns call(files), which runs the library, writes the
analysis's files through the bundle writer and returns its summary entry.
validate_manifest reports every error _plan collects, all at once, and run
executes the calls, so a manifest that validates does not fail a rule
halfway through a run.  extremes, the one sup analysis, runs the probe once
for its rungs, increments, tails, fit and verdict.

Running a manifest produces a bundle directory written atomically (build
in a temporary sibling, then rename): a canonical copy of the manifest,
the CSVs and field snapshots the analyses write, plots.gp, which draws the
CSVs, and summary.json, whose entry for each analysis lists its files.
The SHA-256 hash of the canonical manifest is recorded in the summary and
as a comment line in every CSV, and the report reader refuses bundles
whose manifest no longer matches the recorded hash.

Determinism contract: identical manifests produce bit-identical bundles,
whatever the number of worker processes (``threads``), because every
replica's noise is a pure function of (seed, stream id), an oracle block
draws from its own seeded generators in the calling process, and results
merge in stream order.
Only summary.json differs, in the worker count and wallclock it records;
it also records the environment (Python, numpy and scipy versions, platform
and core count), since the bits rest on numpy's generator and FFT.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import tempfile
import time
from dataclasses import asdict, astuple, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import jsonschema
import scipy

from . import analysis as an
from .correlation import CorrelationModel, CorrelationError, dalang_condition
from .lattice import LatticeGrid, LatticeError
from .noise import NoiseError, check_covariance_selftest, check_seed, covariance_selftest
from .solver import (
    LocalizationConfig,
    SigmaFunction,
    SolverConfig,
    SolverError,
    U0Spec,
    _record_batch,
    check_record_times,
)


class ManifestError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid manifest:\n" + "\n".join(f"  - {e}" for e in self.errors))


class BundleError(RuntimeError):
    pass


def _schema() -> dict:
    text = resources.files("shelab").joinpath("manifest_schema.json").read_text()
    return json.loads(text)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(canonical_json(manifest).encode("utf-8")).hexdigest()


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# Draft 7 counts an integral float such as 1.0 as an integer; a count, an
# index or a dimension must be a Python int, so only a non-bool int is one.
_Validator = jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=(
    jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool))))

# What the library raises when a rule of a run is violated.
_RULE_ERRORS = (CorrelationError, LatticeError, NoiseError, SolverError, an.AnalysisError)


@dataclass(frozen=True)
class _Run:
    """What every analysis of a manifest builds on, built once.  A part is
    None when its block is absent or broke a rule."""

    seed: Optional[int]
    replicas: int
    threads: int  # worker processes for replica chunks
    model: Optional[CorrelationModel]
    solver: Optional[dict]  # the solver block as written
    sigma: Optional[SigmaFunction]
    u0: Optional[U0Spec]
    cfg: Optional[SolverConfig]


def _plan(manifest: dict, threads: int) -> tuple:
    """(errors, run, calls): every validation error of a manifest, the run it
    builds, and the prepared call of each analysis.  Each object and each
    call is built once."""
    errors = []
    validator = _Validator(_schema())
    for err in sorted(validator.iter_errors(manifest), key=lambda e: list(e.absolute_path)):
        loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{loc}: {err.message}")
    if errors:
        return errors, None, {}

    def collect(where, build, *args):
        try:
            return build(*args)
        except _RULE_ERRORS as e:
            errors.append(f"{where}: {e}")

    seed = collect("seed", check_seed, manifest["seed"])
    collect("threads", an._check_threads, threads)
    model = collect("model", CorrelationModel.from_dict, manifest["model"])
    grid = collect("grid", LatticeGrid.from_dict, manifest["grid"]) if "grid" in manifest else None
    sb = manifest.get("solver")
    cfg = sigma = u0 = None
    if sb is not None:
        sigma = collect("solver/sigma", SigmaFunction.from_dict, sb["sigma"])
        u0 = collect("solver/u0", U0Spec.from_dict, sb.get("u0", {}))
        if all(x is not None for x in (model, grid, sigma, u0)):
            cfg = collect("solver", SolverConfig, grid, model, sigma, sb["kappa"], sb["dt"], u0)
    run = _Run(seed, manifest.get("replicas", 1), threads, model, sb, sigma, u0, cfg)

    # whether each block an analysis can need was built: a grid only ever
    # serves through the solver config
    built = {"grid": cfg is not None, "solver": sigma is not None and u0 is not None}
    calls = {}
    for verb, blk in sorted(manifest.get("analysis", {}).items()):
        needs = _ANALYSES[verb].needs
        if not all(part in manifest for part in needs):
            errors.append(f"{verb}: needs a {' and a '.join(needs)} block")
        elif seed is not None and model is not None and all(built[part] for part in needs):
            # a block is checked once everything it builds on was built
            calls[verb] = collect(verb, _ANALYSES[verb].prepare, blk, run)
    return errors, run, calls


def validate_manifest(manifest: dict) -> list:
    """All validation errors for a manifest, empty when runnable."""
    return _plan(manifest, 1)[0]


def _prepare_dalang(blk: dict, run: _Run):
    def call(files):
        v = dalang_condition(run.model)
        row = [run.model.kind, v.finite, v.integral, v.reason]
        files.csv("dalang.csv", ("kind", "finite", "integral", "reason"), [row])
        return asdict(v)

    return call


def _prepare_noise_selftest(blk: dict, run: _Run):
    cfg = run.cfg
    check_covariance_selftest(cfg.model, cfg.grid, blk["lags"], blk["slices"])

    def call(files):
        rows, cross = covariance_selftest(cfg.model, cfg.grid, cfg.dt, blk["lags"], blk["slices"], seed=run.seed)
        columns = ("lag_cells", "lag_distance", "target", "empirical", "stderr")
        files.csv("noise_selftest.csv", columns, [[r[c] for c in columns] for r in rows],
                  plot=("lag_distance", ("target", "empirical")))
        return {
            "cross_time": cross,
            "within_3_stderr": all(abs(r["empirical"] - r["target"]) <= 3.0 * r["stderr"] for r in rows),
            "cross_time_in_band": abs(cross["mean"]) <= 4.0 * cross["stderr"],
        }

    return call


def _prepare_simulate(blk: dict, run: _Run):
    t_final = run.solver["t_final"]
    times = blk["record_times"]
    problems = [f"record time {t} exceeds t_final {t_final}" for t in times if t > t_final + 1e-12]
    try:
        check_record_times(run.cfg, times)
    except SolverError as e:
        problems.append(str(e))
    if problems:
        raise SolverError("; ".join(problems))

    def call(files):
        # the field of stream 0 at each record time, from one pass over its noise
        fields = [(t, u[0]) for t, u in zip(times, _record_batch(run.cfg, times, run.seed, [0]))]
        stats = (np.mean, np.var, np.min, np.max, lambda v: np.max(np.abs(v)))
        files.csv("field_stats.csv", ("t", "mean", "var", "min", "max", "sup"),
                  [[t] + [float(stat(values)) for stat in stats] for t, values in fields], plot=("t", ("var",)))
        if blk.get("snapshot"):
            for t, values in fields:
                save_snapshot(files.path(f"snapshot_t{_fmt(float(t))}.field"), run.cfg, t, values, run.seed)
        return {"record_times": times}

    return call


def _prepare_moments(blk: dict, run: _Run):
    probes = blk.get("probes")
    if probes is not None:
        probes = tuple(tuple(p) for p in probes)
    args = (an.Scenario(cfg=run.cfg, t_final=run.solver["t_final"], probes=probes), blk["ks"], run.replicas)
    an.check_moments(*args)

    def call(files):
        rep = an.estimate_moments(*args, seed=run.seed, threads=run.threads)
        per_k = zip(rep.ks, rep.estimates, rep.stderrs, rep.flags)
        files.csv("moments.csv", ("k", "t", "estimate", "stderr", "flagged", "replicas"),
                  [[k, rep.t, est, se, flagged, rep.n_replicas] for k, est, se, flagged in per_k],
                  plot=("k", ("estimate",)))
        return {"ks": rep.ks, "estimates": rep.estimates, "stderrs": rep.stderrs, "flags": rep.flags}

    return call


def _prepare_oracle(blk: dict, run: _Run):
    if run.sigma.kind != "linear":
        raise an.AnalysisError(f"sigma kind {run.sigma.kind!r} violates kind = 'linear' (multiplicative noise)")
    if run.u0.kind != "constant":
        raise an.AnalysisError(f"u0 kind {run.u0.kind!r} violates kind = 'constant' (flat initial data)")
    ocfg = an.FkOracleConfig(blk["walkers"], blk["inner_steps"], run.seed)
    args = (run.model, run.solver["kappa"], run.solver["t_final"])
    # the block names k, ks or both; every order it names is checked, and ks runs when given
    named = [blk["k"]] if "k" in blk else []
    ks = blk.get("ks", named)
    for order in named + ks:
        an.check_oracle(*args, order, run.u0.level)

    def call(files):
        out = an._fk_ladder(*args, ks, ocfg, run.u0.level)  # one walk for every order
        columns = ("k", "t", "estimate", "stderr", "log_mean", "log_stderr", "heavy_tail", "walkers", "reg_scale")
        files.csv("oracle.csv", columns, [[getattr(r, c) for c in columns] for r in out])
        return {
            "ks": [r.k for r in out],
            "log_means": [r.log_mean for r in out],
            "log_stderrs": [r.log_stderr for r in out],
            "heavy_tail": [r.heavy_tail for r in out],
            "resamplings": [r.resamplings for r in out],
        }

    return call


def _prepare_extremes(blk: dict, run: _Run):
    args = (an.Scenario(cfg=run.cfg, t_final=run.solver["t_final"]), blk["radii"], run.replicas)
    an.check_boundedness(*args)
    an.check_fluctuation_radii(blk["radii"])  # the summary fits log log R
    lambdas = blk.get("tail_lambdas", [])
    for lam in lambdas:
        an.check_tail_threshold(lam)

    def call(files):
        probe = an.boundedness_probe(*args, seed=run.seed, threads=run.threads)
        # the first rung has no increment
        sups = (probe.radii, probe.mean_sup, probe.stderr_sup, probe.mean_log_sup)
        files.csv("sup_stats.csv", ("radius", "mean_sup", "stderr", "mean_log_sup", "increment", "increment_stderr"),
                  zip(*sups, [None] + probe.increments, [None] + probe.increment_stderrs),
                  plot=("radius", ("mean_sup",)))
        if lambdas:
            # tails of the sup over the largest ball, from the probe's own samples
            tails = [astuple(an.tail_estimate(probe.samples[:, -1], lam)) for lam in lambdas]
            files.csv("tails.csv", ("lambda", "p_hat", "lo", "hi", "exceedances", "n"), tails)
        try:
            fit = an.fluctuation_exponent(probe.radii, probe.mean_log_sup)
        except an.AnalysisError as e:  # the probe's files and verdict stand without the fit
            return {"psi_hat": None, "psi_stderr": None, "r2": None, "psi_refused": str(e), "verdict": probe.verdict}
        # a two-rung fit has no stderr: nan, written as null
        psi_stderr = None if math.isnan(fit.stderr) else fit.stderr
        return {"psi_hat": fit.exponent, "psi_stderr": psi_stderr, "r2": fit.r2, "verdict": probe.verdict}

    return call


def _prepare_localize(blk: dict, run: _Run):
    args = (run.cfg, run.solver["t_final"], blk["betas"], blk["k"], run.replicas)
    an.check_localization_curve(*args)

    def call(files):
        c = an.localization_error_curve(*args, seed=run.seed, threads=run.threads)
        files.csv("localize.csv", ("beta", "k", "error", "stderr"),
                  [[b, c.k, e, s] for b, e, s in zip(c.betas, c.errors, c.stderrs)], plot=("beta", ("error",)))
        return {
            "betas": c.betas,
            "errors": c.errors,
            "monotone_decreasing": all(a > b for a, b in zip(c.errors, c.errors[1:])),
            "decay_rate": None if c.fit is None else c.fit.extras["decay_rate"],
        }

    return call


def _prepare_independence(blk: dict, run: _Run):
    args = (run.cfg, LocalizationConfig(beta=blk["beta"]), run.solver["t_final"], blk["points"], run.replicas)
    an.check_independence(*args)

    def call(files):
        res = an.independence_test(*args, seed=run.seed, threads=run.threads)
        n = len(res.points)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        files.csv("independence.csv", ("i", "j", "corr", "separation"),
                  [[a, b, float(res.correlations[a, b]), float(res.separations[a, b])] for a, b in pairs])
        names = ("max_abs_offdiag", "null_band", "required_separation", "exact", "passed")
        return {name: getattr(res, name) for name in names}

    return call


@dataclass(frozen=True)
class _Analysis:
    """One analysis block: prepare(blk, run) runs the library's checks on the
    block and returns call(files), which runs the library, writes the
    analysis's files through the _Files writer and returns its summary
    entry.  needs names the blocks it builds on besides the model; prepare
    runs only once they are built."""

    prepare: Callable
    needs: tuple


_SOLVES = ("grid", "solver")

# One row per analysis, in the order of the CLI verbs.
_ANALYSES = {
    "dalang": _Analysis(_prepare_dalang, needs=()),
    "noise_selftest": _Analysis(_prepare_noise_selftest, needs=_SOLVES),
    "simulate": _Analysis(_prepare_simulate, needs=_SOLVES),
    "moments": _Analysis(_prepare_moments, needs=_SOLVES),
    "oracle": _Analysis(_prepare_oracle, needs=("solver",)),  # kappa, t_final, sigma and u0, no grid
    "extremes": _Analysis(_prepare_extremes, needs=_SOLVES),
    "localize": _Analysis(_prepare_localize, needs=_SOLVES),
    "independence": _Analysis(_prepare_independence, needs=_SOLVES),
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


class _Files:
    """The writer of one analysis's files in a bundle directory.  It records
    each file's name for the analysis's summary entry and each plotted CSV's
    lines for plots.gp."""

    def __init__(self, outdir: Path, mhash: str):
        self.outdir, self.mhash = outdir, mhash
        self.names, self.plots = [], []

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.outdir / name

    def csv(self, name: str, columns: tuple, rows, plot: Optional[tuple] = None):
        """Write the manifest hash line, the header and one line per row.
        plot names the x column and the y columns that plots.gp draws
        against it."""
        lines = [f"# manifest_hash={self.mhash}", ",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        self.path(name).write_text("\n".join(lines) + "\n")
        if plot is not None:
            x, ys = plot
            col = {c: i + 1 for i, c in enumerate(columns)}
            curves = (f"'{name}' using {col[x]}:{col[y]} with linespoints title '{y}'" for y in ys)
            png = name.replace(".csv", ".png")
            self.plots += [f"set output '{png}'", f"set xlabel '{x}'", f"plot {', '.join(curves)}"]


def save_snapshot(path, cfg: SolverConfig, t: float, values: np.ndarray, seed: int):
    """The field values of a run of cfg at time t, as a flat float64 array
    prefixed by one JSON header line."""
    header = {
        "grid": cfg.grid.to_dict(),
        "t": t,
        "kappa": cfg.kappa,
        "sigma": cfg.sigma.kind,
        "seed": seed,
        "dtype": "<f8",
        "shape": list(values.shape),
    }
    with open(path, "wb") as fh:
        fh.write(canonical_json(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_snapshot(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(header["shape"])
    return header, data


@dataclass
class ResultBundle:
    path: Optional[Path]
    manifest: dict
    manifest_sha: str
    summary: dict

    @property
    def complete(self) -> bool:
        return bool(self.summary.get("complete"))


def run(manifest: dict, out, threads: int = 1) -> ResultBundle:
    """Validate and execute a manifest, writing an atomic bundle directory.

    Analyses that raise are recorded as failures and the rest continue; the
    bundle is then marked incomplete.  The output directory must not exist.
    """
    errors, plan, calls = _plan(manifest, threads)
    if errors:
        raise ManifestError(errors)
    out = Path(out)
    if out.exists():
        raise BundleError(f"output path {out} already exists")
    out.parent.mkdir(parents=True, exist_ok=True)
    mhash = manifest_hash(manifest)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=".bundle-tmp-"))
    t0 = time.perf_counter()
    summary: dict = {}
    failures: dict = {}
    plots: list = []
    try:
        (tmp / "manifest.json").write_text(canonical_json(manifest) + "\n")
        for name, call in calls.items():
            files = _Files(tmp, mhash)
            try:
                summary[name] = {**call(files), "files": files.names}
            except Exception as exc:  # partial bundles keep whatever succeeded
                failures[name] = f"{type(exc).__name__}: {exc}"
            plots += files.plots
        meta = {
            "manifest_hash": mhash,
            "seed": plan.seed,
            "replicas": plan.replicas,
            "threads": threads,
            "env": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
                    "platform": platform.platform(), "cpu_count": os.cpu_count()},
            "complete": not failures,
            "failures": failures,
            "wallclock_s": round(time.perf_counter() - t0, 3),
            "analyses": summary,
        }
        (tmp / "summary.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        header = ["set datafile separator comma", "set datafile commentschars '#'",
                  "set key autotitle columnhead", "set terminal pngcairo size 900,600"]
        (tmp / "plots.gp").write_text("\n".join(header + plots) + "\n")
        os.rename(tmp, out)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return ResultBundle(path=out, manifest=manifest, manifest_sha=mhash, summary=meta)


def read_bundle(path) -> ResultBundle:
    """Load a bundle directory, verifying the recorded manifest hash."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    summary = json.loads((path / "summary.json").read_text())
    analyses = summary.get("analyses", {}) if isinstance(summary, dict) else None
    if not (isinstance(manifest, dict) and isinstance(analyses, dict) and isinstance(summary.get("failures", {}), dict)
            and all(isinstance(a, dict) and isinstance(a.get("files", []), list) for a in analyses.values())
            and all(isinstance(name, str) for a in analyses.values() for name in a.get("files", []))):
        raise BundleError(f"bundle {path} is malformed: manifest, summary, analyses and failures must be JSON objects"
                          " and each analysis's files a list of names")
    actual = manifest_hash(manifest)
    recorded = summary.get("manifest_hash")
    if actual != recorded:
        raise BundleError(
            f"bundle {path} is inconsistent: manifest hashes to {actual[:12]}... "
            f"but summary records {str(recorded)[:12]}..."
        )
    return ResultBundle(path=path, manifest=manifest, manifest_sha=actual, summary=summary)


def render_report(bundle: ResultBundle) -> str:
    """Human-readable one-page account of a bundle."""
    s = bundle.summary
    lines = [
        f"bundle: {bundle.path}",
        f"manifest hash: {bundle.manifest_sha}",
        f"seed={s.get('seed')} replicas={s.get('replicas')} complete={s.get('complete')}",
        " ".join(["env:"] + [f"{k}={v}" for k, v in s.get("env", {}).items()] + [f"workers={s.get('threads')}"]),
    ]
    for verb, info in sorted(s.get("analyses", {}).items()):
        lines.append(f"[{verb}]")
        for key, val in info.items():
            lines.append(f"  {key}: {', '.join(val) if key == 'files' else val}")
    for verb, msg in s.get("failures", {}).items():
        lines.append(f"[FAILED {verb}] {msg}")
    return "\n".join(lines)

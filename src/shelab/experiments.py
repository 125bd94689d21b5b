"""Experiment manifests and the deterministic bundle runner.

A manifest is a JSON document naming one model, optionally a grid and
solver setup, a seed, a replica count, and a set of analyses.  The JSON
schema checks only its shape; every rule on a value is the library's own,
raised by a constructor or check_* function with the violated inequality
in the message.  _plan builds the model, grid, sigma, u0 and solver config
once and prepares each analysis once through its row of the _ANALYSES
table, whose _prepare function turns the block into library arguments,
runs the library's checks on them and returns the library call.
validate_manifest reports every error _plan collects, all at once, and run
executes its calls, so a manifest that validates does not fail a rule
halfway through a run.  The row also names the CSV the analysis writes and
how its result becomes CSV rows and a summary entry; extremes, the one sup
analysis, runs the probe once for its rungs, increments, tails, fit and
verdict.  A dalang block needs no grid or solver, an oracle block no grid.

Running a manifest produces a bundle directory written atomically (build
in a temporary sibling, then rename): a canonical copy of the manifest,
one CSV per analysis, optional field snapshots, and summary.json.  The
SHA-256 hash of the canonical manifest is recorded in the summary and as a
comment line in every CSV, and the report reader refuses bundles whose
manifest no longer matches the recorded hash.

Determinism contract: identical manifests produce bit-identical CSVs,
whatever the number of worker processes (``threads``), because every
replica's noise is a pure function of (seed, stream id), each oracle order
draws from its own seeded generators, and results merge in stream order.
Wallclock metadata lives only in summary.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import astuple, dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import jsonschema

from . import analysis as an
from .correlation import CorrelationModel, CorrelationError, dalang_condition
from .lattice import LatticeGrid, LatticeError
from .noise import NoiseError, check_covariance_selftest, check_seed, covariance_selftest
from .solver import (
    LocalizationConfig,
    SigmaFunction,
    SolutionField,
    SolverConfig,
    SolverError,
    U0Spec,
    check_solve,
    solve_batch,
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


# What the library raises when a rule of a run is violated.
_RULE_ERRORS = (CorrelationError, LatticeError, NoiseError, SolverError, an.AnalysisError)


def _plan(manifest: dict, threads: int) -> tuple:
    """(errors, calls): every validation error of a manifest, and the library
    call of each analysis, to run its replica chunks or oracle orders in up
    to `threads` worker processes.  Each object and each call is built once."""
    errors = []
    validator = jsonschema.Draft7Validator(_schema())
    for err in sorted(validator.iter_errors(manifest), key=lambda e: list(e.absolute_path)):
        loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{loc}: {err.message}")
    if errors:
        return errors, {}

    def collect(where, build, *args):
        try:
            return build(*args)
        except _RULE_ERRORS as e:
            errors.append(f"{where}: {e}")

    seed = collect("seed", check_seed, manifest["seed"])
    model = collect("model", CorrelationModel.from_dict, manifest["model"])
    grid = collect("grid", LatticeGrid.from_dict, manifest["grid"]) if "grid" in manifest else None
    sb = manifest.get("solver")
    cfg = sigma = u0 = None
    if sb is not None:
        sigma = collect("solver/sigma", SigmaFunction.from_dict, sb["sigma"])
        u0 = collect("solver/u0", U0Spec.from_dict, sb.get("u0", {}))
        if all(x is not None for x in (model, grid, sigma, u0)):
            cfg = collect("solver", SolverConfig, grid, model, sigma, sb["kappa"], sb["dt"], u0)

    analyses = manifest.get("analysis", {})
    needs_solver = sorted(verb for verb in analyses if _ANALYSES[verb].needs_solver)
    if needs_solver and ("grid" not in manifest or sb is None):
        errors.append(
            f"analyses {needs_solver} need both a grid and a solver block"
        )
    if "oracle" in analyses and sb is None:
        errors.append("oracle: needs a solver block for kappa and t_final")
    if "simulate" in analyses and sb is not None:
        for t_rec in analyses["simulate"]["record_times"]:
            if t_rec > sb["t_final"] + 1e-12:
                errors.append(f"simulate: record time {t_rec} exceeds t_final {sb['t_final']}")
    calls = {}
    for verb in sorted(analyses):
        # a block is checked once everything it builds on was built
        built = cfg if _ANALYSES[verb].needs_solver else model
        if verb == "oracle":  # the oracle also builds on the run's sigma and initial data
            built = (model, sigma, u0) if all(x is not None for x in (model, sigma, u0)) else None
        if seed is not None and built is not None:
            calls[verb] = collect(verb, _ANALYSES[verb].prepare, manifest, built, threads)
    return errors, calls


def validate_manifest(manifest: dict) -> list:
    """All validation errors for a manifest, empty when runnable."""
    return _plan(manifest, 1)[0]


def _replicas(manifest: dict) -> int:
    return manifest.get("replicas", 1)


# One _prepare function per analysis: it turns the block into the arguments
# of the library call, runs the library's checks on them, and returns the
# call, ready to run its replica chunks (or oracle orders) in up to `threads`
# worker processes.


def _prepare_dalang(manifest: dict, model: CorrelationModel, threads: int = 1):
    return partial(dalang_condition, model)


def _prepare_noise_selftest(manifest: dict, cfg: SolverConfig, threads: int = 1):
    blk = manifest["analysis"]["noise_selftest"]
    args = (cfg.model, cfg.grid, cfg.dt, blk["lags"], blk["slices"])
    check_covariance_selftest(cfg.model, cfg.grid, blk["lags"], blk["slices"], blk.get("level"))
    return partial(covariance_selftest, *args, seed=manifest["seed"], level=blk.get("level"))


def _prepare_simulate(manifest: dict, cfg: SolverConfig, threads: int = 1):
    record_times = manifest["analysis"]["simulate"]["record_times"]
    for t_rec in record_times:
        try:
            check_solve(cfg, t_rec)
        except SolverError as e:  # a record time is the t_final of its own solve
            raise SolverError(str(e).replace("t_final", "record time")) from None
    # the field of stream 0 at each record time
    return lambda: [SolutionField(cfg.grid, t, solve_batch(cfg, t, manifest["seed"], [0])[0]) for t in record_times]


def _prepare_moments(manifest: dict, cfg: SolverConfig, threads: int = 1):
    blk = manifest["analysis"]["moments"]
    probes = blk.get("probes")
    if probes is not None:
        probes = tuple(tuple(p) for p in probes)
    scen = an.Scenario(cfg=cfg, t_final=manifest["solver"]["t_final"], probes=probes)
    args = (scen, blk["ks"], _replicas(manifest))
    an.check_moments(*args)
    return partial(an.estimate_moments, *args, seed=manifest["seed"], threads=threads)


def _prepare_oracle(manifest: dict, built: tuple, threads: int = 1):
    model, sigma, u0 = built
    if sigma.kind != "linear":
        raise an.AnalysisError(f"sigma kind {sigma.kind!r} violates kind = 'linear' (multiplicative noise)")
    if u0.kind != "constant":
        raise an.AnalysisError(f"u0 kind {u0.kind!r} violates kind = 'constant' (flat initial data)")
    blk = manifest["analysis"]["oracle"]
    ocfg = an.FkOracleConfig(blk["walkers"], blk["inner_steps"], manifest["seed"])
    args = (model, manifest["solver"]["kappa"], manifest["solver"]["t_final"])
    # the block names k, ks or both; every order it names is checked, and ks runs when given
    named = [blk["k"]] if "k" in blk else []
    ks = blk.get("ks", named)
    for order in named + ks:
        an.check_oracle(*args, order, u0.level)
    calls = [partial(an.fk_moment_oracle, *args, order, ocfg, u0_level=u0.level) for order in ks]
    return partial(an.fork_map, calls, threads)


def _prepare_extremes(manifest: dict, cfg: SolverConfig, threads: int = 1):
    blk = manifest["analysis"]["extremes"]
    scen = an.Scenario(cfg=cfg, t_final=manifest["solver"]["t_final"])
    args = (scen, blk["radii"], _replicas(manifest))
    an.check_boundedness(*args)
    an.check_fluctuation_radii(blk["radii"])  # the summary fits log log R
    for lam in blk.get("tail_lambdas", []):
        an.check_tail_threshold(lam)
    return partial(an.boundedness_probe, *args, seed=manifest["seed"], threads=threads)


def _prepare_localize(manifest: dict, cfg: SolverConfig, threads: int = 1):
    blk = manifest["analysis"]["localize"]
    args = (cfg, manifest["solver"]["t_final"], blk["betas"], blk["k"], _replicas(manifest))
    an.check_localization_curve(*args)
    return partial(an.localization_error_curve, *args, seed=manifest["seed"], threads=threads)


def _prepare_independence(manifest: dict, cfg: SolverConfig, threads: int = 1):
    blk = manifest["analysis"]["independence"]
    loc = LocalizationConfig(beta=blk["beta"])
    args = (cfg, loc, manifest["solver"]["t_final"], blk["points"], _replicas(manifest))
    an.check_independence(*args)
    return partial(an.independence_test, *args, seed=manifest["seed"], threads=threads)


# The row builders, rows(manifest, result), and summary builders,
# summary(result), that the table below does not spell out in place.


def _attrs(*names):
    """A summary builder that copies these attributes of the result."""
    return lambda result: {name: getattr(result, name) for name in names}


def _selftest_summary(result) -> dict:
    rows, cross = result
    return {
        "cross_time": cross,
        "within_3_stderr": all(abs(r["empirical"] - r["target"]) <= 3.0 * r["stderr"] for r in rows),
        "cross_time_in_band": abs(cross["mean"]) <= 4.0 * cross["stderr"],
    }


def _field_stats_rows(manifest: dict, fields: list) -> list:
    stats = (np.mean, np.var, np.min, np.max, lambda v: np.max(np.abs(v)))
    return [[fld.t] + [float(stat(fld.values)) for stat in stats] for fld in fields]


def _moments_rows(manifest: dict, rep) -> list:
    per_k = zip(rep.ks, rep.estimates, rep.stderrs, rep.flags)
    return [[k, rep.t, est, se, flagged, rep.n_replicas] for k, est, se, flagged in per_k]


def _oracle_summary(out: list) -> dict:
    return {
        "ks": [r.k for r in out],
        "log_means": [r.log_mean for r in out],
        "log_stderrs": [r.log_stderr for r in out],
        "heavy_tail": [r.heavy_tail for r in out],
        "resamplings": [r.resamplings for r in out],
    }


def _extremes_summary(probe) -> dict:
    fit = an.fluctuation_exponent(probe.radii, probe.mean_log_sup)
    return {"psi_hat": fit.exponent, "psi_stderr": fit.stderr, "r2": fit.r2, "verdict": probe.verdict}


def _localize_summary(curve) -> dict:
    return {
        "betas": curve.betas,
        "errors": curve.errors,
        "monotone_decreasing": all(a > b for a, b in zip(curve.errors, curve.errors[1:])),
        "decay_rate": None if curve.fit is None else curve.fit.extras["decay_rate"],
    }


def _independence_rows(manifest: dict, res) -> list:
    n = len(res.points)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return [[a, b, float(res.correlations[a, b]), float(res.separations[a, b])] for a, b in pairs]


def _sup_rows(manifest: dict, probe) -> list:
    # the first rung has no increment
    sups = (probe.radii, probe.mean_sup, probe.stderr_sup, probe.mean_log_sup)
    return list(zip(*sups, [None] + probe.increments, [None] + probe.increment_stderrs))


@dataclass(frozen=True)
class _Analysis:
    """How one analysis block runs and what it writes into a bundle.

    prepare(manifest, built, threads=1) checks the block's rules and returns
    the library call; built is the solver config when needs_solver is set,
    the model, solver/sigma and solver/u0 for the oracle, and the model
    otherwise.
    The call's result becomes rows(manifest, result) of the CSV csv under
    columns and the summary.json entry summary(result).  plot names the
    x column and the y columns that plots.gp draws against it.
    """

    prepare: Callable
    needs_solver: bool
    csv: str
    columns: tuple
    rows: Callable
    summary: Callable
    plot: Optional[tuple] = None


_SELFTEST_COLUMNS = ("lag_cells", "lag_distance", "target", "empirical", "stderr")
_ORACLE_COLUMNS = ("k", "t", "estimate", "stderr", "log_mean", "log_stderr", "heavy_tail", "walkers", "reg_scale")

# One row per analysis, in the order of the CLI verbs.
_ANALYSES = {
    "dalang": _Analysis(
        _prepare_dalang, needs_solver=False,
        csv="dalang.csv", columns=("kind", "finite", "integral", "reason"),
        rows=lambda manifest, v: [[manifest["model"]["kind"], v.finite, v.integral, v.reason]],
        summary=_attrs("finite", "integral", "reason"),
    ),
    "noise_selftest": _Analysis(
        _prepare_noise_selftest, needs_solver=True,
        csv="noise_selftest.csv", columns=_SELFTEST_COLUMNS,
        rows=lambda manifest, result: [[r[c] for c in _SELFTEST_COLUMNS] for r in result[0]],
        summary=_selftest_summary,
        plot=("lag_distance", ("target", "empirical")),
    ),
    "simulate": _Analysis(
        _prepare_simulate, needs_solver=True,
        csv="field_stats.csv", columns=("t", "mean", "var", "min", "max", "sup"),
        rows=_field_stats_rows, summary=lambda fields: {"record_times": [fld.t for fld in fields]},
        plot=("t", ("var",)),
    ),
    "moments": _Analysis(
        _prepare_moments, needs_solver=True,
        csv="moments.csv", columns=("k", "t", "estimate", "stderr", "flagged", "replicas"),
        rows=_moments_rows,
        summary=_attrs("ks", "estimates", "stderrs", "flags"),
        plot=("k", ("estimate",)),
    ),
    "oracle": _Analysis(
        _prepare_oracle, needs_solver=False,
        csv="oracle.csv", columns=_ORACLE_COLUMNS,
        rows=lambda manifest, out: [[getattr(r, c) for c in _ORACLE_COLUMNS] for r in out],
        summary=_oracle_summary,
    ),
    "extremes": _Analysis(
        _prepare_extremes, needs_solver=True,
        csv="sup_stats.csv",
        columns=("radius", "mean_sup", "stderr", "mean_log_sup", "increment", "increment_stderr"),
        rows=_sup_rows, summary=_extremes_summary,
        plot=("radius", ("mean_sup",)),
    ),
    "localize": _Analysis(
        _prepare_localize, needs_solver=True,
        csv="localize.csv", columns=("beta", "k", "error", "stderr"),
        rows=lambda manifest, c: [[b, c.k, e, s] for b, e, s in zip(c.betas, c.errors, c.stderrs)],
        summary=_localize_summary,
        plot=("beta", ("error",)),
    ),
    "independence": _Analysis(
        _prepare_independence, needs_solver=True,
        csv="independence.csv", columns=("i", "j", "corr", "separation"),
        rows=_independence_rows,
        summary=_attrs("max_abs_offdiag", "null_band", "required_separation", "exact", "passed"),
    ),
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


def _write_csv(path: Path, mhash: str, header, rows):
    lines = [f"# manifest_hash={mhash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def save_snapshot(path, fld: SolutionField, kappa: float, sigma_kind: str, seed: int):
    """Flat float64 array prefixed by one JSON header line."""
    header = {
        "grid": fld.grid.to_dict(),
        "t": fld.t,
        "kappa": kappa,
        "sigma": sigma_kind,
        "seed": seed,
        "dtype": "<f8",
        "shape": list(fld.values.shape),
    }
    with open(path, "wb") as fh:
        fh.write(canonical_json(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


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


_TAIL_COLUMNS = ("lambda", "p_hat", "lo", "hi", "exceedances", "n")


def _run_one(verb: str, call: Callable, manifest: dict, mhash: str, outdir: Path) -> dict:
    """Run one prepared analysis and write its files; returns its summary entry."""
    spec = _ANALYSES[verb]
    blk = manifest["analysis"][verb]
    result = call()
    summary = spec.summary(result)
    _write_csv(outdir / spec.csv, mhash, spec.columns, spec.rows(manifest, result))
    files = [spec.csv]
    if verb == "simulate" and blk.get("snapshot"):
        sb = manifest["solver"]
        for fld in result:
            name = f"snapshot_t{_fmt(float(fld.t))}.field"
            save_snapshot(outdir / name, fld, sb["kappa"], sb["sigma"]["kind"], manifest["seed"])
            files.append(name)
    if verb == "extremes" and blk.get("tail_lambdas"):
        # tails of the sup over the largest ball, from the probe's own samples
        tails = [astuple(an.tail_estimate(result.samples[:, -1], lam)) for lam in blk["tail_lambdas"]]
        _write_csv(outdir / "tails.csv", mhash, _TAIL_COLUMNS, tails)
        files.append("tails.csv")
    return {**summary, "files": files}


def run(manifest: dict, out, threads: int = 1, emit_gnuplot: bool = False) -> ResultBundle:
    """Validate and execute a manifest, writing an atomic bundle directory.

    Analyses that raise are recorded as failures and the rest continue; the
    bundle is then marked incomplete.  The output directory must not exist.
    """
    errors, calls = _plan(manifest, threads)
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
    try:
        (tmp / "manifest.json").write_text(canonical_json(manifest) + "\n")
        for verb, call in calls.items():
            try:
                summary[verb] = _run_one(verb, call, manifest, mhash, tmp)
            except Exception as exc:  # partial bundles keep whatever succeeded
                failures[verb] = f"{type(exc).__name__}: {exc}"
        meta = {
            "manifest_hash": mhash,
            "seed": manifest["seed"],
            "replicas": _replicas(manifest),
            "threads": threads,
            "complete": not failures,
            "failures": failures,
            "wallclock_s": round(time.perf_counter() - t0, 3),
            "analyses": summary,
        }
        (tmp / "summary.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        if emit_gnuplot:
            _emit_gnuplot(tmp)
        os.rename(tmp, out)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return ResultBundle(path=out, manifest=manifest, manifest_sha=mhash, summary=meta)


def _emit_gnuplot(outdir: Path):
    lines = [
        "set datafile separator comma",
        "set datafile commentschars '#'",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,600",
    ]
    for spec in _ANALYSES.values():
        if spec.plot is None or not (outdir / spec.csv).exists():
            continue
        xlabel, ys = spec.plot
        lines.append(f"set output '{spec.csv.replace('.csv', '.png')}'")
        lines.append(f"set xlabel '{xlabel}'")
        x = spec.columns.index(xlabel) + 1
        curves = (
            f"'{spec.csv}' using {x}:{spec.columns.index(y) + 1} with linespoints title '{y}'" for y in ys
        )
        lines.append(f"plot {', '.join(curves)}")
    (outdir / "plots.gp").write_text("\n".join(lines) + "\n")


def read_bundle(path) -> ResultBundle:
    """Load a bundle directory, verifying the recorded manifest hash."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    summary = json.loads((path / "summary.json").read_text())
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
    ]
    for verb, info in sorted(s.get("analyses", {}).items()):
        lines.append(f"[{verb}]")
        for key, val in info.items():
            if key == "files":
                lines.append(f"  files: {', '.join(val)}")
            else:
                lines.append(f"  {key}: {val}")
    fails = s.get("failures") or {}
    for verb, msg in fails.items():
        lines.append(f"[FAILED {verb}] {msg}")
    return "\n".join(lines)

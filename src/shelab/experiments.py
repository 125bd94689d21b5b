"""Experiment manifests and the deterministic bundle runner.

A manifest is a JSON document naming one model, optionally a grid and
solver setup, a seed, a replica count, and a set of analyses.  Validation
is all-at-once: structural errors (JSON schema) and semantic errors are
collected into a single report.  The semantic rules are the library's own:
each analysis has one _prepare function that turns its block into library
arguments and runs the library's checks on them, which raise with the
violated inequality in the message.  Validation collects what they raise,
and each runner calls the same function before it computes anything, so a
manifest that validates does not fail a rule halfway through a run.

Running a manifest produces a bundle directory written atomically (build
in a temporary sibling, then rename): a canonical copy of the manifest,
one CSV per analysis, optional field snapshots, and summary.json.  The
SHA-256 hash of the canonical manifest is recorded in the summary and as a
comment line in every CSV, and the report reader refuses bundles whose
manifest no longer matches the recorded hash.

Determinism contract: identical manifests produce bit-identical CSVs,
regardless of thread count, because every replica's noise is a pure
function of (seed, stream id) and reductions happen in stream order.
Wallclock metadata lives only in summary.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import astuple, dataclass, field as dc_field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np
import jsonschema

from . import analysis as an
from .correlation import CorrelationModel, CorrelationError, dalang_condition
from .lattice import LatticeGrid, LatticeError
from .noise import NoiseError, check_covariance_selftest, covariance_selftest
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


_SOLVER_ANALYSES = {
    "noise_selftest",
    "simulate",
    "moments",
    "extremes",
    "localize",
    "independence",
    "boundedness",
}

# What the library raises when a rule of a run is violated.
_RULE_ERRORS = (CorrelationError, LatticeError, NoiseError, SolverError, an.AnalysisError)
_FLAT_U0 = {"kind": "constant", "level": 1.0}


def validate_manifest(manifest: dict) -> list:
    """All validation errors for a manifest, empty when runnable."""
    errors = []
    validator = jsonschema.Draft7Validator(_schema())
    for err in sorted(validator.iter_errors(manifest), key=lambda e: list(e.absolute_path)):
        loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{loc}: {err.message}")
    if errors:
        return errors

    def collect(where, build, *args):
        try:
            return build(*args)
        except _RULE_ERRORS as e:
            errors.append(f"{where}: {e}")

    model = collect("model", CorrelationModel.from_dict, manifest["model"])
    grid = collect("grid", LatticeGrid.from_dict, manifest["grid"]) if "grid" in manifest else None
    sb = manifest.get("solver")
    cfg = None
    if sb is not None:
        sigma = collect("solver/sigma", SigmaFunction.from_dict, sb["sigma"])
        u0 = collect("solver/u0", U0Spec.from_dict, sb.get("u0", _FLAT_U0))
        if all(x is not None for x in (model, grid, sigma, u0)):
            cfg = collect("solver", SolverConfig, grid, model, sigma, sb["kappa"], sb["dt"], u0)

    analyses = manifest.get("analysis", {})
    needs_solver = _SOLVER_ANALYSES & set(analyses)
    if needs_solver and (grid is None or sb is None):
        errors.append(
            f"analyses {sorted(needs_solver)} need both a grid and a solver block"
        )
    if "oracle" in analyses and sb is None:
        errors.append("oracle: needs a solver block for kappa and t_final")
    if "simulate" in analyses and sb is not None:
        for t_rec in analyses["simulate"]["record_times"]:
            if t_rec > sb["t_final"] + 1e-12:
                errors.append(f"simulate: record time {t_rec} exceeds t_final {sb['t_final']}")
    for verb in sorted(set(analyses) & set(_PREPARE)):
        # a block is checked once everything it builds on was built
        built = cfg is not None if verb in _SOLVER_ANALYSES else model is not None and sb is not None
        if built:
            collect(verb, _PREPARE[verb], manifest, cfg)
    return errors


def _build_cfg(manifest: dict) -> SolverConfig:
    model = CorrelationModel.from_dict(manifest["model"])
    grid = LatticeGrid.from_dict(manifest["grid"])
    sb = manifest["solver"]
    return SolverConfig(
        grid=grid,
        model=model,
        sigma=SigmaFunction.from_dict(sb["sigma"]),
        kappa=sb["kappa"],
        dt=sb["dt"],
        u0=U0Spec.from_dict(sb.get("u0", _FLAT_U0)),
    )


def _replicas(manifest: dict) -> int:
    return manifest.get("replicas", 1)


# One _prepare function per analysis: it turns the block into the arguments
# of the library call, runs the library's checks on them, returns the call.


def _prepare_noise_selftest(manifest: dict, cfg: SolverConfig):
    blk = manifest["analysis"]["noise_selftest"]
    args = (cfg.model, cfg.grid, cfg.dt, blk["lags"], blk["slices"])
    check_covariance_selftest(cfg.model, cfg.grid, blk["lags"], blk["slices"], blk.get("level"))
    return partial(covariance_selftest, *args, seed=manifest["seed"], level=blk.get("level"))


def _prepare_simulate(manifest: dict, cfg: SolverConfig) -> list:
    calls = []
    for t_rec in manifest["analysis"]["simulate"]["record_times"]:
        check_solve(cfg, t_rec)
        calls.append(partial(solve_batch, cfg, t_rec, manifest["seed"], [0]))
    return calls


def _prepare_moments(manifest: dict, cfg: SolverConfig):
    blk = manifest["analysis"]["moments"]
    probes = tuple(tuple(p) for p in blk.get("probes", [[0.0] * cfg.grid.d]))
    scen = an.Scenario(cfg=cfg, t_final=manifest["solver"]["t_final"], probes=probes)
    args = (scen, blk["ks"], _replicas(manifest))
    an.check_moments(*args)
    return partial(an.estimate_moments, *args, seed=manifest["seed"])


def _prepare_oracle(manifest: dict, cfg) -> list:
    blk = manifest["analysis"]["oracle"]
    model = CorrelationModel.from_dict(manifest["model"])
    an.check_oracle_model(model)
    ocfg = an.FkOracleConfig(blk["walkers"], blk["inner_steps"], blk.get("reg_scale"), manifest["seed"])
    sb = manifest["solver"]
    return [
        partial(an.fk_moment_oracle, model, sb["kappa"], sb["t_final"], k, ocfg, u0_level=blk.get("u0_level", 1.0))
        for k in blk.get("ks", [blk["k"]])
    ]


def _prepare_probe(manifest: dict, cfg: SolverConfig, verb: str):
    """The sup probe that both extremes and boundedness run."""
    blk = manifest["analysis"][verb]
    scen = an.Scenario(cfg=cfg, t_final=manifest["solver"]["t_final"])
    args = (scen, blk["radii"], _replicas(manifest))
    an.check_boundedness(*args)
    for lam in blk.get("tail_lambdas", []):
        an.check_tail_threshold(lam)
    return partial(an.boundedness_probe, *args, seed=manifest["seed"])


def _prepare_localize(manifest: dict, cfg: SolverConfig):
    blk = manifest["analysis"]["localize"]
    args = (cfg, manifest["solver"]["t_final"], blk["betas"], blk["k"], _replicas(manifest))
    an.check_localization_curve(*args, n_picard=blk.get("n_picard"))
    return partial(an.localization_error_curve, *args, seed=manifest["seed"], n_picard=blk.get("n_picard"))


def _prepare_independence(manifest: dict, cfg: SolverConfig):
    blk = manifest["analysis"]["independence"]
    loc = LocalizationConfig(beta=blk["beta"], n_picard=blk.get("n_picard"))
    args = (cfg, loc, manifest["solver"]["t_final"], blk["points"], _replicas(manifest))
    an.check_independence(*args)
    return partial(an.independence_test, *args, seed=manifest["seed"])


_PREPARE = {
    "noise_selftest": _prepare_noise_selftest,
    "simulate": _prepare_simulate,
    "moments": _prepare_moments,
    "oracle": _prepare_oracle,
    "extremes": partial(_prepare_probe, verb="extremes"),
    "localize": _prepare_localize,
    "independence": _prepare_independence,
    "boundedness": partial(_prepare_probe, verb="boundedness"),
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
    results: dict = dc_field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.summary.get("complete"))


def _run_dalang(manifest, cfg, mhash, outdir, summary, results, threads):
    model = CorrelationModel.from_dict(manifest["model"])
    verdict = dalang_condition(model)
    results["dalang"] = verdict
    _write_csv(
        outdir / "dalang.csv",
        mhash,
        ["kind", "finite", "integral", "reason"],
        [[model.kind, verdict.finite, verdict.integral, verdict.reason]],
    )
    summary["dalang"] = {
        "finite": verdict.finite,
        "integral": verdict.integral,
        "reason": verdict.reason,
        "files": ["dalang.csv"],
    }


def _run_noise_selftest(manifest, cfg, mhash, outdir, summary, results, threads):
    rows, cross = _prepare_noise_selftest(manifest, cfg)()
    results["noise_selftest"] = (rows, cross)
    _write_csv(
        outdir / "noise_selftest.csv",
        mhash,
        ["lag_cells", "lag_distance", "target", "empirical", "stderr"],
        [[r["lag_cells"], r["lag_distance"], r["target"], r["empirical"], r["stderr"]] for r in rows],
    )
    in_band = all(abs(r["empirical"] - r["target"]) <= 3.0 * r["stderr"] for r in rows)
    summary["noise_selftest"] = {
        "cross_time": cross,
        "within_3_stderr": in_band,
        "cross_time_in_band": abs(cross["mean"]) <= 4.0 * cross["stderr"],
        "files": ["noise_selftest.csv"],
    }


def _run_simulate(manifest, cfg, mhash, outdir, summary, results, threads):
    blk = manifest["analysis"]["simulate"]
    seed = manifest["seed"]
    rows = []
    files = ["field_stats.csv"]
    for t_rec, solve in zip(blk["record_times"], _prepare_simulate(manifest, cfg)):
        vals = solve()[0]
        rows.append(
            [
                t_rec,
                float(np.mean(vals)),
                float(np.var(vals)),
                float(np.min(vals)),
                float(np.max(vals)),
                float(np.max(np.abs(vals))),
            ]
        )
        if blk.get("snapshot"):
            fld = SolutionField(grid=cfg.grid, t=t_rec, values=vals)
            name = f"snapshot_t{_fmt(float(t_rec))}.field"
            save_snapshot(outdir / name, fld, cfg.kappa, cfg.sigma.kind, seed)
            files.append(name)
    _write_csv(outdir / "field_stats.csv", mhash, ["t", "mean", "var", "min", "max", "sup"], rows)
    results["simulate"] = rows
    summary["simulate"] = {"record_times": blk["record_times"], "files": files}


def _run_moments(manifest, cfg, mhash, outdir, summary, results, threads):
    rep = _prepare_moments(manifest, cfg)(threads=threads)
    results["moments"] = rep
    _write_csv(
        outdir / "moments.csv",
        mhash,
        ["k", "t", "estimate", "stderr", "flagged", "replicas"],
        [
            [k, rep.t, est, se, fl, rep.n_replicas]
            for k, est, se, fl in zip(rep.ks, rep.estimates, rep.stderrs, rep.flags)
        ],
    )
    summary["moments"] = {
        "ks": rep.ks,
        "estimates": rep.estimates,
        "stderrs": rep.stderrs,
        "flags": rep.flags,
        "files": ["moments.csv"],
    }


def _run_oracle(manifest, cfg, mhash, outdir, summary, results, threads):
    out = [oracle() for oracle in _prepare_oracle(manifest, cfg)]
    results["oracle"] = out
    columns = ["k", "t", "estimate", "stderr", "log_mean", "log_stderr", "heavy_tail", "walkers", "reg_scale"]
    _write_csv(outdir / "oracle.csv", mhash, columns, [[getattr(r, c) for c in columns] for r in out])
    summary["oracle"] = {
        "ks": [r.k for r in out],
        "log_means": [r.log_mean for r in out],
        "log_stderrs": [r.log_stderr for r in out],
        "heavy_tail": [r.heavy_tail for r in out],
        "resamplings": [r.resamplings for r in out],
        "files": ["oracle.csv"],
    }


def _run_extremes(manifest, cfg, mhash, outdir, summary, results, threads):
    probe = _prepare_probe(manifest, cfg, "extremes")(threads=threads)
    fit = an.fluctuation_exponent(probe.radii, probe.mean_log_sup)
    results["extremes"] = (probe, fit)
    _write_csv(
        outdir / "sup_stats.csv",
        mhash,
        ["radius", "mean_sup", "stderr", "mean_log_sup"],
        list(zip(probe.radii, probe.mean_sup, probe.stderr_sup, probe.mean_log_sup)),
    )
    files = ["sup_stats.csv"]
    lams = manifest["analysis"]["extremes"].get("tail_lambdas", [])
    tails = [astuple(an.tail_estimate(probe.samples[:, -1], lam)) for lam in lams]
    if tails:
        _write_csv(outdir / "tails.csv", mhash, ["lambda", "p_hat", "lo", "hi", "exceedances", "n"], tails)
        files.append("tails.csv")
    summary["extremes"] = {
        "psi_hat": fit.exponent,
        "psi_stderr": fit.stderr,
        "r2": fit.r2,
        "verdict": probe.verdict,
        "files": files,
    }


def _run_localize(manifest, cfg, mhash, outdir, summary, results, threads):
    curve = _prepare_localize(manifest, cfg)(threads=threads)
    results["localize"] = curve
    _write_csv(
        outdir / "localize.csv",
        mhash,
        ["beta", "k", "error", "stderr"],
        [[b, curve.k, e, s] for b, e, s in zip(curve.betas, curve.errors, curve.stderrs)],
    )
    summary["localize"] = {
        "betas": curve.betas,
        "errors": curve.errors,
        "monotone_decreasing": all(
            a > b for a, b in zip(curve.errors, curve.errors[1:])
        ),
        "decay_rate": None if curve.fit is None else curve.fit.extras["decay_rate"],
        "files": ["localize.csv"],
    }


def _run_independence(manifest, cfg, mhash, outdir, summary, results, threads):
    res = _prepare_independence(manifest, cfg)(threads=threads)
    results["independence"] = res
    rows = []
    P = len(res.points)
    for a in range(P):
        for b in range(a + 1, P):
            rows.append([a, b, float(res.correlations[a, b]), float(res.separations[a, b])])
    _write_csv(outdir / "independence.csv", mhash, ["i", "j", "corr", "separation"], rows)
    summary["independence"] = {
        "max_abs_offdiag": res.max_abs_offdiag,
        "null_band": res.null_band,
        "required_separation": res.required_separation,
        "passed": res.passed,
        "files": ["independence.csv"],
    }


def _run_boundedness(manifest, cfg, mhash, outdir, summary, results, threads):
    probe = _prepare_probe(manifest, cfg, "boundedness")(threads=threads)
    results["boundedness"] = probe
    rows = []
    for i, r in enumerate(probe.radii):
        inc = probe.increments[i - 1] if i >= 1 else None
        inc_se = probe.increment_stderrs[i - 1] if i >= 1 else None
        rows.append([r, probe.mean_sup[i], probe.stderr_sup[i], probe.mean_log_sup[i], inc, inc_se])
    _write_csv(
        outdir / "boundedness.csv",
        mhash,
        ["radius", "mean_sup", "stderr", "mean_log_sup", "increment", "increment_stderr"],
        rows,
    )
    summary["boundedness"] = {"verdict": probe.verdict, "files": ["boundedness.csv"]}


_RUNNERS = {
    "dalang": _run_dalang,
    "noise_selftest": _run_noise_selftest,
    "simulate": _run_simulate,
    "moments": _run_moments,
    "oracle": _run_oracle,
    "extremes": _run_extremes,
    "localize": _run_localize,
    "independence": _run_independence,
    "boundedness": _run_boundedness,
}


def run(manifest: dict, out, threads: int = 1, emit_gnuplot: bool = False) -> ResultBundle:
    """Validate and execute a manifest, writing an atomic bundle directory.

    Analyses that raise are recorded as failures and the rest continue; the
    bundle is then marked incomplete.  The output directory must not exist.
    """
    errors = validate_manifest(manifest)
    if errors:
        raise ManifestError(errors)
    out = Path(out)
    if out.exists():
        raise BundleError(f"output path {out} already exists")
    out.parent.mkdir(parents=True, exist_ok=True)
    mhash = manifest_hash(manifest)
    cfg = None
    if "grid" in manifest and "solver" in manifest:
        cfg = _build_cfg(manifest)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=".bundle-tmp-"))
    t0 = time.perf_counter()
    summary: dict = {}
    results: dict = {}
    failures: dict = {}
    try:
        (tmp / "manifest.json").write_text(canonical_json(manifest) + "\n")
        for verb in sorted(manifest.get("analysis", {})):
            runner = _RUNNERS[verb]
            try:
                runner(manifest, cfg, mhash, tmp, summary, results, threads)
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
            _emit_gnuplot(tmp, summary)
        os.rename(tmp, out)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return ResultBundle(path=out, manifest=manifest, manifest_sha=mhash, summary=meta, results=results)


def _emit_gnuplot(outdir: Path, summary: dict):
    lines = [
        "set datafile separator comma",
        "set datafile commentschars '#'",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,600",
    ]
    plots = {
        "noise_selftest.csv": ("lag_distance", [("target", 3), ("empirical", 4)]),
        "moments.csv": ("k", [("estimate", 3)]),
        "sup_stats.csv": ("radius", [("mean_sup", 2)]),
        "localize.csv": ("beta", [("error", 3)]),
        "boundedness.csv": ("radius", [("mean_sup", 2)]),
        "field_stats.csv": ("t", [("var", 3)]),
    }
    for fname, (xlabel, cols) in plots.items():
        if not (outdir / fname).exists():
            continue
        png = fname.replace(".csv", ".png")
        lines.append(f"set output '{png}'")
        lines.append(f"set xlabel '{xlabel}'")
        spec = ", ".join(f"'{fname}' using 1:{c} with linespoints title '{t}'" for t, c in cols)
        lines.append(f"plot {spec}")
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

"""Command-line front end.

One verb per analysis; each verb runs the matching block of a JSON
manifest and writes a bundle directory.  `dalang` and `oracle` also accept
a bare model JSON for quick checks without a manifest.  Exit codes:
0 bundle complete, 2 validation failure, 3 bundle partial.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis as an
from .correlation import CorrelationError, CorrelationModel, dalang_condition
from .noise import NoiseError
from .experiments import (
    _ANALYSES,
    BundleError,
    ManifestError,
    load_manifest,
    manifest_hash,
    read_bundle,
    render_report,
    run,
)

VERBS = [verb.replace("_", "-") for verb in _ANALYSES]


def _add_run_flags(p):
    p.add_argument("--manifest", help="path to a manifest JSON")
    p.add_argument("--seed", type=int, help="override the manifest seed")
    p.add_argument("--replicas", type=int, help="override the manifest replica count")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="run replica chunks and oracle orders in up to N worker processes (default 1)",
    )
    p.add_argument("--out", help="bundle directory to create (must not exist)")
    p.add_argument(
        "--emit-gnuplot",
        action="store_true",
        help="write plots.gp next to the CSVs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelab",
        description="Simulation laboratory for the stochastic heat equation "
        "with spatially correlated noise.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help=f"run the {verb.replace('-', '_')} analysis of a manifest")
        _add_run_flags(p)
        if verb == "dalang":
            p.add_argument("--model", help="model JSON file (shortcut, no manifest needed)")
        if verb == "oracle":
            p.add_argument("--model", help="model JSON file (shortcut, no manifest needed)")
            p.add_argument("--k", type=int, default=2, help="moment order (shortcut mode)")
            p.add_argument("--t", type=float, default=1.0, help="time horizon (shortcut mode)")
            p.add_argument("--kappa", type=float, default=1.0)
            p.add_argument("--walkers", type=int, default=20000)
            p.add_argument("--inner-steps", type=int, default=256)
            p.add_argument("--u0", type=float, default=1.0)
    rep = sub.add_parser("report", help="render a bundle's summary as a table")
    rep.add_argument("bundle", help="bundle directory")
    return parser


def _load_model_file(path) -> CorrelationModel:
    with open(path) as fh:
        return CorrelationModel.from_dict(json.load(fh))


def _run_verb(verb: str, args) -> int:
    key = verb.replace("-", "_")
    if args.manifest is None:
        print(f"{verb}: --manifest is required", file=sys.stderr)
        return 2
    manifest = load_manifest(args.manifest)
    if args.seed is not None:
        manifest["seed"] = args.seed
    if args.replicas is not None:
        manifest["replicas"] = args.replicas
    blocks = manifest.get("analysis", {})
    if key not in blocks:
        print(f"{verb}: manifest has no analysis/{key} block", file=sys.stderr)
        return 2
    manifest["analysis"] = {key: blocks[key]}
    out = args.out or f"bundle-{key}-{manifest_hash(manifest)[:8]}"
    try:
        bundle = run(manifest, out, threads=args.threads, emit_gnuplot=args.emit_gnuplot)
    except ManifestError as e:
        print(str(e), file=sys.stderr)
        return 2
    except BundleError as e:
        print(str(e), file=sys.stderr)
        return 2
    info = bundle.summary["analyses"].get(key, {})
    print(f"bundle: {bundle.path}")
    print(f"manifest_hash: {bundle.manifest_sha}")
    for k, v in info.items():
        print(f"{k}: {v}")
    if not bundle.complete:
        for fverb, msg in bundle.summary["failures"].items():
            print(f"FAILED {fverb}: {msg}", file=sys.stderr)
        return 3
    return 0


def _dalang_shortcut(args) -> int:
    try:
        model = _load_model_file(args.model)
        verdict = dalang_condition(model)
    except (CorrelationError, OSError, json.JSONDecodeError) as e:
        print(f"dalang: {e}", file=sys.stderr)
        return 2
    word = "finite" if verdict.finite else "infinite"
    print(f"model: {model.kind} d={model.d}")
    print(f"verdict: {word}")
    print(f"integral: {verdict.integral}")
    print(f"reason: {verdict.reason}")
    return 0


def _oracle_shortcut(args) -> int:
    try:
        model = _load_model_file(args.model)
        cfg = an.FkOracleConfig(
            walkers=args.walkers,
            inner_steps=args.inner_steps,
            seed=args.seed if args.seed is not None else 0,
        )
        res = an.fk_moment_oracle(model, args.kappa, args.t, args.k, cfg, u0_level=args.u0)
    except (CorrelationError, an.AnalysisError, NoiseError, OSError, json.JSONDecodeError) as e:
        print(f"oracle: {e}", file=sys.stderr)
        return 2
    print(f"k: {res.k}")
    print(f"t: {res.t}")
    print(f"estimate: {res.estimate}")
    print(f"stderr: {res.stderr}")
    print(f"log_mean: {res.log_mean}")
    print(f"log_stderr: {res.log_stderr}")
    print(f"heavy_tail: {res.heavy_tail}")
    print(f"resamplings: {res.resamplings}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "report":
        try:
            bundle = read_bundle(args.bundle)
        except (BundleError, OSError, json.JSONDecodeError) as e:
            print(f"report: {e}", file=sys.stderr)
            return 2
        print(render_report(bundle))
        return 0 if bundle.complete else 3
    if args.verb == "dalang" and getattr(args, "model", None):
        return _dalang_shortcut(args)
    if args.verb == "oracle" and getattr(args, "model", None):
        return _oracle_shortcut(args)
    return _run_verb(args.verb, args)


if __name__ == "__main__":
    sys.exit(main())

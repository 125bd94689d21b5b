"""Command-line front end.

One verb per analysis; each run verb runs the matching block of a JSON
manifest, its only run input besides the worker count and the bundle path,
through experiments.run and prints what `report` prints for the bundle.
Exit codes: 0 bundle complete, 2 validation failure (an unreadable or
missing manifest included), 3 bundle partial.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="shelab",
        description="Simulation laboratory for the stochastic heat equation "
        "with spatially correlated noise.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb, help=f"run the {verb.replace('-', '_')} analysis of a manifest")
        p.add_argument("--manifest", required=True, help="path to a manifest JSON")
        p.add_argument("--threads", type=int, default=1,
                       help="run replica chunks and oracle orders in up to N worker processes (default 1)")
        p.add_argument("--out", help="bundle directory to create (must not exist)")
    rep = sub.add_parser("report", help="render a bundle's summary as a table")
    rep.add_argument("bundle", help="bundle directory")
    return parser


def _run_verb(verb: str, args) -> int:
    key = verb.replace("-", "_")
    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as e:  # ValueError: malformed JSON or text
        print(f"{verb}: cannot read manifest {args.manifest}: {e}", file=sys.stderr)
        return 2
    blocks = manifest.get("analysis", {}) if isinstance(manifest, dict) else None
    if not isinstance(blocks, dict):
        print(f"{verb}: manifest {args.manifest} and its analysis must be JSON objects", file=sys.stderr)
        return 2
    if key not in blocks:
        print(f"{verb}: manifest has no analysis/{key} block", file=sys.stderr)
        return 2
    manifest["analysis"] = {key: blocks[key]}
    out = args.out or f"bundle-{key}-{manifest_hash(manifest)[:8]}"
    try:
        run(manifest, out, threads=args.threads)
    except (ManifestError, BundleError) as e:
        print(str(e), file=sys.stderr)
        return 2
    return _report(out)


def _report(path) -> int:
    try:
        bundle = read_bundle(path)
    except (BundleError, OSError, json.JSONDecodeError) as e:
        print(f"report: {e}", file=sys.stderr)
        return 2
    print(render_report(bundle))
    return 0 if bundle.complete else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "report":
        return _report(args.bundle)
    return _run_verb(args.verb, args)


if __name__ == "__main__":
    sys.exit(main())

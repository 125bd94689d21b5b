"""shelab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is this file's parent directory.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` is the median over eleven fresh processes (see reference.py for
how it is rescaled), ``wall_per_ref`` comes from one of them that runs the
workload untraced for ``--seconds``, and ``peak_rss_mb`` from another that
runs one iteration.  With ``--trace 1`` it reports the per-layer metrics from a run
that alternates traced and untraced iterations.  Each metric is printed
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with an
environment fingerprint, is written under ``perfbench/out/``.

``--smoke`` shrinks every workload to a few replicas for the benchmark's
own tests; ``--threads`` overrides the replica-farm thread count of
``pam_moments_2t``, for the one-against-two-threads pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11  # fresh processes whose median set-up time is setup_s
BUDGET_S = 170.0  # the whole run, every child process included


class BenchError(RuntimeError):
    pass


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() or None


def start_worker(mode: str, args, workdir: Path, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd + ["--launch-ns", str(time.time_ns())], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {args.workload} ran past the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tally(res: dict, workers: list):
    """Add up the operations of the workers that ran iterations into res,
    plus one check: each iteration repeats the same seeded computation, so
    all of them, in every process, must give one output digest."""
    res["attempted"] = sum(w["attempted"] for w in workers) + 1
    res["failed"] = sum(w["failed"] for w in workers)
    res["failures"] = [f for w in workers for f in w["failures"]]
    res["digests"] = sorted(set().union(*(w["digests"] for w in workers)))
    if len(res["digests"]) != 1:
        res["failed"] += 1
        res["failures"].append(f"outputs differ between iterations: {res['digests']}")


def run(args, spec: dict) -> dict:
    deadline = time.monotonic() + BUDGET_S
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    workdir = out_dir / "work"
    workdir.mkdir(parents=True)
    if args.trace:
        res = start_worker("trace", args, workdir, deadline)
        shutil.move(workdir / "spans.jsonl", out_dir / "spans.jsonl")
        tally(res, [res])
        values = res["metrics"]
        wanted = spec["per_layer"]
    else:
        # the measuring and peak-memory processes are set-up samples too;
        # the rest run before and after them, so one slow spell of the host
        # moves fewer samples
        extra = 0 if args.smoke else SETUP_SAMPLES - 2
        setups = [start_worker("setup", args, workdir, deadline) for _ in range(extra - extra // 2)]
        res = start_worker("measure", args, workdir, deadline)
        rss = start_worker("rss", args, workdir, deadline)
        setups += [res, rss] + [start_worker("setup", args, workdir, deadline) for _ in range(extra // 2)]
        tally(res, [res, rss])
        values = {
            "wall_per_ref": res["wall_per_ref"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": rss["peak_rss_mb"],
        }
        res["setup_samples"] = [{k: s[k] for k in ("setup_s", "setup_raw_s", "setup_ref_s")} for s in setups]
        wanted = spec["end_to_end"]
    shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, commit=git_commit(), **{k: v for k, v in res.items() if k not in ("metrics", "setup_s", "setup_raw_s", "setup_ref_s")})
    detail["failed_frac"] = res["failed"] / res["attempted"]
    (out_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    for line in res["failures"]:
        print(f"FAILED {line}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--threads", type=int, choices=(1, 2))
    args = p.parse_args(argv)
    if args.threads is not None and args.workload != "pam_moments_2t":
        p.error("--threads applies to pam_moments_2t only")
    if not (0 <= args.seed < 2**63):
        p.error("--seed must be a nonnegative 63-bit integer")
    for need in (ROOT / "src" / "shelab" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a full shelab checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    try:
        result = run(args, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

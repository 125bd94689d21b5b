"""One fresh process that sets up a workload and then, by mode, stops
(``setup``), runs one iteration for the peak resident memory (``rss``), or
runs iterations for a fixed time, untraced (``measure``) or half of them
traced (``trace``).  ``run.py`` starts it; the last line of its standard
output is one JSON object.

    python3 perfbench/worker.py {setup,rss,measure,trace} --workload W
        --seed N --seconds S --launch-ns T --workdir DIR [--smoke] [--threads K]

Set-up time runs from ``--launch-ns`` (wall clock, taken by the parent just
before it starts this process) to the end of set-up, so it covers
interpreter start, imports, input build and cache warm-up; ``setup_s`` is
that time rescaled by the reference kernel timed right after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402  (needs the path above)
import workloads  # noqa: E402

MIN_ITERS = 3  # fewest timed iterations, whatever --seconds says


class Tally:
    """Operations attempted and failed, failing checks, output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def iterate(wl, tally: Tally) -> float:
    """One timed wl.run(), then its checks and digest; returns the wall time."""
    t0 = time.perf_counter()
    try:
        out = wl.run()
        wall = time.perf_counter() - t0
        checks = wl.check(out)
        tally.digests.append(wl.digest(out))
    except Exception:  # a failing workload is reported, not fatal
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        tally.attempted += 1
        tally.fail(f"{wl.name} raised: {traceback.format_exc(limit=1).strip().splitlines()[-1]}")
        return wall
    tally.attempted += wl.ops + len(checks)
    for name, ok, detail in checks:
        if not ok:
            tally.fail(f"{name}: {detail}")
    return wall


class Timer:
    """Iteration wall times, each also divided by the reference kernel's
    time averaged over the timings just before and just after it."""

    def __init__(self, threads: int):
        self.threads = threads
        reference.timed(threads)  # the first call builds FFT plans
        self.refs = [reference.timed(threads)]
        self.walls, self.ratios = [], []

    def add(self, wall: float) -> float:
        self.refs.append(reference.timed(self.threads))
        self.walls.append(wall)
        self.ratios.append(wall / ((self.refs[-2] + self.refs[-1]) / 2))
        return self.ratios[-1]


def measure(wl, seconds: float, tally: Tally) -> dict:
    timer = Timer(wl.threads)
    start = time.perf_counter()
    while True:
        timer.add(iterate(wl, tally))
        elapsed = time.perf_counter() - start
        if len(timer.walls) >= MIN_ITERS and elapsed + statistics.median(timer.walls) > seconds:
            break
    return {
        "wall_per_ref": statistics.median(timer.ratios),
        "wall_s": statistics.median(timer.walls),
        "walls": timer.walls,
        "refs": timer.refs,
    }


def traced(wl, tracer, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Alternate untraced and traced iterations; per-layer metrics."""
    timer = Timer(wl.threads)
    plain, traced_ratios, walls = [], [], {}
    start = time.perf_counter()
    i = 0
    while True:
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.phase = i
                tracer.install()
                walls[i] = iterate(wl, tally)
                tracer.uninstall()
                traced_ratios.append(timer.add(walls[i]))
            else:
                plain.append(timer.add(iterate(wl, tally)))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= 2 and elapsed + 2 * statistics.median(timer.walls) > seconds:
            break
    metrics = tracing.summarize(tracer.spans, walls, wl.threads)
    metrics["solver.localized_solve_batch.peak_alloc_mb"] = 0.0
    if metrics["solver.localized_solve_batch.calls"]:
        metrics["solver.localized_solve_batch.peak_alloc_mb"] = tracing.peak_alloc_mb(lambda: iterate(wl, tally))
    metrics["trace.overhead_frac"] = statistics.median(traced_ratios) / statistics.median(plain) - 1.0
    write_spans(tracer.spans, spans_path)
    return {"metrics": metrics, "absent": tracer.absent, "walls": timer.walls, "refs": timer.refs}


def write_spans(spans, path: Path):
    """Spans of set-up and the first traced iteration, one JSON object a line."""
    keep = [s for s in spans if s[5] in ("setup", 0)]
    t0 = min((s[3] for s in keep), default=0.0)
    with open(path, "w") as fh:
        for sid, parent, name, a, b, phase, work, cpu in sorted(keep, key=lambda s: s[3]):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_s": a - t0,
                                 "end_s": b - t0, "phase": phase, "work": work}) + "\n")


def env_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "rss", "measure", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--launch-ns", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--threads", type=int)
    args = p.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.make(args.workload, args.seed, args.smoke, args.threads, args.workdir)
    wl.setup()
    raw = (time.time_ns() - args.launch_ns) / 1e9
    if tracer is not None:
        tracer.uninstall()
    result, tally = {}, Tally()
    if args.mode == "rss":
        # before any reference kernel runs, so the peak is the workload's own
        iterate(wl, tally)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference.timed()  # the first call builds FFT plans
    ref = reference.timed()
    result.update(setup_s=raw * reference.NOMINAL_S / ref, setup_raw_s=raw, setup_ref_s=ref)
    if args.mode == "measure":
        result.update(measure(wl, args.seconds, tally))
    elif args.mode == "trace":
        result.update(traced(wl, tracer, args.seconds, tally, args.workdir / "spans.jsonl"))
    if args.mode != "setup":
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.failures,
            digests=sorted(set(tally.digests)),
            threads=wl.threads,
            replicas=wl.replicas,
            env=env_fingerprint(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

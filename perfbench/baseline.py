"""Record a baseline: repeated benchmark runs, their spread, one entry.

    python3 perfbench/baseline.py [--write]

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed, in SETS separate sets over the same SEEDS, and reports for each
end-to-end metric the median, the quartile spread (q3 - q1) / median as
``statistics.quantiles(n=4)`` gives it, and the drift of each set's median
from the first set's.  Every metric, ``setup_s`` included, is steady when
its spread stays under a third of its bound and its drift under the bound.
The raw median iteration wall time ``wall_s`` gets the same statistics,
unbounded, so ``wall_per_ref`` can be compared with it.  A seed must give
the same output digest in every set.  It then runs ``pam_moments_2t`` at
one and at two threads, alternating, PAIRS times, comparing raw wall times
(the reference kernel runs on as many threads as the workload, so its
ratios do not compare across thread counts), and one traced run per
workload.  With ``--write`` the entry is appended to
``perfbench/BASELINE.json``, whose first entry is the first commit measured.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = list(range(1, 11))
SETS = 2
PAIRS = 3


def bench(workload: str, seed: int, trace: int = 0, threads=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    name = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((HERE / "out" / name / "result.json").read_text())


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    ok = True
    sets, env, commit = [], None, None
    for s in range(SETS):
        runs = {}
        for w in WORKLOADS:
            runs[w] = []
            for seed in SEEDS:
                r = bench(w, seed)
                env, commit = r["env"], r["commit"]
                runs[w].append(r)
                vals = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
                log(f"set {s + 1} {w} seed {seed}: correct={r['correct']} {vals}")
        sets.append(runs)

    summary = {}
    for w in WORKLOADS:
        rows = summary[w] = {"failed": 0, "attempted": 0, "digests_agree": True, "metrics": {}}
        for runs in sets:
            rows["failed"] += sum(r["failed"] for r in runs[w])
            rows["attempted"] += sum(r["attempted"] for r in runs[w])
        for i in range(len(SEEDS)):
            if len({tuple(runs[w][i]["digests"]) for runs in sets}) != 1:
                rows["digests_agree"] = False
        for name, bound in list(bounds.items()) + [("wall_s", None)]:
            per_set = [spread([r[name] if bound is None else r["metrics"][name]["value"] for r in runs[w]])
                       for runs in sets]
            first = per_set[0]["median"]
            for st in per_set:
                st["drift"] = st["median"] / first - 1.0
            worst = max(st["spread"] for st in per_set)
            drift = max(st["drift"] for st in per_set)
            if bound is None:
                rows["raw_wall_s"] = per_set
                verdict = "unbounded"
            else:
                rows["metrics"][name] = per_set
                steady = worst < bound / 3 and drift <= bound
                ok &= steady
                verdict = f"bound {bound} {'ok' if steady else 'NOT STEADY'}"
            log(f"{w:<16} {name:<12} medians {[round(st['median'], 4) for st in per_set]} "
                f"spread max {worst:.4f} drift max {drift:+.4f} {verdict}")
        ok &= rows["failed"] == 0 and rows["digests_agree"]
        log(f"{w:<16} failed {rows['failed']}/{rows['attempted']} digests agree {rows['digests_agree']}")

    pair = {}
    if "pam_moments_2t" in WORKLOADS:
        walls = {1: [], 2: []}
        for i in range(PAIRS):
            for t in ((1, 2) if i % 2 == 0 else (2, 1)):
                walls[t].append(bench("pam_moments_2t", SEEDS[i], threads=t)["wall_s"])
        pair = {f"threads_{t}": {"wall_s_median": statistics.median(v), "wall_s": v} for t, v in walls.items()}
        log(f"pam_moments_2t wall_s at 1 thread {pair['threads_1']['wall_s_median']:.4f} "
            f"at 2 threads {pair['threads_2']['wall_s_median']:.4f}")

    traced = {}
    for w in WORKLOADS:
        r = bench(w, SEEDS[0], trace=1)
        traced[w] = {"absent": r["absent"], "wall_s_median": statistics.median(r["walls"]),
                     "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        log(f"{w} traced: overhead {r['metrics']['trace.overhead_frac']['value']:+.4f} absent {r['absent']}")

    entry = {
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "env": env,
        "run_seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "steady": ok,
        "workloads": summary,
        "pam_threads_pair": pair,
        "traced": traced,
    }
    if args.write:
        path = HERE / "BASELINE.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    log("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on workloads shrunk by ``--smoke``.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--smoke", "--seconds", "0.5", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail(workload, seed, trace):
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    result = last_json(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    info = detail(workload, 3, trace)
    assert len(info["digests"]) == 1
    assert {"python", "numpy", "scipy", "jsonschema", "platform", "nproc", "thread_env"} <= set(info["env"])
    assert info["seed"] == 3


def test_digest_depends_on_seed_only():
    digests = []
    for seed in (5, 5, 6):
        last_json(bench("--workload", "additive_farm", "--seed", str(seed)))
        digests.append(detail("additive_farm", seed, 0)["digests"])
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "additive_farm", "--seed", "1", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_target_is_absent_and_others_still_traced(monkeypatch):
    import shelab.noise as noise

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("noise.gone", "shelab.noise", "no_such_name", None),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        grid = noise.LatticeGrid(d=1, m=8, dx=1.0)
        tracer.phase = 0
        noise.WhiteNoiseSource(seed=1).white_at(0, grid, 0.1)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["noise.gone"]
    assert noise.WhiteNoiseSource.white_at.__name__ == "white_at"
    metrics = tracing.summarize(tracer.spans, {0: 1.0}, 1)
    assert metrics["noise.white_at.calls"] == 1
    assert metrics["solver.localized_solve_batch.calls"] == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, None, "a", 0.0, 10.0, 0, None, None],
        [2, 1, "b", 1.0, 3.0, 0, None, None],
        [3, 1, "b", 2.0, 5.0, 0, None, None],  # overlaps its sibling, as pool threads do
        [4, 1, "b", 8.0, 9.0, 0, None, None],
    ]
    assert tracing._self_times(spans)[1] == pytest.approx(5.0)

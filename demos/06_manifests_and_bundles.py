"""
Manifests, bundles, and the command line
========================================

Every experiment is described by one JSON manifest: model, grid, solver,
and a dict of analysis blocks.  Running it produces a bundle directory
with one CSV per analysis, a summary.json, a plots.gp gnuplot script and
the manifest echoed back.
Bundles are atomic (written to a temp dir, renamed on success) and carry
the manifest hash in every CSV header, so a stray file can always be
traced to the exact configuration that made it.

Same manifest, same seed: bit-identical CSVs, whatever the thread count.
"""

import filecmp
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import shelab.experiments as exp

manifest = {
    "version": 1,
    "seed": 17,
    "replicas": 64,
    "model": {"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0},
    "grid": {"d": 1, "m": 64, "dx": 0.25},
    "solver": {
        "kappa": 1.0,
        "dt": 1 / 64,
        "t_final": 0.25,
        "sigma": {"kind": "linear", "c": 1.0},
        "u0": {"kind": "constant", "level": 1.0},
    },
    "analysis": {
        "dalang": {},
        "moments": {"ks": [2, 3]},
        "noise_selftest": {"lags": [0, 2, 5], "slices": 4000},
    },
}

work = Path(tempfile.mkdtemp(prefix="shelab-demo-"))
print(f"manifest hash: {exp.manifest_hash(manifest)}")

# Run twice with different thread counts; the bundles must agree byte for byte.
b1 = exp.run(manifest, work / "run1", threads=1)
b2 = exp.run(manifest, work / "run2", threads=8)
for name in ("moments.csv", "noise_selftest.csv", "dalang.csv"):
    same = filecmp.cmp(b1.path / name, b2.path / name, shallow=False)
    print(f"  {name}: threads 1 vs 8 identical = {same}")

print()
print(exp.render_report(exp.read_bundle(b1.path)))

# The same workflow through the installed console script.  One verb per
# analysis, run from the manifest alone; it prints the bundle's report,
# which `report` prints again for any bundle.
mpath = work / "m.json"
mpath.write_text(json.dumps(manifest))
cli = subprocess.run(
    [sys.executable, "-m", "shelab.cli", "moments", "--manifest", str(mpath), "--out", str(work / "run3"),
     "--threads", "2"],
    capture_output=True, text=True,
)
print(f"\nCLI exit code: {cli.returncode}")
print(cli.stdout.strip())
rep = subprocess.run(
    [sys.executable, "-m", "shelab.cli", "report", str(work / "run3")],
    capture_output=True, text=True,
)
print(f"report prints the same = {rep.stdout == cli.stdout}")

# CSVs are plain enough to read without the library.
head = (b1.path / "moments.csv").read_text().splitlines()
print("\nmoments.csv:")
for line in head:
    print(f"  {line}")

shutil.rmtree(work)

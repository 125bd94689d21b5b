"""The benchmark's three workloads: seeded inputs, one timed call, checks.

Every workload goes through shelab's public API and looks each function up
on its module at call time (``an.replica_map``, ``cli.main``), so the traced
run sees the calls the benchmark makes as well as those shelab makes.

A workload object offers

- ``setup()``: build the inputs from the seed and warm the caches its
  solver path reads (timed, together with the imports, as ``setup_s``);
- ``run()``: one timed iteration, returning the output;
- ``ops``: operations the last ``run()`` attempted, before its checks;
- ``check(out)``: the correctness checks, as ``(name, ok, detail)``;
- ``digest(out)``: SHA-256 of the output bytes; it is the last use of
  ``out``, and the CLI workload deletes its bundles there.

The same seed gives the same inputs, so every iteration of one process
repeats the same computation and must give the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy import integrate

import shelab as sl
import shelab.analysis as an
import shelab.cli as cli
import shelab.experiments as ex
import shelab.lattice as lattice
import shelab.noise as noise
import shelab.solver as solver

# Mean-type checks use 4 stderr rather than 3: the benchmark runs on many
# seeds, and a 3-stderr band fires by chance on about one seed in 370.
Z_MEAN = 4.0


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class AdditiveFarm:
    """sigma = 1 replica farm on the spectral path of solve_batch.

    Chosen because the white-noise draw is most of its time; it bypasses
    sigma, real-space propagation, threads, Picard, the oracle and bundles.
    """

    name = "additive_farm"
    m, dx, dt, t, width, amp, kappa = 256, 0.25, 1 / 256, 0.5, 1.0, 1.0, 1.0

    def __init__(self, seed: int, smoke: bool = False, threads: int = 1):
        self.seed = seed
        self.replicas = 16 if smoke else 256
        self.threads = threads
        self.ops = 0

    def setup(self):
        self.model = sl.CorrelationModel.gaussian_h(d=1, width=self.width, amplitude=self.amp)
        self.grid = sl.LatticeGrid(d=1, m=self.m, dx=self.dx)
        self.cfg = sl.SolverConfig(
            grid=self.grid,
            model=self.model,
            sigma=sl.SigmaFunction.constant(eps0=1.0),
            kappa=self.kappa,
            dt=self.dt,
            u0=sl.U0Spec(kind="constant", level=1.0),
        )
        # Var u_t(0) = (2 pi)^-1 int fhat(xi) (1 - e^{-kappa t xi^2}) / (kappa xi^2) dxi
        w, a, k, t = self.width, self.amp, self.kappa, self.t
        val, _ = integrate.quad(
            lambda xi: a * a * 2 * math.pi * w * w * math.exp(-w * w * xi * xi)
            * (1 - math.exp(-k * t * xi * xi)) / (k * xi * xi),
            1e-12,
            np.inf,
            limit=200,
        )
        self.target = 2 * val / (2 * math.pi)
        noise.kernel_multiplier(self.model, self.grid, None)
        lattice.propagator_multiplier(self.grid, self.kappa, self.dt)

    def run(self):
        chunks = []

        def chunk(streams):
            chunks.append(len(streams))
            return solver.solve_batch(self.cfg, self.t, self.seed, streams)

        out = an.replica_map(chunk, self.replicas, threads=self.threads)
        self.ops = len(chunks)
        return out

    def check(self, out):
        site0 = out[:, 0]
        var, var_se = an.jackknife_stat(site0, "var")
        mean, mean_se = an.jackknife_stat(site0, "mean")
        var_tol = 3 * var_se + 0.05 * self.target
        return [
            ("variance_vs_quadrature", abs(var - self.target) <= var_tol,
             f"var={var:.5f} target={self.target:.5f} tol={var_tol:.5f}"),
            ("mean_conserved", abs(mean - 1.0) <= Z_MEAN * mean_se,
             f"mean={mean:.5f} se={mean_se:.5f}"),
        ]

    def digest(self, out):
        return _sha256(np.ascontiguousarray(out, dtype="<f8").tobytes())


class PamMoments:
    """Parabolic Anderson moments on the real-space path, two threads.

    Chosen because it is the real-space path (FFT pairs, sigma, clamp) and
    the only workload whose replica farm runs on more than one thread; the
    Feynman-Kac oracle gives the reference second moment.
    """

    name = "pam_moments_2t"
    m, dx, dt, t, alpha, kappa = 512, 0.125, 1 / 256, 0.25, 0.5, 1.0

    def __init__(self, seed: int, smoke: bool = False, threads: int = 2):
        self.seed = seed
        self.replicas = 64 if smoke else 512
        self.walkers = 200 if smoke else 5_000
        self.inner_steps = 512
        self.threads = threads
        self.ops = 0

    def setup(self):
        self.model = sl.CorrelationModel.riesz(d=1, alpha=self.alpha, c0=1.0)
        self.grid = sl.LatticeGrid(d=1, m=self.m, dx=self.dx)
        cfg = sl.SolverConfig(
            grid=self.grid,
            model=self.model,
            # the oracle exponentiates the ordered pair sum, so the matching
            # lattice coupling is sqrt(2)
            sigma=sl.SigmaFunction.linear(c=math.sqrt(2.0)),
            kappa=self.kappa,
            dt=self.dt,
            u0=sl.U0Spec(kind="constant", level=1.0),
        )
        # One probe per unit length: averaging |u|^k over sites tames the
        # intermittent tail that makes a single-site second moment at a few
        # hundred replicas miss the oracle on about one seed in ten.
        probes = tuple((float(x),) for x in np.arange(-self.m * self.dx / 2, self.m * self.dx / 2))
        self.scenario = an.Scenario(cfg=cfg, t_final=self.t, probes=probes)
        self.oracle_cfg = an.FkOracleConfig(
            walkers=self.walkers, inner_steps=self.inner_steps, seed=self.seed
        )
        noise.kernel_multiplier(self.model, self.grid, None)
        lattice.propagator_multiplier(self.grid, self.kappa, self.dt)

    def run(self):
        rep = an.estimate_moments(self.scenario, [1, 2], self.replicas, seed=self.seed, threads=self.threads)
        orc = an.fk_moment_oracle(self.model, self.kappa, self.t, 2, self.oracle_cfg)
        self.ops = 2
        return rep, orc

    def check(self, out):
        rep, orc = out
        (m1, m2), (se1, se2) = rep.estimates, rep.stderrs
        tol2 = 3 * math.hypot(se2, orc.stderr) + 0.05 * orc.estimate
        return [
            ("first_moment_conserved", abs(m1 - 1.0) <= Z_MEAN * se1, f"m1={m1:.5f} se={se1:.5f}"),
            ("second_moment_vs_oracle", abs(m2 - orc.estimate) <= tol2,
             f"lattice={m2:.5f}+-{se2:.5f} oracle={orc.estimate:.5f}+-{orc.stderr:.5f} tol={tol2:.5f}"),
        ]

    def digest(self, out):
        rep, orc = out
        vals = np.array(rep.estimates + rep.stderrs + [orc.estimate, orc.stderr], dtype="<f8")
        return _sha256(vals.tobytes(), bytes(rep.flags), bytes([orc.heavy_tail]))


class CliBundle:
    """The README user path: four CLI verbs on one manifest, each reported.

    Chosen because the localized Picard sum and the oracle dominate it and
    it is the only workload that validates manifests and writes and reads
    bundles; it bypasses threads and the spectral path.
    """

    name = "cli_bundle"
    verbs = ("localize", "independence", "oracle", "simulate")

    def __init__(self, seed: int, smoke: bool = False, threads: int = 1, workdir: Path = None):
        self.seed = seed
        self.replicas = 8 if smoke else 32
        self.walkers = 200 if smoke else 5_000
        self.threads = threads
        self.workdir = Path(workdir)
        self.ops = 0
        self._iter = 0

    def setup(self):
        self.manifest = {
            "version": 1,
            "seed": self.seed,
            "replicas": self.replicas,
            "model": {"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0},
            "grid": {"d": 1, "m": 512, "dx": 0.25},
            "solver": {
                "kappa": 1.0,
                "dt": 1 / 128,
                "t_final": 0.25,
                "sigma": {"kind": "linear", "c": 1.0},
                "u0": {"kind": "constant", "level": 1.0},
            },
            "analysis": {
                "localize": {"betas": [8, 16, 32], "k": 2},
                "independence": {"beta": 2, "points": [[0.0], [20.0], [40.0]]},
                # the schema requires k even when ks is given
                "oracle": {"k": 2, "ks": [2, 3, 4], "walkers": self.walkers, "inner_steps": 256},
                "simulate": {"record_times": [0.125, 0.25], "snapshot": True},
            },
        }
        errors = ex.validate_manifest(self.manifest)
        if errors:
            raise ValueError(f"benchmark manifest is invalid: {errors}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.workdir / "manifest.json"
        self.manifest_path.write_text(json.dumps(self.manifest, indent=2))
        model = sl.CorrelationModel.from_dict(self.manifest["model"])
        grid = sl.LatticeGrid.from_dict(self.manifest["grid"])
        noise.kernel_multiplier(model, grid, None)
        lattice.propagator_multiplier(grid, self.manifest["solver"]["kappa"], self.manifest["solver"]["dt"])

    def run(self):
        self._iter += 1
        base = self.workdir / f"iter{self._iter}"
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for verb in self.verbs:
                out = base / verb
                codes[verb] = cli.main(
                    [verb, "--manifest", str(self.manifest_path), "--out", str(out), "--threads", str(self.threads)]
                )
                codes[f"report {verb}"] = cli.main(["report", str(out)])
        self.ops = len(codes)
        return base, codes

    def check(self, out):
        base, codes = out
        checks = [(f"exit {name}", rc == 0, f"rc={rc}") for name, rc in codes.items()]

        def summary(verb):
            path = base / verb / "summary.json"
            return json.loads(path.read_text())["analyses"][verb] if path.is_file() else None

        loc, ind, orc = summary("localize"), summary("independence"), summary("oracle")
        errs = loc["errors"] if loc else []
        checks.append(("localize_errors_decrease", bool(errs) and all(a > b for a, b in zip(errs, errs[1:])),
                       f"errors={errs}"))
        checks.append(("independence_passed", bool(ind and ind["passed"]), f"summary={ind}"))
        checks.append(("oracle_not_heavy_tailed", bool(orc) and not any(orc["heavy_tail"]),
                       f"heavy_tail={orc and orc['heavy_tail']}"))
        return checks

    def digest(self, out):
        base, _ = out
        files = sorted(p for p in base.rglob("*") if p.suffix in (".csv", ".field"))
        d = _sha256(*(str(p.relative_to(base)).encode() + b"\0" + p.read_bytes() for p in files))
        shutil.rmtree(base, ignore_errors=True)
        return d


WORKLOADS = {w.name: w for w in (AdditiveFarm, PamMoments, CliBundle)}


def make(name: str, seed: int, smoke: bool, threads, workdir: Path):
    """Build a workload; threads None keeps the workload's own thread count."""
    cls = WORKLOADS[name]
    kwargs = {} if threads is None else {"threads": threads}
    if cls is CliBundle:
        kwargs["workdir"] = workdir
    return cls(seed, smoke=smoke, **kwargs)

import copy
import json
import os

import numpy as np
import pytest

import shelab as sl
import shelab.analysis as an
import shelab.experiments as exp
from shelab.cli import main as cli_main


def base_manifest():
    return {
        "version": 1,
        "seed": 11,
        "replicas": 48,
        "model": {"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0},
        "grid": {"d": 1, "m": 64, "dx": 0.25},
        "solver": {
            "kappa": 1.0,
            "dt": 0.015625,
            "t_final": 0.25,
            "sigma": {"kind": "linear", "c": 1.0},
            "u0": {"kind": "constant", "level": 1.0},
        },
        "analysis": {"moments": {"ks": [2, 3]}},
    }


def write_manifest(tmp_path, manifest, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(manifest))
    return str(p)


def manifest_cfg(m):
    sb = m["solver"]
    return sl.SolverConfig(
        grid=sl.LatticeGrid.from_dict(m["grid"]),
        model=sl.CorrelationModel.from_dict(m["model"]),
        sigma=sl.SigmaFunction.from_dict(sb["sigma"]),
        kappa=sb["kappa"],
        dt=sb["dt"],
        u0=sl.U0Spec.from_dict(sb["u0"]),
    )


# Blocks that each break one rule of the library call they reach, on a base
# of gaussian_h in d = 1 with L = 16 (unless dx changes), dt = 1/256,
# t_final = 1/16 and 4 replicas.  Each comes with that library call, made
# directly; it raises the message that validation must report.
T, R = 1 / 16, 4
RULE_GAPS = [
    pytest.param(
        "localize", {"betas": [12], "k": 2}, 0.25,
        lambda cfg: an.localization_error_curve(cfg, T, [12], 2, R),
        id="localize-cutoff-above-half-period",
    ),
    pytest.param(
        "independence", {"beta": 12, "points": [[0.0], [4.0]]}, 0.25,
        lambda cfg: an.independence_test(cfg, sl.LocalizationConfig(beta=12), T, [[0.0], [4.0]], R),
        id="independence-cutoff-above-half-period",
    ),
    pytest.param(
        "independence", {"beta": 1.5, "points": [[0.0], [64.0]]}, 2.0,
        lambda cfg: an.independence_test(cfg, sl.LocalizationConfig(beta=1.5), T, [[0.0], [64.0]], R),
        id="independence-cutoff-below-one-cell",
    ),
    pytest.param(
        "moments", {"ks": [2], "probes": [[0, 0]]}, 0.25,
        lambda cfg: an.estimate_moments(an.Scenario(cfg=cfg, t_final=T, probes=((0, 0),)), [2], R),
        id="moments-probe-dimension",
    ),
    pytest.param(
        "noise_selftest", {"lags": [64], "slices": 4}, 0.25,
        lambda cfg: sl.covariance_selftest(cfg.model, cfg.grid, cfg.dt, [64], 4),
        id="selftest-lag-beyond-grid",
    ),
    pytest.param(
        "noise_selftest", {"lags": [0], "slices": 4, "level": 0.5}, 0.25,
        lambda cfg: sl.covariance_selftest(cfg.model, cfg.grid, cfg.dt, [0], 4, level=0.5),
        id="selftest-cutoff-below-one",
    ),
    pytest.param(
        "extremes", {"radii": [4, 2]}, 0.25,
        lambda cfg: an.boundedness_probe(an.Scenario(cfg=cfg, t_final=T), [4, 2], R),
        id="extremes-radius-ladder",
    ),
    pytest.param(
        "boundedness", {"radii": [2, 2]}, 0.25,
        lambda cfg: an.boundedness_probe(an.Scenario(cfg=cfg, t_final=T), [2, 2], R),
        id="boundedness-radius-ladder",
    ),
    pytest.param(
        "localize", {"betas": [4, 2], "k": 2}, 0.25,
        lambda cfg: an.localization_error_curve(cfg, T, [4, 2], 2, R),
        id="localize-beta-ladder",
    ),
    pytest.param(
        "extremes", {"radii": [2, 4], "tail_lambdas": [2.0]}, 0.25,
        lambda cfg: an.tail_estimate(np.full(R, 3.0), 2.0),
        id="extremes-tail-lambda-not-above-e",
    ),
]


class TestValidation:
    def test_valid_manifest_has_no_errors(self):
        assert exp.validate_manifest(base_manifest()) == []

    def test_schema_violations_reported_with_path(self):
        m = base_manifest()
        m["seed"] = -3
        m["model"]["kind"] = "nope"
        errs = exp.validate_manifest(m)
        assert any("seed" in e for e in errs)
        assert any("model" in e and "nope" in e for e in errs)

    def test_unknown_top_level_key_rejected(self):
        m = base_manifest()
        m["extra"] = 1
        assert exp.validate_manifest(m)

    def test_coarse_dt_rejected(self):
        m = base_manifest()
        m["solver"]["dt"] = 0.1
        errs = exp.validate_manifest(m)
        assert any("dt <= t_final/16" in e for e in errs)

    def test_nonintegral_step_count_rejected(self):
        m = base_manifest()
        m["solver"]["dt"] = 0.013
        errs = exp.validate_manifest(m)
        assert any("integer multiple" in e for e in errs)

    def test_solver_analyses_need_grid(self):
        m = base_manifest()
        del m["grid"]
        errs = exp.validate_manifest(m)
        assert any("need both a grid and a solver block" in e for e in errs)

    def test_constant_model_cannot_drive_solver(self):
        m = base_manifest()
        m["model"] = {"kind": "constant", "d": 1, "c": 0.5}
        errs = exp.validate_manifest(m)
        assert any("no convolution kernel" in e for e in errs)

    def test_single_replica_rejected_for_jackknife(self):
        m = base_manifest()
        m["replicas"] = 1
        errs = exp.validate_manifest(m)
        assert any("replicas >= 2" in e for e in errs)

    def test_record_time_constraints(self):
        m = base_manifest()
        m["analysis"] = {"simulate": {"record_times": [0.1, 0.5]}}
        errs = exp.validate_manifest(m)
        assert any("integer multiple" in e for e in errs)  # 0.1/dt = 6.4
        assert any("exceeds t_final" in e for e in errs)

    def test_radius_beyond_half_period(self):
        m = base_manifest()
        m["analysis"] = {"boundedness": {"radii": [2.0, 40.0]}}
        errs = exp.validate_manifest(m)
        assert any("exceeds period/2" in e for e in errs)

    def test_localize_window_inequality(self):
        m = base_manifest()
        m["analysis"] = {"localize": {"betas": [30.0], "k": 2}}
        errs = exp.validate_manifest(m)
        assert any("exceeds period/4" in e for e in errs)

    def test_independence_point_dimension(self):
        m = base_manifest()
        m["analysis"] = {"independence": {"points": [[0.0, 1.0], [2.0]], "beta": 2.0}}
        errs = exp.validate_manifest(m)
        assert any("does not have 1 coordinates" in e for e in errs)

    def test_oracle_supercritical_riesz(self):
        m = base_manifest()
        m["model"] = {"kind": "riesz", "d": 3, "alpha": 2.5, "c0": 1.0}
        m["analysis"] = {"oracle": {"k": 2, "walkers": 16, "inner_steps": 16}}
        errs = exp.validate_manifest(m)
        assert any("alpha < 2" in e for e in errs)

    def test_oracle_riesz_alpha_equal_d(self):
        m = base_manifest()
        m["model"] = {"kind": "riesz", "d": 1, "alpha": 1.0, "c0": 1.0}
        m["analysis"] = {"oracle": {"k": 2, "walkers": 16, "inner_steps": 16}}
        errs = exp.validate_manifest(m)
        assert any("violates alpha < 1 = min(d, 2)" in e for e in errs)

    @pytest.mark.parametrize("verb, block, dx, library_call", RULE_GAPS)
    def test_library_rule_fails_validation_not_the_run(self, tmp_path, capsys, verb, block, dx, library_call):
        m = base_manifest()
        m["replicas"] = R
        m["grid"]["dx"] = dx
        m["solver"].update(dt=1 / 256, t_final=T)
        m["analysis"] = {verb: block}
        with pytest.raises(ValueError) as ei:
            library_call(manifest_cfg(m))
        assert exp.validate_manifest(m) == [f"{verb}: {ei.value}"]
        mp = write_manifest(tmp_path, m)
        assert cli_main([verb.replace("_", "-"), "--manifest", mp, "--out", str(tmp_path / "b")]) == 2
        assert str(ei.value) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.json"]  # no bundle, not even a partial one

    def test_manifest_error_carries_list(self, tmp_path):
        m = base_manifest()
        m["replicas"] = 1
        with pytest.raises(exp.ManifestError) as ei:
            exp.run(m, str(tmp_path / "b"))
        assert ei.value.errors


class TestHashing:
    def test_hash_ignores_key_order(self):
        m = base_manifest()
        shuffled = json.loads(json.dumps(m))
        reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
        assert exp.manifest_hash(m) == exp.manifest_hash(reordered)

    def test_hash_sensitive_to_values(self):
        m2 = base_manifest()
        m2["seed"] = 12
        assert exp.manifest_hash(base_manifest()) != exp.manifest_hash(m2)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        cfg = sl.SolverConfig(
            grid=sl.LatticeGrid(d=1, m=64, dx=0.25),
            model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
            sigma=sl.SigmaFunction.linear(c=1.0),
            kappa=1.0,
            dt=0.015625,
            u0=sl.U0Spec(kind="constant", level=1.0),
        )
        fld = sl.solve(cfg, 0.25, sl.WhiteNoiseSource(seed=7, stream_id=0))
        p = tmp_path / "snap.field"
        exp.save_snapshot(str(p), fld, cfg.kappa, cfg.sigma.kind, 7)
        header, data = exp.load_snapshot(str(p))
        assert np.array_equal(data, fld.values)
        assert header["t"] == 0.25
        assert header["seed"] == 7
        assert header["grid"]["m"] == 64


class TestRunBundles:
    def test_moments_bundle_layout(self, tmp_path):
        m = base_manifest()
        out = str(tmp_path / "b1")
        bundle = exp.run(m, out, threads=2)
        assert bundle.complete
        assert os.path.isdir(out)
        assert sorted(os.listdir(out)) == ["manifest.json", "moments.csv", "summary.json"]
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["manifest_hash"] == exp.manifest_hash(m)
        assert summary["complete"] is True
        assert summary["failures"] == {}
        first = open(os.path.join(out, "moments.csv")).readline().strip()
        assert first == f"# manifest_hash={exp.manifest_hash(m)}"

    def test_rerun_is_byte_identical_and_thread_invariant(self, tmp_path):
        m = base_manifest()
        paths = []
        for name, threads in (("r1", 1), ("r2", 1), ("r4", 4)):
            out = str(tmp_path / name)
            exp.run(m, out, threads=threads)
            paths.append(out)
        ref = open(os.path.join(paths[0], "moments.csv"), "rb").read()
        for p in paths[1:]:
            assert open(os.path.join(p, "moments.csv"), "rb").read() == ref

    def test_refuses_existing_out(self, tmp_path):
        out = tmp_path / "exists"
        out.mkdir()
        with pytest.raises(exp.BundleError):
            exp.run(base_manifest(), str(out))

    def test_partial_failure_recorded(self, tmp_path):
        m = base_manifest()
        # level 1e308 overflows within a step or two
        m["solver"]["u0"] = {"kind": "constant", "level": 1e308}
        m["replicas"] = 8
        m["analysis"] = {"dalang": {}, "moments": {"ks": [2]}}
        out = str(tmp_path / "pf")
        bundle = exp.run(m, out)
        assert not bundle.complete
        assert "moments" in bundle.summary["failures"]
        assert "dalang" not in bundle.summary["failures"]
        # dalang output is still present
        assert os.path.exists(os.path.join(out, "dalang.csv"))

    def test_tails_csv_matches_tail_probability(self, tmp_path):
        m = base_manifest()
        m["solver"]["u0"]["level"] = 3.0
        lams = [4.0, 6.0]
        m["analysis"] = {"extremes": {"radii": [2.0, 4.0], "tail_lambdas": lams}}
        exp.run(m, str(tmp_path / "b"))
        lines = (tmp_path / "b" / "tails.csv").read_text().splitlines()
        assert lines[1] == "lambda,p_hat,lo,hi,exceedances,n"
        assert len(lines) == 2 + len(lams)
        scen = an.Scenario(cfg=manifest_cfg(m), t_final=0.25, radius=4.0)
        for line, lam in zip(lines[2:], lams):
            est = an.tail_probability(scen, lam, m["replicas"], seed=m["seed"])
            assert 0 < est.exceedances < est.n
            assert [float(v) for v in line.split(",")] == [lam, est.p_hat, est.lo, est.hi, est.exceedances, est.n]

    def test_read_bundle_verifies_hash(self, tmp_path):
        out = str(tmp_path / "rt")
        exp.run(base_manifest(), out)
        got = exp.read_bundle(out)
        assert got.complete
        man_path = os.path.join(out, "manifest.json")
        tampered = json.loads(open(man_path).read())
        tampered["seed"] = 999
        open(man_path, "w").write(json.dumps(tampered))
        with pytest.raises(exp.BundleError):
            exp.read_bundle(out)

    def test_gnuplot_emission(self, tmp_path):
        out = str(tmp_path / "gp")
        exp.run(base_manifest(), out, emit_gnuplot=True)
        text = open(os.path.join(out, "plots.gp")).read()
        assert "moments.csv" in text

    def test_report_renders(self, tmp_path):
        out = str(tmp_path / "rep")
        exp.run(base_manifest(), out)
        text = exp.render_report(exp.read_bundle(out))
        assert "moments" in text
        assert exp.manifest_hash(base_manifest())[:8] in text


class TestCli:
    def test_run_verb_exit_zero(self, tmp_path, capsys):
        mp = write_manifest(tmp_path, base_manifest())
        out = str(tmp_path / "cli_b")
        assert cli_main(["moments", "--manifest", mp, "--out", out]) == 0
        assert os.path.isdir(out)
        assert "moments" in capsys.readouterr().out

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        m = base_manifest()
        m["replicas"] = 1
        mp = write_manifest(tmp_path, m)
        assert cli_main(["moments", "--manifest", mp, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "replicas >= 2" in err

    def test_verb_without_matching_analysis_block(self, tmp_path, capsys):
        mp = write_manifest(tmp_path, base_manifest())
        assert cli_main(["localize", "--manifest", mp, "--out", str(tmp_path / "x")]) == 2

    def test_partial_failure_exit_three(self, tmp_path, capsys):
        m = base_manifest()
        m["solver"]["u0"] = {"kind": "constant", "level": 1e308}
        m["replicas"] = 8
        mp = write_manifest(tmp_path, m)
        assert cli_main(["moments", "--manifest", mp, "--out", str(tmp_path / "pf")]) == 3
        assert "FAILED moments" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        mp = write_manifest(tmp_path, base_manifest())
        o1, o2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert cli_main(["moments", "--manifest", mp, "--out", o1]) == 0
        assert cli_main(["moments", "--manifest", mp, "--out", o2, "--seed", "99"]) == 0
        a = open(os.path.join(o1, "moments.csv")).readlines()[2]
        b = open(os.path.join(o2, "moments.csv")).readlines()[2]
        assert a != b

    def test_report_verb(self, tmp_path, capsys):
        mp = write_manifest(tmp_path, base_manifest())
        out = str(tmp_path / "rb")
        cli_main(["moments", "--manifest", mp, "--out", out])
        capsys.readouterr()
        assert cli_main(["report", out]) == 0
        assert "moments" in capsys.readouterr().out

    def test_report_rejects_tampered_bundle(self, tmp_path, capsys):
        mp = write_manifest(tmp_path, base_manifest())
        out = str(tmp_path / "tb")
        cli_main(["moments", "--manifest", mp, "--out", out])
        man_path = os.path.join(out, "manifest.json")
        doc = json.loads(open(man_path).read())
        doc["seed"] = 1234
        open(man_path, "w").write(json.dumps(doc))
        assert cli_main(["report", out]) == 2

    def test_dalang_shortcut(self, tmp_path, capsys):
        mp = tmp_path / "model.json"
        mp.write_text(json.dumps({"kind": "gaussian_h", "d": 1, "width": 1.0, "amplitude": 1.0}))
        assert cli_main(["dalang", "--model", str(mp)]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "integral" in out

    def test_oracle_shortcut(self, tmp_path, capsys):
        mp = tmp_path / "model.json"
        mp.write_text(json.dumps({"kind": "constant", "d": 1, "c": 0.3}))
        rc = cli_main(
            ["oracle", "--model", str(mp), "--k", "3", "--t", "1.0",
             "--walkers", "16", "--inner-steps", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimate" in out

    def test_missing_manifest_is_validation_error(self, capsys):
        assert cli_main(["simulate"]) == 2

import ast
import collections
import copy
import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import shelab as sl
import shelab.analysis as an
import shelab.cli as cli
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


# Manifests that each break one rule of the library call they reach, on a
# base of gaussian_h in d = 1 with L = 16 (unless dx changes), dt = 1/256,
# t_final = 1/16 and 4 replicas, running the one analysis they name.  Each
# comes with that library call, made directly; it raises the message that
# validation must report after `where`.
T, R = 1 / 16, 4
DROP = object()  # a change that removes the key
GAUSS = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
ORACLE = {"k": 2, "walkers": 16, "inner_steps": 16}


def broken(changes):
    """The base manifest with each "path/to/key": value of changes applied."""
    m = base_manifest()
    m["replicas"] = R
    m["solver"].update(dt=1 / 256, t_final=T)
    for path, value in changes.items():
        *parents, key = path.split("/")
        blk = m
        for p in parents:
            blk = blk[p]
        if value is DROP:
            del blk[key]
        else:
            blk[key] = value
    return m


RULE_GAPS = [
    pytest.param(
        "localize", {"analysis": {"localize": {"betas": [12], "k": 2}}},
        lambda m: an.localization_error_curve(manifest_cfg(m), T, [12], 2, R),
        id="localize-cutoff-above-half-period",
    ),
    pytest.param(
        "independence", {"analysis": {"independence": {"beta": 12, "points": [[0.0], [4.0]]}}},
        lambda m: an.independence_test(manifest_cfg(m), sl.LocalizationConfig(beta=12), T, [[0.0], [4.0]], R),
        id="independence-cutoff-above-half-period",
    ),
    pytest.param(
        "independence", {"grid/dx": 2.0, "analysis": {"independence": {"beta": 1.5, "points": [[0.0], [64.0]]}}},
        lambda m: an.independence_test(manifest_cfg(m), sl.LocalizationConfig(beta=1.5), T, [[0.0], [64.0]], R),
        id="independence-cutoff-below-one-cell",
    ),
    pytest.param(
        "moments", {"analysis": {"moments": {"ks": [2], "probes": [[0, 0]]}}},
        lambda m: an.estimate_moments(an.Scenario(cfg=manifest_cfg(m), t_final=T, probes=((0, 0),)), [2], R),
        id="moments-probe-dimension",
    ),
    pytest.param(
        "moments", {"analysis": {"moments": {"ks": [2], "probes": []}}},
        lambda m: an.estimate_moments(an.Scenario(cfg=manifest_cfg(m), t_final=T, probes=()), [2], R),
        id="moments-no-probes",
    ),
    pytest.param(
        "noise_selftest", {"analysis": {"noise_selftest": {"lags": [64], "slices": 4}}},
        lambda m: sl.covariance_selftest(GAUSS, manifest_cfg(m).grid, 1 / 256, [64], 4),
        id="selftest-lag-beyond-grid",
    ),
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [4, 2]}}},
        lambda m: an.boundedness_probe(an.Scenario(cfg=manifest_cfg(m), t_final=T), [4, 2], R),
        id="extremes-radius-ladder",
    ),
    # the boundedness-* ids name the library probe whose radius rule the extremes block must catch
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [2, 2]}}},
        lambda m: an.boundedness_probe(an.Scenario(cfg=manifest_cfg(m), t_final=T), [2, 2], R),
        id="boundedness-radius-ladder",
    ),
    pytest.param(
        "localize", {"analysis": {"localize": {"betas": [4, 2], "k": 2}}},
        lambda m: an.localization_error_curve(manifest_cfg(m), T, [4, 2], 2, R),
        id="localize-beta-ladder",
    ),
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [2, 4], "tail_lambdas": [2.0]}}},
        lambda m: an.tail_estimate(np.full(R, 3.0), 2.0),
        id="extremes-tail-lambda-not-above-e",
    ),
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [0.5, 2.0]}}},
        lambda m: an.fluctuation_exponent([0.5, 2.0], [1.0, 1.0]),
        id="extremes-radius-not-above-one",
    ),
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [-1.0, 2.0]}}},
        lambda m: an.boundedness_probe(an.Scenario(cfg=manifest_cfg(m), t_final=T), [-1.0, 2.0], R),
        id="boundedness-radius-not-positive",
    ),
    pytest.param(
        "seed", {"seed": 2**63},
        lambda m: an.estimate_moments(an.Scenario(cfg=manifest_cfg(m), t_final=T), [2], R, seed=2**63),
        id="seed-beyond-63-bits",
    ),
    pytest.param(
        "oracle", {"analysis": {"oracle": {**ORACLE, "k": 1}}},
        lambda m: an.fk_moment_oracle(GAUSS, 1.0, T, 1, an.FkOracleConfig(16, 16)),
        id="oracle-k-below-two",
    ),
    pytest.param(
        "oracle", {"analysis": {"oracle": {**ORACLE, "ks": [2, 1]}}},
        lambda m: an.fk_moment_oracle(GAUSS, 1.0, T, 1, an.FkOracleConfig(16, 16)),
        id="oracle-ks-below-two",
    ),
    # the oracle's level comes from solver/u0, whose error is reported once, there
    pytest.param(
        "solver/u0", {"solver/u0/level": 0.0, "analysis": {"oracle": ORACLE}},
        lambda m: sl.U0Spec.from_dict(m["solver"]["u0"]),
        id="oracle-u0-level-not-positive",
    ),
    pytest.param(
        "oracle", {"grid": DROP, "solver/kappa": 0.0, "analysis": {"oracle": ORACLE}},
        lambda m: an.fk_moment_oracle(GAUSS, 0.0, T, 2, an.FkOracleConfig(16, 16)),
        id="oracle-kappa-not-positive-without-grid",
    ),
    pytest.param(
        "oracle", {"grid": DROP, "solver/t_final": 0.0, "analysis": {"oracle": ORACLE}},
        lambda m: an.fk_moment_oracle(GAUSS, 1.0, 0.0, 2, an.FkOracleConfig(16, 16)),
        id="oracle-t-final-not-positive-without-grid",
    ),
    # a rule written as x <= 0 lets NaN through; json reads NaN
    pytest.param(
        "solver", {"solver/kappa": math.nan}, manifest_cfg, id="solver-kappa-nan",
    ),
    pytest.param(
        "solver", {"solver/dt": math.nan}, manifest_cfg, id="solver-dt-nan",
    ),
    pytest.param(
        "model", {"model/width": math.nan}, lambda m: sl.CorrelationModel.from_dict(m["model"]), id="model-width-nan",
    ),
    pytest.param(
        "solver/sigma", {"solver/sigma/c": math.nan}, lambda m: sl.SigmaFunction.linear(c=math.nan),
        id="sigma-c-nan",
    ),
    pytest.param(
        "solver/u0", {"solver/u0/level": math.nan}, lambda m: sl.U0Spec.from_dict(m["solver"]["u0"]),
        id="u0-level-nan",
    ),
    pytest.param(
        "localize", {"analysis": {"localize": {"betas": [math.nan], "k": 2}}},
        lambda m: an.localization_error_curve(manifest_cfg(m), T, [math.nan], 2, R),
        id="localize-beta-nan",
    ),
    pytest.param(
        "extremes", {"analysis": {"extremes": {"radii": [2, 4], "tail_lambdas": [math.nan]}}},
        lambda m: an.tail_estimate(np.full(R, 3.0), math.nan),
        id="extremes-tail-lambda-nan",
    ),
    pytest.param(
        "independence", {"analysis": {"independence": {"beta": 2, "points": [[0.0], [math.nan]]}}},
        lambda m: an.independence_test(manifest_cfg(m), sl.LocalizationConfig(beta=2), T, [[0.0], [math.nan]], R),
        id="independence-point-nan",
    ),
    pytest.param(
        "moments", {"analysis": {"moments": {"ks": [2], "probes": [[math.nan]]}}},
        lambda m: an.estimate_moments(an.Scenario(cfg=manifest_cfg(m), t_final=T, probes=((math.nan,),)), [2], R),
        id="moments-probe-nan",
    ),
]

# Integer fields written as integral floats, which draft 7 counts as
# integers: each must fail the schema, not a run.
INTEGRAL_FLOATS = [
    pytest.param("moments", {"grid/d": 1.0}, "grid/d", id="grid-d"),
    pytest.param("moments", {"replicas": 4.0}, "replicas", id="replicas"),
    pytest.param("oracle", {"analysis": {"oracle": {**ORACLE, "walkers": 16.0}}}, "analysis/oracle/walkers",
                 id="oracle-walkers"),
    pytest.param("oracle", {"analysis": {"oracle": {**ORACLE, "inner_steps": 16.0}}},
                 "analysis/oracle/inner_steps", id="oracle-inner-steps"),
    pytest.param("oracle", {"analysis": {"oracle": {**ORACLE, "ks": [2, 3.0]}}}, "analysis/oracle/ks/1",
                 id="oracle-ks-entry"),
    pytest.param("noise_selftest", {"analysis": {"noise_selftest": {"lags": [0], "slices": 4.0}}},
                 "analysis/noise_selftest/slices", id="selftest-slices"),
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
        assert exp.validate_manifest(m) == ["moments: needs a grid and a solver block"]
        # the oracle needs the solver block but no grid
        m = broken({"grid": DROP, "solver": DROP, "analysis": {"dalang": {}, "oracle": ORACLE}})
        assert exp.validate_manifest(m) == ["oracle: needs a solver block"]

    def test_invalid_grid_is_not_a_missing_grid(self):
        m = base_manifest()
        m["grid"]["m"] = 12
        assert exp.validate_manifest(m) == ["grid: m must be a power of two >= 8, got 12"]

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

    def test_coarse_dt_names_the_record_time(self):
        # dt = 1/64 is fine for t_final = 0.25 but too coarse for a record at 0.125
        m = base_manifest()
        m["analysis"] = {"simulate": {"record_times": [0.125]}}
        assert exp.validate_manifest(m) == [
            "simulate: dt=0.015625 too coarse for record time=0.125: need dt <= record time/16 = 0.0078125"
        ]

    def test_radius_beyond_half_period(self):
        m = base_manifest()
        m["analysis"] = {"extremes": {"radii": [2.0, 40.0]}}
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

    def test_oracle_runs_ks_when_given(self, tmp_path):
        # k, ks or both may be named; ks runs when it is given
        for block, ks in (({"ks": [2, 3]}, [2, 3]), ({"k": 2, "ks": [2, 3, 4]}, [2, 3, 4]), ({"k": 3}, [3])):
            m = broken({"analysis": {"oracle": {"walkers": 16, "inner_steps": 16, **block}}})
            assert exp.validate_manifest(m) == []
            out = tmp_path / "_".join(map(str, ks))
            assert exp.run(m, out).summary["analyses"]["oracle"]["ks"] == ks

    def test_oracle_block_walks_once(self, monkeypatch, tmp_path):
        # every order of a block reads one walk, whatever the worker count
        calls, ladder = [], an._fk_ladder

        def spy(model, kappa, t, ks, cfg, u0_level):
            calls.append(list(ks))
            return ladder(model, kappa, t, ks, cfg, u0_level)

        monkeypatch.setattr(an, "_fk_ladder", spy)
        m = broken({"analysis": {"oracle": {"ks": [2, 3, 4], "walkers": 16, "inner_steps": 16}}})
        exp.run(m, tmp_path / "b", threads=2)
        assert calls == [[2, 3, 4]]

    def test_oracle_checks_every_order_it_names(self):
        m = broken({"analysis": {"oracle": {**ORACLE, "k": 0, "ks": [2, 3]}}})
        assert exp.validate_manifest(m) == ["oracle: oracle moment order k = 0 violates k >= 2"]
        m = broken({"analysis": {"oracle": {"walkers": 16, "inner_steps": 16}}})
        assert exp.validate_manifest(m) == [
            "analysis/oracle: {'walkers': 16, 'inner_steps': 16} is not valid under any of the given schemas"
        ]

    def test_oracle_needs_multiplicative_noise(self):
        # the oracle's Feynman-Kac weight is that of a linear sigma, sigma(u) = c u
        m = broken({"solver/sigma": {"kind": "constant", "eps0": 1.0}, "analysis": {"oracle": ORACLE}})
        assert exp.validate_manifest(m) == [
            "oracle: sigma kind 'constant' violates kind = 'linear' (multiplicative noise)"
        ]

    def test_boundedness_block_is_unknown(self):
        m = broken({"analysis": {"boundedness": {"radii": [2.0, 4.0]}}})
        assert exp.validate_manifest(m) == [
            "analysis: Additional properties are not allowed ('boundedness' was unexpected)"
        ]

    def test_oracle_needs_flat_initial_data(self):
        m = broken({"solver/u0/kind": "gaussian_decay", "analysis": {"oracle": ORACLE}})
        assert exp.validate_manifest(m) == [
            "oracle: u0 kind 'gaussian_decay' violates kind = 'constant' (flat initial data)"
        ]

    def test_oracle_reads_the_runs_initial_level(self, tmp_path):
        # E u^k scales by level^k; an absent u0 is the default level 1
        log_means = {}
        for name, change in (("absent", DROP), ("1", 1.0), ("3", 3.0)):
            where = "solver/u0" if change is DROP else "solver/u0/level"
            m = broken({where: change, "analysis": {"oracle": {**ORACLE, "ks": [2, 3]}}})
            log_means[name] = exp.run(m, tmp_path / name).summary["analyses"]["oracle"]["log_means"]
        assert log_means["absent"] == log_means["1"]
        for k, one, three in zip((2, 3), log_means["1"], log_means["3"]):
            assert three == pytest.approx(one + k * math.log(3.0), rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "verb, key",
        [("localize", "n_picard"), ("independence", "n_picard"), ("oracle", "reg_scale"), ("oracle", "u0_level"),
         ("noise_selftest", "level")],
    )
    def test_derived_values_are_not_settable(self, tmp_path, capsys, verb, key):
        # the Picard depth follows from beta, the oracle cutoff from
        # kappa * t / inner_steps and the oracle's u0 level from solver/u0;
        # the self-test checks the full kernel, whose taper is kernel_multiplier's
        blocks = {"localize": {"betas": [2], "k": 2}, "independence": {"beta": 2, "points": [[0.0], [6.0]]},
                  "oracle": ORACLE, "noise_selftest": {"lags": [0], "slices": 4}}
        m = broken({"analysis": {verb: {**blocks[verb], key: 1}}})
        assert exp.validate_manifest(m) == [
            f"analysis/{verb}: Additional properties are not allowed ('{key}' was unexpected)"
        ]
        mp = write_manifest(tmp_path, m)
        assert cli_main([verb.replace("_", "-"), "--manifest", mp, "--out", str(tmp_path / "b")]) == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [[0.25, 0.25], [0.25, 0.125]], ids=["repeated", "decreasing"])
    def test_record_times_strictly_increase(self, tmp_path, times):
        # one snapshot per record time: a repeat would overwrite its file
        m = base_manifest()
        m["solver"]["dt"] = 1 / 128
        m["analysis"] = {"simulate": {"record_times": times, "snapshot": True}}
        expected = [f"simulate: record_times = {times} violates strictly increasing"]
        assert exp.validate_manifest(m) == expected
        with pytest.raises(exp.ManifestError) as ei:
            exp.run(m, tmp_path / "b")
        assert ei.value.errors == expected
        assert os.listdir(tmp_path) == []

    def test_each_analysis_reads_exactly_its_schema_properties(self):
        # a manifest field that no code reads fails here
        tree = ast.parse(Path(exp.__file__).read_text())
        schema = exp._schema()["properties"]["analysis"]["properties"]
        read = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_prepare_"):
                keys = read[fn.name[len("_prepare_"):]] = set()
                for node in ast.walk(fn):
                    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "blk":
                        keys.add(node.slice.value)
                    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                          and node.func.value.id == "blk"):
                        keys.add(node.args[0].value)
        assert read == {verb: set(blk["properties"]) for verb, blk in schema.items()}

    @pytest.mark.parametrize("where, changes, library_call", RULE_GAPS)
    def test_library_rule_fails_validation_not_the_run(self, tmp_path, capsys, where, changes, library_call):
        m = broken(changes)
        with pytest.raises(ValueError) as ei:
            library_call(m)
        assert exp.validate_manifest(m) == [f"{where}: {ei.value}"]
        mp = write_manifest(tmp_path, m)
        (verb,) = m["analysis"]
        assert cli_main([verb.replace("_", "-"), "--manifest", mp, "--out", str(tmp_path / "b")]) == 2
        assert str(ei.value) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.json"]  # no bundle, not even a partial one

    @pytest.mark.parametrize("verb, changes, where", INTEGRAL_FLOATS)
    def test_integer_fields_refuse_integral_floats(self, tmp_path, capsys, verb, changes, where):
        m = broken(changes)
        value = m
        for key in where.split("/"):
            value = value[int(key)] if isinstance(value, list) else value[key]
        expected = f"{where}: {value} is not of type 'integer'"
        assert exp.validate_manifest(m) == [expected]
        mp = write_manifest(tmp_path, m)
        assert cli_main([verb.replace("_", "-"), "--manifest", mp, "--out", str(tmp_path / "b")]) == 2
        assert expected in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.json"]

    def test_rules_of_different_blocks_are_reported_together(self):
        m = broken({"solver/dt": 1 / 8, "analysis": {"moments": {"ks": [2]}, "localize": {"betas": [2], "k": 0},
                                                     "oracle": {**ORACLE, "k": 1}}})
        expected = []
        for where, call in (
            ("localize", lambda: an.localization_error_curve(manifest_cfg(m), T, [2], 0, R)),
            ("moments", lambda: an.estimate_moments(an.Scenario(cfg=manifest_cfg(m), t_final=T), [2], R)),
            ("oracle", lambda: an.fk_moment_oracle(GAUSS, 1.0, T, 1, an.FkOracleConfig(16, 16))),
        ):
            with pytest.raises(ValueError) as ei:
                call()
            expected.append(f"{where}: {ei.value}")
        assert exp.validate_manifest(m) == expected
        assert "dt=0.125 too coarse" in expected[1]

    def test_schema_holds_no_value_rule(self):
        # value rules live in the library; a bound here would be a second
        # source with its own message
        bounds = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "enum"}

        def keys(node):
            if isinstance(node, dict):
                return set(node) | set().union(*(keys(v) for v in node.values()))
            if isinstance(node, list):
                return set().union(*(keys(v) for v in node))
            return set()

        assert keys(exp._schema()) & bounds == set()

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
        values = sl.solve_batch(cfg, 0.25, 7, [0])[0]
        p = tmp_path / "snap.field"
        exp.save_snapshot(str(p), cfg, 0.25, values, 7)
        header, data = exp.load_snapshot(str(p))
        assert np.array_equal(data, values)
        assert header == {"grid": {"d": 1, "m": 64, "dx": 0.25}, "t": 0.25, "kappa": 1.0, "sigma": "linear",
                          "seed": 7, "dtype": "<f8", "shape": [64]}


ESTIMATOR_PINS = {
    "independence.csv": "7264fdeaaf70a26022559d1f7bc18abdbe567abdfa8c58f2dbc6435db9057947",
    "localize.csv": "d716860e21465e588f64333a6bea5fce5367c0470eea115dd988aa0aa316b464",
    "moments.csv": "ce911c1a8ac8f7e566abd6c04fa0cdeb25ccf8f0d0234cc8f07f2bab150de41e",
    "sup_stats.csv": "d7ba5d74c5ec0cee28c80d9882cb107327d9d321c53bd97920c85a2f03f40b02",
    "tails.csv": "feea9c26ad4e071b59671e8326cf7fca7b0382822f78f3faaf1f4256a483f5e2",
}

# A d = 2 run of the analyses that solve one replica or test the noise:
# its simulate snapshots, self-test rows and independence pairs, the third
# point's pairs wrapping on the torus in x.
FIELD_MANIFEST = {
    "version": 1,
    "seed": 5,
    "replicas": 8,
    "model": {"kind": "gaussian_h", "d": 2, "width": 1.0, "amplitude": 1.0},
    "grid": {"d": 2, "m": 16, "dx": 0.25},
    "solver": {"kappa": 1.0, "dt": 0.0078125, "t_final": 0.25, "sigma": {"kind": "linear", "c": 1.0}},
    "analysis": {
        "simulate": {"record_times": [0.125, 0.25], "snapshot": True},
        "noise_selftest": {"lags": [0, 1, 3], "slices": 300},
        "independence": {"beta": 1.5, "points": [[0.0, 0.0], [1.75, -1.5], [-1.9, 1.0]]},
    },
}
FIELD_PINS = {
    "field_stats.csv": "03ba1e6dd0d7d719ab255d15e6f9817e8c6e0d04171a66a927d8cfa3bcbf44c2",
    "independence.csv": "a938367d86f9ad8d6001d7b676b25ee0aec12e51d369784673f5984bb6ce946f",
    "noise_selftest.csv": "4ce6125cb732e6bcbe633f0222778e69398a3c069f8b0e7c5ce44bcaa832905c",
    "snapshot_t0.125.field": "641d17fdfb94716f6cd3603b1a2144ff103c74b6f701a30346dee2d41a445c87",
    "snapshot_t0.25.field": "d8a0219641e8b75bdc581b0f8d29912becbf5ca6bdaa19544c4f3a864eec4faa",
}


class TestRunBundles:
    def test_moments_bundle_layout(self, tmp_path):
        m = base_manifest()
        out = str(tmp_path / "b1")
        bundle = exp.run(m, out, threads=2)
        assert bundle.complete
        assert os.path.isdir(out)
        assert sorted(os.listdir(out)) == ["manifest.json", "moments.csv", "plots.gp", "summary.json"]
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["manifest_hash"] == exp.manifest_hash(m)
        assert summary["complete"] is True
        assert summary["failures"] == {}
        first = open(os.path.join(out, "moments.csv")).readline().strip()
        assert first == f"# manifest_hash={exp.manifest_hash(m)}"

    def test_run_builds_the_model_and_prepares_each_analysis_once(self, tmp_path, monkeypatch):
        m = base_manifest()
        m["replicas"] = 4
        m["analysis"] = {
            "dalang": {},
            "noise_selftest": {"lags": [0], "slices": 4},
            "simulate": {"record_times": [0.25], "snapshot": True},
            "moments": {"ks": [2]},
            "oracle": ORACLE,
            "extremes": {"radii": [2.0, 4.0], "tail_lambdas": [4.0]},
            "localize": {"betas": [2], "k": 2},
            "independence": {"beta": 2, "points": [[0.0], [6.0]]},
        }
        calls = collections.Counter()
        from_dict = sl.CorrelationModel.from_dict.__func__

        def counted_from_dict(cls, spec):
            calls["from_dict"] += 1
            return from_dict(cls, spec)

        def counted(verb, prepare):
            def wrapper(*args, **kwargs):
                calls[verb] += 1
                return prepare(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sl.CorrelationModel, "from_dict", classmethod(counted_from_dict))
        for verb, spec in exp._ANALYSES.items():
            monkeypatch.setitem(exp._ANALYSES, verb, dataclasses.replace(spec, prepare=counted(verb, spec.prepare)))
        bundle = exp.run(m, tmp_path / "b")
        assert bundle.complete
        assert calls == {"from_dict": 1, **{verb: 1 for verb in exp._ANALYSES}}
        # the analyses' files entries name every file of the bundle once
        listed = [name for entry in bundle.summary["analyses"].values() for name in entry["files"]]
        bundle_files = {"manifest.json", "plots.gp", "summary.json"}
        assert sorted(listed) == sorted(set(os.listdir(tmp_path / "b")) - bundle_files)

    def test_runner_names_no_verb(self):
        # what is particular to an analysis lives in its _prepare_<verb>
        tree = ast.parse(Path(exp.__file__).read_text())
        named = {
            (node.name, const.value)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_prepare_")
            for const in ast.walk(node)
            if isinstance(const, ast.Constant) and isinstance(const.value, str) and const.value in exp._ANALYSES
        }
        assert named == set()

    def test_simulate_writes_a_snapshot_per_record_time(self, tmp_path):
        m = base_manifest()
        m["solver"]["dt"] = 1 / 128
        m["analysis"] = {"simulate": {"record_times": [0.125, 0.25], "snapshot": True}}
        entry = exp.run(m, tmp_path / "b").summary["analyses"]["simulate"]
        assert entry["files"] == ["field_stats.csv", "snapshot_t0.125.field", "snapshot_t0.25.field"]
        for t, name in zip((0.125, 0.25), entry["files"][1:]):
            header, data = exp.load_snapshot(tmp_path / "b" / name)
            assert data.tobytes() == sl.solve_batch(manifest_cfg(m), t, m["seed"], [0])[0].tobytes()
            assert [header[key] for key in ("t", "kappa", "sigma", "seed")] == [t, 1.0, "linear", 11]

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

    def test_two_dimensional_localized_bundles(self, tmp_path):
        m = base_manifest()
        m["model"] = {"kind": "gaussian_h", "d": 2, "width": 1.0, "amplitude": 1.0}
        m["grid"] = {"d": 2, "m": 32, "dx": 0.5}
        m["analysis"] = {
            "localize": {"betas": [2, 4], "k": 2},
            "independence": {"beta": 2, "points": [[0.0, 0.0], [8.0, 8.0]]},
        }
        mp = write_manifest(tmp_path, m)
        for verb in ("localize", "independence"):
            out = tmp_path / verb
            assert cli_main([verb, "--manifest", mp, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["complete"] is True and summary["failures"] == {}
            assert (out / f"{verb}.csv").is_file()

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
        # the sup over the largest ball alone, from an independent probe
        scen = an.Scenario(cfg=manifest_cfg(m), t_final=0.25)
        probe = an.boundedness_probe(scen, [1.0, 4.0], m["replicas"], seed=m["seed"])
        for line, lam in zip(lines[2:], lams):
            est = an.tail_estimate(probe.samples[:, -1], lam)
            assert 0 < est.exceedances < est.n
            assert [float(v) for v in line.split(",")] == [lam, est.p_hat, est.lo, est.hi, est.exceedances, est.n]

    def test_extremes_runs_the_probe_once(self, tmp_path, monkeypatch):
        m = base_manifest()
        radii = [2.0, 4.0, 8.0]
        m["analysis"] = {"extremes": {"radii": radii, "tail_lambdas": [4.0]}}
        probes = []

        def spy(*args, **kwargs):
            probes.append(probe_fn(*args, **kwargs))
            return probes[-1]

        probe_fn = an.boundedness_probe
        monkeypatch.setattr(an, "boundedness_probe", spy)
        summary = exp.run(m, tmp_path / "b").summary["analyses"]["extremes"]
        assert len(probes) == 1
        assert summary["files"] == ["sup_stats.csv", "tails.csv"]
        assert {"psi_hat", "psi_stderr", "r2", "verdict"} <= set(summary)
        lines = (tmp_path / "b" / "sup_stats.csv").read_text().splitlines()
        assert lines[1] == "radius,mean_sup,stderr,mean_log_sup,increment,increment_stderr"
        # the rungs and increments of a direct probe on the same streams
        direct = probe_fn(an.Scenario(cfg=manifest_cfg(m), t_final=0.25), radii, m["replicas"], seed=m["seed"])
        increments = [None] + direct.increments
        increment_stderrs = [None] + direct.increment_stderrs
        for i, line in enumerate(lines[2:]):
            row = [float(v) if v else None for v in line.split(",")]
            assert row == [direct.radii[i], direct.mean_sup[i], direct.stderr_sup[i], direct.mean_log_sup[i],
                           increments[i], increment_stderrs[i]]
        assert len(lines) == 2 + len(radii)

    @pytest.mark.parametrize("seed, level", [(4, 0.01), (0, 1.0)], ids=["4", "0"])
    def test_extremes_keeps_its_probe_without_a_fit(self, tmp_path, seed, level):
        # under PAM u is linear in u0's level, so at level 0.01 every rung's
        # mean log sup is below 0 whatever the draw, and the fit refuses; at
        # level 1 and seed 0 the two rungs fit exactly, with no stderr
        m = base_manifest()
        m.update(seed=seed, replicas=8)
        m["solver"]["dt"] = 1 / 128
        m["solver"]["u0"]["level"] = level
        m["analysis"] = {"extremes": {"radii": [2, 4], "tail_lambdas": [3.0]}}
        bundle = exp.run(m, tmp_path / "b")
        assert bundle.complete
        assert sorted(os.listdir(tmp_path / "b")) == ["manifest.json", "plots.gp", "summary.json", "sup_stats.csv",
                                                      "tails.csv"]
        summary = json.loads((tmp_path / "b" / "summary.json").read_text(), parse_constant=pytest.fail)
        entry = summary["analyses"]["extremes"]
        assert entry["psi_stderr"] is None and entry["verdict"] in ("saturating", "growing", "inconclusive")
        if level < 1:
            assert entry["psi_hat"] is None and entry["r2"] is None
            assert entry["psi_refused"] == "fewer than two positive mean-log-sup values"
        else:
            assert entry["psi_hat"] > 0 and entry["r2"] == 1.0 and "psi_refused" not in entry

    def test_estimator_csvs_pinned(self, tmp_path):
        # one manifest through the four replica estimators, two chunks on
        # two workers; digests of the CSVs as first written
        m = base_manifest()
        m.update(seed=5, replicas=300)
        m["solver"]["dt"] = 1 / 128
        m["analysis"] = {
            "extremes": {"radii": [2, 4, 8], "tail_lambdas": [3.0]},
            "moments": {"ks": [1, 2, 3, 4]},
            "localize": {"betas": [1.5, 2, 3], "k": 2},
            "independence": {"beta": 1.5, "points": [[0.0], [7.0]]},
        }
        assert exp.run(m, tmp_path / "b", threads=2).complete
        digests = {name: hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest() for name in ESTIMATOR_PINS}
        assert digests == ESTIMATOR_PINS

    def test_field_and_selftest_files_pinned(self, tmp_path):
        assert exp.run(FIELD_MANIFEST, tmp_path / "b").complete
        digests = {name: hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest() for name in FIELD_PINS}
        assert digests == FIELD_PINS

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
        m = base_manifest()
        m["analysis"]["noise_selftest"] = {"lags": [0, 1], "slices": 16}
        out = str(tmp_path / "gp")
        exp.run(m, out)
        text = open(os.path.join(out, "plots.gp")).read()
        assert "'moments.csv' using 1:3 " in text
        # x is lag_distance, column 2, as the axis label says
        assert "set xlabel 'lag_distance'" in text
        assert "'noise_selftest.csv' using 2:3 " in text and "'noise_selftest.csv' using 2:4 " in text

    def test_report_renders(self, tmp_path):
        out = str(tmp_path / "rep")
        exp.run(base_manifest(), out)
        text = exp.render_report(exp.read_bundle(out))
        assert "moments" in text
        assert exp.manifest_hash(base_manifest())[:8] in text
        # the environment the bits rest on, from summary.json
        env = json.loads(open(os.path.join(out, "summary.json")).read())["env"]
        assert set(env) == {"python", "numpy", "scipy", "platform", "cpu_count"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert f"numpy={np.__version__} " in text and text.splitlines()[3].endswith(" workers=1")


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
        assert "[FAILED moments]" in capsys.readouterr().out

    @pytest.mark.parametrize("level, code", [(1.0, 0), (1e308, 3)], ids=["complete", "partial"])
    def test_run_verb_prints_the_report(self, tmp_path, capsys, level, code):
        # what a run verb prints is what report prints for its bundle
        m = base_manifest()
        m["solver"]["u0"]["level"] = level
        m["replicas"] = 8
        out = str(tmp_path / "b")
        assert cli_main(["moments", "--manifest", write_manifest(tmp_path, m), "--out", out]) == code
        ran = capsys.readouterr()
        assert cli_main(["report", out]) == code
        assert ran.out == capsys.readouterr().out and ran.err == ""

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_exits_two(self, tmp_path, capsys, threads):
        mp = write_manifest(tmp_path, base_manifest())
        assert cli_main(["moments", "--manifest", mp, "--out", str(tmp_path / "b"), "--threads", threads]) == 2
        assert f"threads: threads = {threads} violates threads >= 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.json"]

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

    @pytest.mark.parametrize(
        "manifest, summary",
        [([], {}), ({}, []), ({}, {"analyses": []}), ({}, {"analyses": {"x": 3}}), ({}, {"failures": []}),
         ({}, {"failures": ["moments"]}), ({}, {"analyses": {"x": {"files": 3}}}),
         ({}, {"analyses": {"x": {"files": "ab"}}})],
        ids=["manifest-list", "summary-list", "analyses-list", "analysis-not-object", "failures-empty-list",
             "failures-list", "files-number", "files-string"],
    )
    def test_report_malformed_summary_exits_two(self, tmp_path, capsys, manifest, summary):
        # each summary that is an object carries the manifest's correct hash
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if isinstance(summary, dict):
            summary = {**summary, "manifest_hash": exp.manifest_hash(manifest)}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert cli_main(["report", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "malformed" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_minimal_dalang_and_oracle_manifests(self, tmp_path, capsys):
        # dalang needs only a model, the oracle a solver block but no grid
        minimal = {"version": 1, "seed": 3, "model": {"kind": "constant", "d": 1, "c": 0.3}}
        solver = {k: base_manifest()["solver"][k] for k in ("kappa", "dt", "t_final", "sigma")}
        for verb, extra in (("dalang", {"analysis": {"dalang": {}}}),
                            ("oracle", {"solver": solver, "analysis": {"oracle": ORACLE}})):
            mp = write_manifest(tmp_path, {**minimal, **extra}, name=f"{verb}.json")
            assert cli_main([verb, "--manifest", mp, "--out", str(tmp_path / verb)]) == 0
            assert (tmp_path / verb / f"{verb}.csv").is_file()
        out = capsys.readouterr().out
        assert "finite: True" in out and "log_means" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("{", "Expecting property name"),
            ("[]", "must be JSON objects"),
            ('{"version": 1, "analysis": 5}', "must be JSON objects"),
        ],
        ids=["missing", "malformed-json", "top-level-list", "analysis-not-object"],
    )
    def test_unreadable_manifest_exits_two(self, tmp_path, capsys, text, message):
        mp = tmp_path / "m.json"
        if text is not None:
            mp.write_text(text)
        assert cli_main(["dalang", "--manifest", str(mp), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ([] if text is None else ["m.json"])

    @pytest.mark.parametrize(
        "argv",
        [["boundedness", "--manifest", "m.json"], ["oracle", "--model", "m.json"],
         ["moments", "--manifest", "m.json", "--seed", "99"], ["moments", "--manifest", "m.json", "--replicas", "8"],
         ["moments", "--manifest", "m.json", "--emit-gnuplot"]],
        ids=["boundedness-verb", "oracle-model", "seed", "replicas", "emit-gnuplot"],
    )
    def test_removed_verb_and_options_do_not_parse(self, argv):
        with pytest.raises(SystemExit) as ei:
            cli.build_parser().parse_args(argv)
        assert ei.value.code == 2

    def test_every_run_verb_takes_the_three_run_flags(self):
        assert len(cli.VERBS) == 8
        sub = next(a for a in cli.build_parser()._actions if a.dest == "verb")
        for verb in cli.VERBS:
            options = {a.option_strings[-1]: a.required for a in sub.choices[verb]._actions if a.dest != "help"}
            assert options == {"--manifest": True, "--threads": False, "--out": False}

    def test_missing_manifest_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli_main(["simulate"])
        assert ei.value.code == 2
        assert "--manifest" in capsys.readouterr().err

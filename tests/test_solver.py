import ast
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import shelab as sl
import shelab.experiments as exp
from shelab.noise import white_batch, white_steps
from shelab.solver import (
    SolverError,
    _coupled_batch,
    _kernel_stack,
    _mild_sum_batch,
    _record_batch,
    _stepped_fields,
)


GRID = sl.LatticeGrid(d=1, m=128, dx=0.25)
GAUSS = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
DT = 1 / 64


def make_cfg(sigma, u0_level=1.0, u0_kind="constant", dt=DT, kappa=1.0, grid=GRID, model=GAUSS):
    return sl.SolverConfig(
        grid=grid,
        model=model,
        sigma=sigma,
        kappa=kappa,
        dt=dt,
        u0=sl.U0Spec(kind=u0_kind, level=u0_level),
    )


class TestSigmaFunction:
    def test_values(self):
        u = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(sl.SigmaFunction.constant(eps0=0.4)(u), 0.4)
        assert np.allclose(sl.SigmaFunction.bounded_both()(u), 1 + 0.5 * np.sin(u))
        assert np.allclose(sl.SigmaFunction.linear(c=2.0)(u), 2.0 * u)
        lz = sl.SigmaFunction.lipschitz_zero(c=3.0)
        assert lz(np.array([0.0]))[0] == 0.0
        assert np.abs(lz(np.linspace(-50, 50, 1001))).max() <= 1.5 + 1e-12

    def test_bounded_below_floor(self):
        s = sl.SigmaFunction.bounded_below()
        vals = s(np.linspace(-20, 20, 401))
        assert vals.min() >= 1.0

    def test_lipschitz_and_multiplicative_flags(self):
        assert sl.SigmaFunction.linear().is_multiplicative
        assert not sl.SigmaFunction.bounded_both().is_multiplicative

    def test_validation(self):
        with pytest.raises(SolverError):
            sl.SigmaFunction(kind="nope")
        with pytest.raises(SolverError):
            sl.SigmaFunction.constant(eps0=-1.0)
        with pytest.raises(SolverError):
            sl.SigmaFunction.linear(c=0.0)


class TestU0AndConfig:
    def test_render_constant(self):
        u = sl.U0Spec(kind="constant", level=2.5).render(GRID)
        assert u.shape == GRID.shape and np.all(u == 2.5)

    def test_render_gaussian_decay(self):
        u = sl.U0Spec(kind="gaussian_decay", level=2.0).render(GRID)
        assert u.max() == pytest.approx(2.0)
        assert u[GRID.m // 2] < 1e-8  # far edge of the torus

    def test_u0_validation(self):
        with pytest.raises(SolverError):
            sl.U0Spec(kind="constant", level=0.0)
        with pytest.raises(SolverError):
            sl.U0Spec(kind="mystery", level=1.0)

    def test_config_validation(self):
        sig = sl.SigmaFunction.constant(eps0=1.0)
        with pytest.raises(SolverError):
            make_cfg(sig, kappa=0.0)
        with pytest.raises(SolverError):
            make_cfg(sig, dt=0.0)
        with pytest.raises(SolverError):
            make_cfg(sig, model=sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0))


def step_loop(cfg, t, seed, stream_id):
    """Reference path: one exponential-Euler step at a time,
    u <- P_dt[u + sigma(u) * zeta_j], with zeta_j = irfftn(w_hat_j * H) the
    correlated slice of step j's white-noise transform w_hat_j."""
    src = sl.WhiteNoiseSource(seed=seed, stream_id=stream_id)
    H = sl.kernel_multiplier(cfg.model, GRID)
    what = np.empty((1, 1) + GRID.rfft_shape(), dtype=complex)
    u = cfg.u0.render(GRID)
    for j in range(round(t / cfg.dt)):
        white_batch([src], j, GRID, cfg.dt, what)
        zeta = np.fft.irfftn(what[0, 0] * H, s=GRID.shape, axes=(0,))
        spec = np.fft.rfftn(u + cfg.sigma(u) * zeta, axes=(0,))
        spec *= sl.propagator_multiplier(GRID, cfg.kappa, cfg.dt)
        u = np.fft.irfftn(spec, s=GRID.shape, axes=(0,))
    return u


SOLVE_SCRIPT = """
import hashlib, sys
import shelab as sl
cfg = sl.SolverConfig(grid=sl.LatticeGrid(d=1, m=128, dx=0.25),
                      model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
                      sigma=sl.SigmaFunction.linear(c=1.0), kappa=1.0, dt=1 / 64)
sys.stdout.write(hashlib.sha256(sl.solve_batch(cfg, 0.25, 9, range(3)).tobytes()).hexdigest())
"""


class TestSolveBatch:
    def test_batch_composition_invariance(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        solo = sl.solve_batch(cfg, 0.25, 41, [7])[0]
        batch = sl.solve_batch(cfg, 0.25, 41, [3, 7, 20])[1]
        assert np.array_equal(solo, batch)

    def test_coupled_constant_full_level_equals_step_loop(self):
        # a full level coupled to localized ones steps in real space whatever
        # its sigma; a lone full level draws once instead (TestExactAdditive)
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=0.7))
        full = next(_coupled_batch(cfg, [None, sl.LocalizationConfig(beta=2.0)], 0.25, 13, [2]))[0]
        assert np.array_equal(full, step_loop(cfg, 0.25, 13, 2))

    def test_general_path_equals_step_loop(self):
        cfg = make_cfg(sl.SigmaFunction.bounded_both())
        got = sl.solve_batch(cfg, 0.25, 13, [2])[0]
        assert np.array_equal(got, step_loop(cfg, 0.25, 13, 2))

    def test_time_step_validation(self):
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=1.0), dt=0.1)
        with pytest.raises(SolverError):
            sl.solve_batch(cfg, 0.35, 0, [0])  # not an integer multiple
        with pytest.raises(SolverError):
            sl.solve_batch(cfg, 0.5, 0, [0])  # dt > t/16

    @pytest.mark.parametrize("sigma", [sl.SigmaFunction.linear(c=1.0), sl.SigmaFunction.constant(eps0=0.5)],
                             ids=["linear", "constant"])
    @pytest.mark.parametrize("times", [[0.25, 0.125], [0.25, 0.25]], ids=["decreasing", "repeated"])
    def test_record_times_checked(self, sigma, times):
        # a record out of order is refused, not mislabelled, dropped or
        # reported as a blowup
        with pytest.raises(SolverError) as ei:
            next(_record_batch(make_cfg(sigma, dt=1 / 128), times, 0, [0]))
        assert str(ei.value) == f"record_times = {times} violates strictly increasing"

    def test_variance_matches_exact_discrete_formula(self):
        # oracle: spectral accumulation of the square of the per-step
        # propagator applied to independently injected noise, summed in
        # closed (geometric) form over steps
        eps0 = 0.9
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=eps0))
        t = 0.5
        n_steps = round(t / DT)
        H = np.asarray(sl.kernel_multiplier(GAUSS, GRID))
        xi2 = GRID.freq_sq_mesh()
        r = np.exp(-cfg.kappa * DT * xi2)
        geom = np.where(xi2 > 0, r * (1 - r**n_steps) / np.where(xi2 > 0, 1 - r, 1.0), n_steps)
        weights = np.full(H.shape, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        exact = eps0**2 * DT / GRID.period * float(np.sum(weights * H * H * geom))

        n_rep = 3000
        vals = sl.solve_batch(cfg, t, seed=11, streams=range(n_rep))
        var_emp = float(vals[:, 0].var(ddof=1))
        z = abs(var_emp - exact) / (exact * math.sqrt(2.0 / (n_rep - 1)))
        assert z < 4.0, (var_emp, exact, z)
        # and the mean is u0 exactly in expectation
        se_mean = vals[:, 0].std(ddof=1) / math.sqrt(n_rep)
        assert abs(vals[:, 0].mean() - 1.0) < 4 * se_mean

    def test_refinement_coupling_contracts(self):
        # against the finest coupled level, the strong error shrinks as dt
        # does; averaged over streams in L2 so the ordering is stable
        streams = list(range(16))
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        cfg_q = make_cfg(sl.SigmaFunction.linear(c=1.0), dt=DT / 4)
        cfg_s = make_cfg(sl.SigmaFunction.linear(c=1.0), dt=DT / 16)

        def coarse_noise(factor):
            # step j of a run at factor * cfg_s.dt is driven by the sum of the
            # finest run's steps j * factor .. (j + 1) * factor - 1
            fine = white_steps(9, streams, GRID, cfg_s.dt, 256)
            for _ in range(256 // factor):
                yield sum(next(fine) for _ in range(factor))

        a = next(_stepped_fields(cfg, streams, [16], coarse_noise(16)))
        b = next(_stepped_fields(cfg_q, streams, [64], coarse_noise(4)))
        c = sl.solve_batch(cfg_s, 0.25, 9, streams)
        e_coarse = float(np.sqrt(np.mean((a - c) ** 2)))
        e_mid = float(np.sqrt(np.mean((b - c) ** 2)))
        assert e_mid < e_coarse
        independent = sl.solve_batch(cfg, 0.25, 9, streams)
        assert e_coarse < float(np.sqrt(np.mean((independent - c) ** 2)))

    @pytest.mark.parametrize(
        "sigma, digest",
        [
            (sl.SigmaFunction.constant(eps0=0.5), "b18b5cf51d356b970ef41fb6ee0b0ff277d061b6be91a08c9599a356f4d64f37"),
            (sl.SigmaFunction.linear(c=1.0), "0700d63366b55544da221abe26026f809eda26cea311ef2c9a0901d3054ecb62"),
        ],
        ids=["constant", "linear"],
    )
    def test_default_bits_pinned(self, sigma, digest):
        # Exact bytes of the one-draw (constant sigma) and the real-space
        # (linear sigma) path; a change to any seeded number shows here
        vals = sl.solve_batch(make_cfg(sigma), 0.25, 9, range(3))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

    def test_blowup_reported_with_streams(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), u0_level=1e308)
        with pytest.raises(sl.SolverBlowup) as exc:
            sl.solve_batch(cfg, 0.5, seed=2, streams=[0, 1])
        assert exc.value.t <= 0.5

    def test_spectral_blowup_reported_at_final_time(self):
        # stream 1 overflows only in the final transform: the one-draw path
        # checks the field it returns, and overflow shows as the blowup only
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=2e306), grid=sl.LatticeGrid(d=1, m=64, dx=0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sl.SolverBlowup) as exc:
                sl.solve_batch(cfg, 0.25, seed=2, streams=range(8))
        assert (exc.value.t, exc.value.streams) == (0.25, [1])
        assert math.isfinite(exc.value.max_abs)

    def test_blowup_pickles(self):
        err = sl.SolverBlowup(0.125, 3.5e307, [4, 7])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is sl.SolverBlowup
        assert (back.t, back.max_abs, back.streams) == (0.125, 3.5e307, [4, 7])
        assert str(back) == str(err)

    def test_bytes_repeat_within_and_across_processes(self):
        # no generator state outlives a call and nothing depends on the
        # process: a repeated call, and one in a process with another hash
        # seed, give the same bytes
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        first = sl.solve_batch(cfg, 0.25, 9, range(3)).tobytes()
        assert sl.solve_batch(cfg, 0.25, 9, range(3)).tobytes() == first
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(Path(sl.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", SOLVE_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == hashlib.sha256(first).hexdigest()

    @pytest.mark.parametrize("block", [1, 7])
    def test_bytes_independent_of_draw_block(self, monkeypatch, block):
        # a step's bits do not depend on how many steps one generator call
        # draws; 7 does not divide the 16 steps, so the last block is shorter
        runs = [
            lambda: sl.solve_batch(make_cfg(sl.SigmaFunction.constant(eps0=0.5)), 0.25, 9, range(3)),
            lambda: sl.solve_batch(make_cfg(sl.SigmaFunction.linear(c=1.0)), 0.25, 9, range(3)),
            lambda: sl.localized_solve_batch(make_cfg(sl.SigmaFunction.linear(c=1.0)), ENGINE_LOC, 0.25, 9, range(3)),
        ]
        want = [run().tobytes() for run in runs]
        monkeypatch.setattr(sl.noise, "BLOCK", block)
        assert [run().tobytes() for run in runs] == want

    def test_noise_steps_come_in_order(self):
        # 10 steps are two blocks of BLOCK = 4 and one of 2: white_steps
        # yields each step once, in order, with the bits of fresh streams
        # drawn one step at a time
        streams = [4, 9]
        got = [step.copy() for step in white_steps(9, streams, GRID, DT, 10)]
        assert len(got) == 10
        sources = [sl.WhiteNoiseSource(seed=9, stream_id=s) for s in streams]
        want = np.empty((len(streams), 1) + GRID.rfft_shape(), dtype=complex)
        for j, step in enumerate(got):
            white_batch(sources, j, GRID, DT, want)
            assert step.tobytes() == want[:, 0].tobytes()

    def test_draws_stop_at_the_last_step(self, monkeypatch):
        # 17 steps are four blocks of BLOCK = 4 and one of 1: each stepped
        # path draws every step of every stream once and nothing past the
        # last; constant sigma draws step 0 of each stream, and nothing more
        calls = []

        def counted(sources, step, grid, dt, out):
            calls.extend((src.stream_id, step + lag) for src in sources for lag in range(out.shape[1]))
            return white_batch(sources, step, grid, dt, out)

        monkeypatch.setattr(sl.noise, "white_batch", counted)
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        sl.solve_batch(make_cfg(sl.SigmaFunction.constant(eps0=0.5)), 17 * DT, 9, [2, 5])
        assert calls == [(2, 0), (5, 0)]
        for run in (lambda: sl.solve_batch(cfg, 17 * DT, 9, [2, 5]),
                    lambda: sl.localized_solve_batch(cfg, ENGINE_LOC, 17 * DT, 9, [2, 5])):
            calls.clear()
            run()
            assert sorted(calls) == [(s, j) for s in (2, 5) for j in range(17)]

    def test_solver_holds_no_draw_policy(self):
        # noise.white_steps alone reads the stream: the solver names none
        # of the parts it is built from, so the draw policy cannot drift back
        tree = ast.parse(Path(sl.solver.__file__).read_text())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        assert named & {"white_batch", "WhiteNoiseSource", "BLOCK"} == set()

    def test_clamp_statistics_collected(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=6.0))
        stats = {}
        streams = range(8)
        next(_stepped_fields(cfg, streams, [16], white_steps(3, streams, GRID, DT, 16), stats))  # t = 0.25
        assert stats.get("clamped", 0) > 0
        assert stats.get("worst_negative", 0.0) <= 0.0


def exact_additive_cov(cfg, n, lag):
    """Covariance of two sites lag cells apart along the last axis after n
    constant-sigma steps: eps0^2 dt / L^d sum_k w_k H_k^2 G_k cos(xi_k lag dx)
    over the rfft modes, with G = sum_{i=1..n} P^(2i) summed term by term and
    w_k = 2 off the planes k_last = 0 and m/2, which the rfft holds whole."""
    grid = cfg.grid
    H = np.asarray(sl.kernel_multiplier(cfg.model, grid))
    P2 = np.exp(-cfg.kappa * cfg.dt * grid.freq_sq_mesh())
    G = sum(P2**i for i in range(1, n + 1))
    w = np.full(H.shape, 2.0)
    w[..., [0, -1]] = 1.0
    xi_last = 2.0 * math.pi * np.fft.rfftfreq(grid.m, d=grid.dx)
    cos = np.cos(xi_last * lag * grid.dx)
    return cfg.sigma.eps0**2 * cfg.dt / grid.period**grid.d * float(np.sum(w * H * H * G * cos))


class TestExactAdditive:
    @pytest.mark.parametrize("d, m", [(1, 64), (2, 16), (3, 8)])
    def test_one_draw_matches_exact_covariance(self, d, m):
        # the site variance and the lag-1 and lag-2 covariances, each the
        # site mean of one replica's (u(x) - 1)(u(x + lag) - 1) averaged over
        # replicas, against the step loop's exact law
        grid = sl.LatticeGrid(d=d, m=m, dx=0.25)
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=0.9), grid=grid,
                       model=sl.CorrelationModel.gaussian_h(d=d, width=0.5, amplitude=1.0))
        R = 8000  # a stderr of 0.5%: a G off by one step is 2-5% off
        u = sl.solve_batch(cfg, 0.25, 3, range(R)) - 1.0
        for lag in (0, 1, 2):
            per_rep = (u * np.roll(u, lag, axis=-1)).reshape(R, -1).mean(axis=1)
            want = exact_additive_cov(cfg, 16, lag)
            z = abs(per_rep.mean() - want) / (per_rep.std(ddof=1) / math.sqrt(R))
            assert z < 4.0, (lag, per_rep.mean(), want, z)

    def test_simulate_increment_independent_of_earlier_field(self, tmp_path):
        # after a record at n1 steps, the field at n2 is P^(n2 - n1) times it
        # plus a fresh Gaussian: the phases of that increment, mode by mode,
        # are uncorrelated with those of the earlier field.  A solve per time
        # would scale one drawn step at both, and read exactly 1
        manifest = {
            "version": 1, "seed": 4, "replicas": 1,
            "model": {"kind": "gaussian_h", "d": 1, "width": 0.25, "amplitude": 1.0},
            "grid": {"d": 1, "m": 256, "dx": 0.25},
            "solver": {"kappa": 1.0, "dt": 1 / 256, "t_final": 0.5, "sigma": {"kind": "constant", "eps0": 1.0}},
            "analysis": {"simulate": {"record_times": [0.25, 0.5], "snapshot": True}},
        }
        assert exp.run(manifest, tmp_path / "b").complete
        recorded = [exp.load_snapshot(str(tmp_path / "b" / f"snapshot_t{t}.field"))[1] for t in ("0.25", "0.5")]
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=1.0), dt=1 / 256, grid=sl.LatticeGrid(d=1, m=256, dx=0.25),
                       model=sl.CorrelationModel.gaussian_h(d=1, width=0.25, amplitude=1.0))
        P = sl.propagator_multiplier(cfg.grid, cfg.kappa, 0.25)

        def phase_corr(u1, u2):
            # modes 1 .. m/2 - 1; the zero and Nyquist modes are real
            h1, h2 = np.fft.rfft(u1)[1:-1], np.fft.rfft(u2)[1:-1]
            inc = h2 - P[1:-1] * h1
            return float(np.real(np.vdot(h1 / np.abs(h1), inc / np.abs(inc)))) / len(h1)

        F = cfg.grid.m // 2 - 1
        assert abs(phase_corr(*recorded)) < 4.0 / math.sqrt(F)
        redrawn = [sl.solve_batch(cfg, t, 4, [0])[0] for t in (0.25, 0.5)]
        assert phase_corr(*redrawn) == pytest.approx(1.0, abs=1e-9)


class TestThreadedFarm:
    # replica_map runs fixed 256-replica chunks; with 300 replicas two chunks
    # run at once in two worker processes, each solver call drawing from its
    # own sources
    def assert_thread_invariant(self, fn):
        one = sl.replica_map(fn, 300, threads=1)
        two = sl.replica_map(fn, 300, threads=2)
        assert one.shape == (300,) + GRID.shape
        assert one.tobytes() == two.tobytes()

    def test_spectral_path(self):
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=1.0))
        self.assert_thread_invariant(lambda streams: sl.solve_batch(cfg, 0.25, 17, streams))

    def test_general_path(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        self.assert_thread_invariant(lambda streams: sl.solve_batch(cfg, 0.25, 17, streams))

    def test_localized(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        loc = sl.LocalizationConfig(beta=4.0)
        self.assert_thread_invariant(lambda streams: sl.localized_solve_batch(cfg, loc, 0.25, 17, streams))


def picard(cfg, t, iterations, seed, stream_id, beta=None):
    """Picard iterate of the mild equation: with beta None the plain one (full
    kernel, no window), else the localized one at any depth."""
    streams, n = [stream_id], round(t / cfg.dt)
    return _mild_sum_batch(cfg, streams, n, white_steps(seed, streams, cfg.grid, cfg.dt, n), iterations, beta)[0]


class TestPicardAndLocalized:
    def test_picard_converges_to_direct_solution(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        pic = picard(cfg, 0.25, 14, seed=5, stream_id=3)
        direct = sl.solve_batch(cfg, 0.25, 5, [3])[0]
        assert np.abs(pic - direct).max() < 1e-8

    def test_picard_converges_in_two_dimensions(self):
        grid = sl.LatticeGrid(d=2, m=16, dx=0.25)
        model = sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0)
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=grid, model=model)
        pic = picard(cfg, 0.25, 14, seed=5, stream_id=3)
        direct = sl.solve_batch(cfg, 0.25, 5, [3])[0]
        assert np.abs(pic - direct).max() < 1e-8

    def test_window_violation_message(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        loc = sl.LocalizationConfig(beta=12.0)  # window 12 * sqrt(4) = 24 > L/4 = 8
        with pytest.raises(SolverError, match="exceeds period/4"):
            sl.localized_solve_batch(cfg, loc, 4.0, 0, [0])

    def test_localized_blowup_report(self):
        # every site overflows, so no finite |u| is left to report, and the
        # overflow shows as the blowup only, not as numpy warnings
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), u0_level=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sl.SolverBlowup) as exc:
                sl.localized_solve_batch(cfg, sl.LocalizationConfig(beta=4.0), 0.25, 2, [0, 1])
        assert (exc.value.t, exc.value.max_abs, exc.value.streams) == (0.25, math.inf, [0, 1])
        assert "before failure inf" in str(exc.value)

    def test_depth_default_grows_with_beta(self):
        assert sl.LocalizationConfig(beta=2.0).depth() == 1
        assert sl.LocalizationConfig(beta=3.0).depth() == 2
        assert sl.LocalizationConfig(beta=8.0).depth() == 3
        assert sl.LocalizationConfig(beta=1.0).depth() == 1  # beta >= 1 gives depth >= 1
        with pytest.raises(SolverError):
            sl.LocalizationConfig(beta=0.5)

    def test_deeper_iteration_improves_on_truncation(self):
        # against a deep unwindowed reference, more picard depth at fixed
        # window shrinks the coupled error; beta = 15.9 alone gives depth 3
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        ref = picard(cfg, 0.25, 14, seed=8, stream_id=0)
        errs = []
        for depth in (1, 2, 4):
            got = picard(cfg, 0.25, depth, seed=8, stream_id=0, beta=15.9)
            errs.append(float(np.sqrt(np.mean((got - ref) ** 2))))
        assert errs[2] < errs[0]


# 128 steps at depth 2, so each Picard pass contracts 127 x 127 kernel rows:
# large enough for OpenBLAS to split a matrix-vector product across threads
ENGINE_GRID = sl.LatticeGrid(d=1, m=32, dx=0.5)
ENGINE_LOC = sl.LocalizationConfig(beta=4.0)
ENGINE_SCRIPT = """
import hashlib, sys
import shelab as sl
grid = sl.LatticeGrid(d=1, m=32, dx=0.5)
cfg = sl.SolverConfig(grid=grid, model=sl.CorrelationModel.gaussian_h(d=1, width=1.0),
                      sigma=sl.SigmaFunction.linear(c=1.0), kappa=1.0, dt=1 / 256)
vals = sl.localized_solve_batch(cfg, sl.LocalizationConfig(beta=4.0), 0.5, 11, range(32))
sys.stdout.write(hashlib.sha256(vals.tobytes()).hexdigest())
"""


class TestLocalizedEngine:
    def test_bits_pinned(self):
        # exact bytes of the localized engine at beta = 4 (depth 2); a change
        # to any seeded number shows here
        vals = sl.localized_solve_batch(make_cfg(sl.SigmaFunction.linear(c=1.0)), ENGINE_LOC, 0.25, 9, range(3))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == (
            "9b1f0df9890703f6c9f4390c2cb1ad2550c24c0dedde25d094422941a79d61a2"
        )

    def test_batch_composition_invariance(self):
        # the last R of 17 streams, R = 1, 7, 8, 9, and of 40 streams, R = 1,
        # 17, 33: every stream moves to another slot, or another group, of
        # the contraction's replica groups than it has in the full batch,
        # and the last one sits alone, in part-filled and in full groups,
        # up to three groups a batch; at depth 2, and at depth 1, where only
        # the final row is contracted
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=ENGINE_GRID, dt=1 / 256)
        for loc in (ENGINE_LOC, sl.LocalizationConfig(beta=2.0)):
            for total, sizes in ((17, (1, 7, 8, 9)), (40, (1, 17, 33))):
                full = sl.localized_solve_batch(cfg, loc, 0.5, 11, range(total))
                for R in sizes:
                    part = sl.localized_solve_batch(cfg, loc, 0.5, 11, range(total - R, total))
                    assert part.tobytes() == full[total - R :].tobytes()

    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    def test_matches_per_replica_einsum(self, beta):
        # one replica at a time, the same kernel stack contracted by einsum;
        # 19 replicas fill one group and part of the next, so a replica read
        # from the wrong slot, or a transposed group, is off at order one
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        streams = range(19)
        n, depth = round(0.25 / DT), sl.LocalizationConfig(beta=beta).depth()
        got = _mild_sum_batch(cfg, streams, n, white_steps(4, streams, GRID, DT, n), depth, beta)
        K = _kernel_stack(cfg, n, beta, range(1, n + 1))
        H = sl.kernel_multiplier(cfg.model, GRID, beta)
        zeta = np.array([np.fft.irfft(what * H, n=GRID.m) for what in white_steps(4, streams, GRID, DT, n)])
        u0 = cfg.u0.render(GRID)
        det = [np.fft.irfft(np.fft.rfft(u0) * sl.propagator_multiplier(GRID, cfg.kappa, i * DT), n=GRID.m)
               for i in range(n + 1)]
        for r in streams:
            u = np.array([u0] * n)  # the iterate at times 0 .. n - 1
            for _ in range(depth):
                stoch = np.einsum("fij,jf->if", K, np.fft.rfft(cfg.sigma(u) * zeta[:, r]))
                u = np.array([u0] + [det[i] + np.fft.irfft(stoch[i - 1], n=GRID.m) for i in range(1, n)])
            want = det[n] + np.fft.irfft(stoch[n - 1], n=GRID.m)
            assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max()

    def test_bytes_independent_of_blas_threads(self):
        src = str(Path(sl.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", ENGINE_SCRIPT], env=env, capture_output=True, text=True, check=True
            )
            digests.add(done.stdout)
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=ENGINE_GRID, dt=1 / 256)
        here = sl.localized_solve_batch(cfg, ENGINE_LOC, 0.5, 11, range(32))
        assert digests == {hashlib.sha256(here.tobytes()).hexdigest()}

    def test_peak_memory_of_one_chunk(self):
        # the budget holds the noise, one n * R * sites array, one replica
        # group's iterate and products, and the kernel stack; 33 replicas
        # fill two groups and one slot of a third, and pay for that slot,
        # not for a whole third group
        grid = sl.LatticeGrid(d=1, m=512, dx=0.25)
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=grid, dt=1 / 128)
        n_steps = 32
        for replicas in (32, 33):
            tracemalloc.start()
            try:
                sl.localized_solve_batch(cfg, sl.LocalizationConfig(beta=8.0), 0.25, 1, range(replicas))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5.0 * n_steps * replicas * grid.n_sites * 8, replicas

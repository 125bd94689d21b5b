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
from shelab.solver import SolverError, _mild_sum_batch, _solve_batch, _white_hat


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
    u <- P_dt[u + sigma(u) * zeta_j], with zeta_j the correlated white slice j."""
    src = sl.WhiteNoiseSource(seed=seed, stream_id=stream_id)
    u = cfg.u0.render(GRID)
    for j in range(round(t / cfg.dt)):
        zeta = sl.correlate_array(src.white_at(j, GRID, cfg.dt), cfg.model, GRID)
        spec = np.fft.rfftn(u + cfg.sigma(u) * zeta, axes=(0,))
        spec *= sl.propagator_multiplier(GRID, cfg.kappa, cfg.dt)
        u = np.fft.irfftn(spec, s=GRID.shape, axes=(0,))
    return u


class TestSolveBatch:
    def test_batch_composition_invariance(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        solo = sl.solve_batch(cfg, 0.25, 41, [7])[0]
        batch = sl.solve_batch(cfg, 0.25, 41, [3, 7, 20])[1]
        assert np.array_equal(solo, batch)

    def test_fast_path_equals_step_loop(self):
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=0.7))
        fast = sl.solve_batch(cfg, 0.25, 13, [2])[0]
        assert np.allclose(fast, step_loop(cfg, 0.25, 13, 2), atol=1e-12)

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
            fine = _white_hat(cfg_s, 9, streams)

            def draw(j):
                total = fine(j * factor).copy()  # the next draw reuses the buffer
                for r in range(1, factor):
                    total += fine(j * factor + r)
                return total

            return draw

        a = _solve_batch(cfg, 16, streams, coarse_noise(16))
        b = _solve_batch(cfg_q, 64, streams, coarse_noise(4))
        c = sl.solve_batch(cfg_s, 0.25, 9, streams)
        e_coarse = float(np.sqrt(np.mean((a - c) ** 2)))
        e_mid = float(np.sqrt(np.mean((b - c) ** 2)))
        assert e_mid < e_coarse
        independent = sl.solve_batch(cfg, 0.25, 9, streams)
        assert e_coarse < float(np.sqrt(np.mean((independent - c) ** 2)))

    @pytest.mark.parametrize(
        "sigma, digest",
        [
            (sl.SigmaFunction.constant(eps0=0.5), "1f05f9cd7efb3a1aa5a692b71498301b1347a297e2d121a3a15e29dbdf3cbff4"),
            (sl.SigmaFunction.linear(c=1.0), "39a1a0b9deb55d9e36be5ff34f102107d5dcf012ccf88cff445900226479f935"),
        ],
        ids=["constant", "linear"],
    )
    def test_default_bits_pinned(self, sigma, digest):
        # Exact bytes of the spectral (constant sigma) and the real-space
        # (linear sigma) path; a change to any seeded number shows here
        vals = sl.solve_batch(make_cfg(sigma), 0.25, 9, range(3))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

    def test_blowup_reported_with_streams(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), u0_level=1e308)
        with pytest.raises(sl.SolverBlowup) as exc:
            sl.solve_batch(cfg, 0.5, seed=2, streams=[0, 1])
        assert exc.value.t <= 0.5

    def test_spectral_blowup_reported_at_final_time(self):
        # one stream overflows only in the final transform: the spectral path
        # checks the field it returns, and overflow shows as the blowup only
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=2e306), grid=sl.LatticeGrid(d=1, m=64, dx=0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sl.SolverBlowup) as exc:
                sl.solve_batch(cfg, 0.25, seed=2, streams=range(8))
        assert (exc.value.t, exc.value.streams) == (0.25, [3])
        assert math.isfinite(exc.value.max_abs)

    def test_blowup_pickles(self):
        err = sl.SolverBlowup(0.125, 3.5e307, [4, 7])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is sl.SolverBlowup
        assert (back.t, back.max_abs, back.streams) == (0.125, 3.5e307, [4, 7])
        assert str(back) == str(err)

    def test_clamp_statistics_collected(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=6.0))
        stats = {}
        sl.solve_batch(cfg, 0.25, seed=3, streams=range(8), collect_stats=stats)
        assert stats.get("clamped", 0) > 0
        assert stats.get("worst_negative", 0.0) <= 0.0


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
    streams = [stream_id]
    return _mild_sum_batch(cfg, t, streams, iterations, beta, _white_hat(cfg, seed, streams))[0]


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
            "8eed9d0ac989577db6d93563e7a33f0f832db84799b8de8b0395f2c072eb830f"
        )

    def test_batch_composition_invariance(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=ENGINE_GRID, dt=1 / 256)
        solo = sl.localized_solve_batch(cfg, ENGINE_LOC, 0.5, 11, [5])[0]
        window = sl.localized_solve_batch(cfg, ENGINE_LOC, 0.5, 11, range(3, 10))[2]
        full = sl.localized_solve_batch(cfg, ENGINE_LOC, 0.5, 11, range(32))[5]
        assert solo.tobytes() == window.tobytes() == full.tobytes()

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
        # the floor is the noise, the iterate and its products held at once,
        # about one n * R * sites array each, plus the kernel stack
        grid = sl.LatticeGrid(d=1, m=512, dx=0.25)
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), grid=grid, dt=1 / 128)
        n_steps, replicas = 32, 32
        tracemalloc.start()
        try:
            sl.localized_solve_batch(cfg, sl.LocalizationConfig(beta=8.0), 0.25, 1, range(replicas))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * n_steps * replicas * grid.n_sites * 8

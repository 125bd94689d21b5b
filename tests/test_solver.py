import math

import numpy as np
import pytest

import shelab as sl
from shelab.solver import SolverError


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
        assert sl.SigmaFunction.constant(eps0=1.0).lipschitz == 0.0
        assert sl.SigmaFunction.linear(c=1.7).lipschitz == 1.7
        assert sl.SigmaFunction.linear().is_multiplicative
        assert not sl.SigmaFunction.bounded_both().is_multiplicative

    def test_validation(self):
        with pytest.raises(SolverError):
            sl.SigmaFunction(kind="nope")
        with pytest.raises(SolverError):
            sl.SigmaFunction.constant(eps0=-1.0)
        with pytest.raises(SolverError):
            sl.SigmaFunction.linear(c=0.0)

    def test_dict_round_trip(self):
        for s in (
            sl.SigmaFunction.constant(eps0=0.3),
            sl.SigmaFunction.bounded_both(),
            sl.SigmaFunction.linear(c=2.0),
        ):
            assert sl.SigmaFunction.from_dict(s.to_dict()) == s


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
        a = sl.solve_batch(cfg, 0.25, 9, streams, refine=16)
        b = sl.solve_batch(cfg_q, 0.25, 9, streams, refine=4)
        c = sl.solve_batch(cfg_s, 0.25, 9, streams, refine=1)
        e_coarse = float(np.sqrt(np.mean((a - c) ** 2)))
        e_mid = float(np.sqrt(np.mean((b - c) ** 2)))
        assert e_mid < e_coarse
        independent = sl.solve_batch(cfg, 0.25, 9, streams, refine=1)
        assert e_coarse < float(np.sqrt(np.mean((independent - c) ** 2)))

    def test_blowup_reported_with_streams(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), u0_level=1e308)
        with pytest.raises(sl.SolverBlowup) as exc:
            sl.solve_batch(cfg, 0.5, seed=2, streams=[0, 1])
        assert exc.value.t <= 0.5

    def test_clamp_statistics_collected(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=6.0))
        stats = {}
        sl.solve_batch(cfg, 0.25, seed=3, streams=range(8), collect_stats=stats)
        assert stats.get("clamped", 0) > 0
        assert stats.get("worst_negative", 0.0) <= 0.0

    def test_solve_wrapper_provenance(self):
        cfg = make_cfg(sl.SigmaFunction.constant(eps0=1.0))
        src = sl.WhiteNoiseSource(seed=21, stream_id=4)
        fld = sl.solve(cfg, 0.25, src)
        assert fld.t == 0.25
        assert fld.provenance["seed"] == 21
        batch = sl.solve_batch(cfg, 0.25, 21, [4])[0]
        assert np.array_equal(fld.values, batch)


class TestPicardAndLocalized:
    def test_picard_converges_to_direct_solution(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        src = sl.WhiteNoiseSource(seed=5, stream_id=3)
        pic = sl.picard_solve(cfg, 0.25, 14, src)
        direct = sl.solve_batch(cfg, 0.25, 5, [3])[0]
        assert np.abs(pic.values - direct).max() < 1e-8
        dists = pic.provenance["picard_distances"]
        assert dists[-1] < dists[2] * 1e-4

    def test_localized_depth_zero_is_heat_flow(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0), u0_kind="gaussian_decay", u0_level=2.0)
        loc = sl.LocalizationConfig(beta=4.0, n_picard=0)
        got = sl.localized_solve_batch(cfg, loc, 0.25, 5, [0])[0]
        heat = np.fft.irfft(
            np.fft.rfft(cfg.u0.render(GRID)) * sl.propagator_multiplier(GRID, 1.0, 0.25), n=GRID.m
        )
        assert np.allclose(got, heat, atol=1e-14)

    def test_window_violation_message(self):
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        loc = sl.LocalizationConfig(beta=12.0)  # window 12 * sqrt(4) = 24 > L/4 = 8
        with pytest.raises(SolverError, match="exceeds period/4"):
            sl.localized_solve_batch(cfg, loc, 4.0, 0, [0])

    def test_depth_default_grows_with_beta(self):
        assert sl.LocalizationConfig(beta=2.0).depth() == 1
        assert sl.LocalizationConfig(beta=8.0).depth() == 3
        assert sl.LocalizationConfig(beta=8.0, n_picard=5).depth() == 5
        with pytest.raises(SolverError):
            sl.LocalizationConfig(beta=0.5)

    def test_deeper_iteration_improves_on_truncation(self):
        # against a deep unwindowed reference, more picard depth at fixed
        # window shrinks the coupled error
        cfg = make_cfg(sl.SigmaFunction.linear(c=1.0))
        ref = sl.picard_solve(cfg, 0.25, 14, sl.WhiteNoiseSource(seed=8, stream_id=0)).values
        errs = []
        for npic in (1, 2, 4):
            loc = sl.LocalizationConfig(beta=15.9, n_picard=npic)
            got = sl.localized_solve_batch(cfg, loc, 0.25, 8, [0])[0]
            errs.append(float(np.sqrt(np.mean((got - ref) ** 2))))
        assert errs[2] < errs[0]

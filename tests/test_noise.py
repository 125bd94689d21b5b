import math

import numpy as np
import pytest

import shelab as sl
from shelab.noise import NoiseError


GRID = sl.LatticeGrid(d=1, m=128, dx=0.25)
GAUSS = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
RIESZ = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0)
DT = 1 / 64


class TestWhiteSource:
    def test_scaling_matches_cell_volume(self):
        # each site is N(0, dt / dx^d)
        src = sl.WhiteNoiseSource(seed=1, stream_id=0)
        w = np.stack([src.white_at(j, GRID, DT) for j in range(3000)])
        assert w.mean() == pytest.approx(0.0, abs=3e-3)
        assert w.var() == pytest.approx(DT / GRID.dx, rel=0.02)

    def test_same_coordinates_reproduce(self):
        a = sl.WhiteNoiseSource(seed=3, stream_id=5).white_at(17, GRID, DT)
        b = sl.WhiteNoiseSource(seed=3, stream_id=5).white_at(17, GRID, DT)
        assert np.array_equal(a, b)

    def test_draw_order_is_irrelevant(self):
        src = sl.WhiteNoiseSource(seed=3, stream_id=5)
        late_first = src.white_at(9, GRID, DT)
        early = src.white_at(2, GRID, DT)
        fresh = sl.WhiteNoiseSource(seed=3, stream_id=5)
        assert np.array_equal(fresh.white_at(2, GRID, DT), early)
        assert np.array_equal(fresh.white_at(9, GRID, DT), late_first)

    def test_streams_and_steps_decorrelated(self):
        n = 4000
        a = sl.WhiteNoiseSource(seed=7, stream_id=0)
        b = sl.WhiteNoiseSource(seed=7, stream_id=1)
        x = np.stack([a.white_at(j, GRID, DT)[0] for j in range(n)])
        y = np.stack([b.white_at(j, GRID, DT)[0] for j in range(n)])
        assert abs(np.corrcoef(x, y)[0, 1]) < 4 / math.sqrt(n)
        z = np.stack([a.white_at(j + 1, GRID, DT)[0] for j in range(n)])
        assert abs(np.corrcoef(x, z)[0, 1]) < 4 / math.sqrt(n)


class TestKernelMultiplier:
    def test_effective_covariance_is_periodized_f(self):
        # Poisson summation oracle: the lattice covariance equals the image
        # sum of the continuum closed-form f over torus translates
        f_eff = sl.effective_covariance(GAUSS, GRID)
        L = GRID.period
        f0 = GAUSS.f_at_zero()
        xs = GRID.axis_coords()
        images = np.zeros_like(xs)
        for k in range(-6, 7):
            images += f0 * np.exp(-((xs + k * L) ** 2) / 4.0)
        assert np.allclose(f_eff, images, atol=1e-13)

    def test_multiplier_is_hhat_on_grid(self):
        mult = sl.kernel_multiplier(GAUSS, GRID)
        xi = 2 * math.pi * np.fft.rfftfreq(GRID.m, d=GRID.dx)
        assert np.allclose(mult, sl.kernel_h_hat_radial(GAUSS, xi), atol=1e-14)

    def test_riesz_zero_mode_patch(self):
        mult = sl.kernel_multiplier(RIESZ, GRID)
        patched = sl.kernel_h_hat_radial(RIESZ, np.array([2 * math.pi / GRID.period]))[0]
        assert mult.flat[0] == pytest.approx(patched, rel=1e-14)
        assert np.all(np.isfinite(mult))

    def test_multiplier_read_only(self):
        mult = sl.kernel_multiplier(GAUSS, GRID)
        with pytest.raises(ValueError):
            mult[0] = 0.0

    def test_constant_model_refused(self):
        c = sl.CorrelationModel.constant(d=1, c=0.3)
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(c, GRID)

    def test_dimension_mismatch_refused(self):
        m2 = sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0)
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(m2, GRID)


class TestCutoff:
    def test_support_is_exact(self):
        # the tapered kernel vanishes off |x| <= n, hence covariance vanishes
        # for separations beyond 2n: exact lattice independence
        n = 4.0
        h = sl.gridded_kernel_h(GAUSS, GRID, sl.CutoffConfig(n=n))
        xs = GRID.axis_coords()
        assert np.abs(h[np.abs(xs) > n + 1e-9]).max() < 1e-15
        f_eff = sl.effective_covariance(GAUSS, GRID, sl.CutoffConfig(n=n))
        torus = np.minimum(np.abs(xs), GRID.period - np.abs(xs))
        far = np.abs(f_eff[torus > 2 * n + 1e-9])
        assert far.max() < 1e-15

    def test_taper_ratio_inside_support(self):
        n = 4.0
        h_full = sl.gridded_kernel_h(GAUSS, GRID)
        h_cut = sl.gridded_kernel_h(GAUSS, GRID, sl.CutoffConfig(n=n))
        xs = GRID.axis_coords()
        i = int(np.argmin(np.abs(xs - 1.0)))
        assert h_cut[i] / h_full[i] == pytest.approx(1 - 1.0 / n, rel=1e-10)

    def test_level_ladder_telescopes(self):
        # H_{n2} - H_{n1} summed along a ladder collapses to the endpoints
        levels = [2.0, 4.0, 8.0, 16.0]
        mults = [sl.kernel_multiplier(GAUSS, GRID, sl.CutoffConfig(n=n)) for n in levels]
        tele = mults[0] + sum(b - a for a, b in zip(mults, mults[1:]))
        assert np.allclose(tele, mults[-1], atol=1e-15)

    def test_float_level_equals_config(self):
        a = sl.kernel_multiplier(GAUSS, GRID, 4.0)
        b = sl.kernel_multiplier(GAUSS, GRID, sl.CutoffConfig(n=4.0))
        assert np.array_equal(a, b)

    def test_level_bounds(self):
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(GAUSS, GRID, sl.CutoffConfig(n=17.0))  # beyond L/2
        tiny = sl.LatticeGrid(d=1, m=8, dx=2.0)
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(GAUSS, tiny, sl.CutoffConfig(n=1.0))  # below one cell


class TestCorrelatedSlices:
    def test_batch_matches_loop(self):
        src = sl.WhiteNoiseSource(seed=5, stream_id=0)
        w = np.stack([src.white_at(j, GRID, DT) for j in range(4)])
        batch = sl.correlate_array(w, GAUSS, GRID)
        for j in range(4):
            single = sl.correlate_array(w[j], GAUSS, GRID)
            assert np.allclose(batch[j], single, atol=1e-15)

    def test_empirical_covariance_hits_target(self):
        rows, cross = sl.covariance_selftest(GAUSS, GRID, DT, [0, 2, 8], 4000, seed=7)
        for r in rows:
            assert abs(r["empirical"] - r["target"]) < 4 * r["stderr"]
        assert abs(cross["mean"]) < 4 * cross["stderr"]
        assert cross["n_pairs"] == 3999

    def test_empirical_covariance_riesz(self):
        rows, _ = sl.covariance_selftest(RIESZ, GRID, DT, [1, 4], 4000, seed=9)
        for r in rows:
            assert abs(r["empirical"] - r["target"]) < 4 * r["stderr"]

    def test_lag_validation(self):
        with pytest.raises(NoiseError):
            sl.covariance_selftest(GAUSS, GRID, DT, [GRID.m], 100)
        with pytest.raises(NoiseError):
            sl.covariance_selftest(GAUSS, GRID, DT, [0], 1)


class TestCovarianceTargets:
    def test_target_matches_brute_dft(self):
        # independent oracle: build f_eff by explicit DFT sum over modes
        mult = np.asarray(sl.kernel_multiplier(GAUSS, GRID))
        m = GRID.m
        xi_half = 2 * math.pi * np.fft.rfftfreq(m, d=GRID.dx)
        lags = [0, 3, 11]
        f_eff = sl.effective_covariance(GAUSS, GRID)
        for lag in lags:
            x = lag * GRID.dx
            # full spectrum from the half spectrum (real, even)
            weights = np.full(mult.shape, 2.0)
            weights[0] = 1.0
            weights[-1] = 1.0  # Nyquist bin appears once for even m
            brute = float(np.sum(weights * mult**2 * np.cos(xi_half * x)) / GRID.period)
            assert f_eff[lag] == pytest.approx(brute, abs=1e-14)

    def test_2d_covariance_isotropy(self):
        g2 = sl.LatticeGrid(d=2, m=32, dx=0.5)
        m2 = sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0)
        f_eff = sl.effective_covariance(m2, g2)
        # same lag distance along either axis
        assert f_eff[3, 0] == pytest.approx(f_eff[0, 3], rel=1e-12)
        assert f_eff[0, 0] == max(f_eff.max(), f_eff[0, 0])

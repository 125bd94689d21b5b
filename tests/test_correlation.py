import math

import numpy as np
import pytest
from scipy import integrate

import shelab as sl
from shelab.correlation import CorrelationError
from shelab.noise import NoiseError


GAUSS = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
RIESZ = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0)
CONST = sl.CorrelationModel.constant(d=1, c=0.3)


class TestModelValidation:
    def test_riesz_rejects_bad_alpha(self):
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.riesz(d=1, alpha=0.0, c0=1.0)
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.riesz(d=2, alpha=2.5, c0=1.0)
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=-1.0)

    def test_riesz_edge_alpha_equals_d_allowed(self):
        m = sl.CorrelationModel.riesz(d=1, alpha=1.0, c0=2.0)
        assert m.alpha == 1.0
        # but the spectral density has a Gamma pole there
        with pytest.raises(CorrelationError):
            sl.spectral_density_radial(m, np.array([1.0]))

    def test_gaussian_rejects_bad_params(self):
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.gaussian_h(d=1, width=0.0, amplitude=1.0)
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=-2.0)

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.constant(d=1, c=0.0)

    def test_dimension_range(self):
        for d in (1, 2, 3):
            sl.CorrelationModel.gaussian_h(d=d, width=1.0, amplitude=1.0)
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.gaussian_h(d=4, width=1.0, amplitude=1.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(CorrelationError):
            sl.CorrelationModel.from_dict({"kind": "constant", "d": 1, "c": 0.3, "zz": 1})

    def test_kernel_flags(self):
        assert GAUSS.has_kernel
        assert RIESZ.has_kernel
        assert not CONST.has_kernel
        assert not sl.CorrelationModel.riesz(d=1, alpha=1.0, c0=1.0).has_kernel


class TestPointwiseF:
    def test_gaussian_f_is_h_convolved_with_itself(self):
        # oracle: numeric convolution integral f(x) = int h(y) h(x+y) dy
        w, a = 1.3, 0.7
        m = sl.CorrelationModel.gaussian_h(d=1, width=w, amplitude=a)

        def h(y):
            return a * math.exp(-(y * y) / (2 * w * w))

        for x in (0.0, 0.5, 2.0):
            oracle, _ = integrate.quad(lambda y: h(y) * h(x + y), -30, 30, limit=200)
            assert sl.evaluate_f_radial(m, x) == pytest.approx(oracle, rel=1e-10)

    def test_gaussian_f_zero_closed_form(self):
        w, a = 1.3, 0.7
        for d in (1, 2, 3):
            m = sl.CorrelationModel.gaussian_h(d=d, width=w, amplitude=a)
            assert m.f_at_zero() == pytest.approx(a * a * (math.sqrt(math.pi) * w) ** d, rel=1e-14)

    def test_riesz_f_values_and_origin(self):
        m = sl.CorrelationModel.riesz(d=2, alpha=0.8, c0=1.7)
        assert sl.evaluate_f_radial(m, 5.0) == pytest.approx(1.7 * 5.0**-0.8, rel=1e-14)
        assert sl.evaluate_f_radial(m, 0.0) == math.inf

    def test_constant_f(self):
        vals = sl.evaluate_f_radial(CONST, np.array([0.0, 4.0]))
        assert vals.shape == (2,) and np.all(vals == 0.3)


class TestSpectralDensity:
    def test_gaussian_fhat_against_fourier_quadrature(self):
        # oracle: f_hat(xi) = int f(x) e^{i xi x} dx computed numerically
        w, a = 0.9, 1.4
        m = sl.CorrelationModel.gaussian_h(d=1, width=w, amplitude=a)
        f0 = m.f_at_zero()
        for xi in (0.0, 0.7, 2.0):
            oracle, _ = integrate.quad(
                lambda x: f0 * math.exp(-(x * x) / (4 * w * w)) * math.cos(xi * x),
                -40,
                40,
                limit=400,
            )
            assert sl.spectral_density_radial(m, np.array([xi])) == pytest.approx(oracle, rel=1e-9)

    def test_riesz_spectral_constant_half(self):
        # closed form: C(1, 1/2) = sqrt(2 pi)
        assert sl.riesz_spectral_constant(1, 0.5) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)
        assert sl.riesz_spectral_constant(2, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_riesz_fhat_inverts_to_f(self):
        # oracle: inverse transform of f_hat on a fine rfft grid returns c0 |x|^{-alpha}
        m = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.3)
        n, dx = 2**17, 0.05
        L = n * dx
        xi = 2 * math.pi * np.fft.rfftfreq(n, d=dx)
        fhat = np.zeros_like(xi)
        fhat[1:] = sl.spectral_density_radial(m, xi[1:])
        fhat[0] = sl.spectral_density_radial(m, np.array([2 * math.pi / L]))[0]
        f_grid = np.fft.irfft(fhat, n=n) / dx
        # the patched zero mode shifts every value by one constant; pairwise
        # differences are free of it and must match the power law
        refs = {r: f_grid[int(round(r / dx))] for r in (1.0, 2.0, 5.0)}
        for r in (2.0, 5.0):
            got = refs[1.0] - refs[r]
            want = 1.3 * (1.0 - r**-0.5)
            assert got == pytest.approx(want, rel=0.01)

    def test_kernel_hhat_squares_to_fhat(self):
        for m in (GAUSS, RIESZ):
            r = np.array([0.3, 1.0, 4.0])
            hh = sl.kernel_h_hat_radial(m, r)
            assert np.allclose(hh * hh, sl.spectral_density_radial(m, r), rtol=1e-12)

    def test_constant_has_no_density(self):
        with pytest.raises(CorrelationError):
            sl.spectral_density_radial(CONST, np.array([1.0]))


class TestDalang:
    def test_gaussian_verdict_against_quadrature(self):
        # convention: the reported value is the plain integral of
        # f_hat(xi) / (1 + |xi|^2) over all of R^d, no normalizing prefactor
        res = sl.dalang_condition(GAUSS)
        assert res.finite
        oracle, _ = integrate.quad(
            lambda xi: sl.spectral_density_radial(GAUSS, np.array([xi]))[0] / (1 + xi * xi),
            0,
            60,
            limit=400,
        )
        assert res.integral == pytest.approx(2 * oracle, rel=1e-8)

    def test_riesz_closed_form(self):
        res = sl.dalang_condition(RIESZ)
        assert res.finite
        oracle, _ = integrate.quad(
            lambda xi: math.sqrt(2 * math.pi) * xi**-0.5 / (1 + xi * xi), 0, np.inf, limit=400
        )
        assert res.integral == pytest.approx(2 * oracle, rel=1e-10)

    def test_riesz_boundary_infinite(self):
        # d=1: alpha >= min(d,2) = 1 fails the integrability test
        m = sl.CorrelationModel.riesz(d=1, alpha=1.0, c0=1.0)
        res = sl.dalang_condition(m)
        assert not res.finite
        m2 = sl.CorrelationModel.riesz(d=3, alpha=2.0, c0=1.0)
        assert not sl.dalang_condition(m2).finite
        assert sl.dalang_condition(sl.CorrelationModel.riesz(d=3, alpha=1.9, c0=1.0)).finite

    def test_constant_is_finite(self):
        res = sl.dalang_condition(CONST)
        assert res.finite


class TestCutoffKernel:
    def test_cutoff_level_floor(self):
        grid = sl.LatticeGrid(d=1, m=64, dx=0.5)
        with pytest.raises(NoiseError, match="violates n >= 1"):
            sl.kernel_multiplier(GAUSS, grid, 0.5)


class TestSphereSurface:
    def test_known_values(self):
        assert sl.sphere_surface(1) == pytest.approx(2.0)
        assert sl.sphere_surface(2) == pytest.approx(2 * math.pi)
        assert sl.sphere_surface(3) == pytest.approx(4 * math.pi)

import math

import numpy as np
import pytest

import shelab as sl
from shelab.lattice import LatticeError


class TestGridGeometry:
    def test_basic_derived_quantities(self):
        g = sl.LatticeGrid(d=2, m=16, dx=0.5)
        assert g.period == 8.0
        assert g.shape == (16, 16)
        assert g.n_sites == 256
        assert g.cell_volume == 0.25
        assert g.rfft_shape() == (16, 9)

    def test_validation(self):
        with pytest.raises(LatticeError):
            sl.LatticeGrid(d=0, m=16, dx=0.5)
        with pytest.raises(LatticeError):
            sl.LatticeGrid(d=4, m=16, dx=0.5)
        with pytest.raises(LatticeError, match="d must be 1, 2 or 3, got 1.0"):
            sl.LatticeGrid(d=1.0, m=16, dx=0.5)  # an integral float is not a dimension
        with pytest.raises(LatticeError):
            sl.LatticeGrid(d=1, m=24, dx=0.5)  # not a power of two
        with pytest.raises(LatticeError):
            sl.LatticeGrid(d=1, m=4, dx=0.5)  # below the floor
        with pytest.raises(LatticeError):
            sl.LatticeGrid(d=1, m=16, dx=0.0)

    def test_axis_coords_signed_window(self):
        g = sl.LatticeGrid(d=1, m=8, dx=0.5)
        xs = g.axis_coords()
        assert xs[0] == 0.0
        assert xs.min() == -2.0  # -L/2 included
        assert xs.max() == 1.5  # L/2 excluded
        assert set(np.abs(xs)) <= {0.0, 0.5, 1.0, 1.5, 2.0}

    def test_radius_mesh_matches_manual(self):
        g = sl.LatticeGrid(d=2, m=8, dx=1.0)
        r2 = g.radius_sq_mesh()
        assert r2[0, 0] == 0.0
        assert r2[1, 2] == 5.0
        assert r2[7, 7] == 2.0  # wraps to (-1, -1)

    def test_nearest_index_wraps(self):
        g = sl.LatticeGrid(d=1, m=8, dx=0.5)
        (idx,) = g.nearest_index(np.array([[-0.5]]))
        assert g.axis_coords()[idx[0]] == -0.5
        (idx2,) = g.nearest_index(np.array([[1.74]]))
        assert idx2[0] == 3  # rounds to 1.5

    def test_ball_mask(self):
        g = sl.LatticeGrid(d=1, m=16, dx=0.5)
        mask = g.ball_mask(1.0)
        assert mask.sum() == 5  # {-1, -0.5, 0, 0.5, 1}
        with pytest.raises(LatticeError):
            g.ball_mask(5.0)  # beyond half the period

    def test_dict_round_trip(self):
        g = sl.LatticeGrid(d=3, m=8, dx=0.3)
        assert sl.LatticeGrid.from_dict(g.to_dict()) == g

    def test_freq_sq_mesh_matches_fftfreq(self):
        g = sl.LatticeGrid(d=2, m=8, dx=0.5)
        full = (2 * math.pi * np.fft.fftfreq(8, d=0.5)) ** 2
        half = (2 * math.pi * np.fft.rfftfreq(8, d=0.5)) ** 2
        expect = full[:, None] + half[None, :]
        assert np.allclose(g.freq_sq_mesh(), expect, atol=1e-12)


def propagate(field, grid, kappa, tau):
    """Heat flow over tau of a field or of a batch over leading axes."""
    axes = tuple(range(field.ndim - grid.d, field.ndim))
    spec = np.fft.rfftn(field, axes=axes) * sl.propagator_multiplier(grid, kappa, tau)
    return np.fft.irfftn(spec, s=grid.shape, axes=axes)


class TestPropagator:
    def test_multiplier_formula(self):
        g = sl.LatticeGrid(d=1, m=16, dx=0.5)
        kappa, tau = 1.4, 0.2
        mult = sl.propagator_multiplier(g, kappa, tau)
        xi = 2 * math.pi * np.fft.rfftfreq(16, d=0.5)
        assert np.allclose(mult, np.exp(-kappa * tau * xi**2 / 2.0), atol=1e-15)
        assert mult[0] == 1.0  # mass conservation

    def test_constant_field_is_invariant(self):
        g = sl.LatticeGrid(d=2, m=16, dx=0.25)
        field = np.full(g.shape, 3.7)
        out = propagate(field, g, 2.0, 0.3)
        assert np.allclose(out, 3.7, atol=1e-12)

    def test_semigroup_property(self):
        g = sl.LatticeGrid(d=1, m=64, dx=0.25)
        rng = np.random.default_rng(0)
        field = rng.normal(size=g.shape)
        a = propagate(propagate(field, g, 1.0, 0.1), g, 1.0, 0.3)
        b = propagate(field, g, 1.0, 0.4)
        assert np.allclose(a, b, atol=1e-13)

    def test_batch_matches_loop(self):
        g = sl.LatticeGrid(d=1, m=32, dx=0.5)
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(5,) + g.shape)
        out = propagate(batch, g, 1.0, 0.2)
        for i in range(5):
            assert np.array_equal(out[i], propagate(batch[i], g, 1.0, 0.2))

    def test_smooths_toward_mean(self):
        g = sl.LatticeGrid(d=1, m=64, dx=0.25)
        rng = np.random.default_rng(2)
        field = rng.normal(size=g.shape)
        out = propagate(field, g, 1.0, 40.0)
        # slowest surviving mode has xi = 2 pi / L, amplitude e^{-kappa t xi^2 / 2}
        xi1 = 2 * math.pi / g.period
        bound = math.exp(-40.0 * xi1 * xi1)  # variance decay of that mode
        assert out.var() < 2 * bound * field.var()
        assert out.mean() == pytest.approx(field.mean(), abs=1e-12)


def sampled_kernel(grid, kappa, tau):
    """Convolution kernel of the propagator, in sum convention: propagating
    g gives sum_j K[i-j] g[j].  It is the periodized heat kernel times the
    cell volume, up to bandlimit ringing of order the Nyquist multiplier."""
    return np.fft.irfftn(sl.propagator_multiplier(grid, kappa, tau), s=grid.shape, axes=tuple(range(grid.d)))


class TestSampledKernel:
    def test_positive_and_normalized(self):
        # once the multiplier underflows at Nyquist the kernel is positive
        # to roundoff; before that, ringing is bounded by the Nyquist amplitude
        for d, m, dx, tau in ((1, 128, 0.25, 0.8), (2, 32, 0.5, 3.0)):
            g = sl.LatticeGrid(d=d, m=m, dx=dx)
            K = sampled_kernel(g, kappa=1.0, tau=tau)
            assert K.min() > -1e-14
            assert K.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ringing_bounded_by_nyquist_amplitude(self):
        g = sl.LatticeGrid(d=1, m=128, dx=0.25)
        kappa, tau = 1.0, 0.1
        K = sampled_kernel(g, kappa, tau)
        nyquist = math.exp(-kappa * tau * (math.pi / g.dx) ** 2 / 2)
        assert K.min() > -nyquist
        assert K.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_continuum_kernel_with_images(self):
        g = sl.LatticeGrid(d=1, m=128, dx=0.25)
        kappa, tau = 1.0, 0.3
        K = sampled_kernel(g, kappa, tau)
        xs = g.axis_coords()
        L = g.period

        def heat(z):
            return math.exp(-z * z / (2 * kappa * tau)) / math.sqrt(2 * math.pi * kappa * tau)

        for i in (0, 3, 17):
            images = sum(heat(xs[i] + k * L) for k in range(-4, 5))
            assert K[i] == pytest.approx(images * g.dx, rel=1e-10)

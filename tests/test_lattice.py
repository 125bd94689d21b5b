import math

import numpy as np
import pytest
from scipy import integrate

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


class TestHeatKernel:
    def test_matches_gaussian_formula(self):
        t, kappa = 0.4, 1.3
        z = np.array([0.7])
        val = sl.heat_kernel(t, z, kappa)
        expect = math.exp(-0.49 / (2 * kappa * t)) / math.sqrt(2 * math.pi * kappa * t)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_normalizes_to_one(self):
        t, kappa = 0.25, 0.8
        total, _ = integrate.quad(lambda z: sl.heat_kernel(t, np.array([z]), kappa), -20, 20)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_d2_factorizes(self):
        t, kappa = 0.3, 1.0
        val = sl.heat_kernel(t, np.array([0.5, -0.2]), kappa)
        v1 = sl.heat_kernel(t, np.array([0.5]), kappa)
        v2 = sl.heat_kernel(t, np.array([-0.2]), kappa)
        assert val == pytest.approx(v1 * v2, rel=1e-12)


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


class TestSampledKernel:
    def test_positive_and_normalized(self):
        # once the multiplier underflows at Nyquist the kernel is positive
        # to roundoff; before that, ringing is bounded by the Nyquist amplitude
        for d, m, dx, tau in ((1, 128, 0.25, 0.8), (2, 32, 0.5, 3.0)):
            g = sl.LatticeGrid(d=d, m=m, dx=dx)
            K = sl.sampled_heat_kernel(g, kappa=1.0, tau=tau)
            assert K.min() > -1e-14
            assert K.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ringing_bounded_by_nyquist_amplitude(self):
        g = sl.LatticeGrid(d=1, m=128, dx=0.25)
        kappa, tau = 1.0, 0.1
        K = sl.sampled_heat_kernel(g, kappa, tau)
        nyquist = math.exp(-kappa * tau * (math.pi / g.dx) ** 2 / 2)
        assert K.min() > -nyquist
        assert K.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_continuum_kernel_with_images(self):
        g = sl.LatticeGrid(d=1, m=128, dx=0.25)
        kappa, tau = 1.0, 0.3
        K = sl.sampled_heat_kernel(g, kappa, tau)
        xs = g.axis_coords()
        L = g.period
        for i in (0, 3, 17):
            images = sum(
                sl.heat_kernel(tau, np.array([xs[i] + k * L]), kappa) for k in range(-4, 5)
            )
            assert K[i] == pytest.approx(images * g.dx, rel=1e-10)


class TestSeparation:
    # the metric is the smallest per-coordinate distance: the conservative
    # notion for disjointness of box windows
    def test_min_coordinate_distance(self):
        assert sl.d_separation(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(3.0)
        assert sl.d_separation(np.array([1.0]), np.array([-2.0])) == pytest.approx(3.0)

    def test_torus_minimal_image(self):
        L = 10.0
        a = np.array([0.5, 0.5])
        b = np.array([9.5, 4.5])
        # coordinate distances reduce to 1 (wrapping) and 4
        assert sl.d_separation(a, b, period=L) == pytest.approx(1.0)
        brute = min(
            min(abs(a[0] - (b[0] + i * L)), abs(a[1] - (b[1] + j * L)))
            for i in (-1, 0, 1)
            for j in (-1, 0, 1)
        )
        assert sl.d_separation(a, b, period=L) == pytest.approx(brute)

    def test_shape_mismatch_raises(self):
        with pytest.raises(LatticeError):
            sl.d_separation(np.array([0.0, 0.0]), np.array([1.0]))

import math
import pickle
import random

import numpy as np
import pytest

import shelab as sl
from shelab.noise import NoiseError, _generators, _stream_words, white_batch, white_steps


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
        a, b = (sl.WhiteNoiseSource(seed=3, stream_id=5) for _ in range(2))
        for j in range(18):
            assert np.array_equal(a.white_at(j, GRID, DT), b.white_at(j, GRID, DT))

    def test_out_of_order_step_refused(self):
        # step j is the j-th block of normals of one forward stream, so a
        # source cannot skip, repeat or go back; a refused step draws nothing
        src = sl.WhiteNoiseSource(seed=3, stream_id=5)
        src.white_at(0, GRID, DT)
        for step in (2, 0, 2**40):
            with pytest.raises(NoiseError, match=rf"stream 5 expects step 1, got step {step}"):
                src.white_at(step, GRID, DT)
        assert np.array_equal(src.white_at(1, GRID, DT), reference_white(3, 5, 1, GRID, DT))

    def test_seed_and_stream_range(self):
        for seed, stream_id in ((2**63, 0), (-1, 0), (0, 2**63), (0, -1)):
            with pytest.raises(NoiseError, match="nonnegative 63-bit integer"):
                sl.WhiteNoiseSource(seed=seed, stream_id=stream_id)
        top = sl.WhiteNoiseSource(seed=2**63 - 1, stream_id=2**63 - 1)
        assert np.array_equal(top.white_at(0, GRID, DT), reference_white(2**63 - 1, 2**63 - 1, 0, GRID, DT))
        # a non-integral seed or stream id is refused, not truncated to its
        # integer part; an integral float or a numpy integer draws the int's
        # stream
        for seed, stream_id, rule in ((3.5, 0, "seed = 3.5 violates seed integral"),
                                      (3, -0.5, "stream_id = -0.5 violates stream_id integral"),
                                      (math.nan, 0, "seed = nan violates seed integral"),
                                      (3, "1", "stream_id = '1' violates stream_id integral"),
                                      (None, 0, "seed = None violates seed integral")):
            with pytest.raises(NoiseError, match=rule):
                sl.WhiteNoiseSource(seed=seed, stream_id=stream_id)
        for seed, stream_id in ((3.0, 5.0), (np.int64(3), np.uint64(5))):
            src = sl.WhiteNoiseSource(seed=seed, stream_id=stream_id)
            assert np.array_equal(src.white_at(0, GRID, DT), reference_white(3, 5, 0, GRID, DT))
        cfg = sl.SolverConfig(grid=GRID, model=GAUSS, sigma=sl.SigmaFunction.constant(eps0=1.0), kappa=1.0, dt=DT,
                              u0=sl.U0Spec(kind="constant", level=1.0))
        with pytest.raises(NoiseError, match="seed = 3.5 violates seed integral"):
            sl.solve_batch(cfg, 0.25, 3.5, [0])
        assert sl.solve_batch(cfg, 0.25, 3.0, [0]).tobytes() == sl.solve_batch(cfg, 0.25, 3, [0]).tobytes()

    def test_streams_and_steps_decorrelated(self):
        n = 4000
        a = sl.WhiteNoiseSource(seed=7, stream_id=0)
        b = sl.WhiteNoiseSource(seed=7, stream_id=1)
        xa = np.stack([a.white_at(j, GRID, DT)[0] for j in range(n + 1)])
        y = np.stack([b.white_at(j, GRID, DT)[0] for j in range(n)])
        x, z = xa[:-1], xa[1:]
        assert abs(np.corrcoef(x, y)[0, 1]) < 4 / math.sqrt(n)
        assert abs(np.corrcoef(x, z)[0, 1]) < 4 / math.sqrt(n)


def reference_hat(seed, stream_id, step, grid, dt):
    """Transform of step step of a fresh SFC64 seeded from SeedSequence([seed,
    stream_id]): the normals [2 step F, 2 (step + 1) F) of that stream, F the
    number of rfft modes, as F complex normals (real part first), scaled to
    E|w_hat_k|^2 = N dt / dx^d inside and twice that on the planes k_last = 0
    and k_last = m/2."""
    fshape = grid.rfft_shape()
    F = math.prod(fshape)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, stream_id])))
    normals = rng.standard_normal(2 * (step + 1) * F)[2 * step * F :].reshape(fshape + (2,))
    var = np.full(fshape, grid.n_sites * dt / grid.cell_volume)
    var[..., 1:-1] /= 2
    return (normals * np.sqrt(var)[..., None]).view(complex)[..., 0]


def reference_white(seed, stream_id, step, grid, dt):
    """The real white slice of reference_hat: its irfftn."""
    return np.fft.irfftn(reference_hat(seed, stream_id, step, grid, dt), s=grid.shape, axes=tuple(range(grid.d)))


class TestGeneratorReset:
    # a source keeps one generator and its next step across draws; every
    # slice must be the bits of a fresh generator drawn forward to it
    def test_steps_in_order_match_fresh_generator(self):
        src = sl.WhiteNoiseSource(seed=3, stream_id=5)
        for step in range(6):
            assert np.array_equal(src.white_at(step, GRID, DT), reference_white(3, 5, step, GRID, DT))

    def test_same_step_twice_on_one_source(self):
        src = sl.WhiteNoiseSource(seed=11, stream_id=2)
        for step in range(7):
            src.white_at(step, GRID, DT)
        with pytest.raises(NoiseError, match="stream 2 expects step 7, got step 6"):
            src.white_at(6, GRID, DT)
        assert np.array_equal(src.white_at(7, GRID, DT), reference_white(11, 2, 7, GRID, DT))

    def test_two_sources_drawn_alternately(self):
        grid2 = sl.LatticeGrid(d=2, m=8, dx=0.5)
        a = sl.WhiteNoiseSource(seed=4, stream_id=0)
        b = sl.WhiteNoiseSource(seed=4, stream_id=1)
        for step in range(4):
            for src, grid in ((a, GRID), (b, grid2)):
                want = reference_white(4, src.stream_id, step, grid, DT)
                assert np.array_equal(src.white_at(step, grid, DT), want)

    def test_equality_and_repr_ignore_generator(self):
        src = sl.WhiteNoiseSource(seed=3, stream_id=5)
        src.white_at(0, GRID, DT)
        assert src == sl.WhiteNoiseSource(seed=3, stream_id=5)
        assert src != sl.WhiteNoiseSource(seed=3, stream_id=6)
        assert repr(src) == "WhiteNoiseSource(seed=3, stream_id=5)"

    def test_pickle_round_trip_after_a_draw(self):
        # a copy carries the generator and the next step with it
        src = sl.WhiteNoiseSource(seed=8, stream_id=1)
        for step in range(13):
            src.white_at(step, GRID, DT)
        copy = pickle.loads(pickle.dumps(src))
        assert copy == src
        assert np.array_equal(copy.white_at(13, GRID, DT), src.white_at(13, GRID, DT))
        assert np.array_equal(copy.white_at(14, GRID, DT), reference_white(8, 1, 14, GRID, DT))


# Stream ids and seeds at and around the 32-bit word boundaries, where
# SeedSequence's entropy grows from one word to two.
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def seed_sequence_words(seed, stream_id):
    return np.random.SeedSequence([seed, stream_id]).generate_state(4, np.uint64)


class TestStreamWords:
    # _stream_words reproduces numpy's SeedSequence hash for a whole batch;
    # if numpy ever changes that hash, these tests are what show it
    def test_word_boundaries(self):
        for seed in WORD_EDGES:
            got = _stream_words(seed, WORD_EDGES)
            assert got.dtype == np.uint64 and got.shape == (len(WORD_EDGES), 4)
            for row, stream_id in zip(got, WORD_EDGES):
                assert np.array_equal(row, seed_sequence_words(seed, stream_id))

    def test_random_pairs(self):
        rnd = random.Random(0)
        for _ in range(500):
            seed, stream_id = rnd.randrange(2**63), rnd.randrange(2 ** rnd.randrange(1, 64))
            assert np.array_equal(_stream_words(seed, [stream_id])[0], seed_sequence_words(seed, stream_id))

    def test_one_batch_of_mixed_ids(self):
        streams = random.Random(1).sample(range(2**40), 64) + WORD_EDGES
        got = _stream_words(7, streams)
        for row, stream_id in zip(got, streams):
            assert np.array_equal(row, seed_sequence_words(7, stream_id))
        assert _stream_words(7, []).shape == (0, 4)

    def test_generators_match_seed_sequence(self):
        for seed, stream_id in ((0, 0), (3, 2**32), (2**63 - 1, 5), (2**40 + 1, 2**63 - 1)):
            (rng,) = _generators(seed, [stream_id])
            want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, stream_id])))
            assert rng.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()


def hat_block(rows, k, grid=GRID):
    return np.empty((rows, k) + grid.rfft_shape(), dtype=complex)


class TestWhiteBatch:
    # one call draws the transforms of k consecutive steps for many sources;
    # out[i, l] must be the bits of a fresh generator's step step + l, and
    # its irfftn the bits of sources[i].white_at(step + l)
    def test_rows_match_white_at_and_fresh_generator(self):
        grid2 = sl.LatticeGrid(d=2, m=8, dx=0.5)
        for grid in (GRID, grid2):
            sources = [sl.WhiteNoiseSource(seed=3, stream_id=s) for s in (5, 0, 9)]
            twins = [sl.WhiteNoiseSource(seed=3, stream_id=s) for s in (5, 0, 9)]
            step = 0
            for k in (3, 1, 2):
                out = np.full((3, k) + grid.rfft_shape(), np.nan, dtype=complex)
                assert white_batch(sources, step, grid, DT, out) is out
                for src, twin, row in zip(sources, twins, out):
                    for lag, slice_ in enumerate(row):
                        want = reference_hat(3, src.stream_id, step + lag, grid, DT)
                        assert slice_.tobytes() == want.tobytes()
                        white = np.fft.irfftn(slice_, s=grid.shape, axes=tuple(range(grid.d)))
                        assert white.tobytes() == twin.white_at(step + lag, grid, DT).tobytes()
                step += k
            assert [src.next_step for src in sources] == [6] * 3

    def test_mixed_word_batch_from_white_steps(self, monkeypatch):
        # 1-word and 2-word stream ids seeded in one pass, each row the bits
        # of its own fresh stream
        streams = [5, 0, 9, 2**32 - 1, 2**32, 2**63 - 1]
        for step, block in enumerate(white_steps(3, streams, GRID, DT, 6)):
            for stream_id, row in zip(streams, block):
                assert row.tobytes() == reference_hat(3, stream_id, step, GRID, DT).tobytes()
        # a bad stream id anywhere in the batch is refused before any stream draws
        calls = []
        monkeypatch.setattr(sl.noise, "white_batch", lambda *args: calls.append(args))
        for bad, rule in ((2**63, "violates 0 <= stream_id < 2"), (-1, "violates 0 <= stream_id < 2"),
                          (2.5, "stream_id = 2.5 violates stream_id integral")):
            with pytest.raises(NoiseError, match=rule):
                next(white_steps(3, [5, 0, bad, 1], GRID, DT, 6))
        assert calls == []

    def test_block_split_does_not_change_bits(self):
        # 16 steps drawn as one block, as 5 + 11 and as 16 single steps
        def draw(blocks):
            sources = [sl.WhiteNoiseSource(seed=12, stream_id=s) for s in (0, 3)]
            parts, step = [], 0
            for k in blocks:
                parts.append(white_batch(sources, step, GRID, DT, hat_block(2, k)))
                step += k
            return np.concatenate(parts, axis=1).tobytes()

        assert draw([16]) == draw([5, 11]) == draw([1] * 16)

    def test_step_not_next_refused(self):
        # a source behind or ahead of the batch's step is named with the step
        # it expects, and no source of the batch draws
        sources = [sl.WhiteNoiseSource(seed=1, stream_id=s) for s in range(3)]
        white_batch(sources[:2], 0, GRID, DT, hat_block(2, 2))
        with pytest.raises(NoiseError, match="stream 2 expects step 0, got step 2"):
            white_batch(sources, 2, GRID, DT, hat_block(3, 1))
        with pytest.raises(NoiseError, match="stream 0 expects step 2, got step 1"):
            white_batch(sources, 1, GRID, DT, hat_block(3, 1))
        assert [src.next_step for src in sources] == [2, 2, 0]

    def test_bad_dt_refused(self):
        out = hat_block(1, 1)
        for dt in (0.0, -DT, math.nan):
            with pytest.raises(NoiseError, match="dt must be positive"):
                white_batch([sl.WhiteNoiseSource(seed=1)], 0, GRID, dt, out)

    def test_wrong_buffer_refused(self):
        sources = [sl.WhiteNoiseSource(seed=1, stream_id=s) for s in range(2)]
        f = GRID.m // 2 + 1
        want = r"C-contiguous complex128 array of shape \(2, k, 65\), k >= 1"
        with pytest.raises(NoiseError, match=want + r", got \(2, 3, 66\)"):
            white_batch(sources, 0, GRID, DT, np.empty((2, 3, f + 1), dtype=complex))
        for bad in (np.empty((2, 1, f)), np.empty((2, 1, f), dtype=np.complex64),
                    np.empty((2, 1, GRID.m), dtype=complex), np.empty((2, 1, 2 * f), dtype=complex)[..., ::2],
                    np.empty((f, 1, 2), dtype=complex).T, [[[0j] * f]] * 2, hat_block(2, 0),
                    np.empty((2, f), dtype=complex)):
            with pytest.raises(NoiseError, match=want):
                white_batch(sources, 0, GRID, DT, bad)
        # a row count other than the number of sources: zip over sources and
        # rows would stop at the shorter one and leave rows undrawn
        for rows in (1, 3):
            with pytest.raises(NoiseError, match=rf"got \({rows}, 1, 65\)"):
                white_batch(sources, 0, GRID, DT, hat_block(rows, 1))
        assert [src.next_step for src in sources] == [0, 0]


# The law of the drawn transform in d = 1, 2 and 3.  Each check compares a
# mean over LAW_STEPS steps with its target in units of its empirical
# stderr.  The three grids make 1 553 comparisons (per-site variances, lags,
# modes); a two-sided Bonferroni band at a family-wise rate of 1e-4 is 5.4
# stderrs, and 6 leaves room for the skew of a mean of chi-square terms.
LAW_STEPS = 4000
LAW_Z = 6.0
LAW_GRIDS = [sl.LatticeGrid(d=1, m=16, dx=0.5), sl.LatticeGrid(d=2, m=8, dx=0.5), sl.LatticeGrid(d=3, m=8, dx=0.5)]


def law_draws(grid):
    what = np.empty((1, LAW_STEPS) + grid.rfft_shape(), dtype=complex)
    white_batch([sl.WhiteNoiseSource(seed=21, stream_id=0)], 0, grid, DT, what)
    return what[0]


def within_band(samples, target):
    """Per column of samples (steps first): |mean - target| <= LAW_Z stderrs."""
    samples = samples.reshape(LAW_STEPS, -1)
    stderr = samples.std(axis=0) / math.sqrt(LAW_STEPS)
    return np.abs(samples.mean(axis=0) - np.ravel(target)) <= LAW_Z * stderr


@pytest.mark.parametrize("grid", LAW_GRIDS, ids=["d1", "d2", "d3"])
class TestDrawLaw:
    def test_real_slice_is_white(self, grid):
        # irfftn of a draw: variance dt / dx^d at every site, and the site
        # mean of w(x) w(x + z) centred on 0 at every lag z != 0
        axes = tuple(range(1, 1 + grid.d))
        w = np.fft.irfftn(law_draws(grid), s=grid.shape, axes=axes)
        var = DT / grid.cell_volume
        assert within_band(w * w, var).all()
        lagged = np.fft.irfftn(np.abs(np.fft.rfftn(w, axes=axes)) ** 2, s=grid.shape, axes=axes) / grid.n_sites
        target = np.zeros(grid.shape)
        target.flat[0] = var
        assert within_band(lagged, target).all()

    def test_modes_have_the_law_of_rfft_of_white_noise(self, grid):
        # rfftn(irfftn(w_hat)): E|.|^2 = N dt / dx^d on every mode, and the
        # self-conjugate modes (every index 0 or m/2) are real
        axes = tuple(range(1, 1 + grid.d))
        back = np.fft.rfftn(np.fft.irfftn(law_draws(grid), s=grid.shape, axes=axes), axes=axes)
        power = grid.n_sites * DT / grid.cell_volume
        assert within_band(np.abs(back) ** 2, power).all()
        self_conjugate = np.ones(grid.rfft_shape(), dtype=bool)
        for k in np.ix_(*(np.arange(n) for n in grid.rfft_shape())):
            self_conjugate &= (k == 0) | (k == grid.m // 2)
        assert self_conjugate.sum() == 2**grid.d
        assert np.abs(back[:, self_conjugate].imag).max() <= 1e-12 * math.sqrt(power)


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


def gridded_kernel(model, level=None):
    """The kernel h on GRID, tapered at a cutoff level, from its multiplier."""
    return np.fft.irfftn(sl.kernel_multiplier(model, GRID, level), s=GRID.shape, axes=(0,)) / GRID.cell_volume


class TestCutoff:
    def test_support_is_exact(self):
        # the tapered kernel vanishes off |x| <= n, hence covariance vanishes
        # for separations beyond 2n: exact lattice independence
        n = 4.0
        h = gridded_kernel(GAUSS, n)
        xs = GRID.axis_coords()
        assert np.abs(h[np.abs(xs) > n + 1e-9]).max() < 1e-15
        mult = sl.kernel_multiplier(GAUSS, GRID, n)
        f_eff = np.fft.irfftn(mult * mult, s=GRID.shape, axes=(0,)) / GRID.cell_volume
        torus = np.minimum(np.abs(xs), GRID.period - np.abs(xs))
        far = np.abs(f_eff[torus > 2 * n + 1e-9])
        assert far.max() < 1e-15

    def test_taper_ratio_inside_support(self):
        n = 4.0
        xs = GRID.axis_coords()
        i = int(np.argmin(np.abs(xs - 1.0)))
        for model in (GAUSS, RIESZ):
            h_full = gridded_kernel(model)
            h_cut = gridded_kernel(model, n)
            assert h_full[i] > 0
            assert h_cut[i] / h_full[i] == pytest.approx(1 - 1.0 / n, rel=1e-10)

    def test_level_ladder_telescopes(self):
        # H_{n2} - H_{n1} summed along a ladder collapses to the endpoints
        levels = [2.0, 4.0, 8.0, 16.0]
        mults = [sl.kernel_multiplier(GAUSS, GRID, n) for n in levels]
        tele = mults[0] + sum(b - a for a, b in zip(mults, mults[1:]))
        assert np.allclose(tele, mults[-1], atol=1e-15)

    def test_level_bounds(self):
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(GAUSS, GRID, 17.0)  # beyond L/2
        tiny = sl.LatticeGrid(d=1, m=8, dx=2.0)
        with pytest.raises(NoiseError):
            sl.kernel_multiplier(GAUSS, tiny, 1.0)  # below one cell


class TestCorrelatedSlices:
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

    @pytest.mark.parametrize("d, lags", [(1, [0, 1, 3]), (2, [0, 2])])
    def test_reduction_matches_all_slices_at_once(self, d, lags):
        # 2 * 2048 + 3 slices cross two chunk boundaries; a boundary pair
        # dropped or counted twice moves the cross-time mean
        grid = sl.LatticeGrid(d=d, m=8, dx=0.5)
        model = sl.CorrelationModel.gaussian_h(d=d, width=1.0, amplitude=1.0)
        n = 2 * 2048 + 3
        rows, cross = sl.covariance_selftest(model, grid, DT, lags, n, seed=4)
        src = sl.WhiteNoiseSource(seed=4, stream_id=0)
        white = np.stack([src.white_at(j, grid, DT) for j in range(n)])
        axes = tuple(range(1, 1 + d))
        H = sl.kernel_multiplier(model, grid)
        zeta = np.fft.irfftn(np.fft.rfftn(white, axes=axes) * H, s=grid.shape, axes=axes)
        per_slice = [(zeta * np.roll(zeta, -lag, axis=1)).mean(axis=axes) for lag in lags]
        per_pair = (zeta[:-1] * zeta[1:]).mean(axis=axes)
        got = [(r["empirical"], r["stderr"]) for r in rows] + [(cross["mean"], cross["stderr"])]
        for (mean, stderr), x in zip(got, per_slice + [per_pair]):
            assert mean == pytest.approx(x.mean(), rel=1e-12, abs=0)
            assert stderr == pytest.approx(x.std() / math.sqrt(x.size), rel=1e-12, abs=0)
        assert cross["n_pairs"] == n - 1

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

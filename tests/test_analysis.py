import dataclasses
import hashlib
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as splinalg

import shelab as sl
import shelab.analysis as an
from shelab import noise


GRID = sl.LatticeGrid(d=1, m=64, dx=0.25)
GAUSS = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
DT = 1 / 64


def small_cfg(sigma=None, level=1.0, kind="constant"):
    return sl.SolverConfig(
        grid=GRID,
        model=GAUSS,
        sigma=sigma or sl.SigmaFunction.linear(c=1.0),
        kappa=1.0,
        dt=DT,
        u0=sl.U0Spec(kind=kind, level=level),
    )


class TestReplicaMap:
    def test_stream_ids_are_global_and_ordered(self):
        def fn(streams):
            return np.asarray(streams, dtype=float).reshape(-1, 1)

        out = an.replica_map(fn, 600, threads=3)
        assert out.shape == (600, 1)
        assert np.array_equal(out[:, 0], np.arange(600.0))

    def test_thread_count_does_not_change_result(self):
        def fn(streams):
            rng = [sl.WhiteNoiseSource(seed=4, stream_id=s).white_at(0, GRID, DT)[:2] for s in streams]
            return np.asarray(rng)

        a = an.replica_map(fn, 520, threads=1)
        b = an.replica_map(fn, 520, threads=8)
        assert np.array_equal(a, b)

    def test_unpicklable_closure_runs_in_workers(self):
        # chunks reach forked workers by inheritance, never by pickling
        lock = threading.Lock()

        def fn(streams):
            with lock:
                return sl.solve_batch(small_cfg(), 0.25, 6, streams)[:, :3]

        one = an.replica_map(fn, 300, threads=1)
        two = an.replica_map(fn, 300, threads=2)
        assert one.tobytes() == two.tobytes()
        assert multiprocessing.active_children() == []

    def test_single_chunk_runs_in_caller(self):
        pids = []

        def fn(streams):
            pids.append(os.getpid())
            return np.zeros((len(streams), 1))

        an.replica_map(fn, 256, threads=4)
        assert pids == [os.getpid()]

    def test_thread_count_below_one_refused(self):
        calls = []

        def fn(streams):
            calls.append(streams)
            return np.zeros((len(streams), 1))

        with pytest.raises(an.AnalysisError, match=r"threads = 0 violates threads >= 1"):
            an.replica_map(fn, 4, threads=0)
        for n, rule in ((3.5, "replicas = 3.5 violates replicas integral"), (0, "replicas = 0 violates replicas >= 1")):
            with pytest.raises(an.AnalysisError, match=rule):
                an.replica_map(fn, n)
        assert calls == []

    def test_blowup_crosses_the_process_boundary(self):
        cfg = small_cfg(level=1e308)

        def fn(streams):
            return sl.solve_batch(cfg, 0.25, 2, streams)

        raised = []
        for threads in (1, 2):
            with pytest.raises(sl.SolverBlowup) as exc:
                an.replica_map(fn, 300, threads=threads)
            raised.append(exc.value)
        assert raised[0].t == raised[1].t
        assert raised[0].streams == raised[1].streams
        assert str(raised[0]) == str(raised[1])
        assert multiprocessing.active_children() == []

    def test_first_failing_chunk_in_stream_order_surfaces(self):
        # the chunk at 256 fails last in time but first in stream order
        def fn(streams):
            if streams[0] == 256:
                time.sleep(0.5)
            if streams[0] >= 256:
                raise an.AnalysisError(f"chunk at stream {streams[0]} failed")
            return np.zeros((len(streams), 1))

        with pytest.raises(an.AnalysisError, match="chunk at stream 256 failed"):
            an.replica_map(fn, 600, threads=3)
        assert multiprocessing.active_children() == []


class TestJackknife:
    def test_mean_matches_classic_stderr(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 1.0, 400)
        est, se = an.jackknife_stat(x, "mean")
        assert est == pytest.approx(float(x.mean()), rel=1e-12)
        assert se == pytest.approx(float(x.std(ddof=1) / 20), rel=1e-10)

    def test_variance_point_estimate(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 3.0, 500)
        est, se = an.jackknife_stat(x, "var")
        assert est == pytest.approx(float(x.var(ddof=1)), rel=1e-10)
        assert se > 0

    def test_loo_definition_on_tiny_sample(self):
        # brute-force delete-one comparison
        x = np.array([1.0, 2.0, 4.0, 8.0])
        est, se = an.jackknife_stat(x, "var")
        loo = np.array([np.var(np.delete(x, i), ddof=1) for i in range(4)])
        se_brute = math.sqrt(3 / 4 * np.sum((loo - loo.mean()) ** 2))
        assert se == pytest.approx(se_brute, rel=1e-10)

    def test_column_means_have_the_bits_of_one_column(self):
        # a 2-D reduction that sums in another order moves the last bits
        rows = np.random.default_rng(7).lognormal(0.0, 1.5, (1003, 5))
        for matrix in (rows, rows[:, 1:4]):
            est, se = an._jackknife_means(matrix)
            for i, col in enumerate(matrix.T):
                assert (est[i], se[i]) == an.jackknife_stat(col, "mean")

    def test_stderr_covers_the_truth(self):
        # 200 standard normals per seed, seeds 0-399: the share of seeds whose
        # estimate misses the truth by more than 1.96 stderr lies within 3
        # binomial sd of the nominal 5%
        misses = {"mean": 0, "var": 0}
        for seed in range(400):
            x = np.random.default_rng(seed).standard_normal(200)
            for stat, truth in (("mean", 0.0), ("var", 1.0)):
                est, se = an.jackknife_stat(x, stat)
                misses[stat] += abs(est - truth) > 1.96 * se
        for stat, n in misses.items():
            assert 0.017 <= n / 400 <= 0.083, (stat, n)

    def test_needs_enough_samples(self):
        with pytest.raises(an.AnalysisError):
            an.jackknife_stat(np.array([1.0]), "mean")
        # a delete-one variance of one value is not defined
        with pytest.raises(an.AnalysisError, match="n >= 3"):
            an.jackknife_stat(np.array([1.0, 2.0]), "var")


class TestWilson:
    def test_zero_successes_upper_bound(self):
        lo, hi = an.wilson_interval(0, 100)
        assert lo == 0.0
        # closed form: z^2 / (n + z^2)
        assert hi == pytest.approx(1.96**2 / (100 + 1.96**2), rel=1e-10)

    def test_symmetry(self):
        lo1, hi1 = an.wilson_interval(30, 100)
        lo2, hi2 = an.wilson_interval(70, 100)
        assert lo1 == pytest.approx(1 - hi2, rel=1e-10)
        assert hi1 == pytest.approx(1 - lo2, rel=1e-10)

    def test_validation(self):
        with pytest.raises(an.AnalysisError):
            an.wilson_interval(5, 4)


class TestMoments:
    def test_additive_second_moment_matches_exact_formula(self):
        # E u^2 = u0^2 + Var with the exact discrete variance as oracle
        eps0 = 0.8
        cfg = small_cfg(sl.SigmaFunction.constant(eps0=eps0))
        t = 0.25
        n_steps = round(t / DT)
        H = np.asarray(sl.kernel_multiplier(GAUSS, GRID))
        xi2 = GRID.freq_sq_mesh()
        r = np.exp(-DT * xi2)
        geom = np.where(xi2 > 0, r * (1 - r**n_steps) / np.where(xi2 > 0, 1 - r, 1.0), n_steps)
        w = np.full(H.shape, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        exact_var = eps0**2 * DT / GRID.period * float(np.sum(w * H * H * geom))

        scen = an.Scenario(cfg=cfg, t_final=t, probes=((0.0,),))
        rep = an.estimate_moments(scen, [2], 1500, seed=6, threads=2)
        z = abs(rep.estimates[0] - (1.0 + exact_var)) / rep.stderrs[0]
        assert z < 4.0, (rep.estimates[0], 1.0 + exact_var, z)
        assert not rep.flags[0]

    def test_high_order_flagged(self):
        cfg = small_cfg()
        scen = an.Scenario(cfg=cfg, t_final=0.25)
        rep = an.estimate_moments(scen, [2, 9], 40, seed=0)
        assert rep.flags[rep.ks.index(9)]

    def test_needs_a_moment_order(self):
        scen = an.Scenario(cfg=small_cfg(), t_final=0.25)
        with pytest.raises(an.AnalysisError, match=r"ks = \[\] violates len\(ks\) >= 1: at least one"):
            an.estimate_moments(scen, [], 4)
        # a non-integral order is refused, not computed and reported as its
        # integer part; the rule names the first order that breaks it
        for ks, rule in (([2.5], "k = 2.5 violates k integral"), ([0], "k = 0 violates k >= 1"),
                         ([2, -1], "k = -1 violates k >= 1")):
            with pytest.raises(an.AnalysisError, match=rule):
                an.estimate_moments(scen, ks, 4)
        # so is a non-integral replica count; an integral float or a numpy
        # integer runs as the int, with the same bits
        with pytest.raises(an.AnalysisError, match="replicas = 4.5 violates replicas integral"):
            an.estimate_moments(scen, [2], 4.5)
        want = an.estimate_moments(scen, [2], 4)
        for n in (4.0, np.int64(4)):
            got = an.estimate_moments(scen, [2], n)
            assert got == want and type(got.n_replicas) is int

    def test_determinism_across_threads(self):
        cfg = small_cfg()
        scen = an.Scenario(cfg=cfg, t_final=0.25)
        r1 = an.estimate_moments(scen, [2, 3], 300, seed=5, threads=1)
        r8 = an.estimate_moments(scen, [2, 3], 300, seed=5, threads=8)
        assert r1.estimates == r8.estimates
        assert r1.stderrs == r8.stderrs

    def test_default_probe_is_the_origin_in_2d(self):
        grid = sl.LatticeGrid(d=2, m=16, dx=0.5)
        cfg = sl.SolverConfig(
            grid=grid,
            model=sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0),
            sigma=sl.SigmaFunction.linear(c=1.0),
            kappa=1.0,
            dt=DT,
        )
        scen = an.Scenario(cfg=cfg, t_final=0.25)
        assert scen.probes == ((0.0, 0.0),)
        rep = an.estimate_moments(scen, [2], 4, seed=3)
        origin = an.Scenario(cfg=cfg, t_final=0.25, probes=((0.0, 0.0),))
        assert rep.estimates == an.estimate_moments(origin, [2], 4, seed=3).estimates


# (kind, d, k, t, seed) and the oracle's exact log_mean, log_stderr, resamplings
FK_PINNED = [
    ("riesz", 1, 2, 1.0, 5, 2.2495227229112817, 0.020087691558300043, 0),
    ("riesz", 1, 5, 1.0, 2, 23.454410629390974, 0.06792839870384652, 11),
    ("riesz", 1, 9, 1.0, 5, 90.71538600553426, 0.42909576370668595, 34),
    ("riesz", 2, 5, 1.0, 2, 30.49034570806728, 0.3916550154751353, 34),
    ("riesz", 2, 9, 0.5, 8, 88.00849007774423, 7.370136650829403, 54),
    ("gaussian_h", 3, 2, 1.0, 5, 3.143304222435866, 0.04165041463902215, 1),
    ("gaussian_h", 3, 5, 1.0, 5, 36.717786603103015, 0.6656809592152475, 21),
    ("gaussian_h", 3, 9, 1.0, 1, 140.29939533349415, 0.4742218182406056, 45),
]


class TestFkOracle:
    def test_constant_model_is_exact(self):
        # Equal weights never resample, so the closed form stays exact even
        # at the strong coupling (exponent 40) of the second model.
        cfg = an.FkOracleConfig(walkers=32, inner_steps=16, seed=0)
        for d, level, ks in ((1, 0.3, (2, 3, 4)), (2, 2.0, (5,))):
            c = sl.CorrelationModel.constant(d=d, c=level)
            for k in ks:
                res = an.fk_moment_oracle(c, 1.0, 1.0, k, cfg)
                assert res.estimate == pytest.approx(math.exp(level * k * (k - 1)), rel=1e-12)
                assert res.stderr == 0.0
                assert res.resamplings == 0

    def test_u0_level_scales_moments(self):
        c = sl.CorrelationModel.constant(d=1, c=0.2)
        cfg = an.FkOracleConfig(walkers=16, inner_steps=16, seed=0)
        r1 = an.fk_moment_oracle(c, 1.0, 0.5, 3, cfg, u0_level=1.0)
        r2 = an.fk_moment_oracle(c, 1.0, 0.5, 3, cfg, u0_level=2.0)
        assert r2.estimate == pytest.approx(8 * r1.estimate, rel=1e-12)

    def test_gaussian_model_against_independent_mc(self):
        res = an.fk_moment_oracle(
            GAUSS, 1.0, 0.25, 2, an.FkOracleConfig(walkers=20000, inner_steps=128, seed=2)
        )
        # independent simulation of the pair functional with its own rng
        rng = np.random.default_rng(99)
        M, S = 40000, 512
        dt = 0.25 / S
        inc = rng.normal(0, math.sqrt(2 * dt), (M, S))
        pos = np.cumsum(inc, axis=1)
        f0 = math.sqrt(math.pi)
        fvals = f0 * np.exp(-(pos**2) / 4.0)
        integ = dt * (0.5 * f0 + fvals[:, :-1].sum(axis=1) + 0.5 * fvals[:, -1])
        samples = np.exp(2 * integ)
        ind_est = float(samples.mean())
        ind_se = float(samples.std(ddof=1) / math.sqrt(M))
        z = abs(res.estimate - ind_est) / math.hypot(res.stderr, ind_se)
        assert z < 4.0, (res.estimate, ind_est, z)

    def test_riesz_supercritical_refused(self):
        m = sl.CorrelationModel.riesz(d=3, alpha=2.5, c0=1.0)
        with pytest.raises(an.AnalysisError):
            an.fk_moment_oracle(m, 1.0, 1.0, 2, an.FkOracleConfig(walkers=8, inner_steps=8))

    def test_riesz_alpha_equal_d_refused(self):
        # alpha = d = 1 fails Dalang's condition: the moments are infinite.
        m = sl.CorrelationModel.riesz(d=1, alpha=1.0, c0=1.0)
        with pytest.raises(an.AnalysisError, match=r"violates alpha < 1 = min\(d, 2\)"):
            an.fk_moment_oracle(m, 1.0, 1.0, 2, an.FkOracleConfig(walkers=8, inner_steps=8))

    def test_resampling_matches_pair_separation_pde(self):
        # For k=2 the separation X = sqrt(kappa) (b^1 - b^2) has generator
        # kappa d^2/dx^2, so E u_t^2 = v(t, 0) for dv/ds = kappa v'' + 2 f v,
        # v(0, .) = 1.  Crank-Nicolson on [-12, 12] with reflecting ends.
        # The stderr is a jackknife over 4 populations, so z has about 3
        # degrees of freedom: over seeds 0-29, one seed in 30 read |z| > 4,
        # both with the relative step (seed 0, z = 4.18) and with the
        # absolute one it replaced.
        width, amp, kappa, t = 0.5, 3.0, 1.0, 1.0
        model = sl.CorrelationModel.gaussian_h(d=1, width=width, amplitude=amp)
        res = an.fk_moment_oracle(
            model, kappa, t, 2, an.FkOracleConfig(walkers=20000, inner_steps=256, seed=1)
        )
        assert res.resamplings > 0
        x = np.linspace(-12.0, 12.0, 2401)
        h, n_t = x[1] - x[0], 2000
        ds = t / n_t
        pot = 2.0 * model.f_at_zero() * np.exp(-x * x / (4 * width**2))
        lap = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(x.size, x.size)).tolil()
        lap[0, 1] = lap[-1, -2] = 2.0
        op = (kappa / (h * h)) * lap.tocsc() + sparse.diags(pot)
        eye = sparse.identity(x.size, format="csc")
        step = splinalg.factorized((eye - 0.5 * ds * op).tocsc())
        explicit = (eye + 0.5 * ds * op).tocsc()
        v = np.ones(x.size)
        for _ in range(n_t):
            v = step(explicit @ v)
        target = math.log(v[x.size // 2])
        z = abs(res.log_mean - target) / res.log_stderr
        assert z < 4.0, (res.log_mean, target, res.log_stderr)

    @pytest.mark.parametrize(
        "kind, d, k, t, seed, log_mean, log_stderr, resamplings",
        FK_PINNED,
        ids=["-".join(map(str, case[:5])) for case in FK_PINNED],  # the case, not the values pinned
    )
    def test_seeded_bits_pinned(self, kind, d, k, t, seed, log_mean, log_stderr, resamplings):
        # Exact values of the walker step in relative coordinates: k - 1
        # motions drawn walkers-last, f summed over a (pairs, M) buffer whose
        # pairs (i, j) are ordered by j, the pairs of each j summed one
        # after another and the per-j sums added in a running sum.  Another
        # summation order moves the last bits: ordering the pairs by i
        # instead moves the gaussian_h k=5 case.
        if kind == "riesz":
            model = sl.CorrelationModel.riesz(d=d, alpha=0.5 if d == 1 else 1.0, c0=0.7)
        else:
            model = sl.CorrelationModel.gaussian_h(d=d, width=0.8, amplitude=1.0)
        res = an.fk_moment_oracle(model, 1.0, t, k, an.FkOracleConfig(walkers=600, inner_steps=48, seed=seed))
        assert (res.log_mean, res.log_stderr, res.resamplings) == (log_mean, log_stderr, resamplings)

    def test_relative_step_keeps_the_law(self):
        # The reference is the mean log_mean over seeds 0-23 of the step that
        # moved k absolute walkers (commit 5c1f180), at these settings, and
        # the stderr of that mean over the 24 seeds.  k = 5 reaches the pairs
        # (i, j) with i, j >= 1 and the mixing of the drawn motions, which
        # the k = 2 checks against the independent MC and the PDE do not.
        ref, ref_se = 30.744582506104084, 0.17441530678172348
        model = sl.CorrelationModel.riesz(d=2, alpha=1.0, c0=0.7)
        runs = [an.FkOracleConfig(walkers=600, inner_steps=48, seed=seed) for seed in range(24)]
        v = np.array([an.fk_moment_oracle(model, 1.0, 1.0, 5, cfg).log_mean for cfg in runs])
        se = float(np.std(v, ddof=1)) / math.sqrt(v.size)
        assert abs(float(np.mean(v)) - ref) < 4.0 * math.hypot(se, ref_se), (np.mean(v), se)

    def test_ladder_on_constant_model_is_exact(self):
        c = sl.CorrelationModel.constant(d=1, c=0.3)
        ladder = an._fk_ladder(c, 1.0, 1.0, [2, 3, 4], an.FkOracleConfig(walkers=32, inner_steps=16), 1.0)
        for k, res in zip((2, 3, 4), ladder):
            assert res.k == k
            assert res.estimate == pytest.approx(math.exp(0.3 * k * (k - 1)), rel=1e-12)

    def test_ladder_top_order_is_the_single_order_walk(self):
        # The ladder draws the block and mixes it as a lone call at its top
        # order does; without a resampling nothing else touches that order.
        cfg = an.FkOracleConfig(walkers=5000, inner_steps=256, seed=1)
        ladder = an._fk_ladder(GAUSS, 1.0, 0.25, [2, 3, 4], cfg, 1.0)
        assert [r.resamplings for r in ladder] == [0, 0, 0]
        assert ladder[-1] == an.fk_moment_oracle(GAUSS, 1.0, 0.25, 4, cfg)

    def test_ladder_orders_fork_and_keep_their_law(self):
        # Every order resamples, a different number of times: 5 and 3 each
        # leave the shared walk for a copy while 2 still reads it.  Each
        # must still read its own pair sum and agree with a lone call
        # at its order (an order that read the last row of the pair sums
        # after leaving puts k = 3 off by 23 stderrs).
        model = sl.CorrelationModel.riesz(d=2, alpha=1.0, c0=0.7)
        cfg = an.FkOracleConfig(walkers=4000, inner_steps=128, seed=7)
        ladder = an._fk_ladder(model, 1.0, 1.0, [2, 3, 5], cfg, 1.0)
        assert 0 < ladder[0].resamplings < ladder[1].resamplings < ladder[2].resamplings
        for res in ladder:
            alone = an.fk_moment_oracle(model, 1.0, 1.0, res.k, cfg)
            z = abs(res.log_mean - alone.log_mean) / math.hypot(res.log_stderr, alone.log_stderr)
            assert z < 4.0, (res.k, res.log_mean, alone.log_mean, z)

    def test_ladder_rows_follow_ks(self):
        ladder = an._fk_ladder(GAUSS, 1.0, 0.5, [3, 2, 3], an.FkOracleConfig(walkers=200, inner_steps=16), 1.0)
        assert [r.k for r in ladder] == [3, 2, 3]
        assert ladder[0] == ladder[2]

    def test_seed_rules(self):
        # a non-integral seed is refused by name when the config is built,
        # not inside numpy once the walk starts; an integral float or a numpy
        # integer walks the same generators as the int
        for seed, rule in ((2.5, "seed = 2.5 violates seed integral"), (-1, "violates 0 <= seed < 2"),
                           (2**63, "violates 0 <= seed < 2")):
            with pytest.raises(noise.NoiseError, match=rule):
                an.FkOracleConfig(walkers=8, inner_steps=8, seed=seed)
        runs = [an.fk_moment_oracle(GAUSS, 1.0, 0.5, 2, an.FkOracleConfig(walkers=64, inner_steps=8, seed=seed))
                for seed in (3, 3.0, np.int64(3))]
        assert runs[0] == runs[1] == runs[2]
        # so are non-integral walker and step counts; integral floats are kept as ints
        for walkers, inner_steps, rule in ((10.5, 8, "walkers = 10.5 violates walkers integral"),
                                           (8, 4.5, "inner_steps = 4.5 violates inner_steps integral")):
            with pytest.raises(an.AnalysisError, match=rule):
                an.FkOracleConfig(walkers=walkers, inner_steps=inner_steps)
        cfg = an.FkOracleConfig(walkers=64.0, inner_steps=np.int64(8), seed=3)
        assert (type(cfg.walkers), type(cfg.inner_steps)) == (int, int)
        assert an.fk_moment_oracle(GAUSS, 1.0, 0.5, 2, cfg) == runs[0]

    def test_order_validation(self):
        c = sl.CorrelationModel.constant(d=1, c=0.3)
        with pytest.raises(an.AnalysisError):
            an.fk_moment_oracle(c, 1.0, 1.0, 1, an.FkOracleConfig(walkers=8, inner_steps=8))
        # a non-integral order is refused by rule; an integral float runs as the int
        ocfg = an.FkOracleConfig(walkers=8, inner_steps=8)
        with pytest.raises(an.AnalysisError, match="k = 2.5 violates k integral"):
            an.fk_moment_oracle(c, 1.0, 1.0, 2.5, ocfg)
        for k in (2.0, np.int64(2)):
            assert an.fk_moment_oracle(c, 1.0, 1.0, k, ocfg) == an.fk_moment_oracle(c, 1.0, 1.0, 2, ocfg)


class TestExponentFits:
    def test_fluctuation_psi_recovered_exactly(self):
        R = np.array([16.0, 32.0, 64.0, 128.0])
        fit = an.fluctuation_exponent(R, 3.0 * np.log(R) ** 0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_fluctuation_drops_nonpositive(self):
        R = np.array([4.0, 8.0, 16.0, 32.0])
        y = np.array([-0.1, 1.0, 1.2, 1.4])
        fit = an.fluctuation_exponent(R, y)
        assert fit.abscissae == [8.0, 16.0, 32.0]

    def test_two_rungs_have_no_slope_stderr(self):
        # two points fit a line exactly; a third gives the residual its one degree of freedom
        two = an.fluctuation_exponent([4.0, 8.0], [1.0, 1.3])
        assert math.isnan(two.stderr) and two.r2 == 1.0
        three = an.fluctuation_exponent([4.0, 8.0, 16.0], [1.0, 1.3, 1.5])
        assert (three.exponent, three.stderr) == (0.5890389057180476, 0.0415509225064833)

    def test_fluctuation_validation(self):
        with pytest.raises(an.AnalysisError):
            an.fluctuation_exponent([1.0, 2.0], [1.0, 2.0])  # R=1 not allowed
        with pytest.raises(an.AnalysisError):
            an.fluctuation_exponent([4.0, 4.0], [1.0, 2.0])

    def test_growth_theta_on_pure_power(self):
        ks = [2, 3, 4, 5, 6]
        fit = an.moment_growth_exponent(ks, [0.05 * k * k for k in ks], [False] * 5)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_growth_theta_with_linear_nuisance(self):
        # log-moment c t k(k-1) + k log u0: the linear piece must not bias theta
        ks = [2, 3, 4, 5, 6, 8]
        fit = an.moment_growth_exponent(ks, [0.3 * k * (k - 1) + k * math.log(1.7) for k in ks], [False] * 6)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_growth_stderr_with_four_points(self):
        # each delete-one refit fits three points exactly
        ks = [2, 3, 4, 5]
        cases = (([0.3 * k * (k - 1) for k in ks], 2.0, 0.0), (np.log([2.0, 8.0, 60.0, 900.0]), 1.97, 0.14))
        for log_moments, theta, stderr in cases:
            fit = an.moment_growth_exponent(ks, log_moments, [False] * 4)
            assert fit.exponent == pytest.approx(theta, abs=0.01)
            assert fit.stderr == pytest.approx(stderr, abs=0.01)  # not NaN

    def test_growth_needs_four_points(self):
        with pytest.raises(an.AnalysisError):
            an.moment_growth_exponent([2, 3, 4], np.log([1.0, 2.0, 4.0]), [False] * 3)

    def test_growth_fit_survives_overflowing_moments(self):
        # exact theta = 2 (log E u^k = c t k(k-1)); k = 7 and 8 overflow a
        # float, so only log-moments keep every order in the fit
        ks = list(range(2, 9))
        cfg = an.FkOracleConfig(walkers=100, inner_steps=4, seed=1)
        results = [an.fk_moment_oracle(sl.CorrelationModel.constant(d=1, c=2.0), 1.0, 10.0, k, cfg) for k in ks]
        assert [math.isinf(r.estimate) for r in results] == [False] * 5 + [True] * 2
        fit = an.moment_growth_exponent(ks, [r.log_mean for r in results], [r.heavy_tail for r in results])
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.abscissae == ks

    @pytest.mark.parametrize("bad, flagged", [(math.nan, False), (-math.inf, False), (0.0, True)])
    def test_growth_fit_leaves_out_nonfinite_as_flagged(self, bad, flagged):
        ks = [2, 3, 4, 5, 6]
        logm = [0.3 * k * (k - 1) for k in ks]
        logm[2] = bad
        fit = an.moment_growth_exponent(ks, logm, [False, False, flagged, False, False])
        assert fit.abscissae == [2, 3, 5, 6]
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)


class TestSupAndTails:
    def test_tail_probability_counts(self):
        cfg = small_cfg(sl.SigmaFunction.constant(eps0=0.5))
        probe = an.boundedness_probe(an.Scenario(cfg=cfg, t_final=0.25), [2.0, 4.0], 200, seed=3)
        est = an.tail_estimate(probe.samples[:, -1], 2.72)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.n == 200
        assert est.lo <= est.p_hat <= est.hi

    def test_tail_threshold_floor(self):
        with pytest.raises(an.AnalysisError):
            an.tail_estimate(np.ones(10), 2.0)


class TestBoundednessProbe:
    def test_shapes_and_pairing(self):
        cfg = small_cfg(sl.SigmaFunction.constant(eps0=0.5))
        scen = an.Scenario(cfg=cfg, t_final=0.25)
        probe = an.boundedness_probe(scen, [2.0, 4.0, 6.0], 64, seed=1, threads=2)
        assert probe.samples.shape == (64, 3)
        assert len(probe.increments) == 2
        # sups are monotone in the radius replica by replica
        assert np.all(np.diff(probe.samples, axis=1) >= 0)
        assert probe.verdict in ("saturating", "growing", "inconclusive")

    def test_radius_ladder_validation(self):
        cfg = small_cfg()
        scen = an.Scenario(cfg=cfg, t_final=0.25)
        with pytest.raises(an.AnalysisError):
            an.boundedness_probe(scen, [4.0, 2.0], 8)
        with pytest.raises(an.AnalysisError):
            an.boundedness_probe(scen, [4.0], 8)
        with pytest.raises(an.AnalysisError, match="replicas = 4.5 violates replicas integral"):
            an.boundedness_probe(scen, [2.0, 4.0], 4.5)


class TestLocalizationCurve:
    def test_errors_decrease_along_beta_ladder(self):
        cfg = small_cfg()
        curve = an.localization_error_curve(cfg, 0.25, [2.0, 4.0, 7.9], k=2, n_replicas=48, seed=17)
        assert len(curve.errors) == 3
        assert curve.errors[0] > curve.errors[1] > curve.errors[2]
        assert curve.decay_rate > 0
        slope = np.polyfit(np.log(curve.betas), np.log(curve.errors), 1)[0]
        assert curve.decay_rate == pytest.approx(-slope, abs=1e-12)

    def test_rows_pinned(self):
        # exact bytes of a three-beta curve (depths 1, 2 and 3); a change to
        # any seeded number shows here
        curve = an.localization_error_curve(small_cfg(), 0.25, [2.0, 4.0, 7.9], k=2, n_replicas=48, seed=17)
        assert hashlib.sha256(np.array([curve.errors, curve.stderrs]).tobytes()).hexdigest() == (
            "1fbd7036b0a3dab2bfb130155ef87abc3d18c32f36696567c7cb9b7c00c19ece"
        )

    def test_one_noise_draw_per_chunk(self, monkeypatch):
        # the full solve and every beta share one draw of the chunk's noise
        # (generators, steps) per draw: the 16 steps of the chunk's 6 streams
        # in blocks of BLOCK = 4, each drawn once
        calls = []
        draw = noise._draw

        def counted(rngs, grid, dt, out):
            calls.append(out.shape[:2])
            return draw(rngs, grid, dt, out)

        monkeypatch.setattr(noise, "_draw", counted)
        an.localization_error_curve(small_cfg(), 0.25, [2.0, 4.0, 7.9], k=2, n_replicas=6, seed=17)
        assert calls == [(6, 4)] * (round(0.25 / DT) // 4)

    def test_shared_noise_matches_separate_solves(self):
        # the full solve and the localized iterates read one draw of the
        # noise; none of them may write into it
        cfg, betas, streams = small_cfg(), [2.0, 4.0, 7.9], range(5)
        locs = [sl.LocalizationConfig(beta=b) for b in betas]
        full = sl.solve_batch(cfg, 0.25, 17, streams)
        rows = [sl.localized_solve_batch(cfg, loc, 0.25, 17, streams) for loc in locs]
        coupled = list(an._coupled_batch(cfg, [None] + locs, 0.25, 17, streams))
        assert coupled[0].tobytes() == full.tobytes()
        for got, want in zip(coupled[1:], rows):
            assert got.tobytes() == want.tobytes()
        curve = an.localization_error_curve(cfg, 0.25, betas, k=2, n_replicas=5, seed=17)
        for bi, approx in enumerate(rows):
            moment = (np.abs(full - approx) ** 2).reshape(5, -1).mean(axis=1)
            err = an.jackknife_stat(moment, "mean")[0] ** 0.5
            assert curve.errors[bi] == err

    def test_beta_ladder_validation(self):
        cfg = small_cfg()
        with pytest.raises(an.AnalysisError):
            an.localization_error_curve(cfg, 0.25, [4.0, 4.0], k=2, n_replicas=8)
        with pytest.raises(an.AnalysisError):
            an.localization_error_curve(cfg, 0.25, [4.0, 2.0], k=0, n_replicas=8)
        with pytest.raises(an.AnalysisError, match="nonempty"):
            an.localization_error_curve(cfg, 0.25, [], k=2, n_replicas=8)
        with pytest.raises(an.AnalysisError, match="k = 0 violates k >= 1"):
            an.localization_error_curve(cfg, 0.25, [2.0, 4.0], k=0, n_replicas=8)
        with pytest.raises(an.AnalysisError, match="replicas = 4.5 violates replicas integral"):
            an.localization_error_curve(cfg, 0.25, [2.0, 4.0], k=2, n_replicas=4.5)
        want = an.localization_error_curve(cfg, 0.25, [2.0, 4.0], k=2, n_replicas=4)
        assert an.localization_error_curve(cfg, 0.25, [2.0, 4.0], k=2, n_replicas=4.0) == want


def separation_cfg():
    # a d = 2 torus of period 4
    return sl.SolverConfig(
        grid=sl.LatticeGrid(d=2, m=16, dx=0.25),
        model=sl.CorrelationModel.gaussian_h(d=2, width=1.0, amplitude=1.0),
        sigma=sl.SigmaFunction.linear(c=1.0),
        kappa=1.0,
        dt=1 / 128,
    )


class TestIndependence:
    def test_far_points_pass_on_cutoff_noise(self):
        # required separation: 2 * depth 2 * beta 3 * (1 + sqrt(0.25)) = 18,
        # so the torus needs a period of at least 36 to hold two points that
        # far apart; this one has 64
        cfg = dataclasses.replace(small_cfg(), grid=sl.LatticeGrid(d=1, m=256, dx=0.25))
        loc = sl.LocalizationConfig(beta=3.0)
        res = an.independence_test(cfg, loc, 0.25, [(-10.0,), (10.0,)], 400, seed=23)
        assert res.required_separation == pytest.approx(2 * 2 * 3.0 * 1.5)
        assert res.separations[0, 1] == 20.0
        assert res.null_band == pytest.approx(4 / math.sqrt(400))
        assert res.exact
        assert res.passed
        assert res.max_abs_offdiag < res.null_band

    def test_close_points_fail(self):
        cfg = small_cfg()
        loc = sl.LocalizationConfig(beta=3.0)  # depth 2
        res = an.independence_test(cfg, loc, 0.25, [(0.0,), (0.5,)], 400, seed=23)
        assert not res.exact
        assert not res.passed
        assert res.max_abs_offdiag > res.null_band

    def test_separation_is_the_smallest_coordinate_gap(self):
        # the conservative metric for disjoint box windows: the smallest
        # per-coordinate distance, not the Euclidean one; no pair wraps here
        pts = [(0.0, 0.0), (0.75, 1.0), (-0.5, -0.25)]
        res = an.independence_test(separation_cfg(), sl.LocalizationConfig(beta=1.5), 0.25, pts, 8, seed=5)
        assert res.separations[0, 1] == pytest.approx(0.75)
        assert res.separations[0, 2] == pytest.approx(0.25)
        assert res.separations[1, 2] == pytest.approx(1.25)
        np.testing.assert_array_equal(res.separations, res.separations.T)
        assert np.all(np.diag(res.separations) == math.inf)

    def test_separation_takes_the_torus_minimal_image(self):
        # on a period-4 torus the third point is 0.35 from the second in x,
        # wrapping
        cfg = separation_cfg()
        pts = [(0.0, 0.0), (1.75, -1.5), (-1.9, 1.0)]
        res = an.independence_test(cfg, sl.LocalizationConfig(beta=1.5), 0.25, pts, 8, seed=5)
        L = cfg.grid.period
        for a, x in enumerate(pts):
            for b, y in enumerate(pts):
                if a == b:
                    assert res.separations[a, b] == math.inf
                else:
                    brute = min(abs(xl - yl - k * L) for xl, yl in zip(x, y) for k in (-1, 0, 1))
                    assert res.separations[a, b] == pytest.approx(brute, rel=1e-12)
        assert res.separations[1, 2] == pytest.approx(0.35)

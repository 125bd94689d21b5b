"""
Moment estimation and the path-integral oracle
==============================================

Two independent routes to E[u_t(x)^k] for the multiplicative model:
plain Monte Carlo over lattice paths, and a Feynman-Kac walker average
that never touches the lattice.  They must meet in the middle.
"""

import math

import numpy as np

import shelab as sl
import shelab.analysis as an

kappa, t = 1.0, 0.25
model = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0)

# Oracle: k independent Brownian walkers, exponentiate the ordered pairwise
# f-integral, average.  For flat f the integrand is deterministic, so the
# result is exact; that is the sanity anchor.
flat = sl.CorrelationModel.constant(d=1, c=0.3)
res = sl.fk_moment_oracle(flat, kappa, 1.0, 3, an.FkOracleConfig(walkers=2000, inner_steps=32, seed=1))
print(f"flat-kernel oracle, k=3: {res.estimate:.12f} vs closed form {math.exp(0.3 * 6):.12f}")

oracle = sl.fk_moment_oracle(
    model, kappa, t, 2, an.FkOracleConfig(walkers=50_000, inner_steps=256, seed=7)
)
print(f"riesz oracle, k=2: {oracle.estimate:.4f} +- {oracle.stderr:.4f} "
      f"(heavy_tail={oracle.heavy_tail})")

# Lattice side.  The oracle exponent counts ordered pairs, which doubles
# the unordered sum, so the matching lattice coupling is sqrt(2).
cfg = sl.SolverConfig(
    grid=sl.LatticeGrid(d=1, m=256, dx=0.125),
    model=model,
    sigma=sl.SigmaFunction.linear(c=math.sqrt(2.0)),
    kappa=kappa,
    dt=1 / 256,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
scen = an.Scenario(cfg=cfg, t_final=t, probes=((0.0,),))
rep = an.estimate_moments(scen, [2], 4000, seed=11)
print(f"lattice estimate, k=2: {rep.estimates[0]:.4f} +- {rep.stderrs[0]:.4f}")

# Moment growth across k: flat kernels give log E u^k = c t k(k-1), a pure
# square-plus-linear shape, and the profiled fit recovers exponent 2.
ks = list(range(2, 9))
results = [sl.fk_moment_oracle(flat, kappa, 1.0, k, an.FkOracleConfig(walkers=2000, inner_steps=16, seed=1)) for k in ks]
log_moments = [r.log_mean for r in results]
fit = sl.moment_growth_exponent(ks, log_moments, [r.heavy_tail for r in results])
naive = np.polyfit(np.log(ks), np.log(log_moments), 1)[0]  # slope of log log-moment against log k
print(f"flat-kernel growth exponent: theta={fit.exponent:.4f} "
      f"(naive loglog slope {naive:.2f} overshoots; the k(k-1) "
      f"linear part needs its own term)")

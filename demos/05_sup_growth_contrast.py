"""
Does the peak keep growing with the observation window?
=======================================================

Contrast two regimes of the same equation.  With flat initial data and a
noise coefficient bounded away from zero and infinity, the spatial sup
over |x| <= R keeps creeping up like sqrt(log R).  With decaying initial
data and sigma(0) = 0, the noise switches itself off away from the bump
and the sup saturates.  Last, the tail P(sup over a ball > lambda) is read
off a probe's per-replica sups with tail_estimate.
"""

import shelab as sl
import shelab.analysis as an

grid = sl.LatticeGrid(d=1, m=1024, dx=0.25)
radii = [16.0, 32.0, 64.0, 128.0]

growing_cfg = sl.SolverConfig(
    grid=grid,
    model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=0.4),
    sigma=sl.SigmaFunction.bounded_both(),       # 1 + 0.5 sin u, in [0.5, 1.5]
    kappa=1.0,
    dt=1 / 64,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
probe = sl.boundedness_probe(sl.Scenario(cfg=growing_cfg, t_final=0.5), radii, 96, seed=23)
print(f"flat u0, bounded sigma: verdict = {probe.verdict}")
for r, s, ls in zip(probe.radii, probe.mean_sup, probe.mean_log_sup):
    print(f"  R={r:5.0f}  mean sup={s:.4f}  mean log sup={ls:.4f}")

fit = an.fluctuation_exponent(probe.radii, probe.mean_log_sup)
print(f"fitted log u*(R) ~ A (log R)^psi: psi = {fit.exponent:.3f} (sqrt-log growth is psi = 1/2)")

saturating_cfg = sl.SolverConfig(
    grid=grid,
    model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
    sigma=sl.SigmaFunction.lipschitz_zero(1.0),  # sigma(u) = u/(1+u^2), zero at zero
    kappa=1.0,
    dt=1 / 64,
    u0=sl.U0Spec(kind="gaussian_decay", level=1.0),
)
probe2 = sl.boundedness_probe(sl.Scenario(cfg=saturating_cfg, t_final=0.5), radii, 96, seed=23)
print(f"\ndecaying u0, sigma(0)=0: verdict = {probe2.verdict}")
print(f"  mean sup per R: {[round(v, 4) for v in probe2.mean_sup]}")
print(f"  ladder increments: {probe2.increments}")

# Tail weight of the growing field's sup over a fixed ball: the share of a
# probe's per-replica sups over R=16 that exceed 3.
tail_probe = sl.boundedness_probe(sl.Scenario(cfg=growing_cfg, t_final=0.5), radii, 2000, seed=9)
tail = sl.tail_estimate(tail_probe.samples[:, 0], 3.0)
print(f"\nP(sup over R=16 > 3): {tail.p_hat:.5f}  Wilson 95% [{tail.lo:.5f}, {tail.hi:.5f}]")

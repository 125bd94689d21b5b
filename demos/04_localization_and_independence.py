"""
Localized solves: finite noise range, finite dependence range
=============================================================

The localized field tapers the noise kernel at level beta, restricts every
stochastic convolution to the window |x| <= beta sqrt(t), and runs finitely
many Picard sweeps.  Two consequences worth seeing at the terminal:

  * coupled to the full solve on the same noise, the L2 error drops as
    beta grows;
  * values at sites separated by more than 2 n beta (1 + sqrt(t)) in some
    coordinate are exactly independent, and the bound is nearly sharp.
"""

import shelab as sl
import shelab.analysis as an

# Error ladder, paired noise.
cfg = sl.SolverConfig(
    grid=sl.LatticeGrid(d=1, m=512, dx=0.25),
    model=sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0),
    sigma=sl.SigmaFunction.linear(c=1.0),
    kappa=1.0,
    dt=1 / 64,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
curve = an.localization_error_curve(cfg, 0.25, [4.0, 8.0, 16.0, 32.0], k=2, n_replicas=32, seed=3)
print("coupled |u - U(beta)| error ladder:")
for beta, err in zip(curve.betas, curve.errors):
    print(f"  beta={beta:5.1f}  error={err:.5f}")
if curve.decay_rate is not None:
    print(f"decay rate from the fit: {curve.decay_rate:.2f}")

# Independence versus separation.  beta=1 runs one Picard sweep; at t=4 the
# noise window has radius 2, so sites 6 apart share nothing while sites 3
# apart share a stretch of noise.
rcfg = sl.SolverConfig(
    grid=sl.LatticeGrid(d=1, m=128, dx=0.25),
    model=sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0),
    sigma=sl.SigmaFunction.linear(c=1.0),
    kappa=1.0,
    dt=0.25,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
loc = sl.LocalizationConfig(beta=1.0)
far = an.independence_test(rcfg, loc, 4.0, [(0.0,), (6.0,), (12.0,)], 2000, seed=11)
near = an.independence_test(rcfg, loc, 4.0, [(0.0,), (3.0,)], 2000, seed=11)
print(f"\nrequired separation: {far.required_separation:.1f}")
print(f"separation 6: max |corr| = {far.max_abs_offdiag:.4f}  (null band {far.null_band:.4f})")
print(f"separation 3: max |corr| = {near.max_abs_offdiag:.4f}  -> windows overlap, correlated")

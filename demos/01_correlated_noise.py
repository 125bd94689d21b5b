"""
Spatially correlated noise from a convolution kernel
====================================================

Builds the three correlation models, shows their pointwise covariance and
spectral density, then generates correlated white-in-time slices on a
lattice and checks the empirical lag covariance against dt * f_eff.
"""

import numpy as np

import shelab as sl

# Three ways to correlate the noise in space.  gaussian_h smooths white
# noise with a Gaussian bump, riesz has a power-law kernel, constant is a
# single shared Gaussian per time step (no spatial structure to resolve).
gauss = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)
riesz = sl.CorrelationModel.riesz(d=1, alpha=0.5, c0=1.0)
flat = sl.CorrelationModel.constant(d=1, c=0.3)

print("pointwise covariance f(x):")
for x in (0.5, 1.0, 2.0, 4.0):
    print(
        f"  x={x:.1f}  gaussian_h={sl.evaluate_f(gauss, x):.4f}"
        f"  riesz={sl.evaluate_f(riesz, x):.4f}  constant={sl.evaluate_f(flat, x):.4f}"
    )
print(f"riesz f(0) is infinite: {sl.evaluate_f(riesz, 0.0)}")

print("\nspectral density f_hat(xi):")
for xi in (0.5, 1.0, 2.0):
    print(f"  xi={xi:.1f}  gaussian_h={sl.spectral_density(gauss, xi):.4f}  riesz={sl.spectral_density(riesz, xi):.4f}")

# The existence question for the driving field: the resolvent integral
# int f_hat(xi) / (1 + |xi|^2) dxi must be finite.
for model in (gauss, riesz):
    res = sl.dalang_condition(model)
    print(f"\n{model.kind}: finite={res.finite}  integral={res.integral}  ({res.reason})")

# Lattice noise slices.  Each slice is one time increment of the smoothed
# field; slices are independent in time, correlated in space.  Slice j of a
# stream is a pure function of (seed, stream id, j), so any step can be drawn
# without drawing the ones before it.
grid = sl.LatticeGrid(d=1, m=128, dx=0.25)
dt = 1.0 / 64
src = sl.WhiteNoiseSource(seed=42, stream_id=0)
white = src.white_at(0, grid, dt)
slice0 = sl.correlate_array(white, gauss, grid)
print(f"\none noise slice: shape={slice0.shape}, std={slice0.std():.4f}")

# Short self-test: empirical lag covariance over 20k slices vs dt * f_eff.
rows, cross = sl.covariance_selftest(gauss, grid, dt, [0, 2, 5], 20_000, seed=1)
print("\nlag covariance check (20k slices):")
for r in rows:
    z = (r["empirical"] - r["target"]) / r["stderr"]
    print(f"  lag={r['lag_distance']:.2f}  target={r['target']:.3e}  empirical={r['empirical']:.3e}  z={z:+.2f}")
print(f"cross-time product (should sit in a null band): z={cross['mean'] / cross['stderr']:+.2f}")

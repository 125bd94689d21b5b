"""
Solving the stochastic heat equation on a periodic lattice
==========================================================

Solves du = (kappa/2) Lap u dt + sigma(u) dF with Gaussian-kernel noise
through solve_batch, which evolves one replica per stream id (a single path
is a batch of one).  With additive noise (constant sigma) the
exponential-Euler scheme is linear in the noise, so solve_batch draws the
final field from its exact law in one step; the parabolic Anderson run
steps the scheme in real space.  The demo checks the additive-noise variance
against its closed quadrature and round-trips a snapshot file.
"""

import math
import tempfile

import numpy as np
from scipy import integrate

import shelab as sl
import shelab.experiments as exp

grid = sl.LatticeGrid(d=1, m=256, dx=0.25)
model = sl.CorrelationModel.gaussian_h(d=1, width=1.0, amplitude=1.0)

# Additive noise first: sigma == 1 keeps the solution Gaussian, so the
# variance at any site has a quadrature form we can integrate directly.
cfg = sl.SolverConfig(
    grid=grid,
    model=model,
    sigma=sl.SigmaFunction.constant(eps0=1.0),
    kappa=1.0,
    dt=1 / 256,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
t_final = 0.5

# A run evolves a batch of replicas, one per stream id; take the first.
path = sl.solve_batch(cfg, t_final, 5, [0])[0]
print(f"one path: t={t_final}, sites={path.shape}, mean={path.mean():.4f}, max={path.max():.4f}")

# 2000 replicas, each replica is one stream id of the same seed.
vals = sl.solve_batch(cfg, t_final, 5, list(range(2000)))
var_hat = vals[:, 0].var(ddof=1)

fhat = lambda xi: 2 * math.pi * math.exp(-xi * xi)
target, _ = integrate.quad(
    lambda xi: fhat(xi) * (1 - math.exp(-t_final * xi * xi)) / (xi * xi), 1e-12, np.inf
)
target /= math.pi
print(f"Var u(x0): sampled={var_hat:.4f}  quadrature={target:.4f}")

# Multiplicative noise: sigma(u) = u is the parabolic Anderson model.
# Paths stay positive and develop tall isolated peaks.
pam = sl.SolverConfig(
    grid=grid,
    model=model,
    sigma=sl.SigmaFunction.linear(c=1.0),
    kappa=1.0,
    dt=1 / 256,
    u0=sl.U0Spec(kind="constant", level=1.0),
)
pam_path = sl.solve_batch(pam, t_final, 5, [0])[0]
ratio = pam_path.max() / np.median(pam_path)
print(f"multiplicative path: min={pam_path.min():.4f}  peak/median={ratio:.2f}")

# Snapshots are one JSON header line (grid, kappa and sigma kind from the
# config) plus raw doubles; they reload exactly.
with tempfile.TemporaryDirectory() as tmp:
    snap = f"{tmp}/field.snap"
    exp.save_snapshot(snap, pam, t_final, pam_path, seed=5)
    header, data = exp.load_snapshot(snap)
    print(f"snapshot round trip: exact={np.array_equal(data, pam_path)}  t={header['t']}")

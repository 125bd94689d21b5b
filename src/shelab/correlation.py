"""Spatial correlation models for the driving noise.

A model describes a stationary covariance functional f for a Gaussian noise
field that is white in time and colored in space.  Every model is either
given through a convolution kernel h with f = h * h~ (h~(x) = h(-x)), or as
a closed form with a known spectral density.  The Fourier convention is

    g_hat(xi) = integral exp(i x . xi) g(x) dx,

so f_hat = |h_hat|^2 and f(0) = (2 pi)^{-d} integral f_hat.

Three kinds are supported:

``riesz``
    f(x) = c0 |x|^{-alpha} with 0 < alpha <= d.  The spectral density is
    f_hat(xi) = c0 * C(d, d - alpha) |xi|^{-(d-alpha)} where
    C(d, p) = pi^{d/2} 2^{d-p} Gamma((d-p)/2) / Gamma(p/2).  At alpha == d
    the constant has a Gamma pole and spectral operations are unavailable;
    pointwise evaluation away from the origin still works.  The model
    admits alpha == d so that dalang_condition can report that boundary as
    infinite: the equation has a solution only for alpha < min(d, 2), and
    the path-integral oracle refuses alpha == d.

``gaussian_h``
    h(x) = amplitude * exp(-|x|^2 / (2 width^2)), hence
    f(x)     = amplitude^2 (sqrt(pi) width)^d exp(-|x|^2 / (4 width^2)),
    f_hat(xi) = amplitude^2 (2 pi width^2)^d exp(-width^2 |xi|^2).

``constant``
    f(x) = c.  No kernel h and no spectral density function (the spectral
    measure is a point mass at 0); used for closed-form oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import integrate, optimize, special

RIESZ = "riesz"
GAUSSIAN_H = "gaussian_h"
CONSTANT = "constant"

_KINDS = (RIESZ, GAUSSIAN_H, CONSTANT)


class CorrelationError(ValueError):
    """Raised for invalid model parameters or unsupported operations."""


@dataclass(frozen=True)
class CorrelationModel:
    """Immutable description of one spatial correlation model."""

    kind: str
    d: int
    alpha: Optional[float] = None
    c0: Optional[float] = None
    width: Optional[float] = None
    amplitude: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CorrelationError(f"unknown correlation kind {self.kind!r}")
        if not (isinstance(self.d, (int, np.integer)) and 1 <= self.d <= 3):
            raise CorrelationError(f"dimension d must be an integer in 1..3, got {self.d!r}")
        if self.kind == RIESZ:
            if self.alpha is None or self.c0 is None:
                raise CorrelationError("riesz model needs alpha and c0")
            if not (0.0 < self.alpha <= self.d):
                raise CorrelationError(
                    f"riesz exponent must satisfy 0 < alpha <= d, got alpha={self.alpha}, d={self.d}"
                )
            if self.c0 <= 0:
                raise CorrelationError("riesz strength c0 must be positive")
        elif self.kind == GAUSSIAN_H:
            if self.width is None or self.amplitude is None:
                raise CorrelationError("gaussian_h model needs width and amplitude")
            if self.width <= 0 or self.amplitude <= 0:
                raise CorrelationError("gaussian_h width and amplitude must be positive")
        else:
            if self.c is None or self.c <= 0:
                raise CorrelationError("constant model needs a positive level c")

    @classmethod
    def riesz(cls, d: int, alpha: float, c0: float = 1.0) -> "CorrelationModel":
        return cls(kind=RIESZ, d=d, alpha=alpha, c0=c0)

    @classmethod
    def gaussian_h(cls, d: int, width: float, amplitude: float = 1.0) -> "CorrelationModel":
        return cls(kind=GAUSSIAN_H, d=d, width=width, amplitude=amplitude)

    @classmethod
    def constant(cls, d: int, c: float) -> "CorrelationModel":
        return cls(kind=CONSTANT, d=d, c=c)

    @property
    def is_bounded(self) -> bool:
        return self.kind != RIESZ

    @property
    def has_kernel(self) -> bool:
        """Whether the model exposes a convolution kernel h for noise synthesis."""
        if self.kind == CONSTANT:
            return False
        if self.kind == RIESZ:
            return self.alpha < self.d
        return True

    def f_at_zero(self) -> float:
        """f(0); infinite for the riesz kind."""
        if self.kind == RIESZ:
            return math.inf
        if self.kind == GAUSSIAN_H:
            return self.amplitude**2 * (math.sqrt(math.pi) * self.width) ** self.d
        return self.c

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "d": self.d}
        if self.kind == RIESZ:
            out["alpha"] = self.alpha
            out["c0"] = self.c0
        elif self.kind == GAUSSIAN_H:
            out["width"] = self.width
            out["amplitude"] = self.amplitude
        else:
            out["c"] = self.c
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "CorrelationModel":
        if not isinstance(spec, dict) or "kind" not in spec:
            raise CorrelationError("model spec must be a dict with a 'kind' key")
        known = {"kind", "d", "alpha", "c0", "width", "amplitude", "c"}
        extra = set(spec) - known
        if extra:
            raise CorrelationError(f"unknown model keys: {sorted(extra)}")
        return cls(**spec)


@dataclass(frozen=True)
class CutoffConfig:
    """Compact-support taper level for the convolution kernel.

    The tapered kernel is h_n(x) = h(x) * prod_j max(0, 1 - |x_j|/n); its
    support is the box |x_j| <= n.
    """

    n: float

    def __post_init__(self):
        if not (self.n >= 1.0):
            raise CorrelationError(f"cutoff level must be >= 1, got {self.n}")


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)


def riesz_spectral_constant(d: int, p: float) -> float:
    """C(d, p) = pi^{d/2} 2^{d-p} Gamma((d-p)/2) / Gamma(p/2) for 0 < p < d."""
    if not (0.0 < p < d):
        raise CorrelationError(f"spectral constant needs 0 < p < d, got p={p}, d={d}")
    return math.pi ** (d / 2.0) * 2.0 ** (d - p) * special.gamma((d - p) / 2.0) / special.gamma(p / 2.0)


def _as_points(x, d: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        if d != 1:
            raise CorrelationError(f"scalar point given for d={d}")
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        if d == 1:
            pts = pts.reshape(-1, 1)
        elif pts.shape[0] == d:
            pts = pts.reshape(1, d)
        else:
            raise CorrelationError(f"point shape {pts.shape} incompatible with d={d}")
    elif pts.shape[-1] != d:
        raise CorrelationError(f"point shape {pts.shape} incompatible with d={d}")
    return pts


def evaluate_f(model: CorrelationModel, x) -> np.ndarray:
    """Pointwise correlation f(x).

    Accepts a scalar (d=1), a single point of length d, or an array of
    points with trailing axis d.  For the riesz kind the origin returns
    inf, the flagged singular value; grid-level work wants
    regularize_f_at_zero instead.
    """
    pts = _as_points(x, model.d)
    vals = evaluate_f_radial(model, np.sqrt(np.sum(pts * pts, axis=-1)))
    return vals[0] if vals.shape == (1,) else vals


def evaluate_f_radial(model: CorrelationModel, r) -> np.ndarray:
    """f as a function of the radius |x|; riesz is infinite at r = 0."""
    r = np.asarray(r, dtype=float)
    if model.kind == RIESZ:
        with np.errstate(divide="ignore"):
            return model.c0 * r ** (-model.alpha)
    if model.kind == GAUSSIAN_H:
        return model.f_at_zero() * np.exp(-(r * r) / (4.0 * model.width**2))
    return np.full_like(r, model.c)


def spectral_density(model: CorrelationModel, xi) -> np.ndarray:
    """Spectral density f_hat(xi); radial in |xi|.

    Errors for the constant kind (point-mass spectral measure) and for a
    riesz model at alpha == d (Gamma pole in the normalizing constant).
    The riesz density is infinite at xi = 0.
    """
    if model.kind == CONSTANT:
        raise CorrelationError("constant correlation has no spectral density function")
    pts = _as_points(xi, model.d)
    r = np.sqrt(np.sum(pts * pts, axis=-1))
    vals = spectral_density_radial(model, r)
    return vals[0] if vals.shape == (1,) else vals


def spectral_density_radial(model: CorrelationModel, r) -> np.ndarray:
    """f_hat as a function of the radial frequency |xi|."""
    r = np.asarray(r, dtype=float)
    if model.kind == CONSTANT:
        raise CorrelationError("constant correlation has no spectral density function")
    if model.kind == RIESZ:
        if model.alpha >= model.d:
            raise CorrelationError(
                "riesz spectral density undefined at alpha == d (Gamma pole); "
                "only pointwise f is available there"
            )
        c1 = model.c0 * riesz_spectral_constant(model.d, model.d - model.alpha)
        with np.errstate(divide="ignore"):
            vals = c1 * np.where(r > 0, r, np.nan) ** (-(model.d - model.alpha))
        return np.where(r > 0, vals, np.inf)
    a2 = model.amplitude**2 * (2.0 * math.pi * model.width**2) ** model.d
    return a2 * np.exp(-(model.width**2) * r * r)


def kernel_h_hat_radial(model: CorrelationModel, r) -> np.ndarray:
    """h_hat at radial frequency r for any model with a kernel."""
    if not model.has_kernel:
        raise CorrelationError(f"model kind {model.kind!r} has no convolution kernel h")
    return np.sqrt(spectral_density_radial(model, r))


def kernel_h(model: CorrelationModel, x) -> np.ndarray:
    """Real-space kernel h(x), available in closed form for gaussian_h only."""
    if model.kind != GAUSSIAN_H:
        raise CorrelationError("closed-form h is only available for gaussian_h")
    pts = _as_points(x, model.d)
    r2 = np.sum(pts * pts, axis=-1)
    vals = model.amplitude * np.exp(-r2 / (2.0 * model.width**2))
    return vals[0] if vals.shape == (1,) else vals


def _radial_spectral_integral(model: CorrelationModel, weight) -> float:
    """(2 pi)^{-d} * integral f_hat(|xi|) weight(|xi|) dxi by radial quadrature.

    Adaptive with absolute tolerance 1e-8 and relative 1e-6 or better; the
    integrand is split at r = 1 so the riesz endpoint singularity r^{alpha-1}
    sits at a panel edge.
    """
    d = model.d
    surf = sphere_surface(d)

    def integrand(r):
        return spectral_density_radial(model, r) * weight(r) * r ** (d - 1)

    opts = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
    lo, err1 = integrate.quad(integrand, 0.0, 1.0, **opts)
    hi, err2 = integrate.quad(integrand, 1.0, np.inf, **opts)
    return (lo + hi) * surf / (2.0 * math.pi) ** d


@dataclass(frozen=True)
class DalangResult:
    finite: bool
    integral: Optional[float]
    reason: str


def dalang_condition(model: CorrelationModel) -> DalangResult:
    """Existence test: is integral f_hat(xi) / (1 + |xi|^2) dxi finite?

    Bounded correlations pass automatically.  A riesz model passes exactly
    when alpha < min(d, 2).  When finite and a density exists, the value of
    the integral (without the (2 pi)^{-d} factor) is computed by quadrature.
    """
    if model.kind == CONSTANT:
        # Point mass at frequency zero: the integral is (2 pi)^d c * 1/(1+0).
        return DalangResult(True, (2.0 * math.pi) ** model.d * model.c, "bounded correlation (point-mass spectrum)")
    if model.kind == RIESZ and not (model.alpha < min(model.d, 2)):
        return DalangResult(False, None, f"riesz alpha={model.alpha} not below min(d,2)={min(model.d, 2)}")
    val = _radial_spectral_integral(model, lambda r: 1.0 / (1.0 + r * r))
    val *= (2.0 * math.pi) ** model.d
    reason = "bounded correlation" if model.kind == GAUSSIAN_H else "riesz alpha below min(d,2)"
    return DalangResult(True, val, reason)


def resolvent_at_zero(model: CorrelationModel, beta: float, kappa: float) -> float:
    """Value at the origin of the beta-potential of f for the kappa/2 Laplacian.

    R_beta f (0) = integral_0^inf exp(-beta t) (p_t * f)(0) dt
                 = (2 pi)^{-d} integral f_hat(xi) / (beta + kappa |xi|^2 / 2) dxi.

    Requires beta > 0, kappa > 0 and a finite Dalang integral; equals
    c / beta for the constant kind.
    """
    if beta <= 0 or kappa <= 0:
        raise CorrelationError("resolvent needs beta > 0 and kappa > 0")
    if model.kind == CONSTANT:
        return model.c / beta
    verdict = dalang_condition(model)
    if not verdict.finite:
        raise CorrelationError(f"beta-potential diverges: {verdict.reason}")
    return _radial_spectral_integral(model, lambda r: 1.0 / (beta + 0.5 * kappa * r * r))


def heat_smoothed_f_at_zero(model: CorrelationModel, s: float, kappa: float) -> float:
    """(p_s * f)(0) = (2 pi)^{-d} integral f_hat(xi) exp(-kappa s |xi|^2 / 2) dxi."""
    if s <= 0 or kappa <= 0:
        raise CorrelationError("heat smoothing needs s > 0 and kappa > 0")
    if model.kind == CONSTANT:
        return model.c
    if model.kind == RIESZ and model.alpha >= model.d:
        raise CorrelationError("heat-smoothed value unavailable at alpha == d")
    return _radial_spectral_integral(model, lambda r: np.exp(-0.5 * kappa * s * r * r))


def triangular_taper(x: np.ndarray, n: float) -> np.ndarray:
    """prod_j max(0, 1 - |x_j|/n) over the trailing axis of points x."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    per_axis = np.clip(1.0 - np.abs(pts) / n, 0.0, None)
    if per_axis.ndim == 1:
        return per_axis
    return np.prod(per_axis, axis=-1)


def cutoff_kernel_hn(model: CorrelationModel, cfg: CutoffConfig, x, grid=None) -> np.ndarray:
    """Tapered kernel h_n(x) = h(x) * triangular_taper(x, n).

    gaussian_h evaluates anywhere.  A riesz kernel only exists as a gridded
    inverse transform of h_hat, so a grid is required and points snap to the
    nearest lattice site.
    """
    if not model.has_kernel:
        raise CorrelationError(f"model kind {model.kind!r} has no convolution kernel h")
    pts = _as_points(x, model.d)
    taper = triangular_taper(pts, cfg.n)
    if model.kind == GAUSSIAN_H:
        base = kernel_h(model, pts)
        base = np.asarray(base).reshape(taper.shape)
    else:
        if grid is None:
            raise CorrelationError("riesz kernel is grid-defined; pass a LatticeGrid")
        from .noise import gridded_kernel_h

        h_grid = gridded_kernel_h(model, grid)
        idx = grid.nearest_index(pts)
        base = h_grid[idx]
    vals = base * taper
    return vals[0] if vals.shape == (1,) else vals


def compute_a_t(model: CorrelationModel, t: float, kappa: float) -> float:
    """Lower-bound growth functional

        a_t = sup_{delta > 0} (delta^2 / (4 kappa)) * min(1, 4 kappa t / delta^2)
                               * inf_{|x| <= delta} f(x).

    The ball infimum is analytic (all models are radial nonincreasing); the
    sup over delta is a one-dimensional maximization on a log grid refined
    by bounded scalar minimization.  Equals t*c for the constant kind and
    c0 * t * (4 kappa t)^{-alpha/2} for riesz.
    """
    if t <= 0 or kappa <= 0:
        raise CorrelationError("compute_a_t needs t > 0 and kappa > 0")

    # All supported correlations are radial and nonincreasing, so the infimum
    # over a centered ball of radius delta is the value on its boundary.
    def objective(delta):
        inf_ball = float(evaluate_f_radial(model, delta))
        return (delta * delta / (4.0 * kappa)) * min(1.0, 4.0 * kappa * t / (delta * delta)) * inf_ball

    grid = np.logspace(-3, 3, 601)
    vals = np.array([objective(g) for g in grid])
    j = int(np.argmax(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(
        lambda s: -objective(math.exp(s)),
        bounds=(math.log(lo), math.log(hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(-res.fun, float(vals[j]))


def regularize_f_at_zero(model: CorrelationModel, dx: float) -> float:
    """Average of f over the axis-aligned cube of side dx centered at 0.

    This replaces the singular riesz diagonal on a lattice of spacing dx.
    Analytic in d=1; a polar reduction handles d=2 and an adaptive nested
    quadrature d=3.  Bounded kinds return f(0) (the cube average differs by
    O(dx^2), irrelevant at the tolerances used for the singular diagonal).
    """
    if dx <= 0:
        raise CorrelationError("regularize_f_at_zero needs dx > 0")
    if model.kind != RIESZ:
        return model.f_at_zero()
    a, d = model.alpha, model.d
    if a >= d:
        # alpha == d fails Dalang's condition; there is no lattice path there.
        raise CorrelationError("cube average of |x|^{-alpha} diverges for alpha >= d")
    half = dx / 2.0
    if d == 1:
        return model.c0 * half ** (-a) / (1.0 - a)
    if d == 2:
        # integral over [-1,1]^2 of |y|^{-a} = 8/(2-a) * int_0^{pi/4} cos(th)^{a-2} dth
        ang, _ = integrate.quad(lambda th: math.cos(th) ** (a - 2.0), 0.0, math.pi / 4.0, epsabs=1e-12, epsrel=1e-10)
        cube = 8.0 / (2.0 - a) * ang
        return model.c0 * half ** (-a) * cube / 4.0
    # d == 3: integrate |y|^{-a} over [0,1]^3 (one octant), radial inner integral exact.
    def inner(y, z):
        rho2 = y * y + z * z
        # int_0^1 (x^2 + rho2)^{-a/2} dx via Gauss on a stretched variable
        nodes, weights = np.polynomial.legendre.leggauss(48)
        xs = 0.5 * (nodes + 1.0)
        return 0.5 * np.sum(weights * (xs * xs + rho2) ** (-a / 2.0))

    val, _ = integrate.dblquad(inner, 0.0, 1.0, 0.0, 1.0, epsabs=1e-9, epsrel=1e-7)
    return model.c0 * half ** (-a) * val

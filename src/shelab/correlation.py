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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, special

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
            if not self.c0 > 0:
                raise CorrelationError("riesz strength c0 must be positive")
        elif self.kind == GAUSSIAN_H:
            if self.width is None or self.amplitude is None:
                raise CorrelationError("gaussian_h model needs width and amplitude")
            if not (self.width > 0 and self.amplitude > 0):
                raise CorrelationError("gaussian_h width and amplitude must be positive")
        else:
            if self.c is None or not self.c > 0:
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

    @classmethod
    def from_dict(cls, spec: dict) -> "CorrelationModel":
        if not isinstance(spec, dict) or "kind" not in spec:
            raise CorrelationError("model spec must be a dict with a 'kind' key")
        known = {"kind", "d", "alpha", "c0", "width", "amplitude", "c"}
        extra = set(spec) - known
        if extra:
            raise CorrelationError(f"unknown model keys: {sorted(extra)}")
        return cls(**spec)


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)


def riesz_spectral_constant(d: int, p: float) -> float:
    """C(d, p) = pi^{d/2} 2^{d-p} Gamma((d-p)/2) / Gamma(p/2) for 0 < p < d."""
    if not (0.0 < p < d):
        raise CorrelationError(f"spectral constant needs 0 < p < d, got p={p}, d={d}")
    return math.pi ** (d / 2.0) * 2.0 ** (d - p) * special.gamma((d - p) / 2.0) / special.gamma(p / 2.0)


def evaluate_f_radial(model: CorrelationModel, r) -> np.ndarray:
    """f as a function of the radius |x|; riesz is infinite at r = 0."""
    r = np.asarray(r, dtype=float)
    if model.kind == RIESZ:
        with np.errstate(divide="ignore"):
            return model.c0 * r ** (-model.alpha)
    if model.kind == GAUSSIAN_H:
        return model.f_at_zero() * np.exp(-(r * r) / (4.0 * model.width**2))
    return np.full_like(r, model.c)


def spectral_density_radial(model: CorrelationModel, r) -> np.ndarray:
    """f_hat as a function of the radial frequency |xi|, infinite at 0 for riesz.
    The constant kind (point-mass spectrum) and riesz at alpha == d (Gamma pole) raise."""
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

    def integrand(r):
        return spectral_density_radial(model, r) * (1.0 / (1.0 + r * r)) * r ** (model.d - 1)

    # radial quadrature split at r = 1, so the riesz endpoint singularity
    # r^(alpha-1) sits at a panel edge
    opts = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
    lo, _ = integrate.quad(integrand, 0.0, 1.0, **opts)
    hi, _ = integrate.quad(integrand, 1.0, np.inf, **opts)
    val = (lo + hi) * sphere_surface(model.d)
    reason = "bounded correlation" if model.kind == GAUSSIAN_H else "riesz alpha below min(d,2)"
    return DalangResult(True, val, reason)

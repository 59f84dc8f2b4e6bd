"""Jacobi and Legendre polynomials, standard and shifted to a mesh element.

Evaluation uses the three-term recurrence, which is stable for degrees well
beyond what the collocation scheme needs (k up to ~100).  Normalization
constants go through log-Gamma so large degrees cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "Element",
    "jacobi_eval",
    "jacobi_table",
    "jacobi_norm_gamma",
    "legendre_table",
    "shifted_eval",
]

#: absolute slack for domain membership checks; mapped collocation points can
#: land on interval endpoints up to rounding.
DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class JacobiParams:
    """Exponents of the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(f"Jacobi exponents must exceed -1, got {self}")


@dataclass(frozen=True)
class Element:
    """One mesh subinterval (left, right] carrying a polynomial degree."""

    left: float
    right: float
    degree: int

    def __post_init__(self):
        if not self.left < self.right:
            raise ValueError(f"empty element [{self.left}, {self.right}]")
        if self.degree < 1:
            raise ValueError(f"element degree must be >= 1, got {self.degree}")

    @property
    def width(self) -> float:
        return self.right - self.left

    def to_reference(self, t):
        """Map t in [left, right] to x in [-1, 1], with rounding slack."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.left - DOMAIN_TOL) or np.any(t > self.right + DOMAIN_TOL):
            raise ValueError(
                f"point outside element [{self.left}, {self.right}]: {t!r}"
            )
        x = (2.0 * t - self.left - self.right) / self.width
        return np.clip(x, -1.0, 1.0)


def _check_reference(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + DOMAIN_TOL):
        raise ValueError("evaluation point outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


def jacobi_table(params: JacobiParams, kmax: int, x) -> np.ndarray:
    """Evaluate all Jacobi polynomials of degree 0..kmax at x.

    Returns an array of shape (kmax + 1,) + x.shape, row k holding degree k.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    x = _check_reference(x)
    a, b = params.alpha, params.beta
    out = np.empty((kmax + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = 0.5 * ((a + b + 2.0) * x + (a - b))
    for k in range(1, kmax):
        c1 = 2.0 * (k + 1.0) * (k + a + b + 1.0) * (2.0 * k + a + b)
        c2 = (2.0 * k + a + b + 1.0) * (a * a - b * b)
        c3 = (2.0 * k + a + b) * (2.0 * k + a + b + 1.0) * (2.0 * k + a + b + 2.0)
        c4 = 2.0 * (k + a) * (k + b) * (2.0 * k + a + b + 2.0)
        out[k + 1] = ((c2 + c3 * x) * out[k] - c4 * out[k - 1]) / c1
    return out


def jacobi_eval(params: JacobiParams, k: int, x):
    """Value of the degree-k Jacobi polynomial at x (scalar or array)."""
    if k < 0:
        raise ValueError("degree index must be >= 0")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    vals = jacobi_table(params, k, np.atleast_1d(np.asarray(x, dtype=float)))[k]
    return float(vals[0]) if scalar else vals


def legendre_table(kmax: int, x) -> np.ndarray:
    """Evaluate Legendre polynomials of degree 0..kmax at x (any shape)."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = x
    for k in range(1, kmax):
        out[k + 1] = ((2.0 * k + 1.0) * x * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


def jacobi_norm_gamma(params: JacobiParams, k: int) -> float:
    """Squared weighted L2 norm of the degree-k Jacobi polynomial on [-1, 1]."""
    if k < 0:
        raise ValueError("degree index must be >= 0")
    a, b = params.alpha, params.beta
    if k == 0:
        lg = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
        return 2.0 ** (a + b + 1.0) * math.exp(lg)
    lg = (
        math.lgamma(k + a + 1.0)
        + math.lgamma(k + b + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(k + a + b + 1.0)
    )
    return 2.0 ** (a + b + 1.0) / (2.0 * k + a + b + 1.0) * math.exp(lg)


def shifted_eval(params: JacobiParams, elem: Element, k: int, t):
    """Evaluate the degree-k Jacobi polynomial shifted onto an element.

    For ``params == (0, 0)`` this is the shifted Legendre polynomial used to
    expand the solution on that element.
    """
    return jacobi_eval(params, k, elem.to_reference(t))

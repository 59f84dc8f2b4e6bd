"""Jacobi weight parameters, mesh elements and the Legendre basis.

Each element expands its solution in Legendre polynomials of the reference
interval [-1, 1], evaluated by the three-term recurrence, which is stable
for degrees well beyond what the collocation scheme needs (k up to ~100).
Gauss-Jacobi rules for the singular kernel take their weight exponents from
:class:`JacobiParams`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JacobiParams", "Element", "legendre_table"]

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

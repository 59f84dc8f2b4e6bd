"""The Legendre basis.

Each mesh element expands its solution in Legendre polynomials of the
reference interval [-1, 1], evaluated by the three-term recurrence, which is
stable for degrees well beyond what the collocation scheme needs (k up to
~100).
"""

from __future__ import annotations

import numpy as np

__all__ = ["legendre_table"]


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

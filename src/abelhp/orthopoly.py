"""The Legendre basis.

Each mesh element expands its solution in Legendre polynomials of the
reference interval [-1, 1], evaluated by the three-term recurrence, which is
stable for degrees well beyond what the collocation scheme needs (k up to
~100).
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=None)
def _half_step_table(degree: int, samples: int) -> np.ndarray:
    """Read-only Legendre table of a degree at x_i = 2 (i + 1/2) / (samples - 1/2) - 1.

    i = 0..samples-1: the last point is 1 exactly and the first lies half a
    step inside -1, the reference grid of ``bench.error_E2``.
    """
    table = legendre_table(degree, 2.0 * (np.arange(samples) + 0.5) / (samples - 0.5) - 1.0)
    table.flags.writeable = False
    return table

"""Mesh of half-open elements (t_{n-1}, t_n] on [0, T] with per-element degrees."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import _lobatto_nodes, _shift_rows

__all__ = ["Mesh", "uniform_mesh", "locate"]


@dataclass(eq=False)
class Mesh:
    """Breakpoints 0 = t_0 < ... < t_N = T and polynomial degrees M_1..M_N.

    Element n (1-based) is the half-open interval (t_{n-1}, t_n]; immutable
    after construction and freely shareable.  The mesh keeps read-only copies
    of the breakpoints and degrees, so the per-mesh tables derived from them
    (``offsets``, ``degree_groups``, ``history_points``) cannot go stale.
    """

    breakpoints: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        deg = np.array(self.degrees, dtype=int)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("mesh must start at t = 0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if deg.shape != (bp.size - 1,):
            raise ValueError("need one degree per element")
        if np.any(deg < 1):
            raise ValueError("element degrees must be >= 1")
        bp.flags.writeable = False
        deg.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "degrees", deg)

    @property
    def N(self) -> int:
        return self.breakpoints.size - 1

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def h_max(self) -> float:
        return float(self.widths.max())

    @property
    def L(self) -> int:
        """Total number of unknown coefficients."""
        return int(self.offsets[-1])

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Block starts of a flat per-element array with degree + 1 entries each.

        Element n owns ``offsets[n-1]:offsets[n]``; ``offsets[N]`` is ``L``.
        Solved Lobatto values and Legendre coefficients are laid out this way.
        Built once per mesh and read-only.
        """
        out = np.zeros(self.N + 1, dtype=int)
        np.cumsum(self.degrees + 1, out=out[1:])
        out.flags.writeable = False
        return out

    @functools.cached_property
    def degree_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """``(degree, indices)`` for each distinct degree, ascending.

        ``indices`` are the 0-based positions (element n is n - 1) of the
        elements of that degree, ascending, so the elements before element n
        are the prefix of each array below n - 1.  Built once per mesh and
        read-only.
        """
        groups = []
        for d in np.unique(self.degrees):
            idx = np.flatnonzero(self.degrees == d)
            idx.flags.writeable = False
            groups.append((int(d), idx))
        return tuple(groups)

    @functools.cached_property
    def history_points(self) -> np.ndarray:
        """Where history samples kappa and psi's ``s``, in the ``offsets`` layout; read-only.

        Each element's shifted Lobatto points, its ends moved one ulp inside it
        (t = 0 excepted: one ulp above it is subnormal), so a kernel that jumps
        at a breakpoint is taken as its limit from inside the element.
        """
        bp, offsets, counts = self.breakpoints, self.offsets, self.degrees + 1
        nodes = np.empty(offsets[-1])  # reference Lobatto nodes, placed in one pass
        for d, idx in self.degree_groups:
            nodes[offsets[idx, None] + np.arange(d + 1)] = _lobatto_nodes(d)
        lefts, rights = np.repeat(bp[:-1], counts), np.repeat(bp[1:], counts)
        out = _shift_rows(nodes[:, None], lefts, rights).ravel()
        out[offsets[1:-1]] = np.nextafter(bp[1:-1], bp[2:])
        out[offsets[1:] - 1] = np.nextafter(bp[1:], bp[:-1])
        out.flags.writeable = False
        return out

    def with_degrees(self, degrees) -> "Mesh":
        return Mesh(self.breakpoints, degrees)


def uniform_mesh(N: int, T: float, M: int) -> Mesh:
    """N equal elements on [0, T], all with polynomial degree M."""
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if not T > 0.0:
        raise ValueError("T must be positive")
    return Mesh(np.linspace(0.0, T, N + 1), np.full(N, M, dtype=int))


#: slack of ``locate`` past T, relative to max(1, T), for points that round past it
DOMAIN_TOL = 1e-12


def locate(t, mesh: Mesh):
    """Element index n (1-based) with t in (t_{n-1}, t_n]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr > mesh.T + DOMAIN_TOL * max(1.0, mesh.T)):
        raise ValueError(f"point outside (0, {mesh.T}]: {t!r}")
    idx = np.searchsorted(mesh.breakpoints, t_arr, side="left")
    idx = np.minimum(idx, mesh.N)
    return int(idx) if t_arr.ndim == 0 else idx

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
    (``widths``, ``L``, ``offsets``, ``degree_groups``, ``history_points``)
    cannot go stale.
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
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if deg.shape != (bp.size - 1,):
            raise ValueError("need one degree per element")
        if np.any(deg < 1):
            raise ValueError("element degrees must be >= 1")
        # the int cast truncates, so 2.9 would pass as 2
        if np.any(deg != np.asarray(self.degrees)):
            raise ValueError(f"element degrees must be integers, got {self.degrees!r}")
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

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """Element widths t_n - t_{n-1}; built once per mesh and read-only."""
        out = np.diff(self.breakpoints)
        out.flags.writeable = False
        return out

    @property
    def h_max(self) -> float:
        return float(self.widths.max())

    @functools.cached_property
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
        read-only.  The degrees come from a Python set: ``np.unique``'s first
        call imports ``numpy.ma``, over a MB of memory no solve needs.
        """
        groups = []
        for d in sorted(set(self.degrees.tolist())):
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
        bp, offsets = self.breakpoints, self.offsets
        out = np.empty(offsets[-1])
        for d, idx in self.degree_groups:
            # a degree group's Lobatto nodes, placed on all its elements at once
            rows = _shift_rows(_lobatto_nodes(d), bp[idx], bp[idx + 1])
            out[offsets[idx, None] + np.arange(d + 1)] = rows
        out[offsets[1:-1]] = np.nextafter(bp[1:-1], bp[2:])
        out[offsets[1:] - 1] = np.nextafter(bp[1:], bp[:-1])
        out.flags.writeable = False
        return out


def uniform_mesh(N: int, T: float, M: int) -> Mesh:
    """N equal elements on [0, T], all with polynomial degree M."""
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if not T > 0.0:
        raise ValueError("T must be positive")
    return Mesh(np.linspace(0.0, T, N + 1), np.full(N, M))


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

"""Mesh of half-open elements (t_{n-1}, t_n] on [0, T] with per-element degrees."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quadrature import _lobatto_nodes, _shift_rows

__all__ = ["Mesh", "uniform_mesh", "locate"]


@dataclass(frozen=True, eq=False, slots=True)
class Mesh:
    """Breakpoints 0 = t_0 < ... < t_N = T and polynomial degrees M_1..M_N.

    Element n (1-based) is the half-open interval (t_{n-1}, t_n].  A frozen
    record, freely shareable: it keeps read-only copies of the breakpoints and
    degrees, and builds its tables from them once, at construction.

    - ``widths``: element widths t_n - t_{n-1}.
    - ``offsets``: block starts of a flat per-element array with degree + 1
      entries each.  Element n owns ``offsets[n-1]:offsets[n]``, and
      ``offsets[N]`` is ``L``, the number of unknown coefficients.  Solved
      Lobatto values and Legendre coefficients are laid out this way.
    - ``degree_groups``: ``(degree, indices, cols)`` for each distinct degree,
      ascending.  ``indices`` are the 0-based positions (element n is n - 1)
      of the elements of that degree, ascending, so the elements before
      element n are the prefix of each array below n - 1; ``cols`` is the
      ``(len(indices), degree + 1)`` array of their slots in the ``offsets``
      layout.
    - ``history_points``: where history samples kappa and psi's ``s``, in the
      ``offsets`` layout: each element's shifted Lobatto points, its ends
      moved one ulp inside it (t = 0 excepted: one ulp above it is
      subnormal), so a kernel that jumps at a breakpoint is taken as its
      limit from inside the element.

    Every array is read-only.
    """

    breakpoints: np.ndarray
    degrees: np.ndarray
    widths: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    L: int = field(init=False, repr=False)
    degree_groups: tuple[tuple[int, np.ndarray, np.ndarray], ...] = field(init=False, repr=False)
    history_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        deg = np.array(self.degrees, dtype=int)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("mesh must start at t = 0")
        # before any difference: inf - inf would warn
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        widths = bp[1:] - bp[:-1]
        if not widths.min() > 0.0:
            raise ValueError("breakpoints must be strictly increasing")
        if deg.shape != widths.shape:
            raise ValueError("need one degree per element")
        if deg.min() < 1:
            raise ValueError("element degrees must be >= 1")
        # the int cast truncates, so 2.9 would pass as 2
        if (deg != np.asarray(self.degrees)).any():
            raise ValueError(f"element degrees must be integers, got {self.degrees!r}")
        m = deg + 1
        offsets = np.zeros(m.size + 1, dtype=int)
        np.add.accumulate(m, out=offsets[1:])
        L = int(offsets[-1])
        # the degrees come from a Python set: np.unique's first call imports
        # numpy.ma, over a MB of memory no solve needs
        groups, points = [], np.empty(L)
        for d in sorted(set(deg.tolist())):
            idx = np.flatnonzero(deg == d)
            cols = offsets[idx, None] + np.arange(d + 1)
            # a degree group's Lobatto nodes, placed on all its elements at once
            points[cols] = _shift_rows(_lobatto_nodes(d), bp[idx], bp[idx + 1])
            idx.flags.writeable = cols.flags.writeable = False
            groups.append((d, idx, cols))
        points[offsets[1:-1]] = np.nextafter(bp[1:-1], bp[2:])
        points[offsets[1:] - 1] = np.nextafter(bp[1:], bp[:-1])
        for name, arr in (("breakpoints", bp), ("degrees", deg), ("widths", widths),
                          ("offsets", offsets), ("history_points", points)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "degree_groups", tuple(groups))

    @property
    def N(self) -> int:
        return self.breakpoints.size - 1

    @property
    def T(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def h_max(self) -> float:
        return float(self.widths.max())


def uniform_mesh(N: int, T: float, M: int) -> Mesh:
    """N equal elements on [0, T], all with polynomial degree M."""
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    # linspace would spread an infinite T as NaN breakpoints
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    return Mesh(np.linspace(0.0, T, N + 1), np.full(N, M))


#: slack of ``locate`` past T, relative to max(1, T), for points that round past it
DOMAIN_TOL = 1e-12


def locate(t, mesh: Mesh):
    """Element index n (1-based) with t in (t_{n-1}, t_n]."""
    t_arr = np.asarray(t, dtype=float)
    # not (0 < t <= end): a NaN point fails too
    if not ((t_arr > 0.0) & (t_arr <= mesh.T + DOMAIN_TOL * max(1.0, mesh.T))).all():
        raise ValueError(f"point outside (0, {mesh.T}]: {t!r}")
    idx = np.searchsorted(mesh.breakpoints, t_arr, side="left")
    idx = np.minimum(idx, mesh.N)
    return int(idx) if t_arr.ndim == 0 else idx

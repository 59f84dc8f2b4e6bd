"""Per-element collocation systems for the weakly singular Volterra equation.

For element n the unknowns are the shifted-Legendre coefficients of the local
solution.  The equation is collocated in coefficient space: the weighted
moment of the current-element integral (assembled with Gauss-Jacobi product
quadrature) must match the corresponding moments of the right-hand side and
of the history accumulated over elements 1..n-1.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mesh import Mesh
from .orthopoly import JacobiParams, legendre_table
from .quadrature import (
    QuadRule,
    RuleKind,
    _shift_rows,
    gauss_rule,
    history_weights_batch,
)

__all__ = [
    "ProblemSpec",
    "ElementOperator",
    "OperatorRun",
    "HistoryRun",
    "history_runs",
    "ProblemAssumptionWarning",
    "validate_problem",
]


class ProblemAssumptionWarning(UserWarning):
    """A well-posedness assumption failed a spot check (never an error)."""


@dataclass(frozen=True)
class ProblemSpec:
    """One Abel integral equation instance.

    The equation is ``int_0^t (t-s)^(alpha-1) kappa(t, s) psi(t, s, u(s)) ds
    = f(t)`` on (0, T].  All callables must accept numpy arrays and broadcast;
    ``psi`` and ``dpsi_du`` take the evaluation time t as first argument since
    some nonlinearities couple t into the integrand.  Set ``linear`` when
    psi(t, s, u) == u (so dpsi_du == 1) to enable the direct linear-solve
    path, which takes the Jacobian at u = 0 as the system matrix.
    """

    alpha: float
    T: float
    kappa: Callable
    psi: Callable
    dpsi_du: Callable
    f: Callable
    linear: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if self.linear:
            s = np.linspace(0.1, 0.9, 4) * self.T
            u = np.array([-1.3, -0.2, 0.4, 2.0])
            if np.max(np.abs(self.psi(s, s, u) - u)) > 1e-12:
                raise ValueError("linear flag set but psi(t, s, u) != u")
            if np.max(np.abs(self.dpsi_du(s, s, u) - 1.0)) > 1e-12:
                raise ValueError("linear flag set but dpsi_du(t, s, u) != 1")


@dataclass(frozen=True)
class _ReferenceTables:
    """Tables of a degree-M element on [-1, 1]; the same for every mesh."""

    gl: QuadRule
    gj: QuadRule
    node_product: np.ndarray  # (1 + x_gl_i)(1 + x_gj_j)
    P: np.ndarray  # (p, i): Legendre table at the Gauss-Legendre nodes
    Q: np.ndarray  # (q, i, j): Legendre table at the rescaled inner nodes
    Qflat: np.ndarray  # (q, (i, j)): Q with the inner grid flattened row-major
    proj_scale: np.ndarray
    sys_scale: np.ndarray


@functools.lru_cache(maxsize=None)
def _reference_tables(M: int, alpha: float) -> _ReferenceTables:
    """Build (once per degree and alpha) the read-only reference tables."""
    gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, M)
    gj = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(alpha - 1.0, 0.0), M)
    node_product = (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :]
    Q = legendre_table(M, 0.5 * node_product - 1.0)
    tables = (
        node_product,
        legendre_table(M, gl.nodes),
        Q,
        Q.reshape(M + 1, -1),
        (2.0 * np.arange(M + 1) + 1.0) / 2.0,
        (2.0 * np.arange(M + 1) + 1.0) / 2.0 ** (1.0 + alpha),
    )
    for table in tables:
        table.flags.writeable = False
    return _ReferenceTables(gl, gj, *tables)


class OperatorRun:
    """Collocation operators of the equal-degree elements n0..n1, as stacks.

    Row j of each stack belongs to element n0 + j.  The run's tensor grid
    (``t_grid``, ``sigma_grid``: a row of (M+1)^2 points per element) takes
    one kernel call, and ``B`` of shape (R, M+1, (M+1)^2) one product:
    ``B[j, p, (i, k)] = sys_scale_p P_pi prefac_i kappa(t_i, sigma_ik) w_k``.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n0: int, n1: int):
        if not 1 <= n0 <= n1 <= mesh.N:
            raise IndexError(f"elements {n0}..{n1} outside 1..{mesh.N}")
        self.degree = d = int(mesh.degrees[n0 - 1])
        if np.any(mesh.degrees[n0 - 1 : n1] != d):
            raise ValueError(f"elements {n0}..{n1} do not share one degree")
        self.problem, self.mesh, self.n0 = problem, mesh, n0
        self.ref = ref = _reference_tables(d, problem.alpha)
        self.lefts, self.rights = mesh.breakpoints[n0 - 1 : n1], mesh.breakpoints[n0 : n1 + 1]
        widths, R, m = (self.rights - self.lefts)[:, None], n1 - n0 + 1, d + 1
        self.t_nodes = _shift_rows(ref.gl.nodes, self.lefts, self.rights)
        self.t_grid = np.repeat(self.t_nodes, m, axis=1)
        self.sigma_grid = self.lefts[:, None] + 0.25 * widths * ref.node_product.ravel()
        # the 2-d call of a single element: Gauss nodes against inner nodes
        grid = self.sigma_grid.reshape(-1, m)
        kappa = np.broadcast_to(problem.kappa(self.t_nodes.reshape(-1, 1), grid), grid.shape)
        # (t_i - t_{n-1})^alpha from the width, not a difference of times
        prefac = (0.5 * widths * (1.0 + ref.gl.nodes)) ** problem.alpha * ref.gl.weights
        outer = ref.sys_scale[:, None] * ref.P * prefac[:, None, :]  # (R, p, i)
        inner = (kappa * ref.gj.weights).reshape(R, 1, m, m)  # (R, 1, i, k)
        self.B = (outer[..., None] * inner).reshape(R, m, m * m)

    def operator(self, n: int) -> "ElementOperator":
        """Element n's operator, a view of row n - n0 of the stacks."""
        op = ElementOperator.__new__(ElementOperator)
        op._view(self, n)
        return op


class ElementOperator:
    """Collocation operator of one element: one row of an :class:`OperatorRun`.

    ``ElementOperator(problem, mesh, n)`` builds the one-element run, and
    ``OperatorRun.operator(n)`` views a row of a longer one.  A residual
    evaluation is the one product ``B @ psi`` and a Jacobian the one product
    ``(B * dpsi_du) @ Qflat.T``, with psi and dpsi_du taken on the flattened
    grid ``(t_grid, sigma_grid)``.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n: int):
        self._view(OperatorRun(problem, mesh, n, n), n)

    def _view(self, run: OperatorRun, n: int):
        j = n - run.n0
        self.problem, self.mesh, self.n, self._ref = run.problem, run.mesh, n, run.ref
        self.Qflat, self.t_nodes, self.t_grid = run.ref.Qflat, run.t_nodes[j], run.t_grid[j]
        self.sigma_grid, self.B = run.sigma_grid[j], run.B[j]

    def weighted_moments(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficient-space image of the current-element singular integral.

        A (K, M+1) stack of ``coeffs`` gives K rows from one psi call on the (K, (M+1)^2)
        grid and row-by-row matrix-vector products, so each row rounds as a lone vector does.
        """
        u = np.vecmat(coeffs, self.Qflat)
        psi = self.problem.psi(self.t_grid, self.sigma_grid, u)
        if np.shape(psi) != u.shape:
            psi = np.broadcast_to(psi, u.shape)
        return np.matvec(self.B, psi)

    def jacobian(self, coeffs: np.ndarray) -> np.ndarray:
        """Derivative of the element residual with respect to the coefficients."""
        dpsi = self.problem.dpsi_du(self.t_grid, self.sigma_grid, coeffs @ self.Qflat)
        return (self.B * dpsi) @ self.Qflat.T

    def project(self, values_at_nodes: np.ndarray) -> np.ndarray:
        """Discrete Legendre coefficients of values sampled at the Gauss nodes."""
        ref = self._ref
        return ref.proj_scale * (ref.P @ (ref.gl.weights * values_at_nodes))

    def rhs(self) -> np.ndarray:
        """Legendre moments of f on the element (Gauss-point projection).

        f is called at this element's nodes alone: a nonlinear march that
        stops early never evaluates f on the elements after it.
        """
        return self.project(np.broadcast_to(self.problem.f(self.t_nodes), self.t_nodes.shape))

    def history(self, prior_u: np.ndarray) -> np.ndarray:
        """Legendre moments of the history integral over elements 1..n-1.

        ``prior_u`` holds the solution values at the shifted Lobatto points of
        elements 1..n-1, concatenated in the ``mesh.offsets`` layout.  This is
        the one-element run of :class:`HistoryRun`, on the weights solve uses.
        """
        table = _gap_table(self.mesh, self.problem.alpha)
        run = HistoryRun(self.problem, self.mesh, self.n, self.n, prior_u, table)
        return self.project(run.at_nodes(self.n, prior_u))


# solve assembles the history in runs of consecutive elements; a run closes
# before its (Gauss node, earlier Lobatto point) pairs would exceed this
# many, which bounds the largest temporaries of its assembly
_HISTORY_BLOCK = 2**14


def history_runs(mesh: Mesh) -> list[tuple[int, int]]:
    """Runs ``(n0, n1)`` of consecutive equal-degree elements (1-based, inclusive).

    Element n pairs each of its degree + 1 Gauss nodes with the
    ``offsets[n-1]`` Lobatto points before it.  A run closes at a change of
    degree, or before the sum of these pairs over its elements would exceed
    ``_HISTORY_BLOCK``; an element whose own pairs exceed it forms a run
    alone.  The runs cover elements 1..N in order.
    """
    offsets, degrees = mesh.offsets, mesh.degrees.tolist()
    pairs = ((offsets[1:] - offsets[:-1]) * offsets[:-1]).tolist()
    runs, n0, total = [], 1, 0
    for n, count in enumerate(pairs, start=1):
        if n > n0 and (degrees[n - 1] != degrees[n0 - 1] or total + count > _HISTORY_BLOCK):
            runs.append((n0, n - 1))
            n0, total = n, 0
        total += count
    runs.append((n0, mesh.N))
    return runs


def _gap_table(mesh: Mesh, alpha: float) -> np.ndarray | None:
    """History weights by gap of a uniform single-degree mesh of several runs, else None.

    Element k's weights at Gauss node i of element n depend only on n - k and i:
    row ``[g - 1, i]`` of the read-only table holds element 1's weights at node i
    of element 1 + g, from one checked weight call.  These are also the more
    accurate: near t = T a node rounds by an ulp of T, much of t - right at gap 1.
    """
    bp, d, N, T = mesh.breakpoints, int(mesh.degrees[0]), mesh.N, mesh.T
    # a history whose (d + 1)^2 N (N - 1) / 2 pairs fit one run of history_runs
    # takes one weight call either way, so there the table only adds its cost
    if (d + 1) ** 2 * N * (N - 1) // 2 <= _HISTORY_BLOCK or np.any(mesh.degrees != d):
        return None
    # linspace rounds each breakpoint, so widths differ by up to an ulp of T
    # (1.1e-16 at N = 40, T = 1); breakpoints within 2 ulps of T of it count
    # as equal widths, a test that, unlike one of widths, cannot drift
    if np.any(np.abs(bp - np.linspace(0.0, T, N + 1)) > 2 * np.spacing(T)):
        return None
    t = _shift_rows(_reference_tables(d, alpha).gl.nodes, bp[1:-1], bp[2:]).ravel()
    table = history_weights_batch(bp[:1], bp[1:2], d, t, alpha).reshape(-1, d + 1, d + 1)
    table.flags.writeable = False
    return table


class HistoryRun(OperatorRun):
    """The operators of the equal-degree elements n0..n1 and their history.

    Built once elements 1..n0-1 are solved, from their Lobatto values
    ``prior_u`` (``offsets[n0-1]`` of them, in the ``mesh.offsets`` layout).
    Besides the :class:`OperatorRun` stacks it holds the history integrals
    at the run's Gauss nodes.  Their weights come from ``table``, the mesh's
    :func:`_gap_table`, which :func:`~abelhp.solver.solve` builds once per
    solve; without it (on any other mesh):

    * far part: for each prior degree, one weight call covers every Gauss node
      of the run against every element before n0, and weights, kernel and psi
      are contracted at once;
    * near part: one pairwise weight call covers every Gauss node of each run
      element against each run element before it, and keeps the
      solution-independent products of weight and kernel.

    ``at_nodes(n, lobatto_u)`` adds element n's near sum to its far part; it
    needs only the values of run elements n0..n-1.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n0: int, n1: int, prior_u, table=None):
        offsets, bp, alpha, R = mesh.offsets, mesh.breakpoints, problem.alpha, n1 - n0 + 1
        prior_u = np.asarray(prior_u, dtype=float)
        lo = offsets[n0 - 1]
        if prior_u.shape != (lo,):
            raise ValueError(
                f"element {n0} needs the {lo} Lobatto values of "
                f"elements 1..{n0 - 1}, got shape {prior_u.shape}"
            )
        super().__init__(problem, mesh, n0, n1)
        d, lefts, rights = self.degree, self.lefts, self.rights
        self.lo, self.m = lo, d + 1
        # Gauss nodes and history sample points of the run, flat like mesh.offsets
        self.t = self.t_nodes.ravel()
        points = mesh.history_points
        self.s = points[lo : offsets[n1]]

        t4 = self.t_nodes[:, :, None, None]
        self.far = np.zeros(self.t.size)
        for dk, idx in mesh.degree_groups:
            prior = idx[: np.searchsorted(idx, n0 - 1)]
            if prior.size == 0:
                continue
            # from the table, w[j, i, k - 1] = table[n0 + j - k - 1, i] for node i
            # of element n0 + j and earlier element k: a backwards window of rows
            w = (history_weights_batch(bp[prior], bp[prior + 1], dk, t4[..., 0], alpha)
                 if table is None
                 else sliding_window_view(table, n0 - 1, axis=0)[:R, ..., ::-1].swapaxes(2, 3))
            cols = offsets[prior, None] + np.arange(dk + 1)
            S, U = points[cols], prior_u[cols]
            # in place unless w views the table: w is the largest array here,
            # run nodes x elements x (dk + 1)
            w = np.multiply(w, problem.kappa(t4, S), out=w if w.flags.writeable else None)
            w *= problem.psi(t4, S, U)
            self.far += np.sum(w, axis=(2, 3)).ravel()

        # pairs (row, k) of a Gauss node and a run element k before the
        # node's element, row-major: element j's pairs are the j * (d + 1)^2
        # entries after the first j (j - 1) / 2 * (d + 1)^2
        owner = np.arange(self.t.size) // self.m
        rows, ks = np.nonzero(np.arange(R) < owner[:, None])
        self.near = np.empty((0, self.m))
        if rows.size:
            t = self.t[rows]
            w = (history_weights_batch(lefts[ks], rights[ks], d, t, alpha) if table is None
                 else table[owner[rows] - ks - 1, rows % self.m])
            w *= problem.kappa(t[:, None], self.s.reshape(-1, self.m)[ks])
            self.near = w

    def at_nodes(self, n: int, lobatto_u: np.ndarray) -> np.ndarray:
        """History integral at element n's Gauss nodes, n0 <= n <= n1.

        ``lobatto_u`` holds the Lobatto values in the ``mesh.offsets`` layout
        at least through element n-1.
        """
        j, m = n - self.n0, self.m
        far = self.far[j * m : (j + 1) * m]
        if j == 0:
            return far
        start = j * (j - 1) // 2 * m
        near = self.near[start : start + j * m].reshape(m, j * m)
        u = lobatto_u[self.lo : self.lo + j * m]
        psi = self.problem.psi(self.t[j * m : (j + 1) * m, None], self.s[: j * m], u)
        return far + (near * psi).sum(axis=1)


def _quiet_eval(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(*args), dtype=float)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None


# notes by spec identity (its callables need not hash), dropped as a spec is collected
_NOTES: dict[int, list[str]] = {}


def validate_problem(problem: ProblemSpec) -> list[str]:
    """Spot-check well-posedness assumptions; violations only warn.

    Checked: f(0) = 0, the kernel does not vanish on the diagonal, and the
    solution derivative of the nonlinearity stays away from zero on a sample
    box.  Benchmarks with degenerate kernels or sign-changing derivatives are
    still solvable, so none of these aborts a run.  The checks run once per
    spec, as solves repeat them; every call warns again.
    """
    notes = _NOTES.get(id(problem))
    if notes is None:
        notes = []
        f0 = _quiet_eval(problem.f, np.array(0.0))
        fs = _quiet_eval(problem.f, np.linspace(0.2, 1.0, 5) * problem.T)
        scale = 1.0 if fs is None else max(1.0, float(np.nanmax(np.abs(fs))))
        if f0 is not None and np.isfinite(f0) and abs(float(f0)) > 1e-10 * scale:
            notes.append(f"f(0) = {float(f0):.3e} is not zero")

        ts = np.linspace(0.05, 1.0, 9) * problem.T
        diag = _quiet_eval(problem.kappa, ts, ts)
        if diag is not None:
            finite = diag[np.isfinite(diag)]
            largest = max(1.0, np.max(np.abs(finite), initial=0.0))
            if finite.size and np.min(np.abs(finite)) <= 1e-12 * largest:
                notes.append("kernel vanishes on the diagonal at a sampled point")

        uu = np.array([-2.0, -0.75, -0.1, 0.1, 0.75, 2.0])
        tg, ug = np.meshgrid(ts, uu)
        dv = _quiet_eval(problem.dpsi_du, tg, tg, ug)
        if dv is not None:
            finite = dv[np.isfinite(dv)]
            if finite.size and np.min(np.abs(finite)) < 1e-8:
                notes.append(
                    "d psi/du approaches zero on the sampled range; "
                    "uniqueness assumptions may fail"
                )
        _NOTES[id(problem)] = notes
        weakref.finalize(problem, _NOTES.pop, id(problem), None)
    for msg in notes:
        warnings.warn(msg, ProblemAssumptionWarning, stacklevel=2)
    return list(notes)

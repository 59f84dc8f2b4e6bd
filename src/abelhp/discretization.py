"""Per-element collocation systems for the weakly singular Volterra equation.

For element n the unknowns are the shifted-Legendre coefficients of the local
solution.  The equation is collocated in coefficient space: the weighted
moment of the current-element integral (assembled with Gauss-Jacobi product
quadrature) must match the corresponding moments of the right-hand side and
of the history accumulated over elements 1..n-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh
from .orthopoly import legendre_table
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
    "operator_stretches",
    "ProblemAssumptionWarning",
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

    ``psi_inv(s, z)``, where given, returns the u on the solution's branch
    with psi(t, s, u) = z; declaring it asserts that psi is free of t.  Each
    nonlinear element's Newton then starts from the implicitly linear
    solution: the z that solves the element equation as if psi were u,
    mapped back through psi_inv at the Gauss nodes.

    ``notes``, a tuple of strings set when the spec is built, holds the
    well-posedness assumptions that failed a spot check: f(0) = 0, a kernel
    that does not vanish on the diagonal, and a derivative of psi in u that
    stays away from zero on a sample box.  Benchmarks with degenerate kernels
    or sign-changing derivatives are still solvable, so none of these raises;
    :func:`~abelhp.solver.solve` warns each note on every call.
    """

    alpha: float
    T: float
    kappa: Callable
    psi: Callable
    dpsi_du: Callable
    f: Callable
    linear: bool = False
    psi_inv: Callable | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        # an infinite T would put every spot-check sample at inf
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if self.linear:
            s = np.linspace(0.1, 0.9, 4) * self.T
            u = np.array([-1.3, -0.2, 0.4, 2.0])
            if np.max(np.abs(self.psi(s, s, u) - u)) > 1e-12:
                raise ValueError("linear flag set but psi(t, s, u) != u")
            if np.max(np.abs(self.dpsi_du(s, s, u) - 1.0)) > 1e-12:
                raise ValueError("linear flag set but dpsi_du(t, s, u) != 1")
        if self.psi_inv is not None:
            if self.linear:
                raise ValueError("psi_inv set with the linear flag, whose psi = u needs none")
            # positive samples, in the domain of roots and logarithms
            s = np.linspace(0.1, 0.4, 4) * self.T
            u = np.array([0.2, 0.45, 1.3, 2.0])
            z = self.psi(0.5 * self.T, s, u)
            if np.any(z != self.psi(self.T, s, u)):
                raise ValueError("psi_inv set but psi depends on t")
            back = self.psi(self.T, s, self.psi_inv(s, z))
            if not np.all(np.abs(back - z) <= 1e-12 * np.abs(z)):
                raise ValueError("psi_inv set but psi(t, s, psi_inv(s, z)) != z")
        notes = []
        # f at 0 and on a grid over (0, T], from one call
        fs = _quiet_eval(self.f, np.linspace(0.0, 1.0, 6) * self.T)
        if fs is not None:
            fs = np.broadcast_to(fs, (6,))
            if np.isfinite(fs[0]) and abs(fs[0]) > 1e-10 * max(1.0, np.nanmax(np.abs(fs[1:]))):
                notes.append(f"f(0) = {fs[0]:.3e} is not zero")
        ts = np.linspace(0.05, 1.0, 9) * self.T
        diag = _quiet_eval(self.kappa, ts, ts)
        if diag is not None:
            finite = diag[np.isfinite(diag)]
            largest = max(1.0, np.max(np.abs(finite), initial=0.0))
            if finite.size and np.min(np.abs(finite)) <= 1e-12 * largest:
                notes.append("kernel vanishes on the diagonal at a sampled point")
        tg, ug = np.meshgrid(ts, np.array([-2.0, -0.75, -0.1, 0.1, 0.75, 2.0]))
        dv = _quiet_eval(self.dpsi_du, tg, tg, ug)
        if dv is not None:
            finite = dv[np.isfinite(dv)]
            if finite.size and np.min(np.abs(finite)) < 1e-8:
                notes.append("d psi/du approaches zero on the sampled range; "
                             "uniqueness assumptions may fail")
        # a plain attribute, as Mesh sets its arrays: a cached_property would
        # materialise the instance __dict__ and slow every attribute load
        object.__setattr__(self, "notes", tuple(notes))


def _quiet_eval(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return np.asarray(fn(*args), dtype=float)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return None


@dataclass(frozen=True)
class _ReferenceTables:
    """Tables of a degree-M element on [-1, 1]; the same for every mesh."""

    gl: QuadRule
    gj: QuadRule
    node_product: np.ndarray  # (1 + x_gl_i)(1 + x_gj_j)
    P: np.ndarray  # (p, i): Legendre table at the Gauss-Legendre nodes
    Qflat: np.ndarray  # (q, (i, j)): Legendre table at the rescaled inner nodes, row-major
    proj_scale: np.ndarray
    sys_scale: np.ndarray


@functools.lru_cache(maxsize=None)
def _reference_tables(M: int, alpha: float) -> _ReferenceTables:
    """Build (once per degree and alpha) the read-only reference tables."""
    gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, M)
    gj = gauss_rule(RuleKind.GAUSS_JACOBI, alpha - 1.0, M)
    node_product = (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :]
    tables = (
        node_product,
        legendre_table(M, gl.nodes),
        legendre_table(M, 0.5 * node_product.ravel() - 1.0),
        (2.0 * np.arange(M + 1) + 1.0) / 2.0,
        (2.0 * np.arange(M + 1) + 1.0) / 2.0 ** (1.0 + alpha),
    )
    for table in tables:
        table.flags.writeable = False
    return _ReferenceTables(gl, gj, *tables)


def _run_degree(mesh: Mesh, n0: int, n1: int) -> int:
    """The one degree of elements n0..n1; raises if they are out of range or mixed."""
    if not 1 <= n0 <= n1 <= mesh.N:
        raise IndexError(f"elements {n0}..{n1} outside 1..{mesh.N}")
    d = int(mesh.degrees[n0 - 1])
    if (mesh.degrees[n0 - 1 : n1] != d).any():
        raise ValueError(f"elements {n0}..{n1} do not share one degree")
    return d


class OperatorRun:
    """Collocation operators of the equal-degree elements n0..n1, as stacks.

    :func:`~abelhp.solver.solve` builds one per stretch of
    :func:`operator_stretches`.  Row j of each stack belongs to element
    n0 + j.  The tensor grid (``t_grid``, ``sigma_grid``: a row of (M+1)^2
    points per element) takes one kernel call, and ``B`` of shape
    (R, M+1, (M+1)^2) one product:
    ``B[j, p, (i, k)] = sys_scale_p P_pi prefac_i kappa(t_i, sigma_ik) w_k``.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh, n0: int, n1: int):
        self.degree = d = _run_degree(mesh, n0, n1)
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
        self._run = run  # the history of element n reads its Gauss nodes from it
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

        f is called at this element's nodes alone.  :func:`~abelhp.solver.solve`
        does not call it: it samples f once per stretch, on all the stretch's
        Gauss nodes, and projects each element's row as this does.
        """
        return self.project(np.broadcast_to(self.problem.f(self.t_nodes), self.t_nodes.shape))

    def history(self, prior_u: np.ndarray) -> np.ndarray:
        """Legendre moments of the history integral over elements 1..n-1.

        ``prior_u`` holds the solution values at the shifted Lobatto points of
        elements 1..n-1, concatenated in the ``mesh.offsets`` layout.  This is
        the one-element run of :class:`HistoryRun`, on the weights solve uses.
        """
        table = _gap_table(self.mesh, self.problem.alpha)
        run = HistoryRun(self._run, self.n, self.n, prior_u, table)
        return self.project(run.at_nodes(self.n, prior_u))


# solve assembles the history in runs of consecutive elements; a run closes
# before its (Gauss node, earlier Lobatto point) pairs would exceed this
# many, which bounds the largest temporaries of its assembly.  Stretches of
# runs share operator stacks, and close on their stacks' entries by it
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


def operator_stretches(mesh: Mesh) -> list[list[tuple[int, int]]]:
    """The runs of :func:`history_runs`, grouped into stretches of equal degree.

    The R elements of degree d of a stretch share one :class:`OperatorRun`,
    whose ``B`` holds R (d + 1)^3 entries.  A stretch closes at a change of
    degree, or before these entries would exceed ``_HISTORY_BLOCK``, as runs
    close on pairs; a run whose own entries exceed it is a stretch alone.
    """
    degrees, stretches, total = mesh.degrees.tolist(), [], 0
    for n0, n1 in history_runs(mesh):
        entries = (n1 - n0 + 1) * (degrees[n0 - 1] + 1) ** 3
        if stretches and degrees[n0 - 2] == degrees[n0 - 1] and total + entries <= _HISTORY_BLOCK:
            stretches[-1].append((n0, n1))
            total += entries
        else:
            stretches.append([(n0, n1)])
            total = entries
    return stretches


def _gap_table(mesh: Mesh, alpha: float) -> np.ndarray | None:
    """History weights by gap of a uniform single-degree mesh of several runs, else None.

    Element k's weights at Gauss node i of element n depend only on n - k and i.
    Entry ``[i, p, N - 1 - g]`` of the read-only (d + 1, d + 1, N - 1) table is
    element 1's weight of its Lobatto point p at node i of element 1 + g, from
    one checked weight call.  Reversed by gap, each (i, p) row holds the earlier
    elements of any element in order along its last axis, at unit stride.  These
    weights are also the more accurate: near t = T a node rounds by an ulp of T,
    much of t - right at gap 1.
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
    table = np.ascontiguousarray(table.transpose(1, 2, 0)[..., ::-1])
    table.flags.writeable = False
    return table


# a march's runs shrink as it goes, so consecutive runs mostly share one
# shape; keeping only the last index serves them without holding a first
# run's large one, or each of the dozens of shapes an adaptive pass meets
@functools.lru_cache(maxsize=1)
def _near_pairs(R: int, m: int):
    """Where a run of R elements of m Gauss nodes each pairs a node with an earlier run element.

    The pairs (row, k) of a Gauss node and a run element k before the node's
    element, row-major: element j's pairs are the j m^2 entries after the
    first j (j - 1) / 2 m^2.  Returns, read-only: the rows, the ks, each
    row's node within its element, each pair's gap in elements, and the mask
    of the pairs' m-wide blocks in the (R m)^2 near matrix of
    :meth:`HistoryRun.solve_linear`.
    """
    owner = np.arange(R * m) // m
    lower = np.arange(R) < owner[:, None]
    rows, ks = np.nonzero(lower)
    index = rows, ks, rows % m, owner[rows] - ks, np.repeat(lower, m, axis=1)
    for a in index:
        a.flags.writeable = False
    return index


class HistoryRun:
    """The history integrals at the Gauss nodes of the equal-degree elements n0..n1.

    Built once elements 1..n0-1 are solved, from their Lobatto values
    ``prior_u`` (``offsets[n0-1]`` of them, in the ``mesh.offsets`` layout).
    Its weights come from ``table``, the mesh's :func:`_gap_table`, which
    :func:`~abelhp.solver.solve` builds once per solve; without it (on any
    other mesh):

    * ``far``, the sums over the elements before n0 at the run's Gauss nodes:
      for each prior degree, one weight call covers every Gauss node of the
      run against every element before n0;
    * ``near``, the solution-independent products of weight and kernel of the
      pairs of a Gauss node and a run element before the node's element, from
      one pairwise weight call.

    With the table, the far weights are a view of it with the earlier elements
    innermost, and the kernel is called on the matching grid.  Where psi is
    free of t (u, u^2: an array of the grid's shape), the far and near sums
    contract weights times kernel with it as one matrix-vector product; they
    multiply and sum otherwise.

    ``at_nodes(n, lobatto_u)`` adds element n's near sum to its far part; it
    needs only the values of run elements n0..n-1.  ``solve_linear`` solves
    the whole run at once where psi = u, by forward substitution.

    ``ops`` is the :class:`OperatorRun` of a stretch that holds n0..n1: the run
    takes its problem, mesh, degree and placed Gauss nodes from it.
    """

    def __init__(self, ops: OperatorRun, n0: int, n1: int, prior_u, table=None):
        last = ops.n0 + len(ops.t_nodes) - 1
        if not ops.n0 <= n0 <= n1 <= last:
            raise IndexError(f"elements {n0}..{n1} outside the operators of {ops.n0}..{last}")
        problem, mesh, d = ops.problem, ops.mesh, ops.degree
        offsets, bp, alpha = mesh.offsets, mesh.breakpoints, problem.alpha
        m, N, R = d + 1, mesh.N, n1 - n0 + 1
        prior_u = np.asarray(prior_u, dtype=float)
        lo = offsets[n0 - 1]
        if prior_u.shape != (lo,):
            raise ValueError(
                f"element {n0} needs the {lo} Lobatto values of "
                f"elements 1..{n0 - 1}, got shape {prior_u.shape}"
            )
        self.problem, self.n0, self.lo, self.m = problem, n0, lo, m
        self._stack_rows = slice(n0 - ops.n0, n1 - ops.n0 + 1)  # the run's rows of the stacks
        # Gauss nodes and history sample points of the run, flat like mesh.offsets
        nodes = ops.t_nodes[self._stack_rows]
        self.t = nodes.ravel()
        # element 1 alone has no history, so it needs no sample points
        self.s = mesh.history_points[lo : offsets[n1]] if n1 > 1 else np.empty(0)

        t4 = nodes[:, :, None, None]
        self.far = np.zeros(self.t.size)
        for dk, idx in mesh.degree_groups:
            prior = idx[: np.searchsorted(idx, n0 - 1)]
            if prior.size == 0:
                continue
            if table is None:
                w = history_weights_batch(bp[prior], bp[prior + 1], dk, t4[..., 0], alpha)
                cols = offsets[prior, None] + np.arange(dk + 1)
                S, U = mesh.history_points[cols], prior_u[cols]  # (element, point)
            else:
                # w[j, i, p, k - 1] = table[i, p, N - n0 - j + k - 1] for node i of
                # element n0 + j and earlier element k: each table row read from
                # N - n0 - j on, a read-only view that numpy checks lies in the table
                s0, s1, s2 = table.strides
                w = np.ndarray((R, m, m, n0 - 1), float, table, (N - n0) * s2, (-s2, s0, s1, s2))
                # (point, element), as the table
                S = np.ascontiguousarray(mesh.history_points[:lo].reshape(-1, m).T)
                U = np.ascontiguousarray(prior_u.reshape(-1, m).T)
            # in place unless w views the table: w is the largest array here,
            # run nodes x earlier points
            w = np.multiply(w, problem.kappa(t4, S), out=w if w.flags.writeable else None)
            psi = problem.psi(t4, S, U)
            if np.shape(psi) == S.shape:  # free of t: one matrix-vector product
                self.far += w.reshape(self.t.size, -1) @ np.ravel(psi)
            else:
                w *= psi
                self.far += np.sum(w, axis=(2, 3)).ravel()

        rows, ks, node, gap, self._mask = _near_pairs(R, m)
        self.near = np.empty((0, m))
        if rows.size:
            t = self.t[rows]
            w = (history_weights_batch(bp[n0 - 1 + ks], bp[n0 + ks], d, t, alpha) if table is None
                 else table[node, :, N - 1 - gap])
            w *= problem.kappa(t[:, None], self.s.reshape(-1, m)[ks])
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
        return far + (near @ psi if np.shape(psi) == u.shape else (near * psi).sum(axis=1))

    def solve_linear(self, solvers, lob_maps, f_nodes):
        """The run's coefficients and Lobatto values where psi = u, by forward substitution.

        The arguments stack the elements of the run's :class:`OperatorRun`, of
        which the run reads its rows: ``solvers`` map an element's f - history
        at its Gauss nodes to its coefficients, ``lob_maps`` to its Lobatto
        values, and ``f_nodes`` holds f there.  ``near`` is scattered once into
        the run's dense, strictly block-lower (R (d+1))^2 matrix A, so element
        j's history is ``far_j + A_j lob`` and its values are
        ``lob_maps[j] (f_j - far_j - A_j lob)``, where A_j reads only the
        elements before j: one small product per element against the values
        already found completes them, and one batched product gives all the
        coefficients, ``solvers[j] (f_j - far_j - A_j lob)``.
        """
        rows = self._stack_rows
        solvers, lob_maps, f_nodes = solvers[rows], lob_maps[rows], f_nodes[rows]
        R, m = f_nodes.shape
        A = np.zeros((R * m, R * m))
        A[self._mask] = self.near.ravel()  # the mask's row-major order is the pairs'
        rhs = f_nodes.ravel() - self.far
        lob = np.matvec(lob_maps, rhs.reshape(R, m)).ravel()
        lob_near = lob_maps @ A.reshape(R, m, R * m)
        for j, row in enumerate(lob_near[1:], start=1):
            lob[j * m : (j + 1) * m] -= row[:, : j * m] @ lob[: j * m]
        coeffs = np.matvec(solvers, (rhs - A @ lob).reshape(R, m))
        return coeffs.ravel(), lob

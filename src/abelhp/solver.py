"""Element-marching driver: damped Newton from a warm start on each element,
and forward substitution on linear problems.

Elements are solved in causal order; each solved element writes its values at
the shifted Lobatto points into one contiguous array, from which later
elements assemble their history term without re-expanding earlier solutions.
A linear problem solves each run of elements at once, by forward substitution
in those values.  On a nonlinear one, each element is one damped Newton from
the previous element's coefficients, whose error propagates; it evaluates all
the halvings of a rejected step in one residual call.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discretization import (
    HistoryRun,
    OperatorRun,
    ProblemSpec,
    _gap_table,
    operator_stretches,
    validate_problem,
)
from .mesh import Mesh, locate
from .orthopoly import legendre_table
from .quadrature import RuleKind, _lobatto_table, gauss_rule

__all__ = [
    "SolverOptions",
    "PiecewiseSolution",
    "SolverError",
    "NewtonDivergedError",
    "SingularJacobianError",
    "QuadratureConvergenceError",
    "solve",
    "newton",
    "evaluate",
    "forward_apply",
]


class SolverError(RuntimeError):
    pass


class NewtonDivergedError(SolverError):
    def __init__(self, n: int | None, last_residual_norm: float):
        self.n = n
        self.last_residual_norm = last_residual_norm
        where = f" on element {n}" if n is not None else ""
        super().__init__(
            f"Newton iteration did not converge{where} "
            f"(last residual max-norm {last_residual_norm:.3e})"
        )


class SingularJacobianError(SolverError):
    def __init__(self, n: int | None, iteration: int):
        self.n = n
        self.iteration = iteration
        where = f" on element {n}" if n is not None else ""
        super().__init__(f"singular Jacobian{where} at Newton iteration {iteration}")


class QuadratureConvergenceError(SolverError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the per-element nonlinear solves.

    ``init_constant`` seeds the first element with the constant function of
    that value; nonlinearities whose derivative vanishes at u = 0 (powers of
    u) or that are undefined there (logarithms, roots) need a nonzero seed.
    """

    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    init_constant: float = 0.0

    def __post_init__(self):
        # "not x > 0" rejects NaN too, which every comparison calls False
        if not self.newton_tol > 0.0:
            raise ValueError("newton_tol must be positive")
        # a float count would reach range() and a bool would pass for 0 or 1
        count = self.newton_max_iter
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise TypeError("newton_max_iter must be an integer")
        if count < 1:
            raise ValueError("newton_max_iter must be at least 1")
        if not math.isfinite(self.init_constant):
            raise ValueError("init_constant must be finite")


@dataclass
class PiecewiseSolution:
    """Per-element shifted-Legendre expansions, evaluable on (0, T].

    ``coeffs`` holds the coefficients of every element in one flat array in
    the ``mesh.offsets`` layout: element n owns ``offsets[n-1]:offsets[n]``.
    """

    mesh: Mesh
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.L,):
            raise ValueError(
                f"solution needs the mesh's {self.mesh.L} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    def __call__(self, t):
        return evaluate(self, t)

    def coefficients(self, n: int) -> np.ndarray:
        """Writable view of element n's coefficients (n = 1..N)."""
        if not 1 <= n <= self.mesh.N:
            raise IndexError(f"element index {n} outside 1..{self.mesh.N}")
        offsets = self.mesh.offsets
        return self.coeffs[offsets[n - 1] : offsets[n]]


def _residual_norm(residual_fn, u):
    """The residual at u, its max-norm and the merit r @ r; a NaN or inf entry makes both inf."""
    r = np.asarray(residual_fn(u), dtype=float)
    norm = float(np.abs(r).max(initial=0.0))
    return (r, norm, float(r @ r)) if norm < math.inf else (r, math.inf, math.inf)


def _residual_rows(residual_fn, U):
    """:func:`_residual_norm` of each row of the (K, dim) stack U, from one residual call."""
    R = np.asarray(residual_fn(U), dtype=float)
    if R.shape != U.shape:
        raise ValueError(f"residual_fn must map a (K, dim) stack row by row, got {R.shape}")
    norms = np.abs(R).max(axis=1, initial=0.0).tolist()
    merits = np.vecdot(R, R).tolist()  # row by row, each rounded as r @ r
    rows = zip(R, norms, merits)
    return ((r, n, g) if n < math.inf else (r, math.inf, math.inf) for r, n, g in rows)


_HALVINGS = 0.5 ** np.arange(30)


def _line_search(residual_fn, u, step, scales, g, slope=0.0, tol=-math.inf):
    """First ``u + s * step``, s in ``scales``, with merit < g (1 - slope s) or max-norm <= tol.

    The full step ``scales[0]`` is tried alone, the others only if it fails and
    in one stacked call.  Returns (candidate, residual, max-norm, merit) or None.
    """
    def trials():
        cand = u + scales[0] * step
        yield scales[0], cand, _residual_norm(residual_fn, cand)
        cands = u + scales[1:, None] * step
        yield from zip(scales[1:], cands, _residual_rows(residual_fn, cands))

    for s, cand, (r, norm, g_new) in trials():
        if g_new < g * (1.0 - slope * s) or norm <= tol:
            return cand, r, norm, g_new
    return None


def newton(residual_fn, jacobian_fn, init, options: SolverOptions, n: int | None = None):
    """Damped Newton iteration on a dense square system.

    Full steps are taken by default; the step is halved (up to 19 times) only
    when the least-squares merit of the residual fails to decrease or turns
    non-finite.  ``residual_fn`` maps one vector to its residual and a (K, dim)
    stack row by row, so all halvings of a rejected step take one call (the
    first that passes is taken); ``jacobian_fn`` maps one vector to one matrix.
    Convergence is declared on the residual max-norm.
    """
    u = np.array(init, dtype=float).ravel()
    # non-finite values are caught by the checks below, not warned about
    with np.errstate(all="ignore"):
        r, norm, g = _residual_norm(residual_fn, u)
        for it in range(options.newton_max_iter):
            if norm <= options.newton_tol:
                return u
            if norm == math.inf:
                raise NewtonDivergedError(n, norm)
            J = np.atleast_2d(np.asarray(jacobian_fn(u), dtype=float))
            if not np.isfinite(J).all():
                raise SingularJacobianError(n, it)
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(n, it) from None
            if not np.isfinite(step).all():
                raise SingularJacobianError(n, it)

            # the Newton direction is a descent direction for g = |r|^2 / 2, so
            # backtracking on g succeeds whenever J is nonsingular
            found = _line_search(residual_fn, u, step, _HALVINGS[:20], g, 1e-4, options.newton_tol)
            if found is None:
                raise NewtonDivergedError(n, norm)
            u, r, norm, g = found
    if norm <= options.newton_tol:
        return u
    raise NewtonDivergedError(n, norm)


def steepest_descent_init(residual_fn, jacobian_fn, dim: int, warm_start=None, *,
                          steps: int = 50, step_size: float = 1e-2):
    """Gradient descent toward a starting point for Newton (best effort); no solve calls it.

    Runs ``steps`` fixed-size steps of gradient descent on g(u) = ||r(u)||^2 / 2
    with gradient J^T r from ``warm_start`` (``dim`` zeros when None), halving
    ``step_size`` (up to 29 times) when g would not decrease, and returns the
    iterate with the smallest g seen.  ``residual_fn`` and ``jacobian_fn`` are
    as in :func:`newton`, so the halvings take one stacked call.  A stationary
    start (zero gradient) is returned unchanged.  It stays only because the
    perfbench tracer patches it by name, and goes with that target.
    """
    u = np.zeros(dim) if warm_start is None else np.array(warm_start, dtype=float).ravel()
    with np.errstate(all="ignore"):
        r, norm, g = _residual_norm(residual_fn, u)
        if norm == math.inf:
            return u
        best_u, best_g = u.copy(), g
        for _ in range(steps):
            J = np.atleast_2d(np.asarray(jacobian_fn(u), dtype=float))
            if not np.isfinite(J).all():
                break
            grad = J.T @ r
            if not np.isfinite(grad).all() or (grad == 0.0).all():
                break
            found = _line_search(residual_fn, u, -grad, step_size * _HALVINGS, g)
            if found is None:
                break
            u, r, _, g = found
            if g < best_g:
                best_u, best_g = u.copy(), g
    return best_u


def _lobatto_values(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Values of one element's expansion at its Lobatto points."""
    return coeffs @ _lobatto_table(degree)


def _linear_solvers(problem: ProblemSpec, ops: OperatorRun):
    """Stacks over the elements of ``ops``: the matrices that map f - history at
    the Gauss nodes to coefficients, and f there, from one f call and one inverse.

    dpsi_du == 1, so ``B @ Qflat.T`` is each element's system matrix.
    """
    ref, shape = ops.ref, ops.t_nodes.shape
    f_nodes = np.broadcast_to(problem.f(ops.t_nodes.ravel()), (ops.t_nodes.size,)).reshape(shape)
    systems = ops.B @ ref.Qflat.T
    try:
        inverses = np.linalg.inv(systems)
    except np.linalg.LinAlgError:
        # one error for the whole stack: name its first singular element
        for j, system in enumerate(systems):
            try:
                np.linalg.inv(system)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(ops.n0 + j, 0) from None
        raise
    return (inverses * ref.proj_scale) @ (ref.P * ref.gl.weights), f_nodes


def solve(problem: ProblemSpec, mesh: Mesh, options: SolverOptions | None = None) -> PiecewiseSolution:
    """March elements 1..N, solving each local collocation system.

    Each stretch of :func:`operator_stretches` builds its stacked element
    operators once (:class:`OperatorRun`), and each run of
    :func:`history_runs` in it the history of its elements from everything
    solved before it (:class:`HistoryRun`), all from one table of weights by
    gap when the mesh is uniform with one degree.  A linear stretch calls f
    once on all its Gauss nodes and inverts all its system matrices in one
    batched call; each of its runs is then solved at once
    (``HistoryRun.solve_linear``), a forward substitution with one small
    product per element.  Nonlinear elements call f on their own nodes, add
    their near history to the run's far part (``HistoryRun.at_nodes``) and
    run damped Newton from a warm start: the previous element's
    coefficients, zero-padded or truncated to this element's degree (the
    constant ``init_constant`` on the first element).  Newton's error
    propagates: there is no second start.
    """
    options = options or SolverOptions()
    validate_problem(problem)
    # coefficients and Lobatto values of the solved elements, both in the
    # mesh.offsets layout: element n's history reads the prefix before
    # offsets[n-1], a run's far part the prefix before its first element
    offsets = mesh.offsets
    coeffs = np.empty(mesh.L)
    lobatto_u = np.empty(mesh.L)
    # a uniform mesh's weights by gap serve every run; they go when solve returns
    table = _gap_table(mesh, problem.alpha)
    for stretch in operator_stretches(mesh):
        ops = OperatorRun(problem, mesh, stretch[0][0], stretch[-1][1])
        dim = ops.degree + 1
        if problem.linear:
            solvers, f_nodes = _linear_solvers(problem, ops)
            lob_maps = _lobatto_table(ops.degree).T @ solvers
        for n0, n1 in stretch:
            run = HistoryRun(ops, n0, n1, lobatto_u[: offsets[n0 - 1]], table)
            if problem.linear:
                lo, hi = offsets[n0 - 1], offsets[n1]
                coeffs[lo:hi], lobatto_u[lo:hi] = run.solve_linear(solvers, lob_maps, f_nodes)
                continue
            for n in range(n0, n1 + 1):
                lo, hi = offsets[n - 1], offsets[n]
                op = ops.operator(n)
                warm = np.zeros(dim)
                if n == 1:
                    warm[0] = options.init_constant
                else:
                    prev = coeffs[offsets[n - 2] : lo]
                    k = min(dim, prev.size)
                    warm[:k] = prev[:k]
                # the accumulated history enters the element equation on the
                # right-hand side: current-element moments = rhs - history
                target = op.rhs() - op.project(run.at_nodes(n, lobatto_u))

                def residual(c):
                    return op.weighted_moments(c) - target

                u = newton(residual, op.jacobian, warm, options, n=n)
                coeffs[lo:hi] = u
                lobatto_u[lo:hi] = _lobatto_values(u, ops.degree)
    return PiecewiseSolution(mesh, coeffs)


# evaluate works through the points of each degree in blocks of at most this
# many Legendre values (points x (degree + 1)), so its temporaries stay small
# however many points are asked for
_EVAL_BLOCK = 2**14


def evaluate(solution: PiecewiseSolution, t):
    """Value of the piecewise expansion at t in (0, T] (vectorized).

    t = 0 is evaluated as the limit from inside the first element.
    """
    mesh = solution.mesh
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    # 0-based element of each point; t <= 0 is sent to element 1
    elem_idx = locate(np.where(t_arr <= 0.0, mesh.breakpoints[1], t_arr), mesh) - 1
    if np.any(t_arr < 0.0):
        raise ValueError("evaluation point below 0")
    out = _evaluate_on(solution, t_arr, elem_idx)
    return float(out[0]) if np.ndim(t) == 0 else out


def _evaluate_on(solution: PiecewiseSolution, t_arr: np.ndarray, elem_idx: np.ndarray):
    """Values at the points of the 1-D ``t_arr``, each on its 0-based element ``elem_idx``.

    A point is taken to its element's reference coordinate, clipped to [-1, 1].
    """
    mesh = solution.mesh
    coeffs, offsets, bp = solution.coeffs, mesh.offsets, mesh.breakpoints
    out = np.empty_like(t_arr)
    groups = mesh.degree_groups
    for d, _ in groups:
        # the points on elements of degree d: all of them on a single-degree mesh
        sel = np.flatnonzero(mesh.degrees[elem_idx] == d) if len(groups) > 1 else None
        step = max(1, _EVAL_BLOCK // (d + 1))
        for start in range(0, t_arr.size if sel is None else sel.size, step):
            pts = slice(start, start + step) if sel is None else sel[start : start + step]
            k, t_blk = elem_idx[pts], t_arr[pts]
            left, right = bp[k], bp[k + 1]
            x = np.clip((2.0 * t_blk - left - right) / (right - left), -1.0, 1.0)
            # sum_p coeffs[offsets[k] + p] P_p(x), term by term
            P, first = legendre_table(d, x), offsets[k]
            acc = coeffs[first] * P[0]
            for p in range(1, d + 1):
                acc += coeffs[first + p] * P[p]
            out[pts] = acc
    return out


# forward_apply's base rule size, its acceptance tolerance (relative to the
# integral of the absolute integrand), and the most panels it evaluates at once
_FORWARD_ORDER = 16
_FORWARD_REL_TOL = 1e-10
_FORWARD_BLOCK = 2048


@functools.lru_cache(maxsize=None)
def _forward_rules(alpha: float, first: bool):
    """forward_apply's rules: nodes (x; x - 1 for Gauss-Jacobi), weights, column spans."""
    orders = (_FORWARD_ORDER, _FORWARD_ORDER - 1, 2 * _FORWARD_ORDER - 1)[0 if first else 1 :]
    kinds = (RuleKind.GAUSS_LEGENDRE, None), (RuleKind.GAUSS_JACOBI, alpha - 1.0)
    rules = [[gauss_rule(kind, a, k) for k in orders] for kind, a in kinds]
    nodes = np.array([np.hstack([r.nodes for r in row]) for row in rules]) - [[0.0], [1.0]]
    weights = np.array([np.hstack([r.weights for r in row]) for row in rules])
    bounds = np.cumsum([0, *(k + 1 for k in orders)]).tolist()
    return nodes, weights, [(i, j, first and i == 0) for i, j in zip(bounds, bounds[1:])]


def _panel_sums(problem: ProblemSpec, u_fn, t, a, b, first: bool) -> list[np.ndarray]:
    """forward_apply's rules on the panels [a, b] of the times t: (coarse over |F|,) npts, 2 npts.

    A panel ending at its time (b == t) takes Gauss-Jacobi, the others Gauss-Legendre with the
    singular factor in the integrand.  Each sum rounds as a lone panel's would.
    """
    nodes, weights, spans = _forward_rules(problem.alpha, first)
    jac = b == t
    half = 0.5 * (b - a)  # (t - a) / 2 on Gauss-Jacobi rows, so s = t - half (1 - x) there
    s = np.where(jac, b, 0.5 * (a + b))[:, None] + half[:, None] * nodes.take(jac, axis=0)
    u = np.asarray(u_fn(s.ravel()), dtype=float)
    tc = t[:, None]
    F = problem.kappa(tc, s) * problem.psi(tc, s, u.reshape(s.shape) if u.size == s.size else u)
    if np.count_nonzero(jac) < jac.size or np.shape(F) != s.shape:
        F = np.where(jac[:, None], 1.0, tc - s) ** (problem.alpha - 1.0) * F  # pow(1, y) = 1
    w, scale = weights.take(jac, axis=0), half.copy()
    scale[jac] = [v**problem.alpha for v in half[jac].tolist()]  # numpy's pow can differ by 1 ulp
    sums = (np.vecdot(w[:, i:j], np.abs(F[:, i:j]) if ab else F[:, i:j]) for i, j, ab in spans)
    return [scale * v for v in sums]


def forward_apply(problem: ProblemSpec, u_fn, t, breakpoints: Sequence[float] = ()):
    """Apply the integral operator to an arbitrary function at the times t.

    Computes ``int_0^t (t-s)^(alpha-1) kappa(t, s) psi(t, s, u(s)) ds`` by
    composite quadrature: Gauss-Jacobi on the final (singular) panel,
    Gauss-Legendre on history panels, with panel subdivision until the
    node-doubling estimate converges.  ``breakpoints`` force panel edges,
    e.g. at kinks of u or of the kernel.  Used for manufactured right-hand
    sides and residual audits.

    ``t`` is a float or an array, and the result has its shape (a float for a 0-d t), 0 where
    t <= 0.  The times are refined together, one call of ``u_fn`` (on a 1-D array), ``kappa``
    and ``psi`` per level, yet each value equals that of its time alone.
    """
    t_arr = np.asarray(t, dtype=float)
    times = t_arr.ravel()
    cuts = sorted({float(x) for x in breakpoints if x > 0.0})
    panels = []  # (time, a, b, its time's panels) from 0 through the breakpoints below t to t
    for i, ti in enumerate(times.tolist()):
        if not ti <= 0.0:
            edges = [0.0, *cuts[: bisect.bisect_left(cuts, ti)], ti]
            panels += [(i, e0, e1, len(edges) - 1) for e0, e1 in zip(edges, edges[1:])]
            if len(edges) > 4001:  # over the budget of 4000 panels per time
                raise QuadratureConvergenceError("panel refinement did not converge")
    own, a, b, npan = np.array(panels).reshape(-1, 4).T
    top = own = own.astype(np.intp)
    used, levels = np.bincount(own, minlength=times.size), []
    while own.size:
        blocks = [slice(k, k + _FORWARD_BLOCK) for k in range(0, own.size, _FORWARD_BLOCK)]
        parts = [_panel_sums(problem, u_fn, times[own[k]], a[k], b[k], not levels) for k in blocks]
        sums = [np.concatenate(rule) for rule in zip(*parts)] if parts[1:] else parts[0]
        if not levels:  # bincount sums a time's panels in order, from 0.0 up
            coarse = np.bincount(own, sums.pop(0), times.size)
            tol = _FORWARD_REL_TOL * np.maximum(coarse[own], 1e-30) / npan
        i1, i2 = sums
        rej = (~(np.abs(i2 - i1) <= tol)).nonzero()[0]
        if rej.size:  # a panel narrower than 1e-15 * max(1, |b|) is accepted as it is
            rej = rej[~(b[rej] - a[rej] < 1e-15 * np.maximum(1.0, np.abs(b[rej])))]
        levels.append((i2, rej))
        if not rej.size:
            break
        # the rejected panels' halves, left then right, with half the tolerance
        m = 0.5 * (a[rej] + b[rej])
        a, b = a[rej].repeat(2), b[rej].repeat(2)
        a[1::2], b[::2] = m, m
        own, tol = own[rej].repeat(2), (0.5 * tol[rej]).repeat(2)
        used += np.bincount(own, minlength=times.size)
        if used.max() > 4000 or len(levels) > 40:
            raise QuadratureConvergenceError("panel refinement did not converge")
    # a split panel's value is its halves' sum, folded from the deepest level
    for (upper, rej), (lower, _) in zip(levels[-2::-1], levels[:0:-1]):
        upper[rej] = lower[::2] + lower[1::2]
    out = np.bincount(top, levels[0][0], times.size) if levels else np.zeros(times.size)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)

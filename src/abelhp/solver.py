"""Element-marching driver: damped Newton from a warm start on each element,
and forward substitution on linear problems.

Elements are solved in causal order; each solved element writes its values at
the shifted Lobatto points into one contiguous array, from which later
elements assemble their history term without re-expanding earlier solutions.
f is sampled once per stretch of elements that share their operators.  A
linear problem solves each run of elements at once, by forward substitution
in those values, a block of elements at a time.  On a nonlinear one, each
element is one damped Newton from a warm start, whose error propagates; it
evaluates all the halvings of a rejected step in one residual call.  The warm start is the implicitly linear
solution where psi has a declared inverse, else the previous element's
coefficients.

Newton's steps and the stretches' system inverses call the LAPACK gufuncs
that ``np.linalg.solve`` and ``np.linalg.inv`` wrap (``solve1`` and ``inv``
of ``numpy.linalg._umath_linalg``) directly, with the same signature and so
the same bits: the wrapper's checks and its ``errstate`` took 3.3 of the
4.9 us of a 5x5 ``np.linalg.solve`` (timeit, numpy 2.4.6), once per Newton
iteration.  With floating-point warnings off, a singular matrix gives NaN
where the wrapper raises ``LinAlgError``, and the callers raise
``SingularJacobianError`` on that.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .discretization import (
    HistoryRun,
    OperatorRun,
    ProblemAssumptionWarning,
    ProblemSpec,
    _gap_table,
    _near_pairs,
    operator_stretches,
)
from .mesh import Mesh, locate
from .orthopoly import legendre_table
# gauss_rule is unused here; perfbench/tracing.py wraps it here, and it goes with that target
from .quadrature import _lobatto_table, gauss_rule

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
    that value, on problems without ``psi_inv`` only (those start every
    element from the implicitly linear solution); nonlinearities whose
    derivative vanishes at u = 0 (powers of u) or that are undefined there
    (logarithms, roots) need a nonzero seed.
    """

    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    init_constant: float = 0.0

    def __post_init__(self):
        # a NaN fails both comparisons; an infinite tolerance would accept the unsolved start
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        # a float count would reach range() and a bool would pass for 0 or 1
        count = self.newton_max_iter
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise TypeError("newton_max_iter must be an integer")
        if count < 1:
            raise ValueError("newton_max_iter must be at least 1")
        if not math.isfinite(self.init_constant):
            raise ValueError("init_constant must be finite")


@dataclass(frozen=True)
class PiecewiseSolution:
    """Per-element shifted-Legendre expansions, evaluable on (0, T].

    ``coeffs`` holds the coefficients of every element in one flat array in
    the ``mesh.offsets`` layout: element n owns ``offsets[n-1]:offsets[n]``.
    The record is frozen, so its mesh and coefficients stay paired; the
    coefficient array itself stays writable.
    """

    mesh: Mesh
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.mesh.L,):
            raise ValueError(
                f"solution needs the mesh's {self.mesh.L} coefficients, "
                f"got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t):
        return evaluate(self, t)

    def coefficients(self, n: int) -> np.ndarray:
        """Writable view of element n's coefficients (n = 1..N)."""
        if not 1 <= n <= self.mesh.N:
            raise IndexError(f"element index {n} outside 1..{self.mesh.N}")
        offsets = self.mesh.offsets
        return self.coeffs[offsets[n - 1] : offsets[n]]


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square a and a 1-d b, bit for bit, without
    its wrapper; a singular a gives NaN.  Call it with floating-point warnings off."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _lu_inv(a: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(a)`` of a stack of square matrices, bit for bit, without its
    wrapper; a singular matrix's inverse is NaN.  Call it with floating-point warnings off."""
    return _umath_linalg.inv(a, signature="d->d")


def _residual_norm(residual_fn, u):
    """The residual at u, its max-norm and the merit r @ r; a NaN or inf entry makes both inf."""
    r = residual_fn(u)
    if type(r) is not np.ndarray or r.dtype != float:
        r = np.asarray(r, dtype=float)
    norm = float(np.maximum.reduce(np.abs(r), initial=0.0))
    return (r, norm, float(r.dot(r))) if norm < math.inf else (r, math.inf, math.inf)


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite, from one sum where that sum is finite.

    A sum that is not finite may only have overflowed, so the entries are
    checked then.  Call it with floating-point warnings off.
    """
    return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())


def _residual_rows(residual_fn, U):
    """:func:`_residual_norm` of each row of the (K, dim) stack U, from one residual call,
    as three stacks: residuals, max-norms and merits."""
    R = residual_fn(U)
    if type(R) is not np.ndarray or R.dtype != float:
        R = np.asarray(R, dtype=float)
    if R.shape != U.shape:
        raise ValueError(f"residual_fn must map a (K, dim) stack row by row, got {R.shape}")
    norms = np.maximum.reduce(np.abs(R), axis=1, initial=0.0)
    merits = np.vecdot(R, R)  # row by row, each rounded as r @ r
    bad = ~(norms < math.inf)  # a NaN or inf entry makes both inf
    norms[bad] = merits[bad] = math.inf
    return R, norms, merits


_HALVINGS = 0.5 ** np.arange(30)


def _line_search(residual_fn, u, step, scales, g, slope=0.0, tol=-math.inf):
    """First ``u + s * step``, s in ``scales``, with merit < g (1 - slope s) or max-norm <= tol.

    All the trials take one stacked call.  Returns (candidate, residual,
    max-norm, merit) or None.
    """
    cands = u + scales[:, None] * step
    R, norms, merits = _residual_rows(residual_fn, cands)
    passed = (merits < g * (1.0 - slope * scales)) | (norms <= tol)
    if not passed.any():
        return None
    i = int(passed.argmax())
    return cands[i], R[i], float(norms[i]), float(merits[i])


def newton(residual_fn, jacobian_fn, init, options: SolverOptions, n: int | None = None):
    """Damped Newton iteration on a dense square system.

    Full steps are taken by default; the step is halved (up to 19 times) only
    when the least-squares merit of the residual fails to decrease or turns
    non-finite.  ``residual_fn`` maps one vector to its residual and a (K, dim)
    stack row by row, so all halvings of a rejected step take one call (the
    first that passes is taken); ``jacobian_fn`` maps one vector to one matrix.
    Convergence is declared on the residual max-norm.
    """
    u, tol = np.array(init, dtype=float).ravel(), options.newton_tol
    # non-finite values are caught by the checks below, not warned about
    with np.errstate(all="ignore"):
        r, norm, g = _residual_norm(residual_fn, u)
        for it in range(options.newton_max_iter):
            if norm <= tol:
                return u
            if norm == math.inf:
                raise NewtonDivergedError(n, norm)
            J = jacobian_fn(u)
            if getattr(J, "dtype", None) != float or J.ndim != 2:
                J = np.atleast_2d(np.asarray(J, dtype=float))
            # a singular J gives a NaN step, and a J holding inf can give a finite
            # one: one sum checks both, unless it is not finite
            step = _lu_solve(J, -r)
            if not (math.isfinite(np.add.reduce(J, None) + np.add.reduce(step))
                    or _finite(J) and _finite(step)):
                raise SingularJacobianError(n, it)

            cand = u + step
            r_new, norm_new, g_new = _residual_norm(residual_fn, cand)
            if g_new < g * (1.0 - 1e-4) or norm_new <= tol:
                u, r, norm, g = cand, r_new, norm_new, g_new
                continue
            # the Newton direction is a descent direction for g = |r|^2 / 2, so
            # backtracking on g succeeds whenever J is nonsingular
            found = _line_search(residual_fn, u, step, _HALVINGS[1:20], g, 1e-4, tol)
            if found is None:
                raise NewtonDivergedError(n, norm)
            u, r, norm, g = found
    if norm <= tol:
        return u
    raise NewtonDivergedError(n, norm)


def steepest_descent_init(residual_fn, jacobian_fn, dim: int, warm_start=None, *,
                          steps: int = 50, step_size: float = 1e-2):
    """Gradient descent toward a starting point for Newton (best effort); no solve calls it.

    Runs ``steps`` fixed-size steps of gradient descent on g(u) = ||r(u)||^2 / 2
    with gradient J^T r from ``warm_start`` (``dim`` zeros when None), halving
    ``step_size`` (up to 29 times) when g would not decrease, and returns the
    iterate with the smallest g seen.  ``residual_fn`` and ``jacobian_fn`` are
    as in :func:`newton`, so a step's 30 trial sizes take one stacked call.  A stationary
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


def _system_inverses(ops: OperatorRun) -> np.ndarray:
    """The inverses of the elements' systems ``B @ Qflat.T`` for psi = u, from one call.

    Raises ``SingularJacobianError`` naming the first element whose inverse
    is not finite.
    """
    systems = ops.B @ ops.ref.Qflat.T
    with np.errstate(all="ignore"):
        inverses = _lu_inv(systems)
        if _finite(inverses):
            return inverses
    first = int(np.isfinite(inverses).all(axis=(1, 2)).argmin())
    raise SingularJacobianError(ops.n0 + first, 0)


def _linear_solvers(ops: OperatorRun) -> np.ndarray:
    """The stack of matrices that map f - history at the Gauss nodes of each
    element of ``ops`` to its coefficients, from one inverse.

    dpsi_du == 1, so ``B @ Qflat.T`` is each element's system matrix.
    """
    ref = ops.ref
    return (_system_inverses(ops) * ref.proj_scale) @ (ref.P * ref.gl.weights)


# a linear run's forward substitution takes whole elements of about this
# many unknowns at a time: max(1, 32 // (degree + 1)) elements
_SUBSTITUTION_BLOCK = 32


def _solve_linear_run(run: HistoryRun, solvers, lob_maps, f_nodes):
    """The coefficients and Lobatto values of a linear run, by forward substitution.

    ``solvers`` map each run element's f - history at its Gauss nodes to its
    coefficients, ``lob_maps`` to its Lobatto values, and ``f_nodes`` holds f
    there, one row per element.  With A the run's ``near_matrix()`` and H the
    stack of ``lob_maps``, the Lobatto values lob solve (I + H A) lob =
    H (f - far), a unit lower-triangular system.  It is solved a block of
    whole elements at a time: one product with the values already found, then
    one LAPACK solve of the block's diagonal block.  One batched product then
    gives all the coefficients, ``solvers (f - far - A lob)``.
    """
    R, m = f_nodes.shape
    A, rhs = run.near_matrix(), f_nodes.ravel() - run.far
    lob = np.matvec(lob_maps, rhs.reshape(R, m)).ravel()
    L = (lob_maps @ A.reshape(R, m, R * m)).reshape(R * m, R * m)
    L.ravel()[:: R * m + 1] = 1.0  # A's diagonal blocks are zero
    step = max(1, _SUBSTITUTION_BLOCK // m) * m
    for s in range(0, R * m, step):
        block = slice(s, s + step)
        if s:
            lob[block] -= L[block, :s] @ lob[:s]
        lob[block] = _lu_solve(L[block, block], lob[block])
    coeffs = np.matvec(solvers, (rhs - A @ lob).reshape(R, m))
    return coeffs.ravel(), lob


def _f_at_nodes(problem: ProblemSpec, ops: OperatorRun) -> np.ndarray:
    """f at the Gauss nodes of the elements of ``ops``, one row each, from one f call.

    Raises ``SolverError`` when any of these values is not finite.
    """
    t = ops.t_nodes
    f = np.broadcast_to(problem.f(t.ravel()), (t.size,)).reshape(t.shape)
    if not np.isfinite(f).all():
        raise SolverError(f"f is not finite at the Gauss nodes of elements "
                          f"{ops.n0}..{ops.n0 + t.shape[0] - 1}")
    return f


def solve(problem: ProblemSpec, mesh: Mesh, options: SolverOptions | None = None) -> PiecewiseSolution:
    """March elements 1..N, solving each local collocation system.

    Each stretch of :func:`operator_stretches` builds its stacked element
    operators once (:class:`OperatorRun`), and each run of
    :func:`history_runs` in it the history of its elements from everything
    solved before it (:class:`HistoryRun`), all from one table of weights by
    gap when the mesh is uniform with one degree.  Every stretch calls f
    once, on all its Gauss nodes, so a march that fails on an element has
    sampled f on the rest of its stretch too.  A linear stretch inverts all
    its system matrices in one batched call; each of its runs is then solved
    at once (:func:`_solve_linear_run`), a forward substitution in blocks of
    elements.  One near-pair index per degree, sized for that degree's
    longest run, serves every run of the solve, and goes when it returns.
    Nonlinear elements project their row of f, add their near history to the
    run's far part (``HistoryRun.at_nodes``) and run damped Newton from a
    warm start.  Where the problem declares
    ``psi_inv``, the warm start is the implicitly linear solution: the
    element equation is solved for z = psi(u) as if psi were u, with the
    stretch's system inverses from one batched call, and u = psi_inv(z) at
    the Gauss nodes is projected to coefficients.  Otherwise it is the
    previous element's coefficients, zero-padded or truncated to this
    element's degree (the constant ``init_constant`` on the first element).
    Newton's error propagates: there is no second start.
    """
    options = options or SolverOptions()
    for note in problem.notes:
        warnings.warn(note, ProblemAssumptionWarning, stacklevel=2)
    # coefficients and Lobatto values of the solved elements, both in the
    # mesh.offsets layout: element n's history reads the prefix before
    # offsets[n-1], a run's far part the prefix before its first element
    offsets = mesh.offsets
    coeffs = np.empty(mesh.L)
    lobatto_u = np.empty(mesh.L)
    # a uniform mesh's weights by gap serve every run; they go when solve returns
    table = _gap_table(mesh, problem.alpha)
    # one near-pair index per degree, sized for its longest run; every run
    # reads a prefix of it, and it goes when solve returns
    stretches, longest = operator_stretches(mesh), {}
    for n0, n1 in (run for stretch in stretches for run in stretch):
        d = int(mesh.degrees[n0 - 1])
        longest[d] = max(longest.get(d, 0), n1 - n0 + 1)
    pairs = {d: _near_pairs(R, d + 1) for d, R in longest.items()}
    for stretch in stretches:
        ops = OperatorRun(problem, mesh, stretch[0][0], stretch[-1][1])
        dim, f_nodes = ops.degree + 1, _f_at_nodes(problem, ops)
        if problem.linear:
            solvers = _linear_solvers(ops)
            lob_maps = _lobatto_table(ops.degree).T @ solvers
        elif problem.psi_inv is not None:
            inverses = _system_inverses(ops)
        for n0, n1 in stretch:
            run = HistoryRun(ops, n0, n1, lobatto_u[: offsets[n0 - 1]], table, pairs[ops.degree])
            if problem.linear:
                lo, hi, rows = offsets[n0 - 1], offsets[n1], slice(n0 - ops.n0, n1 - ops.n0 + 1)
                coeffs[lo:hi], lobatto_u[lo:hi] = _solve_linear_run(
                    run, solvers[rows], lob_maps[rows], f_nodes[rows])
                continue
            for n in range(n0, n1 + 1):
                lo, hi = offsets[n - 1], offsets[n]
                op = ops.operator(n)
                # the accumulated history enters the element equation on the
                # right-hand side: current-element moments = rhs - history,
                # rhs as ElementOperator.rhs projects it
                target = op.project(f_nodes[n - ops.n0]) - op.project(run.at_nodes(n, lobatto_u))
                if problem.psi_inv is not None:
                    # the implicitly linear solution: z = psi(u) solves the
                    # element equation as if it were linear, u = psi_inv(z)
                    z = inverses[n - ops.n0] @ target @ ops.ref.P
                    warm = op.project(problem.psi_inv(op.t_nodes, z))
                else:
                    warm = np.zeros(dim)
                    if n == 1:
                        warm[0] = options.init_constant
                    else:
                        prev = coeffs[offsets[n - 2] : lo]
                        k = min(dim, prev.size)
                        warm[:k] = prev[:k]

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
    for d, _, _ in groups:
        # the points on elements of degree d: all of them on a single-degree mesh
        sel = np.flatnonzero(mesh.degrees[elem_idx] == d) if len(groups) > 1 else None
        step = max(1, _EVAL_BLOCK // (d + 1))
        for start in range(0, t_arr.size if sel is None else sel.size, step):
            pts = slice(start, start + step) if sel is None else sel[start : start + step]
            k, t_blk = elem_idx[pts], t_arr[pts]
            left, right = bp[k], bp[k + 1]
            x = np.clip((2.0 * t_blk - left - right) / (right - left), -1.0, 1.0)
            # sum_p coeffs[offsets[k] + p] P_p(x): numpy sums the (p, point)
            # terms over p row by row, in order, as a loop over p would; a
            # lone point's column is summed pairwise, so it gets a stride-0 twin
            terms = coeffs.take(offsets.take(k) + np.arange(d + 1)[:, None])
            terms *= legendre_table(d, x)
            if k.size == 1:
                terms = np.broadcast_to(terms, (d + 1, 2))
            out[pts] = terms.sum(axis=0)[: k.size]
    return out

"""Element-marching driver: damped Newton from a warm start, with a descent
phase as recovery.

Elements are solved in causal order; each solved element writes its values at
the shifted Lobatto points into one contiguous array, from which later
elements assemble their history term without re-expanding earlier solutions.
Newton starts from the previous element's coefficients; only when it fails
there does a steepest-descent phase run and hand Newton a second starting
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discretization import HistoryRun, ProblemSpec, history_runs, validate_problem
from .mesh import Mesh, locate
from .orthopoly import JacobiParams, legendre_table
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
    "steepest_descent_init",
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
    ``descent_steps`` and ``descent_step_size`` govern the recovery phase,
    which runs only on an element where Newton from the warm start raised.
    """

    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    descent_steps: int = 50
    descent_step_size: float = 1e-2
    init_constant: float = 0.0

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1 or self.descent_steps < 0:
            raise ValueError("iteration counts out of range")


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


def newton(residual_fn, jacobian_fn, init, options: SolverOptions, n: int | None = None):
    """Damped Newton iteration on a dense square system.

    Full steps are taken by default; the step is halved (up to 20 times) only
    when the least-squares merit of the residual fails to decrease or turns
    non-finite.  Convergence is declared on the residual max-norm.
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
            if not np.all(np.isfinite(J)):
                raise SingularJacobianError(n, it)
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(n, it) from None
            if not np.all(np.isfinite(step)):
                raise SingularJacobianError(n, it)

            # the Newton direction is a descent direction for g = |r|^2 / 2, so
            # backtracking on g succeeds whenever J is nonsingular
            scale = 1.0
            for _ in range(20):
                cand = u + scale * step
                r_new, norm_new, g_new = _residual_norm(residual_fn, cand)
                if g_new < g * (1.0 - 1e-4 * scale) or norm_new <= options.newton_tol:
                    u, r, norm, g = cand, r_new, norm_new, g_new
                    break
                scale *= 0.5
            else:
                raise NewtonDivergedError(n, norm)
    if norm <= options.newton_tol:
        return u
    raise NewtonDivergedError(n, norm)


def steepest_descent_init(
    residual_fn,
    jacobian_fn,
    dim: int,
    options: SolverOptions,
    warm_start=None,
):
    """Descent phase producing a starting point for Newton (best effort).

    Runs fixed-step gradient descent on g(u) = ||r(u)||^2 / 2 with gradient
    J^T r from ``warm_start`` (``dim`` zeros when None), halving the step when
    g would increase, and returns the iterate with the smallest g seen.  A
    stationary start (zero gradient) is returned unchanged.  ``solve`` runs it
    only to recover an element where Newton from the warm start failed.
    """
    u = np.zeros(dim) if warm_start is None else np.array(warm_start, dtype=float).ravel()
    with np.errstate(all="ignore"):
        r, norm, g = _residual_norm(residual_fn, u)
        if norm == math.inf:
            return u
        best_u, best_g = u.copy(), g
        for _ in range(options.descent_steps):
            J = np.atleast_2d(np.asarray(jacobian_fn(u), dtype=float))
            if not np.all(np.isfinite(J)):
                break
            grad = J.T @ r
            if not np.all(np.isfinite(grad)) or np.all(grad == 0.0):
                break
            step = options.descent_step_size
            for _ in range(30):
                cand = u - step * grad
                r_c, _, g_c = _residual_norm(residual_fn, cand)
                if g_c < g:
                    break
                step *= 0.5
            else:
                break
            u, r, g = cand, r_c, g_c
            if g < best_g:
                best_u, best_g = u.copy(), g
    return best_u


def _lobatto_values(coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Values of one element's expansion at its Lobatto points."""
    return coeffs @ _lobatto_table(degree)


def solve(problem: ProblemSpec, mesh: Mesh, options: SolverOptions | None = None) -> PiecewiseSolution:
    """March elements 1..N, solving each local collocation system.

    Each run of :func:`history_runs` builds its history and its stacked
    element operators at once (:class:`HistoryRun`).  A linear run inverts
    all its system matrices in one batched call; each element then costs its
    near-history sum and one matrix-vector product.  Nonlinear elements run
    damped Newton from a warm start: the previous element's coefficients,
    zero-padded or truncated to this element's degree (the constant
    ``init_constant`` on the first element).  Only if that Newton raises does
    the descent phase run from the same warm start, followed by a second
    Newton whose error is the one that propagates; when descent leaves the
    start unchanged, the first error is re-raised instead.
    """
    options = options or SolverOptions()
    validate_problem(problem, mesh)
    # coefficients and Lobatto values of the solved elements, both in the
    # mesh.offsets layout: element n's history reads the prefix before
    # offsets[n-1], a run's far part the prefix before its first element
    offsets = mesh.offsets
    coeffs = np.empty(mesh.L)
    lobatto_u = np.empty(mesh.L)
    for n0, n1 in history_runs(mesh):
        # the run's operators, and its history from everything solved before it
        run = HistoryRun(problem, mesh, n0, n1, lobatto_u[: offsets[n0 - 1]])
        dim = run.degree + 1
        if problem.linear:
            # dpsi_du == 1, so B @ Qflat.T is each element's system matrix;
            # solvers[j] maps f - history at the Gauss nodes to coefficients,
            # and f is one call on all the run's nodes, as all are solved
            ref = run.ref
            f_nodes = np.broadcast_to(problem.f(run.t), run.t.shape).reshape(run.t_nodes.shape)
            systems = run.B @ ref.Qflat.T
            try:
                solvers = (np.linalg.inv(systems) * ref.proj_scale) @ (ref.P * ref.gl.weights)
            except np.linalg.LinAlgError:
                # one error for the whole stack: name its first singular element
                for j, system in enumerate(systems):
                    try:
                        np.linalg.inv(system)
                    except np.linalg.LinAlgError:
                        raise SingularJacobianError(n0 + j, 0) from None
                raise
        for n in range(n0, n1 + 1):
            lo, hi = offsets[n - 1], offsets[n]
            history = run.at_nodes(n, lobatto_u)
            if problem.linear:
                u = solvers[n - n0] @ (f_nodes[n - n0] - history)
            else:
                op = run.operator(n)
                # the accumulated history enters the element equation on the
                # right-hand side: current-element moments = rhs - history
                target = op.rhs() - op.project(history)
                warm = np.zeros(dim)
                if n == 1:
                    warm[0] = options.init_constant
                else:
                    prev = coeffs[offsets[n - 2] : lo]
                    k = min(dim, prev.size)
                    warm[:k] = prev[:k]

                def residual(c):
                    return op.weighted_moments(c) - target

                try:
                    u = newton(residual, op.jacobian, warm, options, n=n)
                except (NewtonDivergedError, SingularJacobianError):
                    start = steepest_descent_init(
                        residual, op.jacobian, dim, options, warm_start=warm
                    )
                    if np.array_equal(start, warm):
                        raise  # descent did not move: Newton would fail the same way
                    u = newton(residual, op.jacobian, start, options, n=n)
            coeffs[lo:hi] = u
            lobatto_u[lo:hi] = _lobatto_values(u, run.degree)
    return PiecewiseSolution(mesh, coeffs)


# evaluate works through the points in blocks of this many, so its
# temporaries stay small however many points are asked for
_EVAL_BLOCK = 2048


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
    coeffs, offsets, bp = solution.coeffs, mesh.offsets, mesh.breakpoints
    out = np.empty_like(t_arr)
    for start in range(0, t_arr.size, _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        k, t_blk = elem_idx[block], t_arr[block]
        deg = mesh.degrees[k]
        res = out[block]
        for d in np.unique(deg):
            d = int(d)
            sel = np.flatnonzero(deg == d)
            ks = k[sel]
            left, right = bp[ks], bp[ks + 1]
            x = np.clip((2.0 * t_blk[sel] - left - right) / (right - left), -1.0, 1.0)
            C = coeffs[offsets[ks, None] + np.arange(d + 1)]
            res[sel] = np.einsum("kp,pk->k", C, legendre_table(d, x))
    return float(out[0]) if np.ndim(t) == 0 else out


def _rule_sum(F, a, b, t, alpha, order):
    """One rule of degree ``order`` for int_a^b (t-s)^(alpha-1) F(s) ds.

    The final panel (b == t) takes Gauss-Jacobi, which absorbs the singular
    factor; earlier panels take Gauss-Legendre with the factor written into
    the integrand.
    """
    if b == t:
        rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(alpha - 1.0, 0.0), order)
        s = t - 0.5 * (t - a) * (1.0 - rule.nodes)
        return (0.5 * (t - a)) ** alpha * float(rule.weights @ F(s))
    rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, order)
    half = 0.5 * (b - a)
    s = 0.5 * (a + b) + half * rule.nodes
    return half * float(rule.weights @ ((t - s) ** (alpha - 1.0) * F(s)))


def _panel(F, a, b, t, alpha, npts, tol, depth, budget):
    """Adaptive panel [a, b]: npts against 2 * npts nodes, bisected until they agree."""
    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureConvergenceError("panel refinement did not converge")
    i1 = _rule_sum(F, a, b, t, alpha, npts - 1)
    i2 = _rule_sum(F, a, b, t, alpha, 2 * npts - 1)
    if abs(i2 - i1) <= tol or (b - a) < 1e-15 * max(1.0, abs(b)):
        return i2
    if depth <= 0:
        raise QuadratureConvergenceError("panel refinement did not converge")
    m = 0.5 * (a + b)
    return _panel(F, a, m, t, alpha, npts, 0.5 * tol, depth - 1, budget) + _panel(
        F, m, b, t, alpha, npts, 0.5 * tol, depth - 1, budget
    )


# forward_apply's base rule size and its acceptance tolerance, which is
# relative to the integral of the absolute integrand
_FORWARD_ORDER = 16
_FORWARD_REL_TOL = 1e-10


def forward_apply(
    problem: ProblemSpec, u_fn, t: float, breakpoints: Sequence[float] = ()
) -> float:
    """Apply the integral operator to an arbitrary function at time t.

    Computes ``int_0^t (t-s)^(alpha-1) kappa(t, s) psi(t, s, u(s)) ds`` by
    composite quadrature: Gauss-Jacobi on the final (singular) panel,
    Gauss-Legendre on history panels, with panel subdivision until the
    node-doubling estimate converges.  ``breakpoints`` force panel edges,
    e.g. at kinks of u or of the kernel.  Used for manufactured right-hand
    sides and residual audits.

    The acceptance tolerance is relative to the integral of the absolute
    integrand, so an integral that crosses zero is still resolved.
    """
    if t <= 0.0:
        return 0.0
    alpha = problem.alpha

    def F(s):
        u = np.asarray(u_fn(s), dtype=float)
        return np.broadcast_to(problem.kappa(t, s) * problem.psi(t, s, u), s.shape)

    edges = [0.0] + sorted({float(b) for b in breakpoints if 0.0 < b < t}) + [t]
    panels = list(zip(edges[:-1], edges[1:]))
    # a crude first pass over |F| (the kernel factor is positive) fixes the
    # absolute acceptance tolerance; plain loops, as sum() of floats is
    # compensated on Python >= 3.12
    coarse = 0.0
    for a, b in panels:
        coarse += _rule_sum(lambda s: np.abs(F(s)), a, b, t, alpha, _FORWARD_ORDER)
    tol = _FORWARD_REL_TOL * max(coarse, 1e-30) / len(panels)
    total = 0.0
    budget = [4000]  # shared panel allowance; exceeding it means stagnation
    for a, b in panels:
        total += _panel(F, a, b, t, alpha, _FORWARD_ORDER, tol, 40, budget)
    return total

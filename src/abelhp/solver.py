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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discretization import ElementOperator, ProblemSpec, validate_problem
from .mesh import Mesh, locate
from .orthopoly import JacobiParams, legendre_table
from .quadrature import RuleKind, gauss_rule

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


def _max_norm(r) -> float:
    r = np.asarray(r, dtype=float)
    return float(np.max(np.abs(r))) if r.size else 0.0


def _residual_norm(residual_fn, u):
    with np.errstate(all="ignore"):
        r = np.asarray(residual_fn(u), dtype=float)
    norm = _max_norm(r) if np.all(np.isfinite(r)) else np.inf
    return r, norm


def newton(residual_fn, jacobian_fn, init, options: SolverOptions, n: int | None = None):
    """Damped Newton iteration on a dense square system.

    Full steps are taken by default; the step is halved (up to 20 times) only
    when the least-squares merit of the residual fails to decrease or turns
    non-finite.  Convergence is declared on the residual max-norm.
    """
    u = np.array(init, dtype=float).ravel()
    r, norm = _residual_norm(residual_fn, u)
    g = float(r @ r) if np.isfinite(norm) else np.inf
    for it in range(options.newton_max_iter):
        if norm <= options.newton_tol:
            return u
        if not np.isfinite(norm):
            raise NewtonDivergedError(n, norm)
        with np.errstate(all="ignore"):
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
            r_new, norm_new = _residual_norm(residual_fn, cand)
            g_new = float(r_new @ r_new) if np.isfinite(norm_new) else np.inf
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
    r, norm = _residual_norm(residual_fn, u)
    if not np.isfinite(norm):
        return u
    g = 0.5 * float(r @ r)
    best_u, best_g = u.copy(), g
    for _ in range(options.descent_steps):
        with np.errstate(all="ignore"):
            J = np.atleast_2d(np.asarray(jacobian_fn(u), dtype=float))
        if not np.all(np.isfinite(J)):
            break
        grad = J.T @ r
        if not np.all(np.isfinite(grad)) or np.all(grad == 0.0):
            break
        step = options.descent_step_size
        for _ in range(30):
            cand = u - step * grad
            r_c, norm_c = _residual_norm(residual_fn, cand)
            g_c = 0.5 * float(r_c @ r_c) if np.isfinite(norm_c) else np.inf
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
    nodes = gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).nodes
    return coeffs @ legendre_table(degree, nodes)


def solve(problem: ProblemSpec, mesh: Mesh, options: SolverOptions | None = None) -> PiecewiseSolution:
    """March elements 1..N, solving each local collocation system.

    Linear problems take one LU solve per element.  Nonlinear ones run damped
    Newton from a warm start: the previous element's coefficients, zero-padded
    or truncated to this element's degree (the constant ``init_constant`` on
    the first element).  Only if that Newton raises does the descent phase run
    from the same warm start, followed by a second Newton whose error is the
    one that propagates; when descent leaves the start unchanged, the first
    error is re-raised instead.
    """
    options = options or SolverOptions()
    validate_problem(problem, mesh)
    # coefficients and Lobatto values of the solved elements, both in the
    # mesh.offsets layout: element n's history reads the prefix before
    # offsets[n-1]
    offsets = mesh.offsets
    coeffs = np.empty(mesh.L)
    lobatto_u = np.empty(mesh.L)
    for n in range(1, mesh.N + 1):
        lo, hi = offsets[n - 1], offsets[n]
        degree = mesh.element(n).degree
        dim = degree + 1
        op = ElementOperator(problem, mesh, n)
        # the accumulated history enters the element equation on the
        # right-hand side: current-element moments = rhs - history
        target = op.rhs() - op.history(lobatto_u[:lo])
        if problem.linear:
            # dpsi_du == 1, so the Jacobian at any point is the system matrix
            try:
                u = np.linalg.solve(op.jacobian(np.zeros(dim)), target)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(n, 0) from None
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
        lobatto_u[lo:hi] = _lobatto_values(u, degree)
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

"""Independent reference computations shared by the test modules.

The first part deliberately avoids the package's own quadrature machinery:
closed-form moments and Jacobi norms come from 50-digit mpmath, singular
integrals from QUADPACK's weighted adaptive routines or, for polynomials,
from their closed form at 60 digits, and the singular benchmark's
right-hand side from its hypergeometric closed form.  From
``history_by_node`` on, the references are loop forms of batched package
routines on the package's own rules; they must agree with them bit for bit
or to a stated tolerance.
"""

import functools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, hyp1f1

mp.mp.dps = 50


@functools.lru_cache(maxsize=None)
def jacobi_monomial_moment(a, b, k):
    """Closed form of int_{-1}^{1} x^k (1-x)^a (1+x)^b dx at 50 digits."""
    total = mp.mpf(0)
    for m in range(k + 1):
        total += mp.binomial(k, m) * (-2) ** m * mp.beta(a + m + 1, b + 1)
    return float(2 ** (a + b + 1) * total)


def weighted_poly_integral(coeffs, a, b, k):
    """int_{-1}^{1} p(x) (1-x)^a (1+x)^b dx for p given by monomial coeffs."""
    return float(
        sum(c * mp.mpf(jacobi_monomial_moment(a, b, j)) for j, c in enumerate(coeffs))
    )


def jacobi_norm(a, b, k):
    """Closed form of int_{-1}^{1} P_k^(a,b)(x)^2 (1-x)^a (1+x)^b dx, for a + b > -1."""
    a, b = mp.mpf(a), mp.mpf(b)
    num = 2 ** (a + b + 1) * mp.gamma(k + a + 1) * mp.gamma(k + b + 1)
    return float(num / ((2 * k + a + b + 1) * mp.factorial(k) * mp.gamma(k + a + b + 1)))


def ex1_closed_form_rhs(alpha):
    """Right-hand side of the singular-solution benchmark ex1 in closed form.

    int_0^t (t-s)^(a-1) e^(ts) s^(2+2a) ds
    = t^(2+3a) Gamma(a) Gamma(3+2a) / Gamma(3+3a) * 1F1(3+2a; 3+3a; t^2).
    """
    c = gamma(alpha) * gamma(3.0 + 2.0 * alpha) / gamma(3.0 + 3.0 * alpha)

    def f(t):
        t = np.asarray(t, dtype=float)
        return c * t ** (2.0 + 3.0 * alpha) * hyp1f1(3.0 + 2.0 * alpha, 3.0 + 3.0 * alpha, t**2)

    return f


def singular_history_integral(fn, left, right, t, alpha, tol=1e-12):
    """int_left^right (t-s)^(alpha-1) fn(s) ds for t >= right, adaptively.

    Separated evaluation points leave a smooth integrand for plain adaptive
    quadrature.  When t sits close to (or on) the right endpoint, tanh-sinh
    quadrature resolves the near-singular edge; its doubly exponential node
    clustering at the endpoints copes with the derivative blowup.
    """
    gap = t - right
    h = right - left
    if gap >= 0.25 * h:
        return quad(
            lambda s: (t - s) ** (alpha - 1.0) * fn(s),
            left,
            right,
            epsabs=tol,
            epsrel=tol,
            limit=400,
        )[0]
    with mp.workdps(30):
        val = mp.quad(
            lambda s: (mp.mpf(t) - s) ** (alpha - 1.0) * mp.mpf(float(fn(float(s)))),
            [left, 0.5 * (left + right), right],
        )
    return float(val)


def _times_linear(a, c, d):
    """Coefficients of (c + d sigma) sum_k a_k sigma^k, lowest power first."""
    return [c * ak + d * below for ak, below in zip(a + [0], [0] + a)]


def _sigma_terms(n, left, right, t, alpha):
    """int_left^right (t-s)^(alpha-1) (t-s)^k ds for k < n, mpf t and alpha.

    In sigma = t - s each is [sigma^(alpha+k) / (alpha+k)] from t - right to t - left.
    """
    near, far = t - mp.mpf(right), t - mp.mpf(left)
    return [(far ** (alpha + k) - near ** (alpha + k)) / (alpha + k) for k in range(n)]


def _sigma_integral(a, left, right, t, alpha):
    """int_left^right (t-s)^(alpha-1) sum_k a_k (t-s)^k ds for mpf t and alpha, term by term."""
    return float(sum(ak * term for ak, term in zip(a, _sigma_terms(len(a), left, right, t, alpha))))


def lagrange_history_integral(nodes, j, left, right, t, alpha, dps=60):
    """int_left^right (t-s)^(alpha-1) l_j(s) ds for t >= right, in closed form at ``dps`` digits.

    l_j is the j-th Lagrange polynomial on ``nodes``.  In sigma = t - s it is
    prod_{m != j} ((t - x_m) - sigma) / (x_j - x_m) = sum_k a_k sigma^k, whose
    terms integrate to a_k [sigma^(alpha+k) / (alpha+k)] from t - right to
    t - left.  The digits carry the cancellation among the a_k, which grow
    like ((t - left) / node spacing)^degree.
    """
    with mp.workdps(dps):
        t, alpha = mp.mpf(t), mp.mpf(alpha)
        x = [mp.mpf(float(v)) for v in nodes]
        a = [mp.mpf(1)]
        for m, xm in enumerate(x):
            if m != j:
                a = _times_linear(a, (t - xm) / (x[j] - xm), -1 / (x[j] - xm))
        return _sigma_integral(a, left, right, t, alpha)


def legendre_history_integrals(pmax, left, right, t, alpha, dps=60):
    """int_left^right (t-s)^(alpha-1) P_p(x(s)) ds for p = 0..pmax and t >= right, in closed form.

    x(s) = (2s - left - right) / (right - left) is the element's reference
    coordinate, c + d sigma in sigma = t - s; the three-term recurrence in
    that linear factor gives each P_p's coefficients in sigma, at ``dps``
    digits, and the degrees share the integrals of the powers of sigma.
    """
    with mp.workdps(dps):
        t, alpha, lo, hi = (mp.mpf(v) for v in (t, alpha, left, right))
        c, d = (2 * t - lo - hi) / (hi - lo), -2 / (hi - lo)
        polys, below = [[mp.mpf(1)]], [mp.mpf(0)]
        for k in range(pmax):  # (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)
            up = _times_linear(polys[-1], c * (2 * k + 1), d * (2 * k + 1))
            below = below + [0] * (len(up) - len(below))
            below, a = polys[-1], [(u - k * b) / (k + 1) for u, b in zip(up, below)]
            polys.append(a)
        terms = _sigma_terms(pmax + 1, left, right, t, alpha)
        return np.array([float(sum(ak * term for ak, term in zip(a, terms))) for a in polys])


def polynomial_history_integral(coeffs, left, right, t, alpha, dps=60):
    """int_left^right (t-s)^(alpha-1) sum_k coeffs[k] s^k ds for t >= right, in closed form.

    Horner's scheme in s = t - sigma gives the coefficients in sigma, at ``dps`` digits.
    """
    with mp.workdps(dps):
        t, alpha = mp.mpf(t), mp.mpf(alpha)
        a = [mp.mpf(0)]
        for ck in reversed(coeffs):
            a = _times_linear(a, t, -1)
            a[0] += mp.mpf(float(ck))
        return _sigma_integral(a, left, right, t, alpha)


def legendre_l2_projection(fn, a, b, degree, tol=1e-12):
    """Exact-integral Legendre coefficients of fn on [a, b]."""
    from numpy.polynomial.legendre import legval

    coeffs = np.zeros(degree + 1)
    for p in range(degree + 1):
        unit = np.zeros(p + 1)
        unit[p] = 1.0
        val = quad(
            lambda s: fn(s) * legval((2 * s - a - b) / (b - a), unit),
            a,
            b,
            epsabs=tol,
            epsrel=tol,
            limit=200,
        )[0]
        coeffs[p] = (2 * p + 1) / (b - a) * val
    return coeffs


def uniform_history_mpmath(N, T, nodes, gap, coeffs, alpha):
    """History at Gauss nodes of element N of an exact uniform mesh, from one element.

    Element N - gap holds sum_p coeffs[p] P_p on its reference coordinate;
    ``nodes`` are the reference Gauss nodes of element N.  With s and t on
    the grid of width h = T / N, t - s = h (gap + (x - y) / 2), so the
    integrals are 40-digit quadratures of smooth integrands on [-1, 1].
    """
    h = mp.mpf(T) / N
    with mp.workdps(40):
        return np.array([
            float(h**alpha / 2 * mp.quad(
                lambda y: (gap + (mp.mpf(x) - y) / 2) ** (alpha - 1)
                * sum(mp.mpf(c) * mp.legendre(p, y) for p, c in enumerate(coeffs)),
                [-1, 1],
            ))
            for x in nodes
        ])


def history_by_node(op, prior_u):
    """History moments of element ``op.n`` by the plain per-node loop.

    ``prior_u`` holds the Lobatto values of elements 1..n-1 in the
    ``mesh.offsets`` layout.  For each Gauss node t it walks the solved
    elements in runs of equal degree, places their Lobatto points with
    ``_shift_rows``, and takes one scalar-t weight call per run.  It shares
    the weight routine with the package, so it checks the batched contraction
    of ``ElementOperator.history``, not the weights themselves.
    """
    from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule, history_weights_batch

    problem, mesh = op.problem, op.mesh
    bp, offsets, prior = mesh.breakpoints, mesh.offsets, op.n - 1
    degrees = [int(d) for d in mesh.degrees[:prior]]
    nodes = [gauss_rule(RuleKind.GAUSS_LOBATTO, None, d).nodes for d in degrees]
    points = [_shift_rows(x, bp[k : k + 1], bp[k + 1 : k + 2])[0] for k, x in enumerate(nodes)]
    values = [prior_u[offsets[k] : offsets[k + 1]] for k in range(prior)]
    vals = np.zeros(op.t_nodes.size)
    for i, t in enumerate(op.t_nodes):
        k = 0
        while k < prior:
            d = degrees[k]
            k_end = k
            while k_end < prior and degrees[k_end] == d:
                k_end += 1
            w = history_weights_batch(bp[k:k_end], bp[k + 1 : k_end + 1], d, t, problem.alpha)
            S = np.stack(points[k:k_end])
            U = np.stack(values[k:k_end])
            vals[i] += float(np.sum(w * problem.kappa(t, S) * problem.psi(t, S, U)))
            k = k_end
    return op.project(vals)


def linear_march_by_element(problem, mesh):
    """Coefficients of ``abelhp.solver.solve`` on a linear problem, one element at a time.

    The march that forward substitution over each run replaced: every element
    adds its near history to its run's far part (``HistoryRun.at_nodes``),
    maps f minus that to coefficients with its stretch's batched inverse, and
    writes its Lobatto values before the next element starts.
    """
    from abelhp.discretization import HistoryRun, OperatorRun, _gap_table, operator_stretches
    from abelhp.quadrature import _lobatto_table
    from abelhp.solver import _f_at_nodes, _linear_solvers

    offsets = mesh.offsets
    coeffs, lobatto_u = np.empty(mesh.L), np.empty(mesh.L)
    table = _gap_table(mesh, problem.alpha)
    for stretch in operator_stretches(mesh):
        ops = OperatorRun(problem, mesh, stretch[0][0], stretch[-1][1])
        solvers, f_nodes = _linear_solvers(ops), _f_at_nodes(problem, ops)
        for n0, n1 in stretch:
            run = HistoryRun(ops, n0, n1, lobatto_u[: offsets[n0 - 1]], table)
            for n in range(n0, n1 + 1):
                lo, hi, j = offsets[n - 1], offsets[n], n - ops.n0
                u = solvers[j] @ (f_nodes[j] - run.at_nodes(n, lobatto_u))
                coeffs[lo:hi], lobatto_u[lo:hi] = u, u @ _lobatto_table(ops.degree)
    return coeffs


def evaluate_by_degree(solution, t, elem_idx):
    """``abelhp.solver._evaluate_on`` as a loop over elements and degrees.

    Each element's points take their reference coordinate as ``_evaluate_on``
    places it, and sum_p c_p P_p(x) is accumulated term by term in order of
    p, so a batched sum over p must equal it bit for bit.
    """
    from abelhp.orthopoly import legendre_table

    mesh = solution.mesh
    bp, out = mesh.breakpoints, np.empty_like(t)
    for k in np.unique(elem_idx):
        sel, c = elem_idx == k, solution.coefficients(k + 1)
        x = np.clip((2.0 * t[sel] - bp[k] - bp[k + 1]) / (bp[k + 1] - bp[k]), -1.0, 1.0)
        P = legendre_table(c.size - 1, x)
        acc = c[0] * P[0]
        for p in range(1, c.size):
            acc += c[p] * P[p]
        out[sel] = acc
    return out


def _element_grid(op):
    """Tables of element ``op.n`` rebuilt from its rules, as separate factors.

    Returns the Gauss nodes t_i, the inner nodes sigma_ij, the kernel there,
    the Legendre tables P (Gauss nodes) and Q (inner nodes), the singular
    prefactor, the inner Gauss-Jacobi weights and the system scale.
    """
    from abelhp.orthopoly import legendre_table
    from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule

    problem, n, bp = op.problem, op.n, op.mesh.breakpoints
    M, alpha, h = op.mesh.degrees[n - 1], problem.alpha, bp[n] - bp[n - 1]
    gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, M)
    gj = gauss_rule(RuleKind.GAUSS_JACOBI, alpha - 1.0, M)
    node_product = (1.0 + gl.nodes)[:, None] * (1.0 + gj.nodes)[None, :]
    t = _shift_rows(gl.nodes, bp[n - 1 : n], bp[n : n + 1])[0]
    sigma = bp[n - 1] + 0.25 * h * node_product
    kappa = np.broadcast_to(problem.kappa(t[:, None], sigma), sigma.shape)
    P = legendre_table(M, gl.nodes)
    Q = legendre_table(M, 0.5 * node_product - 1.0)
    prefac = (0.5 * h * (1.0 + gl.nodes)) ** alpha * gl.weights
    sys_scale = (2.0 * np.arange(M + 1) + 1.0) / 2.0 ** (1.0 + alpha)
    return t, sigma, kappa, P, Q, prefac, gj.weights, sys_scale


def weighted_moments_einsum(op, coeffs):
    """Current-element moments by separate contractions, factor by factor."""
    t, sigma, kappa, P, Q, prefac, w_inner, sys_scale = _element_grid(op)
    u = np.einsum("q,qij->ij", coeffs, Q)
    psi = op.problem.psi(t[:, None], sigma, u)
    inner = (kappa * psi) @ w_inner
    return sys_scale * (P @ (prefac * inner))


def jacobian_einsum(op, coeffs):
    """Element Jacobian by one three-factor einsum over the (i, j) grid."""
    t, sigma, kappa, P, Q, prefac, w_inner, sys_scale = _element_grid(op)
    u = np.einsum("q,qij->ij", coeffs, Q)
    dpsi = op.problem.dpsi_du(t[:, None], sigma, u)
    core = kappa * dpsi * w_inner[None, :]
    J = np.einsum("pi,ij,qij->pq", P * prefac[None, :], core, Q)
    return sys_scale[:, None] * J


def fused_matrix_einsum(op):
    """Element matrix B[p, (i, j)] = sys_scale_p P_pi prefac_i kappa_ij w_j, factor by factor."""
    t, sigma, kappa, P, Q, prefac, w_inner, sys_scale = _element_grid(op)
    B = np.einsum("p,pi,i,ij,j->pij", sys_scale, P, prefac, kappa, w_inner)
    return B.reshape(B.shape[0], -1)


def rhs_by_node(op):
    """Legendre moments of f on element ``op.n``, one Gauss node at a time."""
    from abelhp.orthopoly import legendre_table
    from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule

    n, bp = op.n, op.mesh.breakpoints
    degree = op.mesh.degrees[n - 1]
    gl = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, degree)
    out = np.zeros(degree + 1)
    ts = _shift_rows(gl.nodes, bp[n - 1 : n], bp[n : n + 1])[0]
    for x, w, t in zip(gl.nodes, gl.weights, ts):
        fx = float(np.asarray(op.problem.f(np.array([t])), dtype=float).ravel()[0])
        out += w * fx * legendre_table(degree, x)
    return (2.0 * np.arange(degree + 1) + 1.0) / 2.0 * out


def newton_by_halving(residual_fn, jacobian_fn, init, options):
    """Damped Newton with one residual call per trial step, halving in turn.

    The acceptance rule of ``abelhp.solver.newton`` (merit decrease
    ``g_new < g (1 - 1e-4 scale)`` or max-norm within ``newton_tol``, never a
    non-finite residual) with its up to 20 trials evaluated one at a time.
    Returns the converged vector, or None where ``newton`` would raise.
    """
    u = np.array(init, dtype=float)

    def merits(v):
        r = np.asarray(residual_fn(v), dtype=float)
        norm = float(np.max(np.abs(r)))
        if not norm < math.inf:
            return r, math.inf, math.inf
        return r, norm, float(r @ r)

    with np.errstate(all="ignore"):
        r, norm, g = merits(u)
        for _ in range(options.newton_max_iter):
            if norm <= options.newton_tol:
                return u
            if norm == math.inf:
                return None
            step = np.linalg.solve(np.atleast_2d(jacobian_fn(u)), -r)
            scale = 1.0
            for _ in range(20):
                cand = u + scale * step
                r_new, norm_new, g_new = merits(cand)
                if g_new < g * (1.0 - 1e-4 * scale) or norm_new <= options.newton_tol:
                    u, r, norm, g = cand, r_new, norm_new, g_new
                    break
                scale *= 0.5
            else:
                return None
    return u if norm <= options.newton_tol else None


def _rule_sum_by_panel(F, a, b, t, alpha, order):
    """One rule of degree ``order`` for int_a^b (t-s)^(alpha-1) F(s) ds.

    The final panel (b == t) takes Gauss-Jacobi, which absorbs the singular
    factor; earlier panels take Gauss-Legendre with the factor written into
    the integrand.
    """
    from abelhp.quadrature import RuleKind, gauss_rule

    if b == t:
        rule = gauss_rule(RuleKind.GAUSS_JACOBI, alpha - 1.0, order)
        s = t - 0.5 * (t - a) * (1.0 - rule.nodes)
        return (0.5 * (t - a)) ** alpha * float(rule.weights @ F(s))
    rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, order)
    half = 0.5 * (b - a)
    s = 0.5 * (a + b) + half * rule.nodes
    return half * float(rule.weights @ ((t - s) ** (alpha - 1.0) * F(s)))


def _panel_by_recursion(F, a, b, t, alpha, npts, tol, depth, budget):
    """Adaptive panel [a, b]: npts against 2 * npts nodes, bisected until they agree."""
    from abelhp.solver import QuadratureConvergenceError

    budget[0] -= 1
    if budget[0] < 0:
        raise QuadratureConvergenceError("panel refinement did not converge")
    i1 = _rule_sum_by_panel(F, a, b, t, alpha, npts - 1)
    i2 = _rule_sum_by_panel(F, a, b, t, alpha, 2 * npts - 1)
    if abs(i2 - i1) <= tol or (b - a) < 1e-15 * max(1.0, abs(b)):
        return i2
    if depth <= 0:
        raise QuadratureConvergenceError("panel refinement did not converge")
    m = 0.5 * (a + b)
    return _panel_by_recursion(F, a, m, t, alpha, npts, 0.5 * tol, depth - 1, budget) + (
        _panel_by_recursion(F, m, b, t, alpha, npts, 0.5 * tol, depth - 1, budget)
    )


def forward_apply_by_time(problem, u_fn, t, breakpoints=()):
    """``abelhp.solver.forward_apply`` at one time, by depth-first panel recursion.

    The algorithm the package routine must reproduce bit for bit, kept apart
    as its reference: a coarse 17-point pass over |F| fixes the tolerance
    ``1e-10 * coarse / len(panels)``; each panel compares 16 against 32
    nodes and is bisected, with the tolerance halved, until they agree or it
    is narrower than 1e-15 * max(1, |b|); depth 40 and 4000 panels per time
    are the limits.  Accepted panels are summed in tree order.
    """
    if t <= 0.0:
        return 0.0
    alpha = problem.alpha

    def F(s):
        u = np.asarray(u_fn(s), dtype=float)
        # copied out of the broadcast: numpy's dot sums a stride-0 operand in
        # another order than a real array, which is what forward_apply sums
        return np.broadcast_to(problem.kappa(t, s) * problem.psi(t, s, u), s.shape).copy()

    edges = [0.0] + sorted({float(b) for b in breakpoints if 0.0 < b < t}) + [t]
    panels = list(zip(edges[:-1], edges[1:]))
    coarse = 0.0
    for a, b in panels:
        coarse += _rule_sum_by_panel(lambda s: np.abs(F(s)), a, b, t, alpha, 16)
    tol = 1e-10 * max(coarse, 1e-30) / len(panels)
    total = 0.0
    budget = [4000]
    for a, b in panels:
        total += _panel_by_recursion(F, a, b, t, alpha, 16, tol, 40, budget)
    return total

"""Independent reference computations shared by the test modules.

Everything here except ``history_by_node`` deliberately avoids the package's
own quadrature machinery: closed-form moments come from 50-digit mpmath sums,
singular integrals from QUADPACK's weighted adaptive routines, and low-degree
Jacobi values from the explicit hypergeometric sum.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

mp.mp.dps = 50


def jacobi_explicit(a, b, k, x):
    """Degree <= 3 Jacobi value via the explicit Gamma-function sum."""
    total = mp.mpf(0)
    for m in range(k + 1):
        total += (
            mp.binomial(k, m)
            * mp.gamma(a + b + k + m + 1)
            / mp.gamma(a + m + 1)
            * ((mp.mpf(x) - 1) / 2) ** m
        )
    total *= mp.gamma(a + k + 1) / (mp.factorial(k) * mp.gamma(a + b + k + 1))
    return float(total)


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


def lagrange_values(nodes, j, x):
    """The j-th Lagrange basis polynomial on the given nodes, evaluated at x."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for m, xm in enumerate(nodes):
        if m != j:
            out *= (x - xm) / (nodes[j] - xm)
    return out


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


def history_by_node(op, prior):
    """History moments of element ``op.n`` by the plain per-node loop.

    For each Gauss node t it walks the solved elements in runs of equal
    degree and takes one scalar-t weight call per run.  It shares the weight
    routine with the package, so it checks the batched contraction of
    ``ElementOperator.history``, not the weights themselves.
    """
    from abelhp.quadrature import history_weights_batch

    problem, bp = op.problem, op.mesh.breakpoints
    vals = np.zeros(op.t_nodes.size)
    for i, t in enumerate(op.t_nodes):
        k = 0
        while k < len(prior):
            d = prior[k].lobatto_points.size - 1
            k_end = k
            while k_end < len(prior) and prior[k_end].lobatto_points.size - 1 == d:
                k_end += 1
            w = history_weights_batch(bp[k:k_end], bp[k + 1 : k_end + 1], d, t, problem.alpha)
            S = np.stack([e.lobatto_points for e in prior[k:k_end]])
            U = np.stack([e.lobatto_u for e in prior[k:k_end]])
            vals[i] += float(np.sum(w * problem.kappa(t, S) * problem.psi(t, S, U)))
            k = k_end
    return op.project(vals)

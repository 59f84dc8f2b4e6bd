"""Gauss-type quadrature rules and product integration for the Abel kernel.

Three rule families are used by the collocation scheme:

* Gauss-Jacobi with weight (1-x)^(alpha-1): absorbs the kernel singularity
  on the current element exactly,
* Gauss-Legendre: collocation points and plain projections,
* Legendre-Gauss-Lobatto: interpolation points on already-solved elements.

The history of solved elements enters through product-integration weights
``w_j(t) = int_element (t-s)^(alpha-1) l_j(s) ds`` for the Lagrange basis on
the Lobatto points.  They are assembled from the modified moments of the
singular factor against shifted Legendre polynomials.
"""

from __future__ import annotations

import enum
import functools
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .orthopoly import DOMAIN_TOL, Element, JacobiParams, legendre_table

__all__ = [
    "RuleKind",
    "QuadRule",
    "HistoryWeights",
    "HistoryAccuracyError",
    "gauss_rule",
    "shift_nodes",
    "singular_element_integral",
    "modified_moments",
    "history_weights",
    "lobatto_lagrange_coeffs",
]


class RuleKind(str, enum.Enum):
    GAUSS_JACOBI = "gauss_jacobi"
    GAUSS_LEGENDRE = "gauss_legendre"
    GAUSS_LOBATTO = "gauss_lobatto"


class HistoryAccuracyError(ArithmeticError):
    """Raised when product-integration weights fail the constant-sum check."""


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights of an (order+1)-point rule on [-1, 1]."""

    kind: RuleKind
    params: JacobiParams
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.order + 1
        if self.nodes.shape != (n,) or self.weights.shape != (n,):
            raise ValueError("rule must have order+1 nodes and weights")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if self.kind is RuleKind.GAUSS_LOBATTO and (
            self.nodes[0] != -1.0 or self.nodes[-1] != 1.0
        ):
            raise ValueError("Lobatto endpoints must be exactly +-1")

    @property
    def degree_of_exactness(self) -> int:
        if self.kind is RuleKind.GAUSS_LOBATTO:
            return 2 * self.order - 1
        return 2 * self.order + 1


_rule_cache: dict[tuple, QuadRule] = {}
_rule_lock = threading.Lock()


def gauss_rule(kind: RuleKind | str, params: JacobiParams | None, order: int) -> QuadRule:
    """Construct (and memoize) a quadrature rule with order+1 nodes.

    Gauss rules integrate polynomials of degree <= 2*order+1 exactly against
    the weight (1-x)^alpha (1+x)^beta; Lobatto is exact to 2*order-1 with the
    unit weight and includes both endpoints.
    """
    kind = RuleKind(kind)
    if order < 1:
        raise ValueError("rule order must be >= 1")
    if kind is RuleKind.GAUSS_LEGENDRE and params is None:
        params = JacobiParams(0.0, 0.0)
    if kind is RuleKind.GAUSS_LOBATTO:
        if params is None:
            params = JacobiParams(0.0, 0.0)
        if params != JacobiParams(0.0, 0.0):
            raise ValueError("Lobatto rule is defined for the unit weight only")
    if params is None:
        raise ValueError("Jacobi rule needs weight parameters")

    key = (kind, params.alpha, params.beta, order)
    rule = _rule_cache.get(key)
    if rule is not None:
        return rule

    if kind is RuleKind.GAUSS_LEGENDRE or (
        kind is RuleKind.GAUSS_JACOBI and params == JacobiParams(0.0, 0.0)
    ):
        x, w = roots_legendre(order + 1)
    elif kind is RuleKind.GAUSS_JACOBI:
        x, w = roots_jacobi(order + 1, params.alpha, params.beta)
    else:  # Lobatto: interior nodes are the zeros of P'_order
        if order == 1:
            x = np.array([-1.0, 1.0])
        else:
            interior, _ = roots_jacobi(order - 1, 1.0, 1.0)
            x = np.concatenate(([-1.0], interior, [1.0]))
        pm = legendre_table(order, x)[order]
        w = 2.0 / (order * (order + 1) * pm**2)

    # cached rules are shared by every caller, so their arrays are read-only
    x, w = np.array(x, dtype=float), np.array(w, dtype=float)
    x.flags.writeable = False
    w.flags.writeable = False
    rule = QuadRule(kind, params, order, x, w)
    with _rule_lock:
        _rule_cache.setdefault(key, rule)
    return rule


def shift_nodes(rule: QuadRule, elem: Element) -> np.ndarray:
    """Affine image of the rule's nodes on [elem.left, elem.right]."""
    return 0.5 * (elem.width * rule.nodes + elem.left + elem.right)


def singular_element_integral(g_at_mapped_nodes, elem: Element, t: float, alpha: float) -> float:
    """Weighted integral of g over (elem.left, t) against (t-s)^(alpha-1).

    ``g_at_mapped_nodes`` must hold g sampled at sigma(lambda_j, t), where
    lambda_j are the shifted Gauss-Jacobi(alpha-1, 0) nodes of the element.
    Exact whenever g is a polynomial of degree <= elem.degree.
    """
    g = np.asarray(g_at_mapped_nodes, dtype=float)
    if g.shape != (elem.degree + 1,):
        raise ValueError("need g at the element's degree+1 mapped Jacobi nodes")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if t <= elem.left:
        raise ValueError("evaluation point must lie strictly right of the element start")
    if t > elem.right + DOMAIN_TOL:
        raise ValueError("evaluation point beyond the element")
    rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(alpha - 1.0, 0.0), elem.degree)
    return (0.5 * (t - elem.left)) ** alpha * float(rule.weights @ g)


# ---------------------------------------------------------------------------
# Modified moments nu_p(c) = int_{-1}^{1} (c - x)^(alpha-1) P_p(x) dx, c >= 1.
#
# Near the singular limit c -> 1 the degree-ascending recurrence
#     (p+1+alpha) nu_{p+1} = (2p+1) c nu_p + (alpha-p) nu_{p-1}
# is stable.  For separated c the recurrence amplifies roundoff like the
# Legendre function P_p(c), so there the integrand is smooth and a fixed
# Gauss-Legendre rule is accurate instead.
# ---------------------------------------------------------------------------

_NEAR_FIELD_C = 1.2
_FAR_FIELD_POINTS = 64
# From here on nu_1 comes from its series in 1/c, which is free of the
# cancellation in c nu_0 - I_0; below it that subtraction loses at most
# about eps * c relative to nu_0.  _NU1_TERMS terms leave a truncation error
# below 64^-9 of the leading term.
_NU1_SERIES_C = 8.0
_NU1_TERMS = 9


@functools.lru_cache(maxsize=None)
def _far_field_table(pmax: int):
    x, w = roots_legendre(_FAR_FIELD_POINTS)
    table = legendre_table(pmax, x)
    for a in (x, w, table):
        a.flags.writeable = False
    return x, w, table


def _kernel_mass_log(gap, width):
    """The far mask, the safe gap and log1p(width / gap) of :func:`_kernel_mass`.

    They depend on the gap and width only, so masses for several exponents at
    one gap can share them.
    """
    far = gap > 0.1 * width
    safe = np.where(far, gap, width)
    return far, safe, np.log1p(width / safe)


def _kernel_mass(gap, width, alpha: float, log_parts=None):
    """Integral of (t-s)^(alpha-1) over an element of this width ending gap >= 0 before t.

    That is ((gap + width)^alpha - gap^alpha) / alpha.  Past gap = width / 10
    the two powers cancel to a relative error of about eps * gap / width, so
    there it is computed as gap^alpha expm1(alpha log1p(width / gap)) / alpha.
    ``log_parts`` passes in :func:`_kernel_mass_log` of the same gap and width.
    """
    far, safe, log_ratio = _kernel_mass_log(gap, width) if log_parts is None else log_parts
    factored = safe**alpha * np.expm1(alpha * log_ratio) / alpha
    return np.where(far, factored, ((gap + width) ** alpha - gap**alpha) / alpha)


@functools.lru_cache(maxsize=None)
def _nu1_series_coeffs(alpha: float) -> tuple[float, ...]:
    """-binom(alpha-1, k) 2 / (k + 2) for odd k = 1, 3, ..., 2 _NU1_TERMS - 1."""
    i = np.arange(1.0, 2.0 * _NU1_TERMS)
    binom = np.cumprod((alpha - i) / i)  # binom(alpha-1, i), i = 1, 2, ...
    return tuple((-2.0 * binom[::2] / (i[::2] + 2.0)).tolist())


def _nu1_series(c: np.ndarray, alpha: float) -> np.ndarray:
    """nu_1(c) from the odd terms of its binomial series; for c >= _NU1_SERIES_C.

    (c - x)^(alpha-1) = c^(alpha-1) sum_k binom(alpha-1, k) (-x/c)^k, and only
    odd k survive against x on [-1, 1], each term contributing
    -binom(alpha-1, k) 2 / ((k + 2) c^k).  For alpha < 1 all these terms are
    positive, so nothing cancels.
    """
    inv_c = 1.0 / c
    inv_c2 = inv_c * inv_c
    *rest, last = _nu1_series_coeffs(alpha)
    total = np.full(c.shape, last)
    for a in reversed(rest):  # Horner's rule in 1/c^2
        total *= inv_c2
        total += a
    return c ** (alpha - 1.0) * inv_c * total


def _nu_batch(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """Moments nu_p(c), p = 0..pmax, for a 1-d array of offsets c >= 1."""
    cm1 = np.maximum(c - 1.0, 0.0)  # clamp negative rounding at c ~ 1
    log_parts = _kernel_mass_log(cm1, 2.0)
    nu = np.empty((c.size, pmax + 1))
    nu[:, 0] = _kernel_mass(cm1, 2.0, alpha, log_parts)
    if pmax >= 1:
        i0 = _kernel_mass(cm1, 2.0, alpha + 1.0, log_parts)
        nu[:, 1] = np.where(c >= _NU1_SERIES_C, _nu1_series(c, alpha), c * nu[:, 0] - i0)
    if pmax <= 1:
        return nu

    near = c <= _NEAR_FIELD_C
    if np.any(near):
        cn = c[near]
        for p in range(1, pmax):
            nu[near, p + 1] = (
                (2.0 * p + 1.0) * cn * nu[near, p] + (alpha - p) * nu[near, p - 1]
            ) / (p + 1.0 + alpha)
    if np.any(~near):
        x, w, table = _far_field_table(pmax)
        kern = (c[~near, None] - x[None, :]) ** (alpha - 1.0) * w[None, :]
        nu[~near, 2:] = kern @ table[2:].T
    return nu


def _check_history_args(elem: Element, t: float, alpha: float):
    if t < elem.right - DOMAIN_TOL * max(1.0, abs(elem.right)):
        raise ValueError("evaluation point must lie at or beyond the element")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def modified_moments(elem: Element, t: float, alpha: float, max_degree: int) -> np.ndarray:
    """Moments of (t-s)^(alpha-1) against the element's shifted Legendre basis."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    _check_history_args(elem, t, alpha)
    c = (2.0 * t - elem.left - elem.right) / elem.width
    return (0.5 * elem.width) ** alpha * _nu_batch(np.array([c]), alpha, max_degree)[0]


@functools.lru_cache(maxsize=None)
def lobatto_lagrange_coeffs(degree: int) -> np.ndarray:
    """Legendre expansion of the Lagrange basis on the Lobatto nodes.

    Returns C with C[p, j] the degree-p Legendre coefficient of the j-th
    Lagrange polynomial; exact via the discrete Lobatto transform (the top
    mode uses the modified discrete norm 2/degree).
    """
    rule = gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree)
    table = legendre_table(degree, rule.nodes)
    scale = (2.0 * np.arange(degree + 1) + 1.0) / 2.0
    scale[degree] = degree / 2.0
    coeffs = scale[:, None] * table * rule.weights[None, :]
    coeffs.flags.writeable = False
    return coeffs


def _check_constant_sum(weights, lefts, rights, t, alpha: float):
    """Each weight row (last axis) must sum to the kernel integral over its element."""
    expected = _kernel_mass(np.maximum(t - rights, 0.0), rights - lefts, alpha)
    err = np.abs(np.sum(weights, axis=-1) - expected)
    bad = err > 1e-10 * expected + 1e-16 * np.abs(weights).sum(axis=-1)
    if np.any(bad):
        k = np.unravel_index(np.argmax(err / expected), err.shape)
        left, right, at = (np.broadcast_to(v, err.shape)[k] for v in (lefts, rights, t))
        raise HistoryAccuracyError(
            f"constant-sum check failed for element [{left}, {right}] "
            f"at t={at}: error {err[k]:.3e}"
        )


@dataclass(frozen=True)
class HistoryWeights:
    """Product-integration weights for one solved element at a later time t.

    Contracting ``values`` with samples of a polynomial phi (degree <= the
    element degree) at the element's shifted Lobatto points reproduces
    ``int_element (t-s)^(alpha-1) phi(s) ds`` exactly.
    """

    element: Element
    eval_point: float
    alpha: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_constant_sum(
            self.values, self.element.left, self.element.right, self.eval_point, self.alpha
        )


def history_weights(elem: Element, t: float, alpha: float) -> HistoryWeights:
    """Exact singular-kernel weights for the Lobatto points of a past element."""
    _check_history_args(elem, t, alpha)
    values = history_weights_batch([elem.left], [elem.right], elem.degree, t, alpha)[0]
    return HistoryWeights(elem, float(t), float(alpha), values)


def history_weights_batch(lefts, rights, degree: int, t, alpha: float) -> np.ndarray:
    """Weights for many same-degree elements at a scalar or an array of times t.

    The result has shape ``t.shape + (len(lefts), degree + 1)``: row
    ``[..., k, :]`` holds element k's weights at that time.  Hot path of
    history assembly: moments are vectorized over times and elements, one
    basis-change matrix serves them all, and every (time, element) row passes
    the constant-sum check of :class:`HistoryWeights`.
    """
    t = np.asarray(t, dtype=float)[..., None]
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    widths = rights - lefts
    c = (2.0 * t - lefts - rights) / widths
    nu = _nu_batch(c.ravel(), alpha, degree).reshape(c.shape + (degree + 1,))
    mu = (0.5 * widths)[:, None] ** alpha * nu
    weights = mu @ lobatto_lagrange_coeffs(degree)
    _check_constant_sum(weights, lefts, rights, t, alpha)
    return weights

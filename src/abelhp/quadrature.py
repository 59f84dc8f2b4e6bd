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


def _shift_rows(nodes: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Reference nodes placed on many elements, one row each, as ``shift_nodes`` places them."""
    return 0.5 * ((rights - lefts)[:, None] * nodes + lefts[:, None] + rights[:, None])


def singular_element_integral(g_at_mapped_nodes, elem: Element, t: float, alpha: float) -> float:
    """Weighted integral of g over (elem.left, t) against (t-s)^(alpha-1).

    ``g_at_mapped_nodes`` must hold g sampled at the element's shifted
    Gauss-Jacobi(alpha-1, 0) nodes mapped affinely onto (elem.left, t).
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
# Modified moments nu_p(c) = int_{-1}^{1} (c - x)^(alpha-1) P_p(x) dx, c >= 1,
# in three bands of c:
#
# * c <= _NEAR_FIELD_C: near the singular limit c -> 1 the degree-ascending
#   recurrence
#       (p+1+alpha) nu_{p+1} = (2p+1) c nu_p + (alpha-p) nu_{p-1}
#   is stable;
# * _NEAR_FIELD_C < c < _SERIES_C: the recurrence amplifies roundoff like the
#   Legendre function P_p(c), but the integrand is smooth, so a fixed
#   _FAR_FIELD_POINTS-point Gauss-Legendre rule serves p >= 2;
# * c >= _SERIES_C: every nu_p comes from one binomial series in 1/c
#   (``_moment_series``), whose terms are all positive, so nothing cancels
#   and no row needs a temporary wider than pmax + 1.
#
# Below _SERIES_C, nu_0 and I_0 = int (c - x)^alpha dx come from
# ``_kernel_mass``, and nu_1 = c nu_0 - I_0 loses at most about eps * c
# relative to nu_0.  Most rows of a history sum lie in the series band.
# ---------------------------------------------------------------------------

_NEAR_FIELD_C = 1.2
_FAR_FIELD_POINTS = 64
_SERIES_C = 8.0
# the series keeps terms until a bound on the next one, at c = _SERIES_C and
# for every p, falls below this fraction of nu_p's leading term
_SERIES_TOL = 1e-17


@functools.lru_cache(maxsize=None)
def _far_field_table(pmax: int):
    x, w = roots_legendre(_FAR_FIELD_POINTS)
    table = legendre_table(pmax, x)
    for a in (x, w, table):
        a.flags.writeable = False
    return x, w, table


def _kernel_mass(gap, width, alpha: float, orders: int = 1) -> list:
    """Integrals of (t-s)^(a-1) over an element of this width ending gap >= 0 before t.

    Returns one array per exponent a = alpha, alpha + 1, ..., alpha + orders - 1,
    each (gap + width)^a (1 - (gap / (gap + width))^a) / a.  The bracket is
    -expm1(-a log1p(width / gap)), so no two powers cancel at any gap, and at
    gap = 0 the log is inf and the bracket exactly 1.  The exponents share the
    log and the power.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_ratio = np.log1p(width / gap)
    end = gap + width
    power = end**alpha
    masses = []
    for k in range(orders):
        a = alpha + k
        masses.append(power * -np.expm1(-a * log_ratio) / a)
        power = power * end
    return masses


@functools.lru_cache(maxsize=None)
def _moment_series_coeffs(alpha: float, pmax: int) -> np.ndarray:
    """Read-only a[j, p] with nu_p(c) = c^(alpha-1) sum_j a[j, p] c^-(p+2j), p = 0..pmax.

    (c - x)^(alpha-1) = c^(alpha-1) sum_k b_k (x/c)^k with
    b_k = prod_{i<=k} (i - alpha) / i >= 0, and int x^k P_p vanishes unless
    k = p + 2j, so a[j, p] = b_k int x^k P_p(x) dx.  The leading term is
    2 prod_{i<=p} (i - alpha) / (2i + 1); the ratio of term j+1 to term j is
    (k+1-alpha)(k+2-alpha) / ((k-p+2)(k+p+3)).
    """
    p = np.arange(pmax + 1.0)
    rows = [2.0 * np.cumprod(np.r_[1.0, (p[1:] - alpha) / (2.0 * p[1:] + 1.0)])]
    k, bound = p.copy(), np.ones(pmax + 1)
    while np.max(bound) >= _SERIES_TOL:
        ratio = (k + 1.0 - alpha) * (k + 2.0 - alpha) / ((k - p + 2.0) * (k + p + 3.0))
        rows.append(rows[-1] * ratio)
        # the ratio at alpha = 0 bounds it for every alpha in (0, 1]
        bound *= (k + 1.0) * (k + 2.0) / ((k - p + 2.0) * (k + p + 3.0) * _SERIES_C**2)
        k += 2.0
    coeffs = np.array(rows)
    coeffs.flags.writeable = False
    return coeffs


def _moment_series(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """nu_p(c), p = 0..pmax, from their binomial series; for c >= _SERIES_C.

    Returns shape (pmax + 1, c.size): each sweep below then runs along c, not
    along a short axis of pmax + 1 entries.
    """
    first, *middle, last = _moment_series_coeffs(alpha, pmax)
    inv_c = 1.0 / c
    inv_c2 = inv_c * inv_c
    total = last[:, None] * inv_c2
    for a in reversed(middle):  # Horner's rule in 1/c^2
        total += a[:, None]
        total *= inv_c2
    total += first[:, None]
    # c^(alpha-1) c^-p from p = 0 up; alpha - 1 would round the exponent
    scale = c**alpha * inv_c
    for row in total:
        row *= scale
        scale *= inv_c
    return total


def _far_field_moments(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """nu_p(c), p = 2..pmax, by the fixed Gauss-Legendre rule; for c > _NEAR_FIELD_C."""
    x, w, table = _far_field_table(pmax)
    kern = (c[:, None] - x[None, :]) ** (alpha - 1.0) * w[None, :]
    return kern @ table[2:].T


def _nu_batch(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """Moments nu_p(c), p = 0..pmax, for a 1-d array of offsets c >= 1."""
    # the series on every row, then the rows below _SERIES_C replaced: those
    # are the few rows near t, so this costs less than gathering the rest
    nu = np.ascontiguousarray(_moment_series(c, alpha, pmax).T)
    inner = np.flatnonzero(c < _SERIES_C)
    if inner.size == 0:
        return nu
    ci = c[inner]
    nu_i = np.empty((ci.size, pmax + 1))
    cm1 = np.maximum(ci - 1.0, 0.0)  # clamp negative rounding at c ~ 1
    nu_i[:, 0], i0 = _kernel_mass(cm1, 2.0, alpha, orders=2)  # nu_0 and int (c - x)^alpha
    if pmax >= 1:
        nu_i[:, 1] = ci * nu_i[:, 0] - i0
    if pmax >= 2:
        near = ci <= _NEAR_FIELD_C
        if np.any(near):
            cn = ci[near]
            for p in range(1, pmax):
                nu_i[near, p + 1] = (
                    (2.0 * p + 1.0) * cn * nu_i[near, p] + (alpha - p) * nu_i[near, p - 1]
                ) / (p + 1.0 + alpha)
        band = ~near
        if np.any(band):
            nu_i[band, 2:] = _far_field_moments(ci[band], alpha, pmax)
    nu[inner] = nu_i
    return nu


def _element_moments(lefts, rights, t, alpha: float, degree: int) -> np.ndarray:
    """Moments of (t-s)^(alpha-1) against each element's shifted Legendre basis.

    ``lefts``, ``rights`` and ``t`` broadcast as in ``history_weights_batch``;
    the result has their broadcast shape + ``(degree + 1,)``.
    """
    widths = rights - lefts
    # from the gap t - right, as the constant-sum check takes it: c is 1
    # exactly at t = right, where (2t - left - right) / width can round above
    c = 1.0 + 2.0 * (t - rights) / widths
    nu = _nu_batch(c.ravel(), alpha, degree).reshape(c.shape + (degree + 1,))
    nu *= ((0.5 * widths) ** alpha)[..., None]
    return nu


@functools.lru_cache(maxsize=None)
def _lobatto_nodes(degree: int) -> np.ndarray:
    """Read-only Lobatto nodes of a degree on [-1, 1], without the rule lookup."""
    return gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).nodes


@functools.lru_cache(maxsize=None)
def _lobatto_table(degree: int) -> np.ndarray:
    """Read-only Legendre table of a degree at its Lobatto nodes."""
    table = legendre_table(degree, _lobatto_nodes(degree))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def lobatto_lagrange_coeffs(degree: int) -> np.ndarray:
    """Legendre expansion of the Lagrange basis on the Lobatto nodes.

    Returns C with C[p, j] the degree-p Legendre coefficient of the j-th
    Lagrange polynomial; exact via the discrete Lobatto transform (the top
    mode uses the modified discrete norm 2/degree).
    """
    weights = gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).weights
    scale = (2.0 * np.arange(degree + 1) + 1.0) / 2.0
    scale[degree] = degree / 2.0
    coeffs = scale[:, None] * _lobatto_table(degree) * weights[None, :]
    coeffs.flags.writeable = False
    return coeffs


def _check_constant_sum(weights, lefts, rights, t, alpha: float):
    """Each weight row (last axis) must sum to the kernel integral over its element."""
    (expected,) = _kernel_mass(np.maximum(t - rights, 0.0), rights - lefts, alpha)
    # row sums as a matrix-vector product: np.sum over a last axis only
    # degree + 1 long costs over ten times more on thousands of rows
    ones = np.ones(weights.shape[-1])
    err = np.abs(weights @ ones - expected)
    bad = err > 1e-10 * expected + 1e-16 * (np.abs(weights) @ ones)
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
    if t < elem.right - DOMAIN_TOL * max(1.0, abs(elem.right)):
        raise ValueError("evaluation point must lie at or beyond the element")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    values = history_weights_batch([elem.left], [elem.right], elem.degree, t, alpha)[0]
    return HistoryWeights(elem, float(t), float(alpha), values)


def history_weights_batch(lefts, rights, degree: int, t, alpha: float) -> np.ndarray:
    """Weights for same-degree elements at times t, broadcast by numpy rules.

    ``t``, ``lefts`` and ``rights`` broadcast against each other, and the
    result has their broadcast shape + ``(degree + 1,)``: each row holds one
    element's weights at one time.  Pass ``t[:, None]`` against 1-d
    ``lefts``/``rights`` for every (time, element) pair, or equal-length 1-d
    arrays for one element per time.  Hot path of history assembly: moments
    are vectorized over all rows, one basis-change matrix serves them all,
    and every row passes the constant-sum check of :class:`HistoryWeights`.
    """
    t = np.asarray(t, dtype=float)
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    nu = _element_moments(lefts, rights, t, alpha, degree)
    weights = nu @ lobatto_lagrange_coeffs(degree)
    del nu  # rows x (degree + 1) floats that the check need not keep alive
    _check_constant_sum(weights, lefts, rights, t, alpha)
    return weights

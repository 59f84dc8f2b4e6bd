"""Gauss-type quadrature rules and product integration for the Abel kernel.

Three rule families are used by the collocation scheme:

* Gauss-Jacobi with weight (1-x)^a, a = alpha - 1: absorbs the kernel
  singularity on the current element exactly (the kernel is singular at
  s = t only, so the weight has no (1+x) factor),
* Gauss-Legendre: collocation points and plain projections,
* Legendre-Gauss-Lobatto: interpolation points on already-solved elements.

Every Gauss rule, and the interior Lobatto nodes (the zeros of the
Jacobi(1, 1) polynomial of degree order - 1), come from one Golub-Welsch
routine in numpy, ``_gauss_jacobi``: the eigenvalues of the Jacobi matrix,
each polished by a Newton step, and weights from the eigenvectors.  The
Lobatto weights follow from the Legendre polynomial at the nodes.

The history of solved elements enters through product-integration weights
``w_j(t) = int_element (t-s)^(alpha-1) l_j(s) ds`` for the Lagrange basis on
the Lobatto points.  One routine, ``history_weights_batch``, makes them for
many (time, element) pairs at once, from the modified moments of the
singular factor against shifted Legendre polynomials, and checks every row
against the kernel integral over its element.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import legendre_table

__all__ = [
    "RuleKind",
    "QuadRule",
    "HistoryAccuracyError",
    "gauss_rule",
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


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1-x)^a (1+x)^b, a, b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic recurrence, polished by one Newton step on
    P_n^(a,b) run through that recurrence; the weights are mu0 v_0^2 from
    the first components of the unit eigenvectors.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    # the k = 0 entry and the k = 1 off-diagonal are taken in cancelled form,
    # as the general ones are 0/0 when a + b is 0 or -1
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off2 = np.empty(max(n - 1, 0))
    if n > 1:
        off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        k, s = k[2:], s[2:]
        off2[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off2)
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    # monic p_{j+1} = (x - diag_j) p_j - off2_{j-1} p_{j-1} and its derivative
    p_prev, p = np.zeros(n), np.ones(n)
    d_prev, d = np.zeros(n), np.zeros(n)
    for j in range(n):
        c = off2[j - 1] if j else 0.0
        shifted = x - diag[j]
        p_prev, p, d_prev, d = p, shifted * p - c * p_prev, d, p + shifted * d - c * d_prev
    x = x - p / d

    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    mu0 /= math.gamma(a + b + 2.0)
    w = mu0 * vecs[0] ** 2
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    return x, w


def gauss_rule(kind: RuleKind | str, a: float | None, order: int) -> QuadRule:
    """Construct (and memoize) a quadrature rule with order+1 nodes.

    Gauss-Jacobi takes the exponent ``a > -1`` of its weight (1-x)^a and
    integrates polynomials of degree <= 2*order+1 exactly against it;
    Gauss-Legendre (unit weight, same exactness) and Lobatto (exact to
    2*order-1, both endpoints included) take ``None``.
    """
    kind = RuleKind(kind)
    if order < 1:
        raise ValueError("rule order must be >= 1")
    if kind is RuleKind.GAUSS_JACOBI:
        if a is None or not a > -1.0:
            raise ValueError(f"Jacobi rule needs a weight exponent > -1, got {a!r}")
    elif a is not None:
        raise ValueError(f"{kind.value} rule is defined for the unit weight only")

    key = (kind, a, order)
    rule = _rule_cache.get(key)
    if rule is not None:
        return rule

    if kind is not RuleKind.GAUSS_LOBATTO:
        x, w = _gauss_jacobi(order + 1, 0.0 if a is None else a, 0.0)
    else:  # Lobatto: interior nodes are the zeros of P'_order
        if order == 1:
            x = np.array([-1.0, 1.0])
        else:
            interior, _ = _gauss_jacobi(order - 1, 1.0, 1.0)
            x = np.concatenate(([-1.0], interior, [1.0]))
        pm = legendre_table(order, x)[order]
        w = 2.0 / (order * (order + 1) * pm**2)

    # cached rules are shared by every caller, so their arrays are read-only
    x.flags.writeable = False
    w.flags.writeable = False
    # racing callers all get the rule that reached the cache first
    return _rule_cache.setdefault(key, QuadRule(kind, order, x, w))


def _shift_rows(nodes: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Reference nodes placed affinely on many elements [left, right], one row each."""
    return 0.5 * ((rights - lefts)[:, None] * nodes + lefts[:, None] + rights[:, None])


# ---------------------------------------------------------------------------
# Modified moments nu_p(c) = int_{-1}^{1} (c - x)^(alpha-1) P_p(x) dx, c >= 1,
# are the minimal solution of the three-term recurrence
#     (p+1+alpha) nu_{p+1} = (2p+1) c nu_p + (alpha-p) nu_{p-1}:
# run upward, it amplifies rounding relative to nu_p by about
# exp(2 p arccosh c), the squared growth of its dominant solution.
# nu_0 and I_0 = int (c - x)^alpha dx come from ``_kernel_mass``.  Two branches:
#
# * forward, on rows with pmax arccosh c <= _FORWARD_GROWTH, every row near
#   c = 1 among them: nu_1 = c nu_0 - I_0, then the recurrence upward.  At
#   ln 4 the weight rows stay within 2e-15 of mpmath for c >= 1.01 up to
#   degree 64; at ln 16 they reach 4e-15.
# * Miller's backward recurrence on the others (Gautschi, SIAM Review 9,
#   1967): the ratios r_p = nu_p / nu_{p-1},
#       r_p = (alpha - p) / ((p+1+alpha) r_{p+1} - (2p+1) c),
#   start from the recurrence's local fixed point at the start index p, the
#   smaller root r of (p+1+alpha) r^2 - (2p+1) c r + (p-alpha) = 0, so far
#   above pmax that the start's error, which shrinks by exp(-2 arccosh c) a
#   step, is spent by pmax: _MILLER_DECAY / arccosh c steps above it.  The
#   fixed point is closer than r = 0, so 15 serves where r = 0 needs 19.5:
#   every nu_p stays within 1e-15 nu_0 of an r = 0 start 40 steps further
#   up, for pmax up to 64.  Then nu_p = nu_0 r_1 ... r_p.  At
#   alpha = 1, r_1 = 0 and every nu_p, p >= 1, vanishes exactly.
# ---------------------------------------------------------------------------

_FORWARD_GROWTH = math.log(4.0)
_MILLER_DECAY = 15.0


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


def _forward_moments(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """nu_p(c), p = 0..pmax, by the upward recurrence; shape (pmax + 1, c.size)."""
    nu = np.empty((pmax + 1, c.size))
    nu[0], i0 = _kernel_mass(c - 1.0, 2.0, alpha, orders=2)
    if pmax >= 1:
        nu[1] = c * nu[0] - i0
    for p in range(1, pmax):
        nu[p + 1] = ((2.0 * p + 1.0) * c * nu[p] + (alpha - p) * nu[p - 1]) / (p + 1.0 + alpha)
    return nu


def _miller_moments(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """nu_p(c), p = 0..pmax, by Miller's recurrence; shape (pmax + 1, c.size), c > 1."""
    nu = np.empty((pmax + 1, c.size))
    (nu[0],) = _kernel_mass(c - 1.0, 2.0, alpha)
    # one start for every row, set by the slowest decay
    start = pmax + math.ceil(_MILLER_DECAY / np.arccosh(np.min(c)))
    # the smaller root as 2 (p - alpha) / (b (1 + sqrt(1 - (k / b)^2))), with
    # b = (2p + 1) c and k^2 = 4 (p + 1 + alpha) (p - alpha): no cancellation,
    # and no b^2 to overflow
    b = (2.0 * start + 1.0) * c
    r = 2.0 * math.sqrt((start + 1.0 + alpha) * (start - alpha)) / b
    r *= r
    np.sqrt(1.0 - r, out=r)
    r += 1.0
    r *= b
    np.divide(2.0 * (start - alpha), r, out=r)
    # the loop runs on q_{p+1} = a_p r_{p+1}, a_p = (p + 1 + alpha) / (2p + 1),
    # so that r_p = b_p / (q_{p+1} - c) with b_p = (alpha - p) / (2p + 1).
    # Above pmax, q_p = a_{p-1} b_p / (q_{p+1} - c) takes two in-place
    # operations a step; from pmax down each r_p is kept and gives q_p
    q = r
    q *= (start + 1.0 + alpha) / (2.0 * start + 1.0)
    for p in range(start, pmax, -1):
        q -= c
        np.divide((p + alpha) * (alpha - p) / ((2.0 * p - 1.0) * (2.0 * p + 1.0)), q, out=q)
    for p in range(pmax, 0, -1):
        q -= c
        np.divide((alpha - p) / (2.0 * p + 1.0), q, out=nu[p])
        np.multiply(nu[p], (p + alpha) / (2.0 * p - 1.0), out=q)
    return np.cumprod(nu, axis=0, out=nu)


def _nu_batch(c: np.ndarray, alpha: float, pmax: int) -> np.ndarray:
    """Moments nu_p(c), p = 0..pmax, for a 1-d array of offsets c >= 1."""
    c = np.maximum(c, 1.0)  # clamp rounding below 1 at t ~ right
    # pmax arccosh c <= _FORWARD_GROWTH, without an arccosh per row; a NaN
    # offset goes forward too, to a NaN row that the constant-sum check refuses
    forward = ~(c > (math.cosh(_FORWARD_GROWTH / pmax) if pmax else math.inf))
    nu = np.empty((c.size, pmax + 1))
    for rows, moments in ((forward, _forward_moments), (~forward, _miller_moments)):
        if np.any(rows):
            nu[rows] = moments(c[rows], alpha, pmax).T
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
    # not (err <= bound): a NaN row, or an inf row with an inf bound, fails too
    bad = ~(err <= 1e-10 * expected + 1e-16 * (np.abs(weights) @ ones))
    if bad.any():
        k = np.unravel_index(np.argmax(err / expected), err.shape)
        left, right, at = (np.broadcast_to(v, err.shape)[k] for v in (lefts, rights, t))
        raise HistoryAccuracyError(
            f"constant-sum check failed for element [{left}, {right}] "
            f"at t={at}: error {err[k]:.3e}"
        )


def history_weights_batch(lefts, rights, degree: int, t, alpha: float) -> np.ndarray:
    """Weights for same-degree elements at times t, broadcast by numpy rules.

    ``t``, ``lefts`` and ``rights`` broadcast against each other, and the
    result has their broadcast shape + ``(degree + 1,)``: each row holds one
    element's weights at one time.  Pass ``t[:, None]`` against 1-d
    ``lefts``/``rights`` for every (time, element) pair, or equal-length 1-d
    arrays for one element per time.  Contracting a row with samples of a
    polynomial phi of degree <= ``degree`` at the element's shifted Lobatto
    points gives ``int_element (t-s)^(alpha-1) phi(s) ds`` exactly.

    Hot path of history assembly: moments are vectorized over all rows, one
    basis-change matrix serves them all, and every row passes the
    constant-sum check (``HistoryAccuracyError`` otherwise).

    Preconditions, not checked here: every t >= its element's right end, and
    0 < alpha <= 1.  The callers build t from a validated ``ProblemSpec`` on
    causal meshes, and a check per call would cost on every history row.  A
    t < right is not caught by the constant-sum check either: the moments
    clamp c to 1 and the check clamps the gap to 0, so such a row silently
    holds the weights at t = right.
    """
    t = np.asarray(t, dtype=float)
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    nu = _element_moments(lefts, rights, t, alpha, degree)
    weights = nu @ lobatto_lagrange_coeffs(degree)
    del nu  # rows x (degree + 1) floats that the check need not keep alive
    _check_constant_sum(weights, lefts, rights, t, alpha)
    return weights

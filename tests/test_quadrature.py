import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_jacobi

from abelhp.orthopoly import JacobiParams
from abelhp.quadrature import (
    _FORWARD_GROWTH,
    HistoryAccuracyError,
    RuleKind,
    _check_constant_sum,
    _element_moments,
    _forward_moments,
    _kernel_mass,
    _miller_moments,
    _nu_batch,
    _shift_rows,
    gauss_rule,
    history_weights_batch,
    lobatto_lagrange_coeffs,
)

from oracles import (
    jacobi_norm,
    lagrange_history_integral,
    lagrange_values,
    singular_history_integral,
    weighted_poly_integral,
)


def _one_element_moments(left, right, t, alpha, degree):
    """Modified moments of one element at one time, from the batched routine."""
    return _element_moments(np.array([left]), np.array([right]), t, alpha, degree)[0]


def _lobatto_points(left, right, degree):
    """The element's shifted Lobatto points, placed as history assembly places them."""
    nodes = gauss_rule(RuleKind.GAUSS_LOBATTO, None, degree).nodes
    return _shift_rows(nodes, np.array([left]), np.array([right]))[0]


def test_gauss_legendre_two_point():
    rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, 1)
    assert rule.nodes == pytest.approx([-0.5773502691896257, 0.5773502691896257])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_lobatto_three_point():
    rule = gauss_rule(RuleKind.GAUSS_LOBATTO, None, 2)
    assert rule.nodes == pytest.approx([-1.0, 0.0, 1.0], abs=1e-15)
    assert rule.weights == pytest.approx([1 / 3, 4 / 3, 1 / 3], rel=1e-14)


def _rule_errors(nodes, weights, a, b):
    """Largest node error and largest weight error / mu0 against mpmath's rule at 40 digits."""
    with mp.workdps(40):
        ref_x, ref_w = mp.gauss_quadrature(len(nodes), "jacobi", a, b)
        ref = sorted(zip(ref_x, ref_w))
        node_err = max(abs(x - rx) for x, (rx, _) in zip(nodes.tolist(), ref))
        if weights is None:
            return float(node_err), 0.0
        weight_err = max(abs(w - rw) for w, (_, rw) in zip(weights.tolist(), ref))
        return float(node_err), float(weight_err / mp.fsum(ref_w))


# point counts that keep the comparison quick; every count to 33 passes too
_RULE_POINTS = (1, 2, 3, 5, 9, 17, 33)


def _library_rules(family):
    """(nodes, weights, a, b) of every rule of one family the library builds, by point count."""
    if family == "legendre":
        for n in _RULE_POINTS[1:]:
            rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, n - 1)
            yield rule.nodes, rule.weights, 0.0, 0.0
    elif family == "lobatto_interior":  # zeros of P'_order; the weights come from P_order
        for n in _RULE_POINTS:
            interior = gauss_rule(RuleKind.GAUSS_LOBATTO, None, n + 1).nodes[1:-1]
            yield interior, None, 1.0, 1.0
    else:
        a = float(family) - 1.0
        for n in _RULE_POINTS[1:]:
            rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(a, 0.0), n - 1)
            yield rule.nodes, rule.weights, a, 0.0


@pytest.mark.parametrize(
    "family", ["legendre", "lobatto_interior", "0.05", "0.3", "0.5", "0.7", "0.95"]
)
def test_rules_match_mpmath(family):
    # the weight bound tells these rules from scipy's roots_jacobi, whose
    # weights are up to 1.1e-12 mu0 off at alpha = 0.05
    for nodes, weights, a, b in _library_rules(family):
        node_err, weight_err = _rule_errors(nodes, weights, a, b)
        assert node_err <= 4.4e-16, (nodes.size, node_err)
        assert weight_err <= 2e-14, (nodes.size, weight_err)


@pytest.mark.parametrize("M", range(1, 9))
def test_jacobi_weights_sum(M):
    rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(-0.5, 0.0), M)
    assert rule.weights.sum() == pytest.approx(2.8284271247461903, rel=1e-12)


def test_rules_well_formed():
    for M in range(1, 11):
        for kind, params in [
            (RuleKind.GAUSS_LEGENDRE, None),
            (RuleKind.GAUSS_JACOBI, JacobiParams(-0.8, 0.0)),
            (RuleKind.GAUSS_LOBATTO, None),
        ]:
            rule = gauss_rule(kind, params, M)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            assert rule.nodes.size == M + 1


def test_gauss_exactness_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = float(rng.choice([-0.8, -0.5, -0.2]))
        M = int(rng.integers(1, 11))
        coeffs = rng.uniform(-1.0, 1.0, 2 * M + 2)  # degree 2M+1
        rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(a, 0.0), M)
        vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        mine = float(rule.weights @ vals)
        oracle = weighted_poly_integral(coeffs, a, 0.0, 2 * M + 1)
        scale = sum(
            abs(c) * abs(weighted_poly_integral([0] * j + [1], a, 0.0, j))
            for j, c in enumerate(coeffs)
        )
        assert abs(mine - oracle) <= 1e-10 * scale


def test_lobatto_exactness():
    rng = np.random.default_rng(3)
    for M in range(1, 9):
        rule = gauss_rule(RuleKind.GAUSS_LOBATTO, None, M)
        coeffs = rng.uniform(-1.0, 1.0, 2 * M)  # degree 2M-1
        vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        mine = float(rule.weights @ vals)
        oracle = weighted_poly_integral(coeffs, 0.0, 0.0, 2 * M - 1)
        assert mine == pytest.approx(oracle, abs=1e-12 * (1 + abs(oracle)))


@pytest.mark.parametrize("a", [-0.8, -0.5, 0.0])
def test_discrete_orthogonality(a):
    params = JacobiParams(a, 0.0)
    M = 7
    rule = gauss_rule(RuleKind.GAUSS_JACOBI, params, M)
    table = eval_jacobi(np.arange(M + 1)[:, None], a, 0.0, rule.nodes)
    gram = (table * rule.weights) @ table.T
    expected = np.diag([jacobi_norm(a, 0.0, p) for p in range(M + 1)])
    assert np.max(np.abs(gram - expected)) <= 1e-10 * expected.max()


def test_history_weights_alpha_one_is_scaled_lobatto():
    w = history_weights_batch([0.25], [0.75], 5, 2.0, 1.0)[0]
    rule = gauss_rule(RuleKind.GAUSS_LOBATTO, None, 5)
    assert w == pytest.approx(0.5 * 0.5 * rule.weights, rel=1e-12)


def test_history_weights_constant_sum():
    w = history_weights_batch([0.0], [1.0], 4, 2.0, 0.5)[0]
    assert w.sum() == pytest.approx(0.8284271247461901, rel=1e-12)


def test_history_weights_near_singular_oracle():
    t, alpha = 1.1, 0.3
    w = history_weights_batch([0.0], [1.0], 4, t, alpha)[0]
    pts = _lobatto_points(0.0, 1.0, 4)
    for j in range(5):
        oracle = singular_history_integral(
            lambda s: lagrange_values(pts, j, s), 0.0, 1.0, t, alpha
        )
        assert w[j] == pytest.approx(oracle, abs=1e-9)


def test_history_weight_random_oracle_sweep():
    rng = np.random.default_rng(42)
    for _ in range(25):
        left = rng.uniform(0.0, 2.0)
        h = rng.uniform(0.05, 1.5)
        M = int(rng.integers(1, 9))
        alpha = rng.uniform(0.1, 1.0)
        gap = rng.choice([rng.uniform(0.0, 5.0 * h), 1e-3 * h * rng.uniform(0.05, 1.0)])
        right = left + h
        t = right + gap
        w = history_weights_batch([left], [right], M, t, alpha)[0]
        pts = _lobatto_points(left, right, M)
        for j in range(M + 1):
            oracle = lagrange_history_integral(pts, j, left, right, t, alpha)
            assert abs(w[j] - oracle) < 1e-9


def test_history_weights_exact_on_polynomials():
    # contracting the weights with samples of a degree-M polynomial matches
    # the weighted integral of the polynomial itself
    t, alpha = 1.3, 0.45
    w = history_weights_batch([0.2], [0.9], 5, t, alpha)[0]
    pts = _lobatto_points(0.2, 0.9, 5)
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1, 1, 6)
    poly = lambda s: np.polynomial.polynomial.polyval(s, coeffs)
    mine = float(w @ poly(pts))
    oracle = singular_history_integral(poly, 0.2, 0.9, t, alpha)
    assert mine == pytest.approx(oracle, rel=1e-10)


def test_modified_moments_closed_forms():
    mu = _one_element_moments(0.0, 1.0, 2.0, 0.5, 3)
    assert mu[0] == pytest.approx(0.8284271247461901, rel=1e-12)
    assert mu[1] == pytest.approx(0.047378541243650166, rel=1e-9)
    mu1 = _one_element_moments(0.0, 1.0, 1.7, 1.0, 4)
    assert mu1[0] == pytest.approx(1.0, rel=1e-13)
    assert np.max(np.abs(mu1[1:])) < 1e-13


def test_modified_moments_against_quadrature_oracle():
    from numpy.polynomial.legendre import legval

    rng = np.random.default_rng(12)
    for _ in range(12):
        left = rng.uniform(0.0, 1.5)
        h = rng.uniform(0.1, 1.0)
        right = left + h
        alpha = rng.uniform(0.15, 0.95)
        t = right + rng.uniform(0.0, 3.0)
        mu = _one_element_moments(left, right, t, alpha, 6)
        for p in range(7):
            unit = np.zeros(p + 1)
            unit[p] = 1.0
            fn = lambda s: legval((2 * s - left - right) / h, unit)
            oracle = singular_history_integral(fn, left, right, t, alpha)
            assert mu[p] == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_lagrange_transform_consistency():
    # the weights are the moments carried to the Lagrange basis by C
    w = history_weights_batch([0.3], [0.8], 6, 1.5, 0.35)[0]
    C = lobatto_lagrange_coeffs(6)
    mu = _one_element_moments(0.3, 0.8, 1.5, 0.35, 6)
    assert w == pytest.approx(mu @ C, rel=1e-14)


def test_history_weights_batch_array_t_matches_scalar_rows():
    # times both near (c close to 1) and far from the elements, degree > 1
    # so both moment branches, forward and Miller, run
    lefts, rights = np.array([0.0, 0.25, 0.4]), np.array([0.25, 0.4, 0.5])
    ts = np.array([[0.5, 0.505], [0.7, 3.0]])
    w = history_weights_batch(lefts, rights, 5, ts[..., None], 0.4)
    assert w.shape == ts.shape + (3, 6)
    for idx in np.ndindex(ts.shape):
        row = history_weights_batch(lefts, rights, 5, ts[idx], 0.4)
        assert w[idx] == pytest.approx(row, rel=1e-14, abs=0.0)


def test_history_weights_batch_pairwise_matches_outer_rows():
    # one element per time (equal-length 1-d arrays) gives the rows of the
    # (time, element) outer call, near and far, at degrees 1 and 4
    lefts, rights = np.array([0.0, 0.25, 0.4, 0.45]), np.array([0.25, 0.4, 0.45, 0.5])
    ts = np.array([0.502, 0.52, 0.9, 40.0])
    for degree in (1, 4):
        outer = history_weights_batch(lefts, rights, degree, ts[:, None], 0.3)
        k = np.tile(np.arange(lefts.size), ts.size)
        pairs = history_weights_batch(lefts[k], rights[k], degree, np.repeat(ts, lefts.size), 0.3)
        assert pairs.shape == (ts.size * lefts.size, degree + 1)
        assert np.array_equal(pairs, outer.reshape(pairs.shape))


def _nu_rodrigues(c, alpha, p):
    """nu_p(c) at 30 digits from Rodrigues' formula, independent of any recurrence.

    Integrating p times by parts gives
    nu_p = (1-alpha)_p / (2^p p!) int (c - x)^(alpha-1-p) (1 - x^2)^p dx,
    and on x = 2u - 1 that integral is Euler's integral of
    2F1(p+1-alpha, p+1; 2p+2; 2/(c+1)), which mpmath sums far faster than
    it integrates the peaked integrand near c = 1.
    """
    with mp.workdps(30):
        a, c = mp.mpf(alpha), mp.mpf(c)
        scale = mp.rf(1 - a, p) / (2**p * mp.factorial(p))
        if scale == 0:
            return mp.mpf(0)
        scale *= 2 ** (2 * p + 1) * mp.beta(p + 1, p + 1) * (c + 1) ** (a - 1 - p)
        return scale * mp.hyp2f1(p + 1 - a, p + 1, 2 * p + 2, 2 / (c + 1))


def test_moment_series_matches_mpmath():
    # weight rows up to degree 64 from both moment branches, against rows
    # summed at 30 digits: c from 1.01 through the former band 1.2 < c < 8
    # to far from the element, and the vanishing nu_p (p >= 1) at alpha = 1
    degrees = (1, 2, 3, 5, 8, 16, 32, 64)
    with mp.workdps(30):
        columns = {d: [list(map(mp.mpf, col)) for col in lobatto_lagrange_coeffs(d).T.tolist()]
                   for d in degrees}
        for alpha in (0.1, 0.3, 0.5, 0.7, 1.0):
            for c in (1.01, 1.05, 1.19, 2.0, 7.9, 8.0, 11.0, 1e3, 1e8):
                exact = [_nu_rodrigues(c, alpha, p) for p in range(degrees[-1] + 1)]
                for d in degrees:
                    w = _nu_batch(np.array([c]), alpha, d)[0] @ lobatto_lagrange_coeffs(d)
                    want = np.array([float(mp.fdot(exact[: d + 1], col)) for col in columns[d]])
                    err = np.max(np.abs(w - want)) / np.max(np.abs(want))
                    assert err <= 2e-15, (alpha, c, d, err)


def test_moment_branches_agree_at_the_miller_seam():
    # just below pmax arccosh(c) = _FORWARD_GROWTH the forward recurrence,
    # just above it Miller's.  Their difference is absolute, a few eps nu_0
    # (nu_p for p >= 1 are smaller than nu_0), so it is measured against nu_0.
    for alpha in (0.05, 0.3, 0.5, 0.95, 1.0):
        for pmax in (1, 2, 3, 8, 16, 32):
            seam = math.cosh(_FORWARD_GROWTH / pmax)
            for c in (seam * (1.0 - 1e-12), seam * (1.0 + 1e-12)):
                c = np.array([c])
                forward = _forward_moments(c, alpha, pmax)[:, 0]
                miller = _miller_moments(c, alpha, pmax)[:, 0]
                assert np.all(np.abs(forward - miller) <= 1.2e-15 * forward[0])
                chosen = _nu_batch(c, alpha, pmax)[0]
                assert np.array_equal(chosen, forward if c[0] <= seam else miller)


def test_history_weights_reject_bad_sum():
    # one row of a (time, element) stack scaled off its kernel integral: a
    # 1e-6 relative error on unit elements, 1e-8 on elements 1e-7 wide; the
    # message names that row's element and time
    cases = (
        (np.array([0.0, 1.0]), 3, np.array([2.0, 3.0]), (0, 0), 1e-6),
        (np.array([0.0, 1e-7, 2e-7]), 4, np.array([1.0, 2.0]), (1, 1), 1e-8),
    )
    for bp, degree, ts, (i, k), rel in cases:
        lefts, rights, t = bp[:-1], bp[1:], ts[:, None]
        w = history_weights_batch(lefts, rights, degree, t, 0.5)
        _check_constant_sum(w, lefts, rights, t, 0.5)
        w[i, k] *= 1.0 + rel
        with pytest.raises(HistoryAccuracyError) as err:
            _check_constant_sum(w, lefts, rights, t, 0.5)
        assert f"element [{lefts[k]}, {rights[k]}] at t={ts[i]}:" in str(err.value)


def test_zeroth_moment_far_from_element_matches_mpmath():
    # nu_0(c) = ((c+1)^alpha - (c-1)^alpha) / alpha subtracts two nearly
    # equal powers once c >> 1; the computed value must keep full precision
    c = np.geomspace(1e3, 1e9, 13)
    for alpha in (0.1, 0.3, 0.5, 0.9):
        nu0 = _nu_batch(c, alpha, 0)[:, 0]
        with mp.workdps(50):
            exact = [float(((mp.mpf(x) + 1) ** alpha - (mp.mpf(x) - 1) ** alpha) / alpha)
                     for x in c]
        assert nu0 == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_kernel_mass_matches_mpmath_at_every_gap():
    # one formula serves every gap, from t on the element's right end
    # (gap = 0) through the near field to elements far narrower than their
    # distance to t; both exponents used by the moments are checked
    ratios = [0.0, 1e-300, 1e-12, 1e-6, 0.0999, 0.1, 0.1001, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12]
    for width in (2.0, 1e-7):
        gap = np.array(ratios) * width
        for alpha in (0.1, 0.3, 0.5, 0.9, 1.0):
            masses = _kernel_mass(gap, width, alpha, orders=2)
            with mp.workdps(60):
                for k, mass in enumerate(masses):
                    a = mp.mpf(alpha) + k
                    w = mp.mpf(width)
                    exact = [float(((mp.mpf(g) + w) ** a - mp.mpf(g) ** a) / a) for g in gap]
                    assert mass == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_history_weights_at_the_element_end():
    # t = elem.right is c = 1: nu_0 = 2^alpha / alpha, reached through
    # log1p(width / 0) = inf without a floating-point warning
    for alpha in (0.1, 0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu0 = _nu_batch(np.array([1.0]), alpha, 3)[0, 0]
            w = history_weights_batch([0.25], [0.75], 3, 0.75, alpha)[0]
        assert nu0 == pytest.approx(2.0**alpha / alpha, rel=1e-15)
        assert np.sum(w) == pytest.approx(0.5**alpha / alpha, rel=1e-14)


def test_history_weights_at_the_element_end_pass_the_sum_check():
    # c = (2t - left - right) / width rounds above 1 at t = right on some
    # elements, while the constant-sum check takes the gap t - right = 0
    # exactly; [0.45, 0.5] is one, with alpha = 0.3 and degree 1
    elements = [(0.45, 0.5), (0.1, 0.3), (1 / 3, 2 / 3), (0.6**5, 0.6**4), (0.7, 0.9)]
    for alpha in (0.05, 0.3, 0.5, 0.95):
        for degree in range(1, 9):
            for left, right in elements:
                batch = history_weights_batch([left], [right], degree, right, alpha)[0]
                mass = (right - left) ** alpha / alpha
                assert np.sum(batch) == pytest.approx(mass, rel=1e-13)
                nu0 = _one_element_moments(left, right, right, alpha, degree)[0]
                assert nu0 == pytest.approx(mass, rel=1e-13)


def test_first_moment_far_from_element_matches_mpmath():
    # nu_1 = c nu_0 - I_0 subtracts two values of size ~2 c^alpha to get one
    # of size ~c^(alpha-2); the computed nu_1 must stay accurate relative to
    # nu_0 at every distance
    c = np.array([1.5, 3.0, 10.0, 1e3, 1e6, 1e9])
    for alpha in (0.1, 0.3, 0.5, 0.9):
        nu = _nu_batch(c, alpha, 1)
        exact = []
        with mp.workdps(60):
            a = mp.mpf(alpha)
            for x in map(mp.mpf, c):
                nu0 = ((x + 1) ** a - (x - 1) ** a) / a
                i0 = ((x + 1) ** (a + 1) - (x - 1) ** (a + 1)) / (a + 1)
                exact.append(float(x * nu0 - i0))
        assert np.all(np.abs(nu[:, 1] - exact) <= 1e-14 * np.abs(nu[:, 0]))


def test_cached_tables_are_read_only():
    # cached arrays are shared by every later call; an in-place write by one
    # caller must fail instead of corrupting the rest of the process
    from abelhp.discretization import _reference_tables
    from abelhp.mesh import Mesh
    from abelhp.quadrature import _lobatto_nodes, _lobatto_table

    rule = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(-0.3, 0.0), 5)
    ref = _reference_tables(3, 0.7)
    arrays = [
        rule.nodes,
        rule.weights,
        lobatto_lagrange_coeffs(4),
        _lobatto_nodes(4),
        _lobatto_table(4),
        Mesh([0.0, 0.5, 1.0, 1.5], [2, 4, 2]).history_points,
        ref.gl.nodes,
        ref.gj.weights,
        ref.node_product,
        ref.P,
        ref.Q,
        ref.Qflat,
        ref.proj_scale,
        ref.sys_scale,
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = arr.copy()


def test_history_weights_on_small_elements_far_from_t():
    # elements far narrower than their distance to t, as on graded meshes
    for degree in (1, 4, 12):
        for alpha in (0.1, 0.3, 0.5, 0.9):
            for width in (1e-5, 1e-7, 1e-9):
                w = history_weights_batch([0.0], [width], degree, 1.0, alpha)[0]
                assert np.all(np.isfinite(w))


def test_rule_cache_returns_same_object():
    r1 = gauss_rule(RuleKind.GAUSS_JACOBI, JacobiParams(-0.3, 0.0), 5)
    r2 = gauss_rule("gauss_jacobi", JacobiParams(-0.3, 0.0), 5)
    assert r1 is r2


def test_invalid_rules():
    with pytest.raises(ValueError):
        gauss_rule(RuleKind.GAUSS_JACOBI, None, 3)
    with pytest.raises(ValueError):
        gauss_rule(RuleKind.GAUSS_LOBATTO, JacobiParams(-0.5, 0.0), 3)
    with pytest.raises(ValueError):
        gauss_rule(RuleKind.GAUSS_LEGENDRE, JacobiParams(-0.5, 0.0), 3)
    with pytest.raises(ValueError):
        gauss_rule(RuleKind.GAUSS_LEGENDRE, None, 0)

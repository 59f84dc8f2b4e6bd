import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import dblquad

import abelhp.discretization
from abelhp.bench import forward_apply, make_benchmark
from abelhp.discretization import (
    ElementOperator,
    HistoryRun,
    ProblemAssumptionWarning,
    ProblemSpec,
    history_runs,
    operator_stretches,
)
from abelhp.mesh import Mesh, uniform_mesh
from abelhp.orthopoly import legendre_table
from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule
from abelhp.solver import _lobatto_values, newton, solve

from oracles import (
    fused_matrix_einsum,
    history_by_node,
    jacobian_einsum,
    rhs_by_node,
    singular_history_integral,
    uniform_history_mpmath,
    weighted_moments_einsum,
)


def _ones(t, s):
    return np.ones_like(np.asarray(s, dtype=float) + t)


def _identity_problem(alpha, T, f, linear=True):
    return ProblemSpec(
        alpha=alpha,
        T=T,
        kappa=_ones,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=f,
        linear=linear,
    )


def _prior(mesh, *coeffs):
    """Lobatto values of elements 1..k with these coefficients, flat as history() reads them."""
    vals = [
        _lobatto_values(np.asarray(c, dtype=float), d) for d, c in zip(mesh.degrees, coeffs)
    ]
    return np.concatenate(vals) if vals else np.empty(0)


def _element_residual(ops, n, prior_u):
    """Residual of element n as solve forms it: moments - (rhs - history)."""
    target = ops.rhs(n) - ops.history(n, prior_u)
    return lambda u: ops.weighted_moments(n, np.asarray(u, dtype=float)) - target


def test_rhs_constant_and_mode_pickoff():
    p = _identity_problem(0.5, 1.0, lambda t: np.ones_like(np.asarray(t, dtype=float)))
    m = uniform_mesh(2, 1.0, 3)
    f0 = ElementOperator(p, m, 1, 1).rhs(1)
    assert f0[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(f0[1:])) < 1e-14

    # f equal to one shifted Legendre mode projects onto exactly that mode
    left, right = m.breakpoints[1:3]
    f2 = lambda t: legendre_table(2, (2 * np.asarray(t) - left - right) / (right - left))[2]
    fh = ElementOperator(ProblemSpec(0.5, 1.0, _ones, lambda t, s, u: u,
                                     lambda t, s, u: np.ones_like(u), f2, True), m, 2, 2).rhs(2)
    expected = np.zeros(4)
    expected[2] = 1.0
    assert fh == pytest.approx(expected, abs=1e-13)


def test_rhs_linear_function():
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(1, 1.0, 3)
    fh = ElementOperator(p, m, 1, 1).rhs(1)
    assert fh == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-14)


def test_history_empty_for_first_element():
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(3, 1.0, 2)
    assert np.array_equal(ElementOperator(p, m, 1, 1).history(1, np.empty(0)), np.zeros(3))


def test_history_constant_prior_alpha_one():
    p = _identity_problem(1.0, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(2, 1.0, 2)
    c = 3.0
    b = ElementOperator(p, m, 2, 2).history(2, _prior(m, [c, 0.0, 0.0]))
    assert b == pytest.approx([c * 0.5, 0.0, 0.0], abs=1e-13)


def test_history_closed_form_projection():
    # u == 1 on [0, 1]: the accumulated integral at later times t is
    # 2 (sqrt(t) - sqrt(t-1)); its Gauss-point projection is the reference
    p = _identity_problem(0.5, 2.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(2, 2.0, 4)
    b = ElementOperator(p, m, 2, 2).history(2, _prior(m, [1.0, 0.0, 0.0, 0.0, 0.0]))

    rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, 4)
    ti = _shift_rows(rule.nodes, m.breakpoints[1:2], m.breakpoints[2:3])[0]
    hist = 2.0 * (np.sqrt(ti) - np.sqrt(ti - 1.0))
    P = legendre_table(4, rule.nodes)
    oracle = (2 * np.arange(5) + 1) / 2.0 * (P @ (rule.weights * hist))
    assert b == pytest.approx(oracle, abs=1e-13)


def test_history_superposition():
    b3 = pytest.importorskip("abelhp.bench").make_benchmark("ex3")
    m = uniform_mesh(3, 1.0, 3)
    rng = np.random.default_rng(0)
    c1 = rng.uniform(0, 0.1, 4)
    c2 = rng.uniform(0, 0.1, 4)
    op = ElementOperator(b3.spec, m, 3, 3)
    both = op.history(3, _prior(m, c1, c2))
    # additivity over prior elements: zeroing one element's values removes
    # exactly its contribution
    only2 = op.history(3, _prior(m, c1 * 0.0, c2))
    only1 = op.history(3, _prior(m, c1, c2 * 0.0))
    assert both == pytest.approx(only1 + only2, abs=1e-12)


def test_local_residual_vanishes_on_exact_polynomial_alpha_one():
    p = _identity_problem(1.0, 1.0, lambda t: np.asarray(t, dtype=float) ** 2 / 2.0)
    m = uniform_mesh(1, 1.0, 1)
    r = _element_residual(ElementOperator(p, m, 1, 1), 1, np.empty(0))([0.5, 0.5])
    assert np.max(np.abs(r)) < 1e-13


def test_local_residual_vanishes_on_constant_sqrt_rhs():
    p = _identity_problem(0.5, 1.0, lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float)))
    m = uniform_mesh(1, 1.0, 1)
    r = _element_residual(ElementOperator(p, m, 1, 1), 1, np.empty(0))([1.0, 0.0])
    assert np.max(np.abs(r)) < 1e-13


def test_linear_consistency_of_residual():
    bench = pytest.importorskip("abelhp.bench").make_benchmark("ex2")
    m = uniform_mesh(2, 1.0, 3)
    prior = _prior(m, [0.3, -0.1, 0.05, 0.0])
    op = ElementOperator(bench.spec, m, 2, 2)
    residual = _element_residual(op, 2, prior)
    A, b, c = op.jacobian(2, np.zeros(4)), op.history(2, prior), op.rhs(2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.uniform(-1.0, 1.0, 4)
        direct = residual(u)
        assert np.max(np.abs(direct - (A @ u - c + b))) < 1e-11


def test_jacobian_matches_finite_differences():
    bench = pytest.importorskip("abelhp.bench").make_benchmark("ex3")
    m = uniform_mesh(2, 1.0, 3)
    op = ElementOperator(bench.spec, m, 2, 2)
    residual = _element_residual(op, 2, _prior(m, [0.01, 0.02, 0.0, 0.0]))
    rng = np.random.default_rng(2)
    u = rng.uniform(-0.5, 0.5, 4)
    J = op.jacobian(2, u)
    fd = np.empty_like(J)
    for q in range(4):
        h = 1e-7 * (1.0 + abs(u[q]))
        up, um = u.copy(), u.copy()
        up[q] += h
        um[q] -= h
        fd[:, q] = (residual(up) - residual(um)) / (2 * h)
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def test_jacobian_constant_for_linear_problems():
    bench = pytest.importorskip("abelhp.bench").make_benchmark("ex2")
    m = uniform_mesh(2, 1.0, 3)
    op = ElementOperator(bench.spec, m, 1, 1)
    A = op.jacobian(1, np.zeros(4))
    rng = np.random.default_rng(9)
    for _ in range(3):
        u = rng.uniform(-1, 1, 4)
        assert op.jacobian(1, u) == pytest.approx(A, abs=1e-13)


def test_jacobian_zero_at_zero_for_square_nonlinearity():
    p = ProblemSpec(
        alpha=0.5,
        T=1.0,
        kappa=_ones,
        psi=lambda t, s, u: u**2,
        dpsi_du=lambda t, s, u: 2.0 * u,
        f=lambda t: np.asarray(t, dtype=float),
    )
    m = uniform_mesh(1, 1.0, 3)
    J = ElementOperator(p, m, 1, 1).jacobian(1, np.zeros(4))
    assert np.max(np.abs(J)) < 1e-14


def test_assemble_linear_matrix_action_and_independence():
    p = _identity_problem(1.0, 1.0, lambda t: np.asarray(t, dtype=float) ** 2 / 2.0)
    m = uniform_mesh(1, 1.0, 1)
    op = ElementOperator(p, m, 1, 1)
    A, b, c = op.jacobian(1, np.zeros(2)), op.history(1, np.empty(0)), op.rhs(1)
    # A maps the coefficients of u = t onto those of t^2/2 (degree <= 1 part)
    assert A @ [0.5, 0.5] == pytest.approx([1 / 6, 1 / 4], rel=1e-12)
    assert b == pytest.approx(np.zeros(2), abs=1e-15)

    p_other = _identity_problem(1.0, 1.0, lambda t: np.cos(np.asarray(t, dtype=float)))
    op_other = ElementOperator(p_other, m, 1, 1)
    A2, c2 = op_other.jacobian(1, np.zeros(2)), op_other.rhs(1)
    assert np.array_equal(A, A2)
    assert not np.allclose(c, c2)


def test_assemble_linear_entries_against_2d_quadrature():
    # alpha = 1, unit kernel: a_{p,q} is the Gauss projection of
    # int_0^t L_q, exact for these degrees, so it matches the 2-D integral
    p = _identity_problem(1.0, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(1, 1.0, 2)
    A = ElementOperator(p, m, 1, 1).jacobian(1, np.zeros(3))
    for pp in range(3):
        for q in range(3):
            unit_p = np.zeros(pp + 1)
            unit_p[pp] = 1.0
            unit_q = np.zeros(q + 1)
            unit_q[q] = 1.0
            val = dblquad(
                lambda s, t: np.polynomial.legendre.legval(2 * s - 1, unit_q)
                * np.polynomial.legendre.legval(2 * t - 1, unit_p),
                0.0,
                1.0,
                0.0,
                lambda t: t,
                epsabs=1e-12,
                epsrel=1e-12,
            )[0]
            assert A[pp, q] == pytest.approx((2 * pp + 1) / 1.0 * val, abs=1e-10)


def test_quadrature_consistency_low_degree_integrand():
    # kernel (1+s) with u linear keeps the mapped integrand within Gauss
    # exactness, so the assembled moments match the weighted-integral oracle
    p = ProblemSpec(
        alpha=0.4,
        T=1.0,
        kappa=lambda t, s: 1.0 + s,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.asarray(t, dtype=float),
        linear=True,
    )
    m = uniform_mesh(1, 1.0, 3)
    op = ElementOperator(p, m, 1, 1)
    coeffs = np.array([0.5, 0.5, 0.0, 0.0])  # u(t) = t
    mine = op.weighted_moments(1, coeffs)
    vals = np.empty_like(op.t_nodes[0])
    for i, t in enumerate(op.t_nodes[0]):
        vals[i] = singular_history_integral(
            lambda s: (1.0 + s) * s, 0.0, float(t), float(t), 0.4
        )
    oracle = op.project(vals)
    assert mine == pytest.approx(oracle, rel=1e-10)


def test_fused_operator_matches_factorwise_contractions():
    # the per-element matrix folds kernel, weights, prefactor and system
    # scale into one product; the factor-by-factor einsum forms are the
    # oracle, on a mesh with every degree 1..8 and each problem's own psi
    degrees = [3, 1, 8, 2, 6, 4, 7, 5]
    rng = np.random.default_rng(17)
    for bench in (make_benchmark("ex1", 0.3), make_benchmark("ex3"),
                  make_benchmark("ex5"), make_benchmark("ex6")):
        T = bench.spec.T
        mesh = Mesh(np.linspace(0.0, T, len(degrees) + 1), degrees)
        for n, d in enumerate(degrees, start=1):
            op = ElementOperator(bench.spec, mesh, n, n)
            # |L_k| <= 1, so u = 1 + sum of terms below 0.1 in size stays
            # positive, as ex6's log and square root of u require
            coeffs = np.concatenate(([1.0], rng.uniform(-0.1, 0.1, d) / d))
            for fused, oracle in (
                (op.weighted_moments(n, coeffs), weighted_moments_einsum(op, n, coeffs)),
                (op.jacobian(n, coeffs), jacobian_einsum(op, n, coeffs)),
            ):
                assert fused.shape == oracle.shape
                assert np.max(np.abs(fused - oracle)) <= 1e-14 * np.max(np.abs(oracle))
            # a (K, d + 1) stack of rows gives one row of moments each
            stack = np.column_stack((np.ones(5), rng.uniform(-0.1, 0.1, (5, d)) / d))
            moments = op.weighted_moments(n, stack)
            assert moments.shape == stack.shape
            for row, c in zip(moments, stack):
                for oracle in (op.weighted_moments(n, c), weighted_moments_einsum(op, n, c)):
                    assert np.max(np.abs(row - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_broadcasting_callables_solve_like_full_arrays():
    # a scalar kernel and a scalar dpsi_du broadcast over the quadrature
    # grid, on the one-LU path and through Newton alike
    f = lambda t: np.asarray(t, dtype=float) ** 1.5
    mesh = Mesh([0.0, 0.2, 0.5, 1.0], [2, 4, 3])
    for linear in (True, False):
        full = _identity_problem(0.5, 1.0, f, linear=linear)
        scalar = dataclasses.replace(
            full, kappa=lambda t, s: 1.0, dpsi_du=lambda t, s, u: 1.0
        )
        a, b = solve(full, mesh).coeffs, solve(scalar, mesh).coeffs
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))

    # a constant psi broadcasts in the residual as well
    const = dataclasses.replace(
        _identity_problem(0.5, 1.0, f, linear=False),
        psi=lambda t, s, u: 2.0,
        dpsi_du=lambda t, s, u: 0.0,
    )
    twin = dataclasses.replace(const, psi=lambda t, s, u: np.full_like(u, 2.0))
    for n in (1, 3):
        c = np.array([0.3, -0.2, 0.1, 0.05])[: mesh.degrees[n - 1] + 1]
        got = ElementOperator(const, mesh, n, n).weighted_moments(n, c)
        want = ElementOperator(twin, mesh, n, n).weighted_moments(n, c)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        zero = np.zeros((c.size, c.size))
        assert np.array_equal(ElementOperator(const, mesh, n, n).jacobian(n, c), zero)


def test_degenerate_kernel_warns_never_raises():
    p = ProblemSpec(
        alpha=0.8,
        T=1.0,
        kappa=lambda t, s: np.sin(t - s),
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )
    assert any("diagonal" in msg for msg in p.notes)
    with pytest.warns(ProblemAssumptionWarning, match="diagonal"):
        solve(p, uniform_mesh(2, 1.0, 1))


def test_validation_flags_nonzero_f0():
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float) + 1.0)
    assert any("f(0)" in msg for msg in p.notes)


def test_validation_runs_once_per_spec_and_warns_on_every_solve():
    b = make_benchmark("ex5")
    calls = collections.Counter()

    @dataclasses.dataclass
    class Counted:  # unhashable, as a dataclass instance is: specs need not hash
        name: str
        fn: object

        def __call__(self, *args):
            calls[self.name] += 1
            return self.fn(*args)

    spec = dataclasses.replace(
        b.spec,
        f=Counted("f", b.spec.f),
        kappa=Counted("kappa", b.spec.kappa),
        dpsi_du=Counted("dpsi_du", b.spec.dpsi_du),
    )
    # the spot checks ran as the spec was built: f at 0 and on a grid in one
    # call, and kappa and dpsi_du once each
    assert calls == {"f": 1, "kappa": 1, "dpsi_du": 1}
    assert isinstance(spec.notes, tuple)
    per_solve = []
    for _ in range(2):
        calls.clear()
        with pytest.warns(ProblemAssumptionWarning, match="diagonal"):
            solve(spec, uniform_mesh(4, 1.0, 2), b.solver_options())
        per_solve.append(dict(calls))
    # each solve runs the march alone
    first, second = per_solve
    assert first == second


def test_problemspec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(0.0, 1.0, _ones, lambda t, s, u: u,
                    lambda t, s, u: np.ones_like(u), lambda t: t)
    with pytest.raises(ValueError):
        ProblemSpec(0.5, 1.0, _ones, lambda t, s, u: u**2,
                    lambda t, s, u: 2 * u, lambda t: t, linear=True)
    with pytest.raises(ValueError):
        ProblemSpec(0.5, 1.0, _ones, lambda t, s, u: u,
                    lambda t, s, u: 2.0 * np.ones_like(u), lambda t: t, linear=True)
    # T = inf used to pass, and every spot-check sample was taken at inf
    for T in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            ProblemSpec(0.5, T, _ones, lambda t, s, u: u**2, lambda t, s, u: 2 * u, lambda t: t)


def test_psi_inv_validation():
    square = dict(psi=lambda t, s, u: u**2, dpsi_du=lambda t, s, u: 2.0 * u)
    root = lambda s, z: np.sqrt(np.abs(z))
    spec = ProblemSpec(0.5, 1.0, _ones, f=lambda t: t, psi_inv=root, **square)
    assert spec.psi_inv is root
    with pytest.raises(ValueError, match="!= z"):  # not psi's inverse
        ProblemSpec(0.5, 1.0, _ones, f=lambda t: t, psi_inv=lambda s, z: z, **square)
    with pytest.raises(ValueError, match="depends on t"):  # ex3's psi
        ProblemSpec(0.5, 1.0, _ones, lambda t, s, u: (1.0 + s + t * u) * u,
                    lambda t, s, u: 1.0 + s + 2.0 * t * u, lambda t: t, psi_inv=root)
    with pytest.raises(ValueError, match="linear"):  # psi = u takes the linear path
        ProblemSpec(0.5, 1.0, _ones, lambda t, s, u: u, lambda t, s, u: np.ones_like(u),
                    lambda t: t, linear=True, psi_inv=lambda s, z: z)


def test_missing_prior_raises():
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(3, 1.0, 2)
    with pytest.raises(ValueError):
        ElementOperator(p, m, 3, 3).history(3, _prior(m, [1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ElementOperator(p, m, 3, 3).history(3, np.empty(0))
    with pytest.raises(ValueError):  # element 3's own values are not history
        ElementOperator(p, m, 3, 3).history(3, np.ones(m.L))


def test_history_matches_per_node_loop_on_mixed_degrees():
    # interleaved degrees, so equal-degree elements are not contiguous, with
    # ex3's t-dependent nonlinearity and ex1's t-dependent kernel
    ex1, ex3 = make_benchmark("ex1", 0.3), make_benchmark("ex3")
    problem = dataclasses.replace(ex3.spec, alpha=ex1.spec.alpha, kappa=ex1.spec.kappa)
    degrees = [2, 4, 2, 3, 4, 2]
    mesh = Mesh(np.linspace(0.0, 1.0, len(degrees) + 1), degrees)
    rng = np.random.default_rng(11)
    prior = _prior(mesh, *(rng.uniform(-1.0, 1.0, d + 1) for d in degrees[:-1]))
    for n in range(2, len(degrees) + 1):
        op = ElementOperator(problem, mesh, n, n)
        prior_u = prior[: mesh.offsets[n - 1]]
        batched = op.history(n, prior_u)
        looped = history_by_node(op, n, prior_u)
        assert np.max(np.abs(batched - looped)) <= 1e-14 * np.max(np.abs(looped))


def test_history_matches_per_node_loop_on_graded_hp_mesh():
    # geometric grading toward t = 0 with degrees rising 1..9: widths from
    # 2.6e-7 to 0.85, so the rows span the near-field recurrence (c <= 1.2),
    # nu_1 = c nu_0 - I_0 (1.2 < c < 8) and the nu_1 series (c >= 8)
    ex1 = make_benchmark("ex1", 0.3)
    bp = np.array([0.0] + [0.15**k for k in range(8, 0, -1)] + [1.0])
    degrees = list(range(1, bp.size))
    mesh = Mesh(bp, degrees)
    rng = np.random.default_rng(5)
    prior = _prior(mesh, *(rng.uniform(-1.0, 1.0, d + 1) for d in degrees[:-1]))
    for n in range(2, mesh.N + 1):
        op = ElementOperator(ex1.spec, mesh, n, n)
        prior_u = prior[: mesh.offsets[n - 1]]
        batched = op.history(n, prior_u)
        looped = history_by_node(op, n, prior_u)
        assert np.max(np.abs(batched - looped)) <= 1e-14 * np.max(np.abs(looped))


def _graded_stretches():
    """Geometric grading toward t = 0 (widths 8e-6 to 0.4), three elements per degree 1..8."""
    degrees = np.repeat(np.arange(1, 9), 3)
    bp = np.concatenate([[0.0], 0.6 ** np.arange(degrees.size - 1, -1, -1)])
    return Mesh(bp, degrees)


def test_history_runs_cover_the_mesh_in_order(monkeypatch):
    mesh = _graded_stretches()
    for block in (50, abelhp.discretization._HISTORY_BLOCK):
        monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
        runs = history_runs(mesh)
        assert [n0 for n0, _ in runs] == [1] + [n1 + 1 for _, n1 in runs[:-1]]
        assert runs[-1][1] == mesh.N
        for n0, n1 in runs:
            assert np.all(mesh.degrees[n0 - 1 : n1] == mesh.degrees[n0 - 1])
            pairs = (mesh.degrees[n0 - 1 : n1] + 1) * mesh.offsets[n0 - 1 : n1]
            assert n0 == n1 or np.sum(pairs) <= block


def test_operator_stretches_group_whole_runs_in_order(monkeypatch):
    # a stretch joins consecutive equal-degree runs while its stack's
    # R (d + 1)^3 entries fit the budget; a run over it stands alone
    for mesh in (_graded_stretches(), uniform_mesh(64, 1.0, 1)):
        for block in (50, 400, abelhp.discretization._HISTORY_BLOCK):
            monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
            stretches = operator_stretches(mesh)
            assert [run for stretch in stretches for run in stretch] == history_runs(mesh)
            for stretch in stretches:
                n0, n1 = stretch[0][0], stretch[-1][1]
                d = mesh.degrees[n0 - 1]
                assert np.all(mesh.degrees[n0 - 1 : n1] == d)
                assert len(stretch) == 1 or (n1 - n0 + 1) * (d + 1) ** 3 <= block
            if block == 50 and mesh.N == 64:
                assert len(stretches) < len(history_runs(mesh))


def test_blocked_history_matches_per_node_loop(monkeypatch):
    # a budget small enough to split stretches of equal degree, with runs of
    # several elements left, so both the far and the near part are checked;
    # ex3's t-dependent nonlinearity and ex1's t-dependent kernel
    ex1, ex3 = make_benchmark("ex1", 0.3), make_benchmark("ex3")
    problem = dataclasses.replace(ex3.spec, alpha=ex1.spec.alpha, kappa=ex1.spec.kappa)
    mesh = _graded_stretches()
    monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", 50)
    runs = history_runs(mesh)
    assert any(mesh.degrees[n1] == mesh.degrees[n1 - 1] for _, n1 in runs[:-1])
    assert any(n1 > n0 for n0, n1 in runs)
    rng = np.random.default_rng(7)
    prior = _prior(mesh, *(rng.uniform(-1.0, 1.0, d + 1) for d in mesh.degrees))
    for n0, n1 in runs:
        ops = ElementOperator(problem, mesh, n0, n1)
        run = HistoryRun(ops, n0, n1, prior[: mesh.offsets[n0 - 1]])
        for n in range(n0, n1 + 1):
            blocked = ops.project(run.at_nodes(n, prior))
            looped = history_by_node(ops, n, prior[: mesh.offsets[n - 1]])
            assert np.max(np.abs(blocked - looped)) <= 1e-14 * np.max(np.abs(looped))


def test_stacked_operators_match_factorwise_forms(monkeypatch):
    # every row of a run's stacks against the factor-by-factor oracles, on
    # runs that the small budget splits inside equal-degree stretches: B, the
    # rhs moments, the residual moments and the Jacobian, with ex6's np.where
    # kernel and a twin whose kappa, f and dpsi_du return scalars
    monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", 50)
    mesh = _graded_stretches()
    runs = history_runs(mesh)
    assert any(mesh.degrees[n1] == mesh.degrees[n1 - 1] for _, n1 in runs[:-1])
    assert any(n1 > n0 for n0, n1 in runs)
    scalars = dataclasses.replace(
        _identity_problem(0.5, 1.0, lambda t: 2.0, linear=False),
        kappa=lambda t, s: 1.5,
        dpsi_du=lambda t, s, u: 1.0,
    )
    problems = [make_benchmark(pid, a).spec
                for pid, a in (("ex1", 0.3), ("ex3", None), ("ex5", None), ("ex6", None))]
    rng = np.random.default_rng(23)
    for problem in problems + [scalars]:
        for n0, n1 in runs:
            ops = ElementOperator(problem, mesh, n0, n1)
            for n in range(n0, n1 + 1):
                d = int(mesh.degrees[n - 1])
                # u = 1 + terms below 0.1 stays positive, as ex6's log needs
                coeffs = np.concatenate(([1.0], rng.uniform(-0.1, 0.1, d) / d))
                for stacked, oracle in (
                    (ops.B[n - n0], fused_matrix_einsum(ops, n)),
                    (ops.rhs(n), rhs_by_node(ops, n)),
                    (ops.weighted_moments(n, coeffs), weighted_moments_einsum(ops, n, coeffs)),
                    (ops.jacobian(n, coeffs), jacobian_einsum(ops, n, coeffs)),
                ):
                    assert stacked.shape == oracle.shape
                    assert np.max(np.abs(stacked - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_operator_run_rejects_bad_ranges():
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = Mesh(np.linspace(0.0, 1.0, 4), [2, 2, 3])
    with pytest.raises(ValueError):
        ElementOperator(p, m, 2, 3)
    for n in (0, 4):
        with pytest.raises(IndexError):
            ElementOperator(p, m, n, n)


def test_operator_methods_reject_elements_outside_their_stretch():
    # each method reads element n's rows of the stacks; there are none for
    # an element outside n0..n1, on either side
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = uniform_mesh(4, 1.0, 2)
    ops = ElementOperator(p, m, 2, 3)
    c = np.array([0.1, 0.2, 0.3])
    for n in (1, 4):
        for call in (lambda: ops.weighted_moments(n, c), lambda: ops.jacobian(n, c),
                     lambda: ops.rhs(n)):
            with pytest.raises(KeyError):
                call()
        with pytest.raises(IndexError, match="outside the operators of 2..3"):
            ops.history(n, _prior(m, *[c] * (n - 1)))


def test_solve_calls_f_once_per_stretch(monkeypatch):
    # linear or not, a march calls f once per stretch, on the flat array of
    # the stretch's Gauss nodes
    monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", 50)
    ex1, ex2 = make_benchmark("ex1", 0.5), make_benchmark("ex2")
    power = lambda t: np.asarray(t, dtype=float) ** 1.5
    linear_manufactured = dataclasses.replace(
        ex2.spec, f=lambda t: forward_apply(ex2.spec, power, t)
    )
    mixed = Mesh(np.linspace(0.0, 1.0, 6), [2, 2, 3, 3, 3])
    cases = [
        (ex2.spec, uniform_mesh(32, 1.0, 2), None),
        (ex2.spec, uniform_mesh(32, 1.0, 1), None),
        (linear_manufactured, mixed, None),
        (ex1.spec, mixed, ex1.solver_options()),
    ]
    for problem, mesh, options in cases:
        shapes = []

        def counting(t, f=problem.f):
            shapes.append(np.shape(t))
            return f(t)

        spec = dataclasses.replace(problem, f=counting)
        assert len(shapes) > 0
        shapes.clear()
        # the spec was spot-checked as it was built, so solve calls f for its blocks only
        solve(spec, mesh, options)
        stretches = [(s[0][0], s[-1][1]) for s in operator_stretches(mesh)]
        assert len(stretches) > 1
        assert shapes == [((n1 - n0 + 1) * (mesh.degrees[n0 - 1] + 1),) for n0, n1 in stretches]
    # the degree-1 mesh's stretches join several runs
    mesh = uniform_mesh(32, 1.0, 1)
    assert len(operator_stretches(mesh)) < len(history_runs(mesh))


def _count_weight_calls(monkeypatch):
    """Route discretization's weight calls through a counter; returns the list of calls."""
    calls, real = [], abelhp.discretization.history_weights_batch

    def counting(lefts, rights, degree, t, alpha):
        weights = real(lefts, rights, degree, t, alpha)
        calls.append(weakref.ref(weights))
        return weights

    monkeypatch.setattr(abelhp.discretization, "history_weights_batch", counting)
    return calls


@pytest.mark.parametrize("N, degree, bound", [(1024, 1, 1e-15), (1000, 3, 1e-15)])
def test_uniform_history_against_mpmath_near_t_end(N, degree, bound):
    # one earlier element at a time, gaps 1, 3 and N - 1, seen from the Gauss
    # nodes of element N, against an exact uniform mesh: the direct weights
    # of element N - 1 lose 5e-14, as a node near t = 1 rounds by an ulp of 1,
    # much of t - right.  The table's weights, from the forward or Miller
    # moments, hold the same bound at both degrees.
    problem = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    mesh = uniform_mesh(N, 1.0, degree)
    ops = ElementOperator(problem, mesh, N, N)
    nodes = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, degree).nodes
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, degree + 1)
    for gap in (1, 3, N - 1):
        k = N - gap
        prior = np.zeros(mesh.offsets[N - 1])
        prior[mesh.offsets[k - 1] : mesh.offsets[k]] = _lobatto_values(coeffs, degree)
        table = abelhp.discretization._gap_table(mesh, 0.5)
        run = HistoryRun(ops, N, N, prior, table)
        got = ops.project(run.at_nodes(N, prior))
        want = ops.project(uniform_history_mpmath(N, 1.0, nodes, gap, coeffs, 0.5))
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), gap


@pytest.mark.parametrize("N", [40, 64])
def test_uniform_history_matches_per_node_loop(monkeypatch, N):
    # linspace(0, 1, 41) has widths 1.1e-16 apart and linspace(0, 1, 65)
    # equal ones; both read the gap table, on runs with far and near parts.
    # The prior is a smooth positive solution's: with random signs on each
    # element the sum cancels, and the loop's own direct weights, which lose
    # up to ulp(t) / (t - right) near each node, show through the bound
    ex1, ex3 = make_benchmark("ex1", 0.3), make_benchmark("ex3")
    problem = dataclasses.replace(ex3.spec, alpha=ex1.spec.alpha, kappa=ex1.spec.kappa)
    mesh = uniform_mesh(N, 1.0, 2)
    assert np.ptp(mesh.widths) == (1.1102230246251565e-16 if N == 40 else 0.0)
    monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", 400)
    table = abelhp.discretization._gap_table(mesh, problem.alpha)
    assert table is not None
    runs = history_runs(mesh)
    assert any(n1 > n0 > 1 for n0, n1 in runs)
    prior = 1.0 + 0.5 * np.cos(3.0 * mesh.history_points)
    for n0, n1 in runs:
        ops = ElementOperator(problem, mesh, n0, n1)
        run = HistoryRun(ops, n0, n1, prior[: mesh.offsets[n0 - 1]], table)
        for n in range(n0, n1 + 1):
            blocked = ops.project(run.at_nodes(n, prior))
            looped = history_by_node(ops, n, prior[: mesh.offsets[n - 1]])
            assert np.max(np.abs(blocked - looped)) <= 1e-14 * np.max(np.abs(looped))


def test_far_contraction_matches_per_node_loop(monkeypatch):
    # psi free of t (u, u^2) is contracted with weights times kernel as one
    # matrix-vector product; a psi of Python scalars and ex3's t-dependent psi
    # are multiplied and summed.  Each on a uniform mesh split into runs with
    # far parts, read from the gap table, and on graded stretches, whose runs
    # make their own weight calls
    ex3 = make_benchmark("ex3")
    psis = [lambda t, s, u: u, lambda t, s, u: u**2, lambda t, s, u: 2.0, ex3.spec.psi]
    uniform = uniform_mesh(40, 1.0, 2)
    for mesh, block in ((uniform, 400), (_graded_stretches(), 50)):
        monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
        table = abelhp.discretization._gap_table(mesh, ex3.spec.alpha)
        assert (table is not None) == (mesh is uniform)
        runs = history_runs(mesh)
        assert any(n1 > n0 > 1 for n0, n1 in runs)
        prior = 1.0 + 0.5 * np.cos(3.0 * mesh.history_points)
        for psi in psis:
            problem = dataclasses.replace(ex3.spec, psi=psi)
            for n0, n1 in runs:
                ops = ElementOperator(problem, mesh, n0, n1)
                run = HistoryRun(ops, n0, n1, prior[: mesh.offsets[n0 - 1]], table)
                for n in range(max(n0, 2), n1 + 1):
                    blocked = ops.project(run.at_nodes(n, prior))
                    looped = history_by_node(ops, n, prior[: mesh.offsets[n - 1]])
                    assert np.max(np.abs(blocked - looped)) <= 1e-14 * np.max(np.abs(looped))


def test_weight_path_follows_the_mesh(monkeypatch):
    # a uniform single-degree mesh whose history spans several runs makes one
    # weight call, the gap table; a breakpoint moved by 1e-9, two degrees on
    # equal widths, or a history that fits one run keep the per-run calls:
    # one per earlier degree for the far part, one for the near part
    bench = make_benchmark("ex2")
    bp = np.linspace(0.0, 1.0, 41)
    moved = bp.copy()
    moved[17] += 1e-9
    cases = [
        (uniform_mesh(40, 1.0, 2), 400, 1),
        (Mesh(moved, np.full(40, 2)), 400, None),
        (Mesh(bp, np.repeat([2, 3], 20)), 400, None),
        (uniform_mesh(40, 1.0, 2), abelhp.discretization._HISTORY_BLOCK, None),
    ]
    for mesh, block, expected in cases:
        monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
        if expected is None:
            expected = sum(
                sum(np.any(idx < n0 - 1) for _, idx, _ in mesh.degree_groups) + (n1 > n0)
                for n0, n1 in history_runs(mesh)
            )
            assert expected > 1 or len(history_runs(mesh)) == 1
        calls = _count_weight_calls(monkeypatch)
        solve(bench.spec, mesh, bench.solver_options())
        assert len(calls) == expected


def test_gap_table_goes_with_its_solve(monkeypatch):
    # held past the solve, the table would sit beside the error metrics'
    # evaluation at hist_linear's memory peak; a cache that kept meshes
    # alive grew that peak further
    bench = make_benchmark("ex2")
    monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", 400)
    calls = _count_weight_calls(monkeypatch)
    mesh = uniform_mesh(32, 1.0, 2)
    solution = solve(bench.spec, mesh, bench.solver_options())
    gc.collect()
    assert len(calls) == 1 and solution.mesh is mesh
    assert calls[0]() is None


def test_solve_does_not_depend_on_the_history_block(monkeypatch):
    cases = [
        (make_benchmark("ex3"), _graded_stretches()),
        (make_benchmark("ex2"), uniform_mesh(64, 1.0, 1)),
    ]
    for bench, mesh in cases:
        default = solve(bench.spec, mesh, bench.solver_options())
        with monkeypatch.context() as m:
            m.setattr(abelhp.discretization, "_HISTORY_BLOCK", 50)
            assert len(history_runs(mesh)) > len(set(mesh.degrees.tolist()))
            small = solve(bench.spec, mesh, bench.solver_options())
        scale = np.max(np.abs(default.coeffs))
        assert np.max(np.abs(small.coeffs - default.coeffs)) <= 1e-13 * scale


def test_history_takes_a_kernel_seam_as_the_limit_from_inside():
    # ex6's kernel jumps at the breakpoints 0.5 and 1.0; an element ending
    # there must see its own piece of the kernel, so giving the jump points
    # to the piece on their left (< to <=) leaves the history unchanged
    b = make_benchmark("ex6")

    def kamp_closed(t, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                s <= 0.5,
                t**2 - s + 5.0,
                np.where(s <= 1.0, np.exp(s * t) + 4.0 / (s + 1.0) - 2.0, t / s),
            )

    closed = dataclasses.replace(b.spec, kappa=kamp_closed)
    mesh = uniform_mesh(6, b.spec.T, 4)
    prior = np.linspace(1.0, 2.0, mesh.L)
    for n in range(2, mesh.N + 1):
        u = prior[: mesh.offsets[n - 1]]
        want = ElementOperator(b.spec, mesh, n, n).history(n, u)
        got = ElementOperator(closed, mesh, n, n).history(n, u)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_history_run_rejects_mixed_degrees_and_short_prior():
    # a run takes its degree from the operators of its stretch, which reject
    # mixed degrees; elements outside those operators raise, as does a prior
    # without the Lobatto values of every earlier element
    p = _identity_problem(0.5, 1.0, lambda t: np.asarray(t, dtype=float))
    m = Mesh(np.linspace(0.0, 1.0, 4), [2, 2, 3])
    with pytest.raises(ValueError):
        ElementOperator(p, m, 2, 3)
    ops = ElementOperator(p, m, 1, 2)
    with pytest.raises(IndexError):
        HistoryRun(ops, 2, 3, _prior(m, [1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        HistoryRun(ops, 2, 2, np.empty(0))


def test_solve_store_matches_list_march():
    # solve fills its buffer of Lobatto values as it marches; marching
    # ElementOperator from Lobatto values rebuilt from the solved
    # coefficients must give the same coefficients.
    cases = [
        (make_benchmark("ex2"), uniform_mesh(64, 1.0, 2)),
        (make_benchmark("ex3"), Mesh(np.linspace(0.0, 1.0, 7), [2, 4, 2, 3, 4, 2])),
    ]
    for bench, mesh in cases:
        options = bench.solver_options()
        sol = solve(bench.spec, mesh, options)
        prior = _prior(mesh, *(sol.coefficients(n) for n in range(1, mesh.N + 1)))
        for n in range(1, mesh.N + 1):
            op = ElementOperator(bench.spec, mesh, n, n)
            prior_u = prior[: mesh.offsets[n - 1]]
            dim = mesh.degrees[n - 1] + 1
            if bench.spec.linear:
                A = op.jacobian(n, np.zeros(dim))
                coeffs = np.linalg.solve(A, op.rhs(n) - op.history(n, prior_u))
            else:
                warm = np.zeros(dim)
                if n == 1:
                    warm[0] = options.init_constant
                else:
                    prev = sol.coefficients(n - 1)
                    warm[: min(dim, prev.size)] = prev[:dim]
                residual = _element_residual(op, n, prior_u)
                coeffs = newton(residual, lambda c: op.jacobian(n, c), warm, options, n=n)
            mine = sol.coefficients(n)
            assert np.max(np.abs(coeffs - mine)) <= 1e-14 * np.max(np.abs(mine))


def test_weight_calls_stay_causal(monkeypatch):
    # history_weights_batch does not check t >= right: such a row would hold
    # the weights at t = right.  Every call a solve makes must ask only for
    # times at or past the end of each element: on the gap table of a uniform
    # mesh, on a graded mesh of mixed degrees and on a mesh of several runs
    real = abelhp.discretization.history_weights_batch
    rows = []

    def causal(lefts, rights, degree, t, alpha):
        t, rights = np.asarray(t), np.asarray(rights)
        assert np.all(t >= rights), (t, rights)
        rows.append(np.broadcast(t, rights).size)
        return real(lefts, rights, degree, t, alpha)

    monkeypatch.setattr(abelhp.discretization, "history_weights_batch", causal)
    ex2, ex3 = make_benchmark("ex2"), make_benchmark("ex3")
    uniform = uniform_mesh(128, 1.0, 1)
    assert abelhp.discretization._gap_table(uniform, ex2.spec.alpha) is not None
    bp = np.linspace(0.0, 1.0, 121)
    bp[17] += 1e-9  # off the uniform grid, so each run makes its own calls
    runs = Mesh(bp, np.full(120, 2))
    assert any(n1 > n0 > 1 for n0, n1 in history_runs(runs))
    for bench, mesh in ((ex2, uniform), (ex3, _graded_stretches()), (ex3, runs)):
        rows.clear()
        solve(bench.spec, mesh, bench.solver_options())
        assert rows

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, gammainc

import abelhp.bench as bench
import abelhp.discretization
import abelhp.solver
from abelhp.discretization import (
    ProblemAssumptionWarning,
    ProblemSpec,
    history_runs,
    operator_stretches,
)
from abelhp.mesh import Mesh, locate, uniform_mesh
from abelhp.solver import (
    NewtonDivergedError,
    SingularJacobianError,
    SolverError,
    SolverOptions,
    evaluate,
    forward_apply,
    newton,
    solve,
    steepest_descent_init,
)

from oracles import evaluate_by_degree, linear_march_by_element, newton_by_halving


def _ones(t, s):
    return np.ones_like(np.asarray(s, dtype=float) + t)


def test_newton_affine_one_step():
    a = np.array([1.0, -2.0, 0.5])
    res = lambda u: u - a
    jac = lambda u: np.eye(3)
    out = newton(res, jac, np.zeros(3), SolverOptions())
    assert out == pytest.approx(a, abs=1e-14)


def test_newton_scalar_square_root():
    res = lambda u: u * u - 4.0
    jac = lambda u: np.atleast_2d(2.0 * u)
    out = newton(res, jac, np.array([3.0]), SolverOptions(newton_max_iter=6))
    assert out[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_singular_jacobian():
    # derivative of u^3 vanishes at the starting point
    res = lambda u: u**3 - 1.0
    jac = lambda u: np.atleast_2d(3.0 * u**2)
    with pytest.raises(SingularJacobianError) as err:
        newton(res, jac, np.array([0.0]), SolverOptions())
    assert err.value.iteration == 0


def test_newton_divergence_reports_norm():
    res = lambda u: np.arctan(u) - 2.0  # no root
    jac = lambda u: np.atleast_2d(1.0 / (1.0 + u**2))
    with pytest.raises(NewtonDivergedError) as err:
        newton(res, jac, np.array([0.0]), SolverOptions(newton_max_iter=10))
    assert np.isfinite(err.value.last_residual_norm)


def test_newton_backtracks_from_non_finite_residual():
    # from u = 9 the full step lands at u = -3, where sqrt gives NaN: the
    # step is halved instead, silently, and Newton still reaches the root
    res = lambda u: np.sqrt(u) - 1.0
    jac = lambda u: np.atleast_2d(0.5 / np.sqrt(u))
    out = newton(res, jac, np.array([9.0]), SolverOptions())
    assert out[0] == pytest.approx(1.0, abs=1e-12)

    # a start where the residual is NaN has nothing to backtrack to
    with pytest.raises(NewtonDivergedError) as err:
        newton(res, jac, np.array([-1.0]), SolverOptions())
    assert err.value.last_residual_norm == np.inf


def test_descent_zero_steps_returns_warm_start():
    warm = np.array([1.0, 2.0])
    out = steepest_descent_init(lambda u: u, lambda u: np.eye(2), 2, warm, steps=0)
    assert np.array_equal(out, warm)


def test_descent_monotone_on_affine_residual():
    rng = np.random.default_rng(4)
    A = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
    b = rng.uniform(-1, 1, 3)
    res = lambda u: u @ A.T - b  # maps a stack of candidates row by row
    jac = lambda u: A
    out = steepest_descent_init(res, jac, 3, steps=100, step_size=1e-2)
    assert 0.5 * np.sum(res(out) ** 2) < 0.5 * np.sum(b**2)


def _recording(fn, seen):
    """``fn`` that also appends a copy of each argument to ``seen``."""

    def wrapped(u):
        seen.append(np.array(u))
        return fn(u)

    return wrapped


def test_newton_matches_sequential_halving():
    # the stacked line search takes the first passing halving, as trying them
    # one at a time does: the same iterates (the points where the Jacobian is
    # taken) and the same root, on residuals that need up to 15 halvings and
    # on residuals whose first trial rows overflow or are NaN
    A = np.array([[2.0, 0.5, 0.0], [0.3, 1.5, -0.2], [0.0, -0.4, 1.0]])
    c = np.array([1.0, 2.0, 0.5])
    cases = [
        # arctan flattens far from its root, so full steps overshoot wildly
        (lambda u: np.arctan(u) - 0.5, lambda u: np.atleast_2d(1.0 / (1.0 + u**2)),
         np.array([1e3])),
        # from exp(A u) = exp(-12) the full steps overflow exp
        (lambda u: np.exp(u @ A.T) - c, lambda u: np.exp(A @ u)[:, None] * A,
         np.linalg.solve(A, np.full(3, -12.0))),
        # log of a negative trial is NaN
        (lambda u: np.log(u) - c, lambda u: np.diag(1.0 / u), np.array([1e4, 50.0, 3.0])),
        # from 2 the first halving passes, though the second decreases more
        (lambda u: np.arctan(u), lambda u: np.atleast_2d(1.0 / (1.0 + u**2)), np.array([2.0])),
    ]
    options = SolverOptions()
    calls_stacked, calls_single = [], []
    for res, jac, init in cases:
        seen_stacked, seen_single = [], []
        got = newton(_recording(res, calls_stacked), _recording(jac, seen_stacked), init, options)
        want = newton_by_halving(
            _recording(res, calls_single), _recording(jac, seen_single), init, options
        )
        assert want is not None
        assert len(seen_stacked) == len(seen_single) > 3
        for a, b in zip(seen_stacked + [got], seen_single + [want]):
            assert np.max(np.abs(a - b)) <= 1e-14 * max(np.max(np.abs(b)), 1.0)
    assert len(calls_single) >= len(calls_stacked) + 20


def test_newton_rejected_step_costs_one_stacked_call():
    # from u = 9 the full step lands on NaN; the halvings are one more call
    shapes = []

    def res(u):
        shapes.append(u.shape)
        return np.sqrt(u) - 1.0

    out = newton(res, lambda u: np.atleast_2d(0.5 / np.sqrt(u)), np.array([9.0]), SolverOptions())
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert shapes[:4] == [(1,), (1,), (19, 1), (1,)]
    assert all(shape in ((1,), (19, 1)) for shape in shapes)


def test_descent_takes_the_first_decreasing_step():
    # with r = u - a the trial u - s r leaves (1 - s) r: steps 15, 7.5 and
    # 3.75 increase the merit and 1.875 is the first to decrease it, though
    # the smaller 0.9375 would decrease it more
    a = np.array([1.0, -2.0, 0.5])
    u0 = np.array([3.0, 1.0, -1.0])
    res, jac = lambda u: u - a, lambda u: np.eye(3)
    out = steepest_descent_init(res, jac, 3, u0, steps=1, step_size=15.0)
    assert np.array_equal(out, u0 - 1.875 * (u0 - a))


def test_residual_of_wrong_shape_names_the_stack_contract():
    # right for one vector, flat for a stack: the first rejected full step,
    # whose halvings go in as a stack, finds it out
    res = lambda u: np.ravel(u * u - 4.0)
    jac = lambda u: np.diag(2.0 * u)
    with pytest.raises(ValueError, match=r"\(K, dim\) stack row by row"):
        newton(res, jac, np.array([0.1, 3.0]), SolverOptions())
    with pytest.raises(ValueError, match=r"\(K, dim\) stack row by row"):
        steepest_descent_init(res, jac, 2, np.array([1.0, 3.0]), step_size=10.0)


def test_descent_stationary_start_returns_zero():
    res = lambda u: u * u - 1.0
    jac = lambda u: np.atleast_2d(2.0 * u)
    out = steepest_descent_init(res, jac, 1)
    assert np.array_equal(out, np.zeros(1))


def test_linear_flag_matches_newton_path():
    for pid in ("ex2", "ex4"):
        b = bench.make_benchmark(pid)
        mesh = uniform_mesh(4, 1.0, 3)
        direct = solve(b.spec, mesh)
        import dataclasses

        newton_path = solve(dataclasses.replace(b.spec, linear=False), mesh)
        for n in range(1, mesh.N + 1):
            e1, e2 = direct.coefficients(n), newton_path.coefficients(n)
            assert np.max(np.abs(e1 - e2)) < 1e-11


def test_manufactured_cubic_nonlinearity():
    exact = lambda s: np.asarray(s, dtype=float)
    spec = ProblemSpec(
        alpha=0.5,
        T=1.0,
        kappa=_ones,
        psi=lambda t, s, u: u**3,
        dpsi_du=lambda t, s, u: 3.0 * u**2,
        f=lambda t: forward_apply(_cubic_spec(), exact, t),
    )
    sol = solve(spec, uniform_mesh(2, 1.0, 4), SolverOptions(init_constant=0.5))
    ts = np.linspace(0.01, 1.0, 41)
    assert np.max(np.abs(evaluate(sol, ts) - exact(ts))) < 1e-8


def _cubic_spec():
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        kappa=_ones,
        psi=lambda t, s, u: u**3,
        dpsi_du=lambda t, s, u: 3.0 * u**2,
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def test_evaluate_basics():
    b = bench.make_benchmark("ex4")
    mesh = uniform_mesh(2, 1.0, 3)
    sol = solve(b.spec, mesh)
    # constant-coefficient element evaluates to the constant
    sol.coefficients(1)[:] = [2.5, 0.0, 0.0, 0.0]
    assert evaluate(sol, 0.3) == pytest.approx(2.5)
    assert evaluate(sol, 0.0) == pytest.approx(2.5)  # limit into element 1
    with pytest.raises(ValueError):
        evaluate(sol, 1.5)
    with pytest.raises(ValueError):
        evaluate(sol, -0.1)


def test_evaluate_legendre_coefficients():
    b = bench.make_benchmark("ex4")
    mesh = uniform_mesh(1, 1.0, 3)
    sol = solve(b.spec, mesh)
    sol.coefficients(1)[:] = [0.5, 0.5, 0.0, 0.0]  # u(t) = t on [0, 1]
    assert evaluate(sol, 0.25) == pytest.approx(0.25, abs=1e-14)


def test_evaluate_matches_gauss_nodal_values():
    b = bench.make_benchmark("ex3")
    mesh = uniform_mesh(3, 1.0, 2)
    sol = solve(b.spec, mesh, b.solver_options())
    from abelhp.orthopoly import legendre_table
    from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule

    rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, 2)
    pts = _shift_rows(rule.nodes, mesh.breakpoints[1:2], mesh.breakpoints[2:3])[0]
    direct = sol.coefficients(2) @ legendre_table(2, rule.nodes)
    assert evaluate(sol, pts) == pytest.approx(direct, abs=1e-14)


def test_evaluate_gathers_mixed_degrees_in_blocks(monkeypatch):
    # unsorted points on an interleaved-degree mesh, with blocks small enough
    # that every degree's points span several, plus t = 0 and every element's
    # right endpoint, against the per-element Legendre sum
    from abelhp.orthopoly import legendre_table
    from abelhp.solver import PiecewiseSolution

    monkeypatch.setattr(abelhp.solver, "_EVAL_BLOCK", 1000)
    mesh = Mesh(np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.85, 1.0]), np.array([2, 4, 2, 3, 4, 2]))
    rng = np.random.default_rng(5)
    sol = PiecewiseSolution(mesh, np.concatenate(
        [rng.uniform(-1.0, 1.0, d + 1) for d in mesh.degrees]
    ))
    t = np.concatenate((rng.uniform(0.0, 1.0, 10_000), [0.0], mesh.breakpoints[1:]))
    rng.shuffle(t)

    idx = np.maximum(np.searchsorted(mesh.breakpoints, t, side="left"), 1)
    expected = np.empty_like(t)
    bp = mesh.breakpoints
    for n in range(1, mesh.N + 1):
        left, right, sel = bp[n - 1], bp[n], idx == n
        x = np.clip((2.0 * t[sel] - left - right) / (right - left), -1.0, 1.0)
        expected[sel] = sol.coefficients(n) @ legendre_table(mesh.degrees[n - 1], x)
    got = evaluate(sol, t)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))
    assert evaluate(sol, 0.0) == expected[t == 0.0][0]


def test_evaluate_block_sum_adds_terms_in_order_of_degree():
    # evaluation sums the (p, point) terms c_p P_p(x) of a block over p in one
    # call, which must add them in order of p as a loop does, bit for bit: on
    # one point, whose lone column numpy would sum pairwise, and on a full block
    from abelhp.solver import _EVAL_BLOCK, PiecewiseSolution, _evaluate_on

    rng = np.random.default_rng(17)
    for d in [*range(1, 25), 64]:
        mesh = uniform_mesh(5, 1.0, d)
        scales = 10.0 ** rng.integers(-8, 9, mesh.L)  # so that the order of the sum shows
        sol = PiecewiseSolution(mesh, rng.uniform(-1.0, 1.0, mesh.L) * scales)
        for size in (1, _EVAL_BLOCK // (d + 1)):
            t = 1.0 - rng.uniform(0.0, 1.0, size)
            elem_idx = locate(t, mesh) - 1
            got = _evaluate_on(sol, t, elem_idx)
            assert got.tobytes() == evaluate_by_degree(sol, t, elem_idx).tobytes(), (d, size)


def test_solution_coefficients_index_checked():
    # element n owns offsets[n-1]:offsets[n] of the flat array; n outside 1..N
    # raises instead of wrapping around to the last elements
    from abelhp.solver import PiecewiseSolution

    b = bench.make_benchmark("ex3")
    mesh = uniform_mesh(4, 1.0, 2)
    sol = solve(b.spec, mesh, b.solver_options())
    for n in (0, -1, mesh.N + 1):
        with pytest.raises(IndexError):
            sol.coefficients(n)
    sol.coefficients(mesh.N)[:] = 0.0
    assert np.array_equal(sol.coeffs[-3:], np.zeros(3))
    with pytest.raises(ValueError):
        PiecewiseSolution(mesh, np.zeros(mesh.L - 1))


def test_forward_apply_closed_forms():
    b = bench.make_benchmark("ex2")
    # identity nonlinearity, unit kernel
    spec = ProblemSpec(
        alpha=0.5,
        T=1.0,
        kappa=_ones,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        linear=True,
    )
    ones = lambda s: np.ones_like(np.asarray(s, dtype=float))
    for t in (0.2, 0.7, 1.0):
        assert forward_apply(spec, ones, t) == pytest.approx(2 * np.sqrt(t), rel=1e-11)
    cubic = lambda s: np.asarray(s, dtype=float) ** 3
    assert forward_apply(spec, cubic, 1.0) == pytest.approx(32.0 / 35.0, rel=1e-10)
    # callables may return scalars: u = 1 and kappa = 1 give t^alpha / alpha
    scalar = dataclasses.replace(spec, kappa=lambda t, s: 1.0)
    for t in (0.2, 1.0):
        for cuts in ((), (0.1,)):
            got = forward_apply(scalar, lambda s: 1.0, np.array([t, 0.5]), breakpoints=cuts)
            assert got[0] == pytest.approx(2.0 * np.sqrt(t), rel=1e-13)
            alone = [forward_apply(scalar, lambda s: 1.0, v, cuts) for v in (t, 0.5)]
            assert got.tolist() == alone
    # u = s^beta: the singular panel is split and the regular one refined
    # down to s = 0, where u is not smooth
    for beta in (0.5, 1.3):
        power = lambda s, beta=beta: np.asarray(s, dtype=float) ** beta
        for alpha in (0.3, 0.5, 0.8):
            spec_a = dataclasses.replace(spec, alpha=alpha)
            c = gamma(alpha) * gamma(beta + 1.0) / gamma(alpha + beta + 1.0)
            for t in (0.3, 1.0):
                assert forward_apply(spec_a, power, t) == pytest.approx(
                    c * t ** (alpha + beta), rel=1e-12
                )
    # reference pair: the registered linear problem reproduces its own f
    for t in (0.25, 0.5, 1.0):
        assert forward_apply(b.spec, b.exact, t) == pytest.approx(
            float(b.spec.f(t)), abs=1e-8
        )


def test_forward_apply_integral_through_zero():
    # int_0^t (t-s)^(alpha-1) (s - c) ds = t^alpha / alpha * (t / (alpha+1) - c)
    # vanishes at t = c (alpha + 1); the tolerance scales with the integral
    # of the absolute integrand, so it does not collapse there
    spec = ProblemSpec(
        alpha=0.3,
        T=1.0,
        kappa=_ones,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        linear=True,
    )
    u = lambda s: np.asarray(s, dtype=float) - 0.5
    assert abs(forward_apply(spec, u, 0.65)) <= 1e-12


def test_forward_apply_zero_time():
    b = bench.make_benchmark("ex2")
    assert forward_apply(b.spec, b.exact, 0.0) == 0.0


def test_causality():
    b = bench.make_benchmark("ex3")
    mesh = uniform_mesh(4, 1.0, 2)
    f0 = b.spec.f
    import dataclasses

    bump = lambda t: f0(t) + 1e-3 * (np.asarray(t, dtype=float) > 0.5)
    perturbed = dataclasses.replace(b.spec, f=bump)
    s_base = solve(b.spec, mesh, b.solver_options())
    s_pert = solve(perturbed, mesh, b.solver_options())
    for n in (0, 1):  # elements entirely before the perturbation
        assert np.array_equal(s_base.coefficients(n + 1), s_pert.coefficients(n + 1))
    assert not np.allclose(s_base.coefficients(3), s_pert.coefficients(3))


def test_polynomial_reproduction():
    # alpha = 1, polynomial kernel and data: every quadrature is exact and
    # the quadratic solution is reproduced to roundoff
    spec = ProblemSpec(
        alpha=1.0,
        T=1.0,
        kappa=lambda t, s: 1.0 + s,
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.asarray(t) ** 3 / 3.0 + np.asarray(t) ** 4 / 4.0,
        linear=True,
    )
    exact = lambda t: np.asarray(t, dtype=float) ** 2
    sol = solve(spec, uniform_mesh(3, 1.0, 3))
    ts = np.linspace(0.01, 1.0, 50)
    assert np.max(np.abs(evaluate(sol, ts) - exact(ts))) < 1e-10


def test_residual_audit_decreases_under_refinement():
    b = bench.make_benchmark("ex3")
    audits = []
    for N in (2, 4, 8):
        mesh = uniform_mesh(N, 1.0, 2)
        sol = solve(b.spec, mesh, b.solver_options())
        worst = 0.0
        from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule

        rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, 2)
        for pts in _shift_rows(rule.nodes, mesh.breakpoints[:-1], mesh.breakpoints[1:]):
            for t in pts:
                audit = forward_apply(
                    b.spec, lambda s: evaluate(sol, s), float(t),
                    breakpoints=mesh.breakpoints[1:-1],
                ) - float(b.spec.f(t))
                worst = max(worst, abs(audit))
        audits.append(worst)
    assert audits[1] < audits[0] and audits[2] < audits[1]


def test_forward_apply_nonconvergence_raises():
    from abelhp.solver import QuadratureConvergenceError

    b = bench.make_benchmark("ex2")
    rng = np.random.default_rng(0)
    noisy_u = lambda s: rng.normal(size=np.shape(s))
    with pytest.raises(QuadratureConvergenceError):
        forward_apply(b.spec, noisy_u, 0.9)
    # noise above s = 0.5 only: the batch fails on its one time past it
    noisy_late = lambda s: np.where(s > 0.5, rng.normal(size=np.shape(s)), 1.0)
    calm = forward_apply(b.spec, noisy_late, np.array([0.2, 0.4]))
    assert calm.tolist() == [forward_apply(b.spec, noisy_late, t) for t in (0.2, 0.4)]
    with pytest.raises(QuadratureConvergenceError):
        forward_apply(b.spec, noisy_late, np.array([0.2, 0.9, 0.4]))
    # a jump off the breakpoints keeps one panel per level rejected until
    # the depth limit of 40 levels, well inside the panel budget
    c = 0.3141592653589793
    jump = lambda s: np.where(s < c, 1.0, 2.0)
    with pytest.raises(QuadratureConvergenceError):
        forward_apply(b.spec, jump, np.array([0.2, 0.9]))
    cut = forward_apply(b.spec, jump, np.array([0.2, 0.9]), breakpoints=(c,))
    assert cut.tolist() == [forward_apply(b.spec, jump, t, breakpoints=(c,)) for t in (0.2, 0.9)]
    # with kappa = e^(s - t) the integral is gamma(1/2, t) + gamma(1/2, t - c)
    # past c, in lower incomplete gammas
    exact = gamma(0.5) * (gammainc(0.5, [0.2, 0.9]) + gammainc(0.5, [0.0, 0.9 - c]))
    assert cut == pytest.approx(exact, rel=1e-12)
    # edges 1e-4 apart around it keep the jump off the panel ends, so the
    # panel across it stays rejected until, at level 37, it is narrower than
    # 1e-15 * max(1, |b|) and is accepted as it is
    near = (c - 0.6180339887e-4, c + 0.3819660113e-4)
    narrow = forward_apply(b.spec, jump, np.array([0.2, 0.9]), breakpoints=near)
    assert narrow.tolist() == [forward_apply(b.spec, jump, t, near) for t in (0.2, 0.9)]
    assert narrow == pytest.approx(exact, rel=1e-12)


def _forward_cases():
    # 48 random times per case, and ex5's times on both sides of its breakpoint
    rng = np.random.default_rng(11)
    cases = [(bench.make_benchmark("ex1", alpha), rng.random(48)) for alpha in (0.3, 0.5, 0.7)]
    cases.append((bench.make_benchmark("ex4"), rng.random(48)))
    ex5_times = np.concatenate([[0.5, 0.5 + 1e-13, 1e-9, 1.0], rng.random(48)])
    cases.append((bench.make_benchmark("ex5"), ex5_times))
    return cases


def test_forward_apply_batch_equals_the_one_time_recursion():
    # every time of a batch gets the value of a call on that time alone, bit
    # for bit; ex5's breakpoint splits the times above it
    for b, times in _forward_cases():
        times = times[np.random.default_rng(3).permutation(times.size)]
        batch = forward_apply(b.spec, b.exact, times, breakpoints=b.mesh_hints)
        alone = [forward_apply(b.spec, b.exact, t, b.mesh_hints) for t in times.tolist()]
        assert batch.tolist() == alone, b.id


def test_forward_apply_kernel_power_of_t_is_within_one_ulp():
    # ex4's kappa squares t, and at this time numpy's t * t and libm's t**2
    # differ by 1 ulp; a batch and a call on one time both take kappa of the
    # same Python float, so they agree bit for bit
    b = bench.make_benchmark("ex4")
    t = 0.9484567938637256
    assert t**2 != t * t
    batch = forward_apply(b.spec, b.exact, np.array([t, 0.5 * t]))
    assert batch.tolist() == [forward_apply(b.spec, b.exact, v) for v in (t, 0.5 * t)]


def test_forward_apply_shapes():
    b = bench.make_benchmark("ex1", 0.5)
    lone = forward_apply(b.spec, b.exact, 0.25)
    assert isinstance(lone, float)
    assert isinstance(forward_apply(b.spec, b.exact, np.array(0.25)), float)
    assert forward_apply(b.spec, b.exact, np.array(0.25)) == lone
    grid = forward_apply(b.spec, b.exact, np.array([[0.25, 0.0], [-1.0, 0.25]]))
    assert grid.shape == (2, 2) and grid.tolist() == [[lone, 0.0], [0.0, lone]]
    for empty in (np.array([]), np.zeros((0, 3))):
        out = forward_apply(b.spec, b.exact, empty)
        assert out.shape == empty.shape and out.dtype == float
    assert forward_apply(b.spec, b.exact, -0.5) == 0.0


def test_forward_apply_panel_budget_is_per_time():
    # |sin(20 pi s)| has 18 kinks in (0, 0.9); the time takes over 500 of its
    # 4000 panels, so 8 copies would overrun one budget shared by the batch
    b = bench.make_benchmark("ex2")
    points = []

    def kinked(s):
        points.append(s.size)
        return np.abs(np.sin(20.0 * np.pi * s))

    lone = forward_apply(b.spec, kinked, 0.9)
    # the coarse pass evaluates 17 nodes on the one initial panel, and each
    # panel 16 + 32
    assert (sum(points) - 17) // 48 > 500
    assert forward_apply(b.spec, kinked, np.full(8, 0.9)).tolist() == [lone] * 8


def test_mixed_degree_mesh():
    # per-element degrees (9, 4) resolve the jump problem with 15 unknowns
    from abelhp.mesh import Mesh

    b5 = bench.make_benchmark("ex5")
    mesh = Mesh(np.array([0.0, 0.5, 1.0]), np.array([9, 4]))
    sol = solve(b5.spec, mesh, b5.solver_options())
    assert mesh.L == 15
    assert bench.error_E1(sol, b5.exact) < 1e-6


def test_geometric_mesh_solves():
    # elements down to 0.15^8 wide near t = 0; their history weights at later
    # times must pass the constant-sum check.  The error bounds are set by the
    # wide last element (0.15, 1].
    bp = np.array([0.0] + [0.15**k for k in range(8, 0, -1)] + [1.0])
    mesh = Mesh(bp, np.full(bp.size - 1, 4))
    for pid, alpha, bound in (("ex1", 0.3, 5e-4), ("ex2", None, 2e-3), ("ex3", None, 1e-9)):
        b = bench.make_benchmark(pid, alpha)
        sol = solve(b.spec, mesh, b.solver_options())
        assert bench.error_E2(sol, b.exact) < bound


def test_ex1_graded_meshes_start_from_the_implicitly_linear_solution():
    # psi'(u(0)) = 0 for ex1's u^2, so from a constant or previous-element
    # start Newton reaches a wrong root on graded meshes (E2 0.15-0.27) or
    # fails; from the implicitly linear solution the graded meshes resolve the
    # singularity at t = 0: equal degree 12 on the mesh above, and on the
    # sigma = 0.15 geometric meshes of n layers [0, sigma^n, ..., sigma, 1],
    # whose element j, counted from 0, has degree 1 + floor(0.75 j)
    b = bench.make_benchmark("ex1", 0.3)
    bp = np.array([0.0] + [0.15**k for k in range(8, 0, -1)] + [1.0])
    sol = solve(b.spec, Mesh(bp, np.full(bp.size - 1, 12)), b.solver_options())
    assert bench.error_E2(sol, b.exact) <= 1e-7
    for alpha in (0.3, 0.5, 0.7):
        b = bench.make_benchmark("ex1", alpha)
        for n in (12, 14):
            bp = np.concatenate([[0.0], 0.15 ** np.arange(n, -1, -1.0)])
            mesh = Mesh(bp, 1 + (0.75 * np.arange(n + 1)).astype(int))
            sol = solve(b.spec, mesh, b.solver_options())
            assert bench.error_E2(sol, b.exact) <= 1e-6, (alpha, n)


def test_implicitly_linear_start_saves_newton_steps(monkeypatch):
    # on one degree-12 element ex1 converges only linearly from a constant
    # start (13 Jacobians); the implicitly linear solution starts it close
    jacobians = []
    original = abelhp.discretization.ElementOperator.jacobian

    def counted(self, coeffs):
        jacobians.append(self.n)
        return original(self, coeffs)

    monkeypatch.setattr(abelhp.discretization.ElementOperator, "jacobian", counted)
    b = bench.make_benchmark("ex1", 0.3)
    solve(b.spec, Mesh([0.0, 1.0], [12]), b.solver_options())
    assert 1 <= len(jacobians) <= 5


def _count_calls(monkeypatch, name):
    """Wrap ``abelhp.solver.<name>`` and return the list its calls append to."""
    calls = []
    original = getattr(abelhp.solver, name)

    def wrapped(*args, **kwargs):
        calls.append(kwargs.get("n"))
        return original(*args, **kwargs)

    monkeypatch.setattr(abelhp.solver, name, wrapped)
    return calls


def test_newton_from_warm_start_needs_no_descent(monkeypatch):
    b = bench.make_benchmark("ex3")
    descents = _count_calls(monkeypatch, "steepest_descent_init")
    newtons = _count_calls(monkeypatch, "newton")
    sol = solve(b.spec, uniform_mesh(40, 1.0, 2), b.solver_options())
    assert descents == []
    assert newtons == list(range(1, 41))
    assert bench.error_E2(sol, b.exact) < 2e-6


@pytest.mark.filterwarnings("ignore::abelhp.discretization.ProblemAssumptionWarning")
def test_ex5_line_search_stays_stacked(monkeypatch):
    # ex5 N=8 M=8 fails Newton after many rejected steps; on the failing
    # element each Newton makes its first residual call and at most two per
    # Jacobian, however many halvings a rejected step tries
    calls = {"weighted_moments": 0, "jacobian": 0}
    for name in calls:
        original = getattr(abelhp.discretization.ElementOperator, name)

        def counted(self, coeffs, original=original, name=name):
            calls[name] += 1
            return original(self, coeffs)

        monkeypatch.setattr(abelhp.discretization.ElementOperator, name, counted)
    per_newton = []
    newton = abelhp.solver.newton

    def counted_newton(*args, **kwargs):
        res, jac = calls["weighted_moments"], calls["jacobian"]
        try:
            return newton(*args, **kwargs)
        finally:
            per_newton.append(
                (kwargs["n"], calls["weighted_moments"] - res, calls["jacobian"] - jac)
            )

    monkeypatch.setattr(abelhp.solver, "newton", counted_newton)
    b = bench.make_benchmark("ex5")
    with pytest.raises(NewtonDivergedError) as err:
        solve(b.spec, bench.mesh_for(b, 8, 8), b.solver_options())
    failing = [(res, jac) for n, res, jac in per_newton if n == err.value.n]
    assert len(failing) == 1  # from the warm start only: its error propagates
    for res, jac in failing:
        assert res <= 2 * jac + 1
    assert any(res > jac + 1 for res, jac in failing)  # some step was rejected


def test_failed_newton_propagates_from_its_first_try(monkeypatch):
    # one Newton from the warm start per element: its error is the solve's,
    # with no second start and no descent phase
    b = bench.make_benchmark("ex3")
    descents = _count_calls(monkeypatch, "steepest_descent_init")
    newtons = _count_calls(monkeypatch, "newton")
    with pytest.raises(NewtonDivergedError) as err:
        solve(b.spec, uniform_mesh(2, 1.0, 2), SolverOptions(newton_max_iter=1))
    assert err.value.n == 1
    assert newtons == [1]
    assert descents == []


def test_linear_solve_names_the_first_singular_element(monkeypatch):
    # kappa vanishes for t > 0.5, so the second half of a uniform mesh has
    # zero system matrices; a stretch's systems are inverted in one batched
    # call, which must still name the first of them wherever it sits in its
    # run and stretch: of eight degree-1 elements, element 5 opens its run
    # but is second in its stretch
    problem = ProblemSpec(
        alpha=0.5,
        T=1.0,
        kappa=lambda t, s: np.where(t + 0.0 * s > 0.5, 0.0, 1.0),
        psi=lambda t, s, u: u,
        dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
        f=lambda t: np.asarray(t, dtype=float),
        linear=True,
    )
    default = abelhp.discretization._HISTORY_BLOCK
    cases = [
        (uniform_mesh(4, 1.0, 2), 3, default, (1, 4), (1, 4)),
        (uniform_mesh(4, 1.0, 2), 3, 30, (1, 3), (1, 3)),
        (uniform_mesh(4, 1.0, 2), 3, 20, (3, 3), (3, 3)),
        (uniform_mesh(8, 1.0, 1), 5, 16, (5, 5), (4, 5)),
    ]
    for mesh, first, block, run, stretch in cases:
        monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
        assert [(n0, n1) for n0, n1 in history_runs(mesh) if n0 <= first <= n1] == [run]
        stretches = [(s[0][0], s[-1][1]) for s in operator_stretches(mesh)]
        assert [(n0, n1) for n0, n1 in stretches if n0 <= first <= n1] == [stretch]
        with pytest.warns(ProblemAssumptionWarning), pytest.raises(SingularJacobianError) as err:
            solve(problem, mesh)
        assert (err.value.n, err.value.iteration) == (first, 0)


@pytest.mark.parametrize("pid", ["ex2", "ex3"])
def test_non_finite_f_is_a_solver_error_naming_the_stretch(pid):
    # a linear solve returned NaN coefficients and a nonlinear one raised
    # NewtonDivergedError with residual inf, neither saying why
    b = bench.make_benchmark(pid)
    f = lambda t: np.where(np.asarray(t) > 0.5, np.nan, b.spec.f(t))
    spec = dataclasses.replace(b.spec, f=f)
    mesh = uniform_mesh(4, 1.0, 2)
    with pytest.raises(SolverError) as err:
        solve(spec, mesh)
    assert type(err.value) is SolverError
    assert "f is not finite at the Gauss nodes of elements 1..4" in str(err.value)
    row = bench.run_mesh(dataclasses.replace(b, spec=spec), mesh)
    assert row.failed and row.error == str(err.value)


def test_linear_runs_match_the_per_element_march(monkeypatch):
    # each linear run is solved by one forward substitution over its near
    # matrix; the per-element march it replaced must agree: on a gap-table
    # mesh of several runs, graded mixed-degree meshes, a one-element mesh,
    # a mesh whose runs are one element each, and ex4
    ex2, ex4 = bench.make_benchmark("ex2"), bench.make_benchmark("ex4")
    degrees = np.repeat(np.arange(1, 9), 3)
    graded = Mesh(np.concatenate([[0.0], 0.6 ** np.arange(degrees.size - 1, -1, -1)]), degrees)
    several = bench.mesh_for(ex2, 300, 2)
    assert abelhp.discretization._gap_table(several, ex2.spec.alpha) is not None
    assert len(history_runs(several)) > 1
    default = abelhp.discretization._HISTORY_BLOCK
    cases = [
        (ex2, several, default),
        (ex2, graded, default),
        (ex4, graded, default),
        (ex2, uniform_mesh(1, 1.0, 3), default),
        (ex4, uniform_mesh(12, 1.0, 3), 1),
        (ex4, bench.mesh_for(ex4, 200, 3), default),
    ]
    for b, mesh, block in cases:
        monkeypatch.setattr(abelhp.discretization, "_HISTORY_BLOCK", block)
        if block == 1:
            assert all(n0 == n1 for n0, n1 in history_runs(mesh))
        got = solve(b.spec, mesh).coeffs
        want = linear_march_by_element(b.spec, mesh)
        assert np.max(np.abs(got - want)) <= 5e-13 * np.max(np.abs(want))


def test_linear_solve_never_calls_at_nodes(monkeypatch):
    # a linear run takes its near sums from one matrix, not element by
    # element; the nonlinear march still does, which shows the patch bites
    def refuse(self, n, lobatto_u):
        raise AssertionError("HistoryRun.at_nodes called")

    monkeypatch.setattr(abelhp.discretization.HistoryRun, "at_nodes", refuse)
    ex2, ex3 = bench.make_benchmark("ex2"), bench.make_benchmark("ex3")
    for mesh in (bench.mesh_for(ex2, 300, 2), uniform_mesh(8, 1.0, 3)):
        solve(ex2.spec, mesh)
    with pytest.raises(AssertionError, match="at_nodes"):
        solve(ex3.spec, uniform_mesh(8, 1.0, 3), ex3.solver_options())


def test_solve_memory_stays_bounded():
    # history is assembled in runs, and operators built in stretches of runs,
    # whose temporaries the module constant discretization._HISTORY_BLOCK
    # bounds, whatever the mesh size.  At degree 16 one operator stack for the
    # 160 elements would hold 160 * 17^3 doubles, 6 MiB
    for name, N, M in (("ex2", 2048, 2), ("ex3", 200, 9), ("ex2", 160, 17)):
        b = bench.make_benchmark(name)
        mesh = bench.mesh_for(b, N, M)
        tracemalloc.start()
        try:
            solve(b.spec, mesh, b.solver_options())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(newton_max_iter=0)
    # NaN compares False with everything, so "<= 0" checks let it through
    for bad in (
        {"newton_tol": float("nan")},
        {"init_constant": float("nan")},
    ):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    # counts must be integers: a float reached range() inside newton, and a
    # bool would pass for 0 or 1
    for bad in (
        {"newton_max_iter": 2.5},
        {"newton_max_iter": 3.0},
        {"newton_max_iter": True},
    ):
        with pytest.raises(TypeError):
            SolverOptions(**bad)
    SolverOptions(newton_max_iter=np.int64(3))
    # the descent options are gone: setting one is an error, not a no-op
    for gone in ("descent_steps", "descent_step_size"):
        with pytest.raises(TypeError, match=gone):
            SolverOptions(**{gone: 1})

import dataclasses
import json
import math

import numpy as np
import pytest

import abelhp.bench as bench
import abelhp.discretization
import abelhp.problems as problems
from abelhp.bench import forward_apply
from abelhp.mesh import Mesh, uniform_mesh
from abelhp.quadrature import HistoryAccuracyError
from abelhp.solver import SolverError, evaluate, solve

from oracles import ex1_closed_form_rhs, legendre_l2_projection


def test_error_E1_trivial_and_constant():
    b = bench.make_benchmark("ex4")
    mesh = uniform_mesh(3, 1.0, 2)
    sol = solve(b.spec, mesh)
    assert bench.error_E1(sol, lambda t: evaluate(sol, t)) == pytest.approx(0.0, abs=1e-14)
    shifted = lambda t: evaluate(sol, t) + 0.25
    assert bench.error_E1(sol, shifted) == pytest.approx(0.25, rel=1e-12)


def test_error_E1_single_mode_norm():
    # difference equal to the degree-1 shifted Legendre mode on [0, 1]
    b = bench.make_benchmark("ex4")
    sol = solve(b.spec, uniform_mesh(1, 1.0, 3))
    mode = lambda t: evaluate(sol, t) + (2.0 * np.asarray(t) - 1.0)
    assert bench.error_E1(sol, mode) == pytest.approx(0.5773502691896257, rel=1e-12)


def _e2_grid(mesh):
    """error_E2's points: E2_SAMPLES per element, the last one at its right end."""
    i = np.arange(bench.E2_SAMPLES) + 0.5
    pts = mesh.breakpoints[:-1, None] + mesh.widths[:, None] * i / (bench.E2_SAMPLES - 0.5)
    return pts.ravel()


def test_error_E2_values():
    b = bench.make_benchmark("ex4")
    sol = solve(b.spec, uniform_mesh(2, 1.0, 2))
    # E2 sums the solution from a per-degree table, evaluate point by point
    u_max = np.max(np.abs(evaluate(sol, _e2_grid(sol.mesh))))
    assert bench.error_E2(sol, lambda t: evaluate(sol, t)) <= 4 * np.finfo(float).eps * u_max
    ramp = lambda t: evaluate(sol, t) + np.asarray(t, dtype=float)
    assert bench.error_E2(sol, ramp) == pytest.approx(1.0, rel=1e-3)


def test_error_metrics_broadcast_a_scalar_exact_fn():
    # an exact_fn that returns one number for all points, as error_E1 takes it
    b = bench.make_benchmark("ex3")
    sol = solve(b.spec, uniform_mesh(4, 1.0, 2), b.solver_options())
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    for error in (bench.error_E1, bench.error_E2):
        assert error(sol, lambda t: 0.0) == error(sol, zero) > 0.0


@pytest.mark.parametrize("case", ["mixed", "degree23", "blocks"])
def test_error_E2_matches_per_point_evaluation(case):
    # E2's table path against evaluate at each grid point: on interleaved
    # degrees, on one element of ex1 p_first's top degree, and on more
    # elements than one block of the grid, whose blocks cut across degrees
    from abelhp.mesh import Mesh

    if case == "mixed":
        b = bench.make_benchmark("ex3")
        mesh = Mesh(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9)]),
                    [1, 3, 2, 5, 1, 8, 2, 4, 6])
    elif case == "degree23":
        b = bench.make_benchmark("ex1", 0.3)
        mesh = uniform_mesh(1, 1.0, 23)
    else:
        b = bench.make_benchmark("ex2")
        mesh = Mesh(np.linspace(0.0, 1.0, 601), np.tile([1, 2, 2], 200))
    sol = solve(b.spec, mesh, b.solver_options())
    pts = _e2_grid(mesh)
    u = evaluate(sol, pts)
    per_point = np.max(np.abs(b.exact(pts) - u))
    got = bench.error_E2(sol, b.exact)
    assert abs(got - per_point) <= 4 * np.finfo(float).eps * np.max(np.abs(u))
    # a NaN anywhere on the grid, here in its last element, makes E2 NaN
    assert np.isnan(bench.error_E2(sol, lambda t: np.where(t > mesh.breakpoints[-2], np.nan, t)))


def test_error_E1_two_path_consistency():
    # independent path: numpy's Gauss nodes plus direct coefficient sums
    from numpy.polynomial.legendre import leggauss, legval

    b = bench.make_benchmark("ex3")
    mesh = uniform_mesh(4, 1.0, 3)
    sol = solve(b.spec, mesh, b.solver_options())
    total = 0.0
    bp = mesh.breakpoints
    for n in range(1, mesh.N + 1):
        left, right = bp[n - 1], bp[n]
        x, w = leggauss(mesh.degrees[n - 1] + 1)
        pts = 0.5 * ((right - left) * x + left + right)
        approx = legval(x, sol.coefficients(n))
        diff = b.exact(pts) - approx
        total += 0.5 * (right - left) * float(w @ diff**2)
    assert bench.error_E1(sol, b.exact) == pytest.approx(np.sqrt(total), abs=1e-12)


def test_error_E1_matches_per_element_loop():
    # E1 gathers Gauss points per degree group; the per-element loop it
    # replaced must give the same bits, here on interleaved degrees
    from abelhp.mesh import Mesh
    from abelhp.quadrature import RuleKind, _shift_rows, gauss_rule

    b = bench.make_benchmark("ex3")
    mesh = Mesh(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9)]), [1, 3, 2, 5, 1, 8, 2, 4, 6])
    sol = solve(b.spec, mesh, b.solver_options())
    pts, wts = [], []
    for left, right, d in zip(mesh.breakpoints[:-1], mesh.breakpoints[1:], mesh.degrees):
        rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, d)
        pts.append(_shift_rows(rule.nodes, np.array([left]), np.array([right]))[0])
        wts.append(0.5 * (right - left) * rule.weights)
    pts = np.concatenate(pts)
    diff = b.exact(pts) - evaluate(sol, pts)
    assert bench.error_E1(sol, b.exact) == np.sqrt(float(np.concatenate(wts) @ diff**2))


def test_convergence_order():
    assert bench.convergence_order(4e-3, 1e-3) == pytest.approx(2.0)
    assert bench.convergence_order(7.09e-7, 1.99e-7) == pytest.approx(1.833, abs=1e-3)
    assert bench.convergence_order(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        bench.convergence_order(0.0, 1e-3)
    # invariant under common rescaling of both errors
    assert bench.convergence_order(3e-4, 7e-5) == pytest.approx(
        bench.convergence_order(3e-9, 7e-10)
    )


def test_convergence_order_refuses_non_finite_errors():
    # a NaN fails the positivity test too, which inf passes
    for pair in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match=f"positive and finite.*got {pair[0]} and {pair[1]}"):
            bench.convergence_order(*pair)


def test_perturb_rhs():
    b = bench.make_benchmark("ex2")
    same = bench.perturb_rhs(b.spec, 0.0)
    mesh = uniform_mesh(4, 1.0, 1)
    assert np.array_equal(
        solve(same, mesh).coefficients(3), solve(b.spec, mesh).coefficients(3)
    )
    assert bench.parse_noise("h^2.5", 1.0 / 32.0) == pytest.approx(1.7263349150062197e-4)
    assert bench.parse_noise("h^2.5", 1.0 / 2048.0) == pytest.approx(5.268356063861754e-9)
    assert bench.parse_noise(1e-5, 0.1) == 1e-5
    with pytest.raises(ValueError):
        bench.perturb_rhs(b.spec, -1.0)


def test_noise_must_be_finite_and_nonnegative():
    b = bench.make_benchmark("ex2")
    for bad in (math.nan, math.inf, -1e-3):
        with pytest.raises(ValueError):
            bench.perturb_rhs(b.spec, bad)
        for spec in (bad, str(bad)):
            with pytest.raises(ValueError):
                bench.parse_noise(spec, 0.25)
    # a power of h is checked once it is taken: h^-1 is legal, h^nan is not
    assert bench.parse_noise("h^-1", 0.25) == 4.0
    with pytest.raises(ValueError):
        bench.parse_noise("h^nan", 0.25)


def test_noise_response_is_tame():
    # the max-norm gap between clean and noisy solutions stays O(delta^0.8)
    b = bench.make_benchmark("ex2")
    for N in (32, 64):
        delta = (1.0 / N) ** 2.5
        mesh = uniform_mesh(N, 1.0, 1)
        clean = solve(b.spec, mesh)
        noisy = solve(bench.perturb_rhs(b.spec, delta), mesh)
        gap = bench.error_E2(noisy, lambda t: evaluate(clean, t))
        assert gap / delta**0.8 < 10.0


def test_make_benchmark_registry():
    assert set(problems.PROBLEM_IDS) == {
        "ex1_singular", "ex2_plato", "ex3_branca",
        "ex4_liu", "ex5_discontinuous", "ex6_unknown",
    }
    with pytest.raises(ValueError):
        problems.make_benchmark("ex7")
    with pytest.raises(ValueError):
        problems.make_benchmark("ex1")  # alpha required
    with pytest.raises(ValueError):
        problems.make_benchmark("ex3", alpha=0.5)  # fixed-alpha problem
    b6 = problems.make_benchmark("ex6")
    assert b6.exact is None and b6.mesh_hints == (0.5, 1.0)
    for pid in ("ex2", "ex3", "ex4", "ex5"):
        assert problems.make_benchmark(pid).exact is not None
    assert problems.make_benchmark("ex1", alpha=0.4).exact is not None


def test_benchmark_closed_form_values():
    b3 = bench.make_benchmark("ex3")
    assert float(b3.spec.f(1.0)) == pytest.approx(32.0 / 45045.0 * (1287 + 1144 + 960))
    b2 = bench.make_benchmark("ex2")
    assert float(b2.spec.f(0.0)) == 0.0
    assert float(b2.exact(0.0)) == 0.0
    b4 = bench.make_benchmark("ex4")
    assert forward_apply(b4.spec, b4.exact, 0.5) == pytest.approx(
        float(b4.spec.f(0.5)), rel=1e-10
    )


def test_ex1_rhs_series_against_mpmath_closed_form():
    # at alpha = 0.3 scipy's hyp1f1 (oracles.ex1_closed_form_rhs) is 1.8e-14 off,
    # and the 30-digit mp.quad of test_ex1_manufactured_rhs_against_independent_oracles
    # 7e-11 at t = 0.5, so the judge is mpmath's hyp1f1 at 40 digits
    import mpmath as mp

    times = np.concatenate([np.random.default_rng(4).random(200), [1e-9, 2.6e-7, 0.5, 1.0]])
    for alpha in (0.3, 0.5, 0.7):
        f = bench.make_benchmark("ex1", alpha).spec.f
        assert f(np.array([0.0, -0.5])).tolist() == [0.0, 0.0]
        got = f(times)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            c = mp.beta(a, 3 + 2 * a)
            for t, value in zip(times.tolist(), got.tolist()):
                t = mp.mpf(t)
                ref = c * t ** (2 + 3 * a) * mp.hyp1f1(3 + 2 * a, 3 + 3 * a, t**2)
                assert abs(value - ref) <= 2e-15 * ref, (alpha, float(t))


def test_ex5_rhs_series_against_mpmath_quadrature():
    import mpmath as mp

    times = np.concatenate([[0.5, 0.5 + 1e-13, 1.0, 1e-9], np.random.default_rng(6).random(40)])
    f = bench.make_benchmark("ex5").spec.f
    assert f(np.array([0.0, -0.5])).tolist() == [0.0, 0.0]
    got = f(times)
    with mp.workdps(30):
        alpha, half = mp.mpf(0.8), mp.mpf(0.5)
        for t, value in zip(times.tolist(), got.tolist()):
            # in sigma = t - s, so that nodes near s = t do not round onto it
            t = mp.mpf(t)
            kernel = lambda x: x ** (alpha - 1) * mp.sin(x)
            jump = max(t - half, 0)
            ref = mp.quad(lambda x: kernel(x) * mp.exp(-5 * (t - x)), [jump, t])
            if t > half:
                ref += mp.quad(lambda x: kernel(x) * (2 - (t - x) ** 2) ** 5, [0, jump])
            assert abs(value - ref) <= 1e-14 * ref, float(t)


def test_registered_problems_solve_without_forward_apply(monkeypatch):
    # every registered f is closed form: no solve reaches the quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("forward_apply called")

    monkeypatch.setattr(bench, "forward_apply", refuse)
    for b in [bench.make_benchmark("ex1", alpha) for alpha in (0.3, 0.5, 0.7)]:
        sol = solve(b.spec, uniform_mesh(4, 1.0, 3), b.solver_options())
        assert bench.error_E2(sol, b.exact) < 2e-3
    b5 = bench.make_benchmark("ex5")
    sol = solve(b5.spec, bench.mesh_for(b5, 2, 10), b5.solver_options())
    assert bench.error_E2(sol, b5.exact) < 1e-6


def test_ex1_manufactured_rhs_against_independent_oracles():
    import mpmath as mp

    alpha = 0.3
    b1 = bench.make_benchmark("ex1", alpha=alpha)
    closed = ex1_closed_form_rhs(alpha)
    with mp.workdps(30):
        direct = mp.quad(
            lambda s: (mp.mpf(0.5) - s) ** (alpha - 1.0)
            * mp.e ** (0.5 * s)
            * (s ** (1.0 + alpha)) ** 2,
            [0, 0.25, 0.5],
        )
    mine = float(b1.spec.f(0.5))
    assert mine == pytest.approx(float(direct), abs=1e-9)
    assert mine == pytest.approx(float(closed(0.5)), rel=1e-9)


def test_ex5_exact_is_left_continuous():
    b5 = bench.make_benchmark("ex5")
    assert float(b5.exact(0.5)) == pytest.approx(np.exp(-0.5))
    assert float(b5.exact(0.5 + 1e-12)) == pytest.approx(2.0 - 0.25, rel=1e-9)


def test_history_projection_matches_quadrature_oracle():
    # project oracle-integrated history values through an independent Gauss
    # code path; the residual gap is the interpolation error of the smooth
    # kernel factor at degree 5 (the solution factor is already polynomial)
    from numpy.polynomial.legendre import leggauss, legvander
    from scipy.integrate import quad

    b2 = bench.make_benchmark("ex2")
    mesh = uniform_mesh(2, 1.0, 5)
    sol = solve(b2.spec, mesh)
    from abelhp.discretization import ElementOperator
    from abelhp.solver import _lobatto_values

    op = ElementOperator(b2.spec, mesh, 2, 2)
    got = op.history(2, _lobatto_values(sol.coefficients(1), 5))
    u1 = lambda s: evaluate(sol, s)
    x, w = leggauss(6)
    pts = 0.75 + 0.25 * x  # Gauss points of element 2, [0.5, 1]
    hist = np.array(
        [
            quad(
                lambda s, t=t: (t - s) ** (-0.5) * np.exp(s - t) * u1(s),
                0.0, 0.5, epsabs=1e-13, epsrel=1e-13, limit=200,
            )[0]
            for t in pts
        ]
    )
    oracle = (2 * np.arange(6) + 1) / 2.0 * (legvander(x, 5).T @ (w * hist))
    assert got == pytest.approx(oracle, abs=5e-6)


def test_run_sweep_basics():
    report = bench.run_sweep(bench.make_benchmark("ex3"), [])
    assert report.rows == [] and not report.any_failed

    report = bench.run_sweep(bench.make_benchmark("ex3"), [(2, 3), (4, 3)])
    assert [r.N for r in report.rows] == [2, 4]
    assert report.rows[0].rho_N is None
    assert report.rows[1].rho_N == pytest.approx(
        np.log2(report.rows[0].E2 / report.rows[1].E2)
    )
    assert all(r.L == r.N * 3 for r in report.rows)
    # deterministic error columns
    again = bench.run_sweep(bench.make_benchmark("ex3"), [(2, 3), (4, 3)])
    assert [r.E1 for r in again.rows] == [r.E1 for r in report.rows]


def test_run_sweep_takes_no_order_of_non_finite_errors():
    # convergence_order refuses them; the sweep leaves rho_N empty instead
    b = bench.make_benchmark("ex3")
    for value in (np.nan, np.inf):
        bad = dataclasses.replace(b, exact=lambda t, v=value: np.full(np.shape(t), v))
        report = bench.run_sweep(bad, [(2, 3), (4, 3)])
        assert not report.any_failed
        assert [r.rho_N for r in report.rows] == [None, None]


def test_run_sweep_marks_failed_rows_and_continues():
    b = bench.make_benchmark("ex3")
    # an absurd iteration budget forces a divergence failure
    bad = dataclasses.replace(b)
    report = bench.run_sweep(
        bad, [(2, 3), (4, 3)],
        options=bench.SolverOptions(newton_max_iter=1),
    )
    assert report.any_failed
    assert all(r.failed for r in report.rows)
    assert all(r.error for r in report.rows)


def test_run_mesh_marks_history_failure(monkeypatch):
    def reject(*args):
        raise HistoryAccuracyError("rejected")

    monkeypatch.setattr(abelhp.discretization, "history_weights_batch", reject)
    b = bench.make_benchmark("ex2")
    row = bench.run_mesh(b, uniform_mesh(3, b.spec.T, 1))
    assert row.failed and row.error == "rejected" and row.E2 is None
    # the weights' failure is one of the solver's
    with pytest.raises(SolverError, match="rejected"):
        solve(b.spec, uniform_mesh(3, b.spec.T, 1))


def test_mesh_for_inserts_required_breakpoints():
    b5 = bench.make_benchmark("ex5")
    with pytest.warns(bench.BenchmarkWarning):
        mesh = bench.mesh_for(b5, 3, 5)
    assert np.any(np.isclose(mesh.breakpoints, 0.5))
    ok = bench.mesh_for(b5, 2, 5)
    assert ok.N == 2
    with pytest.raises(ValueError):
        bench.mesh_for(b5, 2, 1)


def test_report_formats():
    report = bench.run_sweep(bench.make_benchmark("ex4"), [(1, 3), (2, 3)])
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "N,M,L,E1,E2,rho_N,delta,runtime_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "3" and first[2] == "3"
    # three significant digits in scientific notation
    assert "e" in first[3] and len(first[3].split("e")[0].replace("-", "").replace(".", "")) == 3

    payload = json.loads(report.to_json())
    assert payload["problem"] == "ex4_liu"
    assert set(payload["rows"][0]) >= {"N", "M", "L", "E1", "E2", "rho_N", "delta", "runtime_s"}


def test_noise_column_recorded():
    report = bench.run_sweep(bench.make_benchmark("ex2"), [(4, 2), (8, 2)], noise="h^2.5")
    assert report.rows[0].delta == pytest.approx(0.25**2.5)
    assert report.rows[1].delta == pytest.approx(0.125**2.5)


def test_ex6_reference_baseline_usable():
    b6 = bench.make_benchmark("ex6")
    report = bench.run_sweep(b6, [(3, 4)])
    assert not report.any_failed
    row = report.rows[0]
    assert row.E2 is not None and row.E2 < 0.1


def test_reference_solution_follows_the_spec():
    # the baseline used to be cached by id alone, so a record with ex6's id and
    # a doubled f was judged against the solution of the undoubled problem
    import gc

    b = bench.make_benchmark("ex6")
    b2 = dataclasses.replace(b, spec=dataclasses.replace(b.spec, f=lambda t: 2 * b.spec.f(t)))
    ref, ref2 = bench.reference_solution(b), bench.reference_solution(b2)
    assert ref2 is not ref
    assert bench.reference_solution(b) is ref and bench.reference_solution(b2) is ref2
    # ref2 is b2's own baseline: a solve of its spec on the baseline mesh
    baseline = solve(b2.spec, Mesh([0.0, 0.5, 1.0, 1.5], [12] * 3),
                     b2.solver_options())
    t = np.linspace(0.1, 1.5, 8)
    np.testing.assert_array_equal(ref2(t), evaluate(baseline, t))
    assert np.max(np.abs(ref2(t) - ref(t))) > 1e-3
    # rebuilt records do not grow the cache for good
    gc.collect()
    held = len(bench._BASELINE_CACHE)
    for _ in range(3):
        bench.reference_solution(bench.make_benchmark("ex6"))
    gc.collect()
    assert len(bench._BASELINE_CACHE) == held

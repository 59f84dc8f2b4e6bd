import json

import numpy as np
import pytest

import abelhp.bench as bench
from abelhp.adaptive import (
    AdaptiveOptions,
    BudgetExceededError,
    adaptive_solve,
)
from abelhp.bench import error_E2
from abelhp.mesh import uniform_mesh
from abelhp.solver import solve


def test_smooth_cubic_p_refinement_terminates_small():
    b = bench.make_benchmark("ex3")
    opts = AdaptiveOptions(tol=1e-13, strategy="p_first", max_L=32)
    sol, trace = adaptive_solve(b.spec, uniform_mesh(1, 1.0, 2), opts,
                                reference=b.exact,
                                solver_options=b.solver_options())
    assert sol.mesh.L <= 8
    assert error_E2(sol, b.exact) <= 1e-12
    assert trace.steps[-1].estimate <= 1e-13


def test_smooth_quadratic_p_refinement():
    b = bench.make_benchmark("ex4")
    opts = AdaptiveOptions(tol=1e-13, strategy="p_first", max_L=32)
    sol, trace = adaptive_solve(b.spec, uniform_mesh(1, 1.0, 1), opts,
                                reference=b.exact)
    assert sol.mesh.degrees.max() <= 3 and sol.mesh.N == 1


def test_infinite_tolerance_single_step():
    b = bench.make_benchmark("ex4")
    opts = AdaptiveOptions(tol=np.inf, strategy="p_first", max_L=32)
    _, trace = adaptive_solve(b.spec, uniform_mesh(1, 1.0, 1), opts)
    assert len(trace.steps) == 1


def test_budget_exceeded_carries_trace():
    b = bench.make_benchmark("ex3")
    opts = AdaptiveOptions(tol=1e-30, strategy="p_first", max_L=6)
    with pytest.raises(BudgetExceededError) as err:
        adaptive_solve(b.spec, uniform_mesh(1, 1.0, 2), opts, reference=b.exact,
                       solver_options=b.solver_options())
    assert err.value.trace.steps
    assert np.isfinite(err.value.estimate)


def test_monotone_budget_and_determinism():
    b = bench.make_benchmark("ex3")
    opts = AdaptiveOptions(tol=1e-10, strategy="alternate", max_L=40)
    _, t1 = adaptive_solve(b.spec, uniform_mesh(2, 1.0, 2), opts,
                           reference=b.exact, solver_options=b.solver_options())
    _, t2 = adaptive_solve(b.spec, uniform_mesh(2, 1.0, 2), opts,
                           reference=b.exact, solver_options=b.solver_options())
    Ls = [s.L for s in t1.steps]
    assert all(b > a for a, b in zip(Ls, Ls[1:]))
    assert [s.L for s in t2.steps] == Ls
    assert [s.estimate for s in t2.steps] == [s.estimate for s in t1.steps]


def test_h_first_bisects_roughest_element():
    # the solution derivative is singular at t = 0, so the spectral-tail
    # indicator must keep splitting the leftmost element
    b = bench.make_benchmark("ex1", alpha=0.3)
    opts = AdaptiveOptions(tol=1e-30, strategy="h_first", max_L=12)
    with pytest.raises(BudgetExceededError) as err:
        adaptive_solve(b.spec, uniform_mesh(2, 1.0, 3), opts, reference=b.exact,
                       solver_options=b.solver_options())
    refined = err.value.trace.steps[-1].mesh
    assert refined.N == 3
    assert np.any(np.isclose(refined.breakpoints, 0.25))  # [0, 0.5] was split
    assert list(refined.degrees) == [3, 3, 3]


def test_discontinuous_p_refinement_within_budget():
    # aligned jump: degree raising alone reaches 1e-6 well inside L <= 22
    b5 = bench.make_benchmark("ex5")
    opts = AdaptiveOptions(tol=1e-6, strategy="p_first", max_L=22)
    sol, trace = adaptive_solve(b5.spec, uniform_mesh(2, 1.0, 4), opts,
                                reference=b5.exact,
                                solver_options=b5.solver_options())
    assert sol.mesh.L <= 22
    assert trace.steps[-1].estimate <= 1e-6


def test_successive_diff_metric_runs_without_reference():
    b = bench.make_benchmark("ex3")
    opts = AdaptiveOptions(tol=5e-7, strategy="p_first", max_L=24)
    sol, trace = adaptive_solve(b.spec, uniform_mesh(2, 1.0, 1), opts,
                                solver_options=b.solver_options())
    assert len(trace.steps) >= 2
    assert trace.steps[-1].estimate <= 5e-7
    assert np.isinf(trace.steps[0].estimate)


def test_max_L_below_initial_rejected():
    b = bench.make_benchmark("ex4")
    opts = AdaptiveOptions(tol=1e-8, strategy="p_first", max_L=3)
    with pytest.raises(ValueError):
        adaptive_solve(b.spec, uniform_mesh(2, 1.0, 3), opts, reference=b.exact)


def test_trace_export_round_trip():
    b = bench.make_benchmark("ex4")
    opts = AdaptiveOptions(tol=1e-13, strategy="p_first", max_L=16)
    _, trace = adaptive_solve(b.spec, uniform_mesh(1, 1.0, 1), opts,
                              reference=b.exact)
    payload = json.loads(trace.to_json())
    assert [s["L"] for s in payload["steps"]] == [s.L for s in trace.steps]
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "step,N,degrees,L,estimate,elapsed_s"
    assert len(lines) == len(trace.steps) + 1


def test_options_validation():
    with pytest.raises(ValueError):
        AdaptiveOptions(tol=0.0)
    with pytest.raises(ValueError):
        AdaptiveOptions(tol=1e-8, strategy="bogus")


def _steps(spec, mesh, opts, **kwargs):
    """The trace's steps, whether or not the run meets its tolerance within max_L."""
    try:
        return adaptive_solve(spec, mesh, opts, **kwargs)[1].steps
    except BudgetExceededError as exc:
        return exc.trace.steps


@pytest.mark.parametrize("pid, degree", [("ex3", 1), ("ex4", 1)])
def test_estimate_is_error_E2_against_reference_or_previous_step(pid, degree):
    b = bench.make_benchmark(pid)
    opts = AdaptiveOptions(tol=1e-9, strategy="alternate", max_L=40)
    mesh, solver_options = uniform_mesh(1, 1.0, degree), b.solver_options()
    steps = _steps(b.spec, mesh, opts, reference=b.exact, solver_options=solver_options)
    assert len(steps) >= 3
    for step in steps:
        sol = solve(b.spec, step.mesh, solver_options)
        assert step.estimate == error_E2(sol, b.exact)

    steps = _steps(b.spec, mesh, opts, solver_options=solver_options)
    assert len(steps) >= 3 and np.isinf(steps[0].estimate)
    sols = [solve(b.spec, step.mesh, solver_options) for step in steps]
    for previous, sol, step in zip(sols, sols[1:], steps[1:]):
        assert step.estimate == error_E2(sol, previous)

"""The benchmark tracer in perfbench/ patches abelhp names; they must resolve."""

import importlib.util
from pathlib import Path

import abelhp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _tracing_module()
    tracer = tracing.Tracer(abelhp)
    missing = [
        f"abelhp.{path}.{attr}"
        for path, attr, _ in tracing.TARGETS
        if not hasattr(tracer._owner(path), attr)
    ]
    assert missing == []
    assert isinstance(abelhp.quadrature._rule_cache, dict)


def test_benchmark_worker_names_resolve():
    # perfbench/worker.py reads these names from abelhp's modules at run time
    names = [
        ("bench", "make_benchmark"), ("bench", "mesh_for"), ("bench", "error_E1"),
        ("bench", "error_E2"), ("bench", "BenchmarkWarning"), ("mesh", "uniform_mesh"),
        ("solver", "solve"), ("adaptive", "AdaptiveOptions"), ("adaptive", "adaptive_solve"),
        ("adaptive", "BudgetExceededError"),
    ]
    missing = [f"abelhp.{m}.{a}" for m, a in names if not hasattr(getattr(abelhp, m), a)]
    assert missing == []
    assert abelhp.bench.make_benchmark is abelhp.problems.make_benchmark


def test_tracer_sees_newton_without_descent():
    # the per-layer counts of the benchmark read the solver's call path:
    # one Newton call per element and no descent phase on a problem Newton
    # solves from the warm start
    tracing = _tracing_module()
    b = abelhp.bench.make_benchmark("ex3")
    mesh = abelhp.mesh.uniform_mesh(8, 1.0, 2)
    tracer = tracing.Tracer(abelhp)
    tracer.install()
    try:
        abelhp.solver.solve(b.spec, mesh, b.solver_options())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["solver.newton"]["calls"] == mesh.N
    assert summary.get("solver.steepest_descent_init", {"calls": 0})["calls"] == 0
    assert summary["solver.newton"]["jacobian_evals"] >= mesh.N
    # every residual and Jacobian evaluation passes through the patched
    # ElementOperator methods and is charged to the Newton phase
    newton = summary["solver.newton"]
    assert summary["discretization.residual"]["calls"] == newton["residual_evals"] > 0
    assert summary["discretization.jacobian"]["calls"] == newton["jacobian_evals"] > 0


def test_tracer_records_history_weights_during_solve():
    # quadrature.history_weights_batch.calls and .rows read the weight calls
    # of the blocked history, which looks the routine up in discretization
    tracing = _tracing_module()
    b = abelhp.bench.make_benchmark("ex2")
    tracer = tracing.Tracer(abelhp)
    tracer.install()
    try:
        abelhp.solver.solve(b.spec, abelhp.mesh.uniform_mesh(16, 1.0, 1), b.solver_options())
    finally:
        tracer.uninstall()
    weights = tracer.summary()["quadrature.history_weights_batch"]
    assert weights["calls"] > 0
    assert weights["rows"] > 0

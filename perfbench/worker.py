"""One workload in one process: set up, time passes, check every case.

Run by ``run.py`` with ``src`` on PYTHONPATH and one BLAS/OpenMP thread;
prints one JSON object on stdout.  With ``--setup-only`` it stops after the
set-up (import, case build, warm-up pass) and reports its time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up starts before abelhp is imported

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import warnings
from pathlib import Path

import numpy as np

import workloads

MIN_PASSES = 3
SRC = Path(__file__).resolve().parent.parent / "src"

# Host speed probe.  The host's speed drifts by up to 2x over tens of seconds
# (neighbours on the same machine), far more than a median over passes can
# hide, so every pass is also timed against this fixed, abelhp-independent
# mix of small-array numpy calls and interpreter work, run before each case
# and after the last one, outside the timed spans.  A pass that took as long
# as r probes reports r * PROBE_REF_S seconds; PROBE_REF_S is the probe's
# typical time between cases on the 2-vCPU host the benchmark was written on
# (Python 3.11.7, numpy 2.4.6), so scaled and unscaled seconds are alike there.
PROBE_REF_S = 0.009
_PROBE_ROWS = [np.linspace(-1.0, 1.0, 3) * (k % 7 + 1) for k in range(300)]
_PROBE_MATRIX = 4.0 * np.eye(4) + np.linspace(0.0, 1.0, 16).reshape(4, 4)


def host_probe() -> float:
    tic = time.perf_counter()
    acc = 0.0
    for k in range(20):
        rows = np.stack(_PROBE_ROWS[: 200 + k])
        acc += float(np.sum(np.exp(-rows) * rows))
        for j in range(20):
            acc += float(np.linalg.solve(_PROBE_MATRIX, np.full(4, float(j)))[0])
    for i in range(30_000):
        acc += i % 3
    return time.perf_counter() - tic


class Library:
    """The abelhp modules the passes call into, looked up at call time."""

    def __init__(self):
        import abelhp

        if Path(abelhp.__file__).resolve().parent != SRC / "abelhp":
            raise SystemExit(f"abelhp imported from {abelhp.__file__}, not from {SRC}")
        self.package = abelhp
        self.adaptive = abelhp.adaptive
        self.bench = abelhp.bench
        self.mesh = abelhp.mesh
        self.solver = abelhp.solver
        self.tracer = None
        warnings.filterwarnings("ignore", category=abelhp.ProblemAssumptionWarning)
        warnings.filterwarnings("ignore", category=abelhp.bench.BenchmarkWarning)

    def unrecorded(self, fn, *args):
        """Call fn without recording spans: benchmark checks are not user work."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.paused = True
        try:
            return fn(*args)
        finally:
            self.tracer.paused = False


def run_case(lib: Library, case, adaptive_stats: dict):
    """Run one case as a user would; return (seconds, error class, E2)."""
    tic = time.perf_counter()
    error, solution, trace = None, None, None
    try:
        bench = lib.bench.make_benchmark(case.problem, case.alpha)
        if isinstance(case, workloads.FixedCase):
            mesh = lib.bench.mesh_for(bench, case.N, case.M)
            solution = lib.solver.solve(bench.spec, mesh, bench.solver_options())
            lib.bench.error_E1(solution, bench.exact)
            E2 = lib.bench.error_E2(solution, bench.exact)
        else:
            mesh = lib.mesh.uniform_mesh(case.N0, bench.spec.T, case.degree0)
            options = lib.adaptive.AdaptiveOptions(
                tol=case.tol, strategy=case.strategy, max_L=case.max_L
            )
            solution, trace = lib.adaptive.adaptive_solve(
                bench.spec, mesh, options, reference=bench.exact,
                solver_options=bench.solver_options(),
            )
    except lib.adaptive.BudgetExceededError as exc:
        error, trace = type(exc).__name__, exc.trace
    except Exception as exc:  # every library failure is a counted outcome
        error = type(exc).__name__
    seconds = time.perf_counter() - tic

    if trace is not None:
        adaptive_stats["steps"] += len(trace.steps)
        adaptive_stats["solved_elements"] += sum(s.mesh.N for s in trace.steps)
        adaptive_stats["final_elements"] += trace.steps[-1].mesh.N
    if error is not None:
        return seconds, error, None
    if trace is not None:
        E2 = lib.unrecorded(lib.bench.error_E2, solution, bench.exact)
    return seconds, None, E2


def run_pass(lib: Library, cases: list, rng: random.Random) -> dict:
    order = list(range(len(cases)))
    rng.shuffle(order)
    outcomes = [None] * len(cases)
    adaptive_stats = {"steps": 0, "solved_elements": 0, "final_elements": 0}
    rules_before = len(lib.package.quadrature._rule_cache)
    gc.collect()
    probes = []
    for i in order:
        probes.append(host_probe())
        outcomes[i] = run_case(lib, cases[i], adaptive_stats)
    probes.append(host_probe())
    seconds = sum(o[0] for o in outcomes)
    return {
        "seconds": seconds,
        "probes_s": sum(probes),
        "probe_s": statistics.fmean(probes),
        "scaled_s": seconds * PROBE_REF_S / statistics.fmean(probes),
        "outcomes": outcomes,
        "adaptive": adaptive_stats,
        "new_rules": len(lib.package.quadrature._rule_cache) - rules_before,
    }


def judge(cases: list, passes: list, timed: list) -> dict:
    """Per-case status from every pass; any drift between passes is an error."""
    problems, rows = [], []
    failed = missed = 0
    errors: dict[str, int] = {}
    for i, case in enumerate(cases):
        first = passes[0]["outcomes"][i]
        signature = first[1:]
        if any(p["outcomes"][i][1:] != signature for p in passes[1:]):
            problems.append(f"{case.label}: outcome differs between passes")
        error, E2 = signature
        if error is not None:
            status = error
            errors[error] = errors.get(error, 0) + 1
        elif E2 <= case.target_E2:
            status = "ok"
        else:
            # a solve that returns an answer worse than its target is wrong
            status = "missed_target"
            missed += 1
            problems.append(f"{case.label}: E2 {E2:.3e} above target {case.target_E2:.3e}")
        failed += status != "ok"
        rows.append({
            "case": case.label,
            "status": status,
            "E2": E2,
            "target_E2": case.target_E2,
            "median_s": statistics.median(p["outcomes"][i][0] for p in timed),
        })
    return {"rows": rows, "failed": failed, "missed": missed, "errors": errors,
            "problems": problems}


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def layer_metrics(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes; counts must repeat exactly."""
    from tracing import EVALS, PHASES

    def counts(p):
        s = p["layers"]
        out = {f"{name}.calls": v["calls"] for name, v in s.items()}
        out["quadrature.history_weights_batch.rows"] = s.get(
            "quadrature.history_weights_batch", {}).get("rows", 0)
        for phase in PHASES:
            for counter in EVALS.values():
                out[f"{phase}.{counter}"] = s.get(phase, {}).get(counter, 0)
        out.update({f"adaptive.{k}": v for k, v in p["adaptive"].items()})
        out["new_rules"] = p["new_rules"]
        return out

    problems = []
    first = counts(traced[0])
    if any(counts(p) != first for p in traced[1:]):
        problems.append("per-layer counts differ between traced passes")

    def self_s(name):
        return statistics.median(p["layers"].get(name, {}).get("self_s", 0.0) for p in traced)

    def calls(name):
        return first.get(f"{name}.calls", 0)

    metrics = {}
    for name, fields in (
        ("quadrature.history_weights_batch", ("calls", "rows", "self_s")),
        ("discretization.history", ("self_s",)),
        ("solver.steepest_descent_init", ("calls", "self_s", "residual_evals")),
        ("solver.newton", ("calls", "self_s", "residual_evals", "jacobian_evals")),
        ("discretization.residual", ("calls", "self_s")),
        ("discretization.jacobian", ("calls", "self_s")),
        ("discretization.operator_build", ("calls", "self_s")),
        ("quadrature.gauss_rule", ("calls", "self_s")),
        ("orthopoly.legendre_table", ("calls", "self_s")),
        ("discretization.rhs", ("self_s",)),
        ("solver.forward_apply", ("calls", "self_s")),
        ("bench.error_E1", ("self_s",)),
        ("bench.error_E2", ("self_s",)),
        ("solver.evaluate", ("calls", "self_s")),
        ("mesh.locate", ("calls",)),
        ("solver.solve", ("calls", "self_s")),
    ):
        for field in fields:
            key = f"{name}.{field}"
            if field == "self_s":
                metrics[key] = (self_s(name), "s")
            elif field == "calls":
                metrics[key] = (calls(name), "count")
            else:
                metrics[key] = (first.get(key, 0), "count")

    rule_calls = calls("quadrature.gauss_rule")
    hits = rule_calls - first["new_rules"]
    metrics["quadrature.gauss_rule.cache_hit_ratio"] = (
        hits / rule_calls if rule_calls else 0.0, "ratio")
    steps, solved = first["adaptive.steps"], first["adaptive.solved_elements"]
    metrics["adaptive.steps"] = (steps, "count")
    metrics["adaptive.solved_elements"] = (solved, "count")
    metrics["adaptive.useful_ratio"] = (
        first["adaptive.final_elements"] / solved if solved else 0.0, "ratio")
    traced_s = statistics.median(p["seconds"] for p in traced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(p["seconds"] for p in untraced), "s")
    return metrics, problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    lib = Library()
    cases = workloads.WORKLOADS[args.workload](rng)
    warmup = run_pass(lib, cases, rng)
    setup_raw = time.perf_counter() - _T0 - warmup["probes_s"]
    result = {"setup_s": setup_raw * PROBE_REF_S / warmup["probe_s"],
              "setup_raw_s": setup_raw, "env": environment()}
    if args.setup_only:
        print(json.dumps(result))
        return

    untraced, traced = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = lib.tracer = Tracer(lib.package)
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(untraced) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES)):
        untraced.append(run_pass(lib, cases, rng))
        if tracer is None:
            continue
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(lib, cases, rng))
        finally:
            tracer.uninstall()
        traced[-1]["layers"] = tracer.summary()

    verdict = judge(cases, [warmup, *untraced, *traced], untraced)
    scaled = [p["scaled_s"] for p in untraced]
    result.update(
        env_end=environment(),
        cases_per_pass=len(cases),
        passes=len(untraced),
        traced_passes=len(traced),
        wall_s=statistics.median(scaled),
        wall_quartiles=statistics.quantiles(scaled, n=4),
        wall_raw_s=statistics.median(p["seconds"] for p in untraced),
        probe_s=statistics.median(p["probe_s"] for p in untraced),
        rows=verdict["rows"],
        failed_per_pass=verdict["failed"],
        missed_per_pass=verdict["missed"],
        errors_per_pass=verdict["errors"],
        problems=verdict["problems"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if traced:
        metrics, problems = layer_metrics(traced, untraced)
        result["layers"] = metrics
        result["problems"] += problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()

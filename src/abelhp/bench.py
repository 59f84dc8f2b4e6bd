"""Error metrics and refinement-sweep reports for the registered problems.

Reports carry one row per (N, M) configuration, where M counts basis
functions per element (polynomial degree plus one), the convention used for
table-style sweeps and the CLI; the mesh API itself works with degrees.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .discretization import ProblemSpec
from .mesh import Mesh, uniform_mesh
from .orthopoly import _half_step_table
from .problems import (
    BenchmarkProblem,
    make_benchmark,  # unused; perfbench/worker.py reads it here
)
from .quadrature import HistoryAccuracyError, RuleKind, _shift_rows, gauss_rule
from .solver import (
    PiecewiseSolution,
    SolverError,
    SolverOptions,
    _evaluate_on,
    evaluate,
    forward_apply,  # unused; perfbench/tracing.py wraps it here, and it goes with that target
    solve,
)

__all__ = [
    "BenchReport",
    "BenchRow",
    "BenchmarkWarning",
    "error_E1",
    "error_E2",
    "convergence_order",
    "perturb_rhs",
    "run_sweep",
    "run_mesh",
    "mesh_for",
    "parse_noise",
]


class BenchmarkWarning(UserWarning):
    pass


@dataclass
class BenchRow:
    N: int
    M: int
    L: int
    E1: float | None = None
    E2: float | None = None
    rho_N: float | None = None
    delta: float | None = None
    runtime_s: float = 0.0
    failed: bool = False
    error: str | None = None

    @classmethod
    def for_mesh(cls, mesh: Mesh, **fields) -> "BenchRow":
        """The row of a mesh, whose M is its largest degree plus one."""
        return cls(N=mesh.N, M=int(mesh.degrees.max()) + 1, L=mesh.L, **fields)


@dataclass
class BenchReport:
    problem_id: str
    rows: list[BenchRow] = field(default_factory=list)

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.rows)

    def _records(self) -> list[dict]:
        records = []
        for r in self.rows:
            d = {c: getattr(r, c) for c in _REPORT_COLUMNS}
            if r.failed:
                d["failed"] = True
                d["error"] = r.error
            records.append(d)
        return records

    def _write(self, fmt: str) -> str:
        return _write_rows(fmt, self._records(), _REPORT_COLUMNS, _REPORT_CELLS,
                           {"problem": self.problem_id}, "rows")

    def to_csv(self) -> str:
        return self._write("csv")

    def to_json(self) -> str:
        return self._write("json")


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


#: points per element of error_E2's grid
E2_SAMPLES = 65


def error_E1(solution: PiecewiseSolution, exact_fn) -> float:
    """Discrete L2 error at the per-element Gauss-Legendre nodes."""
    mesh = solution.mesh
    bp, offsets = mesh.breakpoints, mesh.offsets
    # an element has degree + 1 Gauss points, so they fill the offsets layout
    pts, wts = np.empty(mesh.L), np.empty(mesh.L)
    for d, idx in mesh.degree_groups:
        rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, d)
        cols = offsets[idx, None] + np.arange(d + 1)
        pts[cols] = _shift_rows(rule.nodes, bp[idx], bp[idx + 1])
        wts[cols] = (0.5 * (bp[idx + 1] - bp[idx]))[:, None] * rule.weights
    # each element's points sit in its own slots, so no point needs locating
    elements = np.repeat(np.arange(mesh.N), mesh.degrees + 1)
    diff = np.asarray(exact_fn(pts), dtype=float) - _evaluate_on(solution, pts, elements)
    return math.sqrt(float(wts @ diff**2))


def error_E2(solution: PiecewiseSolution, exact_fn) -> float:
    """Max-norm error on ``E2_SAMPLES`` equispaced points per element.

    Each element's points include its right endpoint; its left endpoint is
    approached from inside by half a grid step, matching the half-open
    element convention.  ``exact_fn`` is any vectorized callable of t, a
    ``PiecewiseSolution`` included.  The solution is summed from one cached
    Legendre table per degree at the grid's fixed reference points, so it
    agrees with ``evaluate`` there to rounding, not bit for bit.
    """
    mesh = solution.mesh
    i = np.arange(E2_SAMPLES) + 0.5
    pts = mesh.breakpoints[:-1, None] + mesh.widths[:, None] * i / (E2_SAMPLES - 0.5)
    exact = np.asarray(exact_fn(pts.ravel()), dtype=float)
    # row k of the grid lies on element k + 1: one gather and one product per degree
    approx = np.empty_like(pts)
    for d, idx in mesh.degree_groups:
        approx[idx] = (solution.coeffs[mesh.offsets[idx, None] + np.arange(d + 1)]
                       @ _half_step_table(d, E2_SAMPLES))
    diff = approx.ravel()
    diff -= exact
    return float(np.max(np.abs(diff, out=diff)))


def convergence_order(E_coarse: float, E_fine: float) -> float:
    """Observed order under mesh doubling: log2 of the error ratio."""
    if E_coarse <= 0.0 or E_fine <= 0.0:
        raise ValueError("errors must be positive to take the order")
    return math.log2(E_coarse / E_fine)


def perturb_rhs(problem: ProblemSpec, delta: float) -> ProblemSpec:
    """Shift the right-hand side by a constant noise level delta."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    f0 = problem.f
    return replace(problem, f=lambda t: f0(t) + delta)


_BASELINE_CACHE: dict[str, Callable] = {}


def reference_solution(bench: BenchmarkProblem) -> Callable:
    """Exact solution, or a cached high-resolution run when none is known."""
    if bench.exact is not None:
        return bench.exact
    fn = _BASELINE_CACHE.get(bench.id)
    if fn is None:
        hints = np.array([0.0, *bench.mesh_hints, bench.spec.T])
        mesh = Mesh(hints, np.full(hints.size - 1, 12, dtype=int))
        baseline = solve(bench.spec, mesh, bench.solver_options())
        fn = lambda t: evaluate(baseline, t)
        _BASELINE_CACHE[bench.id] = fn
    return fn


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------


def mesh_for(bench: BenchmarkProblem, N: int, M: int) -> Mesh:
    """Uniform N-element mesh with M basis functions (degree M-1) per element.

    Required interior breakpoints of the problem (kernel seams, solution
    jumps) are inserted when the uniform mesh misses them.
    """
    if M < 2:
        raise ValueError("M counts basis functions per element and must be >= 2")
    mesh = uniform_mesh(N, bench.spec.T, M - 1)
    missing = [
        h
        for h in bench.mesh_hints
        if not np.any(np.isclose(mesh.breakpoints, h, rtol=0.0, atol=1e-12))
    ]
    if missing:
        warnings.warn(
            f"inserting required breakpoints {missing} into the uniform mesh",
            BenchmarkWarning,
        )
        bp = np.sort(np.concatenate([mesh.breakpoints, np.asarray(missing)]))
        mesh = Mesh(bp, np.full(bp.size - 1, M - 1, dtype=int))
    return mesh


def parse_noise(spec, h: float) -> float:
    """Noise level from None (no noise), a float, or a string: a float or 'h^<power>'.

    A power like 'h^2.5' is taken of the mesh width ``h`` and must be finite.
    The level must be finite and nonnegative, or ``ValueError`` is raised.
    """
    if spec is None:
        return 0.0
    text = spec.strip() if isinstance(spec, str) else None
    power = float(text[2:]) if text and text.startswith("h^") else None
    # 1.0 ** nan is 1.0 and h ** inf can be 0, so the power is checked on its own
    if not math.isfinite(power or 0.0):
        raise ValueError(f"noise power {power} is not finite")
    try:
        delta = float(spec) if power is None else h**power
    except OverflowError:  # where h ** power would be inf
        delta = math.inf
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"noise level {delta} is not finite and nonnegative")
    return delta


def run_mesh(
    bench: BenchmarkProblem,
    mesh: Mesh,
    options: SolverOptions | None = None,
    noise=None,
) -> BenchRow:
    """Solve the benchmark on one mesh and return the filled report row."""
    opts = options or bench.solver_options()
    delta = parse_noise(noise, mesh.h_max)
    spec = perturb_rhs(bench.spec, delta) if delta else bench.spec
    row = BenchRow.for_mesh(mesh, delta=delta if noise is not None else None)
    tic = time.perf_counter()
    try:
        solution = solve(spec, mesh, opts)
        row.runtime_s = time.perf_counter() - tic
        ref = reference_solution(bench)
        row.E1 = error_E1(solution, ref)
        row.E2 = error_E2(solution, ref)
    except (SolverError, HistoryAccuracyError) as exc:
        row.runtime_s = time.perf_counter() - tic
        row.failed = True
        row.error = str(exc)
    return row


def run_sweep(
    bench: BenchmarkProblem,
    sweep: Sequence[tuple[int, int]],
    options: SolverOptions | None = None,
    noise=None,
) -> BenchReport:
    """Solve one configuration per (N, M) pair and report errors and orders.

    The observed order rho is filled whenever the preceding successful row
    used the same M and half the number of elements; it is taken on the
    max-norm error column.  A failing row is marked and the sweep continues.
    """
    opts = options or bench.solver_options()
    report = BenchReport(bench.id)
    prev: BenchRow | None = None
    for N, M in sweep:
        mesh = mesh_for(bench, int(N), int(M))
        row = run_mesh(bench, mesh, opts, noise)
        row.N = int(N)
        # a failed row's E2 is None, so the last two terms also skip failures
        if (
            prev is not None
            and prev.M == row.M
            and prev.N * 2 == row.N
            and prev.E2
            and row.E2
        ):
            row.rho_N = convergence_order(prev.E2, row.E2)
        report.rows.append(row)
        prev = row
    return report


def _fmt(spec):
    return lambda value: "" if value is None else spec.format(value)


_REPORT_COLUMNS = ("N", "M", "L", "E1", "E2", "rho_N", "delta", "runtime_s")
_REPORT_CELLS = {
    "E1": _fmt("{:.2e}"),
    "E2": _fmt("{:.2e}"),
    "rho_N": _fmt("{:.2f}"),
    "delta": _fmt("{:.2e}"),
    "runtime_s": "{:.3f}".format,
}


def _write_rows(fmt: str, records: list[dict], columns, cells: dict, head: dict, key: str) -> str:
    """The one report writer: CSV or JSON text from a list of row records.

    CSV writes ``columns`` of each record, rendered by ``cells[column]`` where
    given and by ``str`` otherwise.  JSON keeps the raw records and nests them
    under ``key`` after the ``head`` entries.
    """
    if fmt == "json":
        return json.dumps({**head, key: records}, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for rec in records:
        writer.writerow([cells.get(c, str)(rec[c]) for c in columns])
    return buf.getvalue()

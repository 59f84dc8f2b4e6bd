"""Error metrics and refinement-sweep reports for the registered problems.

Reports carry one row per (N, M) configuration, where M counts basis
functions per element (polynomial degree plus one), the convention used for
table-style sweeps and the CLI; the mesh API itself works with degrees.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import time
import warnings
import weakref
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
    QuadratureConvergenceError,
    SolverError,
    SolverOptions,
    _EVAL_BLOCK,
    _evaluate_on,
    evaluate,
    solve,
)

__all__ = [
    "BenchReport",
    "BenchRow",
    "BenchmarkWarning",
    "error_E1",
    "error_E2",
    "forward_apply",
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
    bp = mesh.breakpoints
    # an element has degree + 1 Gauss points, so they fill the offsets layout
    pts, wts = np.empty(mesh.L), np.empty(mesh.L)
    for d, idx, cols in mesh.degree_groups:
        rule = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, d)
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
    # row k of the grid lies on element k + 1: one gather and one product per degree
    approx = np.empty((mesh.N, E2_SAMPLES))
    for d, idx, cols in mesh.degree_groups:
        approx[idx] = solution.coeffs[cols] @ _half_step_table(d, E2_SAMPLES)
    # exact_fn sees the grid a block of elements at a time, so that its
    # temporaries stay small however many elements there are
    i = np.arange(E2_SAMPLES) + 0.5
    lefts, widths = mesh.breakpoints[:-1, None], mesh.widths[:, None]
    step, err = max(1, _EVAL_BLOCK // E2_SAMPLES), 0.0
    for k in range(0, mesh.N, step):
        rows = slice(k, k + step)
        pts = lefts[rows] + widths[rows] * i / (E2_SAMPLES - 0.5)
        diff = approx[rows] - np.asarray(exact_fn(pts.ravel()), dtype=float).reshape(pts.shape)
        err = np.maximum.reduce(np.abs(diff, out=diff), axis=None, initial=err)
    return float(err)


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


def _forward_at(problem: ProblemSpec, u_fn, t: float, cuts: list[float]) -> float:
    """:func:`forward_apply` at one time t > 0, by depth-first panel bisection."""
    alpha, budget = problem.alpha, [4000]

    def F(s):
        # a real array: a dot product sums a stride-0 operand in another order
        u = np.asarray(u_fn(s), dtype=float)
        return np.broadcast_to(problem.kappa(t, s) * problem.psi(t, s, u), s.shape).copy()

    def rule_sum(G, a, b, order):
        # Gauss-Jacobi absorbs the singular factor on the panel ending at t
        if b == t:
            r = gauss_rule(RuleKind.GAUSS_JACOBI, alpha - 1.0, order)
            s = t - 0.5 * (t - a) * (1.0 - r.nodes)
            return (0.5 * (t - a)) ** alpha * float(r.weights @ G(s))
        r = gauss_rule(RuleKind.GAUSS_LEGENDRE, None, order)
        s = 0.5 * (a + b) + 0.5 * (b - a) * r.nodes
        return 0.5 * (b - a) * float(r.weights @ ((t - s) ** (alpha - 1.0) * G(s)))

    def panel(a, b, tol, depth):
        # 16 against 32 nodes, bisected with half the tolerance until they agree
        budget[0] -= 1
        if budget[0] < 0 or depth < 0:
            limit = "its 4000-panel budget" if budget[0] < 0 else "the depth limit of 40"
            raise QuadratureConvergenceError(
                f"panel refinement did not converge at t={t} on [{a}, {b}]: {limit} ran out")
        i1, i2 = rule_sum(F, a, b, 15), rule_sum(F, a, b, 31)
        if abs(i2 - i1) <= tol or b - a < 1e-15 * max(1.0, abs(b)):
            return i2
        m = 0.5 * (a + b)
        return panel(a, m, 0.5 * tol, depth - 1) + panel(m, b, 0.5 * tol, depth - 1)

    edges = [0.0, *cuts[: bisect.bisect_left(cuts, t)], t]
    panels = list(zip(edges, edges[1:]))
    coarse = sum(rule_sum(lambda s: np.abs(F(s)), a, b, 16) for a, b in panels)
    # a NaN tolerance would reject every panel, and the depth limit would then
    # be blamed on the panel at s = 0, however far from the bad value
    if not math.isfinite(coarse):
        raise ValueError(f"forward_apply needs a finite integrand, got {coarse} on [0, {t}]")
    tol = 1e-10 * max(coarse, 1e-30) / len(panels)
    return sum(panel(a, b, tol, 40) for a, b in panels)


def forward_apply(problem: ProblemSpec, u_fn, t, breakpoints: Sequence[float] = ()):
    """Apply the integral operator to an arbitrary function at the times t.

    Computes ``int_0^t (t-s)^(alpha-1) kappa(t, s) psi(t, s, u(s)) ds`` at each
    time on its own: a 17-point pass over the absolute integrand sets the
    tolerance, and each panel compares 16 against 32 nodes and is bisected until
    they agree, up to depth 40 and 4000 panels per time.  ``breakpoints`` force
    panel edges, e.g. at kinks of u or of the kernel.  A tool for manufactured
    right-hand sides and residual audits, on no benchmark's path.  The result
    has the shape of t (a float for a 0-d t), and is 0 where t <= 0.  A time
    that is not finite raises ``ValueError``, as does an integrand that is not
    finite at the nodes of the 17-point pass, and a time whose panels do not
    converge ``QuadratureConvergenceError``, naming the time, the panel and
    the limit that ran out.
    """
    t_arr = np.asarray(t, dtype=float)
    cuts = sorted({float(x) for x in breakpoints if x > 0.0})
    # Python floats: numpy's power on a float64 t can differ from libm's by 1 ulp
    times = t_arr.ravel().tolist()
    for v in times:
        if not math.isfinite(v):
            raise ValueError(f"forward_apply needs finite times, got t={v}")
    out = [0.0 if v <= 0.0 else _forward_at(problem, u_fn, v, cuts) for v in times]
    return float(out[0]) if t_arr.ndim == 0 else np.array(out, dtype=float).reshape(t_arr.shape)


# baselines by problem record, compared by its fields (its spec, mesh hints
# and initial constant decide the baseline), so a record rebuilt with another
# spec gets its own.  An entry keeps the first record stored under it as its
# key and goes when that record does, though an equal record may live on
_BASELINE_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_solution(bench: BenchmarkProblem) -> Callable:
    """Exact solution, or a cached high-resolution run when none is known."""
    if bench.exact is not None:
        return bench.exact
    fn = _BASELINE_CACHE.get(bench)
    if fn is None:
        hints = np.array([0.0, *bench.mesh_hints, bench.spec.T])
        mesh = Mesh(hints, np.full(hints.size - 1, 12, dtype=int))
        baseline = solve(bench.spec, mesh, bench.solver_options())
        fn = lambda t: evaluate(baseline, t)
        _BASELINE_CACHE[bench] = fn
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

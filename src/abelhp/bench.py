"""Benchmark registry, error metrics, and refinement-sweep reports.

Six registered problems cover singular, smooth, noisy, degenerate-kernel,
discontinuous, and reference-free cases.  Reports carry one row per (N, M)
configuration, where M counts basis functions per element (polynomial degree
plus one), the convention used for table-style sweeps and the CLI; the mesh
API itself works with degrees.
"""

from __future__ import annotations

import csv
import functools
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
    "BenchmarkProblem",
    "BenchReport",
    "BenchRow",
    "BenchmarkWarning",
    "PROBLEM_IDS",
    "make_benchmark",
    "error_E1",
    "error_E2",
    "convergence_order",
    "perturb_rhs",
    "run_sweep",
    "run_mesh",
    "mesh_for",
    "parse_noise",
]

PROBLEM_IDS = (
    "ex1_singular",
    "ex2_plato",
    "ex3_branca",
    "ex4_liu",
    "ex5_discontinuous",
    "ex6_unknown",
)

_ALIASES = {f"ex{i}": pid for i, pid in enumerate(PROBLEM_IDS, start=1)}


class BenchmarkWarning(UserWarning):
    pass


@dataclass
class BenchmarkProblem:
    """A registered equation instance plus everything a sweep needs."""

    id: str
    spec: ProblemSpec
    exact: Callable | None
    init_constant: float = 0.0
    mesh_hints: tuple[float, ...] = ()
    description: str = ""

    def solver_options(self, **overrides) -> SolverOptions:
        return SolverOptions(**{"init_constant": self.init_constant, **overrides})


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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _series_length(x: float) -> int:
    """Terms of sum_k x^k / k! to keep: the first one left out is below 2^-60 min(1, x)."""
    k, term = 0, 1.0
    while term > 2.0**-60 * min(1.0, x):
        k += 1
        term *= x / k
    return k


def _times(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients of p times q, lowest power first, for each column of p (q's rows broadcast)."""
    out = np.zeros((len(p) + len(q) - 1, *p.shape[1:]))
    for i, qi in enumerate(q):
        out[i : i + len(p)] += qi * p
    return out


def _ex1_rhs(alpha: float):
    """ex1's f: int_0^t (t-s)^(alpha-1) e^(ts) s^(2+2 alpha) ds, 0 for t <= 0.

    With e^(ts) = sum_k (ts)^k / k! each term is a Beta integral, so
    f(t) = t^(2+3 alpha) sum_k t^(2k) / k! B(alpha, 3+2 alpha+k), a series of
    positive terms summed by Horner's scheme in t^2.
    """
    beta0 = math.gamma(alpha) * math.gamma(3.0 + 2.0 * alpha) / math.gamma(3.0 + 3.0 * alpha)

    def f(t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        x = t * t
        k = np.arange(_series_length(float(x.max(initial=0.0))) - 1)
        ratios = (3.0 + 2.0 * alpha + k) / ((3.0 + 3.0 * alpha + k) * (k + 1.0))
        # t^(2+3 alpha) as t^2 (t^alpha)^3, with no rounded exponent
        return x * (t**alpha) ** 3 * np.polyval(beta0 * np.cumprod(np.r_[1.0, ratios])[::-1], x)

    return f


def _ex5_rhs(t):
    """ex5's f: int_0^t (t-s)^(alpha-1) sin(t-s) u(s)^5 ds with alpha = 0.8, 0 for t <= 0.

    In sigma = t - s, on s <= 1/2 the integrand is e^(-5t) sigma^(alpha-1)
    Im e^((5+i) sigma), which integrates to e^(-5t) Im[Phi(t) - Phi(max(t - 1/2, 0))]
    with Phi(x) = sum_k (5+i)^k x^(k+alpha) / (k! (k+alpha)).  On s > 1/2,
    (2 - (t - sigma)^2)^5 is a polynomial in sigma; times the series of
    sin(sigma) / sigma it integrates term by term over [0, t - 1/2].
    """
    alpha, z = 0.8, 5.0 + 1.0j
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    k = np.arange(_series_length(abs(z) * float(t.max(initial=0.0))))
    z_pow = np.cumprod(np.r_[1.0, np.full(k.size - 1, z) / k[1:]])  # z^k / k!
    im_phi = lambda x: x**alpha * np.polyval((z_pow.imag / (k + alpha))[::-1], x)
    x0 = np.maximum(t - 0.5, 0.0)
    out = np.exp(-5.0 * t) * (im_phi(t) - im_phi(x0))
    late = t > 0.5
    if late.any():
        tl, x = t[late], x0[late]
        q = np.stack([2.0 - tl * tl, 2.0 * tl, np.full_like(tl, -1.0)])
        u5 = functools.reduce(_times, [q] * 5)
        j = np.arange(_series_length(float(x.max())))
        sine = np.where(j % 2 == 1, (-1.0) ** (j // 2) / np.cumprod(np.maximum(j, 1)), 0.0)
        d = _times(u5, sine[1:, None])  # sigma^-1 sin(sigma) (2 - s^2)^5, by powers of sigma
        n = np.arange(len(d))[:, None]
        # np.polyval's Horner loop runs over rows: one polynomial per column of x
        out[late] += x * x**alpha * np.polyval((d / (n + alpha + 1.0))[::-1], x)
    return out


def make_benchmark(problem_id: str, alpha: float | None = None) -> BenchmarkProblem:
    """Build a registered benchmark problem (alpha is required for ex1)."""
    pid = _ALIASES.get(problem_id, problem_id)
    if pid not in PROBLEM_IDS:
        raise ValueError(f"unknown benchmark id {problem_id!r}")

    if pid == "ex1_singular":
        if alpha is None:
            raise ValueError("ex1_singular takes the singularity exponent alpha")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        exact = lambda t: np.asarray(t, dtype=float) ** (1.0 + alpha)
        spec = ProblemSpec(
            alpha=alpha,
            T=1.0,
            kappa=lambda t, s: np.exp(t * s),
            psi=lambda t, s, u: u**2,
            dpsi_du=lambda t, s, u: 2.0 * u,
            f=_ex1_rhs(alpha),
            # the solution is >= 0; abs keeps a slightly negative z from a NaN
            psi_inv=lambda s, z: np.sqrt(np.abs(z)),
        )
        return BenchmarkProblem(
            pid,
            spec,
            exact,
            description="singular solution t^(1+alpha), squared nonlinearity, exp kernel",
        )
    if alpha is not None:
        raise ValueError(f"{pid} has a fixed alpha")

    if pid == "ex2_plato":
        # the classic data pair for this problem normalizes the operator by
        # Gamma(1/2); with the unnormalized kernel used here the solution
        # absorbs that factor so that K(exact) == f holds
        c4 = 24.0 / math.gamma(4.5) / math.gamma(0.5)
        c6 = 720.0 / math.gamma(6.5) / math.gamma(0.5)

        def exact(t):
            t = np.asarray(t, dtype=float)
            return np.exp(-t) * (c4 * t**3.5 + c6 * t**5.5)

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            kappa=lambda t, s: np.exp(s - t),
            psi=lambda t, s, u: u,
            dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
            f=lambda t: np.exp(-np.asarray(t, dtype=float))
            * (np.asarray(t, dtype=float) ** 4 + np.asarray(t, dtype=float) ** 6),
            linear=True,
        )
        return BenchmarkProblem(
            pid, spec, exact, description="linear, exp kernel, noise-perturbation study"
        )

    if pid == "ex3_branca":

        def f(t):
            t = np.asarray(t, dtype=float)
            return 32.0 / 45045.0 * (1287.0 + 1144.0 * t + 960.0 * t**4) * t**3.5

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            kappa=lambda t, s: np.ones_like(np.asarray(s, dtype=float) + t),
            psi=lambda t, s, u: (1.0 + s + t * u) * u,
            dpsi_du=lambda t, s, u: 1.0 + s + 2.0 * t * u,
            f=f,
        )
        return BenchmarkProblem(
            pid,
            spec,
            lambda t: np.asarray(t, dtype=float) ** 3,
            description="smooth cubic solution, quadratic nonlinearity",
        )

    if pid == "ex4_liu":

        def f(t):
            t = np.asarray(t, dtype=float)
            return 128.0 * t**2.75 * (3933.0 + 256.0 * t**4 * (8.0 + 9.0 * t)) / 908523.0

        spec = ProblemSpec(
            alpha=0.75,
            T=1.0,
            kappa=lambda t, s: t**2 * s**3 + s**4 + 1.0,
            psi=lambda t, s, u: u,
            dpsi_du=lambda t, s, u: np.ones_like(np.asarray(u, dtype=float)),
            f=f,
            linear=True,
        )
        return BenchmarkProblem(
            pid,
            spec,
            lambda t: np.asarray(t, dtype=float) ** 2,
            description="linear, polynomial kernel, smooth quadratic solution",
        )

    if pid == "ex5_discontinuous":
        # left-continuous representative: the jump point belongs to the
        # element ending there, matching the half-open element convention
        def exact(t):
            t = np.asarray(t, dtype=float)
            return np.where(t <= 0.5, np.exp(-t), 2.0 - t**2)

        spec = ProblemSpec(
            alpha=0.8,
            T=1.0,
            kappa=lambda t, s: np.sin(t - s),
            psi=lambda t, s, u: u**5,
            dpsi_du=lambda t, s, u: 5.0 * u**4,
            f=_ex5_rhs,
        )
        return BenchmarkProblem(
            pid,
            spec,
            exact,
            init_constant=1.0,
            mesh_hints=(0.5,),
            description="discontinuous solution, kernel vanishing on the diagonal",
        )

    # ex6_unknown; np.where evaluates all branches, so divisions are guarded
    def kamp(t, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                s < 0.5,
                t**2 - s + 5.0,
                np.where(s < 1.0, np.exp(s * t) + 4.0 / (s + 1.0) - 2.0, t / s),
            )

    def psi6(t, s, u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.cos(2.0 * s * u) - 3.0 * np.log(u) - np.sqrt(s * u)

    def dpsi6(t, s, u):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -2.0 * s * np.sin(2.0 * s * u) - 3.0 / u - 0.5 * s / np.sqrt(s * u)

    spec = ProblemSpec(
        alpha=0.6,
        T=1.5,
        kappa=kamp,
        psi=psi6,
        dpsi_du=dpsi6,
        f=lambda t: np.asarray(t, dtype=float) ** 1.5 - np.asarray(t, dtype=float),
    )
    return BenchmarkProblem(
        pid,
        spec,
        None,
        init_constant=1.0,
        mesh_hints=(0.5, 1.0),
        description="piecewise kernel, no closed-form solution (high-res baseline)",
    )


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

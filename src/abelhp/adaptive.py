"""Adaptive hp refinement: raise degrees or split elements until a target error.

The driver re-solves after each refinement and stops once the error estimate
(against a reference solution when one is available, otherwise the change
from the previous iterate) drops below the tolerance, or the unknown budget
is exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# bench names are looked up at call time, so perfbench/tracing.py can wrap them
from . import bench
from .discretization import ProblemSpec
from .mesh import Mesh
from .quadrature import HistoryAccuracyError
from .solver import PiecewiseSolution, SolverError, SolverOptions, evaluate, solve

__all__ = [
    "AdaptiveOptions",
    "AdaptiveStep",
    "AdaptiveTrace",
    "BudgetExceededError",
    "adaptive_solve",
]

STRATEGIES = ("p_first", "h_first", "alternate")
ERROR_METRICS = ("E1_vs_reference", "E2_vs_reference", "successive_diff")

#: sample count per element for the successive-difference estimate
SUCCESSIVE_DIFF_SAMPLES = 33

_TRACE_COLUMNS = ("step", "N", "degrees", "L", "estimate", "elapsed_s")
_TRACE_CELLS = {
    "degrees": lambda degrees: ";".join(str(m) for m in degrees),
    "estimate": "{:.6e}".format,
    "elapsed_s": "{:.4f}".format,
}


@dataclass(frozen=True)
class AdaptiveOptions:
    tol: float
    strategy: str = "p_first"
    max_L: int = 200
    error_metric: str = "E2_vs_reference"

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.error_metric not in ERROR_METRICS:
            raise ValueError(f"error metric must be one of {ERROR_METRICS}")


@dataclass
class AdaptiveStep:
    mesh: Mesh
    L: int
    estimate: float
    elapsed_s: float


@dataclass
class AdaptiveTrace:
    steps: list[AdaptiveStep] = field(default_factory=list)

    def append(self, step: AdaptiveStep):
        if self.steps and step.L < self.steps[-1].L:
            raise ValueError("unknown count must not decrease across steps")
        self.steps.append(step)

    def _write(self, fmt: str) -> str:
        records = [
            {
                "step": i,
                "N": s.mesh.N,
                "degrees": [int(m) for m in s.mesh.degrees],
                "L": s.L,
                "estimate": s.estimate,
                "elapsed_s": s.elapsed_s,
            }
            for i, s in enumerate(self.steps)
        ]
        return bench._write_rows(fmt, records, _TRACE_COLUMNS, _TRACE_CELLS, {}, "steps")

    def to_json(self) -> str:
        return self._write("json")

    def to_csv(self) -> str:
        return self._write("csv")


class BudgetExceededError(RuntimeError):
    def __init__(self, estimate: float, trace: AdaptiveTrace):
        self.estimate = estimate
        self.trace = trace
        super().__init__(
            f"refinement budget exhausted with error estimate {estimate:.3e}"
        )


def _tail_indicator(solution: PiecewiseSolution) -> np.ndarray:
    """Per-element norm of the top Legendre mode (spectral tail)."""
    mesh = solution.mesh
    top = solution.coeffs[mesh.offsets[1:] - 1]
    return np.abs(top) * np.sqrt(mesh.widths / (2.0 * mesh.degrees + 1.0))


def _refine(mesh: Mesh, solution: PiecewiseSolution, mode: str) -> Mesh:
    if mode == "p":
        return mesh.with_degrees(mesh.degrees + 1)
    worst = int(np.argmax(_tail_indicator(solution)))
    bp, deg = mesh.breakpoints, mesh.degrees
    mid = 0.5 * (bp[worst] + bp[worst + 1])
    # the halves of element worst + 1 both take its degree
    return Mesh(np.concatenate((bp[: worst + 1], [mid], bp[worst + 1 :])),
                np.concatenate((deg[: worst + 1], deg[worst:])))


def adaptive_solve(
    problem: ProblemSpec,
    initial_mesh: Mesh,
    options: AdaptiveOptions,
    reference=None,
    solver_options: SolverOptions | None = None,
) -> tuple[PiecewiseSolution, AdaptiveTrace]:
    """Refine until the error estimate meets the tolerance or L exceeds max_L.

    ``p_first`` raises every element degree by one per step, ``h_first``
    bisects the element with the largest spectral-tail indicator, and
    ``alternate`` interleaves the two (degree raise first).  Deterministic
    for fixed inputs.

    A ``SolverError`` or ``HistoryAccuracyError`` raised by a solve leaves
    with two attributes added: ``trace``, the steps solved before it, and
    ``mesh``, the mesh whose solve raised.
    """
    if options.error_metric.endswith("_vs_reference") and reference is None:
        raise ValueError(f"metric {options.error_metric} needs a reference solution")
    if options.max_L < initial_mesh.L:
        raise ValueError("max_L is below the initial unknown count")

    mesh = initial_mesh
    trace = AdaptiveTrace()
    previous = None
    step_index = 0
    while True:
        tic = time.perf_counter()
        try:
            solution = solve(problem, mesh, solver_options)
        except (SolverError, HistoryAccuracyError) as exc:
            exc.trace, exc.mesh = trace, mesh
            raise
        if options.error_metric == "E1_vs_reference":
            estimate = bench.error_E1(solution, reference)
        elif options.error_metric == "E2_vs_reference":
            estimate = bench.error_E2(solution, reference)
        else:
            if previous is None:
                estimate = np.inf
            else:
                grid = bench._sample_grid(mesh, SUCCESSIVE_DIFF_SAMPLES).ravel()
                estimate = float(
                    np.max(np.abs(evaluate(solution, grid) - evaluate(previous, grid)))
                )
        trace.append(
            AdaptiveStep(mesh, mesh.L, float(estimate), time.perf_counter() - tic)
        )
        if estimate <= options.tol:
            return solution, trace

        if options.strategy == "p_first":
            mode = "p"
        elif options.strategy == "h_first":
            mode = "h"
        else:
            mode = "p" if step_index % 2 == 0 else "h"
        new_mesh = _refine(mesh, solution, mode)
        if new_mesh.L > options.max_L:
            raise BudgetExceededError(float(estimate), trace)
        previous = solution
        mesh = new_mesh
        step_index += 1

"""Output census: one SHA-256 over every output of the benchmark's cases.

Run from a checkout's root::

    python3 tools/census.py

It imports ``src`` and ``perfbench/workloads.py`` of the checkout it sits
in, writes nothing there, and solves every distinct case of the three
workloads for seeds 1-10, as the benchmark's worker does.  Each case adds to
the hash its coefficients (raw bytes), E1 and E2 (``float.hex``), every
adaptive step's degrees and estimate, and a failure's class and message.
Two checkouts whose last lines agree produce the same outputs bit for bit;
the per-case lines above it show which case differs when they do not.
"""

from __future__ import annotations

import hashlib
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the benchmark's seeds; a seed only picks ex1's alpha, and 1-4 all pick 0.3
SEEDS = range(1, 11)


def _steps(trace) -> list[str]:
    return [f"{s.mesh.degrees.tolist()} {float(s.estimate).hex()}" for s in trace.steps]


def case_record(case) -> list[str]:
    """Every output of one case, as text; the coefficients as their hex bytes."""
    from abelhp import adaptive, bench, solver, uniform_mesh
    from workloads import FixedCase

    out, trace = [case.label], None
    try:
        problem = bench.make_benchmark(case.problem, case.alpha)
        if isinstance(case, FixedCase):
            mesh = bench.mesh_for(problem, case.N, case.M)
            solution = solver.solve(problem.spec, mesh, problem.solver_options())
        else:
            options = adaptive.AdaptiveOptions(tol=case.tol, strategy=case.strategy,
                                               max_L=case.max_L)
            solution, trace = adaptive.adaptive_solve(
                problem.spec, uniform_mesh(case.N0, problem.spec.T, case.degree0),
                options, reference=problem.exact, solver_options=problem.solver_options(),
            )
    except Exception as exc:  # a failure is an output too
        out.append(f"{type(exc).__name__}: {exc}")
        trace = getattr(exc, "trace", None)
    else:
        out.append(solution.coeffs.tobytes().hex())
        for metric in (bench.error_E1, bench.error_E2):
            out.append(float(metric(solution, problem.exact)).hex())
    return out + ([] if trace is None else _steps(trace))


def main() -> None:
    sys.dont_write_bytecode = True  # leave the checkout as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import abelhp
    from workloads import WORKLOADS

    if Path(abelhp.__file__).resolve().parent != ROOT / "src" / "abelhp":
        raise SystemExit(f"abelhp imported from {abelhp.__file__}, not from {ROOT / 'src'}")
    warnings.simplefilter("ignore")
    cases = {}  # distinct cases in first-seen order; the seeds only pick ex1's alpha
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            for case in make(random.Random(seed)):
                cases.setdefault(case, name)
    total = hashlib.sha256()
    for case, name in cases.items():
        digest = hashlib.sha256("\n".join(case_record(case)).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{name:16} {case.label:40} {digest[:16]}")
    print(f"census {len(cases)} cases {total.hexdigest()}")


if __name__ == "__main__":
    main()

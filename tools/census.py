"""Output census: one SHA-256 over every output of the benchmark's cases.

Run from a checkout's root::

    python3 tools/census.py [CHECKOUT]

It imports ``src`` and ``perfbench/workloads.py`` of ``CHECKOUT`` (by
default the checkout it sits in), writes nothing there, and solves every
distinct case of the three workloads for seeds 1-10, as the benchmark's
worker does, and then the coarse ex5 meshes ``mesh_for(ex5, N, M)`` for
N in {2, 4, 6} and M in {2, 3, 4}, which the benchmark's grid leaves out and
on which ex5 can return a wrong answer without raising (label
``coarse_ex5``), and then ``abelhp.forward_apply`` of each registered exact
solution (ex1 at each alpha of ``AUDIT_ALPHAS``, ex2 to ex5) at ``AUDIT_TIMES``
times k T / 8, with its ``mesh_hints`` as breakpoints (label ``audit``; its
values as raw bytes).  Each case adds to the hash its coefficients (raw bytes),
E1 and E2 (``float.hex``), every adaptive step's degrees and estimate, and a
failure's class and message.  Two checkouts whose last lines agree, run by
the same census file, produce the same outputs bit for bit; the per-case
lines above it show which case differs when they do not.  A census file
that lists other cases gives another hash, so compare two checkouts by
running one file on both (pass the other checkout as ``CHECKOUT``).

Each per-case line also prints what a change that moves last bits is judged
by: the outcome (``ok``, or the failure's class and the element it names),
the adaptive step count (``-`` on a fixed mesh), and E2 to 4 significant
digits (an adaptive failure's last estimate, ``-`` where there is none).
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import warnings
from pathlib import Path

#: the benchmark's seeds; a seed only picks ex1's alpha, and 1-4 all pick 0.3
SEEDS = range(1, 11)
#: (N, M) of the coarse ex5 meshes solved after the workloads' cases
COARSE_EX5 = [(N, M) for N in (2, 4, 6) for M in (2, 3, 4)]
#: ex1's alphas and the number of times of the forward_apply audit
AUDIT_ALPHAS = (0.3, 0.5, 0.7)
AUDIT_TIMES = 8


def _steps(trace) -> list[str]:
    return [f"{s.mesh.degrees.tolist()} {float(s.estimate).hex()}" for s in trace.steps]


def case_record(case) -> tuple[list[str], str]:
    """Every output of one case as text, the coefficients as their hex bytes,
    and its summary: outcome, adaptive steps and E2."""
    from abelhp import adaptive, bench, solver, uniform_mesh
    from workloads import FixedCase

    out, trace, outcome, E2 = [case.label], None, "ok", None
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
        element = getattr(exc, "n", None)
        outcome = type(exc).__name__ + ("" if element is None else f" on element {element}")
        E2 = getattr(exc, "estimate", None)
    else:
        out.append(solution.coeffs.tobytes().hex())
        for metric in (bench.error_E1, bench.error_E2):
            E2 = metric(solution, problem.exact)
            out.append(float(E2).hex())
    steps = "-" if isinstance(case, FixedCase) else len(trace.steps) if trace else 0
    summary = f"{outcome} steps={steps} E2={'-' if E2 is None else f'{E2:.4g}'}"
    return out + ([] if trace is None else _steps(trace)), summary


def audit_record(problem_id: str, alpha: float | None) -> tuple[list[str], str]:
    """forward_apply of one registered exact solution at the audit times, as
    text with the values as their hex bytes, and its outcome."""
    import numpy as np
    import abelhp

    label = problem_id + ("" if alpha is None else f" a={alpha}")
    try:
        b = abelhp.make_benchmark(problem_id, alpha)
        times = b.spec.T * np.arange(1, AUDIT_TIMES + 1) / AUDIT_TIMES
        values = abelhp.forward_apply(b.spec, b.exact, times, breakpoints=b.mesh_hints)
    except Exception as exc:
        return [label, f"{type(exc).__name__}: {exc}"], type(exc).__name__
    return [label, values.tobytes().hex()], "ok"


def checkout_root() -> Path:
    """The checkout named by the first argument, by default the one this file
    sits in, with its ``src`` and ``perfbench`` first on ``sys.path``; writes
    no bytecode there."""
    sys.dont_write_bytecode = True  # leave the checkout as it is
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    return root


def workload_cases() -> dict:
    """Each distinct case of the three workloads for ``SEEDS``, in first-seen
    order, mapped to its workload's name; the seeds only pick ex1's alpha."""
    from workloads import WORKLOADS

    cases = {}
    for name, make in WORKLOADS.items():
        for seed in SEEDS:
            for case in make(random.Random(seed)):
                cases.setdefault(case, name)
    return cases


def main() -> None:
    root = checkout_root()
    import abelhp
    from workloads import FixedCase

    if Path(abelhp.__file__).resolve().parent != root / "src" / "abelhp":
        raise SystemExit(f"abelhp imported from {abelhp.__file__}, not from {root / 'src'}")
    warnings.simplefilter("ignore")
    cases = workload_cases()
    for N, M in COARSE_EX5:  # no target: the census judges no case
        cases.setdefault(FixedCase("ex5", N, M, math.inf), "coarse_ex5")
    audits = [("ex1", a) for a in AUDIT_ALPHAS] + [(f"ex{k}", None) for k in range(2, 6)]
    records = [(name, *case_record(case)) for case, name in cases.items()]
    records += [("audit", *audit_record(*audit)) for audit in audits]
    total = hashlib.sha256()
    for name, record, summary in records:
        digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
        total.update(digest.encode())
        print(f"{name:16} {record[0]:40} {digest[:16]}  {summary}")
    print(f"census {len(records)} cases {total.hexdigest()}")


if __name__ == "__main__":
    main()

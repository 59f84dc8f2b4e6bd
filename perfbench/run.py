"""abelhp benchmark: seconds to a solution of stated accuracy, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hist_linear --seed 1 --seconds 20 --trace 0

Workloads (defined, with the reason for each case, in ``workloads.py``):
``hist_linear``, ``nonlinear_march`` and ``adaptive_tol``.

Each run starts fresh worker processes with one BLAS/OpenMP thread that
import abelhp from ``src``.  With ``--trace 0`` three of them set up (import,
build the cases, one warm-up pass that fills the library's process-wide
caches); the last then times steady passes for ``--seconds``.  It prints the
end-to-end metrics:

- ``setup_s``: median set-up time of the three workers;
- ``wall_s``: median seconds of one steady pass over all the workload's
  cases (each pass rebuilds every problem and shuffles the case order);
- ``solved_frac``: share of cases that met their accuracy target, that is
  1 - fail_frac, where fail_frac counts cases that raised, ran out of
  budget, or missed their target;
- ``peak_rss_mb``: peak resident memory of the timing worker.

``setup_s`` and ``wall_s`` are scaled by a fixed host-speed probe timed
between cases (see ``worker.py``), because the host's own speed drifts far
more between runs than the library's cost does; the unscaled figures are
printed beside them.

With ``--trace 1`` one worker alternates untraced and traced passes and
prints per-layer counts and self times (see ``tracing.py``), and the tracing
overhead as traced minus untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when a solve returned an answer above its E2 target, or when an outcome or
per-layer count differed between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_WORKERS = 3
TIME_LIMIT_S = 170.0
FAILURE_CLASSES = (
    "NewtonDivergedError",
    "SingularJacobianError",
    "QuadratureConvergenceError",
    "HistoryAccuracyError",
    "BudgetExceededError",
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_cases(result: dict):
    env = result["env"]
    print(f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} loadavg={env['loadavg']} "
          f"loadavg_end={result['env_end']['loadavg']}")
    print(f"passes={result['passes']} traced_passes={result['traced_passes']} "
          f"cases_per_pass={result['cases_per_pass']}")
    for row in result["rows"]:
        E2 = "-" if row["E2"] is None else f"{row['E2']:.3e}"
        print(f"  {row['case']:<40} {row['status']:<20} E2={E2:<10} "
              f"target={row['target_E2']:.3e} median={row['median_s']:.4f}s")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "abelhp" / "__init__.py").is_file():
        raise SystemExit(f"abelhp sources not found under {SRC}")

    deadline = time.monotonic() + TIME_LIMIT_S
    setup = []
    if not args.trace:
        for _ in range(SETUP_WORKERS - 1):
            setup.append(run_worker(args, deadline, "--setup-only"))
    result = run_worker(args, deadline)
    setup.append(result)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    report_cases(result)
    cases = result["cases_per_pass"]
    runs = result["passes"] + result["traced_passes"]
    fail_frac = result["failed_per_pass"] / cases
    if args.trace:
        metrics = dict(result["layers"])
        errors = result["errors_per_pass"]
        for name in FAILURE_CLASSES:
            metrics[f"solver.failures.{name}"] = (errors.get(name, 0), "count")
        metrics["solver.failures.other"] = (
            sum(n for name, n in errors.items() if name not in FAILURE_CLASSES), "count")
        metrics["cases.missed_target"] = (result["missed_per_pass"], "count")
        metrics["cases.fail_frac"] = (fail_frac, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
            "wall_s": (result["wall_s"], "s"),
            "solved_frac": (1.0 - fail_frac, "ratio"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        q1, _, q3 = result["wall_quartiles"]
        print("setup_s samples (scaled / unscaled): " + ", ".join(
            f"{r['setup_s']:.4f} / {r['setup_raw_s']:.4f}" for r in setup))
        print(f"wall_s quartiles: {q1:.4f} .. {q3:.4f} over {result['passes']} passes; "
              f"unscaled median {result['wall_raw_s']:.4f} s, probe {result['probe_s']:.5f} s")
        print(f"fail_frac: {fail_frac:.4f} ratio "
              f"({result['failed_per_pass']}/{cases} cases per pass)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": cases * runs,
        "failed": result["failed_per_pass"] * runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

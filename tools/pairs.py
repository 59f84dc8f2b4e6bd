"""Interleaved benchmark pairs of two checkouts, judged as the benchmark's claim rule does.

Run from anywhere::

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs 10 --seconds 25 [--first-seed S]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds ... --trace 0``
once from each checkout, each with its own ``perfbench/run.py`` and ``src``;
even pairs run PARENT first and odd pairs CHANGE first, so host drift falls
on both sides.  Every run gets ``PYTHONDONTWRITEBYTECODE=1``, and the tool
refuses to start, or stops, while either checkout holds a ``__pycache__``:
a process that imports abelhp from cached bytecode skips compiling it, and
its peak memory is then lower for a reason that has nothing to do with the
code (README, the `tools/pairs.py` paragraph).

It prints every run's end-to-end metrics, then for each metric the medians
and quartiles of both sides, the pairs the change won (by the metric's
``better`` direction in CHANGE's ``BENCHMARK.json``), and whether the claim
rule holds: the change wins at least nine pairs in ten, and its median beats
the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, args, seed: int) -> dict:
    found = sorted(root.rglob("__pycache__"))
    if found:
        raise SystemExit(f"{root} holds bytecode caches, remove them first: "
                         + " ".join(map(str, found)))
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} failed in {root} with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {root.name}: run marked not correct", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = (args.parent.resolve(), args.change.resolve())
    spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = ([], [])  # per side: one dict of metrics per pair
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_once(roots[side], args, seed))
        print(f"pair {i + 1} seed {seed}: " + "; ".join(
            f"{name} {runs[0][-1][name]:.6g} -> {runs[1][-1][name]:.6g}" for name in better),
            flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    need = math.ceil(0.9 * args.pairs)
    for name, direction in better.items():
        old, new = ([r[name] for r in side] for side in runs)
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        q1, med_old, q3 = statistics.quantiles(old, n=4, method="inclusive")
        n1, med_new, n3 = statistics.quantiles(new, n=4, method="inclusive")
        change = (med_new - med_old) / abs(med_old) if med_old else math.nan
        holds = wins >= need and sign * (med_old - med_new) > q3 - q1
        print(f"{name:12} parent {med_old:.6g} ({q1:.6g}-{q3:.6g})  "
              f"change {med_new:.6g} ({n1:.6g}-{n3:.6g})  {change:+.2%}  "
              f"{direction} in {wins}/{args.pairs}  claim {'holds' if holds else 'does not hold'}")


if __name__ == "__main__":
    main()

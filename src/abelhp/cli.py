"""Command-line benchmark driver.

Examples::

    abel-hp list
    abel-hp run --problem ex3 --N 10,20,40 --M 3
    abel-hp run --problem ex1 --alpha 0.3 --N 2 --M 3,5,7 --format json
    abel-hp run --problem ex2 --N 32,64,128 --M 2 --noise h^2.5 --out table.csv
    abel-hp run --problem ex4 --N 1 --M 2 --adaptive p_first --tol 1e-13
    abel-hp run --config run.json

Exit codes: 0 on success, 2 when any sweep row failed, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .adaptive import STRATEGIES, AdaptiveOptions, BudgetExceededError, adaptive_solve
from .bench import (
    PROBLEM_IDS,
    BenchReport,
    BenchRow,
    make_benchmark,
    mesh_for,
    parse_noise,
    reference_solution,
    run_mesh,
    run_sweep,
)
from .mesh import DOMAIN_TOL, Mesh
from .quadrature import HistoryAccuracyError
from .solver import SolverError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="abel-hp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the benchmark registry")

    run = sub.add_parser("run", help="run a refinement sweep or an adaptive solve")
    run.add_argument("--problem", help="registry id (ex1..ex6 or full name)")
    run.add_argument("--alpha", type=float, help="singularity exponent (ex1 only)")
    run.add_argument("--N", help="comma list of element counts")
    run.add_argument("--M", help="comma list of basis counts per element (degree + 1)")
    run.add_argument("--noise", help="right-hand side noise: a float or h^<power>")
    run.add_argument("--tol", type=float, help="adaptive target error")
    run.add_argument("--adaptive", dest="strategy", choices=STRATEGIES,
                     help="run the adaptive loop from the first (N, M) pair")
    run.add_argument("--max-L", type=int,
                     help=f"adaptive unknown budget (default: {AdaptiveOptions.max_L})")
    run.add_argument("--format", choices=("csv", "json"))
    run.add_argument("--out", help="output path (default: stdout)")
    run.add_argument("--config", help="JSON config file; flags override its entries")
    return parser


# the config entries _cmd_run reads: the adaptive ones may also sit at the top level
_ADAPTIVE_KEYS = {f.name for f in dataclasses.fields(AdaptiveOptions)}
_CONFIG_KEYS = {"problem", "alpha", "sweep", "mesh", "solver", "adaptive", "noise", "format",
                "out", *_ADAPTIVE_KEYS}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _UsageError(f"config {path} is not a JSON object")
    return cfg


def _check_keys(where: str, entry: dict, known: set) -> None:
    """A usage error naming every key of ``entry`` outside ``known``: none is dropped silently."""
    unread = sorted(set(entry) - known)
    if unread:
        raise _UsageError(f"{where} does not read {', '.join(map(repr, unread))} "
                          f"(it reads {', '.join(sorted(known))})")


def _sweep_pairs(Ns, Ms):
    if len(Ns) == len(Ms):
        return list(zip(Ns, Ms))
    if len(Ns) == 1:
        return [(Ns[0], m) for m in Ms]
    if len(Ms) == 1:
        return [(n, Ms[0]) for n in Ns]
    raise _UsageError("--N and --M lists must have equal length (or one be scalar)")


def _explicit_mesh(mesh_cfg: dict, T: float) -> Mesh:
    """Mesh on explicit breakpoints, which must end at T.

    "degrees" is one degree per element or a scalar for all; without it, "M"
    (scalar or list) counts basis functions, degree + 1; with neither, every
    element has degree 1.
    """
    try:
        bp = np.asarray(mesh_cfg["breakpoints"], dtype=float)
        if "degrees" in mesh_cfg:
            deg = np.asarray(mesh_cfg["degrees"], dtype=int)
        else:
            deg = np.asarray(mesh_cfg.get("M", 2), dtype=int) - 1
        mesh = Mesh(bp, np.full(bp.size - 1, deg) if deg.ndim == 0 else deg)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad mesh config: {exc}") from exc
    if abs(mesh.T - T) > DOMAIN_TOL * max(1.0, T):
        raise _UsageError(f"mesh breakpoints end at {mesh.T}, not at T = {T}")
    return mesh


def _cmd_list(out) -> int:
    rows = []
    for pid in PROBLEM_IDS:
        bench = make_benchmark(pid, 0.5 if pid == "ex1_singular" else None)
        alpha = "parameter" if pid == "ex1_singular" else f"{bench.spec.alpha:g}"
        rows.append(
            (
                pid,
                alpha,
                f"{bench.spec.T:g}",
                "linear" if bench.spec.linear else "nonlinear",
                "yes" if bench.exact is not None else "baseline",
                bench.description,
            )
        )
    header = ("id", "alpha", "T", "kind", "exact", "description")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)), file=out)
    return 0


def _adaptive_report(bench, mesh: Mesh, options, adapt: AdaptiveOptions) -> BenchReport:
    reference = reference_solution(bench)
    report = BenchReport(bench.id)
    budget_hit = False
    failure = None
    try:
        _, trace = adaptive_solve(
            bench.spec, mesh, adapt, reference=reference, solver_options=options
        )
    except BudgetExceededError as exc:
        trace, budget_hit = exc.trace, True
    except (SolverError, HistoryAccuracyError) as exc:
        trace, failure = exc.trace, exc
    for step in trace.steps:
        E2 = step.estimate if np.isfinite(step.estimate) else None
        report.rows.append(BenchRow.for_mesh(step.mesh, E2=E2, runtime_s=step.elapsed_s))
    if failure is not None:
        report.rows.append(BenchRow.for_mesh(failure.mesh, failed=True, error=str(failure)))
    elif budget_hit and report.rows:
        report.rows[-1].failed = True
        report.rows[-1].error = "refinement budget exhausted before reaching tol"
    return report


def _cmd_run(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _check_keys("config", cfg, _CONFIG_KEYS)
    _check_keys("adaptive config", cfg.get("adaptive", {}), _ADAPTIVE_KEYS)
    if "sweep" in cfg and "mesh" in cfg:
        raise _UsageError("config gives both sweep and mesh; a run takes one of them")
    # the config's top-level and "adaptive" entries, with every given flag over them
    settings = {**cfg, **cfg.get("adaptive", {})}
    settings.update((k, v) for k, v in vars(args).items() if v is not None)

    problem = settings.get("problem")
    if not problem:
        raise _UsageError("--problem (or a config entry) is required")
    try:
        bench = make_benchmark(problem, settings.get("alpha"))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    try:
        options = bench.solver_options(**cfg.get("solver", {}))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad solver options: {exc}") from exc

    mesh_cfg = cfg.get("mesh", {})
    # an explicit mesh reads these keys, a uniform one N and M: drop none silently
    known = {"breakpoints", "degrees", "M"} if "breakpoints" in mesh_cfg else {"N", "M"}
    _check_keys("mesh config", mesh_cfg, known)
    Ns = _int_list(args.N) if args.N else None
    Ms = _int_list(args.M) if args.M else None
    explicit_mesh = None
    sweep = None
    if "breakpoints" in mesh_cfg and not (Ns or Ms):
        explicit_mesh = _explicit_mesh(mesh_cfg, bench.spec.T)
    elif "sweep" in cfg and not (Ns or Ms):
        sweep = [(int(n), int(m)) for n, m in cfg["sweep"]]
    else:
        if Ns is None:
            Ns = [int(mesh_cfg["N"])] if "N" in mesh_cfg else None
        if Ms is None:
            Ms = [int(mesh_cfg["M"])] if "M" in mesh_cfg else None
        if not Ns or not Ms:
            raise _UsageError("need --N and --M (or config mesh/sweep entries)")
        sweep = _sweep_pairs(Ns, Ms)

    if sweep is not None and any(n < 1 or m < 2 for n, m in sweep):
        raise _UsageError("need N >= 1 and M >= 2 (M counts basis functions per element)")
    noise = settings.get("noise")
    strategy, tol = settings.get("strategy"), settings.get("tol")
    if noise is not None and strategy:
        raise _UsageError("--noise and --adaptive do not go together: "
                          "adaptive runs solve f as given")
    if noise is not None:
        # at each mesh's own width: 'h^<power>' can overflow there and not at h = 1
        meshes = ([explicit_mesh] if explicit_mesh is not None
                  else [mesh_for(bench, n, m) for n, m in sweep])
        try:
            for mesh in meshes:
                parse_noise(noise, mesh.h_max)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad noise {noise!r}: {exc}") from exc

    if strategy:
        if tol is None:
            raise _UsageError("adaptive runs need --tol")
        try:
            max_L = int(settings.get("max_L", AdaptiveOptions.max_L))
            adapt = AdaptiveOptions(tol=tol, strategy=strategy, max_L=max_L)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad adaptive options: {exc}") from exc
        if explicit_mesh is not None:
            mesh = explicit_mesh
        else:
            N0, M0 = sweep[0]
            mesh = mesh_for(bench, N0, M0)
        if max_L < mesh.L:
            raise _UsageError(f"max_L {max_L} is below the initial unknown count {mesh.L}")
        report = _adaptive_report(bench, mesh, options, adapt)
    elif explicit_mesh is not None:
        report = BenchReport(bench.id)
        report.rows.append(run_mesh(bench, explicit_mesh, options, noise))
    else:
        report = run_sweep(bench, sweep, options=options, noise=noise)

    text = report.to_json() if settings.get("format") == "json" else report.to_csv()
    out_path = settings.get("out")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 2 if report.any_failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list(sys.stdout)
        return _cmd_run(args)
    except _UsageError as exc:
        print(f"abel-hp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

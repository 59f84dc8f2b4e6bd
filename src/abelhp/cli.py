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
    BenchReport,
    BenchRow,
    mesh_for,
    parse_noise,
    reference_solution,
    run_mesh,
    run_sweep,
)
from .mesh import DOMAIN_TOL, Mesh
from .problems import PROBLEM_IDS, make_benchmark
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


# the config entries _cmd_run reads; "adaptive" mirrors AdaptiveOptions as
# "solver" mirrors SolverOptions
_ADAPTIVE_KEYS = {f.name for f in dataclasses.fields(AdaptiveOptions)}
_CONFIG_KEYS = {"problem", "alpha", "sweep", "mesh", "solver", "adaptive", "noise", "format",
                "out"}
_MESH_KEYS = {"breakpoints", "degrees"}

# JSON's own types, checked as given (null too): type(v) is int rejects the
# bools that isinstance takes
_int = lambda v: type(v) is int
_number = lambda v: type(v) in (int, float)
_SETTING_TYPES = {
    "problem": (lambda v: type(v) is str, "a registry id string"),
    "alpha": (_number, "a number"),
    "sweep": (lambda v: isinstance(v, list) and v and all(
        isinstance(p, list) and len(p) == 2 and all(map(_int, p)) for p in v),
        "a nonempty list of [N, M] integer pairs"),
    "noise": (lambda v: _number(v) or type(v) is str, "a number or an 'h^<power>' string"),
    "tol": (_number, "a number"),
    "max_L": (_int, "an integer"),
    "format": (lambda v: v in ("csv", "json"), "csv or json"),
    "out": (lambda v: type(v) is str, "a path string"),
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc


def _check_keys(where: str, entry: dict, known: set) -> None:
    """A usage error naming every key of ``entry`` outside ``known``: none is dropped silently."""
    if not isinstance(entry, dict):
        raise _UsageError(f"{where} must be a JSON object, got {entry!r}")
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

    "degrees" is one integer degree per element, or one for all; without it,
    every element has degree 1.
    """
    if "breakpoints" not in mesh_cfg:
        raise _UsageError("mesh config needs breakpoints")
    deg = mesh_cfg.get("degrees", 1)
    if not (_int(deg) or isinstance(deg, list) and all(map(_int, deg))):
        raise _UsageError(f"mesh degrees must be an integer or a list of them, got {deg!r}")
    try:
        bp = np.asarray(mesh_cfg["breakpoints"], dtype=float)
        mesh = Mesh(bp, np.full(bp.size - 1, deg) if _int(deg) else deg)
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
    except SolverError as exc:
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
    _check_keys("mesh config", cfg.get("mesh", {}), _MESH_KEYS)
    if "sweep" in cfg and "mesh" in cfg:
        raise _UsageError("config gives both sweep and mesh; a run takes one of them")
    # the config's top-level and "adaptive" entries, with every given flag over them
    settings = {**cfg, **cfg.get("adaptive", {})}
    settings.update((k, v) for k, v in vars(args).items() if v is not None)
    for key, (ok, want) in _SETTING_TYPES.items():
        if key in settings and not ok(settings[key]):
            raise _UsageError(f"{key} must be {want}, got {settings[key]!r}")

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

    Ns = _int_list(args.N) if args.N else None
    Ms = _int_list(args.M) if args.M else None
    mesh = sweep = None
    if Ns or Ms or not ("mesh" in cfg or "sweep" in cfg):
        if not Ns or not Ms:
            raise _UsageError("need --N and --M (or a config sweep or mesh)")
        sweep = _sweep_pairs(Ns, Ms)
    elif "mesh" in cfg:
        mesh = _explicit_mesh(cfg["mesh"], bench.spec.T)
    else:
        sweep = [tuple(p) for p in cfg["sweep"]]

    if sweep is not None and any(n < 1 or m < 2 for n, m in sweep):
        raise _UsageError("need N >= 1 and M >= 2 (M counts basis functions per element)")
    noise = settings.get("noise")
    strategy, tol = settings.get("strategy"), settings.get("tol")
    if noise is not None and strategy:
        raise _UsageError("--noise and --adaptive do not go together: "
                          "adaptive runs solve f as given")
    if noise is not None:
        # at each mesh's own width: 'h^<power>' can overflow there and not at h = 1
        meshes = [mesh] if mesh is not None else [mesh_for(bench, n, m) for n, m in sweep]
        try:
            for each in meshes:
                parse_noise(noise, each.h_max)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad noise {noise!r}: {exc}") from exc

    if strategy:
        if tol is None:
            raise _UsageError("adaptive runs need --tol")
        if sweep is not None and len(sweep) != 1:
            raise _UsageError(f"an adaptive run starts from one mesh: give one (N, M) pair, "
                              f"not {len(sweep)}")
        try:
            adapt = AdaptiveOptions(tol, strategy, settings.get("max_L", AdaptiveOptions.max_L))
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad adaptive options: {exc}") from exc
        if mesh is None:
            mesh = mesh_for(bench, *sweep[0])
        if adapt.max_L < mesh.L:
            raise _UsageError(f"max_L {adapt.max_L} is below the initial unknown count {mesh.L}")
    elif {"tol", "max_L", "adaptive"} & settings.keys():
        raise _UsageError("--tol, --max-L and the adaptive config are read by adaptive runs "
                          "alone: give --adaptive or a strategy")

    out_path = settings.get("out")
    try:
        # opened before the solve, so that a path it cannot write costs no solve
        out = open(out_path, "w") if out_path else None
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    if strategy:
        report = _adaptive_report(bench, mesh, options, adapt)
    elif mesh is not None:
        report = BenchReport(bench.id)
        report.rows.append(run_mesh(bench, mesh, options, noise))
    else:
        report = run_sweep(bench, sweep, options=options, noise=noise)

    text = report.to_json() if settings.get("format") == "json" else report.to_csv()
    if out is not None:
        with out:
            out.write(text)
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

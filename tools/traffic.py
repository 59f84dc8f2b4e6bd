"""Traffic: the code in ``src/abelhp`` that no benchmark case runs.

Run from a checkout's root::

    python3 tools/traffic.py [CHECKOUT]

It imports ``src`` and ``perfbench/workloads.py`` of ``CHECKOUT`` (by default
the checkout it sits in), writes nothing there, and runs every distinct case
of the three workloads for seeds 1-10 once, through ``census.case_record``,
under ``sys.settrace``.  The trace starts before abelhp is imported, so
module-level code counts too.  It then prints each module of ``src/abelhp``
that no case imports, each function of the others that no case calls, and
each statement that no case runs outside those functions, as line ranges
under the function or class that holds them.

A statement counts as run when any line of it ran: of its header, for a
compound statement (``if``, ``for``, ``def``, ...), whose body statements
count on their own.  Docstrings and other bare constants, annotations
without a value and ``global`` declarations compile to no code, so they are
left out, as are ``try`` headers.  A statement that shares its line with
another that ran counts as run.
"""

from __future__ import annotations

import ast
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import census


@dataclass
class _Statement:
    owner: str  # qualified name of the enclosing function or class, "" at module level
    functions: tuple  # the first line of each enclosing function
    first: int
    last: int  # the header's last line, for a compound statement


def _walk(body, owner: str, functions: tuple, out: list, defs: list) -> None:
    """Append a :class:`_Statement` per statement with code in ``body`` to
    ``out``, and (qualified name, first line) per function to ``defs``."""
    for node in body:
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                or isinstance(node, (ast.Global, ast.Nonlocal))
                or isinstance(node, ast.AnnAssign) and node.value is None):
            continue
        # a decorated function's code starts at its first decorator
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        blocks = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
        blocks += [[h] for h in getattr(node, "handlers", ())]
        last = max(first, min(b[0].lineno for b in blocks) - 1) if blocks else node.end_lineno
        if not isinstance(node, ast.Try):
            out.append(_Statement(owner, functions, first, last))
        inner_owner, inner_functions = owner, functions
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner_owner = f"{owner}.{node.name}" if owner else node.name
            if not isinstance(node, ast.ClassDef):
                defs.append((inner_owner, first))
                inner_functions = functions + (first,)
        for block in blocks:
            if isinstance(block[0], ast.ExceptHandler):
                handler = block[0]
                out.append(_Statement(owner, functions, handler.lineno,
                                      max(handler.lineno, handler.body[0].lineno - 1)))
                block = handler.body
            _walk(block, inner_owner, inner_functions, out, defs)


def _trace(files: set, run) -> tuple[set, set]:
    """Call ``run()`` under ``sys.settrace``: returns the (file, first line) of
    every code object of ``files`` called, and the (file, line) of every line run."""
    called, ran = set(), set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        called.add((code.co_filename, code.co_firstlineno))
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return called, ran


def main() -> None:
    root = census.checkout_root()
    package = root / "src" / "abelhp"
    files = {str(p): p for p in sorted(package.glob("*.py"))}
    warnings.simplefilter("ignore")
    cases = census.workload_cases()

    def run():
        import abelhp

        if Path(abelhp.__file__).resolve().parent != package:
            raise SystemExit(f"abelhp imported from {abelhp.__file__}, not from {package}")
        for case in cases:
            census.case_record(case)

    called, ran = _trace(set(files), run)
    if not called:
        raise SystemExit(f"no code of {package} was traced")
    n_funcs = n_unrun_funcs = n_stmts = n_unrun_stmts = 0
    unimported, unrun_funcs, ranges = [], [], []
    for name, path in files.items():
        label = path.relative_to(root)
        if (name, 1) not in called:  # a module's code starts at line 1
            unimported.append(label)
            continue
        statements, defs = [], []
        _walk(ast.parse(path.read_text()).body, "", (), statements, defs)
        dead = {first for qualname, first in defs if (name, first) not in called}
        n_funcs, n_unrun_funcs = n_funcs + len(defs), n_unrun_funcs + len(dead)
        unrun_funcs += [f"{label}:{first}  {q}" for q, first in defs if first in dead]
        group = None  # (owner, first, last) of the open range of unrun statements
        for s in sorted(statements, key=lambda s: s.first):
            if dead.intersection(s.functions):
                continue  # inside a function that no case calls
            n_stmts += 1
            if any((name, line) in ran for line in range(s.first, s.last + 1)):
                group = None
                continue
            n_unrun_stmts += 1
            if group is not None and group[0] == s.owner:
                group[2] = max(group[2], s.last)
            else:
                group = [s.owner, s.first, s.last]
                ranges.append((label, group))
    print(f"modules no case imports ({len(unimported)} of {len(files)}):")
    for label in unimported:
        print(f"  {label}")
    print(f"functions no case runs, outside those modules ({n_unrun_funcs} of {n_funcs}):")
    for line in unrun_funcs:
        print(f"  {line}")
    print(f"statements no case runs, outside those functions ({n_unrun_stmts} of {n_stmts}):")
    for label, (owner, first, last) in ranges:
        lines = f"{first}" if first == last else f"{first}-{last}"
        print(f"  {label}:{lines}  {owner or '<module>'}")
    print(f"traffic {len(cases)} cases")


if __name__ == "__main__":
    main()

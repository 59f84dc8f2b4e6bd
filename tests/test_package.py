"""Package surface: every exported name resolves, every demo runs, and the import stays light."""

import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import abelhp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _modules():
    yield abelhp
    for info in pkgutil.iter_modules(abelhp.__path__):
        yield importlib.import_module(f"abelhp.{info.name}")


def test_exported_names_resolve():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    # demos may write files into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


def test_demos_run_without_test_extras(tmp_path):
    # the demos promise to run on numpy alone: scipy and mpmath, which only
    # the test oracles use, are made unimportable in a fresh process
    code = (
        "import importlib.abc, runpy, sys\n"
        "class Block(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] in ('scipy', 'mpmath'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "for demo in sys.argv[1:]:\n"
        "    runpy.run_path(demo, run_name='__main__')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, DEMOS)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_import_loads_no_scipy():
    # scipy.special alone more than doubles the import time, and only the
    # test oracles use scipy, so a fresh process must not load any of it
    code = (
        "import sys, abelhp, abelhp.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_mixed_degree_solve_and_E2_load_no_numpy_ma():
    # np.unique's first call imports numpy.ma, over a MB of peak memory in
    # every process that builds a mesh's degree groups
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from abelhp import Mesh, bench, solve\n"
        "b = bench.make_benchmark('ex3')\n"
        "mesh = Mesh(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9)]),\n"
        "            [1, 3, 2, 5, 1, 8, 2, 4, 6])\n"
        "bench.error_E2(solve(b.spec, mesh, b.solver_options()), b.exact)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"



#: tokens (without comments and blank lines) at which compiling a module
#: doubles the parser's token buffer
COMPILE_STEP = 4096


def test_modules_stay_below_the_compile_step():
    # the benchmark workers compile the package from source, so a module at
    # the step costs each worker about 0.2 MB more peak memory
    skip = (tokenize.COMMENT, tokenize.NL)
    over = {}
    for path in sorted((ROOT / "src" / "abelhp").glob("*.py")):
        with path.open() as fh:
            n = sum(tok.type not in skip for tok in tokenize.generate_tokens(fh.readline))
        if n >= COMPILE_STEP:
            over[path.name] = n
    assert not over, (
        f"token counts at or above the {COMPILE_STEP}-token compile step: {over}; "
        "compiling such a module raises every benchmark worker's peak_rss_mb by "
        "about 0.2 MB (CHANGES.md, FOUND on workers compiling abelhp from source)"
    )

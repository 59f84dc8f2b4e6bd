"""Package surface: every exported name resolves and every demo runs."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import abelhp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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

"""The benchmark tracer in perfbench/ patches abelhp names; they must resolve."""

import importlib.util
from pathlib import Path

import abelhp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _tracing_module()
    tracer = tracing.Tracer(abelhp)
    missing = [
        f"abelhp.{path}.{attr}"
        for path, attr, _ in tracing.TARGETS
        if not hasattr(tracer._owner(path), attr)
    ]
    assert missing == []
    assert isinstance(abelhp.quadrature._rule_cache, dict)

"""Spans around the calls into each abelhp module, recorded from outside.

The tracer replaces functions at the names their callers look them up by
(for example ``abelhp.discretization.history_weights_batch``, which is what
history assembly calls) with wrappers that record one span per call: name,
parent span, start and end.  Spans stay in memory; a layer's self time is
its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module under abelhp, attribute, span name).  The span name is
# "<layer>.<function>", where the layer is the module that defines it.
# ElementOperator methods are patched on the class.
TARGETS = (
    ("orthopoly", "legendre_table", "orthopoly.legendre_table"),
    ("quadrature", "legendre_table", "orthopoly.legendre_table"),
    ("discretization", "legendre_table", "orthopoly.legendre_table"),
    ("solver", "legendre_table", "orthopoly.legendre_table"),
    ("quadrature", "gauss_rule", "quadrature.gauss_rule"),
    ("discretization", "gauss_rule", "quadrature.gauss_rule"),
    ("solver", "gauss_rule", "quadrature.gauss_rule"),
    ("bench", "gauss_rule", "quadrature.gauss_rule"),
    ("discretization", "history_weights_batch", "quadrature.history_weights_batch"),
    ("solver", "locate", "mesh.locate"),
    ("discretization.ElementOperator", "__init__", "discretization.operator_build"),
    ("discretization.ElementOperator", "rhs", "discretization.rhs"),
    ("discretization.ElementOperator", "history", "discretization.history"),
    ("discretization.ElementOperator", "weighted_moments", "discretization.residual"),
    ("discretization.ElementOperator", "jacobian", "discretization.jacobian"),
    ("solver", "steepest_descent_init", "solver.steepest_descent_init"),
    ("solver", "newton", "solver.newton"),
    ("solver", "solve", "solver.solve"),
    ("bench", "solve", "solver.solve"),
    ("adaptive", "solve", "solver.solve"),
    ("solver", "evaluate", "solver.evaluate"),
    ("bench", "evaluate", "solver.evaluate"),
    ("adaptive", "evaluate", "solver.evaluate"),
    ("bench", "forward_apply", "solver.forward_apply"),
    ("bench", "error_E1", "bench.error_E1"),
    ("bench", "error_E2", "bench.error_E2"),
    ("adaptive", "adaptive_solve", "adaptive.adaptive_solve"),
)

# residual and Jacobian evaluations are charged to the nonlinear phase that
# asked for them
PHASES = ("solver.steepest_descent_init", "solver.newton")
EVALS = {"discretization.residual": "residual_evals", "discretization.jacobian": "jacobian_evals"}

_NAME, _PARENT, _START, _END, _ROWS = range(5)


class Tracer:
    """Records spans while installed; ``paused`` lets calls through unrecorded."""

    def __init__(self, abelhp_package):
        self._pkg = abelhp_package
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.paused = False

    def _owner(self, path: str):
        module, _, cls = path.partition(".")
        owner = getattr(self._pkg, module)
        return getattr(owner, cls) if cls else owner

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_rows = name == "quadrature.history_weights_batch"

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rows = len(args[0]) if count_rows else 0
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, rows])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][_END] = clock()
                stack.pop()

        return traced

    def install(self):
        for path, attr, name in TARGETS:
            owner = self._owner(path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict:
        """Per span name: calls, rows, self_s, plus phase evaluation counts."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_s[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "rows": 0, "self_s": 0.0})
        for i, span in enumerate(spans):
            entry = out[span[_NAME]]
            entry["calls"] += 1
            entry["rows"] += span[_ROWS]
            entry["self_s"] += span[_END] - span[_START] - child_s[i]
            counter = EVALS.get(span[_NAME])
            if counter is None:
                continue
            parent = span[_PARENT]
            while parent >= 0 and spans[parent][_NAME] not in PHASES:
                parent = spans[parent][_PARENT]
            if parent >= 0:
                phase = out[spans[parent][_NAME]]
                phase[counter] = phase.get(counter, 0) + 1
        return dict(out)

"""In-memory span recorder for the traced benchmark run.

A span is recorded for every call that crosses a layer boundary: a call
from one pathreach module (or from the benchmark worker) into a public
function of another.  The wrappers are installed by rebinding names in
the callers' module namespaces, so no file of the package is edited, and
`uninstall` restores the original bindings.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import inspect
import time

# The package's modules, used as layer names.  testkit is absent on purpose:
# generators and oracles belong to the benchmark and run outside timing.
LAYERS = ("graph", "decomposition", "reach", "dagcover", "cli")


def layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.rpartition(".")
    return tail if head == "pathreach" and tail in LAYERS else None


class SpanRecorder:
    """Spans as [name, start_ns, end_ns, parent_index, op_id] lists.

    `op` is set by the caller before each operation, so the spans of one
    operation share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self, callers) -> None:
        """Wrap, in each caller module, every name bound to a public
        function of a layer other than the caller's own."""
        for mod in callers:
            own = layer_of(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                target = layer_of(obj.__module__)
                if target is None or target == own:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{target}.{obj.__name__}", obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

"""Spans recorded from outside the library, around calls into its modules.

The tracer replaces chosen module attributes with timing wrappers while it
is installed and restores them afterwards; nothing under ``src/`` knows it
exists.  ``fit`` looks its callees up as globals of ``crossprop.solver``, so
they are wrapped there; helpers called from inside another module are
wrapped in that module's namespace.  An attribute that no longer exists is
listed in ``absent`` instead of raising, so the benchmark keeps running on a
refactored library and its metric for that function reads zero.
"""

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  One function may be reachable from several
# namespaces; each call passes through exactly one wrapper.
WRAPPED = (
    ("crossprop.solver", "init_graph", "graph.init_graph"),
    ("crossprop.solver", "affinity_cost", "graph.affinity_cost"),
    ("crossprop.solver", "build_graph", "graph.build_graph"),
    ("crossprop.solver", "laplacian", "graph.laplacian"),
    ("crossprop.solver", "quadratic_charge", "graph.quadratic_charge"),
    ("crossprop.solver", "harmonic_solve", "propagation.harmonic_solve"),
    ("crossprop.solver", "discrepancy_matrix", "mmd.discrepancy_matrix"),
    ("crossprop.solver", "solve_projection", "solver.solve_projection"),
    ("crossprop.solver", "objective", "solver.objective"),
    ("crossprop.solver", "pairwise_sq_dists", "linalg.pairwise_sq_dists"),
    ("crossprop.solver", "solve_sym_definite_geig", "linalg.solve_sym_definite_geig"),
    ("crossprop.graph", "affinity_cost", "graph.affinity_cost"),
    ("crossprop.graph", "build_graph", "graph.build_graph"),
    ("crossprop.graph", "update_source_rows", "graph.update_source_rows"),
    ("crossprop.graph", "update_target_rows", "graph.update_target_rows"),
    ("crossprop.graph", "pairwise_sq_dists", "linalg.pairwise_sq_dists"),
    ("crossprop.mmd", "conditional_mmd", "mmd.conditional_mmd"),
    ("crossprop.propagation", "solve_spd_linear", "linalg.solve_spd_linear"),
    ("crossprop.linalg", "_trace_ridge", "linalg.ridge_repair"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))


class Tracer:
    """In-memory spans: ``[name, parent index, start, end]`` in start order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.absent = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield index
        finally:
            self._end(index)

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, self.clock(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index):
        self._open.pop()
        self.spans[index][3] = self.clock()

    def _wrap(self, original, name):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._end(index)

        return wrapper

    @contextmanager
    def installed(self, targets=WRAPPED):
        """Wrap ``targets`` for the duration of the block."""
        self.absent = []
        restore = []
        try:
            for module_name, attribute, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attribute}")
                    continue
                restore.append((module, attribute, original))
                setattr(module, attribute, self._wrap(original, name))
            yield self
        finally:
            for module, attribute, original in reversed(restore):
                setattr(module, attribute, original)

    def summarize(self, root):
        """Per-name totals and call counts of the spans below span ``root``.

        Returns ``(seconds, calls, self_seconds)``; ``self_seconds`` is the
        root's duration minus the time its direct children cover.
        """
        inside = {root}
        seconds, calls = {}, {}
        children = 0.0
        for index in range(root + 1, len(self.spans)):
            name, parent, start, end = self.spans[index]
            if parent not in inside:
                continue
            inside.add(index)
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent == root:
                children += end - start
        _, _, start, end = self.spans[root]
        return seconds, calls, (end - start) - children

"""Spans around convlab's public functions, installed from outside.

Every public function of the layer modules is wrapped, and every module
namespace (and module-level dict, such as ``verify.SUITES``) that holds the
original is patched, so calls made between modules are traced too: for
example ``is_conversion_set`` is imported into ``solver``, ``bounds``,
``constructions`` and ``verify``.

Spans live in memory in compact per-thread arrays: name, start, end,
parent (index in the same thread; -1 for a root) and operation id.  Parents
are tracked per thread, so spans opened by ``verify``'s worker pool nest
correctly.  Self time is a span's duration minus its children's.
"""

import inspect
import threading
from array import array
from time import perf_counter

LAYERS = ("graph", "fileio", "process", "structure", "search", "solver",
          "bounds", "constructions", "verify", "cli")

# Bitmask primitives called from the innermost loops: a span per call
# would cost more than the work it measures.  Generators (graph.bits) are
# skipped because a span would close before the caller consumes them.
SKIP = {"graph.bit_count", "graph.vset", "graph.vset_members"}

# Counts read from return values: span name -> (counter, value getter).
RESULT_COUNTS = {
    "search.max_r_degenerate_set": ("search.nodes", lambda res: res[2]),
    "solver.ck_oracle": ("solver.oracle_subsets", lambda res: res.nodes_explored),
    "process.run_process": ("process.layers", lambda res: res.time),
}


class _ThreadSpans:
    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.counts = {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.op = -1
        self._local = threading.local()
        self._threads = []
        self._patches = []

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            self._threads.append(spans)
        return spans

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        count = RESULT_COUNTS.get(name)
        spans_of = self._spans

        def traced(*args, **kwargs):
            s = spans_of()
            i = len(s.name)
            s.name.append(name_id)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.op.append(self.op)
            s.end.append(0.0)
            s.stack.append(i)
            s.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end[i] = perf_counter()
                s.stack.pop()
            if count is not None:
                key, get = count
                s.counts[key] = s.counts.get(key, 0) + get(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [getattr(self.package, layer) for layer in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP
                        and not inspect.isgeneratorfunction(obj)):
                    originals[obj] = name
        wrappers = {}
        for fn, name in originals.items():
            wrappers[fn] = self._wrap(name, fn)
        for mod in [self.package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod.__dict__, attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrappers:
                            self._patches.append((obj, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def reset(self):
        self._threads.clear()
        self._local = threading.local()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds; plus
        the counters and the number of ck_exact spans whose direct child
        is a ck_oracle span."""
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        counts = {}
        exact_id = self.names.index("solver.ck_exact")
        oracle_id = self.names.index("solver.ck_oracle")
        oracle_solves = 0
        for s in self._threads:
            total = len(s.name)
            child = [0.0] * total
            for i in range(total):
                p = s.parent[i]
                if p >= 0:
                    child[p] += s.end[i] - s.start[i]
                    if s.name[i] == oracle_id and s.name[p] == exact_id:
                        oracle_solves += 1
            for i in range(total):
                dur = s.end[i] - s.start[i]
                entry = stats[self.names[s.name[i]]]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - child[i]
            for key, val in s.counts.items():
                counts[key] = counts.get(key, 0) + val
        return stats, counts, oracle_solves

"""In-memory span tracing of girthmax's public entry points.

`Tracer.install()` replaces public names of the `perm`, `btu`, `girth`
and `search` layers with wrappers that record one span per call: name,
start, end, parent span and pass id. Functions are replaced in every
girthmax module that binds them (so calls between layers are caught);
constructors and methods are replaced on their class. `uninstall()`
restores the originals. Spans are kept in flat arrays and written out
once, at the end of the run.

A wrapped name that a later version of the program no longer calls
reads 0 calls: that is the measurement, not a fault of the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _girth_outcome(counts: Counter, result) -> None:
    counts["girth.cutoff_exits" if result.at_or_below_cutoff else "girth.exact"] += 1


def _bytes_written(counts: Counter, text: str) -> None:
    counts["btu.bytes_written"] += len(text.encode())


# (layer module, function name, span name, hook on the result)
FUNCTIONS = (
    ("perm", "scale_up", "perm.scale_up", None),
    ("perm", "circulant", "perm.circulant", None),
    ("perm", "identity", "perm.identity", None),
    ("btu", "write_alist", "btu.write_alist", _bytes_written),
    ("btu", "read_alist", "btu.read_alist", None),
    ("btu", "write_dimacs", "btu.write_dimacs", _bytes_written),
    ("btu", "read_dimacs", "btu.read_dimacs", None),
    ("btu", "btu_from_matrix", "btu.btu_from_matrix", None),
    ("girth", "girth_bfs", "girth.girth_bfs", _girth_outcome),
    ("search", "search_r3", "search.search_r3", None),
)
# (layer module, class, method, span name); both to_bipartite views share a name
METHODS = (
    ("perm", "Permutation", "__init__", "perm.Permutation"),
    ("btu", "Btu", "__init__", "btu.Btu"),
    ("btu", "Btu", "to_bipartite", "btu.to_bipartite"),
    ("btu", "BinaryMatrix", "to_bipartite", "btu.to_bipartite"),
)
# generators: the span covers the drain, not the call that creates them
GENERATORS = (("perm", "enumerate_k_cycles", "perm.enumerate_k_cycles"),)

SPAN_NAMES = tuple(dict.fromkeys(
    [s for *_, s, _ in FUNCTIONS] + [s for *_, s in METHODS] + [s for *_, s in GENERATORS]
))


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.pass_id = array("H")
        self.counts: Counter = Counter()
        self.current_pass = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, span: str, hook=None):
        name_id = SPAN_NAMES.index(span)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def _wrap_generator(self, fn, span: str):
        name_id = SPAN_NAMES.index(span)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def drain():
                idx = self._open(name_id)
                n = 0
                try:
                    for item in it:
                        n += 1
                        yield item
                finally:
                    self._close(idx)
                    counts[span + ".n"] += n

            return drain()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public names of `package`'s layers until `uninstall()`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        layer = {name: getattr(package, name) for name in ("perm", "btu", "girth", "search")}
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod, fname, span, hook in FUNCTIONS:
            self._rebind(modules, getattr(layer[mod], fname), self._wrap(getattr(layer[mod], fname), span, hook))
        for mod, fname, span in GENERATORS:
            self._rebind(modules, getattr(layer[mod], fname), self._wrap_generator(getattr(layer[mod], fname), span))
        for mod, cls, meth, span in METHODS:
            klass = getattr(layer[mod], cls)
            self._replace(klass, meth, self._wrap(klass.__dict__[meth], span))

    def _rebind(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (views would pin the growing buffers)."""
        return {
            "span_names": np.array(SPAN_NAMES),
            "name": np.array(self.name, dtype=np.uint16),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "pass_id": np.array(self.pass_id, dtype=np.uint16),
        }

    def layer_totals(self, pass_id: int) -> dict[str, tuple[int, float, float]]:
        """{span name: (calls, total seconds, self seconds)} for one pass.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a pass add up to its traced time.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = a["pass_id"] == pass_id
        names = a["name"][own]
        size = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=dur[own], minlength=size) / 1e9
        own_self = np.bincount(names, weights=(dur - child)[own], minlength=size) / 1e9
        return {s: (int(calls[i]), float(total[i]), float(own_self[i])) for i, s in enumerate(SPAN_NAMES)}

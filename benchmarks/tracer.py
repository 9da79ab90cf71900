"""In-memory span recorder that wraps rbfadvect functions from outside.

A span is (name, start, end, parent).  Spans live in flat arrays while a
pass runs and are analysed afterwards: a span's self time is its duration
minus the durations of its direct children (spans on one thread nest, so
children never overlap).  Inclusive time ``s`` of a name sums only the
outermost spans of that name, so recursion-like nesting (``psi_rows``
calling ``basis_rows``, ``build_fr_operator`` calling an ``__init__``) is
not counted twice.

Functions are patched at every binding that callers use: a module that did
``from .linalg import lu_factor`` holds its own reference, so patching only
``rbfadvect.linalg`` would miss those calls.
"""

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans and counters for wrapped callables; restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.notes: list = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def spanned(self, fn, name: str, on_return=None):
        """Wrap ``fn`` in a span; ``on_return(args, result)`` runs for outermost calls."""
        nid = self._id(name)
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            outer = depth[nid] == 0
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.outer.append(outer)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            depth[nid] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                depth[nid] -= 1
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_return is not None and outer:
                on_return(args, result)
            return result

        return wrapper

    def counted(self, fn, key: str, measure):
        """Wrap ``fn`` without a span, adding ``measure(args, result)`` to ``counts[key]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += measure(args, result)
            return result

        return wrapper

    def patch_function(self, fn, wrapper):
        """Replace every binding of ``fn`` in the rbfadvect modules."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rbfadvect" or mod_name.startswith("rbfadvect.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is not bound in any rbfadvect module")

    def patch_attr(self, owner, attr: str, wrapper):
        """Replace one attribute: a module binding or a method defined on a class."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> "Spans":
        """Hand over what was recorded since the last clear and start afresh."""
        spans = Spans(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            dict(self.counts),
            list(self.notes),
        )
        self.clear()
        return spans


class Spans:
    """Recorded spans of one pass with the aggregates the benchmark reports."""

    def __init__(self, names, name_id, parent, outer, start, end, counts, notes):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.outer = outer
        self.start = start
        self.end = end
        self.counts = counts
        self.notes = notes
        self.duration = end - start
        child = np.zeros_like(self.duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        return self.name_id == self.names.index(name)

    def inclusive(self, name: str) -> float:
        """Summed duration of the outermost spans of one name."""
        return float(self.duration[self._mask(name) & self.outer].sum())

    def exclusive(self, name: str) -> float:
        """Summed self time of all spans of one name."""
        return float(self.self_time[self._mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def outermost(self, names) -> np.ndarray:
        """Indices, in call order, of the spans of the given names not nested in one of them."""
        ids = {self.names.index(n) for n in names if n in self.names}
        found = []
        for i in np.flatnonzero(np.isin(self.name_id, list(ids))):
            j = self.parent[i]
            while j >= 0 and self.name_id[j] not in ids:
                j = self.parent[j]
            if j < 0:
                found.append(i)
        return np.array(found, dtype=int)

    def covered(self, names) -> float:
        """Time inside any span of the given names, nested ones counted once."""
        return float(self.duration[self.outermost(names)].sum())

    def self_by_module(self) -> dict[str, float]:
        """Self time summed per module, the part of a span name before the first dot."""
        per_name = np.bincount(self.name_id, weights=self.self_time, minlength=len(self.names))
        modules: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, per_name):
            modules[name.split(".", 1)[0]] += float(value)
        return dict(modules)

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=self.name_id, parent=self.parent,
                 outer=self.outer, start=self.start, end=self.end)

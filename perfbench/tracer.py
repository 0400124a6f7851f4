"""Span tracer that wraps the program's public functions from outside.

A span is one call of a wrapped function: (name, start, end, parent).
Spans nest through a stack, so a span's parent is the span that was open
when it began.  Spans are kept in compact arrays in memory and written
out once, when the run ends.

Wrapping replaces a function everywhere the program holds it: the
attribute of its defining module, every ``from module import name`` copy
in the other ``mekd`` modules, and the values of module-level dicts
(``nets._HIDDEN`` holds ``ad.relu`` itself, so patching ``mekd.autodiff``
alone would miss every hidden ReLU).  :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "mekd"


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its direct children cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.  A
    child is clipped to its parent's interval.  Children of one parent do
    not overlap each other: a single-thread stack cannot produce that.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    if not has_parent.any():
        return duration
    p = parent[has_parent]
    covered_part = (np.minimum(end[has_parent], end[p])
                    - np.maximum(start[has_parent], start[p])).clip(min=0.0)
    covered = np.bincount(p, weights=covered_part, minlength=len(duration))
    return duration - covered


class Tracer:
    """Records spans around wrapped functions and restores them afterwards."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, fn, name):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string, or a function of the call's (args, kwargs)
        that returns one, for spans named by an argument such as a role.
        """
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        fixed = self._id(name) if isinstance(name, str) else None
        intern = self._id

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(fixed if fixed is not None else intern(name(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching -----------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)`` wherever mekd holds it."""
        original = getattr(importlib.import_module(module_name), attr)
        replacement = make(original)
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    self._undo.append((setattr, module, key, original))
                    setattr(module, key, replacement)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((dict.__setitem__, value, k, original))
                            value[k] = replacement

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((setattr, cls, attr, original))
        setattr(cls, attr, make(original))

    def trace_function(self, module_name: str, attr: str, name: str) -> None:
        self.patch_function(module_name, attr, lambda fn: self.span(fn, name))

    def trace_method(self, cls, attr: str, name) -> None:
        self.patch_method(cls, attr, lambda fn: self.span(fn, name))

    def restore(self) -> None:
        while self._undo:
            put, owner, key, original = self._undo.pop()
            put(owner, key, original)

    # -- reading ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on form one window."""
        return len(self.start)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        if since >= len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)[since:]
        end = np.frombuffer(self.end, dtype=np.float64)[since:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[since:] - since
        parent[parent < 0] = -1  # a parent opened before the window is a root here
        ids = np.frombuffer(self.name_id, dtype=np.int64)[since:]
        own = self_times(start, end, parent)
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        total = np.bincount(ids, weights=end - start, minlength=width)
        selfs = np.bincount(ids, weights=own, minlength=width)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def durations(self, name: str, since: int = 0) -> list[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i]
                for i in range(since, len(self.start)) if self.name_id[i] == nid]

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64))

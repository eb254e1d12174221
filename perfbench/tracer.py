"""Spans timed from outside the program.

A `Tracer` wraps the public functions and methods of the package's modules
by replacing the module and class attributes that callers look up, so a
call made anywhere in the package (including ``from .x import f`` bindings
in other modules) enters a span.  Spans are kept in flat in-memory arrays
and written out when the run ends; nothing here changes what the wrapped
code computes.

Only the standard library is used, so the helpers below can be tested
without the package under measurement.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import time
import types
from array import array


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the durations of its direct child spans.

    parents[i] is the index of the span that was open when span i started,
    or -1.  The program runs on one thread, so children never overlap.
    """
    own = [e - s for s, e in zip(starts, ends)]
    out = list(own)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= own[i]
    return out


def tail_rank(n: int, beyond: int = 10):
    """1-based rank of the highest order statistic with `beyond` values above it.

    Returns None when fewer than beyond + 1 values exist.
    """
    return n - beyond if n > beyond else None


def median_and_tail(values, beyond: int = 10) -> dict:
    """Median, and the highest percentile that has `beyond` values above it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    mid = n // 2
    p50 = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    r = tail_rank(n, beyond)
    if r is None:
        return {"n": n, "p50": p50, "tail": xs[-1], "tail_pct": 100.0}
    return {"n": n, "p50": p50, "tail": xs[r - 1], "tail_pct": 100.0 * r / n}


class Tracer:
    """Wrap callables as spans; keep spans and per-call observations in memory.

    `observers` maps a span name to ``fn(args, kwargs, result, duration_ns)``,
    called after each successful call so counters can be read from the
    returned objects.
    """

    def __init__(self, observers: dict | None = None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self.observers = observers or {}
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        observe = self.observers.get(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, modules: dict, extra_namespaces=()) -> None:
        """Wrap the public callables of `modules` ({layer: module}).

        Every module in `modules` and `extra_namespaces` that binds one of
        the wrapped functions under any name gets the wrapper in its place.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}  # id(function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and _traceable_class(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not isinstance(fn, types.FunctionType):
                            continue
                        if meth.startswith("_") and not (
                                meth == "__init__" and not dataclasses.is_dataclass(obj)):
                            continue
                        self._set(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for ns in list(modules.values()) + list(extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(ns, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- derived views -----------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def totals(self) -> dict:
        """Per span name: calls, total ns and self ns."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out = {name: [0, 0, 0] for name in self.names}
        for i, nid in enumerate(self.name_ids):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += self.ends[i] - self.starts[i]
            row[2] += selfs[i]
        return out


def _traceable_class(cls) -> bool:
    return not (issubclass(cls, BaseException) or issubclass(cls, enum.Enum))

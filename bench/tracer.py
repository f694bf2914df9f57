"""Outside-in span tracer for the zetaglue benchmark.

The tracer wraps chosen library functions from outside the library: each
entry point is replaced in every module of the package that binds the
same function object, that is the defining module, every module that
imports it with ``from .x import y``, and the package namespace itself.
Calls the library makes internally therefore pass through the wrappers
too.  No library file changes, and ``restore`` puts every original
binding back.

Spans are kept in memory as ``(name, start, end, parent, check)`` tuples;
``parent`` is the index of the enclosing span or -1, and ``check`` is the
id of the benchmark check that was running.  The workload is one thread,
so a plain stack tracks the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

__all__ = ["Tracer", "self_times", "union_length"]


class Tracer:
    """Wraps ``"module.function"`` entry points of one package.

    ``counters`` maps an entry-point name to a function of its return
    value whose result is added to ``counts[name]`` after each call.
    Calls made while ``check`` is negative (between checks) are not
    recorded.  Use as a context manager, or call ``install`` and
    ``restore``.
    """

    def __init__(self, package: str, entry_points, counters=None):
        self.package = package
        self.entry_points = list(entry_points)
        self.counters = dict(counters or {})
        self.spans: list = []
        self.counts = {name: 0 for name in self.counters}
        self.check = 0
        self._stack: list = []
        self._patches: list = []

    def install(self):
        modules = _package_modules(self.package)
        for name in self.entry_points:
            mod_name, fn_name = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{self.package}.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return self

    def restore(self):
        while self._patches:
            mod, fn_name, original = self._patches.pop()
            setattr(mod, fn_name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def bindings(self) -> dict:
        """Entry point -> sorted names of the modules where it is wrapped."""
        out: dict = {}
        for mod, fn_name, original in self._patches:
            key = f"{original.__module__.rsplit('.', 1)[-1]}.{fn_name}"
            out.setdefault(key, []).append(mod.__name__)
        return {k: sorted(v) for k, v in sorted(out.items())}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            check = self.check
            if check < 0:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, check)
            if counter is not None:
                self.counts[name] += counter(result)
            return result

        return traced


def _package_modules(package: str) -> list:
    root = importlib.import_module(package)
    mods = [root]
    for info in pkgutil.iter_modules(root.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Name -> (calls, self seconds) over finished spans.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: dict = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        busy = union_length(children.get(index, ()), start, end)
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - busy)
    return out

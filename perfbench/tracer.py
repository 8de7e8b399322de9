"""Span tracer that wraps the program's public functions from outside.

Installing it replaces every public function of the traced modules, on
its defining module and on every traced module that bound it by name,
and every public method or property of their classes, with a wrapper
that records one span per call: name, start, end and parent span.  A
generator function gets one span per ``next()``.  Spans stay in memory
in flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import enum
import functools
import gzip
import inspect
import time
from array import array

MODULES = ("notation", "validity", "grammars", "enumeration", "genfunc", "catalog", "cli")


class Tracer:
    def __init__(self):
        self.names = []  # span-name table; spans refer to it by index
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._undo = []

    # -- wrappers -----------------------------------------------------

    def _wrap_function(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack, clock = self._stack, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(sid)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = clock()
                        stack.pop()
                    yield item
        else:
            def traced(*args, **kwargs):
                sid = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(sid)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_class(self, cls, prefix):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(value, property) and value.fget is not None:
                new = property(
                    self._wrap_function(value.fget, name), value.fset, value.fdel, value.__doc__
                )
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap_function(value.__func__, name))
            elif inspect.isfunction(value):
                new = self._wrap_function(value, name)
            else:
                continue
            self._undo.append((cls, attr, value))
            setattr(cls, attr, new)

    def install(self, package, module_names=MODULES):
        """Wrap the public callables of ``package.<module>`` for each name.

        Returns the wrapped names found (``module.function`` or
        ``module.Class.member``).
        """
        modules = {m: getattr(package, m) for m in module_names}
        wrapped = {}  # id(original) -> wrapper
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[id(value)] = self._wrap_function(value, f"{short}.{attr}")
                elif inspect.isclass(value) and not issubclass(value, (enum.Enum, BaseException)):
                    self._wrap_class(value, short)
        # Rebind on every traced module (and the package) that holds a
        # name-bound reference, e.g. ``from .notation import tw_to_clr``.
        for namespace in list(modules.values()) + [package]:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)
        return set(self.names)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis -----------------------------------------------------

    def table(self):
        """name -> (calls, self seconds).

        Self time is a span's duration minus the durations of its child
        spans; calls are single-threaded, so children nest strictly.
        """
        n = len(self.span_name)
        child_ns = array("q", bytes(8 * n))
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            parent = parents[sid]
            if parent >= 0:
                child_ns[parent] += ends[sid] - starts[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += ends[sid] - starts[sid] - child_ns[sid]
        out = {}
        for nid, name in enumerate(self.names):
            c, s = out.get(name, (0, 0))
            out[name] = (c + calls[nid], s + self_ns[nid] / 1e9)
        return out

    def write_spans(self, path):
        """Spans as gzip text: ``# <name id> <name>`` lines, then one
        ``<span id> <parent id> <name id> <start ns> <end ns>`` line per
        span, times counted from the first span's start."""
        origin = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            for nid, name in enumerate(self.names):
                handle.write(f"# {nid} {name}\n")
            for sid, (nid, parent, start, end) in enumerate(zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            )):
                handle.write(f"{sid} {parent} {nid} {start - origin} {end - origin}\n")

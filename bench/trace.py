"""Spans and counters recorded from outside the program under test.

The traced pass of the benchmark wraps public functions of ``repro``
(module functions, methods, classmethods) with recorders and restores
them afterwards; nothing under ``src/`` knows it is being traced.  A
wrapped function either opens a **span** (name, start, end, parent span,
unit id) or, when it runs more than ~1k times per unit, only bumps a
**timer** (calls and total seconds).  Spans live in memory and are
written out when the run ends.

A layer's *self* time is its spans' duration minus the time covered by
their child spans.  The recorder is thread-aware (each thread has its
own span stack) because the campaign fabric journals from shard
threads.
"""

import collections
import contextlib
import functools
import gc
import inspect
import sys
import threading
import time


class Tracer:
    """In-memory span and timer recorder plus the function patcher."""

    def __init__(self):
        #: [name, start_s, end_s, parent index or None, unit]
        self.spans = []
        #: name -> [calls, seconds]
        self.timers = collections.defaultdict(lambda: [0, 0.0])
        #: name -> count
        self.counts = collections.Counter()
        #: id of the unit being executed (stamped on new spans)
        self.unit = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.unit])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        """One span around the ``with`` body."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add_span(self, name, start, end, parent=None, unit=None):
        """Record a span measured elsewhere (client-observed timestamps)."""
        with self._lock:
            self.spans.append([name, start, end, parent, unit])
            return len(self.spans) - 1

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def current(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    # -- patching --------------------------------------------------------------

    def wrap(self, owner, attr, name, timer=False, observe=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a module or a class.  A span wrapper nested directly
        inside a span of the same name records nothing (``Machine.cloud``
        boots through ``Machine.linux``).  ``observe(args, kwargs,
        result, start, end)`` runs after each call.  Module-level names
        that other ``repro`` modules imported (``from x import f``) are
        replaced too, so every call site sees the wrapper.
        """
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = (self._timer_wrapper if timer else self._span_wrapper)(
            func, name, observe)
        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._replace(owner, attr, raw, replacement)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, key, raw, replacement)

    def _replace(self, owner, attr, raw, replacement):
        setattr(owner, attr, replacement)
        self._patches.append(lambda: setattr(owner, attr, raw))

    def track_gc(self):
        """Time the interpreter's garbage collections (timer ``python.gc``)."""
        totals = self.timers["python.gc"]
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(time.perf_counter())
            elif started:
                totals[0] += 1
                totals[1] += time.perf_counter() - started.pop()

        gc.callbacks.append(on_gc)
        self._patches.append(lambda: gc.callbacks.remove(on_gc))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            self._patches.pop()()

    def _span_wrapper(self, func, name, observe):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.current() == name:
                return func(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                span = tracer.spans[index]
                observe(args, kwargs, result, span[1], span[2])
            return result
        return wrapper

    def _timer_wrapper(self, func, name, observe):
        totals = self.timers[name]
        lock = self._lock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with lock:
                    totals[0] += 1
                    totals[1] += end - start
            if observe is not None:
                observe(args, kwargs, result, start, end)
            return result
        return wrapper

    # -- analysis --------------------------------------------------------------

    def layers(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, __ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        table = {}
        for index, (name, start, end, __, __) in enumerate(self.spans):
            if end is None:
                continue
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return table

    def dump(self, units):
        """JSON-ready trace: spans plus the per-unit layer table."""
        units = max(1, units)
        layers = {
            name: {"calls_per_unit": calls / units,
                   "inclusive_ms_per_unit": incl * 1000.0 / units,
                   "self_ms_per_unit": own * 1000.0 / units}
            for name, (calls, incl, own) in sorted(self.layers().items())
        }
        timers = {
            name: {"calls_per_unit": calls / units,
                   "ms_per_unit": seconds * 1000.0 / units}
            for name, (calls, seconds) in sorted(self.timers.items())
        }
        return {
            "units": units,
            "layers": layers,
            "timers": timers,
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"name": name, "start": start, "end": end,
                 "parent": parent, "unit": unit}
                for name, start, end, parent, unit in self.spans
            ],
        }

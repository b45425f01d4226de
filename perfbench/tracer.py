"""Span tracing by wrapping public functions at the names callers resolve.

``Tracer.install`` replaces ``module.attr`` with a wrapper that records one
span per call -- name, start, end, parent span and op id -- and, where a
hook is given, counts taken from the call's arguments and result.  Spans
stay in memory; ``dump`` writes them out when the run ends and
``uninstall`` puts every original function back.

Self time is a span's duration minus the time its child spans cover.  The
work a count hook does is recorded as a child span named ``trace.hook``,
so it is charged to no layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)  # name -> total over traced ops
        self.op_id = -1
        self.missing = []
        self._stack = []
        self._installed = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """``fn`` recorded as span ``name`` (or ``name(args)`` if callable)."""

        def traced(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook_index = self._open(HOOK)
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(hook_index)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr, name, hook=None):
        """Wrap ``module.attr``; a name the program no longer has is noted
        in ``missing`` and leaves its metrics at zero."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._installed.append((module, attr, fn))
        setattr(module, attr, self.wrap(fn, name, hook))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- reading -------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - inner
            incl_s[name] += end - start
        return calls, self_s, incl_s

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

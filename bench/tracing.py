"""Spans around the module-level names each geogress layer's callers use.

The program is not edited: a `Patch` rebinds a function everywhere a
geogress module holds it (the defining module and every module that
imported the name), so a call from any caller goes through the wrapper.
`uninstall` restores the original bindings.

A span is (name, start, end, parent); spans are kept in memory and written
out only after the run.  A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict


def _geogress_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "geogress" or name.startswith("geogress.")]


class Patch:
    """Rebinds functions across all loaded geogress modules; undone by `uninstall`."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> None:
        for module in _geogress_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def replace_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """Span recorder plus per-span-name counters filled by result hooks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """`fn` inside a span called `name`; `hook(counters, args, result)` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(sid)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around the block (the benchmark's own pass)."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": n, "total_s": inclusive, "self_s": exclusive}}."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[sid]
        return out

    def records(self, origin: float):
        """Spans as dicts, times in seconds from `origin`."""
        for sid, (name, start, end, parent) in enumerate(self.spans):
            yield {"id": sid, "name": name, "start": start - origin, "end": end - origin, "parent": parent}

"""Span recorder that wraps module attributes from outside the library.

Every traced function is looked up through its module at call time by the
library, so replacing the module attribute with a recording wrapper catches
calls made from inside the pipeline without changing any source file.  Spans
stay in memory; `self_times` and `layer_table` reduce them at the end of a run.

The recorder keeps one call stack, so it assumes the traced calls run on one
thread; the benchmark pins STRUKT_NUM_THREADS=1 for that reason.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int
    error: str | None = None


class Tracer:
    """Installs recording wrappers over `(module, attribute)` targets."""

    def __init__(self, targets):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._targets = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
        self._wrappers = [
            self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", fn)
            for mod, attr, fn in self._targets
        ]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for (mod, attr, _), wrapper in zip(self._targets, self._wrappers):
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in self._targets:
            setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Traced calls are sequential on one thread, so children never overlap and
    the covered part is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_table(spans: list[Span]) -> dict:
    """Per span name: total self seconds, call count, and errors by class."""
    table = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": {}})
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["self_s"] += own
        row["calls"] += 1
        if span.error is not None:
            row["errors"][span.error] = row["errors"].get(span.error, 0) + 1
    return dict(table)

"""Spans around the calls the CLI makes into each library module.

The tracer replaces module attributes such as ``qcoherence.jsonio.dumps``
with timing wrappers for the length of one traced operation.  The CLI
reaches every library module through its module attribute, so each of its
calls records a span.  A library function that calls another through the
name it imported is not seen; the runner times such nested calls
separately on the same input and subtracts them from the caller
(:meth:`Tracer.time_nested`).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import stats


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    args: tuple
    end: float = 0.0
    result: object = None
    nested: list[float] = field(default_factory=list)


class Tracer:
    """Collects per-call self times, in milliseconds, keyed by span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: dict[str, list[float]] = {}
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._calls: Counter = Counter()

    def calls_so_far(self, function_names) -> int:
        """Wrapped calls made so far in this operation to any of the named
        functions, the current one included."""
        return sum(self._calls[name] for name in function_names)

    def _record(self, name: str, ms: float) -> None:
        self.samples.setdefault(name, []).append(ms)

    @contextmanager
    def operation(self, targets):
        """Wrap ``targets`` for one operation.

        ``targets`` holds ``(module, function name, span name)`` triples; a
        callable span name is asked for the name at each call, with the
        tracer as argument.  Originals are restored on exit.
        """
        self.spans, self._open, self._calls = [], [], Counter()
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, attr, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, function, attr: str, name):
        def wrapper(*args, **kwargs):
            self._calls[attr] += 1
            span = Span(
                name(self) if callable(name) else name,
                self.clock(),
                self._open[-1] if self._open else None,
                args,
            )
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                span.result = function(*args, **kwargs)
                return span.result
            finally:
                span.end = self.clock()
                self._open.pop()

        return wrapper

    def time_nested(self, parent: Span, name: str, function, *args):
        """Time ``function(*args)`` now, record it as span ``name`` and
        subtract it from ``parent``'s self time."""
        start = self.clock()
        try:
            return function(*args)
        finally:
            seconds = self.clock() - start
            parent.nested.append(seconds)
            self._record(name, seconds * 1e3)

    def time_call(self, name: str, function, *args):
        """Time a call made outside any operation as its own span."""
        start = self.clock()
        try:
            return function(*args)
        finally:
            self._record(name, (self.clock() - start) * 1e3)

    def finish(self, op_seconds: float | None) -> None:
        """Fold the operation's spans into the samples.

        ``op_seconds`` is the wall time of a CLI operation; the part no
        top-level span covers is recorded as ``cli.self``.
        """
        own = stats.self_times([(s.start, s.end, s.parent) for s in self.spans])
        for span, seconds in zip(self.spans, own):
            # not clamped at 0: a negative self time means the timing noise
            # is larger than the work, which clamping would hide
            self._record(span.name, (seconds - sum(span.nested)) * 1e3)
        if op_seconds is not None:
            covered = sum(s.end - s.start for s in self.spans if s.parent is None)
            self._record("cli.self", (op_seconds - covered) * 1e3)

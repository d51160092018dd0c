"""In-memory spans and call counters recorded around calls into cutflow.

A :class:`Tracer` wraps functions from the benchmark's side: each wrapped
call opens a span (name, start, end, parent, realization id).  Hot inner
calls are not given spans of their own; :meth:`Tracer.counted` sums their
calls, time and computed bytes into the enclosing span, so memory grows
with the number of spans, not with the number of kernel calls.

Span names are ``<layer>.<function>``.  A layer's self time is the time
its spans cover minus the time covered by their child spans and by the
counted calls inside them; counted calls belong to the layer named by
their key.  Self times of all layers therefore add up to the root span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "realization", "counters", "counted_s")

    def __init__(self, name: str, start: float, parent: int | None, realization):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.realization = realization
        # key -> [calls, seconds, bytes]
        self.counters: dict[str, list] = {}
        # layer -> seconds of outermost counted calls inside this span
        self.counted_s: dict[str, float] = defaultdict(float)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


class Tracer:
    """Collects spans and per-span counters; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._counted_depth = 0

    # -- recording ---------------------------------------------------------

    def spanned(self, name: str, fn, realization_of=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``realization_of(args)`` names the realization a call starts;
        otherwise the span inherits its parent's.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if realization_of is not None:
                real = realization_of(args)
            else:
                real = None if parent is None else self.spans[parent].realization
            span = Span(name, time.perf_counter(), parent, real)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def counted(self, key: str, fn, with_bytes: bool = False):
        """Wrap ``fn`` so its calls are summed into the enclosing span.

        ``key`` is ``<layer>.<name>``.  With ``with_bytes`` the computed
        size of the array operands and the result is summed as well.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self.spans[self._stack[-1]]
            outermost = self._counted_depth == 0
            self._counted_depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._counted_depth -= 1
            entry = span.counters.get(key)
            if entry is None:
                entry = span.counters[key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += dt
            if with_bytes:
                entry[2] += sum(_nbytes(a) for a in args) + _nbytes(out)
            if outermost:
                span.counted_s[key.split(".", 1)[0]] += dt
            return out

        return wrapper

    # -- reduction ---------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def counter(self, key: str) -> tuple[int, float, int]:
        calls = secs = nbytes = 0
        for s in self.spans:
            entry = s.counters.get(key)
            if entry is not None:
                calls += entry[0]
                secs += entry[1]
                nbytes += entry[2]
        return calls, secs, nbytes

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by child spans or counted calls."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s, inner in zip(self.spans, child_s):
            counted = sum(s.counted_s.values())
            out[s.layer] += s.duration - inner - counted
            for layer, secs in s.counted_s.items():
                out[layer] += secs
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "realization": s.realization,
                    "counters": s.counters,
                }) + "\n")


@contextmanager
def patched(*replacements):
    """Temporarily set attributes: each replacement is ``(owner, name, value)``."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)

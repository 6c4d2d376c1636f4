"""In-memory span tracer that wraps module-level call boundaries.

A span records a name, start and end times (`time.perf_counter`), the
span that was open when it began (its parent) and the id of the
benchmark operation it belongs to.  Spans are kept in a list and only
summarized or written out after the run.

`Tracer.wrap` replaces a module attribute with a recording wrapper, and
`Tracer.restore` puts every original back.  A call made while a span of
the same name is already open is not recorded, so a function that
recurses through its own (wrapped) module global counts once, at its
outermost call.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


#: Called after a wrapped call returns: (counters, args, kwargs, result).
CountHook = Callable[[collections.Counter, tuple, dict, Any], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: collections.Counter = collections.Counter()
        self.op = ""
        self._stack: list[int] = []
        self._open: collections.Counter = collections.Counter()
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.op))
        self._stack.append(idx)
        self._open[name] += 1
        try:
            yield
        finally:
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, owner: Any, attr: str, name: str,
             count: CountHook | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        Generator functions get one span per `next()`, so the consumer's
        work between items is not charged to the generator.
        """
        original = getattr(owner, attr)
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    if count is not None:
                        count(self.counters, args, kwargs, item)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if self._open[name]:
                    return original(*args, **kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if count is not None:
                    count(self.counters, args, kwargs, result)
                return result
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute replaced by `wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds `s` and self seconds `self_s`.

        Spans open and close as nested `with` blocks on one thread, so a
        span's direct children are disjoint and lie inside it: self time
        is its duration minus the sum of theirs.
        """
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, children in zip(self.spans, child_s):
            dur = s.end - s.start
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - children
        return out

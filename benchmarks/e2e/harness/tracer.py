"""Span tracer for the traced pass.

The harness records spans from its own files, around the public entry
points of each engine layer (no edit under ``src/``). A layer's *self
time* is its span's duration minus the part its child spans cover, so the
self times of one op sum to the op's wall time by construction — the op's
root span keeps whatever no wrapper claimed (the generator-based
operator/executor code has no call boundary to wrap), and that residual
is reported as ``core.operators.glue_s``.

Calls that happen per record or per page would make millions of spans, so
spans are aggregated in memory per ``(op, span name, parent span name)``
— calls, first start, last end, total and self seconds — and written out
when the round ends. The engine runs single-threaded under the default
``ExecutionContext`` (no prefetch thread, no worker pool), which is what
lets one plain stack carry the parent chain.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter

#: name of every op's root span
OP_SPAN = "op"


class Tracer:
    """Aggregating span stack. Spans are recorded only while an op is
    open; outside one every wrapper is a plain call."""

    def __init__(self) -> None:
        #: open spans, innermost last: [name, start, seconds covered by children]
        self._stack: list[list] = []
        #: (name, parent) -> [calls, first start, last end, total_s, self_s]
        self._spans: dict[tuple[str, str], list] = {}
        #: per-op free-form counts recorded by wrappers (e.g. hnsw hops)
        self.counts: dict[str, float] = {}

    # -- spans ----------------------------------------------------------

    def push(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def pop(self) -> float:
        name, start, covered = self._stack.pop()
        end = _clock()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else "")
        entry = self._spans.get(key)
        if entry is None:
            self._spans[key] = [1, start, end, duration, duration - covered]
        else:
            entry[0] += 1
            entry[2] = end
            entry[3] += duration
            entry[4] += duration - covered
        return duration

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span (a pass-through while no op is open,
        so engine work between ops — reference checks reading results —
        is not attributed to anything)."""
        if not self._stack:
            return fn(*args, **kwargs)
        self.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.pop()

    def iterate(self, name: str, iterable) -> Iterator:
        """Re-yield ``iterable`` with each resumption of it inside a span:
        the time the consumer spends between items is the consumer's."""
        iterator = iter(iterable)
        try:
            while True:
                if not self._stack:
                    yield from iterator
                    return
                self.push(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.pop()
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def count(self, name: str, amount: float = 1) -> None:
        if self._stack:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- ops ------------------------------------------------------------

    def begin_op(self) -> None:
        self._spans = {}
        self.counts = {}
        self.push(OP_SPAN)

    def end_op(self) -> dict:
        """Close the op's root span; returns ``{"start", "end", "spans":
        [...], "counts": {...}}`` with one aggregated record per (name,
        parent)."""
        self.pop()
        spans = [
            {
                "name": name,
                "parent": parent,
                "calls": calls,
                "start": first,
                "end": last,
                "total_s": total,
                "self_s": own,
            }
            for (name, parent), (calls, first, last, total, own) in self._spans.items()
        ]
        root = next(s for s in spans if s["name"] == OP_SPAN)
        return {
            "start": root["start"],
            "end": root["end"],
            "spans": spans,
            "counts": dict(self.counts),
        }


class Wrappers:
    """Installs span wrappers on engine callables and restores the
    originals. Every patch is recorded so :meth:`remove` can put back the
    exact object that was there (including ``classmethod`` descriptors)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._installed: list[tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def function(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        *,
        after: Callable | None = None,
    ) -> None:
        """Span around each call of ``owner.attr``. ``name`` may be a
        callable taking the call's first argument (the instance) — the
        blob heap, segment heap and clip heap share one class.
        ``after(tracer, instance, result)`` runs once the span is closed,
        for counts only the callee knows (HNSW hops per probe)."""
        tracer = self.tracer
        dynamic = callable(name)

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                span = name(args[0]) if dynamic else name
                result = tracer.call(span, fn, *args, **kwargs)
                if after is not None:
                    after(tracer, args[0], result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        self._replace(owner, attr, make)

    def generator(self, owner: Any, attr: str, name: str, *, counter: str | None = None) -> None:
        """Span around each resumption of the iterator ``owner.attr``
        returns (and around the call that creates it); ``counter`` counts
        the items it yields."""
        tracer = self.tracer

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                iterator = tracer.iterate(name, tracer.call(name, fn, *args, **kwargs))
                if counter is None:
                    return iterator
                return _counted(tracer, counter, iterator)
            wrapper.__wrapped__ = fn
            return wrapper

        self._replace(owner, attr, make)

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._installed)


def _counted(tracer: Tracer, counter: str, iterator: Iterator) -> Iterator:
    for item in iterator:
        tracer.count(counter)
        yield item

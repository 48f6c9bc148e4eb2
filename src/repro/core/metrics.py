"""Engine-wide telemetry: metrics registry, tracing spans, slow-query log.

Three pieces, layered bottom-up:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and bounded
  histograms (p50/p95/p99 over a sliding sample), optionally labeled
  into families. One registry is owned by the session and threaded —
  alongside :class:`~repro.core.executor.ExecutionContext` — into the
  pager, the blob heaps, the metadata segment, the UDF cache, the
  optimizer, and the executor. Metrics are **on by default**, so every
  instrument is built for the hot batch path: callers hold a bound
  instrument (no name lookup per event) and aggregate per batch, paying
  one short lock acquisition per batch rather than per row. A disabled
  registry hands out shared no-op instruments, so instrumented code
  never branches on "is telemetry on".

* Tracing spans — :func:`trace` opens a root :class:`Span`,
  :func:`span` nests a child under whatever span is current. The
  current span lives in a :mod:`contextvars` variable, so it survives
  the PR 4 thread pool: the executor copies the context into each
  worker submission and into the prefetch producer thread, and child
  spans opened there attach to the right parent. ``span()`` outside
  any trace is a no-op, so library code can annotate phases
  unconditionally. Spans export as a JSON-able dict tree
  (:meth:`Span.to_dict`) for post-hoc analysis.

* :class:`SlowQueryLog` — a bounded, catalog-persisted log of queries
  whose root span exceeded a configurable threshold, each entry
  carrying the SQL text (when the query came through LensQL), the
  parameterized plan fingerprint, the span tree, and the query's
  counter deltas. The clock is injected (``Span(..., clock=...)``)
  so threshold tests never race a real timer.

The Prometheus text renderer (:meth:`MetricsRegistry.render_prometheus`)
is the export surface the future LensQL server will mount at
``/metrics`` unchanged (ROADMAP item 4).
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Span",
    "SlowQueryLog",
    "DEFAULT_SLOW_QUERY_THRESHOLD",
    "current_span",
    "span",
    "trace",
]


# -- instruments --------------------------------------------------------------


class Counter:
    """A monotonically increasing count (float increments allowed, so
    accumulated wall time can ride the same instrument)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        # callers aggregate per batch, so this lock is taken per batch,
        # not per row — and unlike a bare ``+=`` it keeps totals exact
        # under the worker pool
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A value that can move both ways, plus a high-water helper."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    def max_of(self, value: int | float) -> None:
        """Record a high-water mark: keep the larger of value-so-far."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """Count/sum plus a bounded sliding sample for p50/p95/p99.

    The sample is a ring of the most recent :attr:`SAMPLE_SIZE`
    observations — memory stays bounded no matter how long the session
    runs, and the quantiles track recent behavior, which is what a
    "how big are coalesced runs lately" question wants.
    """

    SAMPLE_SIZE = 1024

    __slots__ = ("_lock", "count", "total", "_sample", "_next")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total: int | float = 0
        self._sample: list[int | float] = []
        self._next = 0

    def observe(self, value: int | float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if len(self._sample) < self.SAMPLE_SIZE:
                self._sample.append(value)
            else:
                self._sample[self._next] = value
                self._next = (self._next + 1) % self.SAMPLE_SIZE

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the current sample (0 if empty)."""
        with self._lock:
            sample = sorted(self._sample)
        if not sample:
            return 0.0
        rank = min(len(sample) - 1, max(0, round(q * (len(sample) - 1))))
        return float(sample[rank])

    def summary(self) -> dict[str, int | float]:
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Shared no-op standing in for every instrument of a disabled
    registry — instrumented code calls it unconditionally."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def dec(self, amount: int | float = 1) -> None:
        pass

    def max_of(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def labels(self, **label_values: str) -> "_NullInstrument":
        return self

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, int | float]:
        return {"count": 0, "sum": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    @property
    def value(self) -> int:
        return 0

    @property
    def count(self) -> int:
        return 0

    @property
    def total(self) -> int:
        return 0


_NULL = _NullInstrument()

_MAKERS: dict[str, Callable[[], Any]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class Family:
    """A labeled metric: one instrument per distinct label-value tuple."""

    __slots__ = ("name", "kind", "label_names", "_lock", "_children", "_on_child")

    def __init__(
        self,
        name: str,
        kind: str,
        label_names: tuple[str, ...],
        on_child: Callable[[tuple[str, ...], Any], None],
    ) -> None:
        self.name = name
        self.kind = kind
        self.label_names = label_names
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        #: told ``(label values, instrument)`` once per new child
        self._on_child = on_child

    def labels(self, **label_values: str) -> Any:
        try:
            key = tuple(str(label_values[name]) for name in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} needs labels {self.label_names}"
            ) from exc
        if len(label_values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} needs labels {self.label_names}, "
                f"got {sorted(label_values)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = _MAKERS[self.kind]()
                    self._on_child(key, child)
        return child


def _series_name(
    name: str, label_names: tuple[str, ...], label_values: tuple[str, ...]
) -> str:
    if not label_names:
        return name
    inner = ",".join(
        f'{label}="{value}"' for label, value in zip(label_names, label_values)
    )
    return f"{name}{{{inner}}}"


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - never stored
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# -- the registry -------------------------------------------------------------


class MetricsRegistry:
    """Thread-safe home of every instrument, keyed by metric name.

    ``enabled=False`` builds a registry whose instrument factories all
    return the shared no-op — the A/B baseline the observability
    benchmark measures overhead against.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        #: name -> (kind, help, label_names, instrument-or-family)
        self._metrics: dict[str, tuple[str, str, tuple[str, ...], Any]] = {}
        #: every series as ``(metric name, label values, kind, help,
        #: series name, instrument)`` — the series name formatted once,
        #: when the series appears, so an export is a flat read
        self._all: list[tuple[str, tuple[str, ...], str, str, str, Any]] = []

    # -- instrument factories -------------------------------------------

    def _instrument(
        self, kind: str, name: str, help: str, labels: tuple[str, ...]
    ) -> Any:
        if not self.enabled:
            return _NULL
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                known_kind, _, known_labels, instrument = existing
                if known_kind != kind or known_labels != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{known_kind} with labels {known_labels}"
                    )
                return instrument

            def track(values: tuple[str, ...], child: Any) -> None:
                series = _series_name(name, labels, values)
                self._all.append((name, values, kind, help, series, child))

            if labels:
                instrument = Family(name, kind, labels, track)
            else:
                instrument = _MAKERS[kind]()
                track((), instrument)
            self._metrics[name] = (kind, help, labels, instrument)
            return instrument

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Any:
        return self._instrument("counter", name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Any:
        return self._instrument("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Any:
        return self._instrument("histogram", name, help, labels)

    # -- export ----------------------------------------------------------

    def _series(self) -> Iterator[tuple[str, str, str, str, Any]]:
        """Yield (kind, help, metric name, series name, instrument),
        ordered by metric name, then label values."""
        for name, _, kind, help, series, instrument in sorted(
            self._all, key=lambda entry: entry[:2]
        ):
            yield kind, help, name, series, instrument

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A point-in-time copy: plain dicts, safe to hold and diff."""
        out: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for kind, _, _, series, instrument in self._series():
            if kind == "counter":
                out["counters"][series] = instrument.value
            elif kind == "gauge":
                out["gauges"][series] = instrument.value
            else:
                out["histograms"][series] = instrument.summary()
        return out

    def counter_totals(self) -> dict[str, int | float]:
        """Every counter series by name — a flat read of values (names
        were formatted when each series appeared), cheap enough to take
        before and after every query."""
        return {
            series: instrument.value
            for _, _, kind, _, series, instrument in self._all
            if kind == "counter"
        }

    def render_prometheus(self) -> str:
        """The metrics in Prometheus text exposition format.

        Histograms render as ``summary`` metrics (quantile series plus
        ``_sum``/``_count``), which is what their sliding-sample
        quantiles actually are.
        """
        lines: list[str] = []
        last_name = None
        for kind, help, name, series, instrument in self._series():
            if name != last_name:
                if help:
                    lines.append(f"# HELP {name} {help}")
                prom_type = "summary" if kind == "histogram" else kind
                lines.append(f"# TYPE {name} {prom_type}")
                last_name = name
            if kind == "histogram":
                summary = instrument.summary()
                base, _, labels = series.partition("{")
                labels = labels[:-1]  # strip the trailing "}"
                for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                    quantile_labels = ",".join(
                        part for part in (labels, f'quantile="{q}"') if part
                    )
                    lines.append(
                        f"{base}{{{quantile_labels}}} "
                        f"{_format_value(summary[key])}"
                    )
                lines.append(f"{base}_sum {_format_value(summary['sum'])}")
                lines.append(f"{base}_count {_format_value(summary['count'])}")
            else:
                lines.append(f"{series} {_format_value(instrument.value)}")
        return "\n".join(lines) + "\n" if lines else ""


#: the shared disabled registry — the default for components built
#: without a session (standalone Pager/BlobHeap construction in tests)
NULL_REGISTRY = MetricsRegistry(enabled=False)


# -- tracing spans ------------------------------------------------------------


class Span:
    """One timed phase, with children. Clock injectable for tests."""

    __slots__ = ("name", "attrs", "children", "start", "end", "_clock")

    def __init__(
        self, name: str, *, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.name = name
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []
        self._clock = clock
        self.start = clock()
        self.end: float | None = None

    def child(self, name: str) -> "Span":
        child = Span(name, clock=self._clock)
        self.children.append(child)  # list.append: safe across workers
        return child

    def finish(self) -> None:
        if self.end is None:
            self.end = self._clock()

    @property
    def duration_s(self) -> float:
        end = self.end if self.end is not None else self._clock()
        return end - self.start

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "seconds": self.duration_s,
            "children": [child.to_dict() for child in self.children],
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s:.6f}s, {len(self.children)} children)"


_CURRENT_SPAN: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "deeplens_current_span", default=None
)


def current_span() -> Span | None:
    """The innermost active span in this context, or None."""
    return _CURRENT_SPAN.get()


@contextmanager
def trace(
    name: str, *, clock: Callable[[], float] = time.perf_counter
) -> Iterator[Span]:
    """Open a root span and make it current for the dynamic extent."""
    root = Span(name, clock=clock)
    token = _CURRENT_SPAN.set(root)
    try:
        yield root
    finally:
        root.finish()
        _CURRENT_SPAN.reset(token)


@contextmanager
def span(name: str) -> Iterator[Span | None]:
    """Nest a child under the current span; a no-op outside any trace,
    so engine phases annotate themselves unconditionally."""
    parent = _CURRENT_SPAN.get()
    if parent is None:
        yield None
        return
    child = parent.child(name)
    token = _CURRENT_SPAN.set(child)
    try:
        yield child
    finally:
        child.finish()
        _CURRENT_SPAN.reset(token)


# -- the slow-query log -------------------------------------------------------

DEFAULT_SLOW_QUERY_THRESHOLD = 1.0


class SlowQueryLog:
    """Bounded log of queries over the threshold, persisted in the
    catalog (same blob-snapshot idiom as the :class:`PlanQualityLog`).

    Entries carry the SQL text (None for fluent queries), the
    parameterized plan fingerprint, the root span tree, and the
    query's counter deltas. Thresholds compare durations handed in by
    the caller — the log never reads a clock itself, which is what
    makes its threshold behavior exactly testable with fake clocks.
    """

    MAX_ENTRIES = 128

    def __init__(
        self, threshold_seconds: float = DEFAULT_SLOW_QUERY_THRESHOLD
    ) -> None:
        self.threshold_seconds = float(threshold_seconds)
        self._entries: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        #: set on record; cleared by the catalog after each flush
        self.dirty = False

    def record(
        self,
        *,
        sql: str | None,
        fingerprint: str | None,
        seconds: float,
        span: dict[str, Any] | None = None,
        counters: dict[str, int | float] | None = None,
    ) -> bool:
        """Append one entry if ``seconds`` meets the threshold."""
        if not self.accepts(seconds):
            return False
        entry = {
            "sql": sql,
            "fingerprint": fingerprint,
            "seconds": float(seconds),
            "span": span,
            "counters": dict(counters) if counters else {},
        }
        with self._lock:
            self._entries.append(entry)
            del self._entries[: -self.MAX_ENTRIES]
            self.dirty = True
        return True

    def accepts(self, seconds: float) -> bool:
        """Whether :meth:`record` would keep a query of this duration —
        lets the caller skip assembling an entry nobody will store."""
        return seconds >= self.threshold_seconds

    def entries(self) -> list[dict[str, Any]]:
        """Copies of the entries, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self._entries.clear()
                self.dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    # -- persistence -----------------------------------------------------

    def to_value(self) -> dict[str, Any]:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "entries": [dict(entry) for entry in self._entries],
            }

    @classmethod
    def from_value(cls, value: dict[str, Any]) -> "SlowQueryLog":
        log = cls(
            threshold_seconds=value.get(
                "threshold_seconds", DEFAULT_SLOW_QUERY_THRESHOLD
            )
        )
        log._entries = [dict(entry) for entry in value.get("entries", [])]
        return log

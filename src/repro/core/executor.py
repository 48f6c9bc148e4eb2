"""Parallel batched execution: worker pools, prefetch, batch sizing.

DeepLens queries are dominated by two waits — per-patch UDF inference and
blob I/O — and both parallelize: UDF maps are pure per-row, so batches can
fan out across a thread pool with ordered collection (result order and
lineage keys are preserved exactly), and storage batches can be decoded
one step ahead of the consumer so I/O overlaps inference. Batches are the
only execution protocol (:meth:`Operator.iter_batches
<repro.core.operators.base.Operator.iter_batches>`), so every piece here
works on whole batches. This module holds what the planner threads
through the physical plan:

* :class:`ExecutionContext` — the session/query knobs (worker count,
  batch size, prefetch depth), carried from :class:`~repro.core.session.
  DeepLens` / ``QueryBuilder.with_execution`` into lowering. It is the
  one home for batch size: terminals take no size argument;
* :class:`ExecutionPlan` — the *resolved* configuration of one planned
  query (the batch size the planner actually picked, and from what),
  surfaced per plan in ``explain()`` and used by every terminal to drive
  the physical root;
* :class:`PrefetchBatches` — a bounded background-thread queue between a
  storage scan and the first UDF map, so the next batch's heap reads and
  decodes run while the current batch is being inferred;
* :func:`run_ordered` — the ordered fan-out loop ``MapPatches`` dispatches
  batches through: at most ``workers + prefetch`` batches in flight,
  results consumed strictly in submission order, worker exceptions
  re-raised on the driver with their original type and traceback.

Threads, not processes: the heavy UDFs this system models (numpy/BLAS
kernels, accelerator or RPC inference) release the GIL while they wait,
which is exactly when a thread pool scales. A process pool for GIL-bound
Python UDFs is a recorded seam, not built here.
"""

from __future__ import annotations

import contextvars
import math
import queue
import threading
import time

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
)
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import MetricsRegistry
    from repro.core.profile import RuntimeProfile

T = TypeVar("T")
R = TypeVar("R")

#: smallest planner-chosen batch — below this, per-batch overhead
#: (generator hops, pool dispatch) swamps any fan-out win
MIN_BATCH_SIZE = 16

#: batches the planner aims to hand each worker, so the pool stays busy
#: through stragglers without shrinking batches into dispatch overhead
BATCHES_PER_WORKER = 4


@dataclass(frozen=True)
class ExecutionContext:
    """Execution knobs for one session or one query.

    ``workers=1`` (the default) is the serial engine — bit-identical to
    the pre-parallel executor, no threads spawned. ``workers>1`` fans UDF
    map batches across a thread pool and inserts a prefetch stage between
    storage scans and the first map. ``batch_size=None`` lets the planner
    pick from cardinality estimates; an explicit value is used as given.
    ``prefetch_batches`` bounds both the scan-side prefetch queue and the
    extra in-flight map batches beyond the worker count.

    ``profile`` carries a :class:`~repro.core.profile.RuntimeProfile`
    when this plan should be instrumented (``explain(analyze=True)``);
    it rides along without affecting equality or planning decisions.
    ``metrics`` rides along the same way: the session's
    :class:`~repro.core.metrics.MetricsRegistry`, so the executor's
    fan-out loop and prefetch stage can report batches, worker wall
    time, and queue depth without any global state.
    """

    workers: int = 1
    batch_size: int | None = None
    prefetch_batches: int = 2
    profile: "RuntimeProfile | None" = field(
        default=None, compare=False, repr=False
    )
    metrics: "MetricsRegistry | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise QueryError(f"workers must be positive, got {self.workers}")
        if self.batch_size is not None and self.batch_size < 1:
            raise QueryError(
                f"batch size must be positive, got {self.batch_size}"
            )
        if self.prefetch_batches < 0:
            raise QueryError(
                f"prefetch_batches must be non-negative, got "
                f"{self.prefetch_batches}"
            )

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def override(
        self,
        *,
        workers: int | None = None,
        batch_size: int | None = None,
        prefetch_batches: int | None = None,
    ) -> "ExecutionContext":
        """A copy with the given knobs replaced (None keeps the current)."""
        updates: dict = {}
        if workers is not None:
            updates["workers"] = workers
        if batch_size is not None:
            updates["batch_size"] = batch_size
        if prefetch_batches is not None:
            updates["prefetch_batches"] = prefetch_batches
        return replace(self, **updates) if updates else self

    def with_profile(
        self, profile: "RuntimeProfile | None"
    ) -> "ExecutionContext":
        """A copy instrumented with the given runtime profile."""
        return replace(self, profile=profile)

    def with_metrics(
        self, metrics: "MetricsRegistry | None"
    ) -> "ExecutionContext":
        """A copy reporting into the given metrics registry."""
        return replace(self, metrics=metrics)


@dataclass(frozen=True)
class ExecutionPlan:
    """The resolved execution configuration of one planned query."""

    workers: int
    batch_size: int
    prefetch_batches: int
    #: where the batch size came from: ``caller-specified``,
    #: ``cardinality (~N rows)``, or ``default``
    batch_size_source: str

    def __str__(self) -> str:
        return (
            f"workers={self.workers}, batch-size={self.batch_size} "
            f"({self.batch_size_source}), prefetch={self.prefetch_batches}"
        )


def choose_batch_size(
    context: ExecutionContext, est_rows: float | None
) -> tuple[int, str]:
    """The batch size one plan should run at, with its provenance.

    A caller-specified size always wins. A parallel plan sizes batches
    from the cardinality estimate so the pool sees enough batches to keep
    every worker busy through stragglers (``workers * BATCHES_PER_WORKER``
    of them), clamped to [MIN_BATCH_SIZE, DEFAULT_BATCH_SIZE] so a
    caller's GPU/model batch contract stays the ceiling and tiny plans
    don't dissolve into dispatch overhead. A serial plan keeps the
    default: shrinking batches buys a lone thread nothing, and a full
    batch per heap trip is exactly what the vectorized scan path wants.
    """
    if context.batch_size is not None:
        return context.batch_size, "caller-specified"
    if context.workers <= 1:
        return DEFAULT_BATCH_SIZE, "default"
    if est_rows is None or est_rows <= 0 or not math.isfinite(est_rows):
        return DEFAULT_BATCH_SIZE, "default"
    target = math.ceil(est_rows / (context.workers * BATCHES_PER_WORKER))
    size = max(MIN_BATCH_SIZE, min(DEFAULT_BATCH_SIZE, target))
    return size, f"cardinality ~{est_rows:.0f} rows"


def resolve_execution(
    context: ExecutionContext, est_rows: float | None
) -> ExecutionPlan:
    """Resolve a context against a plan's cardinality estimate."""
    size, source = choose_batch_size(context, est_rows)
    return ExecutionPlan(
        workers=context.workers,
        batch_size=size,
        prefetch_batches=context.prefetch_batches,
        batch_size_source=source,
    )


def run_ordered(
    items: Iterator[T],
    fn: Callable[[T], R],
    *,
    workers: int,
    prefetch: int = 0,
    metrics: "MetricsRegistry | None" = None,
) -> Iterator[R]:
    """Map ``fn`` over ``items`` on a thread pool, yielding in order.

    At most ``workers + prefetch`` calls are in flight; results are
    consumed strictly in submission order, so a pure per-item ``fn``
    produces exactly the serial output sequence. A worker exception is
    re-raised here with its original type. On teardown (exhaustion,
    exception, or an early-exiting consumer) queued calls are cancelled
    and *running* calls are awaited — no ``fn`` outlives the generator,
    so a worker can never touch shared state (the UDF cache, the
    catalog) after the session moves on. ``items`` is advanced only on
    the driver thread, so non-thread-safe sources are fine below this.

    Each submission runs in a *copy* of the driver's context, so the
    tracing span active here is the parent of any span a worker opens
    (each copy is private to its task — a shared context cannot be
    entered by two threads at once). With ``metrics``, the pool reports
    dispatched batches and accumulated worker wall time per call.
    """
    if workers < 1:
        raise QueryError(f"workers must be positive, got {workers}")
    depth = workers + max(prefetch, 0)
    pool = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="deeplens-exec"
    )
    batches_total = worker_seconds = None
    if metrics is not None:
        batches_total = metrics.counter(
            "deeplens_executor_batches_total",
            "batches dispatched through the ordered worker pool",
        )
        worker_seconds = metrics.counter(
            "deeplens_executor_worker_seconds_total",
            "wall time accumulated inside pool workers",
        )

    def call(item: T) -> R:
        if worker_seconds is None:
            return fn(item)
        start = time.perf_counter()
        try:
            return fn(item)
        finally:
            worker_seconds.inc(time.perf_counter() - start)

    futures: deque[Future] = deque()
    try:
        exhausted = False
        while True:
            while not exhausted and len(futures) < depth:
                try:
                    item = next(items)
                except StopIteration:
                    exhausted = True
                    break
                context = contextvars.copy_context()
                futures.append(pool.submit(context.run, call, item))
                if batches_total is not None:
                    batches_total.inc()
            if not futures:
                break
            yield futures.popleft().result()
    finally:
        # cancels the queued tail, awaits the running batches
        pool.shutdown(wait=True, cancel_futures=True)


class _ProducerFailure:
    """A producer-side exception crossing the prefetch queue."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


#: end-of-stream marker on prefetch queues
_DONE = object()


class PrefetchBatches(Operator):
    """Pull the child's batches on a background thread, ``depth`` ahead.

    Inserted by lowering between a storage scan group and the first UDF
    map when the plan runs parallel: while workers infer batch *i*, the
    scan is already reading and decoding batch *i+1* — blob I/O overlaps
    inference instead of serializing with it. The queue is bounded, so an
    early-exiting consumer (a limit) stops the producer within one batch;
    producer exceptions are re-raised on the consumer with their original
    type.
    """

    def __init__(
        self,
        child: Operator,
        depth: int = 2,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if depth < 1:
            raise QueryError(f"prefetch depth must be positive, got {depth}")
        self.child = child
        self.depth = depth
        self.arity = child.arity
        self.metrics = metrics

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        buffer: queue.Queue = queue.Queue(maxsize=self.depth)
        stop = threading.Event()
        high_water = (
            self.metrics.gauge(
                "deeplens_prefetch_queue_depth_highwater",
                "deepest the scan-side prefetch queue has been",
            )
            if self.metrics is not None
            else None
        )

        def offer(item) -> bool:
            """Put unless the consumer is gone; False means stop."""
            while not stop.is_set():
                try:
                    buffer.put(item, timeout=0.05)
                    if high_water is not None:
                        # qsize is approximate under concurrency, which
                        # is fine for a high-water mark
                        high_water.max_of(buffer.qsize())
                    return True
                except queue.Full:
                    if high_water is not None:
                        high_water.max_of(self.depth)
                    continue
            return False

        def produce() -> None:
            try:
                for batch in self.child.iter_batches(size):
                    if not offer(batch):
                        return
                offer(_DONE)
            except BaseException as exc:  # re-raised consumer-side
                offer(_ProducerFailure(exc))

        # the producer runs in a copy of the consumer's context, so any
        # span it opens while decoding attaches to the active trace
        producer_context = contextvars.copy_context()
        producer = threading.Thread(
            target=producer_context.run,
            args=(produce,),
            name="deeplens-prefetch",
            daemon=True,
        )
        producer.start()
        try:
            while True:
                item = buffer.get()
                if item is _DONE:
                    return
                if isinstance(item, _ProducerFailure):
                    raise item.exc
                yield item
        finally:
            stop.set()
            producer.join(timeout=5.0)

"""Scan-side operators: collection scans, index scans, selection, mapping.

Scans are the leaves of every plan. Every read of a materialized
collection starts at its metadata segment or at an index, mirroring
Section 3.2's index menu:

* :class:`MetadataScan` — the one scan: filter on the segment's
  columns (none for a bare scan), rows (or pixel records) for the
  survivors only, in patch-id order;
* :class:`IndexLookupScan` — hash/B+ point lookup (``attr == value``);
* :class:`IndexRangeScan` — B+/sorted-file range (``lo <= attr <= hi``);
* :class:`AnnTopKScan` — HNSW / Ball-tree k nearest neighbors.

:class:`Select` filters rows that are already patches: join outputs,
maps, iterators, opaque predicates and index residuals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.core.catalog import MaterializedCollection

if TYPE_CHECKING:  # import cycle: the executor subclasses Operator
    from repro.core.executor import ExecutionContext
from repro.core.expressions import Expr
from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    as_rows,
    chunked,
    rows_of,
    slice_batches,
)
from repro.core.patch import FRAME_KEY, LINEAGE_KEY, SOURCE_KEY, Patch, Row
from repro.errors import QueryError


class IteratorScan(Operator):
    """Wrap any patch iterable (ETL output, loader output) as an operator."""

    def __init__(self, patches: Iterable[Patch]) -> None:
        self._patches = patches
        self._consumed = False

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        if isinstance(self._patches, (list, tuple)):
            # slice directly instead of re-chunking a row iterator
            for chunk in slice_batches(self._patches, size):
                yield [(patch,) for patch in chunk]
            return
        # the consumed flag trips only once this generator is actually
        # driven: merely *creating* an iterator (or an iter_batches
        # generator that is then dropped undriven) must not poison later
        # scans of the underlying one-shot iterator
        if self._consumed:
            raise QueryError(
                "this IteratorScan wraps a one-shot iterator that was "
                "already consumed; materialize the collection to re-scan"
            )
        self._consumed = True
        yield from chunked(as_rows(self._patches), size)


class MetadataScan(Operator):
    """Filter on the metadata segment's columns; materialize last.

    What a ``Filter* -> Scan`` group no index serves lowers to, with
    any opaque conjunct in a :class:`Select` above it (``expr=None``:
    every row). Per sealed block that the zone maps cannot rule out,
    only the columns ``expr`` names are decoded and masked in numpy
    (:meth:`~repro.core.expressions.Expr.mask`); rows exist only for
    the survivors. ``load_data=False`` builds data-less patches from the
    segment and never touches the patch heap; ``load_data=True`` fetches
    the surviving ids' records, so pixels are inflated for matching rows
    alone. :meth:`key_batches` goes further for an aggregate over a bare
    attribute: it hands out the masked key column and builds no row.
    """

    def __init__(
        self,
        collection: MaterializedCollection,
        expr: Expr | None = None,
        *,
        load_data: bool = False,
    ) -> None:
        self.collection = collection
        self.expr = expr
        self.load_data = load_data

    def _on_blocks(self) -> Callable[[int, int], None] | None:
        """Where the segment reports ``(skipped, scanned)`` block counts:
        the profile entry, when the planner made a zone-map skip
        estimate for it to be graded against."""
        entry = self.entry
        if entry is None or entry.est_blocks_skipped is None:
            return None
        return entry.add_blocks

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for patches in self.collection.metadata_batches(
            size, self.expr, self._on_blocks(), load_data=self.load_data
        ):
            yield [(patch,) for patch in patches]

    def key_batches(self, attr: str | None) -> Iterator[tuple]:
        """``(ids, values of attr)`` of the matching rows, one pair per
        column batch (``values`` is None for ``attr=None``)."""
        return self.collection.metadata_keys(attr, self.expr, self._on_blocks())


class _IndexScan(Operator):
    """Shared batched fetch path of the index access scans: the index
    yields patch ids, batches of ids become patches through one coalesced
    ``get_many`` heap trip each."""

    index_backed = True
    collection: MaterializedCollection
    load_data: bool
    #: metadata columns a data-less fetch decodes (None: all) — set by
    #: the lowerer when a Project directly above drops the rest anyway
    attrs: frozenset[str] | None = None

    def _ids(self) -> Iterator[int]:
        raise NotImplementedError

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for ids in chunked(self._ids(), size):
            yield self._fetch(ids)

    def _fetch(self, ids: list[int]) -> Batch:
        patches = self.collection.get_many(
            ids, load_data=self.load_data, attrs=self.attrs
        )
        return [(patch,) for patch in patches]


class IndexLookupScan(_IndexScan):
    """Equality access path: patches with ``attr == value`` via an index."""

    def __init__(
        self,
        collection: MaterializedCollection,
        attr: str,
        value,
        kind: str = "hash",
        *,
        load_data: bool = True,
    ) -> None:
        self.collection = collection
        self.attr = attr
        self.value = value
        self.kind = kind
        self.load_data = load_data

    def _ids(self) -> Iterator[int]:
        index = self.collection.index(self.attr, self.kind)
        return iter(index.lookup(self.value))


class IndexRangeScan(_IndexScan):
    """Range access path: ``lo <= attr <= hi`` via a B+ tree index."""

    def __init__(
        self,
        collection: MaterializedCollection,
        attr: str,
        lo=None,
        hi=None,
        kind: str = "btree",
        *,
        load_data: bool = True,
    ) -> None:
        self.collection = collection
        self.attr = attr
        self.lo = lo
        self.hi = hi
        self.kind = kind
        self.load_data = load_data

    def _ids(self) -> Iterator[int]:
        index = self.collection.index(self.attr, self.kind)
        return (patch_id for _, patch_id in index.range(self.lo, self.hi))


class AnnTopKScan(_IndexScan):
    """Index-backed top-k similarity: the ``k`` patches nearest to
    ``query``, nearest first, served by a vector index probe (``hnsw``
    beam search at ``ef``, or an exact BallTree k-NN) instead of a full
    scan-and-sort."""

    def __init__(
        self,
        collection: MaterializedCollection,
        attr: str,
        query,
        k: int,
        kind: str = "hnsw",
        *,
        ef: int | None = None,
        load_data: bool = True,
    ) -> None:
        self.collection = collection
        self.attr = attr
        self.query = np.asarray(query, dtype=np.float64).ravel()
        self.k = k
        self.kind = kind
        self.ef = ef
        self.load_data = load_data

    def _ids(self) -> Iterator[int]:
        index = self.collection.index(self.attr, self.kind)
        if self.kind == "hnsw":
            nearest = index.search(self.query, self.k, ef=self.ef)
            if self.entry is not None:
                # the beam's hops / distance computations, graded
                # against the cost model's candidate estimate
                self.entry.add_ann(index.last_stats)
        else:
            nearest = index.query_knn(self.query, self.k)
        return iter([patch_id for _, patch_id in nearest])


def vector_distance(patch: Patch, attr: str, query: np.ndarray) -> float | None:
    """Euclidean distance from the patch's vector — metadata ``attr``, or
    its data payload for ``"data"`` — to ``query``; None when the patch
    has no vector of the query's shape."""
    vector = patch.data if attr == "data" else patch.metadata.get(attr)
    if vector is None:
        return None
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.shape != query.shape:
        return None
    return float(np.sqrt(((v - query) ** 2).sum()))


class AnnTopKExact(Operator):
    """Exact top-k similarity over any child: compute every distance and
    keep the ``k`` smallest (pipeline breaker) — the fallback access
    path, and the oracle ANN results are graded against."""

    pipeline_breaker = True

    def __init__(self, child: Operator, attr: str, query, k: int) -> None:
        if child.arity != 1:
            raise QueryError("AnnTopKExact operates on arity-1 rows")
        self.child = child
        self.attr = attr
        self.query = np.asarray(query, dtype=np.float64).ravel()
        self.k = k

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        scored: list[tuple[float, int, Row]] = []
        for position, row in enumerate(rows_of(self.child, size)):
            distance = vector_distance(row[0], self.attr, self.query)
            if distance is not None:
                # position breaks ties deterministically (rows don't sort)
                scored.append((distance, position, row))
        scored.sort(key=lambda item: item[:2])
        yield from slice_batches([row for _, _, row in scored[: self.k]], size)


class Select(Operator):
    """Filter rows by an expression on one of their patches."""

    def __init__(self, child: Operator, expr: Expr, *, on: int = 0) -> None:
        self.child = child
        self.expr = expr
        self.on = on
        self.arity = child.arity

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        evaluate, on = self.expr.evaluate, self.on
        # re-accumulate survivors to full batches: a selective filter
        # feeding ragged chunks into a vectorized UDF would dilute the
        # batching win the filter push-down exists to deliver
        pending: Batch = []
        for batch in self.child.iter_batches(size):
            pending.extend(row for row in batch if evaluate(row[on]))
            while len(pending) >= size:
                yield pending[:size]
                pending = pending[size:]
        if pending:
            yield pending


class MapPatches(Operator):
    """Apply a patch -> patch(es) function (a generator/transformer stage).

    ``fn`` may return one patch, a list of patches, or None (drop).
    ``batch_fn``, when given, is a vectorized implementation used in
    place of ``fn``: it takes a list of patches and must return one
    result (patch / list / None) per input — the hook batched model
    inference plugs into.

    ``execution`` (an :class:`~repro.core.executor.ExecutionContext`)
    with ``workers > 1`` dispatches batches to a thread pool. UDF maps
    are pure per-row, so ordered fan-out — batches submitted in input
    order, results consumed in submission order — yields exactly the
    serial output: same rows, same order, same lineage keys. A worker
    exception re-raises on the driver with its original type.
    """

    def __init__(
        self,
        child: Operator,
        fn: Callable[[Patch], Patch | list[Patch] | None],
        *,
        on: int = 0,
        batch_fn: Callable[[list[Patch]], list[Patch | list[Patch] | None]]
        | None = None,
        execution: "ExecutionContext | None" = None,
    ) -> None:
        if child.arity != 1:
            raise QueryError("MapPatches operates on arity-1 rows")
        self.child = child
        self.fn = fn
        self.on = on
        self.batch_fn = batch_fn
        self.execution = execution

    @staticmethod
    def _result_rows(result: Patch | list[Patch] | None) -> list[Row]:
        """Normalize one UDF result into output rows (None drops)."""
        if result is None:
            return []
        if isinstance(result, Patch):
            return [(result,)]
        return [(patch,) for patch in result]

    def _apply(self, inputs: list[Patch]) -> list:
        """Run the UDF over one gathered batch (worker-side when parallel)."""
        if self.batch_fn is not None:
            results = self.batch_fn(inputs)
            if len(results) != len(inputs):
                raise QueryError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(inputs)} patches"
                )
            return results
        fn = self.fn
        return [fn(patch) for patch in inputs]

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        on = self.on
        workers = self.execution.workers if self.execution is not None else 1
        if workers > 1:
            # ordered thread-pool fan-out; imported here, not at module
            # level, because the executor subclasses this package's
            # Operator (import cycle otherwise)
            from repro.core.executor import run_ordered

            inputs = (
                [row[on] for row in batch]
                for batch in self.child.iter_batches(size)
            )
            batch_results = run_ordered(
                inputs,
                self._apply,
                workers=workers,
                prefetch=self.execution.prefetch_batches,
                metrics=self.execution.metrics,
            )
        else:
            batch_results = (
                self._apply([row[on] for row in batch])
                for batch in self.child.iter_batches(size)
            )
        for results in batch_results:
            out: Batch = []
            for result in results:
                out.extend(self._result_rows(result))
            # expanding UDFs can overshoot the batch bound: re-chunk so
            # downstream stages still see at most ``size`` rows per batch
            yield from slice_batches(out, size)


class Limit(Operator):
    """Stop after ``n`` rows — gives q5 its first-match semantics."""

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise QueryError(f"limit must be non-negative, got {n}")
        self.child = child
        self.n = n
        self.arity = child.arity

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        remaining = self.n
        if remaining == 0:
            return
        # shrinking the child's batch to n bounds how far a lazy chain
        # computes past the limit — but when a pipeline breaker (which
        # consumes everything regardless) sits anywhere below, it would
        # only starve upstream vectorized stages of full batches, so
        # leave ``size`` alone. Never *inflate*: ``size`` is the
        # caller's contract.
        child_size = size if _breaker_below(self.child) else min(size, remaining)
        for batch in self.child.iter_batches(child_size):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            yield batch
            remaining -= len(batch)


def _breaker_below(operator: Operator | None) -> bool:
    """True when a pipeline breaker sits anywhere down the child chain."""
    while operator is not None:
        if operator.pipeline_breaker:
            return True
        operator = getattr(operator, "child", None)
    return False


class OrderBy(Operator):
    """Sort rows by a key over the first patch (pipeline breaker)."""

    pipeline_breaker = True

    def __init__(
        self, child: Operator, key: Callable[[Patch], object], *, reverse: bool = False
    ) -> None:
        self.child = child
        self.key = key
        self.reverse = reverse
        self.arity = child.arity

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        rows = list(rows_of(self.child, size))
        rows.sort(key=lambda row: self.key(row[0]), reverse=self.reverse)
        yield from slice_batches(rows, size)


class Project(Operator):
    """Project each patch down to the listed metadata attributes.

    Internal keys (lineage, source, frameno) survive so backtracing and
    downstream temporal logic keep working; the pixel/feature payload is
    dropped unless ``keep_data`` — the classic "stop carrying the image
    once only metadata is needed" optimization.
    """

    #: metadata keys a projection never removes
    ALWAYS_KEPT = (LINEAGE_KEY, SOURCE_KEY, FRAME_KEY)

    def __init__(
        self, child: Operator, attrs: Iterable[str], *, keep_data: bool = False
    ) -> None:
        if child.arity != 1:
            raise QueryError("Project operates on arity-1 rows")
        self.child = child
        self.attrs = tuple(attrs)
        self.keep_data = keep_data
        self._keep = set(self.attrs) | set(self.ALWAYS_KEPT)

    def _project(self, patch: Patch) -> Patch:
        keep = self._keep
        metadata = {
            key: value for key, value in patch.metadata.items() if key in keep
        }
        return Patch(
            img_ref=patch.img_ref,  # frozen, shareable as-is
            data=patch.data if self.keep_data else np.empty(0, dtype=np.uint8),
            metadata=metadata,
            patch_id=patch.patch_id,
        )

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        project = self._project
        for batch in self.child.iter_batches(size):
            yield [(project(row[0]),) for row in batch]

"""Aggregation, distinct, and clustering operators.

The benchmark queries aggregate in three ways:

* q2 counts *frames* satisfying a predicate — :class:`DistinctCount` over
  the ``frameno`` attribute;
* q4 counts *distinct identities*, which requires deduplicating similarity
  matches — :func:`cluster_pairs` turns the match pairs of a similarity
  join into connected components (union-find), each component being one
  real-world entity;
* group-by aggregates (per-frame counts, per-clip trajectories) go through
  :class:`GroupBy`.

:class:`AggregateExecution` is what the planner lowers a terminal
``Aggregate`` to: the child operator plus the reduction to run over its
batches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    chunked,
    rows_of,
    timed,
)
from repro.core.operators.scans import MetadataScan
from repro.core.patch import Patch, Row
from repro.errors import QueryError


class DistinctCount:
    """Count distinct key values over an operator's rows (a terminal)."""

    def __init__(self, child: Operator, key: Callable[[Patch], Hashable]) -> None:
        self.child = child
        self.key = key

    def execute(self) -> int:
        seen: set[Hashable] = set()
        for row in self.child:
            seen.add(self.key(row[0]))
        return len(seen)


class Distinct(Operator):
    """Emit one row per distinct key (first occurrence wins)."""

    def __init__(self, child: Operator, key: Callable[[Patch], Hashable]) -> None:
        self.child = child
        self.key = key
        self.arity = child.arity

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return chunked(self._first_occurrences(size), size)

    def _first_occurrences(self, size: int) -> Iterator[Row]:
        seen: set[Hashable] = set()
        for row in rows_of(self.child, size):
            value = self.key(row[0])
            if value in seen:
                continue
            seen.add(value)
            yield row


class GroupBy:
    """Group rows by a key and reduce each group (a terminal).

    ``reducer`` maps a list of rows to any value; ``execute`` returns
    ``{key: reduced}``.
    """

    def __init__(
        self,
        child: Operator,
        key: Callable[[Patch], Hashable],
        reducer: Callable[[list[Row]], object] = len,
    ) -> None:
        self.child = child
        self.key = key
        self.reducer = reducer

    def execute(self) -> dict[Hashable, object]:
        groups: dict[Hashable, list[Row]] = {}
        for row in self.child:
            groups.setdefault(self.key(row[0]), []).append(row)
        return {key: self.reducer(rows) for key, rows in groups.items()}


@dataclass
class AggregateExecution:
    """A lowered aggregate: the child operator plus the reduction to run.

    ``fast`` is an optional short-circuit the lowering installs when the
    aggregate can be answered from storage statistics alone (MIN/MAX
    over a zone-mapped attribute): it returns ``(handled, value)``, and
    when handled the child operator never runs — zero blocks decoded.

    ``columns`` is the :class:`MetadataScan` at the base of ``operator``
    when the aggregate reads nothing but one metadata attribute (or
    nothing at all, for a count): the reduction then folds that scan's
    masked key column and no row is ever materialized.
    """

    operator: Operator
    kind: str
    key: Callable[[Patch], Any] | None
    reducer: Callable[[list], Any]
    fast: Callable[[], tuple[bool, Any]] | None = None
    columns: MetadataScan | None = None

    def execute(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Any:
        """Run the reduction over the operator's batches of at most
        ``batch_size`` rows."""
        if self.fast is not None:
            handled, value = self.fast()
            if handled:
                return value
        if self.kind == "group" and self.reducer is not len:
            # the reducer folds whole rows; GroupBy only iterates its
            # child, so a flattened row stream reuses its semantics
            rows = rows_of(self.operator, batch_size)
            return GroupBy(rows, self.key, self.reducer).execute()
        return _fold(self.kind, self._key_batches(batch_size))

    def _key_batches(self, batch_size: int) -> Iterator[tuple]:
        """``(patch ids, key values)`` per batch — off the scan's
        columns when the lowering proved that is all the key reads,
        else by calling ``key`` on each row's patch. A count needs no
        values."""
        if self.columns is not None:
            attr = None if self.kind == "count" else self.key.attr
            batches = self.columns.key_batches(attr)
            entry = self.operator.entry
            if entry is not None:
                # folding columns bypasses the scan's batch stream, so
                # the fold reports the matching rows as its output here
                batches = timed(entry, batches, lambda batch: len(batch[0]))
            return batches
        if self.kind == "count":
            return ((batch, None) for batch in self.operator.iter_batches(batch_size))
        key = self.key
        return (
            ([row[0].patch_id for row in batch], [key(row[0]) for row in batch])
            for batch in self.operator.iter_batches(batch_size)
        )


def _fold(kind: str, batches: Iterable[tuple]) -> Any:
    """Reduce ``(patch ids, key values)`` batches — the one fold both
    the row path and the column path run."""
    if kind == "count":
        return sum(len(ids) for ids, _ in batches)
    if kind == "distinct_count":
        seen: set[Hashable] = set()
        for _, values in batches:
            seen.update(values)
        return len(seen)
    if kind == "group":
        counts: Counter = Counter()  # first-seen key order, like GroupBy
        for _, values in batches:
            counts.update(values)
        return dict(counts)
    if kind == "avg":
        # SQL semantics: NULL (None) values are skipped, and AVG of
        # an empty/all-NULL input is NULL, not a division error
        total, n = 0.0, 0
        for ids, values in batches:
            for position, value in enumerate(values):
                if value is None:
                    continue
                try:
                    total += float(value)
                except (TypeError, ValueError):
                    raise QueryError(
                        f"avg key produced non-numeric value {value!r} "
                        f"for patch {ids[position]}"
                    ) from None
                n += 1
        return total / n if n else None
    # min / max. SQL semantics: NULLs are skipped; MIN/MAX of an empty
    # or all-NULL input is NULL
    pick = min if kind == "min" else max
    best = None
    for ids, values in batches:
        for position, value in enumerate(values):
            if value is None:
                continue
            try:
                best = value if best is None else pick(best, value)
            except TypeError:
                raise QueryError(
                    f"{kind} key produced incomparable value "
                    f"{value!r} for patch {ids[position]}"
                ) from None
    return best


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        if item not in self._parent:
            raise QueryError(f"{item!r} not in the union-find structure")
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def components(self) -> list[set[Hashable]]:
        clusters: dict[Hashable, set[Hashable]] = {}
        for item in self._parent:
            clusters.setdefault(self.find(item), set()).add(item)
        return list(clusters.values())

    def n_components(self) -> int:
        return sum(1 for item, parent in self._parent.items() if item == parent)


def cluster_pairs(
    items: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
) -> list[set[Hashable]]:
    """Connected components of the match graph — q4's deduplication step.

    ``items`` are all candidate entities (singletons included); ``pairs``
    the matches produced by the similarity join.
    """
    uf = UnionFind()
    for item in items:
        uf.add(item)
    for a, b in pairs:
        uf.union(a, b)
    return uf.components()

"""Operator interface (Section 2.2).

    Operator(Iterator<Tuple<Patch>> in, Iterator<Tuple<Patch>> out)

Every operator produces rows, where a row is a tuple of patches (arity 1
from scans, 2+ after joins) — the closed algebra "collection of patches
in and collection of patches out". There is one execution protocol:
:meth:`Operator.iter_batches` moves ``list[Row]`` chunks through the
plan, and it is the only method an operator implements. Row iteration
(``for row in op``, ``collect()``, ``patches()``, ``count()``) is a
derived view that flattens those batches. Operators are lazy; pulling
the root of a plan drives the whole pipeline, Volcano style [Graefe 94],
a batch at a time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from repro.core.batching import (  # noqa: F401  (canonical re-export)
    DEFAULT_BATCH_SIZE,
    chunked,
    slice_batches,
)
from repro.core.patch import Patch, Row
from repro.errors import QueryError

#: A batch flowing between operators.
Batch = list[Row]


class Operator(ABC):
    """One dataflow operator producing rows of patches."""

    #: number of patches per output row
    arity: int = 1

    #: True for operators that must consume their entire input before
    #: emitting anything (sorts); early-exit stages above them (limits)
    #: use this to decide whether shrinking the batch size helps
    pipeline_breaker: bool = False

    @abstractmethod
    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        """Yield output rows in non-empty ``list[Row]`` chunks of at most
        ``size``.

        ``size`` is the caller's execution granularity — a vectorized
        UDF's batch contract, for instance — and flows through the whole
        pipeline unchanged: no stage hands its child a larger size, so a
        caller-chosen bound (GPU memory, model batch limit) holds
        everywhere below the root.
        """

    def __iter__(self) -> Iterator[Row]:
        """Yield output rows: the batches of :meth:`iter_batches`,
        flattened."""
        for batch in self.iter_batches():
            yield from batch

    # -- terminal convenience methods ------------------------------------

    def collect(self) -> list[Row]:
        return list(self)

    def patches(self) -> list[Patch]:
        """Collect single-patch rows as bare patches."""
        if self.arity != 1:
            raise QueryError(
                f"patches() needs arity-1 rows; this operator yields "
                f"{self.arity}-tuples — use collect()"
            )
        return [row[0] for row in self]

    def count(self) -> int:
        return sum(1 for _ in self)


def as_rows(patches: Iterable[Patch]) -> Iterator[Row]:
    """Lift bare patches into arity-1 rows."""
    for patch in patches:
        yield (patch,)


def rows_of(child: Operator, size: int) -> Iterator[Row]:
    """``child``'s rows, pulled in batches of at most ``size`` — how
    per-row logic (join probes, dedup) consumes a child without
    exceeding its caller's batch bound."""
    for batch in child.iter_batches(size):
        yield from batch

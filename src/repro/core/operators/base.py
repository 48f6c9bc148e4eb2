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

``explain(analyze=True)`` runs the very operator objects an unprofiled
plan is made of: :func:`instrument` points an operator at its
:class:`~repro.core.profile.OperatorProfile` entry and times its batch
stream in place, so no wrapper operator ever sits in a plan.
"""

from __future__ import annotations

import time

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.core.batching import (  # noqa: F401  (canonical re-export)
    DEFAULT_BATCH_SIZE,
    chunked,
    slice_batches,
)
from repro.core.patch import Patch, Row
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.profile import OperatorProfile

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

    #: the profile entry this instance reports to while its plan runs
    #: under ``explain(analyze=True)`` (set by :func:`instrument`)
    entry: "OperatorProfile | None" = None

    #: True for scans whose every fetched row is an index probe
    index_backed: bool = False

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


def timed(
    entry: "OperatorProfile", source: Iterator, rows: Callable[[Any], int] = len
) -> Iterator:
    """Pass ``source`` through, counting each item into ``entry`` as one
    batch of ``rows(item)`` output rows and timing each pull.

    Timing is inclusive — each pull's duration covers the whole subtree
    below, so an operator's *self* time is its entry's seconds minus its
    children's. The entry is marked exhausted only when the source
    raises ``StopIteration``; a limit above that stops pulling early
    leaves the flag unset, which keeps truncated counts out of the
    feedback loop.
    """
    while True:
        started = time.perf_counter()
        try:
            item = next(source)
        except StopIteration:
            entry.add_time(time.perf_counter() - started)
            entry.mark_exhausted()
            return
        entry.add_batch(rows(item), time.perf_counter() - started)
        yield item


def instrument(
    operator: Operator, entry: "OperatorProfile", *, as_input: bool = False
) -> None:
    """Make ``operator`` report to ``entry``, in place.

    Sets ``operator.entry`` (what leaf scans, ANN probes and the UDF
    memo report their block / probe / cache actuals to) and shadows this
    instance's ``iter_batches`` with a counting pass over the original:
    its batches are the entry's timed *output*, or with ``as_input`` the
    entry's *input* — the storage scan at the base of a scan group,
    whose row count is what the storage layer actually produced (for
    index-backed scans, the probe count). Batch boundaries pass through
    untouched, so a profiled run is the unprofiled run, counted.
    """
    operator.entry = entry
    pull = operator.iter_batches
    if as_input:
        index = operator.index_backed

        def counted(size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
            for batch in pull(size):
                entry.add_input(len(batch), index=index)
                yield batch

    else:

        def counted(size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
            return timed(entry, pull(size))

    operator.iter_batches = counted  # type: ignore[method-assign]

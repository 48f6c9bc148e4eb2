"""Instrumentation wrappers for ``explain(analyze=True)``.

Two transparent operators inserted by the lowering when an
:class:`~repro.core.profile.RuntimeProfile` rides on the
:class:`~repro.core.executor.ExecutionContext`:

* :class:`ProfiledOperator` wraps a lowered operator and times each pull,
  counting output rows and batches into its
  :class:`~repro.core.profile.OperatorProfile` entry;
* :class:`InputProbe` sits at the *base* of a scan group (between the
  storage scan and its residual selects) and counts the rows the storage
  layer actually produced — which for index scans is the probe count.

Both forward ``child``/``arity``/``pipeline_breaker`` so structural walks
(`Limit`'s breaker detection, prefetch eligibility) see through them, and
both preserve batch boundaries exactly, so profiled execution is
bit-identical to unprofiled execution — just counted.
"""

from __future__ import annotations

import time

from typing import Any, Callable, Iterator

from repro.core.operators.base import DEFAULT_BATCH_SIZE, Batch, Operator
from repro.core.profile import OperatorProfile


class ProfiledOperator(Operator):
    """Counts and times ``child``'s output into a profile entry.

    Timing is inclusive — each pull's duration covers the whole subtree
    below, so an operator's *self* time is its entry's seconds minus its
    children's. The entry is marked exhausted only when the child raises
    ``StopIteration``; a limit above that stops pulling early leaves the
    flag unset, which keeps truncated counts out of the feedback loop.
    """

    def __init__(self, child: Operator, entry: OperatorProfile) -> None:
        self.child = child
        self.entry = entry
        self.arity = child.arity

    @property
    def pipeline_breaker(self) -> bool:  # type: ignore[override]
        return self.child.pipeline_breaker

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return self.timed(self.child.iter_batches(size), len)

    def timed(self, source: Iterator, rows: Callable[[Any], int]) -> Iterator:
        """Pass ``source`` through, counting each item as one batch of
        ``rows(item)`` output rows and timing each pull. Also how an
        aggregate that folds the child's columns (not its row batches)
        still reports to this operator's entry."""
        entry = self.entry
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


class InputProbe(Operator):
    """Counts ``child``'s output as a profile entry's *input* rows.

    Inserted directly above the storage scan of a profiled scan group;
    with ``index_probes=True`` (index-backed scans) every row counted is
    also an index probe.
    """

    def __init__(
        self,
        child: Operator,
        entry: OperatorProfile,
        *,
        index_probes: bool = False,
    ) -> None:
        self.child = child
        self.entry = entry
        self.index_probes = index_probes
        self.arity = child.arity

    @property
    def pipeline_breaker(self) -> bool:  # type: ignore[override]
        return self.child.pipeline_breaker

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        entry, index = self.entry, self.index_probes
        for batch in self.child.iter_batches(size):
            entry.add_input(len(batch), index=index)
            yield batch

"""Lineage-keyed UDF result memo (``map(..., cache=True)``).

:class:`UDFCache` is the in-memory, single-flight memo every cached map
runs through; :class:`~repro.core.materialization.PersistentUDFCache`
backs it with a catalog-persisted second tier.
"""

from __future__ import annotations

import copy
import hashlib
import threading

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.metrics import NULL_REGISTRY
from repro.core.patch import LINEAGE_KEY, Patch
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.operators import Operator


class UDFCache:
    """Memoized UDF results keyed by patch lineage id.

    Two patches with the same lineage chain are the same logical patch
    (same base image, same derivation), so a deterministic UDF's output
    can be reused across queries — the paper's "materialize intermediate
    inference" / EVA's inference-result caching, scoped to a session.

    Keys include the UDF function object, so hits require the *same*
    function across queries — hoist UDFs to module/session level rather
    than recreating lambdas per query. The store is bounded
    (``max_entries``, LRU eviction), so per-query lambdas degrade to
    wasted space at worst, never unbounded growth.

    Subclasses may override :meth:`_fetch` / :meth:`_put` to back the
    in-memory store with a second tier — :class:`~repro.core.
    materialization.PersistentUDFCache` spills results through the
    catalog so cached inference survives sessions.

    The cache is thread-safe: parallel map workers share one instance.
    The mutex guards only the in-memory LRU and the single-flight claim
    registry; the second tier's I/O (:meth:`_fetch_second_tier` /
    :meth:`_spill`) runs *outside* it, so workers serving different keys
    from disk — or computing while another fetches — never serialize on
    the memory lock. Misses are *single-flight*: when two workers miss
    the same key concurrently, one consults the second tier and computes
    while the other waits and is served the cached result, so one digest
    is never computed (or spilled) twice.
    """

    def __init__(self, max_entries: int = 100_000, *, metrics=None) -> None:
        if max_entries < 1:
            raise QueryError(
                f"max_entries must be positive, got {max_entries}"
            )
        registry = metrics if metrics is not None else NULL_REGISTRY
        lookups = registry.counter(
            "deeplens_udf_cache_lookups_total",
            "UDF-cache lookups by result",
            labels=("result",),
        )
        self._metric_hits = lookups.labels(result="hit")
        self._metric_misses = lookups.labels(result="miss")
        self._metric_disk_hits = lookups.labels(result="disk_hit")
        self._metric_waits = registry.counter(
            "deeplens_udf_cache_singleflight_waits_total",
            "waits on another worker's in-flight computation",
        )
        #: incremented by PersistentUDFCache._spill (the base tier has
        #: nowhere to spill, so the counter stays 0 here)
        self._metric_spills = registry.counter(
            "deeplens_udf_cache_spills_total",
            "fresh results spilled to the persistent tier",
        )
        self._store: dict[Any, Any] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: guards the in-memory store, the counters, and the claim
        #: registry — never held across second-tier I/O or UDF calls
        self._mutex = threading.RLock()
        #: single-flight registry: key -> event set when its computation
        #: lands in the store (or its owner fails)
        self._inflight: dict[Any, threading.Event] = {}

    def _fetch(self, key: Any) -> Any:
        """Look up one in-memory entry (must hold ``_mutex``); raises
        KeyError on miss (TypeError for unhashable keys propagates to the
        caller's skip-caching path — subscript rather than .pop(), which
        skips hashing on empty dicts)."""
        value = self._store[key]
        del self._store[key]
        self._store[key] = value  # re-insert: most-recently-used last
        return value

    def _put(self, key: Any, value: Any) -> None:
        """Insert an in-memory entry (must hold ``_mutex``)."""
        if key not in self._store and len(self._store) >= self.max_entries:
            # LRU eviction: _fetch re-inserts on hit, so insertion order
            # is recency order and the first entry is the coldest
            self._store.pop(next(iter(self._store)))
        self._store[key] = value

    # -- second tier (overridden by PersistentUDFCache) -----------------
    # Called WITHOUT the mutex, only by the single-flight owner of a key,
    # so implementations may do I/O without serializing other workers and
    # never see two concurrent calls for the same key.

    def _fetch_second_tier(self, key: Any) -> Any:
        """Consult the slow tier on a memory miss; KeyError when absent."""
        raise KeyError(key)

    def _spill(self, key: Any, value: Any) -> None:
        """Persist one freshly computed result to the slow tier."""

    def __len__(self) -> int:
        with self._mutex:
            return len(self._store)

    def clear(self) -> None:
        with self._mutex:
            self._store.clear()

    def _claim(self, key: Any) -> threading.Event | None:
        """Claim a missed key for computation (must hold ``_mutex``).

        Returns None when this caller now owns the computation, or the
        owning worker's event to wait on before re-checking the store.
        """
        event = self._inflight.get(key)
        if event is None:
            self._inflight[key] = threading.Event()
        return event

    def _release(self, key: Any) -> None:
        """End a claimed computation (after _put, or on failure) and wake
        every worker waiting for this key."""
        with self._mutex:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    @staticmethod
    def _key(name: str, fn: Callable, patch: Patch) -> tuple:
        # fn itself participates in the key (functions hash by identity,
        # and living in the key keeps them alive) so two different UDFs
        # sharing a name — e.g. both left at the default — never collide.
        # The data shape distinguishes the same logical patch with its
        # payload present vs projected away (select() / load_data=False),
        # and the metadata fingerprint distinguishes patches whose
        # lineage chains coincide but whose attributes differ — derive()
        # records op/params, not metadata_updates, so lineage alone is
        # not a sound memo key.
        return (
            name,
            fn,
            patch.patch_id,
            patch.lineage,
            patch.data.shape,
            _meta_fingerprint(patch.metadata),
        )

    @staticmethod
    def _isolate(value: Any) -> Any:
        """Deep-copy the mutable parts of cached patches (metadata —
        including nested arrays/lists — data array, patch_id slot) so
        neither the cache nor callers can corrupt the other —
        materialize() assigns patch_id in place, and callers may
        post-process data arrays or metadata values in place."""
        if isinstance(value, Patch):
            return Patch(
                img_ref=value.img_ref,
                data=value.data.copy(),
                metadata=copy.deepcopy(value.metadata),
                patch_id=value.patch_id,
            )
        if isinstance(value, list):
            return [UDFCache._isolate(item) for item in value]
        return value

    def wrap(
        self, name: str, fn: Callable[[Patch], Any]
    ) -> Callable[[Patch], Any]:
        """Scalar form of :meth:`wrap_batch` — the same memo driven with
        one-patch batches, so both forms of one UDF share entries."""
        batched = self.wrap_batch(
            name, lambda patches: [fn(p) for p in patches], identity=fn
        )
        return lambda patch: batched([patch])[0]

    def wrap_batch(
        self,
        name: str,
        batch_fn: Callable[[list[Patch]], list],
        *,
        identity: Callable | None = None,
        operator: "Operator | None" = None,
    ) -> Callable[[list[Patch]], list]:
        """Memoize a vectorized UDF: only cache misses reach ``batch_fn``.

        ``identity`` (defaulting to ``batch_fn``) is the function used in
        cache keys; passing the map's scalar fn lets the scalar and
        vectorized forms of one UDF share entries. ``operator`` is the
        map the wrapper runs for: every hit/miss added to the cache-wide
        totals is mirrored to ``operator.entry`` when it has one, so
        profiled plans attribute cache traffic to the map that caused it.
        """
        ident = identity if identity is not None else batch_fn

        def report(hits: int, misses: int) -> None:
            entry = getattr(operator, "entry", None)
            if entry is not None:
                entry.add_cache(hits, misses)

        def cached(patches: list[Patch]) -> list:
            results: list = [None] * len(patches)
            keys: list = [None] * len(patches)  # None -> uncachable
            for position, patch in enumerate(patches):
                try:
                    key = self._key(name, ident, patch)
                    hash(key)
                    keys[position] = key
                except TypeError:  # unhashable: computed, never cached
                    pass
            pending = list(range(len(patches)))
            while pending:
                compute: list[int] = []
                owned: list = []
                waiting: dict[int, threading.Event] = {}
                # every claim this round is released in the finally — a
                # failure anywhere (claim scan, second tier, the UDF, the
                # store) must wake waiters rather than strand them
                try:
                    memory_hits: dict[int, Any] = {}
                    with self._mutex:
                        for position in pending:
                            key = keys[position]
                            if key is None:
                                compute.append(position)
                                continue
                            try:
                                memory_hits[position] = self._fetch(key)
                                self.hits += 1
                            except KeyError:
                                event = self._claim(key)
                                if event is None:
                                    compute.append(position)
                                    owned.append(key)
                                else:
                                    waiting[position] = event
                    # deep-copies of hits happen outside the mutex (the
                    # stored values are never mutated)
                    if memory_hits:
                        self._metric_hits.inc(len(memory_hits))
                    report(len(memory_hits), 0)
                    for position, value in memory_hits.items():
                        results[position] = self._isolate(value)
                    if compute:
                        # owned keys may live in the second tier; only
                        # true absences reach the vectorized UDF
                        missing: list[int] = []
                        served: dict[int, Any] = {}
                        for position in compute:
                            key = keys[position]
                            if key is None:
                                missing.append(position)
                                continue
                            try:
                                served[position] = self._fetch_second_tier(key)
                            except KeyError:
                                missing.append(position)
                        fresh: list = []
                        if missing:
                            fresh = batch_fn([patches[i] for i in missing])
                            if len(fresh) != len(missing):
                                raise QueryError(
                                    f"batch_fn returned {len(fresh)} results "
                                    f"for {len(missing)} patches"
                                )
                        isolated = {
                            position: self._isolate(value)
                            for position, value in zip(missing, fresh)
                        }
                        served_isolated = {
                            position: self._isolate(value)
                            for position, value in served.items()
                        }
                        with self._mutex:
                            self.misses += len(missing)
                            self.hits += len(served)
                            for position, value in served.items():
                                results[position] = value
                                self._put(
                                    keys[position], served_isolated[position]
                                )
                            for position, value in zip(missing, fresh):
                                results[position] = value
                                if keys[position] is not None:
                                    self._put(keys[position], isolated[position])
                        if served:
                            self._metric_disk_hits.inc(len(served))
                        if missing:
                            self._metric_misses.inc(len(missing))
                        report(len(served), len(missing))
                        for position in missing:
                            if keys[position] is not None:
                                self._spill(keys[position], isolated[position])
                finally:
                    for key in owned:
                        self._release(key)
                # keys claimed by other workers: wait (after computing our
                # own share, so two batches owning disjoint keys can never
                # deadlock on each other), then re-check the store — on an
                # owner failure the next round claims the key itself
                if waiting:
                    self._metric_waits.inc(len(waiting))
                for event in waiting.values():
                    event.wait()
                pending = sorted(waiting)
            return results

        return cached


def _meta_fingerprint(metadata: dict) -> tuple:
    """A hashable digest of a patch's metadata for cache keying.

    Unhashable oddball values raise TypeError here, which the cache's
    existing handler turns into "skip caching for this patch".
    """
    return tuple(
        sorted(
            (key, _value_fingerprint(value))
            for key, value in metadata.items()
            if key != LINEAGE_KEY  # the lineage chain is keyed separately
        )
    )


def _value_fingerprint(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        # a keyed digest, not hash(): bytes hashing is salted per process,
        # and these fingerprints key the *persistent* UDF result store
        digest = hashlib.blake2b(value.tobytes(), digest_size=8).hexdigest()
        return ("ndarray", value.shape, value.dtype.str, digest)
    if isinstance(value, (list, tuple)):
        return tuple(_value_fingerprint(item) for item in value)
    if isinstance(value, dict):
        return tuple(
            sorted((key, _value_fingerprint(item)) for key, item in value.items())
        )
    return value

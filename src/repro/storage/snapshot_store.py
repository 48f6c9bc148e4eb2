"""One snapshot store: base + delta persistence of derived structures.

Statistics, metadata-segment descriptors, HNSW graphs, the plan-quality
and slow-query logs and the video registry all persist the same way: a
blob in an append-only :class:`~repro.storage.kvstore.heap.BlobHeap`
plus a reference entry in the catalog's directory. Re-serializing the whole
object on every commit made a commit cost O(structure); this store makes
it O(change) the way Deep Lake commits a version as the diff of appended
chunks.

Every key owns a **chain** of records. The oldest is a *base* (the full
``to_value()`` of the object); each later one is a *delta* (what
``take_delta()`` reported) holding a back pointer to the record before
it. The store's ``refs`` mapping (a section of the catalog's keyed
directory) keeps only ``(base_ref, head_ref)`` per key — one small entry,
rewritten by the store whenever that chain moves and by nothing else —
so it stays O(1) however long the chain grows. One fixed policy bounds the
chain: a delta is written only while the deltas' stored bytes stay below
the base's stored bytes, otherwise a fresh base starts a new chain — an
appended row is rewritten O(1) times amortized, and a load reads less
than twice the base.

Records are ordinary heap appends, so they inherit the heap's record
checksums and ride the commit journal's transaction: a rolled-back
commit truncates them away together with the directory entry that would
have referenced them.

Client protocol (duck-typed; the store never imports its clients):

``obj.to_value()``
    the full snapshot. An object without the method (a plain list or
    dict of serializable values) is its own snapshot.
``obj.take_delta()`` *(optional)*
    what changed since the previous call (or since the object was
    loaded), or ``None`` when the object does not continue a persisted
    state (freshly built, rebuilt). Either way the next call reports
    changes from now on. Objects without the method are saved in full
    every time.
``obj.apply_delta(value)``
    fold one delta into an object restored by the ``from_value``
    callable handed to :meth:`SnapshotStore.load`.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import MutableMapping
from typing import Any, Callable

from repro.errors import CorruptionError, StorageError
from repro.storage.kvstore import BlobHeap, BlobRef, serialization

BASE = "base"
DELTA = "delta"

#: what a record that passed its checksum can still raise while being
#: decoded or folded (a writer stored a value its reader rejects, or a
#: client found it inconsistent): all one positioned CorruptionError
DECODE_ERRORS = (
    StorageError,
    zlib.error,
    struct.error,
    ValueError,
    KeyError,
    TypeError,
    IndexError,
    AttributeError,
)


class SnapshotStore:
    """Keyed base + delta chains over one blob heap.

    Keys are tuples whose first element names the structure kind
    (``("stats", "detections")``, ``("hnsw", "vecs", "emb")``); it labels
    the ``deeplens_snapshot_*`` series. ``refs`` maps each key to its
    chain, ``[base_off, base_len, head_off, head_len]``: the store reads
    an entry when a chain is touched and writes it when the chain moves,
    so whoever owns the mapping (the catalog's directory; a plain dict in
    tests) persists exactly what changed.
    """

    def __init__(self, heap: BlobHeap, refs: MutableMapping, *, metrics=None) -> None:
        self._heap = heap
        self.refs = refs
        if metrics is None:
            # runtime import: repro.core imports the storage package at load
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._metric_writes = metrics.counter(
            "deeplens_snapshot_writes_total",
            "snapshot records appended, by structure and record kind",
            labels=("structure", "kind"),
        )
        self._metric_bytes = metrics.counter(
            "deeplens_snapshot_bytes_total",
            "stored bytes of appended snapshot records",
            labels=("structure", "kind"),
        )
        #: key -> stored bytes of the deltas between base and head, for
        #: the chains this session has walked or started (only then may a
        #: delta be appended: the policy needs the figure)
        self._delta_bytes: dict[tuple, int] = {}

    def keys(self, structure: str) -> list[tuple]:
        """The keys of every chain of one structure kind."""
        return [key for key in self.refs if key[0] == structure]

    def drop(self, key: tuple) -> None:
        """Forget a key's chain (its blobs stay in the heap, unreferenced)."""
        self._delta_bytes.pop(key, None)
        self.refs.pop(key, None)

    def _chain(self, key: tuple) -> tuple[BlobRef, BlobRef] | None:
        """``(base, head)`` of the chain under ``key``."""
        entry = self.refs.get(key)
        if entry is None:
            return None
        return BlobRef(*entry[:2]), BlobRef(*entry[2:])

    def _move(self, key: tuple, base: BlobRef, head: BlobRef, delta_bytes: int) -> None:
        self.refs[key] = [*base.to_tuple(), *head.to_tuple()]
        self._delta_bytes[key] = delta_bytes

    # -- writes -----------------------------------------------------------

    def save(self, key: tuple, obj: Any) -> None:
        """Persist ``obj`` under ``key``: a delta when the object can
        express its change as one and the chain has room, else a base."""
        take = getattr(obj, "take_delta", None)
        delta = take() if take is not None else None
        delta_bytes = self._delta_bytes.get(key)
        try:
            if delta is not None and delta_bytes is not None:
                base, head = self._chain(key)
                blob = _encode(DELTA, head, delta)
                if delta_bytes + len(blob) < base.length:
                    self._move(key, base, self._heap.put(blob), delta_bytes + len(blob))
                    self._count(key, DELTA, len(blob))
                    return
            value = obj.to_value() if hasattr(obj, "to_value") else obj
            blob = _encode(BASE, None, value)
            ref = self._heap.put(blob)
            self._move(key, ref, ref, 0)
            self._count(key, BASE, len(blob))
        except BaseException:
            # take_delta() already forgot what it handed out: only a fresh
            # base (the object's full state) can follow a failed write
            self.drop(key)
            raise

    def _count(self, key: tuple, kind: str, stored: int) -> None:
        self._metric_writes.labels(structure=key[0], kind=kind).inc()
        self._metric_bytes.labels(structure=key[0], kind=kind).inc(stored)

    # -- reads ------------------------------------------------------------

    def load(
        self,
        key: tuple,
        from_value: Callable[[Any], Any],
        *,
        on_corrupt: Callable[[CorruptionError], None] | None = None,
    ) -> Any:
        """Restore the object under ``key``: ``from_value(base)`` with
        every delta folded in through ``apply_delta``, oldest first.
        Returns ``None`` for an unknown key.

        Every failure — checksum, short read, undecodable content, a
        broken chain, a value the client rejects — is one positioned
        :class:`CorruptionError`. With ``on_corrupt`` the chain is
        quarantined (dropped), the hook is told, and ``None`` comes back
        so the caller rebuilds; without it the error propagates (state
        that cannot be rebuilt).
        """
        chain = self._chain(key)
        if chain is None:
            return None
        try:
            records = self._walk(key, *chain)
            ref, value = records.pop()
            try:
                obj = from_value(value)
                for ref, value in reversed(records):
                    obj.apply_delta(value)
            except CorruptionError:
                raise
            except DECODE_ERRORS as exc:
                raise self._corrupt(key, ref, f"rejected by its owner: {exc}") from exc
        except CorruptionError as exc:
            if on_corrupt is None:
                raise
            self.drop(key)
            on_corrupt(exc)
            return None
        self._delta_bytes[key] = sum(ref.length for ref, _ in records)
        return obj

    def _walk(
        self, key: tuple, base: BlobRef, head: BlobRef
    ) -> list[tuple[BlobRef, Any]]:
        """The chain's ``(ref, value)`` records, head first, base last."""
        records: list[tuple[BlobRef, Any]] = []
        ref = head
        while True:
            kind, prev, value = self._read(key, ref)
            records.append((ref, value))
            if kind == BASE:
                if ref != base:
                    raise self._corrupt(key, ref, "chain ends at a foreign base")
                return records
            # back pointers run strictly towards the base: anything else
            # is a cycle or a pointer into another structure's records
            if prev is None or not base.offset <= prev.offset < ref.offset:
                raise self._corrupt(key, ref, "delta points outside its chain")
            ref = prev

    def _read(self, key: tuple, ref: BlobRef) -> tuple[str, BlobRef | None, Any]:
        try:
            kind, prev, value = serialization.loads(
                zlib.decompress(self._heap.get(ref))
            )
            if kind not in (BASE, DELTA):
                raise ValueError(f"unknown record kind {kind!r}")
            return kind, None if prev is None else BlobRef.from_tuple(prev), value
        except CorruptionError:
            raise  # already positioned (heap checksum / short read)
        except DECODE_ERRORS as exc:
            raise self._corrupt(key, ref, str(exc)) from exc

    def _corrupt(self, key: tuple, ref: BlobRef, detail: str) -> CorruptionError:
        return CorruptionError(
            f"undecodable {_name(key)} snapshot: {detail}",
            file=self._heap.path,
            offset=ref.offset,
        )

    def scrub(self) -> tuple[int, list[tuple[str, CorruptionError]]]:
        """Walk every chain head to base — checksums, decoding and back
        pointers — collecting failures instead of raising, and never
        quarantining: scrub observes damage, it does not heal it.
        Returns ``(records_checked, [(structure name, error), ...])``."""
        checked = 0
        errors: list[tuple[str, CorruptionError]] = []
        for key in sorted(self.refs):
            try:
                checked += len(self._walk(key, *self._chain(key)))
            except CorruptionError as exc:
                errors.append((_name(key), exc))
        return checked, errors


def _name(key: tuple) -> str:
    """``("hnsw", "vecs", "emb")`` -> ``hnsw[vecs.emb]``."""
    return f"{key[0]}[{'.'.join(map(str, key[1:]))}]"


def _encode(kind: str, prev: BlobRef | None, value: Any) -> bytes:
    """One record as stored: compressed here, not by the heap, so the
    policy compares the bytes that actually land on disk."""
    return zlib.compress(
        serialization.dumps(
            [kind, None if prev is None else list(prev.to_tuple()), value],
            compress_arrays=False,
        ),
        6,
    )

"""Catalog: materialized patch collections and their indexes.

"Any of the intermediate results in DeepLens can be materialized ... We
also support the construction of indexes on the materialized data"
(Section 3.2). The catalog owns one pager + blob heap per database
directory and exposes:

* :meth:`Catalog.materialize` — persist a patch iterator as a named
  collection (assigning patch ids, validating each patch against a schema
  and its lineage);
* :meth:`Catalog.create_index` — hash / B+ tree / R-tree / Ball-tree over
  a collection attribute (or the patch data itself for feature patches);
* :class:`MaterializedCollection` — scan / point access / index lookup.

Multi-dimensional indexes are rebuilt from the stored patches on reopen
(they live in memory, like the paper's "on-the-fly" Ball-trees); their
registration is persisted so reopening is transparent.

The catalog is also the planner's :class:`~repro.core.statistics.
StatisticsProvider`: every :meth:`MaterializedCollection.add` folds the
patch into that collection's :class:`~repro.core.statistics.
CollectionStatistics` (histograms, MCVs, distinct sketches, embedding
dims). Statistics, HNSW graphs and the other derived structures persist
through one :class:`~repro.storage.snapshot_store.SnapshotStore` as a
base plus deltas, so they survive sessions and a commit writes what
changed, not what exists.

Everything the catalog must find again by name is one small entry in
the pager's keyed :class:`~repro.storage.kvstore.directory.Directory`
(one B+ tree in ``catalog.db``, so it grows with the physical design):

====================================  ==================================
``("collection", name)``              ``[version, fresh_version]``
``("index", collection, attr, kind)``  ``{"multi_value", "params"}``
``("snapshot", *key)``                chain ref of a derived structure
                                      (statistics, HNSW graphs, the
                                      logs, view definitions, the video
                                      registry, the recovery history)
``("segment", "segment", name)``      chain ref of a segment descriptor
``("btree", name)`` / ``("hash", …)``  header of every other paged
                                      structure (written by the pager)
====================================  ==================================

Each is written when that object changes and at no other time; the meta
page keeps only the directory's root and ``catalog:next_id``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.core.batching import DEFAULT_BATCH_SIZE, chunked
from repro.core.lineage import LineageStore
from repro.core.metrics import SlowQueryLog
from repro.core.patch import ImgRef, LINEAGE_KEY, Patch, _normalize_meta
from repro.core.profile import PlanQualityLog
from repro.core.schema import PatchSchema
from repro.core.statistics import CollectionStatistics
from repro.errors import CorruptionError, IndexError_, QueryError, StorageError
from repro.indexes import (
    BallTree,
    BTreeIndex,
    HashIndex,
    HNSWIndex,
    RTree,
    rect_from_bbox,
)
from repro.storage.journal import CommitJournal
from repro.storage.kvstore import BlobHeap, BlobRef, BPlusTree, Pager
from repro.storage.kvstore import serialization
from repro.storage.metadata_segment import (
    CollectionSegment,
    ColumnBatch,
    MetadataSegmentStore,
)
from repro.storage.snapshot_store import SnapshotStore

INDEX_KINDS = ("hash", "btree", "rtree", "balltree", "hnsw")

#: accepted CREATE INDEX ... USING HNSW (...) knobs -> HNSWIndex kwargs
_HNSW_PARAM_KEYS = {
    "m": "m",
    "ef_construction": "ef_construction",
    "ef": "ef_search",
    "ef_search": "ef_search",
    "seed": "seed",
}

#: bound on the persisted recovery-event history
RECOVERY_LOG_MAX = 64

#: how often a metadata read may quarantine + rebuild its segment before
#: giving up — a rebuilt segment failing again means the blob heap itself
#: (the source of truth) is damaged, which rebuilding cannot fix
_MAX_SEGMENT_REBUILDS = 3


class MaterializedCollection:
    """One named, persisted collection of patches."""

    def __init__(
        self, catalog: "Catalog", name: str, version: int = 0, fresh_version: int = 0
    ) -> None:
        self.catalog = catalog
        self.name = name
        #: monotone mutation counter (bumped per add) — the lineage
        #: version materialized views record for their bases — and its
        #: value at the last full materialization / statistics rebuild,
        #: the baseline the staleness flag measures from; persisted
        #: together as this collection's one directory record
        self.version = version
        self.fresh_version = fresh_version
        # trees are process-wide singletons per name (the catalog registry)
        # because lazily-written pages are only visible through the owning
        # tree object until the next sync
        self._tree = catalog._tree_for(f"col:{name}")
        self.schema: PatchSchema | None = None
        # memory-resident primary "index": patch id -> heap ref, built
        # lazily on the first point access so random gets skip the B+ walk
        self._ref_map: dict[int, bytes] | None = None

    def __len__(self) -> int:
        return len(self._tree)

    def add(self, patch: Patch) -> int:
        """Persist one patch; returns its assigned patch id. The checks
        that can reject it — schema, backtrace to a base image — run
        before the id is taken and before the first write."""
        if self.schema is not None:
            self.schema.validate_patch(patch)
        self.catalog.lineage.record(patch)
        patch_id = self.catalog._next_patch_id()
        patch.patch_id = patch_id
        ref = self.catalog.heap.put(patch.to_record(), compress=True)
        payload = serialization.dumps(list(ref.to_tuple()), compress_arrays=False)
        self._tree.insert(patch_id, payload)
        if self._ref_map is not None:
            self._ref_map[patch_id] = payload
        segment = self.catalog.segments.segment(self.name)
        if segment.row_count == len(self._tree) - 1:
            # keep the columnar segment in lockstep; an incomplete one
            # (pre-segment catalog) instead backfills on first metadata read
            segment.append(
                patch_id, patch.img_ref.to_value(), _normalize_meta(patch.metadata)
            )
        self.catalog._maintain_indexes(self.name, patch)
        self.catalog._record_statistics(self.name, patch)
        self.catalog._bump_version(self.name)
        return patch_id

    def get(self, patch_id: int, *, load_data: bool = True) -> Patch:
        if not load_data:
            return self.get_many([patch_id], load_data=False)[0]
        if self._ref_map is None:
            self._ref_map = {pid: payload for pid, payload in self._tree.items()}
        payload = self._ref_map.get(patch_id)
        if payload is None:
            raise QueryError(
                f"patch {patch_id} not in collection {self.name!r}"
            )
        return self._load(patch_id, payload, load_data)

    def get_many(
        self,
        patch_ids: Iterable[int],
        *,
        load_data: bool = True,
        attrs: Iterable[str] | None = None,
    ) -> list[Patch]:
        """Batched point access: many patches per coalesced heap trip.

        Results align with ``patch_ids``. The heap sorts the underlying
        blob reads by file offset and coalesces adjacent runs, so index
        access paths fetching dozens of ids pay a handful of sequential
        reads instead of one seek per patch. ``load_data=False`` answers
        from the columnar metadata segment — zero heap reads — and with
        ``attrs`` decodes only those metadata columns (the projection a
        ``Project`` above would apply anyway).
        """
        ids = list(patch_ids)
        if not ids:
            return []
        if not load_data:
            try:
                rows = self._segment_rows(ids, attrs)
            except KeyError as exc:
                raise QueryError(
                    f"patch {exc.args[0]} not in collection {self.name!r}"
                ) from None
            return [self._patch_from_metadata(*row) for row in rows]
        if self._ref_map is None:
            self._ref_map = {pid: payload for pid, payload in self._tree.items()}
        chunk: list[tuple[int, bytes]] = []
        for patch_id in ids:
            payload = self._ref_map.get(patch_id)
            if payload is None:
                raise QueryError(
                    f"patch {patch_id} not in collection {self.name!r}"
                )
            chunk.append((patch_id, payload))
        return self._load_chunk(chunk, load_data)

    def scan(self, *, load_data: bool = True) -> Iterator[Patch]:
        """Iterate every patch in id order.

        Rides :meth:`scan_batches`, so the serial iterator gets the same
        coalesced heap reads (``load_data=True``) or the same pure
        segment reads (``load_data=False``) as the batched path.
        """
        for batch in self.scan_batches(load_data=load_data):
            yield from batch

    def scan_batches(
        self, size: int = DEFAULT_BATCH_SIZE, *, load_data: bool = True
    ) -> Iterator[list[Patch]]:
        """Scan in id order: :meth:`metadata_batches` with no filter.
        The ids come off the segment; ``load_data=True`` reads their
        records a batch per coalesced heap trip, ``load_data=False``
        never touches the patch heap."""
        yield from self.metadata_batches(size, load_data=load_data)

    def _record_batches(
        self, size: int, load_data: bool
    ) -> Iterator[list[Patch]]:
        """Decode heap records batch-wise by walking the row tree: the
        source the metadata segment is rebuilt from. Queries never read
        through it; they start at the segment."""
        for chunk in chunked(self._tree.items(), size):
            yield self._load_chunk(chunk, load_data)

    # -- metadata segment (columnar, zone-mapped) -----------------------

    def metadata_batches(
        self,
        size: int = DEFAULT_BATCH_SIZE,
        expr=None,
        on_blocks=None,
        *,
        load_data: bool = False,
    ) -> Iterator[list[Patch]]:
        """The patches matching ``expr``, filtered on the segment's
        columns and materialized last.

        Per column batch (one segment block, sealed or open) only the
        columns ``expr`` names are decoded and masked
        (:meth:`~repro.core.expressions.Expr.mask`); blocks whose zone
        maps prove no row can match are skipped unread. Rows are
        built for the survivors only: ``load_data=False`` turns their
        segment rows into patches bit-identical to
        ``Patch.from_record(..., with_data=False)`` (empty data array,
        same metadata, same lineage tuples); ``load_data=True`` hands
        their ids to :meth:`get_many`, so pixel records are read and
        inflated for matching rows alone. ``on_blocks(skipped, scanned)``
        reports the zone-map actuals to the executing operator's profile
        as the scan finishes.

        The segment is derived state: a corrupt block does not fail the
        scan. It is quarantined, the segment rebuilds from the blob heap,
        and the scan resumes after the last row already examined (rows
        are id-ordered, so no duplicates and no gaps).
        """

        if size < 1:
            raise QueryError(f"batch size must be positive, got {size}")

        def survivors(batch: ColumnBatch) -> list:
            positions = _matching(expr, batch)
            if load_data:
                ids = batch.ids if positions is None else batch.ids[positions]
                return ids.tolist()
            return batch.rows(positions)

        def build(found: list) -> list[Patch]:
            if load_data:
                return self.get_many(found)
            return [self._patch_from_metadata(*row) for row in found]

        pending: list = []
        for found in self._segment_batches(expr, on_blocks, survivors):
            pending.extend(found)
            start = 0
            while len(pending) - start >= size:
                yield build(pending[start : start + size])
                start += size
            del pending[:start]
        if pending:
            yield build(pending)

    def metadata_keys(
        self, attr: str | None, expr=None, on_blocks=None
    ) -> Iterator[tuple[np.ndarray, list | None]]:
        """Per column batch, ``(ids, values of attr)`` of the rows
        matching ``expr`` — what an aggregate keyed by a bare attribute
        folds. No row is materialized; ``attr=None`` (a count) decodes
        nothing beyond the filter's columns. Block skipping and
        corruption recovery as in :meth:`metadata_batches`."""

        def keys(batch: ColumnBatch) -> tuple[np.ndarray, list | None]:
            positions = _matching(expr, batch)
            ids = batch.ids if positions is None else batch.ids[positions]
            return ids, None if attr is None else batch.values(attr, positions)

        return self._segment_batches(expr, on_blocks, keys)

    def _segment_batches(
        self, expr, on_blocks, select: Callable[[ColumnBatch], Any]
    ) -> Iterator[Any]:
        """``select(batch)`` for every column batch of a zone-mapped
        segment scan. ``select`` runs inside the corruption guard (it is
        what decodes columns), and a rebuilt segment is re-entered after
        the last batch ``select`` finished."""
        last_id: int | None = None
        rebuilds = 0
        while True:
            segment = self._metadata_segment()
            try:
                for batch in segment.scan_columns(
                    expr, on_blocks, after_id=last_id
                ):
                    selected = select(batch)
                    last_id = int(batch.ids[-1])
                    yield selected
                return
            except CorruptionError as exc:
                rebuilds += 1
                if rebuilds > _MAX_SEGMENT_REBUILDS:
                    raise
                self.catalog._quarantine_segment(self.name, exc)

    def metadata_block_stats(self, expr=None) -> tuple[int, int]:
        """(kept blocks, total blocks — the open one included) a
        zone-mapped metadata scan of ``expr`` would read — the planner's
        block-skipping estimate."""
        return self._metadata_segment().block_stats(expr)

    def attr_min_max(self, attr: str) -> tuple | None:
        """(min, max) of a metadata attribute answered purely from the
        segment's block zone maps — no block is decoded. ``None`` when
        not provable from summaries (mixed-type column, or no non-None
        value); callers fall back to a scan."""
        return self._metadata_segment().attr_min_max(attr)

    def _segment_rows(self, ids: list[int], attrs=None) -> list:
        """Point rows from the segment, with one quarantine + rebuild
        retry on corruption (a second failure means the blob heap itself
        is damaged and propagates)."""
        try:
            return self._metadata_segment().get_rows(ids, attrs)
        except CorruptionError as exc:
            self.catalog._quarantine_segment(self.name, exc)
            return self._metadata_segment().get_rows(ids, attrs)

    def _metadata_segment(self) -> CollectionSegment:
        """This collection's segment, rebuilt from the blob heap (the
        source of truth) whenever it is incomplete: a pre-segment catalog
        backfilling lazily, or a quarantined corrupt segment."""
        segment = self.catalog.segments.segment(self.name)
        if segment.row_count != len(self._tree):
            self.catalog._metric_segment_rebuilds.inc()
            segment.rebuild(
                (patch.patch_id, patch.img_ref.to_value(),
                 _normalize_meta(patch.metadata))
                for batch in self._record_batches(DEFAULT_BATCH_SIZE, False)
                for patch in batch
            )
        return segment

    @staticmethod
    def _patch_from_metadata(
        patch_id: int, ref_value: tuple, metadata: dict
    ) -> Patch:
        """Rebuild a data-less patch from one segment row, reproducing
        ``Patch.from_record(..., with_data=False)`` exactly."""
        metadata[LINEAGE_KEY] = tuple(
            tuple(step) for step in metadata.get(LINEAGE_KEY, ())
        )
        return Patch(
            img_ref=ImgRef.from_value(tuple(ref_value)),
            data=np.empty(0, dtype=np.uint8),
            metadata=metadata,
            patch_id=patch_id,
        )

    def _load_chunk(
        self, chunk: list[tuple[int, bytes]], load_data: bool
    ) -> list[Patch]:
        refs = [
            BlobRef.from_tuple(tuple(serialization.loads(payload)))
            for _, payload in chunk
        ]
        records = self.catalog.heap.multi_get(refs)
        return [
            Patch.from_record(record, patch_id=patch_id, with_data=load_data)
            for (patch_id, _), record in zip(chunk, records)
        ]

    def ids(self) -> list[int]:
        return [patch_id for patch_id, _ in self._tree.items()]

    def _load(self, patch_id: int, payload: bytes, load_data: bool = True) -> Patch:
        ref = BlobRef.from_tuple(tuple(serialization.loads(payload)))
        return Patch.from_record(
            self.catalog.heap.get(ref), patch_id=patch_id, with_data=load_data
        )

    # -- index access ---------------------------------------------------

    def index(self, attr: str, kind: str):
        return self.catalog.get_index(self.name, attr, kind)

    def lookup(self, attr: str, value: Any, kind: str = "hash") -> list[Patch]:
        """Point lookup through an index: patches with attr == value."""
        index = self.index(attr, kind)
        return self.get_many(list(index.lookup(value)))


class Catalog:
    """Database directory: patch heap, collections, indexes, lineage.

    Where state lives: ``catalog.db``'s meta page holds a fixed-size
    root — the root of the pager's keyed directory plus
    ``catalog:next_id`` — and :attr:`directory` holds everything else
    as one small entry per object (see the module docstring for the
    key table): a collection's two version counters, an index's
    registration with its flag and knobs, a snapshot chain's ref, a
    tree's header. An entry is written when its object changes, so a
    commit costs what changed however large the physical design is.

    Crash consistency: all four storage files (``catalog.db``,
    ``patches.heap``, ``metadata.seg``, and ``journal.log``) mutate as
    one atomic group. The first mutating write after a commit opens a
    transaction in the :class:`~repro.storage.journal.CommitJournal`;
    :meth:`sync`, :meth:`close`, :meth:`materialize`, and
    :meth:`create_index` are the commit barriers. ``__init__`` runs
    journal recovery *before* opening any store, so a catalog that
    crashed mid-mutation reopens in its last committed state.

    Persistence of derived state: collection statistics, HNSW graphs,
    the plan-quality and slow-query logs (and the session's video
    registry) are objects in memory that :meth:`persist` queues and the
    next commit barrier writes through :attr:`snapshots` — a full
    ``to_value()`` *base* the first time, then only what the object's
    ``take_delta()`` reports (the rows observed, the graph nodes and
    adjacency lists touched) chained behind it, until the chain has
    grown to the base's size and a fresh base replaces it. The
    directory holds one entry of two blob refs per structure, written
    by the store when that chain moves. The records are heap appends
    inside the journal transaction, so a crash
    rolls them back with everything else; a record that fails its
    checksum or its owner's validation quarantines the chain and the
    structure is rebuilt from the collection (statistics, graphs) or
    restarts empty (the logs), reported through :meth:`recovery_report`.
    """

    def __init__(
        self,
        workdir: str | os.PathLike,
        *,
        metrics=None,
        durability: str = "fsync",
        fs=None,
    ) -> None:
        if durability not in ("fsync", "flush", "none"):
            raise StorageError(
                f"unknown durability mode {durability!r}: "
                'expected "fsync", "flush", or "none"'
            )
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        #: the session's metrics registry (None-safe: storage layers
        #: substitute the shared null registry), threaded into the
        #: pager, both heaps, and every metadata segment
        self.metrics = metrics
        self.durability = durability
        self._fs = fs
        registry = metrics
        if registry is None:
            from repro.core.metrics import NULL_REGISTRY

            registry = NULL_REGISTRY
        self._metric_replays = registry.counter(
            "deeplens_journal_replays_total",
            "half-applied transactions rolled back at catalog open",
        )
        self._metric_segment_rebuilds = registry.counter(
            "deeplens_segment_rebuilds_total",
            "metadata segments rebuilt from the blob heap",
        )
        #: recovery/repair events observed by THIS catalog instance —
        #: what db.recovery_report() shows; also appended to the bounded
        #: persisted history
        self.recovery_events: list[dict] = []
        #: ``durability="none"`` disables journaling entirely (the
        #: pre-crash-safety behavior; the durability benchmark baseline)
        self._journal: CommitJournal | None = None
        replay_report = None
        if durability != "none":
            self._journal = CommitJournal(
                os.path.join(self.workdir, "journal.log"),
                durability=durability,
                fs=fs,
                metrics=metrics,
            )
            # recovery MUST precede opening the stores: it rewrites their
            # files directly (including a possibly-torn pager header)
            replay_report = self._journal.recover()
        self.pager = Pager(
            os.path.join(self.workdir, "catalog.db"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
        )
        #: the one home of catalog state: every collection, index, view,
        #: tree header and snapshot ref is a keyed entry of it (handing
        #: it out touches no page; its tree opens at the first access)
        self.directory = self.pager.directory
        self.heap = BlobHeap(
            os.path.join(self.workdir, "patches.heap"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
        )
        #: columnar metadata segments, one per collection, in their own
        #: heap file — metadata-only scans never touch ``patches.heap``
        self.segments = MetadataSegmentStore(
            os.path.join(self.workdir, "metadata.seg"),
            self.directory.section("segment"),
            metrics=metrics,
            journal=self._journal,
            fs=fs,
            durability=durability,
            on_corruption=self._on_segment_corruption,
        )
        if self._journal is not None:
            self._journal.register_begin_provider(self._begin_state)
        # the empty-meta sanity check must run before ANY writer (the
        # first directory access would plant a fresh directory root in
        # a zeroed meta page, which would mask a torn meta page as a
        # legitimately empty catalog and silently orphan every collection)
        meta = self.pager.get_meta()
        if not meta and (self.pager.page_count > 2 or self.heap.size_bytes > 16):
            raise CorruptionError(
                "catalog meta page is empty but the catalog contains data; "
                "the meta page was torn or zeroed",
                file=self.pager.path,
                offset=self.pager._meta_page * self.pager.page_size,
            )
        #: ``None`` until a commit has written the record: the first
        #: commit always does, which is what lets the check above tell an
        #: empty catalog from a lost meta page
        self._saved_next_id = meta.get("catalog:next_id")
        self._next_id = self._saved_next_id or 0
        self.lineage = LineageStore(self)
        #: (collection, attr, kind) -> index object
        self._indexes: dict[tuple[str, str, str], Any] = {}
        self._trees: dict[str, BPlusTree] = {}
        #: base + delta chains of every derived structure persisted in
        #: the patch heap: ("stats", collection), ("hnsw", collection,
        #: attr), ("view", name), ("plan_log",), ("slow_log",),
        #: ("videos",), ("recovery_log",)
        self.snapshots = SnapshotStore(
            self.heap, self.directory.section("snapshot"), metrics=metrics
        )
        #: snapshot key -> object the next commit barrier must save
        self._unsaved: dict[tuple, Any] = {}
        #: bounded recovery-event history across opens (saved in full on
        #: its own chain: 64 events outgrow a directory entry)
        self._recovery_log: list[dict] = []
        self._recovery_log[:0] = (
            self._load_derived(("recovery_log",), list, "recovery_log_reset") or []
        )
        if replay_report is not None:
            self._metric_replays.inc()
            self._record_recovery_event("journal_replay", **replay_report)
        self._collection_records = self.directory.section("collection")
        self._collections: dict[str, MaterializedCollection] = {
            name: MaterializedCollection(self, name, *record)
            for (name,), record in self._collection_records.items()
        }
        #: collections whose directory record the next commit rewrites
        self._dirty_collections: set[str] = set()
        self._index_records = self.directory.section("index")
        #: (collection, attr, kind) -> ``{"multi_value": bool, "params":
        #: build knobs}`` of every registered index; each is written
        #: through to its directory record when it is created or dropped
        self._registered: dict[tuple[str, str, str], dict] = dict(
            self._index_records.items()
        )
        #: collection name -> in-memory statistics (lazily loaded)
        self._stats: dict[str, CollectionStatistics] = {}
        #: lazily-loaded plan-quality log (estimate-vs-actual history and
        #: per-predicate feedback corrections from EXPLAIN ANALYZE runs)
        self._plan_log: PlanQualityLog | None = None
        #: lazily-loaded slow-query log — same lifecycle
        self._slow_log: SlowQueryLog | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.sync()
        self.pager.close()
        self.heap.close()
        self.segments.close()
        if self._journal is not None:
            self._journal.close()

    def sync(self) -> None:
        """Flush everything durably, then commit: the catalog's
        transaction barrier. Data files are synced *before* the journal
        truncates — the truncation is the commit point.

        The order inside is the one rule the directory imposes: its
        pages may be written only after everything that reports into it
        has — the snapshot stores their chain refs, the catalog its own
        records, then (inside :meth:`Pager.sync`) every tree and hash
        file its header, and the directory's own tree last."""
        for key, log in (("plan_log", self._plan_log), ("slow_log", self._slow_log)):
            if log is not None and log.dirty:
                self.snapshots.save((key,), log)
                log.dirty = False
        for key in sorted(self._unsaved):
            self.snapshots.save(key, self._unsaved[key])
        self._unsaved.clear()
        self.segments.flush()
        for name in sorted(self._dirty_collections):
            collection = self._collections[name]
            self._collection_records[(name,)] = [
                collection.version,
                collection.fresh_version,
            ]
        self._dirty_collections.clear()
        if self._next_id != self._saved_next_id:
            self.pager.set_meta({"catalog:next_id": self._next_id})
            self._saved_next_id = self._next_id
        self.pager.sync()
        self.heap.sync()
        self.segments.sync()
        if self._journal is not None:
            self._journal.commit()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def persist(self, key: tuple, obj: Any) -> None:
        """Queue ``obj`` (a :class:`~repro.storage.snapshot_store.
        SnapshotStore` client) to be saved under ``key`` by the next
        commit barrier."""
        self._unsaved[key] = obj

    # -- recovery & repair observability ---------------------------------

    def _begin_state(self) -> dict:
        """The commit journal's BEGIN snapshot: everything rollback needs
        that cannot be reconstructed after the files mutate. Called with
        no pager/heap locks held, so only plain attributes are read."""
        return {
            "op": "catalog-mutation",
            "pager": os.path.basename(self.pager.path),
            "page_size": self.pager.page_size,
            "pre_page_count": self.pager.page_count,
            "header": self.pager.packed_header(),
            "heap_ends": {
                os.path.basename(self.heap.path): self.heap.size_bytes,
                os.path.basename(self.segments.heap_path):
                    self.segments.heap_size_bytes,
            },
        }

    def _record_recovery_event(self, kind: str, **details) -> None:
        event = {"kind": kind}
        for key, value in details.items():
            event[key] = value if isinstance(value, (int, str, dict)) else str(value)
        self.recovery_events.append(event)
        self._recovery_log.append(event)
        del self._recovery_log[:-RECOVERY_LOG_MAX]
        self.persist(("recovery_log",), self._recovery_log)

    def recovery_report(self) -> dict:
        """What storage repair has happened: ``events`` covers this
        catalog instance (journal rollback at open, quarantined segments
        or snapshots repaired at runtime); ``history`` is the bounded
        persisted log across opens."""
        return {
            "events": [dict(e) for e in self.recovery_events],
            "history": [dict(e) for e in self._recovery_log],
        }

    def scrub(self) -> dict:
        """On-demand integrity sweep over every checksummed structure:
        pager pages (against their committed on-disk images), blob-heap
        records of both heap files, every snapshot chain of both stores
        (walked head to base: decoding and back pointers, not just the
        record checksums), and every collection's sealed
        metadata-segment blocks (decoded end to end).

        Failures are collected, not raised: each lands in the returned
        ``errors`` list, is recorded as a ``scrub_corruption`` recovery
        event (so :meth:`recovery_report` shows it), and counts in
        ``deeplens_corruption_detected_total`` at the detecting layer.
        """
        errors: list[dict] = []

        def note(source: str, found) -> None:
            for exc in found:
                entry = {"source": source, "detail": str(exc)}
                if getattr(exc, "file", None) is not None:
                    entry["file"] = exc.file
                if getattr(exc, "offset", None) is not None:
                    entry["offset"] = exc.offset
                errors.append(entry)

        pages_checked, page_errors = self.pager.scrub()
        note("pager", page_errors)
        records_checked, record_errors = self.heap.scrub()
        note("heap", record_errors)
        segment_records, segment_errors = self.segments.scrub()
        records_checked += segment_records
        note("segment-heap", segment_errors)
        chains_checked = 0
        for store in (self.snapshots, self.segments.snapshots):
            # walked, never loaded: a damaged delta is reported here and
            # quarantined only when something actually reads the chain
            checked, chain_errors = store.scrub()
            chains_checked += checked
            for name, exc in chain_errors:
                note(f"snapshot:{name}", [exc])
        blocks_checked = 0
        for name in self.collections():
            # the raw attached segment, NOT _metadata_segment(): scrub
            # must observe damage, never trigger the rebuild that heals it
            checked, block_errors = self.segments.segment(name).scrub()
            blocks_checked += checked
            note(f"segment[{name}]", block_errors)
        for entry in errors:
            self._record_recovery_event("scrub_corruption", **entry)
        return {
            "pages_checked": pages_checked,
            "records_checked": records_checked,
            "snapshot_records_checked": chains_checked,
            "blocks_checked": blocks_checked,
            "errors": errors,
        }

    def _on_segment_corruption(self, name: str, exc: CorruptionError) -> None:
        """MetadataSegmentStore's descriptor-quarantine hook."""
        self._record_recovery_event(
            "segment_quarantined", collection=name, detail=str(exc)
        )

    def _quarantine_segment(self, name: str, exc: CorruptionError) -> None:
        """Discard a corrupt segment so the next metadata read rebuilds
        it from the blob heap (the source of truth)."""
        self.segments.drop(name)
        self._record_recovery_event(
            "segment_quarantined", collection=name, detail=str(exc)
        )

    def _tree_for(self, name: str) -> BPlusTree:
        if name not in self._trees:
            self._trees[name] = BPlusTree(self.pager, name, unique=True)
        return self._trees[name]

    def _next_patch_id(self) -> int:
        patch_id = self._next_id
        self._next_id += 1
        return patch_id

    # -- collections ----------------------------------------------------

    def materialize(
        self,
        patches: Iterable[Patch],
        name: str,
        schema: PatchSchema | None = None,
        *,
        replace: bool = False,
    ) -> MaterializedCollection:
        """Persist an iterator of patches as collection ``name``."""
        if name in self._collections:
            if not replace:
                raise StorageError(
                    f"collection {name!r} already exists (pass replace=True)"
                )
            collection = self._collections[name]
            collection._tree.clear()
            collection._ref_map = None
            # the columnar segment restarts clean alongside the tree
            self.segments.drop(name)
            # indexes and statistics over the old contents are stale:
            # registrations, flags, on-disk structures and graphs all go
            for key in [k for k in self._registered if k[0] == name]:
                self._drop_index(key)
            self.drop_statistics(name)
            # replacing is a mutation even when zero rows follow (an
            # emptied base must still invalidate dependent views)
            self._bump_version(name)
        else:
            collection = MaterializedCollection(self, name)
            self._collections[name] = collection
        collection.schema = schema
        self._dirty_collections.add(name)
        for patch in patches:
            collection.add(patch)
        # the collection is now a complete snapshot: later add()s count as
        # mutations against this baseline (statistics staleness flag, view
        # invalidation)
        collection.fresh_version = collection.version
        # commit barrier: the whole materialization lands atomically
        self.sync()
        return collection

    def collection(self, name: str) -> MaterializedCollection:
        try:
            return self._collections[name]
        except KeyError:
            raise QueryError(
                f"no collection {name!r}; have {sorted(self._collections)}"
            ) from None

    def collections(self) -> list[str]:
        return sorted(self._collections)

    # -- collection versions (lineage-driven invalidation) ----------------

    def collection_version(self, collection_name: str) -> int:
        """Monotone mutation counter for a collection: bumped on every
        :meth:`MaterializedCollection.add`. Materialized views record
        their bases' versions at build time; a mismatch later means the
        view no longer reflects its base."""
        collection = self._collections.get(collection_name)
        return 0 if collection is None else collection.version

    def mutations_since_fresh(self, collection_name: str) -> int:
        """Adds since the collection was last fully materialized or had
        its statistics rebuilt — the statistics staleness counter."""
        collection = self.collection(collection_name)
        return collection.version - collection.fresh_version

    def _bump_version(self, collection_name: str) -> None:
        self._collections[collection_name].version += 1
        self._dirty_collections.add(collection_name)

    # -- plan quality (EXPLAIN ANALYZE feedback) --------------------------

    def _load_derived(self, key: tuple, from_value, event: str, **details):
        """Load a derived structure from its snapshot chain. A corrupt
        chain is quarantined and recorded as recovery event ``event``;
        the caller then rebuilds (or restarts empty) on ``None``."""
        return self.snapshots.load(
            key,
            from_value,
            on_corrupt=lambda exc: self._record_recovery_event(
                event, detail=str(exc), **details
            ),
        )

    def forget(self, key: tuple) -> None:
        """Drop a structure's chain and any save queued for it."""
        self.snapshots.drop(key)
        self._unsaved.pop(key, None)

    def plan_quality_log(self) -> PlanQualityLog:
        """The catalog's plan-quality log: estimate-vs-actual history per
        parameterized plan fingerprint plus per-predicate observed
        selectivities. Lazily loaded from its snapshot; saved back in
        full (when dirty) by :meth:`sync`. A corrupt snapshot is
        dropped (it is advisory history), recorded as a recovery event,
        and the log restarts empty."""
        if self._plan_log is None:
            log = self._load_derived(
                ("plan_log",), PlanQualityLog.from_value, "plan_log_reset"
            )
            self._plan_log = PlanQualityLog() if log is None else log
        return self._plan_log

    def slow_query_log(self) -> SlowQueryLog:
        """The catalog's slow-query log: bounded history of queries whose
        wall time crossed the threshold, with span trees and counter
        deltas. Same lazy-load / dirty-save (and corruption-reset)
        lifecycle as the plan log."""
        if self._slow_log is None:
            log = self._load_derived(
                ("slow_log",), SlowQueryLog.from_value, "slow_log_reset"
            )
            self._slow_log = SlowQueryLog() if log is None else log
        return self._slow_log

    # -- cardinality statistics -----------------------------------------

    def statistics_for(
        self, collection_name: str
    ) -> CollectionStatistics | None:
        """Statistics for a collection (the planner's entry point).

        Returns None for collections without statistics (unknown names,
        or databases materialized before statistics existed) — the
        optimizer then falls back to its fixed selectivity constants.

        A corrupt snapshot never fails the query: statistics are derived
        state, so the snapshot is quarantined and rebuilt from a full
        scan of the collection (or dropped to the fallback constants when
        the collection itself is gone).
        """
        key = ("stats", collection_name)
        stats = self._stats.get(collection_name)
        if stats is None and key in self.snapshots.refs:
            stats = self._load_derived(
                key,
                CollectionStatistics.from_value,
                "stats_rebuilt",
                collection=collection_name,
            )
            if stats is not None:
                self._stats[collection_name] = stats
            elif collection_name in self._collections:
                stats = self.rebuild_statistics(collection_name)
        if stats is not None:
            stats.staleness = self.mutations_since_fresh(collection_name)
        return stats

    def rebuild_statistics(self, collection_name: str) -> CollectionStatistics:
        """Recompute statistics from a full scan (id order — the same
        order incremental collection saw, so the results are identical
        unless the statistics were lost or predate this feature)."""
        collection = self.collection(collection_name)
        stats = CollectionStatistics()
        for patch in collection.scan():
            stats.observe(patch)
        self._stats[collection_name] = stats
        self.persist(("stats", collection_name), stats)
        # a full-scan rebuild re-baselines staleness: the profile now
        # reflects every row
        collection.fresh_version = collection.version
        self._dirty_collections.add(collection_name)
        return stats

    def drop_statistics(self, collection_name: str) -> None:
        """Forget a collection's statistics (planner falls back to
        constants until they are rebuilt)."""
        self._stats.pop(collection_name, None)
        self.forget(("stats", collection_name))

    def _record_statistics(self, collection_name: str, patch: Patch) -> None:
        stats = self.statistics_for(collection_name)
        if stats is None:
            # statistics must start at the collection's very first row:
            # seeding them mid-collection (after drop_statistics, or on
            # a database that predates statistics) would present partial
            # counts as authoritative — stay on fallback until an
            # explicit rebuild_statistics
            if len(self._collections[collection_name]) != 1:
                return
            stats = CollectionStatistics()
            self._stats[collection_name] = stats
        stats.observe(patch)
        self.persist(("stats", collection_name), stats)

    # -- indexes ------------------------------------------------------------

    def create_index(
        self,
        collection_name: str,
        attr: str,
        kind: str,
        *,
        feature_fn: Callable[[Patch], np.ndarray] | None = None,
        multi_value: bool = False,
        params: dict | None = None,
    ):
        """Build an index over ``attr`` of a materialized collection.

        Kinds: ``hash`` (equality), ``btree`` (equality + range), ``rtree``
        (attr must hold (x1, y1, x2, y2) boxes), ``balltree`` (attr must
        hold fixed-dim vectors, or pass ``feature_fn`` / attr='data' to
        index the patch data itself), ``hnsw`` (approximate k-NN graph
        over the same vector sources; ``params`` accepts the build knobs
        ``m``, ``ef_construction``, ``ef``/``ef_search`` and ``seed``).
        ``multi_value=True`` treats the attribute as a collection of keys
        (an inverted index — e.g. OCR token tuples), valid for hash/btree
        kinds.

        Creating a hash/btree index that is already registered returns
        the registered one (the structure lives on disk; building again
        would insert every row a second time), and raises when
        ``multi_value`` differs from how it was built.
        """
        if kind not in INDEX_KINDS:
            raise IndexError_(
                f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}"
            )
        if multi_value and kind not in ("hash", "btree"):
            raise IndexError_(
                f"multi_value indexes require hash/btree kinds, not {kind!r}"
            )
        if params and kind != "hnsw":
            raise IndexError_(
                f"index params are only valid for hnsw indexes, not {kind!r}"
            )
        key = (collection_name, attr, kind)
        if kind in ("hash", "btree") and key in self._registered:
            registered = self._registered[key]["multi_value"]
            if multi_value != registered:
                raise IndexError_(
                    f"{kind} index on {collection_name}.{attr} already exists "
                    f"with multi_value={registered}; it cannot "
                    f"be re-created with multi_value={multi_value}"
                )
            return self.get_index(collection_name, attr, kind)
        record = {
            "multi_value": multi_value,
            "params": _normalize_hnsw_params(params) if kind == "hnsw" else {},
        }
        index = self._build_index(key, record, feature_fn)
        self._indexes[key] = index
        self._registered[key] = self._index_records[key] = record
        if kind == "hnsw":
            # the graph snapshot rides the same commit as its registration
            self.persist(("hnsw", collection_name, attr), index)
        # commit barrier: index pages + registration land atomically
        self.sync()
        return index

    def get_index(self, collection_name: str, attr: str, kind: str):
        key = (collection_name, attr, kind)
        if key in self._indexes:
            return self._indexes[key]
        if key not in self._registered:
            raise IndexError_(
                f"no {kind} index on {collection_name}.{attr}; create_index first"
            )
        index = None
        if kind in ("hash", "btree"):
            # persistent structures reattach to their on-disk state;
            # repopulating them would double every entry
            index = self._persistent_index(key)
        elif kind == "hnsw":
            # the graph reloads from its snapshot chain; a corrupt
            # chain is quarantined and the graph rebuilt from the
            # collection (the source of truth), like statistics
            index = self._load_derived(
                ("hnsw", collection_name, attr),
                lambda value: HNSWIndex.from_value(value, metrics=self.metrics),
                "hnsw_rebuilt",
                collection=collection_name,
                attr=attr,
            )
        if index is None:
            # memory-resident kinds (and a quarantined graph) rebuild
            index = self._build_index(key, self._registered[key])
            if kind == "hnsw":
                self.persist(("hnsw", collection_name, attr), index)
        self._indexes[key] = index
        return index

    def _persistent_index(self, key: tuple[str, str, str]):
        """The hash file / B+ tree of a hash/btree index: created empty
        when new, reattached to its on-disk state otherwise."""
        cls = HashIndex if key[2] == "hash" else BTreeIndex
        return cls(self.pager, ".".join(key))

    def has_index(self, collection_name: str, attr: str, kind: str) -> bool:
        return (collection_name, attr, kind) in self._registered

    def indexes(self) -> list[tuple[str, str, str]]:
        return list(self._registered)

    def index_params(self, collection_name: str, attr: str, kind: str) -> dict:
        """Build knobs recorded at CREATE INDEX time (empty for kinds
        without knobs)."""
        record = self._registered.get((collection_name, attr, kind))
        return {} if record is None else dict(record["params"])

    def _drop_index(self, key: tuple[str, str, str]) -> None:
        """Unregister one index and delete everything kept for it: the
        directory record (with its multi-value flag and build knobs),
        the on-disk hash file / B+ tree and its header, the HNSW graph's
        snapshot chain."""
        collection_name, attr, kind = key
        if kind in ("hash", "btree"):
            # reattached if not resident: the structure knows its header
            self.get_index(*key).drop()
        elif kind == "hnsw":
            self.forget(("hnsw", collection_name, attr))
        self._indexes.pop(key, None)
        del self._registered[key]
        del self._index_records[key]

    def _build_index(
        self,
        key: tuple[str, str, str],
        record: dict,
        feature_fn: Callable[[Patch], np.ndarray] | None = None,
    ):
        """Build an index from the collection's current rows. A metadata
        attribute is read off its segment column — no pixel record is
        decoded; only ``attr='data'`` and a ``feature_fn`` need records."""
        collection_name, attr, kind = key
        collection = self.collection(collection_name)
        if kind in ("balltree", "hnsw") and (feature_fn is not None or attr == "data"):
            rows = (
                (patch.patch_id, _patch_vector(patch, attr, feature_fn))
                for patch in collection.scan()
            )
        else:
            rows = (
                (patch_id, value)
                for ids, values in collection.metadata_keys(attr)
                for patch_id, value in zip(ids.tolist(), values)
            )
        if kind in ("hash", "btree", "rtree"):
            index = self._persistent_index(key) if kind != "rtree" else RTree()
            for patch_id, value in rows:
                _index_insert(index, kind, record["multi_value"], patch_id, value)
            return index
        # balltree / hnsw: both index the same vector sources
        vectors: list[np.ndarray] = []
        ids: list[int] = []
        for patch_id, value in rows:
            if value is not None:
                vectors.append(np.asarray(value, dtype=np.float64).ravel())
                ids.append(patch_id)
        if not vectors:
            raise IndexError_(
                f"collection {collection.name!r} has no vectors under "
                f"{attr!r} to index"
            )
        if kind == "hnsw":
            return HNSWIndex.build(
                np.stack(vectors), ids, metrics=self.metrics, **record["params"]
            )
        return BallTree(np.stack(vectors), ids=ids)

    def _maintain_indexes(self, collection_name: str, patch: Patch) -> None:
        """Keep incremental indexes current as new patches arrive."""
        for (name, attr, kind), index in list(self._indexes.items()):
            if name != collection_name:
                continue
            if kind in ("hash", "btree", "rtree"):
                multi = self._registered[name, attr, kind]["multi_value"]
                _index_insert(
                    index, kind, multi, patch.patch_id, patch.metadata.get(attr)
                )
            elif kind == "balltree":
                # static structure: drop it; it rebuilds lazily on next use
                key = (name, attr, kind)
                self._indexes.pop(key, None)
        # hnsw graphs grow incrementally — including registered graphs
        # not yet resident (loaded from snapshot first). A graph that
        # had to be *rebuilt* already scanned this patch, so the
        # membership check keeps the add idempotent.
        for key in self._registered:
            name, attr, kind = key
            if kind != "hnsw" or name != collection_name:
                continue
            vector = _patch_vector(patch, attr, None)
            if vector is None:
                continue
            index = self.get_index(name, attr, kind)
            if patch.patch_id not in index:
                index.add(vector, patch.patch_id)
                self.persist(("hnsw", name, attr), index)


def _matching(expr, batch: ColumnBatch) -> np.ndarray | None:
    """Positions of the batch rows satisfying ``expr`` (None: no filter,
    every row)."""
    return None if expr is None else np.flatnonzero(expr.mask(batch))


def _patch_vector(patch: Patch, attr: str, feature_fn) -> np.ndarray | None:
    """The vector one patch contributes to a balltree/hnsw index."""
    if feature_fn is not None:
        vector = feature_fn(patch)
    elif attr == "data":
        vector = patch.data
    else:
        vector = patch.metadata.get(attr)
    if vector is None:
        return None
    return np.asarray(vector, dtype=np.float64).ravel()


def _normalize_hnsw_params(params: dict | None) -> dict:
    """Validate CREATE INDEX knobs against the accepted HNSW set and
    map SQL spellings (``ef``) onto constructor kwargs (``ef_search``)."""
    normalized: dict[str, int] = {}
    for key, value in (params or {}).items():
        target = _HNSW_PARAM_KEYS.get(str(key).lower())
        if target is None:
            raise IndexError_(
                f"unknown hnsw parameter {key!r}; expected one of "
                f"{sorted(set(_HNSW_PARAM_KEYS))}"
            )
        normalized[target] = int(value)
    return normalized


def _index_insert(index, kind: str, multi_value: bool, patch_id: int, value) -> None:
    """Add one row's ``value`` of the indexed attribute to a hash, B+-tree
    or R-tree index: the insert an index build and incremental upkeep
    share."""
    if value is None:
        return
    if kind == "rtree":
        index.insert(rect_from_bbox(tuple(value)), patch_id)
        return
    for key in _index_keys(value, multi_value):
        index.insert(key, patch_id)


def _index_keys(value, multi_value: bool) -> list:
    """Keys contributed by one attribute value (inverted when multi-value)."""
    if multi_value and isinstance(value, (tuple, list)):
        return list(value)
    return [value]

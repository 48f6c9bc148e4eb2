"""Base + delta persistence through the one snapshot store.

Statistics, metadata-segment descriptors and HNSW graphs persist as a
base record plus a chain of deltas. These tests pin down the contract:

* state folded from base + deltas is bit-identical to a from-scratch
  rebuild over the same rows (Hypothesis sequences of add / sync /
  reopen / create_index);
* a commit writes bytes proportional to what it added, not to what the
  collection holds (engine counters, both heap files);
* the fixed policy — a delta only while the chain stays below the base —
  and the failure rule (a failed write is followed by a base);
* a damaged delta quarantines its chain, the structure rebuilds, answers
  stay correct and the next session is clean; ``scrub()`` reports the
  damage without healing it.
"""

import statistics
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.metadata_segment as seg_mod
from repro.core import Attr, DeepLens
from repro.core.catalog import Catalog
from repro.core.metrics import MetricsRegistry
from repro.core.patch import Patch
from repro.core.statistics import CollectionStatistics
from repro.errors import CorruptionError
from repro.indexes import HNSWIndex
from repro.storage.kvstore import BlobHeap, serialization
from repro.storage.snapshot_store import SnapshotStore

HNSW_PARAMS = {"m": 4, "ef": 8}
DIM = 6


def _patches(n, start=0):
    for i in range(start, start + n):
        rng = np.random.default_rng(i)
        patch = Patch.from_frame(
            "vid", i, rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = ("car", "person", "bus")[i % 3]
        patch.metadata["score"] = float(i % 11) / 2
        patch.metadata["emb"] = rng.normal(size=DIM)
        yield patch


def _frozen(value) -> bytes:
    """Bit-exact comparison form of a ``to_value()`` (it holds ndarrays)."""
    return serialization.dumps(value)


def _assert_folded_equals_rebuilt(catalog: Catalog) -> None:
    """Every persisted derived structure of ``catalog`` (as loaded from
    its base + deltas) equals one rebuilt from the blob heap."""
    collection = catalog.collection("c")
    rows = list(collection.scan())
    scratch = CollectionStatistics()
    for patch in rows:
        scratch.observe(patch)
    if rows:  # statistics start at a collection's first row
        assert _frozen(catalog.statistics_for("c").to_value()) == _frozen(
            scratch.to_value()
        )
    lean = list(collection.scan(load_data=False))
    assert [p.patch_id for p in lean] == [p.patch_id for p in rows]
    for slim, full in zip(lean, rows):
        assert slim.img_ref == full.img_ref
        assert _frozen(dict(slim.metadata)) == _frozen(dict(full.metadata))
    if catalog.has_index("c", "emb", "hnsw"):
        params = catalog.index_params("c", "emb", "hnsw")
        rebuilt = HNSWIndex.build(
            np.stack([p["emb"] for p in rows]),
            [p.patch_id for p in rows],
            **params,
        )
        loaded = catalog.get_index("c", "emb", "hnsw")
        assert _frozen(loaded.to_value()) == _frozen(rebuilt.to_value())
    _assert_open_block_reads_like_sealed(collection, rows)


def _assert_open_block_reads_like_sealed(collection, rows) -> None:
    """The segment as folded — sealed blocks plus an open block restored
    from its descriptor base and deltas — against the heap's ``rows``."""
    segment = collection._metadata_segment()
    ids = [p.patch_id for p in rows]
    # one point read spanning every block, the open one included
    wanted = ids[::-2]
    points = [
        collection._patch_from_metadata(*row) for row in segment.get_rows(wanted)
    ]
    by_id = {p.patch_id: p for p in rows}
    for slim in points:
        assert slim.img_ref == by_id[slim.patch_id].img_ref
        assert _frozen(slim.metadata) == _frozen(by_id[slim.patch_id].metadata)
    for attr in ("score", "label"):
        values = [p[attr] for p in rows]
        assert segment.attr_min_max(attr) == (
            (min(values), max(values)) if values else None
        )
    assert segment.attr_min_max("emb") is None  # vectors do not order
    expr = Attr("score") >= 2.5
    kept, total = segment.block_stats(expr)
    assert total == -(-len(rows) // segment.block_rows)
    assert kept == len(list(segment.scan_columns(expr)))
    for after in ids[len(ids) // 2 :: 3]:  # cuts sealed and open blocks
        resumed = [row[0] for row in segment.scan_rows(after_id=after)]
        assert resumed == [i for i in ids if i > after]


# -- (a) folded state == rebuilt state ------------------------------------

_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 5)),
        st.tuples(st.just("sync"), st.just(0)),
        st.tuples(st.just("reopen"), st.just(0)),
        st.tuples(st.just("create_index"), st.just(0)),
    ),
    min_size=4,
    max_size=14,
)


@settings(max_examples=20, deadline=None)
@given(steps=_STEPS, seeded=st.integers(0, 6))
def test_folded_state_equals_from_scratch_rebuild(steps, seeded):
    # 8-row blocks: sequences cross block seals (a forced new base)
    with mock.patch.object(seg_mod, "BLOCK_ROWS", 8), tempfile.TemporaryDirectory() as workdir:
        catalog = Catalog(workdir, durability="flush")
        try:
            catalog.materialize(_patches(seeded), "c")
            added = seeded
            for step, amount in steps:
                if step == "add":
                    for patch in _patches(amount, start=added):
                        catalog.collection("c").add(patch)
                    added += amount
                elif step == "sync":
                    catalog.sync()
                elif step == "reopen":
                    catalog.close()
                    catalog = Catalog(workdir, durability="flush")
                    _assert_folded_equals_rebuilt(catalog)
                elif added and not catalog.has_index("c", "emb", "hnsw"):
                    catalog.create_index("c", "emb", "hnsw", params=HNSW_PARAMS)
            catalog.close()
            catalog = Catalog(workdir, durability="flush")
            assert len(catalog.collection("c")) == added
            _assert_folded_equals_rebuilt(catalog)
        finally:
            catalog.close()


def test_deltas_are_actually_written_and_folded(tmp_path):
    """The property above is vacuous if every save were a base: a run of
    small commits must leave delta records behind each structure, and a
    reopen must fold them."""
    with DeepLens(tmp_path, durability="flush") as db:
        db.materialize(_patches(60), "c")
        db.create_index("c", "emb", "hnsw", params=HNSW_PARAMS)
        for round_ in range(4):
            for patch in _patches(2, start=60 + 2 * round_):
                db.collection("c").add(patch)
            db.catalog.sync()
        counters = db.metrics()["counters"]
        for structure in ("stats", "hnsw", "segment"):
            series = f'deeplens_snapshot_writes_total{{structure="{structure}",kind="delta"}}'
            assert counters[series] == 4, structure
            assert counters[series.replace("writes", "bytes")] > 0
        shown = {row["metric"] for row in db.sql("SHOW METRICS")}
        assert any(name.startswith("deeplens_snapshot_writes_total") for name in shown)
    with Catalog(tmp_path / "catalog", durability="flush") as catalog:
        for key in (("stats", "c"), ("hnsw", "c", "emb")):
            base_off, _, head_off, _ = catalog.snapshots.refs[key]
            assert head_off > base_off
        _assert_folded_equals_rebuilt(catalog)


# -- (b) a commit costs what it added ----------------------------------------


def _heap_write_bytes(db) -> float:
    counters = db.metrics()["counters"]
    return sum(
        counters.get(f'deeplens_heap_write_bytes_total{{store="{store}"}}', 0)
        for store in ("blob", "segment")
    )


def test_commit_bytes_do_not_grow_with_the_collection(tmp_path):
    """A 4-row add + sync at 200 rows and at 2 000 rows writes within
    1.5x the same bytes to the two heap files (22 KB vs 77 KB when every
    commit rewrote the statistics and the whole segment tail; 1.8 KB at
    both sizes now). The median of five commits skips the occasional
    fresh base."""

    def commit_bytes(db, start):
        samples = []
        for round_ in range(5):
            before = _heap_write_bytes(db)
            for patch in _patches(4, start=start + 4 * round_):
                db.collection("c").add(patch)
            db.catalog.sync()
            samples.append(_heap_write_bytes(db) - before)
        return statistics.median(samples)

    with DeepLens(tmp_path, durability="flush") as db:
        db.materialize(_patches(200), "c")
        small = commit_bytes(db, 200)
        for patch in _patches(1780, start=220):
            db.collection("c").add(patch)
        db.catalog.sync()
        assert len(db.collection("c")) == 2000
        large = commit_bytes(db, 2000)
    assert small > 0
    assert large <= 1.5 * small, (small, large)


# -- the policy, on the store alone ------------------------------------------


class _Log:
    """A minimal delta-capable client: an append-only list of ints."""

    def __init__(self, items=(), continuing=False):
        self.items = list(items)
        self._pending = [] if continuing else None

    def append(self, item):
        self.items.append(item)
        if self._pending is not None:
            self._pending.append(item)

    def to_value(self):
        return list(self.items)

    @classmethod
    def from_value(cls, value):
        return cls(value, continuing=True)

    def take_delta(self):
        pending, self._pending = self._pending, []
        return pending

    def apply_delta(self, value):
        self.items.extend(value)


def _chain_bytes(store, key):
    return store.refs[key][1], store._delta_bytes[key]


def test_policy_delta_while_chain_below_base_else_fresh_base(tmp_path):
    registry = MetricsRegistry()
    rng = np.random.default_rng(0)
    key = ("log", "a")
    with BlobHeap(tmp_path / "s.heap", metrics=registry) as heap:
        store = SnapshotStore(heap, {}, metrics=registry)
        log = _Log(rng.integers(0, 1 << 40, 200).tolist())
        store.save(key, log)
        kinds = ["base"]
        for _ in range(60):
            for item in rng.integers(0, 1 << 40, 10).tolist():
                log.append(item)
            before = store.refs[key][:2]
            store.save(key, log)
            kinds.append("base" if store.refs[key][:2] != before else "delta")
            base_bytes, delta_bytes = _chain_bytes(store, key)
            assert delta_bytes < base_bytes  # the invariant, after every save
        assert kinds[1] == "delta" and kinds.count("base") >= 3
        # bases get rarer as the structure grows: amortized O(1) per item
        gaps = np.diff([i for i, kind in enumerate(kinds) if kind == "base"])
        assert list(gaps) == sorted(gaps)
        counters = registry.snapshot()["counters"]
        for kind in ("base", "delta"):
            series = f'{{structure="log",kind="{kind}"}}'
            assert counters["deeplens_snapshot_writes_total" + series] == kinds.count(kind)
        # a reopen folds the chain back and reads less than twice the base
        reads_before = registry.snapshot()["counters"]['deeplens_heap_read_bytes_total{store="blob"}']
        reopened = SnapshotStore(heap, store.refs)
        assert reopened.load(key, _Log.from_value).items == log.items
        read = registry.snapshot()["counters"]['deeplens_heap_read_bytes_total{store="blob"}'] - reads_before
        records = kinds[::-1].index("base") + 1
        assert read < 2 * base_bytes + 13 * records  # 13 B of header per record


def test_full_only_clients_always_write_a_base(tmp_path):
    class Plain:
        def to_value(self):
            return {"n": 1}

    registry = MetricsRegistry()
    with BlobHeap(tmp_path / "s.heap") as heap:
        store = SnapshotStore(heap, {}, metrics=registry)
        for _ in range(3):
            store.save(("plain",), Plain())
        assert store.load(("plain",), dict) == {"n": 1}
    counters = registry.snapshot()["counters"]
    assert counters['deeplens_snapshot_writes_total{structure="plain",kind="base"}'] == 3


def test_failed_write_is_followed_by_a_base(tmp_path):
    """take_delta() forgets what it handed out, so after a write that
    raised only the object's full state may be persisted next."""
    key = ("log", "a")
    with BlobHeap(tmp_path / "s.heap") as heap:
        store = SnapshotStore(heap, {})
        log = _Log(range(500))
        store.save(key, log)
        log.append(1)
        store.save(key, log)
        log.append(2)
        with mock.patch.object(heap, "put", side_effect=OSError("disk full")):
            with pytest.raises(OSError):
                store.save(key, log)
        log.append(3)
        store.save(key, log)
        base_bytes, delta_bytes = _chain_bytes(store, key)
        assert delta_bytes == 0  # a base, holding the item the failed delta lost
        assert store.load(key, _Log.from_value).items == log.items


def test_broken_chain_is_a_positioned_corruption_error(tmp_path):
    with BlobHeap(tmp_path / "s.heap") as heap:
        store = SnapshotStore(heap, {})
        first, second = _Log(range(300)), _Log(range(300, 600))
        store.save(("log", "a"), first)
        store.save(("log", "b"), second)
        first.append(7)
        store.save(("log", "a"), first)
        refs = store.refs
        # a's head spliced onto b's base: the walk must not accept it
        crossed = SnapshotStore(
            heap, {("log", "b"): refs[("log", "b")][:2] + refs[("log", "a")][2:]}
        )
        with pytest.raises(CorruptionError) as excinfo:
            crossed.load(("log", "b"), _Log.from_value)
        assert excinfo.value.file == heap.path
        assert excinfo.value.offset is not None
        seen = []
        assert crossed.load(("log", "b"), _Log.from_value, on_corrupt=seen.append) is None
        assert len(seen) == 1 and ("log", "b") not in crossed.refs


# -- (c) a damaged delta: quarantine, rebuild, clean next session ----------


def _flip_byte(path, offset):
    with open(path, "r+b") as file:
        file.seek(offset)
        byte = file.read(1)
        file.seek(offset)
        file.write(bytes([byte[0] ^ 0xFF]))


def _seed_with_deltas(workdir):
    """Two sessions: a bulk load + HNSW index, then small commits that
    leave a delta at the head of every chain. Returns the chain refs."""
    with DeepLens(workdir, durability="flush") as db:
        db.materialize(_patches(40), "c")
        db.create_index("c", "emb", "hnsw", params=HNSW_PARAMS)
    with DeepLens(workdir, durability="flush") as db:
        for round_ in range(2):
            for patch in _patches(3, start=40 + 3 * round_):
                db.collection("c").add(patch)
            db.catalog.sync()
        refs = dict(db.catalog.snapshots.refs.items())
        refs.update(db.catalog.segments.snapshots.refs.items())
    for key in (("stats", "c"), ("hnsw", "c", "emb"), ("segment", "c")):
        assert refs[key][2] > refs[key][0], f"{key} has no delta to damage"
    return refs


def test_flipped_byte_in_delta_blobs_rebuilds_every_structure(tmp_path):
    refs = _seed_with_deltas(tmp_path)
    catalog_dir = tmp_path / "catalog"
    for key, file in (
        (("stats", "c"), "patches.heap"),
        (("hnsw", "c", "emb"), "patches.heap"),
        (("segment", "c"), "metadata.seg"),
    ):
        _flip_byte(catalog_dir / file, refs[key][2] + 13 + 5)  # inside the payload

    with DeepLens(tmp_path, durability="flush") as db:
        collection = db.collection("c")
        assert db.statistics("c").row_count == 46
        query = next(_patches(1, start=41))["emb"]
        got = db.catalog.get_index("c", "emb", "hnsw").search(query, 3, ef=46)
        assert got[0][1] == 41 and got[0][0] == 0.0  # the appended row is found
        lean = [(p.patch_id, p["label"]) for p in collection.scan(load_data=False)]
        assert lean == [(p.patch_id, p["label"]) for p in collection.scan()]
        kinds = {event["kind"] for event in db.recovery_report()["events"]}
        assert {"stats_rebuilt", "hnsw_rebuilt", "segment_quarantined"} <= kinds
        _assert_folded_equals_rebuilt(db.catalog)

    # the rebuilds were persisted: the next session repairs nothing
    with DeepLens(tmp_path, durability="flush") as db:
        _assert_folded_equals_rebuilt(db.catalog)
        assert db.recovery_report()["events"] == []
        assert db.metrics()["counters"].get("deeplens_segment_rebuilds_total", 0) == 0
        # the damaged records are orphans now: the heap sweep still sees
        # them, but no chain runs through them any more
        assert [
            e for e in db.scrub()["errors"] if e["source"].startswith("snapshot")
        ] == []


# -- (e) scrub walks chains ---------------------------------------------------


def test_scrub_reports_a_damaged_delta_without_healing_it(tmp_path):
    refs = _seed_with_deltas(tmp_path)
    _flip_byte(tmp_path / "catalog" / "patches.heap", refs[("stats", "c")][2] + 13 + 5)
    with DeepLens(tmp_path, durability="flush") as db:
        clean_chain_records = 0
        for attempt in range(2):  # scrub observes: the second sweep sees it again
            report = db.scrub()
            chain_errors = [
                e for e in report["errors"] if e["source"].startswith("snapshot")
            ]
            assert [e["source"] for e in chain_errors] == ["snapshot:stats[c]"]
            assert chain_errors[0]["offset"] == refs[("stats", "c")][2]
            assert ("stats", "c") in db.catalog.snapshots.refs
            clean_chain_records = report["snapshot_records_checked"]
        assert clean_chain_records >= 4  # the undamaged chains were walked
        assert any(
            event["kind"] == "scrub_corruption"
            and event["source"] == "snapshot:stats[c]"
            for event in db.recovery_report()["events"]
        )

"""Parallel execution engine tests.

The engine's contract is *bit-identical parallelism*: for pure per-row
UDF maps, a plan run with ``workers=4`` must produce exactly the rows,
order, lineage keys, and UDF-cache contents of the serial plan — the
thread pool is an execution detail, never a semantics change. These
tests pin that equivalence, the single-flight/thread-safety guarantees
of the shared UDF cache, worker exception propagation, the prefetch
stage, and the planner's batch-size/execution-config surface.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import Attr, DeepLens, ExecutionContext
from repro.core.executor import (
    BATCHES_PER_WORKER,
    MIN_BATCH_SIZE,
    PrefetchBatches,
    choose_batch_size,
    resolve_execution,
    run_ordered,
)
from repro.core.metrics import MetricsRegistry
from repro.core.operators import (
    DEFAULT_BATCH_SIZE,
    AnnTopKExact,
    Distinct,
    IndexLookupScan,
    IndexRangeScan,
    IteratorScan,
    MapPatches,
)
from repro.core.patch import Patch
from repro.errors import QueryError

N_PATCHES = 60


def make_patches(n=N_PATCHES):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 11, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        yield patch


def scoring_udf(patch):
    """Module-level (portable) UDF: derives a stable per-patch score."""
    return patch.derive(
        patch.data, "scored", total=float(patch.data.sum()) + patch["score"]
    )


def expanding_udf(patch):
    """One->many/none UDF: drops every fifth patch, doubles every third."""
    score = int(patch["score"])
    if score % 5 == 0:
        return None
    if score % 3 == 0:
        return [
            patch.derive(patch.data, "twin", side=s) for s in ("a", "b")
        ]
    return patch.derive(patch.data, "solo", side="only")


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "c")
        yield session


def cached_query(session):
    return (
        session.scan("c")
        .map(scoring_udf, name="scored", provides={"total"}, cache=True)
        .filter(Attr("total") > 0.0)
    )


def row_signature(patches):
    """Everything the equivalence contract pins, per row, in order."""
    return [
        (p.patch_id, p.lineage, p.data.tobytes(), sorted(p.metadata.items()))
        for p in patches
    ]


class TestParallelSerialEquivalence:
    """workers=4 must be indistinguishable from workers=1 in results."""

    def test_map_filter_pipeline_identical(self, tmp_path):
        outputs = {}
        caches = {}
        for workers in (1, 4):
            with DeepLens(tmp_path / f"w{workers}") as session:
                session.materialize(make_patches(), "c")
                query = cached_query(session).with_execution(workers=workers)
                outputs[workers] = row_signature(query.patches())
                caches[workers] = {
                    key[0:1] + key[2:]: value.metadata["total"]
                    for key, value in session.udf_cache._store.items()
                }
        assert outputs[1] == outputs[4]
        assert len(outputs[1]) == N_PATCHES - 1  # patch 0 totals 0.0
        # identical UDF-cache contents (keys minus the session-local fn
        # identity slot, plus the cached values themselves)
        assert caches[1] == caches[4]

    def test_expanding_and_dropping_udf_identical(self, tmp_path):
        outputs = {}
        for workers in (1, 4):
            with DeepLens(tmp_path / f"w{workers}") as session:
                session.materialize(make_patches(), "c")
                query = session.scan("c").map(
                    expanding_udf, name="expand"
                ).with_execution(workers=workers, batch_size=7)
                outputs[workers] = row_signature(query.patches())
        assert outputs[1] == outputs[4]
        sides = [meta for *_, meta in outputs[4]]
        assert any(("side", "a") in meta for meta in sides)

    def test_parallel_matches_row_at_a_time_path(self, db):
        # ported: the serial baseline is workers=1 at one row per batch
        query = cached_query(db)
        serial_rows = row_signature(
            query.with_execution(workers=1, batch_size=1).patches()
        )
        parallel = row_signature(
            query.with_execution(workers=3).patches()
        )
        assert serial_rows == parallel

    def test_aggregates_identical(self, db):
        serial = db.scan("c").aggregate(
            "group", key=lambda p: p["label"], reducer=len
        )
        parallel = (
            db.scan("c")
            .with_execution(workers=4)
            .aggregate("group", key=lambda p: p["label"], reducer=len)
        )
        assert serial == parallel == {"vehicle": 20, "person": 40}

    def test_cache_hits_served_across_runs(self, db):
        query = cached_query(db).with_execution(workers=4)
        first = row_signature(query.patches())
        baseline_misses = db.udf_cache.misses
        second = row_signature(query.patches())
        assert first == second
        # the second run is served entirely from the cache
        assert db.udf_cache.misses == baseline_misses
        assert db.udf_cache.hits >= N_PATCHES

    def test_parallel_reopen_serves_persistent_cache(self, tmp_path):
        # regression: the prefetch thread scans the collection B+ tree /
        # heap while workers fetch spilled UDF results through the same
        # pager and heap — unsynchronized file handles corrupted page
        # reads here before the storage layer grew its locks
        workdir = tmp_path / "db"
        with DeepLens(workdir) as session:
            session.materialize(make_patches(400), "c")
            query = session.scan("c").map(
                scoring_udf, name="scored", provides={"total"}, cache=True
            ).with_execution(workers=4)
            first = row_signature(query.patches())
            assert session.udf_cache.misses == 400
        with DeepLens(workdir) as session:
            query = session.scan("c").map(
                scoring_udf, name="scored", provides={"total"}, cache=True
            ).with_execution(workers=4)
            again = row_signature(query.patches())
            assert again == first
            # every result came from the catalog-persisted tier, fetched
            # concurrently with the prefetching scan
            assert session.udf_cache.misses == 0
            assert session.udf_cache.disk_hits == 400

    def test_worker_exception_propagates_original_error(self, db):
        def explode(patch):
            if patch["score"] == 41.0:
                raise ValueError("boom at 41")
            return patch

        query = db.scan("c").map(explode, name="explode").with_execution(
            workers=4, batch_size=4
        )
        with pytest.raises(ValueError, match="boom at 41"):
            query.patches()

    def test_worker_exception_with_cache_propagates(self, db):
        def explode(patch):
            raise RuntimeError("cached boom")

        query = db.scan("c").map(
            explode, name="explode", cache=True
        ).with_execution(workers=4)
        with pytest.raises(RuntimeError, match="cached boom"):
            query.patches()
        # the failed computation released its single-flight claim
        assert not db.udf_cache._inflight


class TestMapsBelowBlockingOperators:
    """A UDF map *below* a join, a dedup, or an exact top-k — operators
    that consume their input row by row — must still run batched and
    parallel: the child is pulled with ``iter_batches(size)``, so
    ``batch_fn``, ``batch_size`` and ``workers`` all apply (the Table-1
    q4 shape)."""

    @staticmethod
    def spied_map(source, sizes):
        def batch_fn(patches):
            sizes.append(len(patches))
            return [scoring_udf(p) for p in patches]

        return source.map(
            scoring_udf, name="scored", provides={"total"}, batch_fn=batch_fn
        )

    @staticmethod
    def pool_batches(db):
        return db.metrics()["counters"].get("deeplens_executor_batches_total", 0)

    def run_both(self, db, build):
        """(workers=1 rows, workers=4 rows, parallel batch sizes,
        batches the parallel run sent through the pool)"""
        sizes: list[int] = []
        before = self.pool_batches(db)
        serial = build(sizes).with_execution(batch_size=4, workers=1).rows()
        assert sizes and max(sizes) <= 4
        assert self.pool_batches(db) == before  # serial never enters the pool
        sizes.clear()
        parallel = build(sizes).with_execution(batch_size=4, workers=4).rows()
        return serial, parallel, sizes, self.pool_batches(db) - before

    def test_map_below_similarity_join(self, db):
        def build(sizes):
            return self.spied_map(db.scan("c"), sizes).similarity_join(
                "c", threshold=0.0
            )

        serial, parallel, sizes, dispatched = self.run_both(db, build)
        assert sizes == [4] * (N_PATCHES // 4)
        assert dispatched == N_PATCHES // 4
        pairs = [(a.patch_id, b.patch_id) for a, b in parallel]
        assert pairs == [(a.patch_id, b.patch_id) for a, b in serial]
        assert len(pairs) > N_PATCHES  # data repeats mod 11: real matches

    def test_map_below_exact_topk_with_residual_filter(self, db):
        def build(sizes):
            return (
                self.spied_map(db.scan("c"), sizes)
                .filter(Attr("total") > 100.0)
                .similarity_search(np.zeros(48), 5)
            )

        assert isinstance(build([]).plan()[0], AnnTopKExact)
        serial, parallel, sizes, dispatched = self.run_both(db, build)
        assert sizes == [4] * (N_PATCHES // 4)
        assert dispatched == N_PATCHES // 4
        assert row_signature(r[0] for r in parallel) == row_signature(
            r[0] for r in serial
        )
        assert len(parallel) == 5

    def test_map_below_distinct(self):
        patches = list(make_patches())
        outputs = {}
        for workers in (1, 4):
            sizes: list[int] = []
            registry = MetricsRegistry()

            def batch_fn(batch):
                sizes.append(len(batch))
                return [scoring_udf(p) for p in batch]

            mapped = MapPatches(
                IteratorScan(patches),
                scoring_udf,
                batch_fn=batch_fn,
                execution=ExecutionContext(workers=workers, metrics=registry),
            )
            distinct = Distinct(mapped, key=lambda p: p["label"])
            outputs[workers] = [
                row[0]["score"] for b in distinct.iter_batches(4) for row in b
            ]
            assert sizes == [4] * (N_PATCHES // 4)
            dispatched = registry.snapshot()["counters"].get(
                "deeplens_executor_batches_total", 0
            )
            assert dispatched == (N_PATCHES // 4 if workers > 1 else 0)
        assert outputs[1] == outputs[4] == [0.0, 1.0]


class TestRunOrdered:
    def test_preserves_order_under_jitter(self):
        def jittered(i):
            time.sleep(0.002 * (i % 3))
            return i * i

        out = list(run_ordered(iter(range(40)), jittered, workers=4))
        assert out == [i * i for i in range(40)]

    def test_exception_type_survives(self):
        def sometimes(i):
            if i == 7:
                raise KeyError("seven")
            return i

        results = []
        with pytest.raises(KeyError, match="seven"):
            for value in run_ordered(iter(range(20)), sometimes, workers=4):
                results.append(value)
        # everything before the failing item arrived, in order
        assert results == list(range(7))

    def test_more_workers_than_items(self):
        out = list(run_ordered(iter([1, 2]), lambda x: -x, workers=8))
        assert out == [-1, -2]

    def test_rejects_bad_workers(self):
        with pytest.raises(QueryError, match="workers"):
            list(run_ordered(iter([]), lambda x: x, workers=0))


class TestPrefetchBatches:
    def test_same_batches_as_child(self):
        patches = list(make_patches(30))
        direct = list(IteratorScan(patches).iter_batches(7))
        prefetched = list(
            PrefetchBatches(IteratorScan(patches), depth=2).iter_batches(7)
        )
        assert prefetched == direct

    def test_row_path_delegates(self):
        patches = list(make_patches(10))
        rows = list(PrefetchBatches(IteratorScan(patches), depth=1))
        assert [row[0].patch_id for row in rows] == [
            p.patch_id for p in patches
        ]

    def test_early_exit_stops_producer(self):
        patches = list(make_patches(50))
        op = PrefetchBatches(IteratorScan(patches), depth=1)
        batches = op.iter_batches(5)
        assert len(next(batches)) == 5
        batches.close()  # the consumer walked away mid-stream
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(
                t.name == "deeplens-prefetch" for t in threading.enumerate()
            ):
                break
            time.sleep(0.01)
        assert not any(
            t.name == "deeplens-prefetch" for t in threading.enumerate()
        )

    def test_producer_exception_reraises(self):
        def angry():
            yield from make_patches(3)
            raise OSError("disk gone")

        op = PrefetchBatches(IteratorScan(angry()), depth=2)
        with pytest.raises(OSError, match="disk gone"):
            list(op.iter_batches(2))

    def test_rejects_bad_depth(self):
        with pytest.raises(QueryError, match="depth"):
            PrefetchBatches(IteratorScan([]), depth=0)


class TestSingleFlightCache:
    """Concurrent hit/miss correctness of the shared (persistent) cache."""

    def test_hammering_threads_compute_each_key_once(self, db):
        computed = []
        mutex = threading.Lock()

        def probe(patch):
            with mutex:
                computed.append(patch.patch_id)
            time.sleep(0.002)  # widen the double-compute window
            return patch.derive(patch.data, "probe", probed=patch.patch_id)

        wrapped = db.udf_cache.wrap("probe", probe)
        stored = db.collection("c").get_many(db.collection("c").ids())
        results: dict[int, list] = {}

        def hammer(worker_id):
            results[worker_id] = [wrapped(p)["probed"] for p in stored]

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every thread saw every result, each key computed exactly once
        expected = [p.patch_id for p in stored]
        assert all(results[i] == expected for i in range(6))
        assert sorted(computed) == sorted(expected)
        assert db.udf_cache.misses == len(stored)
        assert db.udf_cache.hits == 5 * len(stored)
        assert not db.udf_cache._inflight

    def test_hammering_batch_path_computes_each_key_once(self, db):
        computed = []
        mutex = threading.Lock()

        def probe_batch(patches):
            with mutex:
                computed.extend(p.patch_id for p in patches)
            time.sleep(0.002)
            return [
                p.derive(p.data, "probe", probed=p.patch_id) for p in patches
            ]

        wrapped = db.udf_cache.wrap_batch("probe", probe_batch)
        stored = db.collection("c").get_many(db.collection("c").ids())
        outputs: dict[int, list] = {}

        def hammer(worker_id):
            outputs[worker_id] = [
                p["probed"] for p in wrapped(stored)
            ]

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = [p.patch_id for p in stored]
        assert all(outputs[i] == expected for i in range(4))
        assert sorted(computed) == sorted(expected)
        assert not db.udf_cache._inflight

    def test_store_failure_releases_claim(self):
        # regression: a _put/_spill failure must still release the
        # single-flight claim, or every later caller of that key hangs
        from repro.core.optimizer import UDFCache

        class ExplodingStore(UDFCache):
            def __init__(self):
                super().__init__()
                self.explode = True

            def _put(self, key, value):
                if self.explode:
                    self.explode = False
                    raise RuntimeError("store down")
                super()._put(key, value)

        cache = ExplodingStore()
        wrapped = cache.wrap(
            "f", lambda p: p.derive(p.data, "f", ok=True)
        )
        patch = next(make_patches(1))
        with pytest.raises(RuntimeError, match="store down"):
            wrapped(patch)
        assert not cache._inflight
        # the key is claimable again — no stranded waiter, no deadlock
        assert wrapped(patch)["ok"] is True

    def test_failed_owner_hands_off_to_waiter(self, db):
        attempts = []
        release = threading.Event()

        def flaky(patch):
            attempts.append(threading.current_thread().name)
            if len(attempts) == 1:
                release.set()
                time.sleep(0.01)  # let the second thread reach the wait
                raise RuntimeError("first owner dies")
            return patch.derive(patch.data, "flaky", ok=True)

        wrapped = db.udf_cache.wrap("flaky", flaky)
        patch = db.collection("c").get(0)
        outcomes = {}

        def first():
            try:
                wrapped(patch)
            except RuntimeError as exc:
                outcomes["first"] = exc

        def second():
            release.wait()
            outcomes["second"] = wrapped(patch)

        threads = [
            threading.Thread(target=first, name="t-first"),
            threading.Thread(target=second, name="t-second"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert isinstance(outcomes["first"], RuntimeError)
        assert outcomes["second"]["ok"] is True
        assert not db.udf_cache._inflight


class TestBatchedIndexScans:
    @pytest.fixture
    def indexed_db(self, db):
        db.create_index("c", "label", "hash")
        db.create_index("c", "score", "btree")
        return db

    def test_lookup_scan_coalesces_and_matches_full_scan(self, indexed_db):
        scan = IndexLookupScan(
            indexed_db.collection("c"), "label", "vehicle", "hash"
        )
        via_index = sorted(row[0].patch_id for row in scan)
        brute = sorted(
            p.patch_id
            for p in indexed_db.collection("c").get_many(
                indexed_db.collection("c").ids()
            )
            if p["label"] == "vehicle"
        )
        assert via_index == brute

    def test_lookup_iter_batches_respects_size(self, indexed_db):
        scan = IndexLookupScan(
            indexed_db.collection("c"), "label", "vehicle", "hash"
        )
        batches = list(scan.iter_batches(6))
        assert [len(b) for b in batches] == [6, 6, 6, 2]
        assert all(row[0]["label"] == "vehicle" for b in batches for row in b)
        # the row path yields the same patches in the same order
        assert [row[0].patch_id for row in scan] == [
            row[0].patch_id for b in batches for row in b
        ]

    def test_row_path_fetches_lazily(self, indexed_db, monkeypatch):
        # ported: an early-exiting consumer must not pay for a full
        # default-sized batch of decodes — a limit shrinks the index
        # scan's fetch to exactly what it needs
        collection = indexed_db.collection("c")
        requested: list[int] = []
        original = collection.get_many

        def counting(ids, **kwargs):
            requested.append(len(ids))
            return original(ids, **kwargs)

        monkeypatch.setattr(collection, "get_many", counting)
        query = indexed_db.scan("c").filter(Attr("score") < 6.0)
        assert query.explain().chosen.kind == "btree-range"
        assert query.first()["score"] == 0.0
        assert requested == [1]
        requested.clear()
        assert len(query.limit(3).patches()) == 3
        assert requested == [3]
        requested.clear()
        # a sort consumes everything anyway: first() above it must not
        # starve the scan of full batches
        top = query.order_by("score", reverse=True).first()
        assert top["score"] == 5.0
        # one coalesced fetch of the whole (inclusive) index range
        assert len(requested) == 1 and requested[0] >= 6

    def test_range_scan_batched_matches_row_path(self, indexed_db):
        scan = IndexRangeScan(
            indexed_db.collection("c"), "score", 10.0, 30.0, "btree"
        )
        batched = [row[0].patch_id for b in scan.iter_batches(4) for row in b]
        assert batched == [row[0].patch_id for row in scan]
        assert len(batched) == 21

    def test_bad_batch_size_rejected(self, indexed_db):
        scan = IndexLookupScan(
            indexed_db.collection("c"), "label", "vehicle", "hash"
        )
        with pytest.raises(QueryError, match="positive"):
            list(scan.iter_batches(0))


class TestIteratorScanConsumption:
    def test_undriven_batches_do_not_poison_later_scans(self):
        scan = IteratorScan(p for p in make_patches(5))
        undriven = scan.iter_batches(2)  # never driven
        assert len(list(scan)) == 5
        del undriven

    def test_undriven_row_iterator_does_not_poison(self):
        scan = IteratorScan(p for p in make_patches(5))
        iter(scan)  # creating an iterator is not consumption
        assert sum(len(b) for b in scan.iter_batches(2)) == 5

    def test_second_drive_still_raises(self):
        scan = IteratorScan(p for p in make_patches(5))
        assert len(list(scan)) == 5
        with pytest.raises(QueryError, match="already consumed"):
            list(scan)

    def test_lists_stay_rescannable(self):
        scan = IteratorScan(list(make_patches(5)))
        assert len(list(scan)) == 5
        assert sum(len(b) for b in scan.iter_batches(2)) == 5
        assert len(list(scan)) == 5


class TestExecutionConfig:
    def test_context_validation(self):
        with pytest.raises(QueryError, match="workers"):
            ExecutionContext(workers=0)
        with pytest.raises(QueryError, match="batch size"):
            ExecutionContext(batch_size=0)
        with pytest.raises(QueryError, match="prefetch"):
            ExecutionContext(prefetch_batches=-1)

    def test_override_merges_knobs(self):
        context = ExecutionContext(workers=2, prefetch_batches=3)
        bumped = context.override(workers=8)
        assert (bumped.workers, bumped.prefetch_batches) == (8, 3)
        assert context.override() is context

    def test_explicit_default_sized_batch_honored(self, db):
        # batch_size=256 set explicitly must NOT be replaced by the
        # planner's cardinality-driven pick (it equals DEFAULT_BATCH_SIZE,
        # but explicit is explicit — a model's batch contract)
        query = cached_query(db).with_execution(workers=4)
        assert query.explain().execution.batch_size < DEFAULT_BATCH_SIZE
        pinned = query.with_execution(batch_size=DEFAULT_BATCH_SIZE)
        resolved = pinned.explain().execution
        assert resolved.batch_size == DEFAULT_BATCH_SIZE
        assert resolved.batch_size_source == "caller-specified"
        assert row_signature(pinned.patches()) == row_signature(query.patches())

    def test_caller_batch_size_wins(self):
        size, source = choose_batch_size(
            ExecutionContext(workers=4, batch_size=64), est_rows=10_000.0
        )
        assert (size, source) == (64, "caller-specified")

    def test_serial_keeps_default(self):
        size, source = choose_batch_size(ExecutionContext(), est_rows=10.0)
        assert (size, source) == (DEFAULT_BATCH_SIZE, "default")

    def test_parallel_sizes_from_cardinality(self):
        context = ExecutionContext(workers=4)
        size, source = choose_batch_size(context, est_rows=320.0)
        assert size == max(
            MIN_BATCH_SIZE, int(np.ceil(320 / (4 * BATCHES_PER_WORKER)))
        )
        assert source == "cardinality ~320 rows"
        huge, _ = choose_batch_size(context, est_rows=1e9)
        assert huge == DEFAULT_BATCH_SIZE
        tiny, _ = choose_batch_size(context, est_rows=3.0)
        assert tiny == MIN_BATCH_SIZE

    def test_resolve_execution_str(self):
        plan = resolve_execution(ExecutionContext(workers=4), est_rows=320.0)
        text = str(plan)
        assert "workers=4" in text and "cardinality ~320 rows" in text

    def test_explain_reports_execution_config(self, db):
        explanation = cached_query(db).with_execution(workers=4).explain()
        assert explanation.execution is not None
        assert explanation.execution.workers == 4
        assert explanation.execution.batch_size_source.startswith("cardinality")
        assert "execution: workers=4" in str(explanation)
        assert any("prefetch" in line for line in explanation.rewrites)

    def test_serial_plan_reports_default(self, db):
        explanation = db.scan("c").explain()
        assert explanation.execution.workers == 1
        assert explanation.execution.batch_size == DEFAULT_BATCH_SIZE
        assert not any("prefetch" in line for line in explanation.rewrites)

    def test_session_level_context_inherited(self, tmp_path):
        with DeepLens(
            tmp_path, execution=ExecutionContext(workers=2, prefetch_batches=1)
        ) as session:
            session.materialize(make_patches(10), "c")
            query = session.scan("c")
            assert query.execution_context().workers == 2
            assert query.explain().execution.workers == 2
            boosted = query.with_execution(workers=6)
            assert boosted.execution_context().prefetch_batches == 1
            assert boosted.explain().execution.workers == 6

    def test_no_prefetch_thread_for_serial_plans(self, db):
        cached_query(db).patches()
        assert not any(
            t.name == "deeplens-prefetch" for t in threading.enumerate()
        )

    def test_parallel_map_without_scan_child_gets_no_prefetch(self, db):
        # the second map's child is a MapPatches, not a scan: only the
        # innermost map gets the prefetch stage
        explanation = (
            db.scan("c")
            .map(scoring_udf, name="first", provides={"total"})
            .map(lambda p: p, name="second")
            .with_execution(workers=2)
            .explain()
        )
        prefetch_lines = [
            line for line in explanation.rewrites if "prefetch" in line
        ]
        assert len(prefetch_lines) == 1
        assert "'first'" in prefetch_lines[0]

    def test_map_patches_accepts_execution(self):
        patches = list(make_patches(20))
        op = MapPatches(
            IteratorScan(patches),
            scoring_udf,
            execution=ExecutionContext(workers=3),
        )
        out = [row[0]["total"] for b in op.iter_batches(4) for row in b]
        serial = [
            row[0]["total"]
            for b in MapPatches(IteratorScan(patches), scoring_udf).iter_batches(4)
            for row in b
        ]
        assert out == serial

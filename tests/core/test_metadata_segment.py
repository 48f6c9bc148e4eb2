"""Columnar metadata segment: zone maps, persistence, planner wiring.

The bug this guards against: ``load_data=False`` used to decode every
full pixel record anyway. Metadata-only reads now come from a columnar
segment in its own heap file, so the patch heap must register **zero**
reads on every metadata path — scans, point gets, index fetches, SQL
``METADATA ONLY``, and planner-flipped aggregates alike.
"""

import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Attr, DeepLens
from repro.core.catalog import Catalog
from repro.core.expressions import Between, Comparison, Predicate
from repro.core.patch import Patch
from repro.core.profile import PlanQualityLog, RuntimeProfile
from repro.errors import BindError, QueryError
from repro.storage.kvstore import BlobHeap
from repro.storage.metadata_segment import (
    CollectionSegment,
    block_may_match,
    zone_of,
)


def make_patches(n=50, source="vid"):
    for i in range(n):
        patch = Patch.from_frame(
            source, i, np.full((5, 5, 3), i % 11, dtype=np.uint8)
        )
        patch.metadata["label"] = ("car", "bus", "bike")[i % 3]
        patch.metadata["score"] = float(i)
        yield patch


class HeapSpy:
    """Counts reads against one BlobHeap."""

    def __init__(self, heap):
        self.heap = heap
        self.reads = 0
        self._get, self._multi = heap.get, heap.multi_get
        heap.get = self._spy(self._get)
        heap.multi_get = self._spy(self._multi)

    def _spy(self, fn):
        def wrapped(*args, **kwargs):
            self.reads += 1
            return fn(*args, **kwargs)

        return wrapped

    def restore(self):
        self.heap.get, self.heap.multi_get = self._get, self._multi


def meta_signature(patches):
    """Everything but pixel data, bit-for-bit."""
    return [
        (p.patch_id, p.img_ref.to_value(), sorted(p.metadata.items()))
        for p in patches
    ]


# -- zone maps (property-based) -------------------------------------------

MISSING = object()

column_elements = st.one_of(
    st.just(MISSING),
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from(["", "a", "bus", "car", "zz"]),
)

probe_values = st.one_of(
    st.integers(-20, 20),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from(["", "a", "bus", "car", "zz"]),
    st.booleans(),
)


@st.composite
def probes(draw):
    attr = draw(st.sampled_from(["x", "y"]))  # "y": column nobody wrote
    if draw(st.booleans()):
        lo = draw(st.none() | probe_values)
        hi = draw(probe_values) if lo is None else draw(st.none() | probe_values)
        return Between(attr, lo, hi)
    op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
    if op in ("==", "!="):
        value = draw(st.none() | probe_values)
    else:
        value = draw(probe_values)  # ordered ops reject None at eval time
    return Comparison(attr, op, value)


@st.composite
def columns(draw):
    cells = draw(st.lists(column_elements, min_size=1, max_size=12))
    present = [cell is not MISSING for cell in cells]
    values = [None if cell is MISSING else cell for cell in cells]
    return values, present


@given(column=columns(), probe=probes())
@settings(max_examples=400, deadline=None)
def test_zone_pruning_never_drops_a_matching_row(column, probe):
    """The core soundness property: a pruned block provably holds no
    matching row — over None, missing, NaN, infinities, and mixed-type
    columns alike."""
    values, present = column
    zones = {"x": zone_of(values, present)}
    rows = [
        {"x": value} if is_present else {}
        for value, is_present in zip(values, present)
    ]
    if not block_may_match(zones, probe):
        for metadata in rows:
            try:
                matched = probe.evaluate(SimpleNamespace(metadata=metadata))
            except TypeError:
                continue  # the DSL itself rejects this row/probe pairing
            assert not matched, (values, present, probe)


@given(column=columns(), probe=probes(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_conjunction_pruning_never_drops_a_matching_row(column, probe, data):
    values, present = column
    second = data.draw(probes())
    expr = probe & second
    zones = {"x": zone_of(values, present)}
    rows = [
        {"x": value} if is_present else {}
        for value, is_present in zip(values, present)
    ]
    if not block_may_match(zones, expr):
        for metadata in rows:
            try:
                matched = expr.evaluate(SimpleNamespace(metadata=metadata))
            except TypeError:
                continue
            assert not matched


def test_zone_of_mixed_and_nan_columns_disable_range_pruning():
    zone = zone_of([1, "a", 3], [True, True, True])
    assert zone.group is None and zone.n_values == 3
    assert block_may_match({"x": zone}, Comparison("x", ">", 100))
    nan_zone = zone_of([1.0, float("nan")], [True, True])
    assert nan_zone.group is None
    assert block_may_match({"x": nan_zone}, Comparison("x", "<", -100))


def test_eq_none_prunes_on_presence_not_values():
    all_present = zone_of([1, 2], [True, True])
    assert not block_may_match({"x": all_present}, Comparison("x", "==", None))
    # a missing attribute reads as None, so the block may match == None
    with_gap = zone_of([1, None], [True, False])
    assert block_may_match({"x": with_gap}, Comparison("x", "==", None))
    # and an absent column is all-None: ordered probes can never match
    assert not block_may_match({}, Comparison("x", ">", 0))
    assert block_may_match({}, Comparison("x", "==", None))


@pytest.fixture(scope="module")
def segment_heap(tmp_path_factory):
    heap = BlobHeap(tmp_path_factory.mktemp("seg") / "zones.seg")
    yield heap
    heap.close()


@given(column=columns(), probe=probes())
@settings(max_examples=100, deadline=None)
def test_segment_scan_with_expr_keeps_every_matching_row(
    segment_heap, column, probe
):
    """End-to-end over sealed blocks: scan_rows(expr) may skip blocks but
    never a block containing a matching row."""
    values, present = column
    segment = CollectionSegment(segment_heap, "c", block_rows=3)
    rows = []
    for i, (value, is_present) in enumerate(zip(values, present)):
        metadata = {"x": value} if is_present else {}
        rows.append((i, ("v", i, None), metadata))
        segment.append(i, ("v", i, None), metadata)
    scanned = {row[0] for row in segment.scan_rows(probe)}
    for patch_id, _, metadata in rows:
        try:
            matched = probe.evaluate(SimpleNamespace(metadata=metadata))
        except TypeError:
            continue
        if matched:
            assert patch_id in scanned


def test_reads_racing_appends_see_whole_rows_in_order(tmp_path):
    """Scans and point reads run while another thread appends (sealing a
    block every 8 rows): every read sees a prefix of the appended rows in
    id order, each row whole, and the final state holds every row."""
    heap = BlobHeap(tmp_path / "race.seg")
    segment = CollectionSegment(heap, "c", block_rows=8)
    n = 300

    def row(i):
        return {"k": i, "v": [i, -i]} if i % 3 else {"k": i, "s": f"r{i}"}

    failures = []
    done = threading.Event()

    def writer():
        try:
            for i in range(n):
                segment.append(i, ("v", i, None), row(i))
        finally:
            done.set()

    def reader():
        while not done.is_set():
            rows = list(segment.scan_rows())
            ids = [patch_id for patch_id, _, _ in rows]
            if ids != list(range(len(ids))) or any(
                metadata != row(patch_id) for patch_id, _, metadata in rows
            ):
                failures.append(ids)
                return
            wanted = ids[::-5]
            if [r[0] for r in segment.get_rows(wanted)] != wanted:
                failures.append(wanted)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert [r[0] for r in segment.scan_rows()] == list(range(n))
    finally:
        sys.setswitchinterval(interval)
        heap.close()


# -- storage layer ---------------------------------------------------------


class TestSegmentStorage:
    def test_metadata_scan_is_heap_free_and_bit_identical(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(40), "c")
            full = list(collection.scan(load_data=True))
            spy = HeapSpy(catalog.heap)
            try:
                lean = list(collection.scan(load_data=False))
                point = collection.get_many([3, 17, 38], load_data=False)
                single = collection.get(21, load_data=False)
            finally:
                spy.restore()
            assert spy.reads == 0
            assert meta_signature(lean) == meta_signature(full)
            assert all(p.data.size == 0 for p in lean)
            assert [p.patch_id for p in point] == [3, 17, 38]
            assert single.metadata == full[21].metadata
            assert single.lineage == full[21].lineage

    def test_get_many_missing_id_raises_query_error(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(5), "c")
            with pytest.raises(QueryError, match="not in collection"):
                collection.get_many([2, 999], load_data=False)

    def test_segment_survives_reopen_without_heap_reads(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(30), "c")
            expected = meta_signature(
                catalog.collection("c").scan(load_data=False)
            )
        with Catalog(tmp_path) as catalog:
            spy = HeapSpy(catalog.heap)
            try:
                rows = list(catalog.collection("c").scan(load_data=False))
            finally:
                spy.restore()
            assert spy.reads == 0
            assert meta_signature(rows) == expected

    def test_pre_segment_catalog_backfills_lazily(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(25), "c")
            expected = meta_signature(
                catalog.collection("c").scan(load_data=False)
            )
        # simulate a catalog created before the segment existed: no
        # segment heap on disk, no descriptor ref in the directory
        os.remove(os.path.join(tmp_path, "metadata.seg"))
        with Catalog(tmp_path) as catalog:
            catalog.segments.drop("c")
        with Catalog(tmp_path) as catalog:
            collection = catalog.collection("c")
            # the first metadata read backfills from the record heap...
            assert meta_signature(collection.scan(load_data=False)) == expected
            # ...after which the heap goes quiet again
            spy = HeapSpy(catalog.heap)
            try:
                rows = list(collection.scan(load_data=False))
            finally:
                spy.restore()
            assert spy.reads == 0
            assert meta_signature(rows) == expected
            # and lockstep appends resume on the rebuilt segment
            extra = Patch.from_frame("vid", 99, np.zeros((2, 2), np.uint8))
            extra.metadata["label"] = "van"
            collection.add(extra)
            lean = list(collection.scan(load_data=False))
            assert lean[-1]["label"] == "van"

    def test_stored_rows_share_no_mutable_state_with_callers(
        self, tmp_path, monkeypatch
    ):
        """The segment holds its own copies: mutating a nested ndarray or
        list of a patch after ``add``, or of a row a metadata read handed
        out, changes no later read — in a sealed block, in the open
        block, and after a reopen (blob and descriptor decoded)."""
        monkeypatch.setattr("repro.storage.metadata_segment.BLOCK_ROWS", 4)

        def make(i):
            patch = Patch.from_frame("vid", i, np.zeros((2, 2, 3), np.uint8))
            patch.metadata["emb"] = np.array([float(i), 0.0])
            patch.metadata["tags"] = [i, [i]]
            return patch

        def check(rows):
            assert [p["frameno"] for p in rows] == list(range(6))
            for i, patch in enumerate(rows):
                assert patch["emb"].tolist() == [float(i), 0.0]
                assert patch["tags"] == [i, [i]]

        def reads_are_isolated(collection):
            ids = collection.ids()
            for read in (
                lambda: list(collection.scan(load_data=False)),
                lambda: collection.get_many(ids, load_data=False),
            ):
                handed_out = read()
                check(handed_out)
                for patch in handed_out:
                    patch["emb"][0] = 99.0
                    patch["tags"][1].append("caller")
                    patch["tags"].append("caller")
                check(read())

        patches = [make(i) for i in range(6)]
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(iter(patches), "c")
            # rows 0-3 sealed, rows 4-5 in the open block
            assert collection.metadata_block_stats() == (2, 2)
            for patch in patches:
                patch.metadata["emb"][0] = -1.0
                patch.metadata["tags"][1].append("after add")
            reads_are_isolated(collection)
        with Catalog(tmp_path) as catalog:
            reads_are_isolated(catalog.collection("c"))

    def test_rematerialize_replaces_segment(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(10), "c")
            catalog.materialize(make_patches(4, source="v2"), "c", replace=True)
            rows = list(catalog.collection("c").scan(load_data=False))
            assert len(rows) == 4
            assert {p["source"] for p in rows} == {"v2"}


# -- planner wiring --------------------------------------------------------


class TestPlannerMetadataPaths:
    def test_explain_shows_metadata_scan_choice(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(40), "det")
            explanation = (
                db.scan("det", load_data=False)
                .filter(Attr("label") == "car")
                .explain()
            )
            assert explanation.chosen.kind == "metadata-scan"

    def test_zone_map_scan_skips_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.storage.metadata_segment.BLOCK_ROWS", 16
        )
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(120), "det")
            query = db.scan("det", load_data=False).filter(
                Attr("score") >= 112.0
            )
            explanation = query.explain()
            assert explanation.chosen.kind == "zone-map-scan"
            assert explanation.chosen.params["blocks_skipped"] > 0
            assert "skipping" in str(explanation)
            assert any("zone maps skip" in line for line in explanation.estimates)
            spy = HeapSpy(db.catalog.heap)
            try:
                rows = query.patches()
            finally:
                spy.restore()
            assert spy.reads == 0
            assert sorted(p["score"] for p in rows) == [
                float(v) for v in range(112, 120)
            ]

    def test_count_flips_to_metadata_scan(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(40), "det")
            query = db.scan("det").filter(Attr("label") == "car")
            explanation = query.aggregate_explain("count")
            assert any(
                "metadata-only" in line for line in explanation.rewrites
            )
            assert explanation.chosen.kind == "metadata-scan"
            spy = HeapSpy(db.catalog.heap)
            try:
                n = query.count()
            finally:
                spy.restore()
            assert spy.reads == 0
            assert n == 14

    def test_projection_without_data_flips_scan(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(30), "det")
            spy = HeapSpy(db.catalog.heap)
            try:
                rows = db.scan("det").select("label", "score").patches()
            finally:
                spy.restore()
            assert spy.reads == 0
            assert len(rows) == 30 and all(p.data.size == 0 for p in rows)

    def test_opaque_predicate_blocks_the_flip(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(30), "det")
            probe = Predicate(lambda p: p.data.size > 0, "has-pixels")
            spy = HeapSpy(db.catalog.heap)
            try:
                n = db.scan("det").filter(probe).count()
            finally:
                spy.restore()
            assert n == 30  # the predicate really saw pixel data
            assert spy.reads > 0

    def test_explicit_full_scan_is_untouched(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(10), "det")
            patches = db.scan("det").patches()
            assert all(p.data.size > 0 for p in patches)

    def test_index_metadata_fetches_skip_the_heap(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.metadata_segment.BLOCK_ROWS", 100)
        with DeepLens(tmp_path) as db:
            # spread over enough blocks that the point-fetch index path
            # out-costs even the cheap columnar scan: scores are shuffled
            # across blocks, so no zone map prunes
            patches = list(make_patches(1000))
            for i, patch in enumerate(patches):
                patch.metadata["score"] = float(i * 7 % 1000)
            db.materialize(patches, "det")
            db.create_index("det", "score", "btree")
            query = db.scan("det", load_data=False).filter(
                Attr("score").between(10.0, 14.0)
            )
            assert query.explain().chosen.kind == "btree-range"
            spy = HeapSpy(db.catalog.heap)
            try:
                rows = query.patches()
            finally:
                spy.restore()
            assert spy.reads == 0
            assert [p["score"] for p in rows] == [10.0, 11.0, 12.0, 13.0, 14.0]


# -- LensQL METADATA ONLY --------------------------------------------------


class TestSqlMetadataOnly:
    @pytest.fixture()
    def db(self, tmp_path):
        with DeepLens(tmp_path) as session:
            session.materialize(make_patches(45), "det")
            yield session

    def test_fingerprint_identical_to_fluent(self, db):
        sql = db.sql_query(
            "SELECT * FROM det METADATA ONLY WHERE score >= 30.0"
        )
        fluent = db.scan("det", load_data=False).filter(
            Attr("score") >= 30.0
        )
        assert sql.plan_fingerprint() == fluent.plan_fingerprint()

    def test_rows_match_full_scan_exactly(self, db):
        lean = db.sql("SELECT * FROM det METADATA ONLY WHERE label = 'bus'")
        full = db.sql("SELECT * FROM det WHERE label = 'bus'")
        assert meta_signature(lean) == meta_signature(full)
        assert all(p.data.size == 0 for p in lean)

    def test_to_sql_round_trip(self, db):
        from repro.core.sql.parser import parse

        text = "SELECT label FROM det METADATA ONLY WHERE score < 9.0 LIMIT 3"
        statement = parse(text)
        assert statement.metadata_only
        assert "METADATA ONLY" in statement.to_sql()
        assert parse(statement.to_sql()).to_sql() == statement.to_sql()

    def test_udf_call_rejected(self, db):
        db.register_udf("noop", lambda p: p)
        with pytest.raises(BindError, match="data-less"):
            db.sql("SELECT noop() FROM det METADATA ONLY")

    def test_similarity_join_rejected(self, db):
        with pytest.raises(BindError, match="no pixel data to join"):
            db.sql(
                "SELECT COUNT(*) FROM det METADATA ONLY "
                "SIMILARITY JOIN det WITHIN 1.0"
            )

    def test_count_star_runs_heap_free(self, db):
        spy = HeapSpy(db.catalog.heap)
        try:
            n = db.sql("SELECT COUNT(*) FROM det METADATA ONLY")
        finally:
            spy.restore()
        assert n == 45 and spy.reads == 0


# -- with_children (indexed rebuild) --------------------------------------


class TestWithChildren:
    def test_replaces_children_in_field_order(self):
        from repro.core import logical

        join = logical.SimilarityJoin(
            logical.Scan("a"), logical.Scan("b"), threshold=1.0
        )
        rebuilt = join.with_children(logical.Scan("x"), logical.Scan("y"))
        assert rebuilt.left.collection == "x"
        assert rebuilt.right.collection == "y"
        assert rebuilt.threshold == 1.0

    def test_too_few_and_too_many_children_raise(self):
        from repro.core import logical

        node = logical.Filter(logical.Scan("a"), Comparison("x", "==", 1))
        with pytest.raises(QueryError, match="too few children"):
            node.with_children()
        with pytest.raises(QueryError, match="too many children"):
            node.with_children(logical.Scan("a"), logical.Scan("b"))


# -- feedback staleness ----------------------------------------------------


def profile_with_feedback(est, actual, *, base_rows=100, version=0):
    profile = RuntimeProfile()
    entry = profile.operator("op", est_rows=est)
    entry.add_batch(actual, 0.0)
    entry.set_feedback("c", "key", base_rows, version=version)
    entry.mark_exhausted()
    profile.finish()
    return profile


class TestFeedbackStaleness:
    def test_fresh_observations_still_serve_corrections(self):
        log = PlanQualityLog()
        log.record("fp", profile_with_feedback(40, 10, version=5))
        assert log.correction("c", "key") == pytest.approx(0.1)
        # exactly at the threshold: not yet expired
        assert log.correction(
            "c", "key", current_version=21, staleness=16
        ) == pytest.approx(0.1)

    def test_all_expired_observations_abstain(self):
        log = PlanQualityLog()
        log.record("fp", profile_with_feedback(40, 10, version=5))
        assert (
            log.correction("c", "key", current_version=22, staleness=16)
            is None
        )

    def test_one_fresh_observation_keeps_the_pool_alive(self):
        log = PlanQualityLog()
        log.record("fp", profile_with_feedback(40, 10, version=0))
        log.record("fp", profile_with_feedback(40, 30, version=40))
        correction = log.correction(
            "c", "key", current_version=41, staleness=16
        )
        # pooled upper median over both runs, old one included
        assert correction == pytest.approx(0.3)

    def test_legacy_two_element_observations_read_as_version_zero(self):
        log = PlanQualityLog.from_value(
            {"plans": [], "predicates": [["c", "key", [[0.5, 0.25]]]]}
        )
        assert log.correction(
            "c", "key", current_version=10, staleness=16
        ) == pytest.approx(0.25)
        assert (
            log.correction("c", "key", current_version=17, staleness=16)
            is None
        )

    def test_corrections_expire_end_to_end(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(30), "det")
            query = db.scan("det").filter(Attr("label") == "car")
            query.explain(analyze=True)  # records the observed selectivity
            estimate = db.optimizer.estimator().selectivity(
                "det", Attr("label") == "car"
            )
            assert estimate.source == "feedback"
            collection = db.collection("det")
            for patch in make_patches(17, source="later"):
                collection.add(patch)  # each add bumps the version
            estimate = db.optimizer.estimator().selectivity(
                "det", Attr("label") == "car"
            )
            assert estimate.source != "feedback"

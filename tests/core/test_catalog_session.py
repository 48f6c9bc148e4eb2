"""Integration tests: catalog, lineage, session, storage formats."""

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.catalog import Catalog
from repro.core.patch import Patch
from repro.core.schema import Field, frame_schema
from repro.errors import (
    IndexError_,
    QueryError,
    RandomAccessUnsupportedError,
    StorageError,
    ValidationError,
)


def make_patches(n=20, source="vid"):
    rng = np.random.default_rng(0)
    for i in range(n):
        patch = Patch.from_frame(
            source, i, rng.integers(0, 255, (6, 6, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["bbox"] = (i, i, i + 5, i + 9)
        patch.metadata["vec"] = np.array([float(i % 4), float(i % 5)])
        yield patch


def assert_same_metadata(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key])
        else:
            assert a[key] == b[key]


class TestCatalog:
    def test_materialize_and_scan(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(10), "c")
            assert len(collection) == 10
            ids = [patch.patch_id for patch in collection.scan()]
            assert ids == sorted(ids)

    def test_get_and_missing(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(3), "c")
            patch = collection.get(1)
            assert patch["frameno"] == 1
            with pytest.raises(QueryError, match="not in collection"):
                collection.get(999)

    def test_duplicate_name_rejected(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(2), "c")
            with pytest.raises(StorageError, match="already exists"):
                catalog.materialize(make_patches(2), "c")
            catalog.materialize(make_patches(2), "c", replace=True)

    def test_get_many_matches_point_gets(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(25), "c")
            wanted = [7, 3, 24, 0, 3]  # out of order, with a duplicate
            batch = collection.get_many(wanted)
            assert [p.patch_id for p in batch] == wanted
            for patch, patch_id in zip(batch, wanted):
                point = collection.get(patch_id)
                assert (patch.data == point.data).all()
                assert_same_metadata(patch.metadata, point.metadata)
            assert collection.get_many([]) == []
            meta_only = collection.get_many([1, 2], load_data=False)
            assert all(p.data.size == 0 for p in meta_only)
            with pytest.raises(QueryError, match="not in collection"):
                collection.get_many([1, 999])

    def test_scan_batches_matches_scan(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(23), "c")
            batches = list(collection.scan_batches(7))
            assert [len(b) for b in batches] == [7, 7, 7, 2]
            flat = [p for batch in batches for p in batch]
            plain = list(collection.scan())
            assert [p.patch_id for p in flat] == [p.patch_id for p in plain]
            for a, b in zip(flat, plain):
                assert (a.data == b.data).all()
                assert_same_metadata(a.metadata, b.metadata)
            with pytest.raises(QueryError, match="positive"):
                list(collection.scan_batches(0))

    def test_index_lookup_helper_uses_batched_path(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(12), "c")
            catalog.create_index("c", "label", "hash")
            found = collection.lookup("label", "vehicle")
            assert sorted(p.patch_id for p in found) == [0, 3, 6, 9]

    def test_schema_enforced_at_materialize(self, tmp_path):
        schema = frame_schema().with_field(
            Field("label", "str", domain=frozenset({"vehicle"}), required=True)
        )
        with Catalog(tmp_path) as catalog:
            with pytest.raises(ValidationError):
                catalog.materialize(make_patches(5), "typed", schema=schema)

    def test_indexes_equality_and_range(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(12), "c")
            catalog.create_index("c", "label", "hash")
            catalog.create_index("c", "frameno", "btree")
            vehicle_ids = collection.index("label", "hash").lookup("vehicle")
            assert len(vehicle_ids) == 4  # frames 0,3,6,9
            ranged = [pid for _, pid in collection.index("frameno", "btree").range(2, 5)]
            assert len(ranged) == 4

    def test_rtree_index(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(8), "c")
            index = catalog.create_index("c", "bbox", "rtree")
            hits = index.search_intersect(((0, 0), (3, 3)))
            assert hits  # early boxes overlap the corner

    def test_balltree_index(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(15), "c")
            index = catalog.create_index("c", "vec", "balltree")
            sample = collection.get(4)
            assert 4 in set(index.query_radius(sample["vec"], 0.0))

    def test_multi_value_index(self, tmp_path):
        def token_patches():
            for i in range(4):
                patch = Patch.from_frame("doc", i, np.zeros((4, 4, 3), np.uint8))
                patch.metadata["tokens"] = ("ALPHA", f"W{i}")
                yield patch

        with Catalog(tmp_path) as catalog:
            catalog.materialize(token_patches(), "texts")
            index = catalog.create_index("texts", "tokens", "hash", multi_value=True)
            assert len(index.lookup("ALPHA")) == 4
            assert len(index.lookup("W2")) == 1

    @pytest.mark.parametrize("kind", ["hash", "btree"])
    def test_recreating_an_index_is_idempotent(self, tmp_path, kind):
        """A second create_index on a registered hash/btree key used to
        re-insert every row into the reattached on-disk structure, so
        each lookup matched twice and COUNT(*) doubled."""
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(12), "c")  # frameno 0..11, unique
            first = db.create_index("c", "frameno", kind)
            assert db.create_index("c", "frameno", kind) is first
            assert list(first.lookup(7)) == [7]
            query = db.scan("c").filter(Attr("frameno") == 7)
            assert query.explain().chosen.kind == f"{kind}-lookup"
            assert query.count() == 1
        with DeepLens(tmp_path) as db:  # and across a reopen
            db.create_index("c", "frameno", kind)
            assert db.scan("c").filter(Attr("frameno") == 7).count() == 1

    def test_recreating_an_index_through_lensql_is_idempotent(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(30), "c")
            db.sql("CREATE INDEX ON c (frameno) USING btree")
            db.sql("CREATE INDEX ON c (frameno) USING btree")
            statement = "SELECT COUNT(*) FROM c WHERE frameno = 17"
            assert "btree-lookup" in str(db.sql("EXPLAIN " + statement))
            assert db.sql(statement) == 1

    def test_recreating_a_multi_value_index_as_single_value_raises(self, tmp_path):
        """The multi-value flag used to survive a single-value
        re-creation, so rows added afterwards were filed under each
        element rather than under the whole tuple."""

        def tagged(i):
            patch = Patch.from_frame("doc", i, np.zeros((4, 4, 3), np.uint8))
            patch.metadata["tags"] = ("a", "b")
            return patch

        with DeepLens(tmp_path) as db:
            collection = db.materialize([tagged(0)], "texts")
            index = db.create_index("texts", "tags", "hash", multi_value=True)
            assert db.create_index("texts", "tags", "hash", multi_value=True) is index
            with pytest.raises(IndexError_, match="multi_value=True"):
                db.create_index("texts", "tags", "hash")
            collection.add(tagged(1))
            # still the inverted index it was built as, old and new rows alike
            assert sorted(index.lookup("a")) == [0, 1]
            assert not index.lookup(("a", "b"))
            # and a plain index, once created, cannot turn multi-value
            db.create_index("texts", "frameno", "btree")
            with pytest.raises(IndexError_, match="multi_value=False"):
                db.create_index("texts", "frameno", "btree", multi_value=True)

    @pytest.mark.parametrize("reopen", [False, True])
    @pytest.mark.parametrize("kind", ["hash", "btree"])
    def test_replace_drops_the_old_index_structures(self, tmp_path, kind, reopen):
        """``materialize(replace=True)`` used to unregister a hash/btree
        index but leave its on-disk structure behind, so the re-created
        index reattached to it and served the replaced rows' patch ids
        (``QueryError: patch 0 not in collection``)."""
        db = DeepLens(tmp_path)
        db.materialize(make_patches(6), "c")
        db.create_index("c", "label", kind)
        db.materialize(make_patches(9), "c", replace=True)
        assert db.catalog.indexes() == []
        if reopen:
            db.close()
            db = DeepLens(tmp_path)
        with db:
            db.create_index("c", "label", kind)
            found = db.collection("c").lookup("label", "vehicle", kind=kind)
            assert [p["frameno"] for p in found] == [0, 3, 6]
            assert db.scan("c").filter(Attr("label") == "vehicle").count() == 3

    @pytest.mark.parametrize("reopen", [False, True])
    def test_replace_drops_the_multi_value_flag(self, tmp_path, reopen):
        """The flag used to outlive the replaced collection, so a plain
        index re-created on the attribute filed the next ``add`` under
        ``'x'`` and ``'y'`` instead of ``('x', 'y')``."""

        def tagged(i):
            patch = Patch.from_frame("doc", i, np.zeros((4, 4, 3), np.uint8))
            patch.metadata["tags"] = ("x", "y")
            return patch

        db = DeepLens(tmp_path)
        db.materialize([tagged(0)], "texts")
        db.create_index("texts", "tags", "hash", multi_value=True)
        db.materialize([tagged(1)], "texts", replace=True)
        if reopen:
            db.close()
            db = DeepLens(tmp_path)
        with db:
            index = db.create_index("texts", "tags", "hash")  # plain: no raise
            new_id = db.collection("texts").add(tagged(2))
            assert new_id in index.lookup(("x", "y"))
            assert index.lookup("x") == []

    @pytest.mark.parametrize("reopen", [False, True])
    def test_refreshing_an_indexed_view_drops_its_index(self, tmp_path, reopen):
        def vehicles(db):
            return db.scan("c").filter(Attr("label") == "vehicle")

        db = DeepLens(tmp_path)
        db.materialize(make_patches(6), "c")
        db.materialize_view("v", vehicles(db))
        db.create_index("v", "frameno", "btree")
        for patch in make_patches(12):
            if patch["frameno"] >= 6:
                db.collection("c").add(patch)
        if reopen:
            db.close()
            db = DeepLens(tmp_path)
        with db:
            db.refresh_view("v", vehicles(db))
            assert db.catalog.indexes() == []
            db.create_index("v", "frameno", "btree")
            found = db.collection("v").lookup("frameno", 3, kind="btree")
            assert [p["frameno"] for p in found] == [3]
            ranged = db.scan("v").filter(Attr("frameno") >= 0)
            assert sorted(p["frameno"] for p in ranged.patches()) == [0, 3, 6, 9]

    def test_multi_value_requires_hash_or_btree(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(2), "c")
            with pytest.raises(IndexError_, match="multi_value"):
                catalog.create_index("c", "vec", "balltree", multi_value=True)

    def test_index_maintenance_on_add(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(5), "c")
            index = catalog.create_index("c", "label", "hash")
            before = len(index.lookup("person"))
            extra = Patch.from_frame("vid", 99, np.zeros((4, 4, 3), np.uint8))
            extra.metadata["label"] = "person"
            collection.add(extra)
            assert len(index.lookup("person")) == before + 1

    def test_unknown_index_lookup(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(2), "c")
            with pytest.raises(IndexError_, match="create_index"):
                catalog.get_index("c", "label", "hash")

    def test_persistence_across_reopen(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(6), "c")
            catalog.create_index("c", "label", "hash")
        with Catalog(tmp_path) as catalog:
            collection = catalog.collection("c")
            assert len(collection) == 6
            assert collection.get(2)["frameno"] == 2
            assert catalog.has_index("c", "label", "hash")
            assert len(catalog.get_index("c", "label", "hash").lookup("vehicle")) == 2

    def test_lineage_recorded(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(make_patches(4), "c")
            ids = catalog.lineage.patches_from_base("vid", 2)
            assert ids == [collection.get(2).patch_id]
            child = collection.get(1).derive(np.zeros(3), "hist")
            child_id = collection.add(child)
            assert catalog.lineage.children(1) == [child_id]
            assert child_id in catalog.lineage.descendants(1)

    def test_lineage_range_by_source(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(6), "c")
            hits = list(catalog.lineage.patches_from_source("vid", 2, 4))
            assert [frame for frame, _ in hits] == [2, 3, 4]


class TestDeepLensSession:
    def _frames(self, n=24):
        rng = np.random.default_rng(1)
        base = rng.integers(60, 90, (24, 32, 3), dtype=np.uint8)
        return [base.copy() for _ in range(n)]

    def test_ingest_load_roundtrip(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.ingest_video("v", iter(self._frames()), layout="segmented", clip_len=8)
            loaded = list(db.load("v", filter=Attr("frameno").between(4, 6)))
            assert [p["frameno"] for p in loaded] == [4, 5, 6]

    def test_duplicate_video_rejected(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.ingest_video("v", iter(self._frames(4)), layout="frame-raw")
            with pytest.raises(StorageError, match="already ingested"):
                db.ingest_video("v", iter(self._frames(4)))

    def test_video_registry_persists(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.ingest_video("v", iter(self._frames(6)), layout="frame-jpeg")
        with DeepLens(tmp_path) as db:
            assert db.videos() == ["v"]
            assert db.video("v").n_frames == 6

    def test_hundred_videos_survive_reopen(self, tmp_path):
        # the registry used to live in the 4 KiB meta page: close() raised
        # PageError after ~35 videos
        frames = self._frames(2)
        with DeepLens(tmp_path) as db:
            for i in range(60):
                db.ingest_video(f"cam{i:03d}", iter(frames), layout="frame-raw")
        with DeepLens(tmp_path) as db:
            for i in range(60, 100):
                db.ingest_video(f"cam{i:03d}", iter(frames), layout="frame-raw")
        with DeepLens(tmp_path) as db:
            assert db.videos() == [f"cam{i:03d}" for i in range(100)]
            assert db.video("cam000").n_frames == 2
            assert db.video("cam099").n_frames == 2

    def test_encoded_layout_refuses_random_access(self, tmp_path):
        with DeepLens(tmp_path) as db:
            store = db.ingest_video("v", iter(self._frames(6)), layout="encoded")
            with pytest.raises(RandomAccessUnsupportedError):
                store.get_frame(3)

    def test_query_builder_uses_index(self, tmp_path):
        # the stats-driven planner only picks the lookup when the
        # predicate is genuinely selective: make "vehicle" rare
        def rare_vehicles(n=90):
            for patch in make_patches(n):
                patch.metadata["label"] = (
                    "vehicle" if patch.metadata["frameno"] % 30 == 0 else "person"
                )
                yield patch

        with DeepLens(tmp_path) as db:
            db.materialize(rare_vehicles(), "c")
            db.create_index("c", "label", "hash")
            query = db.scan("c").filter(Attr("label") == "vehicle")
            explanation = query.explain()
            assert explanation.chosen.kind == "hash-lookup"
            # the decision carries the estimate and its statistic
            assert explanation.chosen.params["stat_source"] == "mcv"
            assert round(explanation.chosen.params["est_rows"]) == 3
            assert query.count() == 3

    def test_query_builder_range_index(self, tmp_path):
        # at tiny cardinalities a full scan is genuinely cheaper, so use a
        # collection large enough for the range path to win on cost
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(200), "c")
            db.create_index("c", "frameno", "btree")
            query = db.scan("c").filter(Attr("frameno").between(3, 5))
            assert query.explain().chosen.kind == "btree-range"
            assert query.count() == 3

    def test_query_builder_falls_back_to_scan(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(6), "c")
            query = db.scan("c").filter(Attr("label") == "person")
            assert query.explain().chosen.kind == "late-materialization"
            assert query.count() == 4

    def test_first_and_empty(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(3), "c")
            assert db.scan("c").first()["frameno"] == 0
            empty = db.scan("c").filter(Attr("label") == "nothing")
            with pytest.raises(QueryError, match="no patches"):
                empty.first()

    def test_distinct_count(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(9), "c")
            assert db.scan("c").distinct_count(lambda p: p["label"]) == 2

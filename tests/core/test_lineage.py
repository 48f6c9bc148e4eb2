"""Lineage answers from the live collections, and a rejected add writes
nothing.

Lineage queries read the metadata segments of the collections as they
are now, so rows a replace or a view refresh removed never come back
(before or after a reopen). ``MaterializedCollection.add`` runs every
check that can reject a patch before its first write, so a patch with no
way back to a base image leaves the row count, the segment, the indexes,
the statistics and the version exactly as they were.
"""

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.catalog import Catalog
from repro.core.operators import IndexLookupScan, MetadataScan
from repro.core.patch import ImgRef, Patch
from repro.errors import LineageError


def frames(n=3, source="vid", label="a"):
    for i in range(n):
        patch = Patch.from_frame(source, i, np.full((2, 2, 3), i, np.uint8))
        patch.metadata["label"] = label
        yield patch


def walked_from_base(catalog, source, frame):
    """Ids with base image ``(source, frame)``, found by walking every live
    collection's row tree into the heap — no segment involved."""
    return sorted(
        patch.patch_id
        for name in catalog.collections()
        for batch in catalog.collection(name)._record_batches(64, False)
        for patch in batch
        if patch.base_ref() == (source, frame)
    )


class TestRejectedAdd:
    def test_a_patch_without_lineage_leaves_no_trace(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(frames(1), "c")
            catalog.create_index("c", "label", "hash")
            index = catalog.get_index("c", "label", "hash")
            version = collection.version
            orphan = Patch(ImgRef("orphan"), np.zeros((2, 2, 3), np.uint8))
            orphan.metadata["label"] = "a"
            with pytest.raises(LineageError):
                collection.add(orphan)
            assert len(collection) == 1
            assert catalog.segments.segment("c").row_count == 1
            assert [p.patch_id for p in collection.scan()] == [0]
            assert list(index.lookup("a")) == [0]
            assert catalog.statistics_for("c").row_count == 1
            assert collection.version == version
            # the id was not taken either: the next patch gets the next one
            assert collection.add(next(frames(1))) == 1

    def test_an_index_and_a_scan_agree_after_a_rejected_add(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(frames(1), "c")
            db.create_index("c", "label", "hash")
            collection = db.catalog.collection("c")
            orphan = Patch(ImgRef("orphan"), np.zeros((2, 2, 3), np.uint8))
            orphan.metadata["label"] = "a"
            with pytest.raises(LineageError):
                collection.add(orphan)
            is_a = Attr("label") == "a"
            assert IndexLookupScan(collection, "label", "a").count() == 1
            assert MetadataScan(collection, is_a).count() == 1
            assert db.sql("SELECT COUNT(*) FROM c WHERE label = 'a'") == 1


class TestLineageOfLiveRows:
    def test_replace_drops_the_old_rows(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(frames(), "c")
            catalog.materialize(frames(), "c", replace=True)
            live = [p.patch_id for p in catalog.collection("c").scan()]
            assert live == [3, 4, 5]
            assert catalog.lineage.patches_from_base("vid", 1) == [4]
            assert list(catalog.lineage.patches_from_source("vid")) == [
                (0, 3), (1, 4), (2, 5)
            ]
            for patch_id in catalog.lineage.patches_from_base("vid", 1):
                assert catalog.collection("c").get(patch_id).patch_id == patch_id

    def test_refresh_view_drops_the_old_view_rows(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(frames(), "c")
            query = db.scan("c").filter(Attr("label") == "a")
            db.materialize_view("v", query)
            db.catalog.collection("c").add(next(frames(1)))
            db.refresh_view("v")
            found = db.lineage.patches_from_base("vid", 0)
            assert found == walked_from_base(db.catalog, "vid", 0)
            assert len(found) == 4  # two base rows + two live view rows

    def test_reopen_keeps_answering_for_live_rows(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            base = catalog.materialize(frames(), "c")
            child = base.get(1).derive(np.zeros(3), "hist")
            catalog.materialize([child], "d")
            catalog.materialize(frames(), "c", replace=True)
            catalog.materialize([], "d", replace=True)
        with Catalog(tmp_path) as catalog:
            assert catalog.lineage.patches_from_base("vid", 1) == (
                walked_from_base(catalog, "vid", 1)
            ) == [5]
            assert catalog.lineage.children(1) == []
            assert catalog.lineage.descendants(1) == []

    def test_no_lineage_tree_is_written(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            base = catalog.materialize(frames(), "c")
            base.add(base.get(1).derive(np.zeros(3), "hist"))
            catalog.sync()
            keys = set(catalog.directory.keys())
            assert ("btree", "lineage:base") not in keys
            assert ("btree", "lineage:parent") not in keys

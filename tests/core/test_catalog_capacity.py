"""Catalog capacity and commit cost: the directory grows, a commit does not.

Everything the catalog knows by name is one keyed directory entry, so
(a) the number of collections, indexes and views a catalog can hold is
bounded by disk, not by a page, and (b) a commit into one collection
writes that collection's entries however many others exist.

``REPRO_CAPACITY_COLLECTIONS`` sizes the catalog these tests build (the
way ``REPRO_CRASH_STEPS`` sizes the crash matrix): 40 in tier-1, 1000 in
CI's crash-safety step (about half a minute and 1 GB of scratch disk —
every hash index preallocates 256 bucket pages).
"""

import os

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.patch import Patch
from repro.errors import StorageError

COLLECTIONS = int(os.environ.get("REPRO_CAPACITY_COLLECTIONS", "40"))
VIEWS = 10
ROWS = 3
LABELS = ("car", "person", "sign")

#: what a 4-row commit into one of many collections may journal / append
#: beyond the same commit in a one-collection catalog. Pages: the commit
#: rewrites seven directory entries (the headers of the collection's row
#: tree, of its two indexes and of the lineage tree, the collection
#: record, the statistics and segment chain refs); they share one leaf in
#: a small catalog and sit on up to seven in a large one (measured: 4
#: pages small, 7 at 40 collections, 8 at 1000). Heap bytes: the same
#: records under longer names (measured: 945 vs 950 bytes).
EXTRA_PAGE_IMAGES = 6
EXTRA_HEAP_BYTES = 64


def _patches(collection: int, n: int = ROWS, start: int = 0):
    for i in range(start, start + n):
        patch = Patch.from_frame(
            f"cam{collection}", i, np.full((2, 2, 3), i % 251, dtype=np.uint8)
        )
        patch.metadata["label"] = LABELS[i % 3]
        patch.metadata["k"] = i
        yield patch


def _view_query(db, v: int):
    return db.scan(f"c{v}").filter(Attr("k") >= 1)


def _build(workdir, collections: int, views: int) -> None:
    with DeepLens(workdir, durability="flush") as db:
        for c in range(collections):
            db.materialize(_patches(c), f"c{c}")
            db.create_index(f"c{c}", "label", "hash")
            db.create_index(f"c{c}", "k", "btree")
        for v in range(views):
            db.materialize_view(f"v{v}", _view_query(db, v))


@pytest.fixture(scope="module")
def big(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("big")
    _build(workdir, COLLECTIONS, VIEWS)
    return workdir


def test_every_collection_index_and_view_survives_reopen(big):
    with DeepLens(big, durability="flush") as db:
        names = [f"c{c}" for c in range(COLLECTIONS)]
        assert db.catalog.collections() == sorted(
            names + [f"v{v}" for v in range(VIEWS)]
        )
        assert db.views() == [f"v{v}" for v in range(VIEWS)]
        assert sorted(db.catalog.indexes()) == sorted(
            [(name, "label", "hash") for name in names]
            + [(name, "k", "btree") for name in names]
        )
        for name in names:
            assert db.sql(f"SELECT COUNT(*) FROM {name}") == ROWS
            collection = db.collection(name)
            assert [p["k"] for p in collection.lookup("label", "person")] == [1]
            assert [p["k"] for p in collection.lookup("k", 2, kind="btree")] == [2]
        for v in range(VIEWS):
            assert db.sql(f"SELECT COUNT(*) FROM v{v}") == ROWS - 1
            assert db.view(f"v{v}").bases == {f"c{v}": ROWS}
            assert "Filter" in db.view(f"v{v}").plan_text
            assert not db.view_is_stale(f"v{v}")
        report = db.scrub()
        assert report["errors"] == []
        assert report["snapshot_records_checked"] >= 2 * COLLECTIONS + 2 * VIEWS


def test_a_failed_statement_leaves_the_session_able_to_commit(big):
    def exploding():
        yield from _patches(0, 2, start=100)
        raise RuntimeError("source died")

    with DeepLens(big, durability="flush") as db:
        with pytest.raises(StorageError, match="already exists"):
            db.materialize(_patches(0), "c0")
        with pytest.raises(RuntimeError, match="source died"):
            db.materialize(exploding(), "c0", replace=True)
        db.catalog.sync()
        # the interrupted replace is what the session now holds
        assert db.sql("SELECT COUNT(*) FROM c0") == 2
        assert db.catalog.indexes().count(("c0", "label", "hash")) == 0
        db.materialize(_patches(0), "c0", replace=True)
        db.create_index("c0", "label", "hash")
        db.create_index("c0", "k", "btree")
        db.refresh_view("v0", _view_query(db, 0))
    with DeepLens(big, durability="flush") as db:
        assert db.sql("SELECT COUNT(*) FROM c0") == ROWS
        assert db.sql(f"SELECT COUNT(*) FROM c{COLLECTIONS - 1}") == ROWS
        assert db.scrub()["errors"] == []


def _commit_cost(workdir, name: str) -> tuple[float, float]:
    """(journaled page images, heap bytes appended) of a 4-row add + sync
    commit into ``name``. A 40-row commit warms the session first: it
    loads the statistics, reattaches the indexes, and leaves each
    snapshot chain on a fresh base far larger than 4 rows, so the
    measured commit appends a delta in any catalog (a 4-row delta and a
    3-row base are too close in size to say which one a chain writes)."""

    def reading(db):
        counters = db.metrics()["counters"]
        return (
            counters.get("deeplens_journal_page_images_total", 0),
            sum(
                counters.get(f'deeplens_heap_write_bytes_total{{store="{store}"}}', 0)
                for store in ("blob", "segment")
            ),
        )

    with DeepLens(workdir, durability="flush") as db:
        collection = db.collection(name)
        cost = None
        for start, rows in ((1000, 40), (1040, 4)):
            before = reading(db)
            for patch in _patches(7, rows, start=start):
                collection.add(patch)
            db.catalog.sync()
            after = reading(db)
            cost = (after[0] - before[0], after[1] - before[1])
        assert db.sql(f"SELECT COUNT(*) FROM {name}") == ROWS + 44
        return cost


def test_commit_cost_does_not_grow_with_the_catalog(big, tmp_path):
    _build(tmp_path, 1, 1)
    small_pages, small_bytes = _commit_cost(tmp_path, "c0")
    # a collection in the middle of the directory's key order
    big_pages, big_bytes = _commit_cost(big, f"c{COLLECTIONS // 2}")
    assert 0 < small_pages and 0 < small_bytes
    assert big_pages <= small_pages + EXTRA_PAGE_IMAGES
    assert big_bytes <= small_bytes + EXTRA_HEAP_BYTES

"""Indexes over a metadata attribute are built from its segment column.

``create_index`` after a load reads ``(ids, values)`` off the metadata
segment and feeds them through the same per-kind insert incremental
upkeep uses, so the built index answers every lookup and probe exactly
as one kept current from the first row does (for HNSW: the same graph
and the same snapshot), and no pixel record is read to build it.
"""

import numpy as np
import pytest

import repro.storage.metadata_segment as seg_mod
from repro.core import DeepLens
from repro.core.patch import Patch
from repro.indexes import rect_from_bbox

N = 40
LABELS = ("car", "person", "bus")
BLOB_READS = 'deeplens_heap_reads_total{store="blob"}'
#: kind -> (attr, create_index keyword arguments)
KINDS = {
    "hash": ("label", {}),
    "hash-multi": ("tokens", {"multi_value": True}),
    "btree": ("score", {}),
    "rtree": ("bbox", {}),
    "balltree": ("emb", {}),
    "hnsw": ("emb", {"params": {"m": 4, "ef_construction": 8, "seed": 3}}),
}


def make_patches():
    rng = np.random.default_rng(5)
    for i in range(N):
        patch = Patch.from_frame("vid", i, rng.integers(0, 255, (4, 4, 3), np.uint8))
        patch.metadata["label"] = LABELS[i % 3]
        patch.metadata["tokens"] = tuple(LABELS[: 1 + i % 3])
        patch.metadata["score"] = None if i % 9 == 0 else float(i % 7)
        patch.metadata["bbox"] = (i, i % 5, i + 4, i % 5 + 6)
        patch.metadata["emb"] = rng.normal(size=3)
        yield patch


def kind_of(name):
    return name.split("-")[0]


def answers(index, name):
    """Everything the index can be asked, over the test's value domain."""
    kind = kind_of(name)
    if kind == "hash":
        return {key: list(index.lookup(key)) for key in LABELS}
    if kind == "btree":
        return {
            "points": {v: list(index.lookup(float(v))) for v in range(8)},
            "ranges": [list(index.range(lo, lo + 2.5)) for lo in range(-1, 8)],
        }
    if kind == "rtree":
        return [
            sorted(index.search_intersect(rect_from_bbox((x, y, x + 3, y + 3))))
            for x in range(0, N, 6)
            for y in range(0, 8, 3)
        ]
    queries = np.random.default_rng(9).normal(size=(6, 3))
    if kind == "balltree":
        return [
            (index.query_knn(q, 5), sorted(index.query_radius(q, 1.5)))
            for q in queries
        ]
    return [index.search(q, 5) for q in queries]


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(seg_mod, "BLOCK_ROWS", 16)  # 2 sealed + 1 open block


@pytest.mark.parametrize("name", KINDS)
def test_a_built_index_equals_one_kept_from_the_first_row(tmp_path, name):
    attr, options = KINDS[name]
    kind = kind_of(name)
    with DeepLens(tmp_path / "built") as built_db:
        built_db.materialize(make_patches(), "c")
        before = built_db.metrics()["counters"].get(BLOB_READS, 0)
        built = built_db.create_index("c", attr, kind, **options)
        assert built_db.metrics()["counters"].get(BLOB_READS, 0) == before
        with DeepLens(tmp_path / "kept") as kept_db:
            patches = list(make_patches())
            kept_db.materialize(patches[:1], "c")
            kept_db.create_index("c", attr, kind, **options)
            collection = kept_db.catalog.collection("c")
            for patch in patches[1:]:
                collection.add(patch)
            kept = kept_db.catalog.get_index("c", attr, kind)
            assert answers(built, name) == answers(kept, name)
            if kind == "hnsw":
                graph, twin = built.to_value(), kept.to_value()
                assert graph.keys() == twin.keys()
                for key in graph:
                    assert np.array_equal(graph[key], twin[key]), key

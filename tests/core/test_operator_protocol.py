"""Operator-protocol conformance: batches are the only protocol.

Every :class:`~repro.core.operators.Operator` subclass under ``src/`` is
discovered by walking ``Operator.__subclasses__()`` and must have a
fixture here — a new operator cannot skip the suite. For each one:

* ``list(op)`` (the derived row view) equals the flattened
  ``iter_batches(size)`` for sizes 1, 3 and 256;
* no batch is empty or longer than ``size``;
* every child is pulled with a size no larger than the caller's (spied);
* the class does not define ``__iter__`` — only the base derives it.

The size contract also holds for operators carrying the
``explain(analyze=True)`` instrumentation (:func:`instrument` shadows
``iter_batches`` in place): a scan reporting as a profile entry's input
and output, and a breaker reporting as its output.
"""

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.executor import PrefetchBatches  # also registers the subclass
from repro.core.operators import (
    DEFAULT_BATCH_SIZE,
    AnnTopKExact,
    AnnTopKScan,
    BallTreeSimilarityJoin,
    Distinct,
    IndexEqJoin,
    IndexLookupScan,
    IndexRangeScan,
    IteratorScan,
    Limit,
    MapPatches,
    MetadataScan,
    NestedLoopJoin,
    Operator,
    OrderBy,
    Project,
    RTreeOverlapJoin,
    Select,
    SwapSides,
    instrument,
)
from repro.core.patch import Patch
from repro.core.profile import RuntimeProfile

N = 20
SIZES = (1, 3, DEFAULT_BATCH_SIZE)


def make_patches():
    for i in range(N):
        patch = Patch.from_frame("vid", i, np.full((2, 2, 3), i % 5, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        patch.metadata["bbox"] = (i, i, i + 3, i + 3)
        patch.metadata["emb"] = np.array([float(i % 4), 1.0])
        yield patch


@pytest.fixture(scope="module")
def collection(tmp_path_factory):
    with DeepLens(tmp_path_factory.mktemp("protocol")) as db:
        db.materialize(make_patches(), "c")
        db.create_index("c", "label", "hash")
        db.create_index("c", "score", "btree")
        db.create_index("c", "bbox", "rtree")
        db.create_index("c", "emb", "balltree")
        db.create_index("c", "emb", "hnsw")
        yield db.collection("c")


class SpyChild(Operator):
    """Transparent child that records every batch size it is asked for."""

    def __init__(self, child):
        self.child = child
        self.arity = child.arity
        self.requested = []

    @property
    def pipeline_breaker(self):
        return self.child.pipeline_breaker

    def iter_batches(self, size=DEFAULT_BATCH_SIZE):
        self.requested.append(size)
        return self.child.iter_batches(size)


def twin(patch):
    """Expanding UDF: doubles every third patch, drops every fifth."""
    score = int(patch["score"])
    if score % 5 == 0:
        return None
    return [patch, patch] if score % 3 == 0 else patch


def instrumented(operator, *, as_input=False):
    entry = RuntimeProfile().operator("probe", est_rows=1.0)
    if as_input:
        instrument(operator, entry, as_input=True)
    instrument(operator, entry)
    return operator


#: class name -> builder(collection, spy) returning one or more fresh
#: operators; ``spy`` wraps each child so its requested sizes are checked
FIXTURES = {
    "IteratorScan": lambda c, spy: [
        IteratorScan(list(make_patches())),
        IteratorScan(make_patches()),  # one-shot iterator
    ],
    "MetadataScan": lambda c, spy: MetadataScan(c, Attr("score") < 12.0),
    "IndexLookupScan": lambda c, spy: IndexLookupScan(c, "label", "person"),
    "IndexRangeScan": lambda c, spy: IndexRangeScan(c, "score", 2.0, 15.0),
    "AnnTopKScan": lambda c, spy: [
        AnnTopKScan(c, "emb", [1.0, 1.0], 7, "hnsw"),
        AnnTopKScan(c, "emb", [1.0, 1.0], 7, "balltree"),
    ],
    "AnnTopKExact": lambda c, spy: AnnTopKExact(
        spy(MetadataScan(c, None)), "emb", [1.0, 1.0], 7
    ),
    "Select": lambda c, spy: Select(
        spy(MetadataScan(c, None)), Attr("label") == "person"
    ),
    "MapPatches": lambda c, spy: [
        MapPatches(spy(MetadataScan(c, None)), twin),
        MapPatches(
            spy(MetadataScan(c, None)), twin, batch_fn=lambda ps: [twin(p) for p in ps]
        ),
    ],
    "Limit": lambda c, spy: [
        Limit(spy(MetadataScan(c, None)), 7),
        Limit(spy(OrderBy(MetadataScan(c, None), lambda p: -p["score"])), 7),
    ],
    "OrderBy": lambda c, spy: OrderBy(
        spy(MetadataScan(c, None)), lambda p: p["score"], reverse=True
    ),
    "Project": lambda c, spy: Project(spy(MetadataScan(c, None)), ["label"]),
    "Distinct": lambda c, spy: Distinct(
        spy(MetadataScan(c, None)), lambda p: p["score"] % 6
    ),
    "NestedLoopJoin": lambda c, spy: NestedLoopJoin(
        spy(MetadataScan(c, None)),
        spy(MetadataScan(c, None)),
        lambda a, b: a["label"] == b["label"] and a["score"] < b["score"],
    ),
    "IndexEqJoin": lambda c, spy: IndexEqJoin(
        spy(MetadataScan(c, None)),
        c,
        left_key=lambda p: p["label"],
        right_attr="label",
    ),
    "RTreeOverlapJoin": lambda c, spy: RTreeOverlapJoin(spy(MetadataScan(c, None)), c),
    "BallTreeSimilarityJoin": lambda c, spy: [
        BallTreeSimilarityJoin(
            spy(MetadataScan(c, None)),
            spy(MetadataScan(c, None)),
            threshold=0.5,
            features=lambda p: p["emb"],
        ),
        BallTreeSimilarityJoin(
            spy(MetadataScan(c, None)),
            None,
            threshold=0.5,
            features=lambda p: p["emb"],
            index=c.index("emb", "balltree"),
            right_collection=c,
        ),
    ],
    "SwapSides": lambda c, spy: SwapSides(
        spy(
            NestedLoopJoin(
                MetadataScan(c, None),
                MetadataScan(c, None),
                lambda a, b: a["score"] + 1 == b["score"],
            )
        )
    ),
    "PrefetchBatches": lambda c, spy: PrefetchBatches(spy(MetadataScan(c, None)), depth=2),
}

#: the instrumented form of one scan and one breaker: same rows, same
#: batch bounds, and the counts land on the entry
INSTRUMENTED = {
    "instrumented-scan": lambda c, spy: instrumented(
        IndexRangeScan(c, "score", 2.0, 15.0), as_input=True
    ),
    "instrumented-breaker": lambda c, spy: instrumented(
        OrderBy(spy(MetadataScan(c, None)), lambda p: p["score"], reverse=True)
    ),
}

#: bases that only share code between concrete operators
ABSTRACT = {"_IndexScan"}


def engine_operator_classes():
    found, stack = {}, [Operator]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls.__name__ not in found:
                found[cls.__name__] = cls
                stack.append(cls)
    return [found[name] for name in sorted(found)]


OPERATOR_CLASSES = engine_operator_classes()


def signature(rows):
    return [tuple(patch.patch_id for patch in row) for row in rows]


def build(name, collection):
    """Fresh operator variants of fixture ``name`` plus the spies on
    their children."""
    spies = []

    def spy(child):
        spies.append(SpyChild(child))
        return spies[-1]

    built = {**FIXTURES, **INSTRUMENTED}[name](collection, spy)
    return (built if isinstance(built, list) else [built]), spies


def test_every_engine_operator_is_covered():
    names = {cls.__name__ for cls in OPERATOR_CLASSES}
    assert names - ABSTRACT == set(FIXTURES), (
        "every Operator subclass under src/ needs a fixture in FIXTURES"
    )
    assert len(names) >= 19


@pytest.mark.parametrize("cls", OPERATOR_CLASSES, ids=lambda cls: cls.__name__)
def test_only_the_base_defines_row_iteration(cls):
    assert "__iter__" not in vars(cls)


def test_iter_batches_is_the_only_abstract_method():
    assert Operator.__abstractmethods__ == frozenset({"iter_batches"})


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "name",
    [cls.__name__ for cls in OPERATOR_CLASSES if cls.__name__ not in ABSTRACT]
    + list(INSTRUMENTED),
)
def test_rows_are_the_flattened_batches(name, size, collection):
    batched, spies = build(name, collection)
    rowwise, _ = build(name, collection)  # fresh: one-shot scans drain once
    for batched_op, row_op in zip(batched, rowwise):
        batches = list(batched_op.iter_batches(size))
        assert batches, "fixture must produce rows"
        assert all(0 < len(batch) <= size for batch in batches)
        flat = [row for batch in batches for row in batch]
        assert all(len(row) == batched_op.arity for row in flat)
        assert signature(list(row_op)) == signature(flat)
        entry = batched_op.entry
        if entry is not None:  # instrumented: counted, not changed
            assert (entry.rows_out, entry.batches) == (len(flat), len(batches))
            assert entry.exhausted
            if name == "instrumented-scan":
                assert entry.rows_in == entry.index_probes == len(flat)
    for spied in spies:
        assert spied.requested, "child was never pulled through iter_batches"
        assert all(requested <= size for requested in spied.requested)

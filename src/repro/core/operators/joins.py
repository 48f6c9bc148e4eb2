"""Join operators (Section 5).

Three families, exactly the paper's menu:

* :class:`NestedLoopJoin` — "If no indexes are available, the most generic
  operator ... can execute arbitrary theta-joins"; all pairs, any predicate.
* :class:`IndexEqJoin` — "If a multi-dimensional or single dimensional
  index is available, we can use that index to enable equality joins,
  range joins, or similarity joins"; probes a hash/B+ index on the right
  collection with a key from each left patch. :class:`RTreeOverlapJoin`
  is the spatial variant for bbox intersection predicates.
* :class:`BallTreeSimilarityJoin` — the similarity join. With a prebuilt
  index it probes it; without one it implements the "On-The-Fly Index
  Similarity Join": "We load the smaller relation into an in-memory
  Ball-Tree. Then, probe using the other collection of patches."
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.catalog import MaterializedCollection
from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    chunked,
    rows_of,
)
from repro.core.patch import Patch, Row
from repro.errors import QueryError
from repro.indexes import BallTree, RTree, rect_from_bbox


class NestedLoopJoin(Operator):
    """All-pairs theta-join; the baseline every index join is measured against."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        theta: Callable[[Patch, Patch], bool],
        *,
        exclude_self: bool = False,
    ) -> None:
        if left.arity != 1 or right.arity != 1:
            raise QueryError("NestedLoopJoin expects arity-1 inputs")
        self.left = left
        self.right = right
        self.theta = theta
        self.exclude_self = exclude_self
        self.arity = 2

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return chunked(self._pairs(size), size)

    def _pairs(self, size: int) -> Iterator[Row]:
        # materialize inner side
        right_rows = [row[0] for row in rows_of(self.right, size)]
        for (left_patch,) in rows_of(self.left, size):
            for right_patch in right_rows:
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                if self.theta(left_patch, right_patch):
                    yield (left_patch, right_patch)


class IndexEqJoin(Operator):
    """Equality join probing a hash/B+ index on the right collection."""

    def __init__(
        self,
        left: Operator,
        right: MaterializedCollection,
        *,
        left_key: Callable[[Patch], object],
        right_attr: str,
        kind: str = "hash",
        load_data: bool = True,
    ) -> None:
        if left.arity != 1:
            raise QueryError("IndexEqJoin expects an arity-1 left input")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_attr = right_attr
        self.kind = kind
        self.load_data = load_data
        self.arity = 2

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return chunked(self._pairs(size), size)

    def _pairs(self, size: int) -> Iterator[Row]:
        index = self.right.index(self.right_attr, self.kind)
        cache: dict[int, Patch] = {}
        for batch in self.left.iter_batches(size):
            probes = [
                (left_patch, index.lookup(key))
                for (left_patch,) in batch
                if (key := self.left_key(left_patch)) is not None
            ]
            # one batched fetch per left batch: a point get per match
            # would decode a segment block (or read a record) per row
            missing = sorted({i for _, ids in probes for i in ids} - cache.keys())
            cache.update(
                zip(missing, self.right.get_many(missing, load_data=self.load_data))
            )
            for left_patch, ids in probes:
                for patch_id in ids:
                    yield (left_patch, cache[patch_id])


class RTreeOverlapJoin(Operator):
    """Spatial join: pairs whose bounding boxes intersect (same frame is the
    caller's responsibility — compose with an equality key or filter)."""

    def __init__(
        self,
        left: Operator,
        right: MaterializedCollection,
        *,
        bbox_attr: str = "bbox",
        expand: float = 0.0,
    ) -> None:
        if left.arity != 1:
            raise QueryError("RTreeOverlapJoin expects an arity-1 left input")
        self.left = left
        self.right = right
        self.bbox_attr = bbox_attr
        self.expand = expand
        self.arity = 2

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return chunked(self._pairs(size), size)

    def _pairs(self, size: int) -> Iterator[Row]:
        index: RTree = self.right.index(self.bbox_attr, "rtree")
        for (left_patch,) in rows_of(self.left, size):
            bbox = left_patch.metadata.get(self.bbox_attr)
            if bbox is None:
                continue
            x1, y1, x2, y2 = bbox
            rect = rect_from_bbox(
                (x1 - self.expand, y1 - self.expand, x2 + self.expand, y2 + self.expand)
            )
            for patch_id in index.search_intersect(rect):
                right_patch = self.right.get(patch_id)
                if _same_patch(left_patch, right_patch):
                    continue
                yield (left_patch, right_patch)


class BallTreeSimilarityJoin(Operator):
    """Similarity join: pairs within Euclidean ``threshold`` in feature space.

    ``features`` extracts the vector from a patch (defaults to ``data`` for
    feature patches). Pass ``index=`` to probe a prebuilt Ball-tree whose
    ids are right-collection patch ids; otherwise the right side is
    materialized into an in-memory tree on the fly (the paper's
    On-The-Fly Index Similarity Join).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator | None,
        *,
        threshold: float,
        features: Callable[[Patch], np.ndarray] | None = None,
        index: BallTree | None = None,
        right_collection: MaterializedCollection | None = None,
        exclude_self: bool = False,
        leaf_size: int = 16,
    ) -> None:
        if left.arity != 1:
            raise QueryError("BallTreeSimilarityJoin expects arity-1 inputs")
        if (right is None) == (index is None):
            raise QueryError(
                "provide exactly one of `right` (on-the-fly build) or "
                "`index` (prebuilt Ball-tree)"
            )
        if index is not None and right_collection is None:
            raise QueryError(
                "a prebuilt index needs `right_collection` to resolve ids"
            )
        self.left = left
        self.right = right
        self.threshold = threshold
        self.features = features or (lambda patch: patch.data)
        self.index = index
        self.right_collection = right_collection
        self.exclude_self = exclude_self
        self.leaf_size = leaf_size
        self.arity = 2

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        if self.index is not None:
            return chunked(self._probe_prebuilt(size), size)
        return chunked(self._probe_on_the_fly(size), size)

    def _probe_prebuilt(self, size: int) -> Iterator[Row]:
        assert self.index is not None and self.right_collection is not None
        cache: dict[int, Patch] = {}
        for (left_patch,) in rows_of(self.left, size):
            vector = np.asarray(self.features(left_patch), dtype=np.float64).ravel()
            for patch_id in self.index.query_radius(vector, self.threshold):
                patch_id = int(patch_id)
                if patch_id not in cache:
                    cache[patch_id] = self.right_collection.get(patch_id)
                right_patch = cache[patch_id]
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                yield (left_patch, right_patch)

    def _probe_on_the_fly(self, size: int) -> Iterator[Row]:
        assert self.right is not None
        right_patches = [row[0] for row in rows_of(self.right, size)]
        if not right_patches:
            return
        matrix = np.stack(
            [
                np.asarray(self.features(patch), dtype=np.float64).ravel()
                for patch in right_patches
            ]
        )
        tree = BallTree(matrix, leaf_size=self.leaf_size)
        for (left_patch,) in rows_of(self.left, size):
            vector = np.asarray(self.features(left_patch), dtype=np.float64).ravel()
            for row_idx in tree.query_radius(vector, self.threshold):
                right_patch = right_patches[int(row_idx)]
                if self.exclude_self and _same_patch(left_patch, right_patch):
                    continue
                yield (left_patch, right_patch)


class SwapSides(Operator):
    """Reverse the two patches of arity-2 rows.

    Lets the planner build the Ball-tree on whichever join side is
    cheaper while callers still receive (left, right) in query order.
    """

    def __init__(self, child: Operator) -> None:
        if child.arity != 2:
            raise QueryError("SwapSides expects arity-2 rows")
        self.child = child
        self.arity = 2

    def iter_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        for batch in self.child.iter_batches(size):
            yield [(b, a) for a, b in batch]


def _same_patch(a: Patch, b: Patch) -> bool:
    if a.patch_id is not None and b.patch_id is not None:
        return a.patch_id == b.patch_id
    return a is b

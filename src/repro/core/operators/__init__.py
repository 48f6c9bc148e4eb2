"""Dataflow operators over rows of patches (Sections 2.2 and 5)."""

from repro.core.operators.aggregates import (
    AggregateExecution,
    Distinct,
    DistinctCount,
    GroupBy,
    UnionFind,
    cluster_pairs,
)
from repro.core.operators.base import (
    DEFAULT_BATCH_SIZE,
    Batch,
    Operator,
    as_rows,
    chunked,
    slice_batches,
)
from repro.core.operators.joins import (
    BallTreeSimilarityJoin,
    IndexEqJoin,
    NestedLoopJoin,
    RTreeOverlapJoin,
    SwapSides,
)
from repro.core.operators.profiled import (
    InputProbe,
    ProfiledOperator,
)
from repro.core.operators.scans import (
    AnnTopKExact,
    AnnTopKScan,
    CollectionScan,
    IndexLookupScan,
    IndexRangeScan,
    IteratorScan,
    Limit,
    MapPatches,
    MetadataScan,
    OrderBy,
    Project,
    Select,
)

__all__ = [
    "AggregateExecution",
    "AnnTopKExact",
    "AnnTopKScan",
    "BallTreeSimilarityJoin",
    "Batch",
    "CollectionScan",
    "DEFAULT_BATCH_SIZE",
    "Distinct",
    "DistinctCount",
    "GroupBy",
    "IndexEqJoin",
    "IndexLookupScan",
    "IndexRangeScan",
    "InputProbe",
    "IteratorScan",
    "Limit",
    "MapPatches",
    "MetadataScan",
    "NestedLoopJoin",
    "Operator",
    "OrderBy",
    "ProfiledOperator",
    "Project",
    "RTreeOverlapJoin",
    "Select",
    "SwapSides",
    "UnionFind",
    "as_rows",
    "chunked",
    "cluster_pairs",
    "slice_batches",
]

"""Query optimization: cost model, planner, storage advisor, synthesis.

One module per job: :mod:`.rewriter` (logical rewrite rules),
:mod:`.cardinality` (every row estimate of a planning pass, behind
:class:`CardinalityEstimator`), :mod:`.cost` (seconds per physical
alternative), :mod:`.optimizer` (the cost-based choices and their
:class:`Explanation`), and :mod:`.lowering` (:func:`plan_pipeline`:
logical plan in, physical operators out).
"""

# owned by the operator / UDF layers; re-exported for the planner's callers
from repro.core.operators.aggregates import AggregateExecution
from repro.core.udf_cache import UDFCache
from repro.core.optimizer.advisor import (
    LayoutCosts,
    StorageAdvisor,
    StorageRecommendation,
    WorkloadProfile,
)
from repro.core.optimizer.cardinality import (
    DEFAULT_JOIN_DIM,
    JOIN_PER_DIM_MATCH,
    CardinalityEstimator,
    estimate_join_output,
)
from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.lowering import ViewMatcher, plan_pipeline
from repro.core.optimizer.optimizer import (
    EQ_SELECTIVITY,
    NEQ_SELECTIVITY,
    RANGE_SELECTIVITY,
    Explanation,
    Optimizer,
    PlanAccuracy,
    PlanChoice,
)
from repro.core.optimizer.rewriter import AppliedRewrite, rewrite
from repro.core.optimizer.synthesis import (
    ComponentSpec,
    PipelineSynthesizer,
    SynthesisResult,
)

__all__ = [
    "AggregateExecution",
    "AppliedRewrite",
    "CardinalityEstimator",
    "ComponentSpec",
    "CostModel",
    "DEFAULT_JOIN_DIM",
    "EQ_SELECTIVITY",
    "Explanation",
    "JOIN_PER_DIM_MATCH",
    "LayoutCosts",
    "NEQ_SELECTIVITY",
    "Optimizer",
    "PipelineSynthesizer",
    "PlanAccuracy",
    "PlanChoice",
    "RANGE_SELECTIVITY",
    "StorageAdvisor",
    "StorageRecommendation",
    "SynthesisResult",
    "UDFCache",
    "ViewMatcher",
    "WorkloadProfile",
    "estimate_join_output",
    "plan_pipeline",
    "rewrite",
]

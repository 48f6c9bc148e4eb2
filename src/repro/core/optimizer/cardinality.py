"""Cardinality estimation: every row estimate of one planning pass.

:class:`CardinalityEstimator` is the only place the planner turns a
predicate, a logical subtree or a join into a number of rows. A planning
pass — one :func:`~repro.core.optimizer.lowering.plan_pipeline` call, or
one direct :meth:`~repro.core.optimizer.Optimizer.plan_filter` call —
makes one estimator (:meth:`~repro.core.optimizer.Optimizer.estimator`)
and hands it to every stage that needs a number: view matching, access
path selection, join strategy, batch sizing, and the est-rows column of
``EXPLAIN ANALYZE``. They therefore all see the *same* estimate of the
same thing, and each statistics snapshot, feedback lookup and subtree is
consulted once per pass. The memo dies with the pass: the next pass
re-reads statistics and feedback, so nothing here can go stale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.core import logical
from repro.core.expressions import Expr
from repro.core.statistics import (
    SOURCE_FEEDBACK,
    CollectionStatistics,
    Estimate,
    StatisticsProvider,
    fallback_estimate,
    sample_match_fraction,
)
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import Catalog

#: a feedback correction goes stale once the collection has mutated more
#: than ``max(MIN, FRACTION * rows-at-estimate-time)`` times past the
#: newest observation — after that, fresh histograms win again
FEEDBACK_STALENESS_MIN = 16
FEEDBACK_STALENESS_FRACTION = 0.25

#: feature dimensionality assumed for join costing when the caller gives
#: no ``dim`` and the statistics recorded no embedding dimensionality
#: (vectors are opaque callables until execution)
DEFAULT_JOIN_DIM = 8

#: per-dimension probability that two random feature vectors fall within
#: the join threshold along that axis — the similarity-join output model:
#: match probability decays geometrically with dimensionality (the same
#: concentration-of-measure effect behind the Ball-tree cost model's
#: alpha), floored at one near-duplicate match per probe
JOIN_PER_DIM_MATCH = 0.5
#: dimensions beyond this contribute no further decay (the floor has
#: long since taken over; avoids pointless underflow)
JOIN_MATCH_DIM_CAP = 32


def estimate_join_output(
    n_left: float,
    n_right: float,
    dim: int,
    *,
    exclude_self: bool = False,
    match_fraction: float | None = None,
) -> float:
    """Estimated output pairs of a similarity join.

    With ``match_fraction`` (the sampled fraction of pairwise distances
    within the join threshold, from the recorded vector statistics) each
    left row matches ``n_right * match_fraction`` right rows — the
    data-distribution-aware model, which sees clustering the geometric
    decay cannot. Identity-pair handling is the *sampler's* job there
    (:func:`~repro.core.statistics.sample_match_fraction` with ``same=``),
    so no further ``exclude_self`` subtraction applies.

    Without it, each left row matches ``n_right * JOIN_PER_DIM_MATCH **
    dim`` right rows under the independence model. Both paths floor at
    one match per probe — similarity joins exist because near-duplicates
    *do* exist, so a high-dimensional join degrades to ~one partner per
    row rather than zero. ``exclude_self`` removes the identity pairs a
    self-join of the same rows would otherwise count.
    """
    if n_left <= 0 or n_right <= 0:
        return 0.0  # the floor must not conjure matches from an empty side
    if match_fraction is not None:
        per_probe = n_right * min(max(match_fraction, 0.0), 1.0)
        return n_left * min(max(per_probe, 1.0), max(n_right, 1.0))
    per_probe = n_right * JOIN_PER_DIM_MATCH ** min(max(dim, 1), JOIN_MATCH_DIM_CAP)
    matches = n_left * min(max(per_probe, 1.0), max(n_right, 1.0))
    if exclude_self:
        matches = max(matches - min(n_left, n_right), 0.0)
    return matches


class JoinEstimate(NamedTuple):
    """One similarity join: input estimates as the positive integers the
    join cost model takes, the feature dimensionality and where it came
    from, the sampled match fraction (None: geometric decay), and the
    output pairs estimated from exactly those inputs."""

    n_left: int
    n_right: int
    dim: int
    dim_source: str
    match_fraction: float | None
    pairs: float


class CardinalityEstimator:
    """The row estimates of one planning pass, each computed once."""

    def __init__(
        self,
        catalog: "Catalog",
        statistics: StatisticsProvider,
        feedback_applied,
        feedback_abstained,
    ) -> None:
        self.catalog = catalog
        self._provider = statistics
        self._feedback_applied = feedback_applied
        self._feedback_abstained = feedback_abstained
        self._statistics: dict[str, CollectionStatistics | None] = {}
        self._selectivities: dict[tuple[str, str], Estimate] = {}
        # logical nodes hash by identity, and being keys keeps them alive
        self._rows: dict[logical.LogicalPlan, float] = {}
        self._joins: dict[logical.SimilarityJoin, JoinEstimate] = {}

    def statistics(self, collection_name: str) -> CollectionStatistics | None:
        if collection_name not in self._statistics:
            self._statistics[collection_name] = self._provider.statistics_for(
                collection_name
            )
        return self._statistics[collection_name]

    # -- predicates --------------------------------------------------------

    def selectivity(self, collection_name: str, expr: Expr | None) -> Estimate:
        """Selectivity of ``expr`` over a collection, with its source.

        A logged feedback correction — the median observed selectivity
        of this exact predicate over this collection, recorded by
        ``EXPLAIN ANALYZE`` runs into the catalog's
        :class:`~repro.core.profile.PlanQualityLog` — wins over every
        model (source ``feedback``): an observation beats an estimate,
        and it is precisely the correlated conjunctions the independence
        assumption mangles that it corrects. Otherwise uses the
        statistics provider's histograms/MCVs when the collection has
        statistics, else the fixed fallback constants (source
        ``fallback-constant``).
        """
        key = (collection_name, logical.expr_signature_key(expr))
        estimate = self._selectivities.get(key)
        if estimate is not None:
            return estimate
        stats = self.statistics(collection_name)
        correction = None
        if expr is not None:
            correction = self._feedback(key, stats.row_count if stats else 0)
        if correction is not None:
            estimate = Estimate(correction, SOURCE_FEEDBACK)
        elif stats is None or stats.row_count == 0:
            estimate = fallback_estimate(expr)
        else:
            estimate = stats.estimate_predicate(expr)
        self._selectivities[key] = estimate
        return estimate

    def _feedback(self, key: tuple[str, str], rows: int) -> float | None:
        """Median observed selectivity of this exact predicate shape, or
        None when never profiled.

        Corrections do **not** win forever: each observation carries the
        collection version it was measured at, and when every recorded
        observation is older than the staleness threshold (the same
        mutation-counter notion ``CollectionStatistics.staleness``
        tracks), the correction is ignored and fresh histograms — which
        *have* seen the new rows — take over.
        """
        log = self.catalog.plan_quality_log()
        correction = log.correction(
            *key,
            current_version=self.catalog.collection_version(key[0]),
            staleness=max(
                FEEDBACK_STALENESS_MIN, int(rows * FEEDBACK_STALENESS_FRACTION)
            ),
        )
        # count decisions, not lookups: "applied" when an observation
        # overrode the model, "abstained" only when history existed but
        # the correction declined (staleness) — never-profiled predicates
        # are not decisions at all
        if correction is not None:
            self._feedback_applied.inc()
        elif log.has_predicate_history(*key):
            self._feedback_abstained.inc()
        return correction

    def feedback_key(
        self, collection_name: str, expr: Expr
    ) -> tuple[str, str, int, int]:
        """(collection, predicate key, base rows, collection version):
        what an analyzed run files this predicate's observed selectivity
        under, so that a later pass's :meth:`selectivity` finds it."""
        return (
            collection_name,
            logical.expr_signature_key(expr),
            len(self.catalog.collection(collection_name)),
            self.catalog.collection_version(collection_name),
        )

    def filter_rows(
        self, collection_name: str, expr: Expr | None
    ) -> tuple[float, str]:
        """Estimated result rows of filtering a collection, plus the
        statistic that produced the estimate."""
        n = len(self.catalog.collection(collection_name))
        estimate = self.selectivity(collection_name, expr)
        return estimate.rows(n), estimate.source

    # -- subtrees and joins ------------------------------------------------

    def rows(self, node: logical.LogicalPlan) -> float:
        """Estimated output rows of a logical subtree, statistics-driven
        where the subtree bottoms out at a materialized scan."""
        estimate = self._rows.get(node)
        if estimate is None:
            estimate = self._rows[node] = self._subtree_rows(node)
        return estimate

    def _subtree_rows(self, node: logical.LogicalPlan) -> float:
        if isinstance(node, logical.Scan):
            try:
                return float(len(self.catalog.collection(node.collection)))
            except QueryError:
                return 1.0
        if isinstance(node, logical.Filter):
            _, base, combined = logical.filter_chain(node)
            collection = logical.base_collection(base)
            if collection is not None:
                estimate = self.selectivity(collection, combined)
            else:
                estimate = fallback_estimate(combined)
            return self.rows(base) * estimate.selectivity
        if isinstance(node, logical.Limit):
            return min(float(node.n), self.rows(node.child))
        if isinstance(node, logical.AnnTopK):
            return min(float(node.k), self.rows(node.child))
        if isinstance(node, logical.SimilarityJoin):
            # from the inputs' unrounded estimates (JoinEstimate.pairs
            # is the same model over the cost model's integer inputs)
            join = self.join(node)
            return estimate_join_output(
                self.rows(node.left),
                self.rows(node.right),
                join.dim,
                exclude_self=node.exclude_self,
                match_fraction=join.match_fraction,
            )
        children = node.children()
        return self.rows(children[0]) if children else 1.0

    def join(self, node: logical.SimilarityJoin) -> JoinEstimate:
        estimate = self._joins.get(node)
        if estimate is not None:
            return estimate
        n_left = max(int(self.rows(node.left)), 1)
        n_right = max(int(self.rows(node.right)), 1)
        # feature dimensionality: the caller's ``dim``, else the recorded
        # embedding dim of either side (default features ravel
        # ``patch.data``, so the data profile is the right one), else
        # the fixed fallback
        dim, dim_source, fraction = DEFAULT_JOIN_DIM, "fallback-constant", None
        if node.dim:
            dim, dim_source = node.dim, "caller-specified"
        elif node.features is None:
            names = [logical.base_collection(side) for side in (node.left, node.right)]
            stats = [
                self.statistics(name) if name is not None else None
                for name in names
            ]
            for name, side in zip(names, stats):
                recorded = side.embedding_dim() if side is not None else None
                if recorded is not None:
                    dim, dim_source = recorded, f"recorded data dim of {name!r}"
                    break
            # sampled match fraction, for default features only: custom
            # features live in an unrecorded space — the stored patch-data
            # sample says nothing about their distances — and a
            # caller-specified dim is a full manual override
            if node.dim is None and all(side is not None for side in stats):
                fraction = sample_match_fraction(
                    stats[0].data_sample(),
                    stats[1].data_sample(),
                    node.threshold,
                    # identity pairs leave the sample exactly when they
                    # leave the join output (see estimate_join_output)
                    same=names[0] == names[1] and node.exclude_self,
                )
        pairs = estimate_join_output(
            n_left,
            n_right,
            dim,
            exclude_self=node.exclude_self,
            match_fraction=fraction,
        )
        estimate = self._joins[node] = JoinEstimate(
            n_left, n_right, dim, dim_source, fraction, pairs
        )
        return estimate

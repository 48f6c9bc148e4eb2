"""Lowering: logical plan -> physical operators.

:func:`plan_pipeline` is the planner entry point the
:class:`~repro.core.session.QueryBuilder` uses — it rewrites the logical
tree (:mod:`repro.core.optimizer.rewriter`), lowers every node to the
physical operators of :mod:`repro.core.operators`, and merges the
cost-based decisions made along the way (access-path selection for each
scan+filter group, join-strategy selection for similarity joins) into one
:class:`~repro.core.optimizer.Explanation` that also carries the applied
logical rewrites.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core import logical
from repro.core.executor import (
    ExecutionContext,
    PrefetchBatches,
    resolve_execution,
)
from repro.core.expressions import And, Expr
from repro.core.metrics import NULL_REGISTRY, span
from repro.core.operators import (
    AggregateExecution,
    AnnTopKExact,
    AnnTopKScan,
    BallTreeSimilarityJoin,
    CollectionScan,
    IndexLookupScan,
    IndexRangeScan,
    InputProbe,
    IteratorScan,
    Limit,
    MapPatches,
    MetadataScan,
    NestedLoopJoin,
    Operator,
    OrderBy,
    ProfiledOperator,
    Project,
    Select,
    SwapSides,
)
from repro.core.optimizer.optimizer import (
    Explanation,
    Optimizer,
    PlanChoice,
)
from repro.core.optimizer.rewriter import rewrite
from repro.core.patch import Patch
from repro.core.profile import OperatorProfile
from repro.core.udf import AttributeKey
from repro.core.udf_cache import UDFCache
from repro.core.statistics import fallback_estimate, sample_match_fraction
from repro.errors import QueryError

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


@runtime_checkable
class ViewMatcher(Protocol):
    """The planner's hook into the materialized-view registry.

    ``apply`` may rewrite plan prefixes into view scans; it returns the
    (possibly unchanged) plan, explain-trace note lines, and one
    cost-decision :class:`Explanation` per considered view match.
    """

    def apply(
        self, plan: logical.LogicalPlan, *, allow_stale: bool = False
    ) -> tuple[logical.LogicalPlan, list[str], list[Explanation]]:
        ...  # pragma: no cover


def _aggregate_reads_data(node: logical.Aggregate) -> bool:
    """Whether executing this aggregate can observe its rows' pixel data.

    ``count`` touches nothing; ``distinct_count``/``avg``/``group`` keyed
    by an :class:`~repro.core.udf.AttributeKey` read only metadata (and
    ``group`` additionally needs the trivial ``len`` reducer — any other
    reducer folds whole patch lists and may read anything). Opaque
    callables are conservatively assumed to read data.
    """
    if node.kind == "count":
        return False
    if not isinstance(node.key, AttributeKey):
        return True
    return node.kind == "group" and node.reducer is not len


def apply_metadata_only(
    plan: logical.LogicalPlan,
) -> tuple[logical.LogicalPlan, list[str]]:
    """Flip eligible scans to ``load_data=False`` automatically.

    A top-down pass tracking whether any consumer above each node can
    *observe* pixel data. Where nothing can — a metadata-only aggregate,
    or a ``Project`` that drops data — the storage scan underneath is
    rewritten to skip the blob heap entirely and read the columnar
    metadata segment instead. Opaque predicates, UDF maps, similarity
    joins, and rows returned to the caller all count as observers.

    Returns the (possibly unchanged) plan plus explain-trace note lines.
    """
    notes: list[str] = []

    def visit(
        node: logical.LogicalPlan, observed: bool
    ) -> logical.LogicalPlan:
        if isinstance(node, logical.Scan):
            if node.load_data and not observed:
                notes.append(
                    f"metadata-only: nothing above Scan({node.collection}) "
                    f"reads pixel data; scanning the metadata segment "
                    f"instead of the blob heap"
                )
                return replace(node, load_data=False)
            return node
        children = node.children()
        if isinstance(node, logical.Aggregate):
            flags = (_aggregate_reads_data(node),)
        elif isinstance(node, logical.Project):
            # data dropped here is invisible above, so the child only
            # needs it when the projection itself keeps it for an observer
            flags = (observed and node.keep_data,)
        elif isinstance(node, logical.Filter):
            # an opaque Predicate may read patch.data; structural
            # comparisons declare their attributes and never do
            flags = (observed or logical.expr_attrs(node.expr) is None,)
        elif isinstance(node, logical.OrderBy):
            # ordering by similarity against the data payload reads pixels
            data_distance = (
                node.vector is not None
                and (node.vector_attr or "data") == "data"
            )
            flags = (observed or data_distance,)
        elif isinstance(node, logical.Limit):
            flags = (observed,)
        else:
            # Map (UDF may read data), SimilarityJoin (features default to
            # patch.data), and any future node: assume children observed
            flags = tuple(True for _ in children)
        new_children = tuple(
            visit(child, flag) for child, flag in zip(children, flags)
        )
        if all(
            new is old for new, old in zip(new_children, children)
        ):
            return node
        return node.with_children(*new_children)

    # the caller iterates the root's rows, so the root itself is observed
    return visit(plan, True), notes


def plan_pipeline(
    optimizer: Optimizer,
    plan: logical.LogicalPlan,
    *,
    udf_cache: UDFCache | None = None,
    views: "ViewMatcher | None" = None,
    allow_stale: bool = False,
    execution: ExecutionContext | None = None,
) -> tuple[Operator | AggregateExecution, Explanation]:
    """Rewrite + lower a logical plan; returns the physical root and the
    merged explanation (logical rewrites + every physical candidate).

    ``views`` is an optional :class:`ViewMatcher` (the session's
    materialization manager): before rule rewriting, any plan prefix
    that recomputes a registered materialized view is replaced by a scan
    of the view when the cost model favours it. Stale views (a base
    collection changed since the view was built) are skipped unless
    ``allow_stale``.

    ``execution`` carries the engine configuration (worker count, batch
    size, prefetch depth). Parallel contexts thread into the lowered UDF
    maps (ordered thread-pool fan-out) and insert a prefetch stage
    between storage scans and the first map; the *resolved* configuration
    — including the batch size the planner picked from cardinality
    estimates — lands on ``Explanation.execution`` so ``explain()``
    reports it per plan.
    """
    metrics = getattr(optimizer, "metrics", None) or NULL_REGISTRY
    view_notes: list[str] = []
    view_decisions: list[Explanation] = []
    with span("rewrite"):
        if views is not None:
            plan, view_notes, view_decisions = views.apply(
                plan, allow_stale=allow_stale
            )
        plan, metadata_notes = apply_metadata_only(plan)
        rewritten, applied = rewrite(plan)
    metrics.counter(
        "deeplens_optimizer_plans_total", "physical plans built"
    ).inc()
    if applied:
        rewrites = metrics.counter(
            "deeplens_optimizer_rewrites_total",
            "logical rewrite rules fired",
            labels=("rule",),
        )
        for entry in applied:
            rewrites.labels(rule=entry.rule).inc()
    context = execution if execution is not None else ExecutionContext()
    lowering = _Lowering(optimizer, udf_cache, context)
    with span("lower"):
        root = lowering.lower(rewritten)
    explanation = _merge_decisions(view_decisions + lowering.decisions)
    explanation.rewrites = (
        view_notes
        + metadata_notes
        + [str(entry) for entry in applied]
        + lowering.notes
    )
    explanation.estimates.extend(lowering.estimates)
    explanation.logical_plan = rewritten.describe()
    explanation.execution = resolve_execution(
        context, lowering._estimate_rows(rewritten)
    )
    return root, explanation


def _merge_decisions(decisions: list[Explanation]) -> Explanation:
    if not decisions:  # degenerate plan with no cost decision (unreached
        # by QueryBuilder, which always roots at a Scan)
        trivial = PlanChoice("pipeline", 0.0)
        return Explanation(chosen=trivial, candidates=[trivial])
    # the last decision is the outermost (joins above scans): lead with
    # it, pool all candidates, and keep the per-decision structure so a
    # winner inside one decision isn't mistaken for a loser of another
    primary = decisions[-1]
    candidates = [choice for expl in decisions for choice in expl.candidates]
    return Explanation(
        chosen=primary.chosen,
        candidates=candidates,
        sections=list(decisions) if len(decisions) > 1 else [],
        estimates=[line for expl in decisions for line in expl.estimates],
    )


class _Lowering:
    def __init__(
        self,
        optimizer: Optimizer,
        udf_cache: UDFCache | None,
        execution: ExecutionContext | None = None,
    ) -> None:
        self.optimizer = optimizer
        self.udf_cache = udf_cache
        self.execution = execution if execution is not None else ExecutionContext()
        self.decisions: list[Explanation] = []
        #: extra explain-trace lines (one per memoized map; each map node
        #: lowers exactly once, so no dedup is needed)
        self.notes: list[str] = []
        #: cardinality-estimate lines the lowering itself produced (join
        #: sizes / dims; scan-group estimates live in their decisions)
        self.estimates: list[str] = []
        #: per-node row-estimate memo: joins estimate their inputs during
        #: lowering and plan_pipeline estimates the root afterwards, so
        #: without it each statistics lookup would repeat per walk
        self._row_estimates: dict[int, float] = {}
        #: per-join sampled match-fraction memo (id(node) -> fraction or
        #: None) — computed once, consulted by both the lowering and the
        #: row estimator
        self._match_fractions: dict[int, float | None] = {}

    # -- instrumentation --------------------------------------------------

    def _profiled(
        self,
        operator: Operator,
        node: logical.LogicalPlan,
        *,
        label: str | None = None,
        children: tuple[Operator, ...] = (),
    ) -> Operator:
        """Wrap a lowered operator in a profiling counter when this plan
        carries a runtime profile; transparent otherwise."""
        profile = self.execution.profile
        if profile is None:
            return operator
        entry = profile.operator(
            label if label is not None else node.label(),
            est_rows=self._estimate_rows(node),
            children=[
                child.entry
                for child in children
                if isinstance(child, ProfiledOperator)
            ],
        )
        return ProfiledOperator(operator, entry)

    # -- node dispatch --------------------------------------------------

    def lower(self, node: logical.LogicalPlan) -> Operator | AggregateExecution:
        if isinstance(node, logical.Aggregate):
            child = self._lower_rows(node.child)
            return AggregateExecution(
                child,
                node.kind,
                node.key,
                node.reducer,
                self._minmax_fast(node),
                self._key_columns(node, child),
            )
        return self._lower_rows(node)

    def _key_columns(
        self, node: logical.Aggregate, child: Operator
    ) -> MetadataScan | None:
        """The scan whose columns a metadata-only aggregate folds: the
        aggregate must sit directly on a scan group that lowered to a
        :class:`MetadataScan` (an index path has no columns to offer; a
        Limit or Select in between changes which rows count)."""
        if _aggregate_reads_data(node):
            return None
        scan = _unprofiled(child)
        if not isinstance(scan, MetadataScan) or scan.load_data:
            return None
        read = logical.expr_attrs(scan.expr) if scan.expr is not None else set()
        if node.kind == "count":
            what = "count sums the filter mask"
        else:
            read = read | {node.key.attr}
            what = f"{node.kind}({node.key.attr}) folds the masked key column"
        self.notes.append(
            f"column-fold: {what} of Scan({scan.collection.name}), reading "
            f"columns [{', '.join(sorted(read))}] and materializing 0 rows"
        )
        return scan

    def _minmax_fast(
        self, node: logical.Aggregate
    ) -> Callable[[], tuple[bool, Any]] | None:
        """Zone-map short-circuit for MIN/MAX over an unfiltered scan:
        the segment's per-block statistics already hold every sealed
        block's lo/hi, so the aggregate answers without decoding any
        block. Returns None when ineligible; the returned thunk itself
        reports unhandled (falling back to the operator) when the zones
        cannot prove the bounds — mixed value types, unorderable values.
        """
        if node.kind not in ("min", "max"):
            return None
        if not isinstance(node.key, AttributeKey):
            return None
        if not isinstance(node.child, logical.Scan):
            return None
        try:
            collection = self.optimizer.catalog.collection(
                node.child.collection
            )
        except QueryError:
            return None
        reader = getattr(collection, "attr_min_max", None)
        if reader is None:
            return None
        attr = node.key.attr
        side = 0 if node.kind == "min" else 1
        self.notes.append(
            f"zone-map-minmax: {node.kind}({attr}) eligible to answer from "
            f"segment block statistics without decoding any block"
        )

        def fast() -> tuple[bool, Any]:
            bounds = reader(attr)
            if bounds is None:
                return False, None
            return True, bounds[side]

        return fast

    def _lower_rows(self, node: logical.LogicalPlan) -> Operator:
        if isinstance(node, (logical.Filter, logical.Scan)):
            return self._lower_scan_group(node)
        if isinstance(node, logical.Map):
            return self._lower_map(node)
        if isinstance(node, logical.Project):
            child = self._lower_rows(node.child)
            fetch = _unprofiled(child)
            if (
                isinstance(fetch, (IndexLookupScan, IndexRangeScan, AnnTopKScan))
                and not fetch.load_data
            ):
                # a data-less point fetch directly below: decode only the
                # columns this projection keeps
                fetch.attrs = frozenset(node.attrs) | frozenset(Project.ALWAYS_KEPT)
            return self._profiled(
                Project(child, node.attrs, keep_data=node.keep_data),
                node,
                children=(child,),
            )
        if isinstance(node, logical.Limit):
            child = self._lower_rows(node.child)
            return self._profiled(Limit(child, node.n), node, children=(child,))
        if isinstance(node, logical.OrderBy):
            child = self._lower_rows(node.child)
            key = (
                _distance_key(node.vector_attr or "data", node.vector)
                if node.vector is not None
                else _attr_key(node.attr)
            )
            return self._profiled(
                OrderBy(child, key=key, reverse=node.reverse),
                node,
                children=(child,),
            )
        if isinstance(node, logical.AnnTopK):
            return self._lower_ann_topk(node)
        if isinstance(node, logical.SimilarityJoin):
            return self._lower_similarity_join(node)
        raise QueryError(f"cannot lower logical node {node.label()}")

    # -- scans and filters ----------------------------------------------

    def _lower_scan_group(self, node: logical.LogicalPlan) -> Operator:
        """A maximal Filter* -> Scan chain becomes one access-path
        decision (its structural predicates run on segment columns
        inside the chosen scan); filters over anything else lower to
        plain Selects."""
        filters: list[logical.Filter] = []
        current = node
        while isinstance(current, logical.Filter):
            filters.append(current)
            current = current.child
        if isinstance(current, logical.Scan):
            for f in filters:
                if f.on != 0:
                    raise QueryError(
                        f"filter on patch {f.on} but rows over "
                        f"{current.collection!r} have a single patch"
                    )
            combined = _combine_exprs([f.expr for f in filters])
            operator, explanation = self.optimizer.plan_filter(
                current.collection, combined, load_data=current.load_data
            )
            self.decisions.append(explanation)
            profile = self.execution.profile
            if profile is not None:
                label = f"{current.label()} [{explanation.chosen.kind}]"
                if combined is not None:
                    label = (
                        f"{current.label()} filter {combined!r} "
                        f"[{explanation.chosen.kind}]"
                    )
                entry = profile.operator(
                    label, est_rows=self._estimate_rows(node)
                )
                if combined is not None:
                    try:
                        base_rows = len(
                            self.optimizer.catalog.collection(
                                current.collection
                            )
                        )
                    except QueryError:
                        base_rows = 0
                    version_of = getattr(
                        self.optimizer.catalog, "collection_version", None
                    )
                    entry.set_feedback(
                        current.collection,
                        logical.expr_signature_key(combined),
                        base_rows,
                        version=(
                            version_of(current.collection)
                            if version_of is not None
                            else 0
                        ),
                    )
                if "blocks_total" in explanation.chosen.params:
                    # grade the zone-map skip estimate like a cardinality:
                    # the scan reports (skipped, scanned) actuals into the
                    # entry as it finishes
                    scan = _find_metadata_scan(operator)
                    if scan is not None:
                        scan.on_blocks = entry.add_blocks
                        entry.set_block_estimate(
                            explanation.chosen.params["blocks_skipped"],
                            explanation.chosen.params["blocks_total"],
                        )
                operator = ProfiledOperator(
                    _instrument_scan_group(operator, entry), entry
                )
            return operator
        inner = self._lower_rows(current)
        operator = inner
        for f in reversed(filters):  # innermost logical filter first
            if f.on >= operator.arity:
                raise QueryError(
                    f"filter on patch {f.on} but rows have arity "
                    f"{operator.arity}"
                )
            operator = Select(operator, f.expr, on=f.on)
        if filters:
            operator = self._profiled(operator, node, children=(inner,))
        return operator

    # -- top-k similarity -------------------------------------------------

    def _lower_ann_topk(self, node: logical.AnnTopK) -> Operator:
        """Access-path selection for top-k similarity: an index probe
        (HNSW beam search or BallTree k-NN) when the pattern sits
        directly on a bare scan, exact top-k selection over the lowered
        child otherwise (residual filters make probe results unsound —
        the k nearest overall are not the k nearest *matching* rows)."""
        child = node.child
        dim = len(node.query)
        profile = self.execution.profile
        if isinstance(child, logical.Scan):
            explanation = self.optimizer.plan_topk_similarity(
                child.collection, node.attr, node.k, dim
            )
            self.decisions.append(explanation)
            kind = explanation.chosen.kind
            collection = self.optimizer.catalog.collection(child.collection)
            operator: Operator
            if kind in ("hnsw-ann", "balltree-knn"):
                operator = AnnTopKScan(
                    collection,
                    node.attr,
                    node.query,
                    node.k,
                    "hnsw" if kind == "hnsw-ann" else "balltree",
                    ef=explanation.chosen.params.get("ef"),
                    load_data=child.load_data,
                )
            else:
                operator = AnnTopKExact(
                    CollectionScan(collection, load_data=child.load_data),
                    node.attr,
                    node.query,
                    node.k,
                )
            if profile is not None:
                entry = profile.operator(
                    f"{node.label()} [{kind}]", est_rows=float(node.k)
                )
                if isinstance(operator, AnnTopKScan):
                    if operator.kind == "hnsw":
                        # the cost model's visited count, graded against
                        # the distances the beam actually computed
                        ef = explanation.chosen.params.get("ef", node.k)
                        entry.set_candidate_estimate(
                            float(ef)
                            * float(np.log2(max(len(collection), 2)))
                        )
                    operator.on_search = entry.add_ann
                operator = ProfiledOperator(
                    InputProbe(
                        operator,
                        entry,
                        index_probes=isinstance(operator, AnnTopKScan),
                    ),
                    entry,
                )
            return operator
        inner = self._lower_rows(child)
        return self._profiled(
            AnnTopKExact(inner, node.attr, node.query, node.k),
            node,
            label=f"{node.label()} [exact-topk]",
            children=(inner,),
        )

    # -- maps ------------------------------------------------------------

    def _lower_map(self, node: logical.Map) -> Operator:
        child = self._lower_rows(node.child)
        fn, batch_fn = node.fn, node.batch_fn
        profile = self.execution.profile
        entry: OperatorProfile | None = None
        if profile is not None:
            entry = profile.operator(
                node.label(),
                est_rows=self._estimate_rows(node),
                children=[
                    op.entry
                    for op in (child,)
                    if isinstance(op, ProfiledOperator)
                ],
            )
        if node.cache:
            if self.udf_cache is None:
                raise QueryError(
                    f"map {node.name!r} asks for caching but the planner "
                    f"has no UDF cache"
                )
            # wrapped once: a scalar-only UDF is lifted to a batch
            # function, so every map runs the one batched memo
            batch_fn = self.udf_cache.wrap_batch(
                node.name,
                batch_fn or (lambda patches: [fn(p) for p in patches]),
                identity=fn,
                counters=entry,
            )
            self.notes.append(
                f"memoize-udf: map {node.name!r} memoized by patch lineage id"
            )
        if (
            self.execution.parallel
            and self.execution.prefetch_batches > 0
            and _scan_rooted(child)
        ):
            # bounded prefetch between the storage scan and the first UDF
            # map: the scan's heap reads/decodes for batch i+1 run while
            # the pool infers batch i. Only the innermost map above a
            # scan chain gets one (an outer map's child is a MapPatches,
            # which _scan_rooted rejects), so one plan spawns one
            # prefetch thread, not one per stage.
            child = PrefetchBatches(
                child,
                depth=self.execution.prefetch_batches,
                metrics=self.execution.metrics,
            )
            self.notes.append(
                f"prefetch: storage scan decodes "
                f"{self.execution.prefetch_batches} batches ahead of map "
                f"{node.name!r}"
            )
        operator: Operator = MapPatches(
            child, fn, batch_fn=batch_fn, execution=self.execution
        )
        if entry is not None:
            operator = ProfiledOperator(operator, entry)
        return operator

    # -- joins -----------------------------------------------------------

    def _lower_similarity_join(self, node: logical.SimilarityJoin) -> Operator:
        left_op = self._lower_rows(node.left)
        right_op = self._lower_rows(node.right)
        n_left = max(int(self._estimate_rows(node.left)), 1)
        n_right = max(int(self._estimate_rows(node.right)), 1)
        dim, dim_source = self._join_dim(node)
        match_fraction = self._join_match_fraction(node)
        est_pairs = estimate_join_output(
            n_left,
            n_right,
            dim,
            exclude_self=node.exclude_self,
            match_fraction=match_fraction,
        )
        if match_fraction is not None:
            self.estimates.append(
                f"similarity-join: left ~ {n_left} rows, right ~ {n_right} "
                f"rows, match-fraction {match_fraction:.3f} (sampled "
                f"pairwise distances) -> ~ {est_pairs:.0f} pairs"
            )
        else:
            self.estimates.append(
                f"similarity-join: left ~ {n_left} rows, right ~ {n_right} "
                f"rows, dim {dim} ({dim_source}) -> ~ {est_pairs:.0f} pairs"
            )
        explanation = self.optimizer.plan_similarity_join(n_left, n_right, dim)
        self.decisions.append(explanation)
        features = node.features or _default_features
        kind = explanation.chosen.kind
        operator: Operator
        if kind == "nested-loop":
            operator = NestedLoopJoin(
                left_op,
                right_op,
                _distance_theta(features, node.threshold),
                exclude_self=node.exclude_self,
            )
        elif kind == "balltree-index-left":
            # build on the left, probe with the right, then restore the
            # caller's (left, right) output order
            operator = SwapSides(
                BallTreeSimilarityJoin(
                    right_op,
                    left_op,
                    threshold=node.threshold,
                    features=features,
                    exclude_self=node.exclude_self,
                )
            )
        else:
            operator = BallTreeSimilarityJoin(
                left_op,
                right_op,
                threshold=node.threshold,
                features=features,
                exclude_self=node.exclude_self,
            )
        return self._profiled(
            operator,
            node,
            label=f"{node.label()} [{kind}]",
            children=(left_op, right_op),
        )

    # -- cardinality estimation ------------------------------------------

    def _join_dim(self, node: logical.SimilarityJoin) -> tuple[int, str]:
        return join_dim(self.optimizer, node)

    def _join_match_fraction(self, node: logical.SimilarityJoin) -> float | None:
        """Sampled pairwise match fraction for a default-features join,
        from the sides' recorded vector samples; None keeps the
        geometric-decay constant (memoized per node — the lowering and
        the row estimator both ask)."""
        if id(node) in self._match_fractions:
            return self._match_fractions[id(node)]
        fraction = self._join_match_fraction_uncached(node)
        self._match_fractions[id(node)] = fraction
        return fraction

    def _join_match_fraction_uncached(
        self, node: logical.SimilarityJoin
    ) -> float | None:
        if node.features is not None or node.dim is not None:
            # custom features live in an unrecorded space — the stored
            # patch-data sample says nothing about their distances — and
            # a caller-specified dim is a full manual override
            return None
        left_name = _base_collection(node.left)
        right_name = _base_collection(node.right)
        if left_name is None or right_name is None:
            return None
        left_stats = self.optimizer.collection_statistics(left_name)
        right_stats = self.optimizer.collection_statistics(right_name)
        if left_stats is None or right_stats is None:
            return None
        return sample_match_fraction(
            left_stats.data_sample(),
            right_stats.data_sample(),
            node.threshold,
            # identity pairs leave the sample exactly when they leave the
            # join output (see estimate_join_output)
            same=left_name == right_name and node.exclude_self,
        )

    def _estimate_rows(self, node: logical.LogicalPlan) -> float:
        """Estimated output rows of a logical subtree, statistics-driven
        where the subtree bottoms out at a materialized scan (memoized
        per node for the lifetime of this lowering)."""
        cached = self._row_estimates.get(id(node))
        if cached is not None:
            return cached
        estimate = self._estimate_rows_uncached(node)
        self._row_estimates[id(node)] = estimate
        return estimate

    def _estimate_rows_uncached(self, node: logical.LogicalPlan) -> float:
        if isinstance(node, logical.Scan):
            try:
                return float(
                    len(self.optimizer.catalog.collection(node.collection))
                )
            except QueryError:
                return 1.0
        if isinstance(node, logical.Filter):
            # estimate the maximal Filter chain as one combined predicate
            # (mirroring the scan-group collapse): identical to the
            # per-filter product for the statistics paths (conjunctions
            # multiply there anyway), but it lets a logged feedback
            # correction for the *conjunction* apply as a unit
            filters: list[logical.Filter] = []
            current: logical.LogicalPlan = node
            while isinstance(current, logical.Filter):
                filters.append(current)
                current = current.child
            combined = _combine_exprs([f.expr for f in filters])
            collection = _base_collection(node)
            if collection is not None:
                estimate = self.optimizer.predicate_estimate(
                    collection, combined
                )
            else:
                estimate = fallback_estimate(combined)
            return self._estimate_rows(current) * estimate.selectivity
        if isinstance(node, logical.Limit):
            return min(float(node.n), self._estimate_rows(node.child))
        if isinstance(node, logical.AnnTopK):
            return min(float(node.k), self._estimate_rows(node.child))
        if isinstance(node, logical.SimilarityJoin):
            # output cardinality from input sizes + recorded feature dim
            # (the old code returned the left input's estimate, as if a
            # join never expanded or shrank its input)
            n_left = self._estimate_rows(node.left)
            n_right = self._estimate_rows(node.right)
            dim, _ = self._join_dim(node)
            return estimate_join_output(
                n_left,
                n_right,
                dim,
                exclude_self=node.exclude_self,
                match_fraction=self._join_match_fraction(node),
            )
        children = node.children()
        if not children:
            return 1.0
        return self._estimate_rows(children[0])


def estimate_plan_rows(
    optimizer: Optimizer, node: logical.LogicalPlan
) -> float:
    """Estimated output rows of a logical subtree (the lowering's own
    cardinality model, exposed for tests and benchmarks)."""
    return _Lowering(optimizer, None)._estimate_rows(node)


def join_dim(optimizer: Optimizer, node: logical.SimilarityJoin) -> tuple[int, str]:
    """Feature dimensionality for join costing: the caller's ``dim``,
    else the statistics' recorded embedding dim (default features
    ravel ``patch.data``, so the data profile is the right one),
    else the fixed fallback."""
    if node.dim:
        return node.dim, "caller-specified"
    if node.features is None:
        for side in (node.left, node.right):
            collection = _base_collection(side)
            if collection is None:
                continue
            stats = optimizer.collection_statistics(collection)
            if stats is None:
                continue
            dim = stats.embedding_dim()
            if dim is not None:
                return dim, f"recorded data dim of {collection!r}"
    return DEFAULT_JOIN_DIM, "fallback-constant"


def _scan_rooted(operator: Operator) -> bool:
    """True when a physical chain bottoms out at a storage scan with only
    filters in between — the shape where a prefetch stage buys I/O
    overlap. Anything heavier in between (another map, a join) already
    decouples the scan from the consumer. Profiling wrappers are
    transparent: instrumentation must not change what gets prefetched."""
    current = operator
    while isinstance(current, (Select, ProfiledOperator, InputProbe)):
        current = current.child
    return isinstance(
        current,
        (
            CollectionScan,
            IndexLookupScan,
            IndexRangeScan,
            IteratorScan,
            MetadataScan,
        ),
    )


def _unprofiled(operator: Operator) -> Operator:
    """The lowered operator under its profiling wrappers."""
    while isinstance(operator, (ProfiledOperator, InputProbe)):
        operator = operator.child
    return operator


def _find_metadata_scan(operator: Operator) -> MetadataScan | None:
    """The MetadataScan at the base of a lowered scan group, if any."""
    current: Operator | None = operator
    while current is not None:
        if isinstance(current, MetadataScan):
            return current
        current = getattr(current, "child", None)
    return None


def _instrument_scan_group(
    operator: Operator, entry: "OperatorProfile"
) -> Operator:
    """Insert an :class:`InputProbe` directly above the storage scan at
    the base of a scan group, so the entry's input-row count is what the
    storage layer actually produced — for index-backed scans, the probe
    count. Residual Selects stay above the probe."""
    if isinstance(operator, Select):
        innermost = operator
        while isinstance(innermost.child, Select):
            innermost = innermost.child
        base = innermost.child
        innermost.child = InputProbe(
            base,
            entry,
            index_probes=isinstance(base, (IndexLookupScan, IndexRangeScan)),
        )
        return operator
    return InputProbe(
        operator,
        entry,
        index_probes=isinstance(operator, (IndexLookupScan, IndexRangeScan)),
    )


def _base_collection(node: logical.LogicalPlan) -> str | None:
    """The materialized collection a subtree's rows originate from
    (first-child descent to the underlying Scan), or None for plans
    rooted elsewhere."""
    current: logical.LogicalPlan | None = node
    while current is not None:
        if isinstance(current, logical.Scan):
            return current.collection
        children = current.children()
        current = children[0] if children else None
    return None


def _combine_exprs(exprs: list[Expr]) -> Expr | None:
    if not exprs:
        return None
    if len(exprs) == 1:
        return exprs[0]
    # exprs were collected outermost-first; restore query order
    ordered = list(reversed(exprs))
    return And(*ordered)


def _default_features(patch: Patch) -> np.ndarray:
    data = patch.data
    if data.size == 0:
        # otherwise every 0-dim pair is at distance 0 and the join
        # silently degenerates to a cross product
        raise QueryError(
            f"similarity join default features need patch data, but patch "
            f"{patch.patch_id} has none (was it projected away by a "
            f"select()? pass features=... or keep_data=True)"
        )
    return data


def _distance_key(attr: str, vector: tuple) -> Callable[[Patch], float]:
    """Sort key for ``ORDER BY similarity``: Euclidean distance from the
    patch's vector (under ``attr``, or its data payload) to the query.
    Rows without a comparable vector sort last."""
    query = np.asarray(vector, dtype=np.float64).ravel()

    def key(patch: Patch) -> float:
        value = patch.data if attr == "data" else patch.metadata.get(attr)
        if value is None:
            return float("inf")
        v = np.asarray(value, dtype=np.float64).ravel()
        if v.shape != query.shape:
            return float("inf")
        return float(np.sqrt(((v - query) ** 2).sum()))

    return key


def _attr_key(attr: str) -> Callable[[Patch], Any]:
    missing = object()

    def key(patch: Patch) -> Any:
        value = patch.metadata.get(attr, missing)
        if value is missing:
            raise QueryError(
                f"order_by attribute {attr!r} missing on patch "
                f"{patch.patch_id}"
            )
        return value

    return key


def _distance_theta(
    features: Callable[[Patch], np.ndarray], threshold: float
) -> Callable[[Patch, Patch], bool]:
    def theta(a: Patch, b: Patch) -> bool:
        va = np.asarray(features(a), dtype=np.float64).ravel()
        vb = np.asarray(features(b), dtype=np.float64).ravel()
        return float(np.linalg.norm(va - vb)) <= threshold

    return theta

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

from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core import logical
from repro.core.executor import (
    ExecutionContext,
    PrefetchBatches,
    resolve_execution,
)
from repro.core.metrics import span
from repro.core.operators import (
    AggregateExecution,
    AnnTopKExact,
    AnnTopKScan,
    BallTreeSimilarityJoin,
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
    Select,
    SwapSides,
    instrument,
    vector_distance,
)
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.optimizer import (
    Explanation,
    Optimizer,
    PlanChoice,
)
from repro.core.optimizer.rewriter import (
    aggregate_reads_data,
    apply_metadata_only,
    rewrite,
)
from repro.core.patch import Patch
from repro.core.profile import OperatorProfile
from repro.core.udf import AttributeKey
from repro.core.udf_cache import UDFCache
from repro.errors import QueryError


@runtime_checkable
class ViewMatcher(Protocol):
    """The planner's hook into the materialized-view registry.

    ``apply`` may rewrite plan prefixes into view scans, costing
    recomputation with the planning pass's ``estimator``; it returns the
    (possibly unchanged) plan, explain-trace note lines, and one
    cost-decision :class:`Explanation` per considered view match.
    """

    def apply(
        self,
        plan: logical.LogicalPlan,
        estimator: CardinalityEstimator,
        *,
        allow_stale: bool = False,
    ) -> tuple[logical.LogicalPlan, list[str], list[Explanation]]:
        ...  # pragma: no cover


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
    metrics = optimizer.metrics
    # one estimator for the whole pass: view matching, access paths,
    # joins, batch sizing and the profile's est-rows share its answers
    estimator = optimizer.estimator()
    view_notes: list[str] = []
    view_decisions: list[Explanation] = []
    with span("rewrite"):
        if views is not None:
            plan, view_notes, view_decisions = views.apply(
                plan, estimator, allow_stale=allow_stale
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
    lowering = _Lowering(optimizer, estimator, udf_cache, context)
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
        context, estimator.rows(rewritten)
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
        estimator: CardinalityEstimator,
        udf_cache: UDFCache | None,
        execution: ExecutionContext,
    ) -> None:
        self.optimizer = optimizer
        self.estimator = estimator
        self.udf_cache = udf_cache
        self.execution = execution
        self.decisions: list[Explanation] = []
        #: extra explain-trace lines (one per memoized map; each map node
        #: lowers exactly once, so no dedup is needed)
        self.notes: list[str] = []
        #: cardinality-estimate lines the lowering itself produced (join
        #: sizes / dims; scan-group estimates live in their decisions)
        self.estimates: list[str] = []

    # -- instrumentation --------------------------------------------------

    def _profiled(
        self,
        operator: Operator,
        node: logical.LogicalPlan,
        *,
        label: Callable[[], str] | None = None,
        children: tuple[Operator, ...] = (),
        est_rows: float | None = None,
        scan: Operator | None = None,
        grade: Callable[[OperatorProfile], None] | None = None,
    ) -> Operator:
        """Register a lowered operator with the runtime profile, when
        this plan carries one — the only thing ``explain(analyze=True)``
        changes about lowering. The operator is returned as built: its
        profile entry (labelled ``label()``, by default the node's own
        label; estimated rows from the pass's estimator unless
        ``est_rows`` overrides; child entries from ``children``) is
        attached in place. ``scan`` is the storage scan whose output is
        the entry's *input* rows (the base of a scan group); ``grade``
        records what else the run is graded against on the entry."""
        profile = self.execution.profile
        if profile is not None:
            entry = profile.operator(
                label() if label is not None else node.label(),
                est_rows=self.estimator.rows(node) if est_rows is None else est_rows,
                children=[
                    child.entry for child in children if child.entry is not None
                ],
            )
            if grade is not None:
                grade(entry)
            if scan is not None:
                instrument(scan, entry, as_input=True)
            instrument(operator, entry)
        return operator

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
        self, node: logical.Aggregate, scan: Operator
    ) -> MetadataScan | None:
        """The scan whose columns a metadata-only aggregate folds: the
        aggregate must sit directly on a scan group that lowered to a
        :class:`MetadataScan` (an index path has no columns to offer; a
        Limit or Select in between changes which rows count)."""
        if (
            aggregate_reads_data(node)
            or not isinstance(scan, MetadataScan)
            or scan.load_data
        ):
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
        # the scan below has lowered already, so the collection exists
        reader = self.optimizer.catalog.collection(
            node.child.collection
        ).attr_min_max
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
            if (
                isinstance(child, (IndexLookupScan, IndexRangeScan, AnnTopKScan))
                and not child.load_data
            ):
                # a data-less point fetch directly below: decode only the
                # columns this projection keeps
                child.attrs = frozenset(node.attrs) | frozenset(Project.ALWAYS_KEPT)
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
        filters, current, combined = logical.filter_chain(node)
        if isinstance(current, logical.Scan):
            for f in filters:
                if f.on != 0:
                    raise QueryError(
                        f"filter on patch {f.on} but rows over "
                        f"{current.collection!r} have a single patch"
                    )
            operator, explanation = self.optimizer.plan_filter(
                current.collection,
                combined,
                load_data=current.load_data,
                estimator=self.estimator,
            )
            self.decisions.append(explanation)
            chosen = explanation.chosen
            # residual Selects stay above the storage scan whose output
            # is what the storage layer actually produced
            scan = operator
            while isinstance(scan, Select):
                scan = scan.child

            def label() -> str:
                if combined is None:
                    return f"{current.label()} [{chosen.kind}]"
                return f"{current.label()} filter {combined!r} [{chosen.kind}]"

            def grade(entry: OperatorProfile) -> None:
                if combined is not None:
                    entry.set_feedback(
                        *self.estimator.feedback_key(current.collection, combined)
                    )
                if "blocks_total" in chosen.params:
                    # grade the zone-map skip estimate like a cardinality:
                    # the scan reports (skipped, scanned) actuals into the
                    # entry as it finishes
                    entry.set_block_estimate(
                        chosen.params["blocks_skipped"],
                        chosen.params["blocks_total"],
                    )

            return self._profiled(
                operator, node, label=label, scan=scan, grade=grade
            )
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
                    MetadataScan(collection, load_data=child.load_data),
                    node.attr,
                    node.query,
                    node.k,
                )

            def grade(entry: OperatorProfile) -> None:
                if kind == "hnsw-ann":
                    # the cost model's visited count, graded against
                    # the distances the beam actually computed
                    ef = explanation.chosen.params.get("ef", node.k)
                    entry.set_candidate_estimate(
                        float(ef) * float(np.log2(max(len(collection), 2)))
                    )

            return self._profiled(
                operator,
                node,
                label=lambda: f"{node.label()} [{kind}]",
                est_rows=float(node.k),
                scan=operator,
                grade=grade,
            )
        inner = self._lower_rows(child)
        return self._profiled(
            AnnTopKExact(inner, node.attr, node.query, node.k),
            node,
            label=lambda: f"{node.label()} [exact-topk]",
            children=(inner,),
        )

    # -- maps ------------------------------------------------------------

    def _lower_map(self, node: logical.Map) -> Operator:
        child = self._lower_rows(node.child)
        fn, batch_fn = node.fn, node.batch_fn
        operator = MapPatches(
            child, fn, batch_fn=batch_fn, execution=self.execution
        )
        if node.cache:
            if self.udf_cache is None:
                raise QueryError(
                    f"map {node.name!r} asks for caching but the planner "
                    f"has no UDF cache"
                )
            # wrapped once: a scalar-only UDF is lifted to a batch
            # function, so every map runs the one batched memo
            operator.batch_fn = self.udf_cache.wrap_batch(
                node.name,
                batch_fn or (lambda patches: [fn(p) for p in patches]),
                identity=fn,
                operator=operator,
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
            operator.child = PrefetchBatches(
                child,
                depth=self.execution.prefetch_batches,
                metrics=self.execution.metrics,
            )
            self.notes.append(
                f"prefetch: storage scan decodes "
                f"{self.execution.prefetch_batches} batches ahead of map "
                f"{node.name!r}"
            )
        return self._profiled(operator, node, children=(child,))

    # -- joins -----------------------------------------------------------

    def _lower_similarity_join(self, node: logical.SimilarityJoin) -> Operator:
        left_op = self._lower_rows(node.left)
        right_op = self._lower_rows(node.right)
        join = self.estimator.join(node)
        sizes = f"left ~ {join.n_left} rows, right ~ {join.n_right} rows"
        if join.match_fraction is not None:
            self.estimates.append(
                f"similarity-join: {sizes}, match-fraction "
                f"{join.match_fraction:.3f} (sampled pairwise distances) -> "
                f"~ {join.pairs:.0f} pairs"
            )
        else:
            self.estimates.append(
                f"similarity-join: {sizes}, dim {join.dim} "
                f"({join.dim_source}) -> ~ {join.pairs:.0f} pairs"
            )
        explanation = self.optimizer.plan_similarity_join(
            join.n_left, join.n_right, join.dim
        )
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
            label=lambda: f"{node.label()} [{kind}]",
            children=(left_op, right_op),
        )


def _scan_rooted(operator: Operator) -> bool:
    """True when a physical chain bottoms out at a storage scan with only
    filters in between — the shape where a prefetch stage buys I/O
    overlap. Anything heavier in between (another map, a join) already
    decouples the scan from the consumer."""
    current = operator
    while isinstance(current, Select):
        current = current.child
    return isinstance(
        current,
        (
            IndexLookupScan,
            IndexRangeScan,
            IteratorScan,
            MetadataScan,
        ),
    )


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
    """Sort key for ``ORDER BY similarity``: :func:`vector_distance` to
    the query; rows without a comparable vector sort last."""
    query = np.asarray(vector, dtype=np.float64).ravel()

    def key(patch: Patch) -> float:
        distance = vector_distance(patch, attr, query)
        return float("inf") if distance is None else distance

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

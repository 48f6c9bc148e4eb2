"""The visual query optimizer (Sections 5 and 7.4).

Three decisions, each the subject of one of the paper's experiments:

* **access-path selection** (Figure 4): a metadata-segment scan (filter
  on columns, rows for the survivors) vs hash lookup vs B+ range scan,
  driven by the predicate's conjuncts and the catalog's index registry;
* **similarity-join strategy** (Figures 5/7): nested loop vs Ball-tree
  (and which side to index), using the non-linear cost model;
* **device placement** (Figure 8): CPU/AVX/GPU per kernel profile;
* **accuracy-aware push-down** (Table 1): filter placement around a
  matching operator changes recall, so plans carry accuracy estimates and
  the optimizer exposes both orders with their latency/accuracy trade-off.

Cardinalities come from the planning pass's
:class:`~repro.core.optimizer.cardinality.CardinalityEstimator`, which
reads a :class:`~repro.core.statistics.StatisticsProvider` (by default
the catalog itself) and records which source backed every estimate so
``explain()`` can show est-vs-fallback per decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.catalog import Catalog
from repro.core.executor import ExecutionPlan
from repro.core.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.expressions import Comparison, Expr, conjunction, extract_bounds
from repro.core.logical import expr_attrs
from repro.core.operators import (
    IndexLookupScan,
    IndexRangeScan,
    MetadataScan,
    Operator,
    Select,
)
from repro.core.optimizer.cardinality import CardinalityEstimator
from repro.core.optimizer.cost import CostModel
from repro.core.profile import RuntimeProfile
from repro.core.statistics import (
    EQ_SELECTIVITY,
    NEQ_SELECTIVITY,
    RANGE_SELECTIVITY,
    StatisticsProvider,
)
from repro.errors import OptimizerError
from repro.vision.backends.device import DEVICE_SPECS

__all__ = [
    "EQ_SELECTIVITY",
    "NEQ_SELECTIVITY",
    "RANGE_SELECTIVITY",
    "Explanation",
    "Optimizer",
    "PlanAccuracy",
    "PlanChoice",
]


@dataclass(frozen=True)
class PlanChoice:
    """One considered physical plan with its estimated cost."""

    kind: str
    cost_seconds: float
    params: dict = field(default_factory=dict)
    accuracy: "PlanAccuracy | None" = None

    def __repr__(self) -> str:
        acc = f", accuracy={self.accuracy}" if self.accuracy else ""
        est = ""
        if "est_rows" in self.params:
            source = self.params.get("stat_source", "?")
            est = f", ~{self.params['est_rows']:.0f} rows ({source})"
        zones = ""
        if "blocks_total" in self.params:
            zones = (
                f", skipping {self.params['blocks_skipped']}/"
                f"{self.params['blocks_total']} blocks"
            )
        reads = ""
        if "columns" in self.params:
            reads = f", reading columns [{', '.join(self.params['columns'])}]"
        return (
            f"PlanChoice({self.kind}, {self.cost_seconds:.4g}s"
            f"{est}{zones}{reads}{acc})"
        )


@dataclass(frozen=True)
class PlanAccuracy:
    """Estimated accuracy profile of a plan (Table 1's second axis)."""

    precision: float
    recall: float

    def __repr__(self) -> str:
        return f"(P={self.precision:.2f}, R={self.recall:.2f})"


@dataclass
class Explanation:
    """The optimizer's reasoning: every candidate and the winner.

    For pipeline queries planned through the logical IR, ``rewrites``
    lists the applied logical rewrites (one line each), ``logical_plan``
    holds the rewritten tree rendering, and ``sections`` keeps each
    cost decision (one per scan group / join) intact so readers can see
    which candidate won *within* each decision — the flat ``candidates``
    list pools them all. All three stay empty for direct physical
    planning calls.

    ``estimates`` lists the cardinality estimates the decisions rested
    on, one line each, naming the statistic used (histogram / mcv /
    distinct) or ``fallback-constant`` when no statistics existed.

    ``execution`` is the resolved engine configuration of a pipeline
    plan (an :class:`~repro.core.executor.ExecutionPlan`): worker count,
    the batch size the planner picked (and from what — caller-specified
    vs cardinality estimate vs default), and the prefetch depth. None
    for direct physical planning calls.

    ``profile`` is the executed plan's runtime profile when the query
    ran under ``explain(analyze=True)`` / ``EXPLAIN ANALYZE``: one line
    per physical operator with estimated vs actual rows and the
    Q-error, next to the plan decisions they grade.
    """

    chosen: PlanChoice
    candidates: list[PlanChoice]
    rewrites: list[str] = field(default_factory=list)
    logical_plan: str | None = None
    sections: list["Explanation"] = field(default_factory=list)
    estimates: list[str] = field(default_factory=list)
    execution: ExecutionPlan | None = None
    profile: RuntimeProfile | None = None

    def __str__(self) -> str:
        lines = []
        if self.logical_plan:
            lines.append("logical plan:")
            lines.extend(f"  {line}" for line in self.logical_plan.splitlines())
        if self.rewrites:
            lines.append("applied rewrites:")
            lines.extend(f"  {rewrite}" for rewrite in self.rewrites)
        if self.estimates:
            lines.append("cardinality estimates:")
            lines.extend(f"  {line}" for line in self.estimates)
        if self.execution is not None:
            lines.append(f"execution: {self.execution}")
        if self.sections:
            for number, section in enumerate(self.sections, 1):
                lines.append(f"decision {number}: chosen: {section.chosen}")
                lines.extend(
                    f"  considered: {candidate}"
                    for candidate in section.candidates
                )
        else:
            lines.append(f"chosen: {self.chosen}")
            lines.extend(
                f"  considered: {candidate}" for candidate in self.candidates
            )
        if self.profile is not None:
            lines.extend(str(self.profile).splitlines())
        return "\n".join(lines)


class Optimizer:
    """Cost-based planner over the catalog's collections and indexes.

    ``statistics`` is the :class:`StatisticsProvider` consulted for
    cardinality estimation; it defaults to the catalog itself, which
    collects per-attribute statistics at materialization time.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel | None = None,
        statistics: StatisticsProvider | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.catalog = catalog
        self.cost = cost_model or CostModel()
        self.statistics: StatisticsProvider = (
            statistics if statistics is not None else catalog
        )
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        feedback = self.metrics.counter(
            "deeplens_optimizer_feedback_total",
            "feedback-correction decisions by outcome",
            labels=("outcome",),
        )
        self._metric_feedback_applied = feedback.labels(outcome="applied")
        self._metric_feedback_abstained = feedback.labels(outcome="abstained")

    def estimator(self) -> CardinalityEstimator:
        """A fresh estimator: the one source of row estimates for one
        planning pass (its memo must not outlive the pass)."""
        return CardinalityEstimator(
            self.catalog,
            self.statistics,
            self._metric_feedback_applied,
            self._metric_feedback_abstained,
        )

    # -- access-path selection ----------------------------------------------

    def plan_filter(
        self,
        collection_name: str,
        expr: Expr | None,
        *,
        load_data: bool = True,
        estimator: CardinalityEstimator | None = None,
    ) -> tuple[Operator, Explanation]:
        """Best access path for ``SELECT * FROM collection WHERE expr``.

        One scan candidate: the structural conjuncts of ``expr``
        (comparisons, BETWEEN and their AND/OR/NOT combinations —
        everything but an opaque ``Predicate``; none for a bare scan)
        are evaluated on the metadata segment's columns by
        :class:`~repro.core.operators.MetadataScan`: it decodes only the
        columns they name, block by block, skips the blocks their zone
        maps rule out, and materializes the surviving rows only. Its
        cost is a columns pass plus a per-survivor term:

        * ``load_data=False`` — ``metadata-scan`` builds data-less
          patches for the survivors (no heap reads at all); it is
          labelled ``zone-map-scan``, and costed on the blocks it will
          read, when the zone maps prove some blocks cannot match;
        * ``load_data=True`` — ``late-materialization`` fetches the
          survivors' pixel records by id.

        Index lookups compete with it. An opaque conjunct stays in a
        ``Select`` above whichever path wins. Row estimates come from
        the planning pass's ``estimator``; a direct call is a pass of
        its own.
        """
        estimator = estimator if estimator is not None else self.estimator()
        collection = self.catalog.collection(collection_name)
        n = max(len(collection), 1)
        described = repr(expr) if expr is not None else "scan"

        estimate = estimator.selectivity(collection_name, expr)
        est_rows = estimate.rows(len(collection))
        estimated = {"est_rows": est_rows, "stat_source": estimate.source}
        estimates = [
            f"{collection_name!r}: {described} ~ {est_rows:.0f} of "
            f"{len(collection)} rows ({estimate.source})"
        ]
        structural, columns, opaque = _split_opaque(expr)
        kept, total = collection.metadata_block_stats(structural)
        # rows the scan materializes: an opaque conjunct filters above
        # it, after the fact
        survivors = (
            est_rows
            if opaque is None
            else estimator.selectivity(collection_name, structural).rows(
                len(collection)
            )
        )
        params = {**estimated, "columns": columns}
        if kept < total:
            params.update(blocks_skipped=total - kept, blocks_total=total)
            estimates.append(
                f"{collection_name!r}: zone maps skip {total - kept} "
                f"of {total} blocks for {described}"
            )
        if load_data:
            kind = "late-materialization"
            cost = self.cost.late_materialization(kept, len(columns), survivors)
        else:
            kind = "zone-map-scan" if kept < total else "metadata-scan"
            cost = self.cost.metadata_scan(kept, len(columns), survivors)
        scan: Operator = MetadataScan(collection, structural, load_data=load_data)
        candidates: list[tuple[PlanChoice, Operator]] = [
            (
                PlanChoice(kind, cost, params),
                scan if opaque is None else Select(scan, opaque),
            )
        ]

        if expr is not None:
            candidates.extend(
                self._index_candidates(
                    collection_name, expr, n, load_data, estimator
                )
            )

        candidates.sort(key=lambda pair: pair[0].cost_seconds)
        chosen_choice, chosen_op = candidates[0]
        return chosen_op, Explanation(
            chosen=chosen_choice,
            candidates=[choice for choice, _ in candidates],
            estimates=estimates,
        )

    def _index_candidates(
        self,
        collection_name: str,
        expr: Expr,
        n: int,
        load_data: bool,
        estimator: CardinalityEstimator,
    ) -> list[tuple[PlanChoice, Operator]]:
        collection = self.catalog.collection(collection_name)
        conjuncts = expr.conjuncts()
        out: list[tuple[PlanChoice, Operator]] = []
        for position, conjunct in enumerate(conjuncts):
            rest = [c for i, c in enumerate(conjuncts) if i != position]
            residual = conjunction(rest)
            if isinstance(conjunct, Comparison) and conjunct.op == "==":
                for kind in ("hash", "btree"):
                    if not self.catalog.has_index(collection_name, conjunct.attr, kind):
                        continue
                    scan: Operator = IndexLookupScan(
                        collection, conjunct.attr, conjunct.value, kind,
                        load_data=load_data,
                    )
                    if residual is not None:
                        scan = Select(scan, residual)
                    # expected fetches: the index returns exactly the
                    # rows matching this conjunct
                    eq_estimate = estimator.selectivity(
                        collection_name, conjunct
                    )
                    expected = eq_estimate.rows(n)
                    cost = self.cost.index_point_lookup(expected)
                    out.append(
                        (
                            PlanChoice(
                                f"{kind}-lookup",
                                cost,
                                {
                                    "attr": conjunct.attr,
                                    "value": conjunct.value,
                                    "est_rows": expected,
                                    "stat_source": eq_estimate.source,
                                },
                            ),
                            scan,
                        )
                    )
            lo, hi, bound_residual = extract_bounds(conjunct, _attr_of(conjunct))
            if (lo is not None or hi is not None) and self.catalog.has_index(
                collection_name, _attr_of(conjunct), "btree"
            ):
                attr = _attr_of(conjunct)
                scan = IndexRangeScan(collection, attr, lo, hi, load_data=load_data)
                combined = conjunction([bound_residual, residual])
                if combined is not None:
                    scan = Select(scan, combined)
                range_estimate = estimator.selectivity(
                    collection_name, conjunct
                )
                expected = range_estimate.rows(n)
                cost = self.cost.index_range_scan(expected)
                out.append(
                    (
                        PlanChoice(
                            "btree-range",
                            cost,
                            {
                                "attr": attr,
                                "lo": lo,
                                "hi": hi,
                                "est_rows": expected,
                                "stat_source": range_estimate.source,
                            },
                        ),
                        scan,
                    )
                )
        return out

    # -- similarity-join strategy ---------------------------------------

    def plan_similarity_join(
        self,
        n_left: int,
        n_right: int,
        dim: int,
        *,
        prebuilt_side: str | None = None,
    ) -> Explanation:
        """Choose nested-loop vs Ball-tree and which side to index.

        ``prebuilt_side`` ('left'/'right') marks a side with an existing
        Ball-tree whose build cost is already sunk (Figure 4's "query
        time" view vs Figure 5's end-to-end view).
        """
        if n_left < 1 or n_right < 1 or dim < 1:
            raise OptimizerError(
                f"join cardinalities/dim must be positive, got "
                f"{n_left}, {n_right}, {dim}"
            )
        candidates = [
            PlanChoice(
                "nested-loop", self.cost.nested_loop_join(n_left, n_right, dim)
            ),
            PlanChoice(
                "balltree-index-right",
                self.cost.balltree_join(
                    n_left, n_right, dim, prebuilt=(prebuilt_side == "right")
                ),
                {"build_side": "right"},
            ),
            PlanChoice(
                "balltree-index-left",
                self.cost.balltree_join(
                    n_right, n_left, dim, prebuilt=(prebuilt_side == "left")
                ),
                {"build_side": "left"},
            ),
        ]
        candidates.sort(key=lambda choice: choice.cost_seconds)
        return Explanation(chosen=candidates[0], candidates=candidates)

    # -- top-k similarity access path -----------------------------------

    def plan_topk_similarity(
        self, collection_name: str, attr: str, k: int, dim: int
    ) -> Explanation:
        """Choose the access path for a top-k similarity query: HNSW
        graph probe (approximate — expected recall rides on the
        candidate), prebuilt BallTree k-NN (exact), or an exact
        scan-and-select. Costs come from recorded row counts and the
        embedding dimension; the winner and its expected recall are what
        ``explain()`` shows for ``ORDER BY similarity LIMIT k``.
        """
        from repro.indexes.hnsw import expected_recall

        collection = self.catalog.collection(collection_name)
        n = max(len(collection), 1)
        fetch = k * self.cost.fetch_per_patch
        estimates = [
            f"{collection_name!r}: top-{k} of {n} rows, {dim}-dim embeddings"
        ]
        candidates = [
            PlanChoice(
                "exact-topk-scan",
                n * self.cost.segment_row_materialize
                + n * self.cost.pair_distance(dim)
                + fetch,
                {"rows_compared": n},
                accuracy=PlanAccuracy(precision=1.0, recall=1.0),
            )
        ]
        if self.catalog.has_index(collection_name, attr, "balltree"):
            candidates.append(
                PlanChoice(
                    "balltree-knn",
                    self.cost.balltree_probe(n, dim) + fetch,
                    {"attr": attr},
                    accuracy=PlanAccuracy(precision=1.0, recall=1.0),
                )
            )
        if self.catalog.has_index(collection_name, attr, "hnsw"):
            params = self.catalog.index_params(collection_name, attr, "hnsw")
            ef = max(int(params.get("ef_search", 64)), k)
            recall = expected_recall(ef, k)
            candidates.append(
                PlanChoice(
                    "hnsw-ann",
                    self.cost.hnsw_probe(n, dim, ef) + fetch,
                    {"attr": attr, "ef": ef},
                    accuracy=PlanAccuracy(precision=1.0, recall=recall),
                )
            )
            estimates.append(
                f"{collection_name!r}: hnsw probe at ef={ef} expects "
                f"recall@{k} ~ {recall:.2f}"
            )
        candidates.sort(key=lambda choice: choice.cost_seconds)
        return Explanation(
            chosen=candidates[0], candidates=candidates, estimates=estimates
        )

    # -- device placement -----------------------------------------------

    def plan_device(
        self, flops: float, bytes_moved: int, kernels: int = 1
    ) -> Explanation:
        """Pick the backend minimizing modeled kernel time (Figure 8)."""
        candidates = []
        for name, spec in DEVICE_SPECS.items():
            seconds = flops / spec.flops_per_second
            seconds += kernels * spec.launch_overhead_seconds
            if spec.transfer_bytes_per_second is not None:
                seconds += bytes_moved / spec.transfer_bytes_per_second
                seconds += spec.session_overhead_seconds
            candidates.append(PlanChoice(f"device-{name}", seconds, {"device": name}))
        candidates.sort(key=lambda choice: choice.cost_seconds)
        return Explanation(chosen=candidates[0], candidates=candidates)

    # -- accuracy-aware push-down (Table 1) -------------------------------

    def plan_dedup_filter_placement(
        self,
        *,
        n_patches: int,
        person_fraction: float,
        mislabel_rate: float,
        match_recall: float = 0.9,
        match_precision: float = 0.97,
        dim: int = 64,
    ) -> Explanation:
        """q4's two operator orders with latency *and* accuracy estimates.

        ``Patch, Filter, Match`` pushes the label filter below the match:
        cheaper (matching only the filtered subset) but any true person
        mislabeled by the detector is gone before matching — recall drops
        by roughly the mislabel rate.

        ``Patch, Match, Filter`` matches everything and filters pairs
        afterwards ("at least one person label"): a duplicate pair
        survives unless *both* of its endpoints were mislabeled, so the
        mislabel penalty is squared — higher recall, higher cost.
        """
        if not 0 < person_fraction <= 1:
            raise OptimizerError(
                f"person_fraction must be in (0, 1], got {person_fraction}"
            )
        n_persons = max(int(n_patches * person_fraction), 1)
        push = PlanChoice(
            "filter-then-match",
            self.cost.full_scan(n_patches)
            + self.cost.balltree_join(n_persons, n_persons, dim),
            {"order": ("patch", "filter", "match")},
            accuracy=PlanAccuracy(
                precision=match_precision,
                recall=match_recall * (1.0 - mislabel_rate),
            ),
        )
        late = PlanChoice(
            "match-then-filter",
            self.cost.full_scan(n_patches)
            + self.cost.balltree_join(n_patches, n_patches, dim),
            {"order": ("patch", "match", "filter")},
            accuracy=PlanAccuracy(
                precision=match_precision * (1.0 + mislabel_rate * 0.1),
                recall=match_recall * (1.0 - mislabel_rate**2),
            ),
        )
        # latency order: push-down first; the Explanation keeps both so a
        # caller with an accuracy SLO can pick the slower, better plan
        return Explanation(chosen=push, candidates=[push, late])


def _split_opaque(
    expr: Expr | None,
) -> tuple[Expr | None, list[str], Expr | None]:
    """``expr``'s top-level conjuncts as (those readable off metadata
    columns, the columns they name, those that need whole patches),
    each group re-joined with AND."""
    structural: list[Expr] = []
    opaque: list[Expr] = []
    columns: set[str] = set()
    for conjunct in expr.conjuncts() if expr is not None else ():
        attrs = expr_attrs(conjunct)
        if attrs is None:
            opaque.append(conjunct)
        else:
            structural.append(conjunct)
            columns |= attrs
    return conjunction(structural), sorted(columns), conjunction(opaque)


def _attr_of(expr: Expr) -> str:
    if isinstance(expr, Comparison):
        return expr.attr
    if hasattr(expr, "attr"):
        return expr.attr  # type: ignore[attr-defined]
    return ""


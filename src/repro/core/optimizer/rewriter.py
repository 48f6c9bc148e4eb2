"""Rule-based logical plan rewriter.

Each rule is a local transformation on one node (and its immediate
children); :func:`rewrite` applies the rule set bottom-up until fixpoint
and returns both the rewritten tree and a trace of every applied rewrite,
which :meth:`QueryBuilder.explain` surfaces next to the physical plan
candidates.

The rule menu (the logical half of DeepLens Section 5 / EVA's optimizer):

* ``split-filter-conjuncts`` — an AND-of-conjuncts filter becomes a chain
  of single-conjunct filters so each conjunct can move independently;
* ``pushdown-filter-below-map`` — a filter whose attributes are disjoint
  from a map UDF's declared outputs commutes below the map, so the (cheap)
  predicate prunes rows before the (expensive) inference runs;
* ``pushdown-limit`` — limits slide below projections and one-to-one maps,
  and adjacent limits collapse to the tighter bound;
* ``ann-topk`` — ``Limit(k)`` over ``OrderBy(similarity to a query
  vector)`` collapses into the :class:`~repro.core.logical.AnnTopK`
  node, unlocking index-backed (HNSW / BallTree) access paths instead
  of a full scan-and-sort.

(``cache=True`` maps are memoized at lowering time, where each map node
is visited exactly once; lowering records that in the explain trace.)

One whole-plan pass runs before the rules: :func:`apply_metadata_only`
flips scans whose pixel data nothing above them can observe onto the
metadata segment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.expressions import And
from repro.core.logical import (
    Aggregate,
    AnnTopK,
    Filter,
    Limit,
    LogicalPlan,
    Map,
    OrderBy,
    Project,
    Scan,
    expr_attrs,
)
from repro.core.udf import AttributeKey

#: safety bound on rewrite passes (each pass walks the whole tree)
MAX_PASSES = 32


@dataclass(frozen=True)
class AppliedRewrite:
    """One rewrite the planner performed, for explain() output."""

    rule: str
    description: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.description}"


def rewrite(plan: LogicalPlan) -> tuple[LogicalPlan, list[AppliedRewrite]]:
    """Apply the rule set to fixpoint; returns (new plan, trace)."""
    trace: list[AppliedRewrite] = []
    for _ in range(MAX_PASSES):
        plan, changed = _rewrite_once(plan, trace)
        if not changed:
            break
    return plan, trace


def _rewrite_once(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> tuple[LogicalPlan, bool]:
    """One bottom-up pass; returns (possibly new node, anything changed)."""
    changed = False
    new_children = []
    for child in plan.children():
        new_child, child_changed = _rewrite_once(child, trace)
        new_children.append(new_child)
        changed = changed or child_changed
    if changed:
        plan = plan.with_children(*new_children)
    for rule in (
        _split_filter,
        _pushdown_filter,
        _pushdown_limit,
        _merge_limits,
        _ann_topk,
    ):
        rewritten = rule(plan, trace)
        if rewritten is not None:
            return rewritten, True
    return plan, changed


def _split_filter(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> LogicalPlan | None:
    if not (isinstance(plan, Filter) and isinstance(plan.expr, And)):
        return None
    conjuncts = plan.expr.conjuncts()
    node = plan.child
    # stack so the first conjunct ends up evaluated first (innermost)
    for conjunct in conjuncts:
        node = Filter(node, conjunct, on=plan.on)
    trace.append(
        AppliedRewrite(
            "split-filter-conjuncts",
            f"split {plan.expr!r} into {len(conjuncts)} single-conjunct filters",
        )
    )
    return node


def _pushdown_filter(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> LogicalPlan | None:
    if not (
        isinstance(plan, Filter) and plan.on == 0 and isinstance(plan.child, Map)
    ):
        return None
    map_node = plan.child
    attrs = expr_attrs(plan.expr)
    if attrs is None or map_node.provides is None or attrs & map_node.provides:
        # opaque predicate, a UDF with undeclared outputs, or a
        # predicate reading the UDF's outputs: pushing down would be
        # unsound, keep the filter above the map
        return None
    trace.append(
        AppliedRewrite(
            "pushdown-filter-below-map",
            f"pushed {plan.expr!r} below map {map_node.name!r} "
            f"(predicate does not read its outputs)",
        )
    )
    return replace(map_node, child=Filter(map_node.child, plan.expr))


def _pushdown_limit(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> LogicalPlan | None:
    if not isinstance(plan, Limit):
        return None
    child = plan.child
    if isinstance(child, Project):
        inner: LogicalPlan = Limit(child.child, plan.n)
        trace.append(
            AppliedRewrite(
                "pushdown-limit", f"pushed limit {plan.n} below projection"
            )
        )
        return replace(child, child=inner)
    if isinstance(child, Map) and child.one_to_one:
        inner = Limit(child.child, plan.n)
        trace.append(
            AppliedRewrite(
                "pushdown-limit",
                f"pushed limit {plan.n} below one-to-one map {child.name!r}",
            )
        )
        return replace(child, child=inner)
    return None


def _ann_topk(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> LogicalPlan | None:
    """``Limit(k)`` over ``OrderBy(similarity)`` is the top-k similarity
    pattern: collapse it so lowering can pick an ANN access path."""
    if not (
        isinstance(plan, Limit)
        and isinstance(plan.child, OrderBy)
        and plan.child.vector is not None
        and not plan.child.reverse
        and plan.n > 0
    ):
        return None
    order = plan.child
    trace.append(
        AppliedRewrite(
            "ann-topk",
            f"collapsed ORDER BY similarity LIMIT {plan.n} into a top-{plan.n} "
            f"similarity search on {order.vector_attr!r}",
        )
    )
    return AnnTopK(order.child, order.vector_attr or "data", order.vector, plan.n)


def _merge_limits(
    plan: LogicalPlan, trace: list[AppliedRewrite]
) -> LogicalPlan | None:
    if not (isinstance(plan, Limit) and isinstance(plan.child, Limit)):
        return None
    tighter = min(plan.n, plan.child.n)
    trace.append(
        AppliedRewrite(
            "merge-limits",
            f"collapsed limits {plan.n} and {plan.child.n} to {tighter}",
        )
    )
    return Limit(plan.child.child, tighter)


def aggregate_reads_data(node: Aggregate) -> bool:
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
    plan: LogicalPlan,
) -> tuple[LogicalPlan, list[str]]:
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
        node: LogicalPlan, observed: bool
    ) -> LogicalPlan:
        if isinstance(node, Scan):
            if node.load_data and not observed:
                notes.append(
                    f"metadata-only: nothing above Scan({node.collection}) "
                    f"reads pixel data; scanning the metadata segment "
                    f"instead of the blob heap"
                )
                return replace(node, load_data=False)
            return node
        children = node.children()
        if isinstance(node, Aggregate):
            flags = (aggregate_reads_data(node),)
        elif isinstance(node, Project):
            # data dropped here is invisible above, so the child only
            # needs it when the projection itself keeps it for an observer
            flags = (observed and node.keep_data,)
        elif isinstance(node, Filter):
            # an opaque Predicate may read patch.data; structural
            # comparisons declare their attributes and never do
            flags = (observed or expr_attrs(node.expr) is None,)
        elif isinstance(node, OrderBy):
            # ordering by similarity against the data payload reads pixels
            data_distance = (
                node.vector is not None
                and (node.vector_attr or "data") == "data"
            )
            flags = (observed or data_distance,)
        elif isinstance(node, Limit):
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

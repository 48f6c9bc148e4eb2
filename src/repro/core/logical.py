"""Logical query plan IR.

The fluent :class:`~repro.core.session.QueryBuilder` API builds a tree of
these nodes instead of physical operators. Between the builder and the
physical plan sit two passes:

* the **rewriter** (:mod:`repro.core.optimizer.rewriter`) applies
  rule-based logical rewrites — filter-conjunct splitting, predicate
  push-down below UDF maps, limit push-down, UDF memoization — the
  DeepLens Section 5 story of reordering inference and filters;
* **lowering** (:mod:`repro.core.optimizer.lowering`) turns the rewritten
  tree into physical operators, delegating access-path and join-strategy
  selection to the cost-based :class:`~repro.core.optimizer.Optimizer`.

Nodes are immutable; rewrites produce new trees via :meth:`with_children`.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, fields, replace
from typing import Any, Callable

import numpy as np

from repro.core.expressions import (
    AlwaysTrue,
    And,
    Between,
    Comparison,
    Expr,
    Not,
    Or,
    Predicate,
    conjunction,
)
from repro.core.patch import Patch
from repro.errors import QueryError


def expr_attrs(expr: Expr) -> frozenset[str] | None:
    """The set of metadata attributes an expression reads.

    Returns ``None`` when the set is unknowable (an opaque
    :class:`Predicate` appears anywhere in the tree) — callers must then
    treat the expression as touching *everything*, which blocks push-down.
    """
    if isinstance(expr, (Comparison, Between)):
        return frozenset({expr.attr})
    if isinstance(expr, AlwaysTrue):
        return frozenset()
    if isinstance(expr, (And, Or)):
        out: frozenset[str] = frozenset()
        for child in expr.children:
            child_attrs = expr_attrs(child)
            if child_attrs is None:
                return None
            out |= child_attrs
        return out
    if isinstance(expr, Not):
        return expr_attrs(expr.child)
    if isinstance(expr, Predicate):
        return None
    return None


@dataclass(frozen=True, eq=False)
class LogicalPlan:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return tuple(
            value
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), LogicalPlan)
        )

    def with_children(self, *new_children: "LogicalPlan") -> "LogicalPlan":
        """Copy of this node with its child slots replaced, in field order."""
        updates: dict[str, LogicalPlan] = {}
        position = 0
        for f in fields(self):
            if isinstance(getattr(self, f.name), LogicalPlan):
                if position >= len(new_children):
                    raise QueryError(
                        f"{type(self).__name__}.with_children: too few children"
                    )
                updates[f.name] = new_children[position]
                position += 1
        if position < len(new_children):
            raise QueryError(
                f"{type(self).__name__}.with_children: too many children"
            )
        return replace(self, **updates)

    def label(self) -> str:
        return type(self).__name__

    def describe(self, indent: int = 0) -> str:
        """Indented tree rendering, root first."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class Scan(LogicalPlan):
    """Leaf: read a materialized collection."""

    collection: str
    load_data: bool = True

    def label(self) -> str:
        return f"Scan({self.collection})"


@dataclass(frozen=True, eq=False)
class Filter(LogicalPlan):
    """Keep rows whose ``on``-th patch satisfies ``expr``.

    ``on`` only matters above a join (rows are pairs there); it is 0 —
    the left patch — unless the caller says otherwise.
    """

    child: LogicalPlan
    expr: Expr
    on: int = 0

    def label(self) -> str:
        side = f"[on={self.on}]" if self.on else ""
        return f"Filter{side}{self.expr!r}"


@dataclass(frozen=True, eq=False)
class Map(LogicalPlan):
    """Apply a patch -> patch(es) UDF.

    ``provides`` declares the UDF's metadata contract: it writes exactly
    these attributes and passes every other attribute through unchanged
    (which :meth:`Patch.derive` does naturally) — the promise predicate
    push-down relies on, since a pushed filter reads pre-UDF attributes
    on post-UDF rows. A UDF that builds fresh patches or drops
    attributes must not declare ``provides``. ``None`` (the default)
    means *undeclared*: the UDF may write or drop anything, so no filter
    is pushed below it; an explicit empty set asserts the UDF writes
    nothing and preserves everything. ``batch_fn`` is an optional
    vectorized implementation taking a list of patches and returning one
    result per input. ``one_to_one`` promises the UDF emits exactly one
    patch per input (enables limit push-down); ``cache`` memoizes
    results keyed by patch lineage id (EVA-style inference caching).
    """

    child: LogicalPlan
    fn: Callable[[Patch], Patch | list[Patch] | None]
    name: str = "udf"
    provides: frozenset[str] | None = None
    batch_fn: Callable[[list[Patch]], list[Patch | list[Patch] | None]] | None = None
    one_to_one: bool = False
    cache: bool = False

    def label(self) -> str:
        extras = []
        if self.cache:
            extras.append("cached")
        if self.provides is not None:
            extras.append(f"provides={sorted(self.provides)}")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return f"Map({self.name}){suffix}"


@dataclass(frozen=True, eq=False)
class Project(LogicalPlan):
    """Keep only the listed metadata attributes (and drop pixel data
    unless ``keep_data``)."""

    child: LogicalPlan
    attrs: tuple[str, ...]
    keep_data: bool = False

    def label(self) -> str:
        return f"Project({', '.join(self.attrs)})"


@dataclass(frozen=True, eq=False)
class Limit(LogicalPlan):
    """Emit at most ``n`` rows."""

    child: LogicalPlan
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise QueryError(f"limit must be non-negative, got {self.n}")

    def label(self) -> str:
        return f"Limit({self.n})"


@dataclass(frozen=True, eq=False)
class OrderBy(LogicalPlan):
    """Sort rows by a metadata attribute (pipeline breaker).

    The special attribute ``"similarity"`` orders by distance to a query
    vector: ``vector`` holds the query embedding and ``vector_attr`` the
    metadata attribute (or ``"data"``) the distance is measured against.
    ``OrderBy(similarity) + Limit(k)`` is the top-k similarity pattern
    the rewriter collapses into :class:`AnnTopK` — both the fluent
    ``similarity_search()`` and SQL ``ORDER BY similarity LIMIT k``
    build exactly this shape, so the two frontends share fingerprints.
    """

    child: LogicalPlan
    attr: str
    reverse: bool = False
    vector: tuple[float, ...] | None = None
    vector_attr: str | None = None

    def label(self) -> str:
        direction = " desc" if self.reverse else ""
        if self.vector is not None:
            return (
                f"OrderBy(similarity to {self.vector_attr}"
                f"[{len(self.vector)}d]{direction})"
            )
        return f"OrderBy({self.attr}{direction})"


@dataclass(frozen=True, eq=False)
class AnnTopK(LogicalPlan):
    """The ``k`` rows nearest to ``query`` in ``attr``'s vector space,
    nearest first — the rewriter's collapsed form of
    ``OrderBy(similarity) + Limit(k)``. Lowering picks the access path:
    an HNSW graph probe, a BallTree k-NN, or an exact scan-and-select.
    """

    child: LogicalPlan
    attr: str
    query: tuple[float, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QueryError(f"top-k similarity needs k > 0, got {self.k}")
        if not self.query:
            raise QueryError("top-k similarity needs a non-empty query vector")

    def label(self) -> str:
        return f"AnnTopK(k={self.k}, attr={self.attr})"


@dataclass(frozen=True, eq=False)
class SimilarityJoin(LogicalPlan):
    """Pairs of (left, right) patches within ``threshold`` in feature space."""

    left: LogicalPlan
    right: LogicalPlan
    threshold: float
    features: Callable[[Patch], np.ndarray] | None = None
    dim: int | None = None
    exclude_self: bool = False

    def label(self) -> str:
        return f"SimilarityJoin(threshold={self.threshold})"


#: supported aggregate kinds -> required arguments
AGGREGATE_KINDS = ("count", "distinct_count", "avg", "min", "max", "group")


@dataclass(frozen=True, eq=False)
class Aggregate(LogicalPlan):
    """Terminal reduction over the child's rows.

    ``kind`` is one of :data:`AGGREGATE_KINDS`; ``key`` maps the row's
    first patch to a grouping/dedup key (for ``avg``, to the numeric
    value averaged); ``reducer`` folds each group's row list (group kind
    only).
    """

    child: LogicalPlan
    kind: str
    key: Callable[[Patch], Any] | None = None
    reducer: Callable[[list], Any] = len

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATE_KINDS:
            raise QueryError(
                f"unknown aggregate kind {self.kind!r}; "
                f"expected one of {AGGREGATE_KINDS}"
            )
        if (
            self.kind in ("distinct_count", "avg", "min", "max", "group")
            and self.key is None
        ):
            raise QueryError(f"aggregate kind {self.kind!r} needs a key function")
        # reject arguments the kind would silently ignore — a key on
        # 'count' almost certainly meant 'distinct_count' or 'group'
        if self.kind == "count" and self.key is not None:
            raise QueryError(
                "aggregate kind 'count' takes no key; use 'distinct_count' "
                "or 'group'"
            )
        if self.kind != "group" and self.reducer is not len:
            raise QueryError(
                f"aggregate kind {self.kind!r} takes no reducer; only "
                f"'group' reduces"
            )

    def label(self) -> str:
        return f"Aggregate({self.kind})"


# -- structural fingerprinting ------------------------------------------------
#
# Materialized views (:mod:`repro.core.materialization`) persist the
# fingerprint of their defining plan so the planner can recognize an
# incoming plan whose prefix recomputes a stored view. Fingerprints are
# *structural*: two plans match only if they name the same collections,
# the same predicates (by DSL structure), and the same callables.


def callable_identity(fn: Callable) -> str:
    """A stable identity string for a plan callable (UDF, feature fn).

    Module-level functions identify by ``module.qualname`` plus a digest
    of their bytecode, constants, and defaults — stable across sessions
    (the property persistent view fingerprints and the catalog-backed
    UDF cache rely on) but *changed when the function body changes*, so
    editing a UDF's source invalidates its persisted results and view
    matches instead of silently serving stale outputs. Lambdas,
    closures, and other callables without a stable import path fall
    back to including ``id(fn)``: still a sound identity *within* the
    session (the plan registry keeps registered callables alive, so ids
    cannot be reused by a different function), but never matchable from
    a later session.
    """
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or type(fn).__name__
    if callable_is_portable(fn):
        digest = _callable_code_digest(fn)
        if digest is not None:
            return f"{module}.{qualname}@{digest}"
        return f"{module}.{qualname}"
    return f"{module}.{qualname}#{id(fn)}"


def _callable_code_digest(fn: Callable) -> str | None:
    """Digest of a function's behaviour-bearing parts (bytecode,
    constants — recursing into nested code objects, whose repr embeds a
    memory address — and argument defaults). None for callables without
    Python code (builtins, C extensions): their qualname must suffice."""
    code = getattr(fn, "__code__", None)
    if code is None:
        code = getattr(getattr(fn, "__func__", None), "__code__", None)
    if code is None:
        return None
    digest = hashlib.blake2b(digest_size=8)

    def feed(c) -> None:
        digest.update(c.co_code)
        for const in c.co_consts:
            if isinstance(const, type(c)):
                feed(const)
            else:
                digest.update(repr(const).encode())

    feed(code)
    digest.update(repr(getattr(fn, "__defaults__", None)).encode())
    return digest.hexdigest()


def callable_is_portable(fn: Callable) -> bool:
    """True when ``fn``'s identity survives interpreter restarts (a named
    function importable from a real module path)."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return False
    return "<lambda>" not in qualname and "<locals>" not in qualname


def _expr_signature(expr: Expr | None, *, parameterized: bool = False) -> tuple:
    if expr is None or isinstance(expr, AlwaysTrue):
        return ("true",)
    if isinstance(expr, Comparison):
        value = "?" if parameterized else repr(expr.value)
        return ("cmp", expr.attr, expr.op, value)
    if isinstance(expr, Between):
        if parameterized:
            return ("between", expr.attr, "?", "?")
        return ("between", expr.attr, repr(expr.lo), repr(expr.hi))
    if isinstance(expr, (And, Or)):
        kind = "and" if isinstance(expr, And) else "or"
        return (
            kind,
            tuple(
                _expr_signature(child, parameterized=parameterized)
                for child in expr.children
            ),
        )
    if isinstance(expr, Not):
        return ("not", _expr_signature(expr.child, parameterized=parameterized))
    if isinstance(expr, Predicate):
        return ("pred", expr.name, callable_identity(expr.fn))
    return ("expr", repr(expr))


def expr_signature_key(expr: Expr | None) -> str:
    """A canonical string key for a predicate expression, constants
    included — the exact-shape key the plan-quality feedback loop records
    observed selectivities under."""
    return repr(_expr_signature(expr))


def plan_signature(
    plan: LogicalPlan, *, parameterized: bool = False
) -> tuple:
    """A canonical nested-tuple rendering of a plan's structure.

    Execution details that cannot change a plan's *output* — a map's
    ``batch_fn`` (by contract an equivalent vectorization of ``fn``) and
    its ``cache`` flag — are excluded, so pipelines that differ only in
    how they execute still share a signature.

    With ``parameterized=True`` the literal constants inside predicate
    expressions and join thresholds are replaced by ``"?"`` — the
    prepared-statement view of the plan, under which ``label = 'car'``
    and ``label = 'bus'`` share one signature.
    """
    if isinstance(plan, Scan):
        return ("scan", plan.collection, plan.load_data)
    if isinstance(plan, Filter):
        return (
            "filter",
            plan_signature(plan.child, parameterized=parameterized),
            _expr_signature(plan.expr, parameterized=parameterized),
            plan.on,
        )
    if isinstance(plan, Map):
        return (
            "map",
            plan_signature(plan.child, parameterized=parameterized),
            plan.name,
            callable_identity(plan.fn),
            None if plan.provides is None else tuple(sorted(plan.provides)),
            plan.one_to_one,
        )
    if isinstance(plan, Project):
        return (
            "project",
            plan_signature(plan.child, parameterized=parameterized),
            plan.attrs,
            plan.keep_data,
        )
    if isinstance(plan, Limit):
        return ("limit", plan_signature(plan.child, parameterized=parameterized), plan.n)
    if isinstance(plan, OrderBy):
        if plan.vector is not None:
            return (
                "orderby-similarity",
                plan_signature(plan.child, parameterized=parameterized),
                plan.vector_attr,
                plan.reverse,
                "?" if parameterized else repr(plan.vector),
            )
        return (
            "orderby",
            plan_signature(plan.child, parameterized=parameterized),
            plan.attr,
            plan.reverse,
        )
    if isinstance(plan, AnnTopK):
        return (
            "ann-topk",
            plan_signature(plan.child, parameterized=parameterized),
            plan.attr,
            plan.k,
            "?" if parameterized else repr(plan.query),
        )
    if isinstance(plan, SimilarityJoin):
        return (
            "simjoin",
            plan_signature(plan.left, parameterized=parameterized),
            plan_signature(plan.right, parameterized=parameterized),
            "?" if parameterized else repr(plan.threshold),
            None if plan.features is None else callable_identity(plan.features),
            plan.dim,
            plan.exclude_self,
        )
    if isinstance(plan, Aggregate):
        return (
            "aggregate",
            plan_signature(plan.child, parameterized=parameterized),
            plan.kind,
            None if plan.key is None else callable_identity(plan.key),
            callable_identity(plan.reducer),
        )
    raise QueryError(f"cannot fingerprint logical node {plan.label()}")


def plan_fingerprint(plan: LogicalPlan) -> str:
    """Hex digest of :func:`plan_signature` — the persistable form."""
    payload = repr(plan_signature(plan)).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def plan_parameterized_fingerprint(plan: LogicalPlan) -> str:
    """Hex digest of the *parameterized* plan signature (literals
    stripped) — the key the :class:`~repro.core.profile.PlanQualityLog`
    groups estimate/actual history under."""
    payload = repr(plan_signature(plan, parameterized=True)).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def plan_is_portable(plan: LogicalPlan) -> bool:
    """True when every callable in the plan has a session-independent
    identity, so its fingerprint can match plans built in later sessions."""
    portable = True

    def visit(node: LogicalPlan) -> None:
        nonlocal portable
        for attr in ("fn", "features", "key", "reducer"):
            value = getattr(node, attr, None)
            if callable(value) and value is not len and not callable_is_portable(value):
                portable = False
        if isinstance(node, Filter):
            for leaf in _predicate_leaves(node.expr):
                if not callable_is_portable(leaf.fn):
                    portable = False
        for child in node.children():
            visit(child)

    visit(plan)
    return portable


def _predicate_leaves(expr: Expr) -> list[Predicate]:
    if isinstance(expr, Predicate):
        return [expr]
    if isinstance(expr, (And, Or)):
        return [leaf for child in expr.children for leaf in _predicate_leaves(child)]
    if isinstance(expr, Not):
        return _predicate_leaves(expr.child)
    return []


def scanned_collections(plan: LogicalPlan) -> list[str]:
    """Every materialized collection a plan reads, in scan order —
    a view's *lineage*: the bases whose mutations invalidate it."""
    out: list[str] = []
    if isinstance(plan, Scan):
        out.append(plan.collection)
    for child in plan.children():
        for name in scanned_collections(child):
            if name not in out:
                out.append(name)
    return out


def filter_chain(
    node: LogicalPlan,
) -> tuple[list[Filter], LogicalPlan, Expr | None]:
    """A maximal ``Filter*`` chain as (its filters outermost first, the
    node underneath, their predicates ANDed in query order) — the unit
    both access-path selection and estimation treat as one predicate, so
    a logged feedback correction for the *conjunction* applies whole."""
    filters: list[Filter] = []
    while isinstance(node, Filter):
        filters.append(node)
        node = node.child
    return filters, node, conjunction([f.expr for f in reversed(filters)])


def base_collection(node: LogicalPlan) -> str | None:
    """The materialized collection a subtree's rows originate from
    (first-child descent to the underlying Scan), or None for plans
    rooted elsewhere."""
    current: LogicalPlan | None = node
    while current is not None:
        if isinstance(current, Scan):
            return current.collection
        children = current.children()
        current = children[0] if children else None
    return None

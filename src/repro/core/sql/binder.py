"""The LensQL binder: resolve names, lower the AST onto the logical IR.

The binder is deliberately thin: it resolves collection/view/UDF names
against the session's catalog and UDF registry, then builds the plan
through the *fluent* :class:`~repro.core.session.QueryBuilder` — the
same calls a Python caller would make, in the same canonical order
(scan -> UDF maps -> one filter per WHERE conjunct -> order -> limit ->
projection). Equivalent SQL and fluent queries therefore produce
structurally identical logical plans — same ``plan_fingerprint``, same
rewrites, same cost decisions, same view matches — because they *are*
the same plans, not merely equivalent ones.

Name-resolution failures raise :class:`~repro.errors.BindError` carrying
the offending AST node's source position and a caret-annotated excerpt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Union

from repro.core import logical
from repro.core.catalog import INDEX_KINDS
from repro.core.expressions import (
    And,
    Between,
    Comparison,
    Expr,
    Not,
    Or,
)
from repro.core.sql import ast
from repro.core.udf import UDFDefinition, attribute_key
from repro.errors import BindError, QueryError

if TYPE_CHECKING:  # circular at runtime: session imports this module
    from repro.core.optimizer import Explanation
    from repro.core.session import DeepLens, QueryBuilder

#: WHERE sides above a similarity join -> Filter.on positions
_SIDES = {"left": 0, "right": 1}


# -- bound statements ---------------------------------------------------------


@dataclass
class BoundSelect:
    """A bound SELECT: the pipeline builder plus any terminal aggregate."""

    session: "DeepLens"
    builder: "QueryBuilder"
    statement: ast.Select
    #: (logical aggregate kind, key callable) for aggregate selects
    aggregate: tuple[str, Callable | None] | None = None
    #: row arity the pipeline yields (2 after a similarity join)
    arity: int = 1

    def logical_plan(self) -> logical.LogicalPlan:
        plan = self.builder.logical_plan()
        if self.aggregate is not None:
            kind, key = self.aggregate
            plan = logical.Aggregate(plan, kind, key=key)
        return plan

    def plan_fingerprint(self) -> str:
        return logical.plan_fingerprint(self.logical_plan())

    def explain(self, *, analyze: bool = False) -> "Explanation":
        if self.aggregate is not None:
            kind, key = self.aggregate
            return self.builder.aggregate_explain(kind, key=key, analyze=analyze)
        return self.builder.explain(analyze=analyze)

    def execute(self) -> Any:
        if self.aggregate is not None:
            kind, key = self.aggregate
            return self.builder.aggregate(kind, key=key)
        if self.arity == 1:
            return self.builder.patches()
        return self.builder.rows()


@dataclass
class BoundExplain:
    select: BoundSelect
    analyze: bool = False

    def execute(self) -> "Explanation":
        return self.select.explain(analyze=self.analyze)


@dataclass
class BoundCreateView:
    session: "DeepLens"
    name: str
    select: BoundSelect
    replace: bool = False

    def execute(self):
        return self.session.materialize_view(
            self.name, self.select.builder, replace=self.replace
        )


@dataclass
class BoundRefreshView:
    session: "DeepLens"
    name: str
    select: BoundSelect | None = None

    def execute(self):
        query = self.select.builder if self.select is not None else None
        return self.session.refresh_view(self.name, query)


@dataclass
class BoundDropView:
    session: "DeepLens"
    name: str

    def execute(self) -> None:
        self.session.drop_view(self.name)


@dataclass
class BoundCreateIndex:
    session: "DeepLens"
    collection: str
    attr: str
    kind: str
    params: dict | None = None

    def execute(self):
        return self.session.create_index(
            self.collection, self.attr, self.kind, params=self.params
        )


@dataclass
class BoundShow:
    session: "DeepLens"
    what: str
    target: str | None = None

    def execute(self) -> list[dict]:
        if self.what == "collections":
            catalog = self.session.catalog
            return [
                {
                    "name": name,
                    "rows": len(catalog.collection(name)),
                    "version": catalog.collection_version(name),
                }
                for name in catalog.collections()
            ]
        if self.what == "views":
            manager = self.session.materialization
            out = []
            for name in manager.views():
                definition = manager.view(name)
                out.append(
                    {
                        "name": name,
                        "rows": definition.row_count,
                        "stale": manager.is_stale(name),
                        "portable": definition.portable,
                        "fingerprint": definition.fingerprint,
                    }
                )
            return out
        if self.what == "indexes":
            catalog = self.session.catalog
            return [
                {
                    "collection": collection,
                    "attr": attr,
                    "kind": kind,
                    "params": catalog.index_params(collection, attr, kind),
                    "rows": len(catalog.collection(collection)),
                }
                for collection, attr, kind in sorted(catalog.indexes())
            ]
        if self.what == "metrics":
            snapshot = self.session.metrics_registry.snapshot()
            out = []
            for series, value in sorted(snapshot["counters"].items()):
                out.append({"metric": series, "type": "counter", "value": value})
            for series, value in sorted(snapshot["gauges"].items()):
                out.append({"metric": series, "type": "gauge", "value": value})
            for series, summary in sorted(snapshot["histograms"].items()):
                for suffix in ("count", "sum", "p50", "p95", "p99"):
                    out.append(
                        {
                            "metric": f"{series}_{suffix}",
                            "type": "histogram",
                            "value": summary[suffix],
                        }
                    )
            return out
        if self.what == "slow_queries":
            return [dict(entry) for entry in self.session.slow_query_log().entries()]
        stats = self.session.catalog.statistics_for(self.target)
        if stats is None:
            return []
        out = [
            {
                "attr": name,
                "count": attr_stats.count,
                "nulls": attr_stats.null_count,
                "distinct": round(attr_stats.distinct_estimate(), 1),
                "min": attr_stats.min_value,
                "max": attr_stats.max_value,
                "dim": attr_stats.dim,
            }
            for name, attr_stats in sorted(stats.attrs.items())
        ]
        return out


BoundStatement = Union[
    BoundSelect,
    BoundExplain,
    BoundCreateView,
    BoundRefreshView,
    BoundDropView,
    BoundCreateIndex,
    BoundShow,
]


# -- the binder ---------------------------------------------------------------


class Binder:
    """Bind parsed LensQL statements against one session.

    ``query_vector``/``vector_attr`` carry the probe vector an ``ORDER
    BY SIMILARITY`` clause binds against — vectors have no literal
    syntax, so the caller passes them beside the statement text
    (:meth:`DeepLens.sql` forwards its keyword arguments here).
    """

    def __init__(
        self,
        session: "DeepLens",
        source: str = "",
        *,
        query_vector: Any = None,
        vector_attr: str | None = None,
    ) -> None:
        self.session = session
        self.source = source
        self.query_vector = query_vector
        self.vector_attr = vector_attr

    # -- plumbing --------------------------------------------------------

    def _error(self, message: str, node: ast.Node) -> BindError:
        line, column = node.pos
        return BindError(
            message, source=self.source, line=line, column=column
        )

    def _collection(self, name: str, node: ast.Node) -> str:
        known = self.session.catalog.collections()
        if name not in known:
            raise self._error(
                f"unknown collection or view {name!r}; have {known}", node
            )
        return name

    def _udf(self, name: str, node: ast.Node) -> UDFDefinition:
        try:
            return self.session.udfs.get(name)
        except QueryError as exc:
            raise self._error(str(exc), node) from None

    def _view(self, name: str, node: ast.Node) -> str:
        views = self.session.views()
        if name not in views:
            raise self._error(
                f"no materialized view {name!r}; have {views}", node
            )
        return name

    # -- statements ------------------------------------------------------

    def bind(self, statement: ast.Statement) -> BoundStatement:
        if isinstance(statement, ast.Select):
            return self.bind_select(statement)
        if isinstance(statement, ast.Explain):
            return BoundExplain(
                self.bind_select(statement.select), analyze=statement.analyze
            )
        if isinstance(statement, ast.CreateView):
            select = self._bind_view_select(statement.select)
            return BoundCreateView(
                self.session, statement.name, select, statement.replace
            )
        if isinstance(statement, ast.RefreshView):
            self._view(statement.name, statement)
            select = (
                self._bind_view_select(statement.select)
                if statement.select is not None
                else None
            )
            return BoundRefreshView(self.session, statement.name, select)
        if isinstance(statement, ast.DropView):
            self._view(statement.name, statement)
            return BoundDropView(self.session, statement.name)
        if isinstance(statement, ast.CreateIndex):
            self._collection(statement.collection, statement)
            # like keywords, index kinds are case-insensitive
            kind = statement.kind.lower()
            if kind not in INDEX_KINDS:
                raise self._error(
                    f"unknown index kind {statement.kind!r}; expected one "
                    f"of {INDEX_KINDS}",
                    statement,
                )
            params: dict[str, int | float] = {}
            for name, value in statement.params:
                if name in params:
                    raise self._error(
                        f"duplicate index parameter {name!r}", statement
                    )
                params[name] = value
            return BoundCreateIndex(
                self.session,
                statement.collection,
                statement.attr,
                kind,
                params or None,
            )
        if isinstance(statement, ast.Show):
            target = None
            if statement.what == "stats":
                target = self._collection(statement.target or "", statement)
            return BoundShow(self.session, statement.what, target)
        raise QueryError(
            f"cannot bind statement {type(statement).__name__}"
        )  # pragma: no cover - the parser only produces the types above

    def _bind_view_select(self, select: ast.Select) -> BoundSelect:
        """Bind a view's defining select (CREATE/REFRESH ... AS): only
        arity-1, non-aggregate pipelines define patch collections."""
        bound = self.bind_select(select)
        if bound.aggregate is not None:
            raise self._error(
                "aggregates produce scalars, not patch collections; "
                "materialize the pipeline below the aggregate instead",
                select,
            )
        if bound.arity != 1:
            raise self._error(
                "only arity-1 pipelines can be materialized as views; "
                "materialize a join's sides separately",
                select,
            )
        return bound

    # -- SELECT ----------------------------------------------------------

    def bind_select(self, select: ast.Select) -> BoundSelect:
        aggregate = self._aggregate_of(select)
        joined = select.join is not None
        if joined and aggregate is not None and aggregate[0] != "count":
            # attribute aggregates read the row's first patch, which is
            # only the pair's left side here — a plausible-looking but
            # side-truncated number; COUNT(*) (pair count) stays valid
            raise self._error(
                "only COUNT(*) can aggregate similarity-join pairs; "
                "AVG/COUNT(DISTINCT) over pair rows is not supported yet",
                select.items[0],
            )
        if select.metadata_only and joined:
            # join features default to patch.data, and a feature UDF gets
            # data-less patches — either way the pairing would be garbage
            raise self._error(
                "METADATA ONLY scans carry no pixel data to join on; "
                "drop METADATA ONLY or join over full scans",
                select.join,
            )
        builder = self.session.scan(
            self._collection(select.source.name, select.source),
            load_data=not select.metadata_only,
        )

        # UDF maps, in select-list order, below everything else
        for item in select.items:
            if isinstance(item, ast.UdfCall):
                if joined:
                    raise self._error(
                        "UDF calls are not supported in similarity-join "
                        "selects (rows are pairs); join over a subquery "
                        "that applies the UDF instead",
                        item,
                    )
                if select.metadata_only:
                    raise self._error(
                        f"UDF {item.name!r} would run over data-less "
                        f"patches under METADATA ONLY; drop one of the two",
                        item,
                    )
                self._udf(item.name, item)
                builder = builder.map(item.name)

        if select.join is not None:
            builder = self._bind_join(builder, select.join)

        for conjunct in self._conjuncts(select.where):
            side = self._side_of(conjunct, joined)
            builder = builder.filter(self._lower(conjunct), on=side)

        if aggregate is not None and (
            select.order_by is not None or select.limit is not None
        ):
            # SQL applies ORDER BY/LIMIT to the *result* rows, where they
            # are no-ops over one scalar; lowering them into the pipeline
            # would silently truncate the aggregate's input instead
            raise self._error(
                "ORDER BY/LIMIT have no effect on an aggregate's single "
                "result row and are not lowered into its input; drop them",
                select.order_by if select.order_by is not None else select,
            )
        if select.order_by is not None:
            if joined:
                # same ambiguity as unqualified WHERE attributes: the
                # OrderBy operator would silently sort by the left patch
                raise self._error(
                    "ORDER BY above a similarity join would sort pair "
                    "rows by the left side only; order the results in "
                    "the caller instead",
                    select.order_by,
                )
            if select.order_by.similarity:
                # ORDER BY SIMILARITY LIMIT k is one unit: the builder's
                # similarity_search appends both nodes, which the
                # rewriter collapses into an ANN top-k
                builder = self._similarity_order(builder, select)
            else:
                builder = builder.order_by(
                    select.order_by.attr, reverse=select.order_by.desc
                )
        if select.limit is not None and not (
            select.order_by is not None and select.order_by.similarity
        ):
            builder = builder.limit(select.limit)

        attrs = self._projection(select, joined, aggregate is not None)
        if attrs:
            builder = builder.select(*attrs)

        return BoundSelect(
            self.session,
            builder,
            select,
            aggregate=aggregate,
            arity=2 if joined else 1,
        )

    def _similarity_order(
        self, builder: "QueryBuilder", select: ast.Select
    ) -> "QueryBuilder":
        """Lower ``ORDER BY SIMILARITY LIMIT k`` onto the builder's
        :meth:`~repro.core.session.QueryBuilder.similarity_search` — the
        same two logical nodes the fluent call appends, so both
        frontends produce fingerprint-identical ANN top-k plans."""
        spec = select.order_by
        assert spec is not None
        if spec.desc:
            raise self._error(
                "ORDER BY SIMILARITY is nearest-first; DESC (farthest-"
                "first) is not supported",
                spec,
            )
        if select.limit is None:
            raise self._error(
                "ORDER BY SIMILARITY needs a LIMIT (the top-k bound the "
                "ANN access path answers)",
                spec,
            )
        if self.query_vector is None:
            raise self._error(
                "ORDER BY SIMILARITY needs a probe vector; pass "
                "query_vector= (and optionally vector_attr=) to sql()",
                spec,
            )
        return builder.similarity_search(
            self.query_vector, select.limit, attr=self.vector_attr
        )

    def _aggregate_of(
        self, select: ast.Select
    ) -> tuple[str, Callable | None] | None:
        calls = [
            item for item in select.items if isinstance(item, ast.AggregateCall)
        ]
        if not calls:
            return None
        if len(select.items) > 1:
            raise self._error(
                "an aggregate must be the only select item", calls[0]
            )
        call = calls[0]
        if call.kind == "count":
            return ("count", None)
        # validate the aggregate's attribute when the catalog profiled
        # the collection (statistics observe every metadata key), so a
        # typo fails here with a position instead of as a KeyError
        # mid-execution; unprofiled collections stay permissive
        stats = self.session.catalog.statistics_for(select.source.name)
        if stats is not None and stats.attrs:
            attr_stats = stats.attrs.get(call.attr)
            if attr_stats is None:
                raise self._error(
                    f"unknown attribute {call.attr!r} on "
                    f"{select.source.name!r}; have {sorted(stats.attrs)}",
                    call,
                )
            if (
                call.kind == "avg"
                and attr_stats.count > 0
                and attr_stats.numeric_count == 0
            ):
                raise self._error(
                    f"AVG needs a numeric attribute, but no observed "
                    f"value of {call.attr!r} on {select.source.name!r} "
                    f"is numeric",
                    call,
                )
        return (call.kind, attribute_key(call.attr or ""))

    def _bind_join(
        self, builder: "QueryBuilder", join: ast.SimilarityJoinClause
    ) -> "QueryBuilder":
        if isinstance(join.right, ast.TableRef):
            right: "QueryBuilder | str" = self.session.scan(
                self._collection(join.right.name, join.right)
            )
        else:
            bound = self.bind_select(join.right)
            if bound.aggregate is not None or bound.arity != 1:
                raise self._error(
                    "a similarity join's right side must be an arity-1 "
                    "pipeline (no aggregates or nested joins)",
                    join.right,
                )
            right = bound.builder
        features = None
        if join.on is not None:
            features = self._udf(join.on, join).fn
        builder = builder.similarity_join(
            right,
            threshold=join.threshold,
            features=features,
            dim=join.dim,
            exclude_self=join.exclude_self,
        )
        if join.top is not None:
            builder = builder.limit(join.top)
        return builder

    def _projection(
        self, select: ast.Select, joined: bool, aggregated: bool
    ) -> tuple[str, ...]:
        stars = [item for item in select.items if isinstance(item, ast.Star)]
        if stars:
            # `SELECT *, udf()` applies the map but projects nothing —
            # the fluent `scan(...).map(...)` shape; mixing * with named
            # attributes is ambiguous and rejected
            others = [
                item
                for item in select.items
                if not isinstance(item, (ast.Star, ast.UdfCall))
            ]
            if others or len(stars) > 1:
                raise self._error(
                    "SELECT * can only be combined with UDF calls",
                    stars[0],
                )
            return ()
        if aggregated:
            return ()
        if joined:
            raise self._error(
                "similarity-join selects must use SELECT * (rows are "
                "(left, right) pairs; projection of pair rows is not "
                "supported yet)",
                select.items[0],
            )
        attrs: list[str] = []
        for item in select.items:
            if isinstance(item, ast.ColumnRef):
                if item.side is not None:
                    raise self._error(
                        f"side-qualified attribute "
                        f"{item.side}.{item.name} outside a similarity join",
                        item,
                    )
                attrs.append(item.name)
            elif isinstance(item, ast.UdfCall):
                provides = self._udf(item.name, item).provides
                if provides is None:
                    raise self._error(
                        f"UDF {item.name!r} declares no provides; its "
                        f"outputs cannot be projected — use SELECT * or "
                        f"register it with provides={{...}}",
                        item,
                    )
                attrs.extend(sorted(provides))
        return tuple(attrs)

    # -- WHERE -----------------------------------------------------------

    def _conjuncts(self, where: ast.SqlExpr | None) -> list[ast.SqlExpr]:
        """Flatten top-level ANDs: one Filter node per conjunct, the
        rewriter's normal form and the chained-``filter`` fluent idiom."""
        if where is None:
            return []
        if isinstance(where, ast.And):
            out: list[ast.SqlExpr] = []
            for child in where.children:
                out.extend(self._conjuncts(child))
            return out
        return [where]

    def _side_of(self, conjunct: ast.SqlExpr, joined: bool) -> int:
        sides: set[str] = set()
        first_ref: list[ast.ColumnRef] = []

        def visit(node: ast.SqlExpr) -> None:
            if isinstance(node, (ast.And, ast.Or)):
                for child in node.children:
                    visit(child)
            elif isinstance(node, ast.Not):
                visit(node.child)
            else:
                column = node.column  # type: ignore[union-attr]
                if not first_ref:
                    first_ref.append(column)
                if column.side is not None:
                    if column.side not in _SIDES:
                        raise self._error(
                            f"unknown join side {column.side!r}; "
                            f"use left.attr or right.attr",
                            column,
                        )
                    if not joined:
                        raise self._error(
                            f"side-qualified attribute {column.side}."
                            f"{column.name} outside a similarity join",
                            column,
                        )
                    sides.add(column.side)

        visit(conjunct)
        if len(sides) > 1:
            raise self._error(
                "a WHERE conjunct above a similarity join must reference "
                "one side only; split it into separate conjuncts",
                first_ref[0] if first_ref else conjunct,
            )
        if joined and not sides:
            # rows are (left, right) pairs here: silently picking a side
            # would filter half the pair and look like wrong results
            raise self._error(
                "WHERE attributes above a similarity join are ambiguous; "
                "qualify them as left.attr or right.attr",
                first_ref[0] if first_ref else conjunct,
            )
        return _SIDES[sides.pop()] if sides else 0

    def _lower(self, expr: ast.SqlExpr) -> Expr:
        if isinstance(expr, ast.Comparison):
            return Comparison(expr.column.name, expr.op, expr.value.value)
        if isinstance(expr, ast.Between):
            try:
                return Between(
                    expr.column.name, expr.lo.value, expr.hi.value
                )
            except QueryError as exc:
                raise self._error(str(exc), expr) from None
        if isinstance(expr, ast.InList):
            return Comparison(
                expr.column.name,
                "in",
                tuple(item.value for item in expr.items),
            )
        if isinstance(expr, ast.Contains):
            return Comparison(expr.column.name, "contains", expr.needle.value)
        if isinstance(expr, ast.Not):
            return Not(self._lower(expr.child))
        if isinstance(expr, ast.And):
            return And(*[self._lower(child) for child in expr.children])
        if isinstance(expr, ast.Or):
            return Or(*[self._lower(child) for child in expr.children])
        raise QueryError(
            f"cannot lower expression {type(expr).__name__}"
        )  # pragma: no cover - the parser only produces the types above

"""LensQL frontend tests: lexer, parser, binder, and SQL/fluent equivalence.

The load-bearing properties:

* **round-trip** — generated AST -> ``to_sql()`` -> ``parse`` -> the same
  AST, and binding both yields the same ``plan_fingerprint`` (Hypothesis);
* **equivalence** — the quickstart queries written in SQL and with the
  fluent builder produce identical ``explain()`` output, identical plan
  fingerprints, and identical rows;
* **positioned errors** — every lexer/parser/binder failure is a
  :class:`ParseError` / :class:`BindError` carrying line/column and a
  caret-annotated excerpt, never a bare ValueError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Attr, DeepLens, attribute_key
from repro.core.expressions import Comparison
from repro.core.patch import Patch
from repro.core.sql import ast, parse, tokenize
from repro.core.sql.lexer import EOF, IDENT, KEYWORD, NUMBER, STRING
from repro.core.statistics import EQ_SELECTIVITY, fallback_estimate
from repro.errors import BindError, ParseError, QueryError


def tint(patch):
    """Module-level test UDF (portable identity, like real model UDFs)."""
    return patch.derive(
        patch.data, "tint", tint=float(patch.data.mean()) * 0.5
    )


def vecfeat(patch):
    """Feature extractor for ON clauses: a 2-d point per patch."""
    return np.array([float(patch["score"]) % 5.0, 0.0])


def make_patches(n=30):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 7, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        patch.metadata["tag"] = ("fast", "red") if i % 5 == 0 else ("slow",)
        yield patch


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    with DeepLens(tmp_path_factory.mktemp("sql-db")) as session:
        session.materialize(make_patches(), "c")
        session.register_udf(
            "tint", tint, provides={"tint"}, one_to_one=True, cache=True
        )
        session.register_udf("vecfeat", vecfeat)
        yield session


# -- lexer ---------------------------------------------------------------------


class TestLexer:
    def test_token_stream_and_positions(self):
        tokens = tokenize("SELECT label\nFROM c")
        kinds = [(t.type, t.value) for t in tokens]
        assert kinds == [
            (KEYWORD, "SELECT"),
            (IDENT, "label"),
            (KEYWORD, "FROM"),
            (IDENT, "c"),
            (EOF, ""),
        ]
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[2].line, tokens[2].column) == (2, 1)
        assert (tokens[3].line, tokens[3].column) == (2, 6)

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].value == "SELECT"
        assert tokenize("SeLeCt")[0].value == "SELECT"

    def test_string_escapes_and_numbers(self):
        tokens = tokenize("'it''s' 3 2.5 1e-3")
        assert tokens[0].type == STRING and tokens[0].value == "it's"
        assert tokens[1].number == 3 and isinstance(tokens[1].number, int)
        assert tokens[2].number == 2.5
        assert tokens[3].number == pytest.approx(1e-3)

    def test_quoted_identifier_and_comment(self):
        tokens = tokenize('"select" -- a comment\nx')
        assert tokens[0].type == IDENT and tokens[0].value == "select"
        assert tokens[1].value == "x"

    def test_unterminated_string_has_position(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("SELECT 'oops")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 8
        assert "^" in str(excinfo.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("SELECT @")

    def test_number_token_carries_value(self):
        assert tokenize("42")[0].type == NUMBER


# -- parser --------------------------------------------------------------------


class TestParser:
    def test_full_select(self):
        statement = parse(
            "SELECT label, frameno FROM c WHERE score >= 5 AND label = "
            "'vehicle' ORDER BY score DESC LIMIT 3"
        )
        assert isinstance(statement, ast.Select)
        assert statement.items == (
            ast.ColumnRef("label"),
            ast.ColumnRef("frameno"),
        )
        assert statement.source == ast.TableRef("c")
        assert isinstance(statement.where, ast.And)
        assert statement.order_by == ast.OrderSpec("score", True)
        assert statement.limit == 3

    def test_operator_normalization(self):
        a = parse("SELECT * FROM c WHERE x = 1")
        b = parse("SELECT * FROM c WHERE x == 1")
        assert a == b
        a = parse("SELECT * FROM c WHERE x <> 1")
        b = parse("SELECT * FROM c WHERE x != 1")
        assert a == b

    def test_precedence_and_parens(self):
        flat = parse("SELECT * FROM c WHERE a = 1 OR b = 2 AND d = 3")
        assert isinstance(flat.where, ast.Or)
        assert isinstance(flat.where.children[1], ast.And)
        grouped = parse("SELECT * FROM c WHERE (a = 1 OR b = 2) AND d = 3")
        assert isinstance(grouped.where, ast.And)
        assert isinstance(grouped.where.children[0], ast.Or)

    def test_between_in_contains_not(self):
        statement = parse(
            "SELECT * FROM c WHERE a BETWEEN 1 AND 5 AND b IN (1, 'x', "
            "NULL) AND tag CONTAINS 'fast' AND NOT d = 2 AND e NOT IN (7)"
        )
        kinds = [type(child) for child in statement.where.children]
        assert kinds == [ast.Between, ast.InList, ast.Contains, ast.Not, ast.Not]
        assert statement.where.children[1].items[2].value is None
        assert isinstance(statement.where.children[4].child, ast.InList)

    def test_negative_and_boolean_literals(self):
        statement = parse("SELECT * FROM c WHERE a > -2.5 AND b = TRUE")
        assert statement.where.children[0].value.value == -2.5
        assert statement.where.children[1].value.value is True

    def test_aggregates(self):
        assert parse("SELECT count(*) FROM c").items == (
            ast.AggregateCall("count"),
        )
        assert parse("SELECT COUNT(DISTINCT label) FROM c").items == (
            ast.AggregateCall("distinct_count", "label"),
        )
        assert parse("SELECT avg(score) FROM c").items == (
            ast.AggregateCall("avg", "score"),
        )

    def test_similarity_join_clause(self):
        statement = parse(
            "SELECT * FROM c SIMILARITY JOIN d ON vecfeat WITHIN 2.5 "
            "DIM 2 TOP 10 EXCLUDE SELF WHERE left.label = 'x'"
        )
        join = statement.join
        assert join.right == ast.TableRef("d")
        assert join.on == "vecfeat"
        assert join.threshold == 2.5
        assert (join.dim, join.top, join.exclude_self) == (2, 10, True)
        assert statement.where.column.side == "left"

    def test_join_subselect(self):
        statement = parse(
            "SELECT * FROM c SIMILARITY JOIN "
            "(SELECT * FROM d WHERE score > 1) WITHIN 1.0"
        )
        assert isinstance(statement.join.right, ast.Select)

    def test_statements(self):
        assert parse("EXPLAIN SELECT * FROM c") == ast.Explain(
            ast.Select((ast.Star(),), ast.TableRef("c"))
        )
        create = parse(
            "CREATE OR REPLACE MATERIALIZED VIEW v AS SELECT * FROM c"
        )
        assert create.name == "v" and create.replace is True
        refresh = parse("REFRESH VIEW v AS SELECT * FROM c")
        assert refresh.name == "v" and refresh.select is not None
        assert parse("DROP VIEW v") == ast.DropView("v")
        index = parse("CREATE INDEX ON c (label) USING hash")
        assert (index.collection, index.attr, index.kind) == ("c", "label", "hash")
        assert parse("CREATE INDEX ON c (score)").kind == "btree"
        assert parse("SHOW COLLECTIONS") == ast.Show("collections")
        assert parse("SHOW VIEWS;") == ast.Show("views")
        assert parse("SHOW STATS FOR c") == ast.Show("stats", "c")

    def test_parse_error_position_and_caret(self):
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT label detections WHERE x = 1")
        error = excinfo.value
        assert isinstance(error, QueryError)
        assert (error.line, error.column) == (1, 14)
        assert error.excerpt.splitlines()[1].startswith(" " * 13 + "^")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("SELECT * FROM c nonsense")

    def test_limit_must_be_integer(self):
        with pytest.raises(ParseError, match="non-negative integer"):
            parse("SELECT * FROM c LIMIT 2.5")

    def test_empty_statement(self):
        with pytest.raises(ParseError, match="expected a statement"):
            parse("")


# -- canonical rendering / round-trip -----------------------------------------


FIXED_ROUND_TRIPS = [
    "SELECT * FROM c",
    "SELECT label, frameno FROM c WHERE label = 'vehicle' "
    "ORDER BY score DESC LIMIT 3",
    "SELECT *, tint() FROM c",
    "SELECT count(*) FROM c WHERE score < 10",
    "SELECT COUNT(DISTINCT frameno) FROM c",
    "SELECT AVG(score) FROM c WHERE label != 'person'",
    "SELECT * FROM c WHERE (a = 1 OR b = 2) AND NOT d BETWEEN 1 AND 5",
    "SELECT * FROM c WHERE tag CONTAINS 'fast' AND b IN (1, 2.5, 'x', NULL)",
    "SELECT * FROM c SIMILARITY JOIN c ON vecfeat WITHIN 2.5 TOP 4 "
    "EXCLUDE SELF WHERE left.label = 'vehicle' AND right.score > 2",
    "EXPLAIN SELECT * FROM c WHERE score >= -1",
    "CREATE MATERIALIZED VIEW v AS SELECT *, tint() FROM c",
    "REFRESH VIEW v",
    "DROP VIEW v",
    "CREATE INDEX ON c (label) USING hash",
    "SHOW STATS FOR c",
]


@pytest.mark.parametrize("sql", FIXED_ROUND_TRIPS)
def test_fixed_round_trip(sql):
    statement = parse(sql)
    rendered = statement.to_sql()
    assert parse(rendered) == statement
    # canonical form is a fixpoint
    assert parse(rendered).to_sql() == rendered


def test_round_trip_hostile_characters():
    # multi-line string literals (standard SQL) survive rendering
    node = ast.Select(
        (ast.Star(),),
        ast.TableRef("c"),
        where=ast.Comparison(
            ast.ColumnRef("label"), "==", ast.Literal("line1\nline2")
        ),
    )
    assert parse(node.to_sql()) == node
    # double quotes inside quoted identifiers escape as ""
    node = ast.Select((ast.ColumnRef('we"ird'),), ast.TableRef('ta"ble'))
    assert parse(node.to_sql()) == node
    tokens = tokenize('"a""b"')
    assert tokens[0].value == 'a"b'


# -- Hypothesis: generated AST -> to_sql -> parse -> equal AST ----------------

_names = st.one_of(
    st.sampled_from(["label", "score", "frameno", "tag"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
)
_strings = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_characters="\n\r", exclude_categories=("C",)
    ),
    max_size=12,
)
_numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_scalars = st.one_of(_strings, _numbers, st.booleans(), st.none())


def _literal(values=_scalars):
    return st.builds(ast.Literal, values)


_column = st.builds(ast.ColumnRef, _names)

_leaf = st.one_of(
    st.builds(
        ast.Comparison,
        _column,
        st.sampled_from(ast.COMPARISON_OPS),
        _literal(),
    ),
    st.builds(ast.Between, _column, _literal(_numbers), _literal(_numbers)),
    st.builds(
        ast.InList,
        _column,
        st.lists(_literal(), min_size=1, max_size=4).map(tuple),
    ),
    st.builds(ast.Contains, _column, _literal(_strings)),
)

_expr = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.builds(ast.Not, children),
        st.builds(
            ast.And, st.lists(children, min_size=2, max_size=3).map(tuple)
        ),
        st.builds(
            ast.Or, st.lists(children, min_size=2, max_size=3).map(tuple)
        ),
    ),
    max_leaves=6,
)

_plain_items = st.one_of(
    st.just((ast.Star(),)),
    st.just((ast.Star(), ast.UdfCall("tint"))),
    st.lists(
        st.one_of(st.builds(ast.ColumnRef, _names), st.just(ast.UdfCall("tint"))),
        min_size=1,
        max_size=3,
    ).map(tuple),
    st.one_of(
        st.just((ast.AggregateCall("count"),)),
        st.builds(
            lambda a: (ast.AggregateCall("distinct_count", a),),
            # aggregate attributes are bind-validated against the
            # collection's statistics, so draw from profiled ones
            st.sampled_from(["label", "score", "frameno", "tag"]),
        ),
        st.builds(
            lambda a: (ast.AggregateCall("avg", a),),
            # AVG targets are bind-validated as numeric
            st.sampled_from(["score", "frameno"]),
        ),
    ),
)

_order = st.one_of(st.none(), st.builds(ast.OrderSpec, _names, st.booleans()))
_limit = st.one_of(st.none(), st.integers(0, 50))

_subselect = st.builds(
    ast.Select,
    items=st.just((ast.Star(),)),
    source=st.just(ast.TableRef("c")),
    join=st.none(),
    where=st.one_of(st.none(), _expr),
    order_by=st.none(),
    limit=_limit,
)

_join = st.builds(
    ast.SimilarityJoinClause,
    right=st.one_of(st.just(ast.TableRef("c")), _subselect),
    threshold=st.floats(0.1, 10.0, allow_nan=False),
    on=st.one_of(st.none(), st.just("vecfeat")),
    dim=st.one_of(st.none(), st.integers(1, 64)),
    top=st.one_of(st.none(), st.integers(0, 9)),
    exclude_self=st.booleans(),
)


@st.composite
def _selects(draw):
    joined = draw(st.booleans())
    if joined:
        items: tuple = (ast.Star(),)
        join = draw(_join)
    else:
        items = draw(_plain_items)
        join = None
    aggregated = any(isinstance(item, ast.AggregateCall) for item in items)
    if aggregated and joined:
        # only COUNT(*) may aggregate pair rows
        items = (ast.AggregateCall("count"),)
    return ast.Select(
        items=items,
        source=ast.TableRef("c"),
        # unqualified WHERE/ORDER BY attributes above a join are
        # BindErrors (ambiguous side); sides are covered by fixed tests
        join=join,
        where=None if joined else draw(st.one_of(st.none(), _expr)),
        # ORDER BY/LIMIT on an aggregate's scalar result is a BindError
        order_by=None if aggregated or joined else draw(_order),
        limit=None if aggregated else draw(_limit),
    )


@given(statement=_selects())
@settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_round_trip_property(db, statement):
    """AST -> to_sql -> parse gives the same AST; binding the original
    and the reparsed statement gives the same plan fingerprint."""
    rendered = statement.to_sql()
    reparsed = parse(rendered)
    assert reparsed == statement
    assert reparsed.to_sql() == rendered
    from repro.core.sql import Binder

    first = Binder(db, rendered).bind(statement)
    second = Binder(db, rendered).bind(reparsed)
    assert first.plan_fingerprint() == second.plan_fingerprint()


# -- binder --------------------------------------------------------------------


class TestBinder:
    def test_unknown_collection(self, db):
        with pytest.raises(BindError) as excinfo:
            db.sql("SELECT * FROM nope")
        assert "nope" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (1, 15)
        assert "^" in str(excinfo.value)

    def test_unknown_udf(self, db):
        with pytest.raises(BindError, match="no registered UDF"):
            db.sql("SELECT mystery() FROM c")

    def test_unknown_view(self, db):
        with pytest.raises(BindError, match="no materialized view"):
            db.sql("DROP VIEW ghost")

    def test_aggregate_must_be_sole_item(self, db):
        with pytest.raises(BindError, match="only select item"):
            db.sql("SELECT label, count(*) FROM c")

    def test_star_mixes_only_with_udfs(self, db):
        with pytest.raises(BindError, match="UDF calls"):
            db.sql("SELECT *, label FROM c")

    def test_side_qualifier_outside_join(self, db):
        with pytest.raises(BindError, match="outside a similarity join"):
            db.sql("SELECT * FROM c WHERE left.label = 'x'")

    def test_mixed_sides_in_one_conjunct(self, db):
        with pytest.raises(BindError, match="one side only"):
            db.sql(
                "SELECT * FROM c SIMILARITY JOIN c WITHIN 1.0 "
                "WHERE left.score > 1 OR right.score > 1"
            )

    def test_unknown_side(self, db):
        with pytest.raises(BindError, match="unknown join side"):
            db.sql(
                "SELECT * FROM c SIMILARITY JOIN c WITHIN 1.0 "
                "WHERE middle.score > 1"
            )

    def test_unqualified_attr_above_join_is_ambiguous(self, db):
        with pytest.raises(BindError, match="left.attr or right.attr"):
            db.sql(
                "SELECT * FROM c SIMILARITY JOIN c WITHIN 1.0 "
                "WHERE label = 'vehicle'"
            )

    def test_order_by_above_join_is_ambiguous(self, db):
        with pytest.raises(BindError, match="left side only"):
            db.sql(
                "SELECT * FROM c SIMILARITY JOIN c WITHIN 1.0 "
                "ORDER BY score DESC"
            )

    def test_only_count_star_aggregates_pairs(self, db):
        n = db.sql("SELECT count(*) FROM c SIMILARITY JOIN c WITHIN 100.0")
        assert n == db.scan("c").similarity_join("c", threshold=100.0).count()
        with pytest.raises(BindError, match="COUNT\\(\\*\\)"):
            db.sql("SELECT avg(score) FROM c SIMILARITY JOIN c WITHIN 1.0")
        with pytest.raises(BindError, match="COUNT\\(\\*\\)"):
            db.sql(
                "SELECT COUNT(DISTINCT label) FROM c "
                "SIMILARITY JOIN c WITHIN 1.0"
            )

    def test_udf_without_provides_cannot_project(self, db):
        with pytest.raises(BindError, match="declares no provides"):
            db.sql("SELECT label, vecfeat() FROM c")

    def test_view_of_aggregate_rejected(self, db):
        with pytest.raises(BindError, match="scalars"):
            db.sql("CREATE MATERIALIZED VIEW v AS SELECT count(*) FROM c")

    def test_sql_query_rejects_non_select(self, db):
        with pytest.raises(QueryError, match="SELECT statement"):
            db.sql_query("SHOW COLLECTIONS")
        with pytest.raises(QueryError, match="aggregate"):
            db.sql_query("SELECT count(*) FROM c")


# -- execution & SQL/fluent equivalence ---------------------------------------


class TestExecutionEquivalence:
    def test_quickstart_filter_order_limit(self, db):
        sql = (
            "SELECT label, frameno, tint() FROM c WHERE label = 'vehicle' "
            "ORDER BY tint DESC LIMIT 5"
        )
        fluent = (
            db.scan("c")
            .map(tint, name="tint", provides={"tint"}, one_to_one=True,
                 cache=True)
            .filter(Attr("label") == "vehicle")
            .order_by("tint", reverse=True)
            .limit(5)
            .select("label", "frameno", "tint")
        )
        bound = db.sql_query(sql)
        assert bound.plan_fingerprint() == fluent.plan_fingerprint()
        assert str(bound.explain()) == str(fluent.explain())
        sql_rows = db.sql(sql)
        fluent_rows = fluent.patches()
        assert [p.metadata for p in sql_rows] == [
            p.metadata for p in fluent_rows
        ]

    def test_map_by_name_matches_sql(self, db):
        fluent = db.scan("c").map("tint").filter(Attr("score") > 3)
        bound = db.sql_query("SELECT *, tint() FROM c WHERE score > 3")
        assert bound.plan_fingerprint() == fluent.plan_fingerprint()
        assert str(bound.explain()) == str(fluent.explain())

    def test_aggregates_match_fluent(self, db):
        assert db.sql("SELECT count(*) FROM c") == db.scan("c").count()
        assert db.sql(
            "SELECT COUNT(DISTINCT frameno) FROM c WHERE label = 'vehicle'"
        ) == (
            db.scan("c")
            .filter(Attr("label") == "vehicle")
            .aggregate("distinct_count", key=attribute_key("frameno"))
        )
        scores = [p["score"] for p in make_patches() if p["label"] == "person"]
        assert db.sql(
            "SELECT avg(score) FROM c WHERE label = 'person'"
        ) == pytest.approx(sum(scores) / len(scores))

    def test_avg_of_empty_is_null(self, db):
        assert db.sql("SELECT avg(score) FROM c WHERE label = 'nothing'") is None
        assert db.scan("c").filter(Attr("label") == "nothing").avg(
            attribute_key("score")
        ) is None

    def test_avg_skips_null_values(self, db):
        # SQL AVG ignores NULLs: None values must not abort the query
        values = [1.0, None, 3.0]
        result = (
            db.scan("c")
            .limit(3)
            .map(
                lambda p, it=iter(values): p.derive(
                    p.data, "nullable", maybe=next(it)
                ),
                name="nullable",
            )
            .avg(attribute_key("maybe"))
        )
        assert result == pytest.approx(2.0)

    def test_aggregate_on_limited_input_is_rejected(self, db):
        # SQL applies LIMIT to the (single) result row; silently lowering
        # it below the aggregate would truncate the input instead
        with pytest.raises(BindError, match="aggregate's single result"):
            db.sql("SELECT count(*) FROM c LIMIT 3")
        with pytest.raises(BindError, match="aggregate's single result"):
            db.sql("SELECT avg(score) FROM c ORDER BY score")

    def test_aggregate_attr_typo_is_positioned(self, db):
        with pytest.raises(BindError) as excinfo:
            db.sql("SELECT AVG(nope) FROM c")
        assert "nope" in str(excinfo.value)
        assert "^" in str(excinfo.value)
        with pytest.raises(BindError, match="unknown attribute"):
            db.sql("SELECT COUNT(DISTINCT nope) FROM c")

    def test_avg_of_non_numeric_attr_is_positioned(self, db):
        with pytest.raises(BindError, match="numeric"):
            db.sql("SELECT AVG(label) FROM c")
        # without bind-time evidence the runtime error is still a named
        # QueryError, not a bare ValueError
        with pytest.raises(QueryError, match="non-numeric"):
            db.scan("c").avg(attribute_key("label"))

    def test_missing_attribute_reads_as_null(self, db):
        # AttributeKey has SQL NULL semantics: a missing attribute is
        # None, so AVG skips it and COUNT(DISTINCT) folds missing rows
        # into one bucket — no KeyError mid-query
        patch = db.scan("c").first()
        assert attribute_key("absent")(patch) is None
        assert db.scan("c").avg(attribute_key("absent")) is None
        assert db.scan("c").distinct_count(attribute_key("absent")) == 1

    def test_overflowing_float_literal_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("SELECT * FROM c WHERE x = 1e999")

    def test_index_selection_identical(self, db):
        db.sql("CREATE INDEX ON c (label) USING hash")
        sql_explain = db.sql("EXPLAIN SELECT * FROM c WHERE label = 'vehicle'")
        fluent_explain = (
            db.scan("c").filter(Attr("label") == "vehicle").explain()
        )
        # the index is a candidate for both frontends, the same plan wins
        # for both, and the whole explanation matches line for line
        assert "hash-lookup" in [c.kind for c in sql_explain.candidates]
        assert sql_explain.chosen.kind == fluent_explain.chosen.kind
        assert str(sql_explain) == str(fluent_explain)

    def test_similarity_join_matches_fluent(self, db):
        sql_rows = db.sql(
            "SELECT * FROM c SIMILARITY JOIN c ON vecfeat WITHIN 0.1 "
            "EXCLUDE SELF WHERE left.label = 'vehicle'"
        )
        fluent = (
            db.scan("c")
            .similarity_join(
                "c", threshold=0.1, features=vecfeat, exclude_self=True
            )
            .filter(Attr("label") == "vehicle", on=0)
        )
        bound = db.sql_query(
            "SELECT * FROM c SIMILARITY JOIN c ON vecfeat WITHIN 0.1 "
            "EXCLUDE SELF WHERE left.label = 'vehicle'"
        )
        assert bound.plan_fingerprint() == fluent.plan_fingerprint()
        fluent_rows = fluent.rows()
        assert len(sql_rows) == len(fluent_rows)
        assert all(len(row) == 2 for row in sql_rows)
        key = lambda row: (row[0].patch_id, row[1].patch_id)
        assert sorted(map(key, sql_rows)) == sorted(map(key, fluent_rows))

    def test_join_top_lowered_to_limit(self, db):
        rows = db.sql(
            "SELECT * FROM c SIMILARITY JOIN c WITHIN 100.0 TOP 7"
        )
        assert len(rows) == 7
        fluent = db.scan("c").similarity_join("c", threshold=100.0).limit(7)
        bound = db.sql_query(
            "SELECT * FROM c SIMILARITY JOIN c WITHIN 100.0 TOP 7"
        )
        assert bound.plan_fingerprint() == fluent.plan_fingerprint()

    def test_shared_udf_cache_across_frontends(self, db):
        db.sql("SELECT *, tint() FROM c")  # populate the cache
        misses_before = db.udf_cache.misses
        hits_before = db.udf_cache.hits
        db.scan("c").map("tint").patches()  # fluent re-run: all hits
        assert db.udf_cache.misses == misses_before
        assert db.udf_cache.hits > hits_before


class TestViewsAndDDL:
    def test_view_lifecycle_and_cross_frontend_match(self, db):
        db.sql("CREATE MATERIALIZED VIEW tinted AS SELECT *, tint() FROM c")
        assert "tinted" in db.views()
        # both frontends' matching prefixes rewrite onto the view
        sql_explain = db.sql("EXPLAIN SELECT *, tint() FROM c")
        assert any("view-match" in line for line in sql_explain.rewrites)
        fluent_explain = db.scan("c").map("tint").explain()
        assert any("view-match" in line for line in fluent_explain.rewrites)
        assert str(sql_explain) == str(fluent_explain)

        rows = db.sql("SHOW VIEWS")
        entry = next(row for row in rows if row["name"] == "tinted")
        assert entry["stale"] is False and entry["portable"] is True

        # mutating the base marks it stale; REFRESH re-runs the plan
        sample = db.scan("c").first()
        db.collection("c").add(sample.derive(sample.data, "copy"))
        assert db.view_is_stale("tinted")
        db.sql("REFRESH VIEW tinted")
        assert not db.view_is_stale("tinted")

        db.sql("DROP VIEW tinted")
        assert "tinted" not in db.views()

    def test_refresh_as_validates_like_create(self, db):
        db.sql("CREATE MATERIALIZED VIEW v3 AS SELECT * FROM c LIMIT 3")
        # an aggregate select must not silently refresh from its bare
        # pipeline (dropping the COUNT the user wrote)
        with pytest.raises(BindError, match="scalars"):
            db.sql("REFRESH VIEW v3 AS SELECT count(*) FROM c")
        db.sql("DROP VIEW v3")

    def test_create_view_replace(self, db):
        db.sql("CREATE MATERIALIZED VIEW v2 AS SELECT * FROM c LIMIT 3")
        with pytest.raises(Exception, match="already exists"):
            db.sql("CREATE MATERIALIZED VIEW v2 AS SELECT * FROM c LIMIT 4")
        view = db.sql(
            "CREATE OR REPLACE MATERIALIZED VIEW v2 AS "
            "SELECT * FROM c LIMIT 4"
        )
        assert len(view) == 4
        db.sql("DROP VIEW v2")

    @pytest.mark.parametrize(
        "attr, spelled, kind",
        [
            ("label", "HASH", "hash"),
            ("score", "BTree", "btree"),
            ("bbox", "RTREE", "rtree"),
            ("emb", "BallTree", "balltree"),
            ("emb", "HNSW", "hnsw"),
        ],
    )
    def test_index_kinds_are_case_insensitive(self, tmp_path, attr, spelled, kind):
        text = f"CREATE INDEX ON c ({attr}) USING {spelled}"
        statement = parse(text)
        assert statement.kind == spelled  # the AST keeps the source spelling
        assert parse(statement.to_sql()) == statement
        with DeepLens(tmp_path) as session:
            patches = list(make_patches(12))
            for i, patch in enumerate(patches):
                patch.metadata["bbox"] = (i, i, i + 2, i + 2)
                patch.metadata["emb"] = np.array([float(i), 1.0])
            session.materialize(patches, "c")
            session.sql(text)
            assert ("c", attr, kind) in session.catalog.indexes()

    def test_unknown_index_kind_is_a_positioned_error(self, db):
        with pytest.raises(BindError, match="unknown index kind 'Bogus'") as excinfo:
            db.sql("CREATE INDEX ON c (label)\n  USING Bogus")
        assert (excinfo.value.line, excinfo.value.column) == (1, 1)
        assert "^" in str(excinfo.value)

    def test_show_collections_and_stats(self, db):
        names = [row["name"] for row in db.sql("SHOW COLLECTIONS")]
        assert "c" in names
        stats = db.sql("SHOW STATS FOR c")
        by_attr = {row["attr"]: row for row in stats}
        assert by_attr["label"]["distinct"] == 2.0
        assert by_attr["score"]["min"] == 0.0


# -- satellite 1: in/contains semantics + selectivity -------------------------


class TestInContainsSemantics:
    def test_in_degrades_to_false_on_non_container(self):
        expr = Comparison("score", "in", 5)  # 5 is no container
        patch = next(make_patches(1))
        assert expr.evaluate(patch) is False

    def test_in_degrades_on_unhashable_needle(self):
        expr = Comparison("tag", "in", {("fast", "red")})
        patch = next(make_patches(1))
        patch.metadata["tag"] = ["fast", "red"]  # unhashable vs a set
        assert expr.evaluate(patch) is False

    def test_contains_degrades_on_non_container_attr(self):
        expr = Comparison("score", "contains", "x")  # float contains str
        patch = next(make_patches(1))
        assert expr.evaluate(patch) is False

    def test_sql_contains_and_in_never_raise(self, db):
        assert db.sql("SELECT count(*) FROM c WHERE score CONTAINS 'x'") == 0
        rows = db.sql("SELECT * FROM c WHERE label IN ('vehicle', 5)")
        assert all(p["label"] == "vehicle" for p in rows)
        assert db.sql("SELECT * FROM c WHERE tag CONTAINS 'fast'")

    def test_in_selectivity_from_mcvs(self, db):
        expr = Attr("label").isin(["vehicle", "person"])
        estimated, source = db.optimizer.estimator().filter_rows("c", expr)
        actual = db.scan("c", load_data=False).filter(expr).count()
        assert source == "mcv"
        assert estimated == pytest.approx(actual, rel=0.35)
        one, source_one = db.optimizer.estimator().filter_rows(
            "c", Attr("label").isin(["vehicle"])
        )
        eq, _ = db.optimizer.estimator().filter_rows(
            "c", Attr("label") == "vehicle"
        )
        assert one == pytest.approx(eq)

    def test_in_fallback_scales_with_members(self):
        estimate = fallback_estimate(Comparison("x", "in", (1, 2, 3)))
        assert estimate.selectivity == pytest.approx(3 * EQ_SELECTIVITY)
        capped = fallback_estimate(Comparison("x", "in", tuple(range(99))))
        assert capped.selectivity == 1.0
        # a non-container operand never matches anything
        bad = fallback_estimate(Comparison("x", "in", 7))
        assert bad.selectivity == 0.0
        # a string operand is substring membership, not a 7-member list
        substring = fallback_estimate(Comparison("x", "in", "vehicle"))
        assert substring.selectivity == pytest.approx(0.3)
        # any sized container counts members, not just list/tuple/set
        ranged = fallback_estimate(Comparison("x", "in", range(3)))
        assert ranged.selectivity == pytest.approx(3 * EQ_SELECTIVITY)

    def test_in_range_operand_uses_statistics(self, db):
        a, src_a = db.optimizer.estimator().filter_rows(
            "c", Comparison("frameno", "in", range(3))
        )
        b, src_b = db.optimizer.estimator().filter_rows(
            "c", Comparison("frameno", "in", (0, 1, 2))
        )
        assert (a, src_a) == (b, src_b)

    def test_in_string_operand_not_estimated_per_char(self, db):
        # the statistics path must not explode a string into characters
        # (or consume a one-shot iterator the evaluator still needs)
        _, source = db.optimizer.estimator().filter_rows(
            "c", Comparison("label", "in", "vehicle")
        )
        assert source == "fallback-constant"


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_register_conflicts_and_replace(self, db):
        with pytest.raises(QueryError, match="already registered"):
            db.register_udf("tint", tint)
        db.register_udf("tint", tint, provides={"tint"}, replace=True)
        db.register_udf(
            "tint", tint, provides={"tint"}, one_to_one=True, cache=True,
            replace=True,
        )

    def test_builtins_seeded(self, db):
        assert "brightness" in db.udfs
        assert "embedding" in db.udfs
        rows = db.sql("SELECT label, brightness() FROM c LIMIT 2")
        assert all("brightness" in p.metadata for p in rows)

    def test_map_by_name_rejects_contract_overrides(self, db):
        with pytest.raises(QueryError, match="registry"):
            db.scan("c").map("tint", provides={"other"})

    def test_attribute_key_memoized_and_portable(self):
        from repro.core.logical import callable_identity, callable_is_portable

        key = attribute_key("frameno")
        assert attribute_key("frameno") is key
        assert callable_is_portable(key)
        identity = callable_identity(key)
        assert "AttributeKey[frameno]" in identity

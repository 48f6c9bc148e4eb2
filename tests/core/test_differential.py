"""Differential query oracle (property-based).

Hypothesis generates random queries — filters, boolean connectives,
ordering, limits, UDF maps — and executes each through independent
paths that must agree row-for-row:

* the LensQL frontend vs the fluent builder (the two compile to
  fingerprint-identical logical plans, so the optimizer cannot even
  tell them apart);
* the serial engine vs ``workers=4`` with prefetch (the parallel
  engine's bit-identical contract);
* a session holding a matching materialized view vs a session without
  one (view reuse is a cost-based *physical* choice, never a semantic
  one);
* the metadata-only path vs the full-record path, and both — filters
  masked on segment columns across sealed blocks and the open one,
  survivors materialized last, counts folded off the mask — vs a plain
  Python filter/sort/slice over an unfiltered full scan;
* ANN top-k at an exhaustive beam (``ef = n``) vs brute-force exact
  top-k (the approximate access path must degenerate to the exact
  answer, whichever path the optimizer costs out).

Any divergence is a planner or engine bug, reported as a shrunk
counterexample query rather than a hand-picked regression.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Attr, DeepLens
from repro.core.patch import Patch

N = 60
LABELS = ("vehicle", "person", "bike")


def make_patches(n=N):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 9, np.uint8))
        patch.metadata["label"] = LABELS[i % 3]
        patch.metadata["score"] = float(i)
        # distinct by construction: i = 7 * (i // 7) + (i % 7)
        patch.metadata["emb"] = [
            float(i % 7),
            float(i // 7),
            float((i * 3) % 5),
            float(i % 2),
        ]
        yield patch


def brighten(patch):
    return patch.derive(
        patch.data, "bright", brightness=float(patch.data.mean())
    )


def row_signature(patches):
    return [
        (p.patch_id, p.data.tobytes(), sorted(p.metadata.items()))
        for p in patches
    ]


def semantic_signature(patches):
    """Identity-free row content: what view-served and recomputed plans
    must agree on (derived patches get fresh ids either way)."""
    return sorted(
        (p["frameno"], p["label"], p["score"], round(p["brightness"], 9))
        for p in patches
    )


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    with DeepLens(tmp_path_factory.mktemp("differential")) as session:
        session.materialize(make_patches(), "det")
        session.register_udf("brighten", brighten, provides={"brightness"})
        yield session


@pytest.fixture(scope="module")
def blocked_db(tmp_path_factory):
    """``det`` in metadata blocks of 16 rows (3 sealed + a 12-row open
    block), so column filters cross block boundaries and zone maps bite."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.storage.metadata_segment.BLOCK_ROWS", 16)
        with DeepLens(tmp_path_factory.mktemp("differential_blocks")) as session:
            session.materialize(make_patches(), "det")
            yield session


@pytest.fixture(scope="module")
def ann_db(tmp_path_factory):
    with DeepLens(tmp_path_factory.mktemp("differential_ann")) as session:
        session.materialize(make_patches(), "det")
        # ef = n: every beam search degenerates to an exhaustive one
        session.create_index("det", "emb", "hnsw", params={"m": 8, "ef": N})
        yield session


@pytest.fixture(scope="module")
def view_db(tmp_path_factory):
    with DeepLens(tmp_path_factory.mktemp("differential_view")) as session:
        session.materialize(make_patches(), "det")
        session.register_udf("brighten", brighten, provides={"brightness"})
        session.materialize_view("bright", session.scan("det").map("brighten"))
        yield session


# -- query generator ------------------------------------------------------


@st.composite
def leaves(draw):
    """One comparison, as (fluent Expr, SQL text) — the same predicate
    through both frontends."""
    kind = draw(st.sampled_from(["label", "score", "between"]))
    if kind == "label":
        value = draw(st.sampled_from(LABELS))
        if draw(st.booleans()):
            return Attr("label") == value, f"label = '{value}'"
        return Attr("label") != value, f"label != '{value}'"
    if kind == "between":
        low = draw(st.integers(-5, 60))
        high = low + draw(st.integers(0, 30))
        return (
            Attr("score").between(float(low), float(high)),
            f"score BETWEEN {float(low)} AND {float(high)}",
        )
    value = float(draw(st.integers(-5, 65)))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    attr = Attr("score")
    expr = {
        "<": attr < value,
        "<=": attr <= value,
        ">": attr > value,
        ">=": attr >= value,
        "==": attr == value,
        "!=": attr != value,
    }[op]
    return expr, f"score {'=' if op == '==' else op} {value}"


@st.composite
def where_clauses(draw):
    """A WHERE clause as (fluent filter exprs, SQL text). Top-level AND
    becomes *chained* filters, mirroring how the binder splits
    conjunctions — the shapes stay fingerprint-identical."""
    expr, sql = draw(leaves())
    exprs = [expr]
    if draw(st.booleans()):
        other_expr, other_sql = draw(leaves())
        if draw(st.booleans()):
            exprs, sql = [expr, other_expr], f"{sql} AND {other_sql}"
        else:
            exprs, sql = [expr | other_expr], f"({sql} OR {other_sql})"
    if draw(st.booleans()):
        combined = exprs[0]
        for extra in exprs[1:]:
            combined = combined & extra
        exprs, sql = [~combined], f"NOT ({sql})"
    return exprs, sql


@st.composite
def query_shapes(draw):
    where = draw(st.none() | where_clauses())
    order = draw(st.none() | st.booleans())  # ORDER BY score ASC/DESC
    limit = draw(st.none() | st.integers(1, 25))
    return where, order, limit


def build(session, shape, *, mapped=False, load_data=True):
    """The same random query via both frontends: a fluent builder and
    the LensQL text."""
    where, order, limit = shape
    query = session.scan("det", load_data=load_data)
    sql = "SELECT brighten() FROM det" if mapped else "SELECT * FROM det"
    if not load_data:
        sql += " METADATA ONLY"
    if mapped:
        query = query.map("brighten")
    if where is not None:
        exprs, text = where
        for expr in exprs:
            query = query.filter(expr)
        sql += f" WHERE {text}"
    if order is not None:
        query = query.order_by("score", reverse=order)
        sql += f" ORDER BY score {'DESC' if order else 'ASC'}"
    if limit is not None:
        query = query.limit(limit)
        sql += f" LIMIT {limit}"
    return query, sql


# -- the oracles ----------------------------------------------------------


@given(shape=query_shapes())
@settings(max_examples=30, deadline=None)
def test_sql_matches_fluent(db, shape):
    query, sql = build(db, shape)
    assert db.sql_query(sql).plan_fingerprint() == query.plan_fingerprint()
    assert row_signature(db.sql(sql)) == row_signature(query.patches())


@given(shape=query_shapes())
@settings(max_examples=20, deadline=None)
def test_parallel_matches_serial(db, shape):
    query, _ = build(db, shape, mapped=True)
    serial = query.with_execution(workers=1)
    parallel = query.with_execution(workers=4, prefetch_batches=2)
    assert row_signature(parallel.patches()) == row_signature(serial.patches())


@given(shape=query_shapes())
@settings(max_examples=20, deadline=None)
def test_view_served_matches_recomputed(db, view_db, shape):
    where, order, limit = shape
    # scores are unique, so ordered prefixes are deterministic; without
    # ORDER BY a LIMIT picks physical-order-dependent rows, and the view
    # scan's physical order is legitimately its own — skip that shape
    served_shape = (where, order, limit if order is not None else None)
    with_view, _ = build(view_db, served_shape, mapped=True)
    without_view, _ = build(db, served_shape, mapped=True)
    assert semantic_signature(with_view.patches()) == semantic_signature(
        without_view.patches()
    )


@given(shape=query_shapes())
@settings(max_examples=30, deadline=None)
def test_metadata_only_matches_full_scan(db, shape):
    """The columnar-segment path must agree with the full-record path on
    everything but pixel data — same rows, same order, bit-identical
    ids, refs, and metadata — through both frontends."""
    lean_query, lean_sql = build(db, shape, load_data=False)
    full_query, _ = build(db, shape)
    assert (
        db.sql_query(lean_sql).plan_fingerprint()
        == lean_query.plan_fingerprint()
    )

    def lean_signature(patches):
        return [
            (p.patch_id, p.img_ref.to_value(), sorted(p.metadata.items()))
            for p in patches
        ]

    lean = lean_query.patches()
    assert all(p.data.size == 0 for p in lean)
    assert lean_signature(lean) == lean_signature(full_query.patches())
    assert lean_signature(db.sql(lean_sql)) == lean_signature(lean)


@given(shape=query_shapes())
@settings(max_examples=40, deadline=None)
def test_column_filter_matches_python_filter(blocked_db, shape):
    """The one scan-group operator — predicates masked per segment
    block, rows (``METADATA ONLY``) or pixel records (late
    materialization) built for survivors only, ``count`` folded off the
    mask — against a reference that shares none of it: an unfiltered
    full scan filtered, sorted and sliced in plain Python."""
    where, order, limit = shape
    reference = blocked_db.scan("det").patches()
    if where is not None:
        reference = [
            p for p in reference if all(e.evaluate(p) for e in where[0])
        ]
    if order is not None:
        reference.sort(key=lambda p: p["score"], reverse=order)
    reference = reference[:limit]

    def lean_signature(patches):
        return [
            (p.patch_id, p.img_ref.to_value(), sorted(p.metadata.items()))
            for p in patches
        ]

    lean_query, lean_sql = build(blocked_db, shape, load_data=False)
    full_query, full_sql = build(blocked_db, shape)
    assert lean_signature(lean_query.patches()) == lean_signature(reference)
    assert lean_signature(blocked_db.sql(lean_sql)) == lean_signature(reference)
    assert row_signature(full_query.patches()) == row_signature(reference)
    assert row_signature(blocked_db.sql(full_sql)) == row_signature(reference)
    assert full_query.count() == len(reference)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_ann_at_exhaustive_ef_matches_exact_topk(ann_db, seed, k):
    """With the index's beam as wide as the collection, the ANN top-k
    must equal the brute-force exact top-k — and the SQL and fluent
    forms of the query must share one plan."""
    query = np.random.default_rng(seed).normal(size=4)
    fluent = ann_db.scan("det").similarity_search(query, k, attr="emb")
    via_sql = ann_db.sql_query(
        f"SELECT * FROM det ORDER BY SIMILARITY LIMIT {k}",
        query_vector=query,
        vector_attr="emb",
    )
    assert via_sql.plan_fingerprint() == fluent.plan_fingerprint()
    got = [p.patch_id for p in fluent.patches()]
    exact = sorted(
        (np.linalg.norm(np.array(p.metadata["emb"]) - query), p.patch_id)
        for p in ann_db.scan("det").patches()
    )
    assert got == [pid for _, pid in exact[:k]]
    assert row_signature(via_sql.patches()) == row_signature(fluent.patches())


def test_view_reuse_actually_happens(view_db):
    # guards the third oracle's bite: the view session really does plan
    # matching queries as view scans (cost-based, but this one is an
    # obvious win — the map is the dominant cost)
    query = (
        view_db.scan("det").map("brighten").filter(Attr("label") == "vehicle")
    )
    explanation = query.explain()
    assert any("view-match" in line for line in explanation.rewrites)
    assert explanation.chosen.kind in {
        "view-scan", "hash-lookup", "late-materialization"
    }

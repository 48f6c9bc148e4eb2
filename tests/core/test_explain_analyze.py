"""EXPLAIN ANALYZE end-to-end: instrumented execution, Q-error
reporting, the plan-quality log, and the estimate feedback loop.

The instrumentation contract mirrors the parallel engine's: profiling
is an execution detail, never a semantics change. An analyzed run
returns bit-identical rows, its counters are exact (no lost updates
under ``workers=4``), and the observed cardinalities feed back as
per-predicate correction factors the optimizer consults on the next
plan of the same predicate (source ``feedback`` in ``explain()``).
"""

import threading

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.patch import Patch
from repro.core.sql import ast, parse

N = 120


def make_patches(n=N):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 7, np.uint8))
        # label and kind are perfectly correlated: the independence
        # assumption underestimates their conjunction by 2x
        patch.metadata["label"] = "car" if i % 2 == 0 else "person"
        patch.metadata["kind"] = "road" if i % 2 == 0 else "indoor"
        patch.metadata["score"] = float(i)
        patch.metadata["bucket"] = "hot" if i % 30 == 0 else "cold"
        yield patch


def row_signature(patches):
    return [
        (p.patch_id, p.lineage, p.data.tobytes(), sorted(p.metadata.items()))
        for p in patches
    ]


def scoring_udf(patch):
    return patch.derive(patch.data, "scored", total=float(patch.data.sum()))


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "det")
        yield session


def correlated_query(session):
    return (
        session.scan("det")
        .filter(Attr("label") == "car")
        .filter(Attr("kind") == "road")
    )


class TestExplainAnalyze:
    def test_profile_attached_with_q_errors(self, db):
        explanation = correlated_query(db).explain(analyze=True)
        profile = explanation.profile
        assert profile is not None
        assert profile.entries
        # the scan group is graded: est from stats, actual from the run
        scan = next(e for e in profile.entries if "Scan" in e.label)
        assert scan.est_rows == 30  # 120 * 0.5 * 0.5 under independence
        assert scan.rows_out == 60
        assert scan.q == pytest.approx(2.0)
        rendered = str(explanation)
        assert "runtime profile" in rendered
        assert "q-error 2.00" in rendered

    def test_plain_explain_has_no_profile(self, db):
        assert correlated_query(db).explain().profile is None
        assert len(db.plan_quality_log()) == 0

    def test_analyzed_run_matches_unprofiled_rows(self, db):
        want = [p.patch_id for p in correlated_query(db).patches()]
        correlated_query(db).explain(analyze=True)
        got = [p.patch_id for p in correlated_query(db).patches()]
        assert got == want

    def test_operator_tree_structure(self, db):
        explanation = (
            db.scan("det")
            .filter(Attr("label") == "car")
            .order_by("score", reverse=True)
            .limit(5)
            .explain(analyze=True)
        )
        lines = explanation.profile.lines()
        # root first, children indented below
        assert lines[0].startswith("Limit(5)")
        assert any(line.lstrip().startswith("OrderBy") for line in lines)
        roots = explanation.profile.roots()
        assert len(roots) == 1 and roots[0].label.startswith("Limit")

    def test_limit_truncation_records_no_feedback(self, db):
        (
            db.scan("det")
            .filter(Attr("label") == "car")
            .limit(5)
            .explain(analyze=True)
        )
        # the scan stopped after 5 matches: the observed selectivity is
        # not the predicate's selectivity, so no correction is learned
        estimate = db.optimizer.estimator().selectivity("det", Attr("label") == "car")
        assert estimate.source != "feedback"


class TestFeedbackLoop:
    def test_correlated_conjunction_estimate_improves(self, db):
        before = correlated_query(db).explain()
        assert any("(mcv)" in line for line in before.estimates)

        analyzed = correlated_query(db).explain(analyze=True)
        scan = next(e for e in analyzed.profile.entries if "Scan" in e.label)
        assert scan.q == pytest.approx(2.0)  # independence was off 2x

        after = correlated_query(db).explain()
        assert any("(feedback)" in line for line in after.estimates)
        expr = (Attr("label") == "car") & (Attr("kind") == "road")
        estimate = db.optimizer.estimator().selectivity("det", expr)
        assert estimate.source == "feedback"
        assert estimate.selectivity == pytest.approx(0.5)
        # re-analyzing under the corrected estimate grades at q ~= 1
        regraded = correlated_query(db).explain(analyze=True)
        scan = next(e for e in regraded.profile.entries if "Scan" in e.label)
        assert scan.q == pytest.approx(1.0)

    def test_corrections_persist_across_sessions(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "det")
            correlated_query(db).explain(analyze=True)
            fingerprints = len(db.plan_quality_log())
        with DeepLens(tmp_path) as db:
            explanation = correlated_query(db).explain()
            assert any("(feedback)" in line for line in explanation.estimates)
            assert len(db.plan_quality_log()) == fingerprints

    def test_parameterized_fingerprint_pools_literals(self, db):
        db.scan("det").filter(Attr("score") > 10.0).explain(analyze=True)
        db.scan("det").filter(Attr("score") > 90.0).explain(analyze=True)
        # same plan shape, different literals: one pooled history...
        assert len(db.plan_quality_log()) == 1
        # ...but distinct predicates learn distinct corrections
        low = db.optimizer.estimator().selectivity("det", Attr("score") > 10.0)
        high = db.optimizer.estimator().selectivity("det", Attr("score") > 90.0)
        assert low.source == high.source == "feedback"
        assert low.selectivity == pytest.approx(109 / 120)
        assert high.selectivity == pytest.approx(29 / 120)


class TestSQLFrontend:
    def test_explain_analyze_statement(self, db):
        explanation = db.sql(
            "EXPLAIN ANALYZE SELECT * FROM det WHERE label = 'car'"
        )
        assert explanation.profile is not None
        assert "q-error" in str(explanation)

    def test_plain_explain_statement_unchanged(self, db):
        explanation = db.sql("EXPLAIN SELECT * FROM det WHERE label = 'car'")
        assert explanation.profile is None

    def test_aggregate_explain_analyze(self, db):
        explanation = db.sql(
            "EXPLAIN ANALYZE SELECT count(*) FROM det WHERE kind = 'road'"
        )
        scan = next(
            e for e in explanation.profile.entries if "Scan" in e.label
        )
        assert scan.rows_out == 60
        assert scan.exhausted

    def test_parse_round_trip(self):
        statement = parse("EXPLAIN ANALYZE SELECT * FROM det")
        assert isinstance(statement, ast.Explain)
        assert statement.analyze
        assert statement.to_sql() == "EXPLAIN ANALYZE SELECT * FROM det"
        assert parse(statement.to_sql()) == statement

    def test_parse_plain_explain_not_analyze(self):
        statement = parse("EXPLAIN SELECT * FROM det")
        assert not statement.analyze
        assert statement.to_sql() == "EXPLAIN SELECT * FROM det"


class TestCounters:
    def test_udf_cache_counters(self, db):
        query = db.scan("det").map(
            scoring_udf, name="scored", provides={"total"}, cache=True
        )
        first = query.explain(analyze=True)
        entry = next(e for e in first.profile.entries if "Map" in e.label)
        assert entry.cache_misses == N and entry.cache_hits == 0
        second = query.explain(analyze=True)
        entry = next(e for e in second.profile.entries if "Map" in e.label)
        assert entry.cache_hits == N and entry.cache_misses == 0

    def test_index_probes_counted(self, db):
        db.create_index("det", "bucket", "hash")
        explanation = (
            db.scan("det").filter(Attr("bucket") == "hot").explain(analyze=True)
        )
        assert explanation.chosen.kind == "hash-lookup"
        probes = sum(e.index_probes for e in explanation.profile.entries)
        assert probes == 4  # every fetched row came through the index

    def test_join_entry_spans_both_children(self, db):
        explanation = (
            db.scan("det")
            .filter(Attr("score") < 6.0)
            .similarity_join(
                db.scan("det").filter(Attr("score") < 6.0), threshold=0.0
            )
            .explain(analyze=True)
        )
        join = next(
            e for e in explanation.profile.entries if "SimilarityJoin" in e.label
        )
        assert len(join.children) == 2
        # 6 rows per side; data repeats every 7 scores, so distance 0
        # pairs are exactly the identity pairs here
        assert join.rows_in == 12
        assert join.rows_out == 6


class TestThreadSafety:
    """Satellite: counter totals stay exact under the parallel engine."""

    def test_parallel_counters_exact_and_rows_identical(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "det")
            query = (
                db.scan("det")
                .map(scoring_udf, name="scored", provides={"total"}, cache=True)
                .filter(Attr("total") >= 0.0)
            )
            want = row_signature(query.patches())

            parallel = query.with_execution(workers=4, prefetch_batches=2)
            for run in range(3):
                explanation = parallel.explain(analyze=True)
                entries = explanation.profile.entries
                scan = next(e for e in entries if "Scan" in e.label)
                mapped = next(e for e in entries if "Map" in e.label)
                assert scan.rows_out == N  # no lost updates
                assert mapped.rows_out == N
                assert mapped.cache_hits + mapped.cache_misses == N
                if run > 0:
                    assert mapped.cache_hits == N
            got = row_signature(parallel.patches())
            assert got == want

    def test_concurrent_analyzed_runs_record_all(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "det")
            query = correlated_query(db)
            profiles, errors = [], []

            def hammer():
                try:
                    profiles.append(query.explain(analyze=True).profile)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # every run saw exactly the full scan: profiles are per-run,
            # so concurrent queries never share or corrupt counters
            for profile in profiles:
                scan = next(e for e in profile.entries if "Scan" in e.label)
                assert scan.rows_out == 60
            history = db.plan_quality_log().history(
                _fingerprint_of(query)
            )
            assert len(history) == 6


def _fingerprint_of(query):
    from repro.core import logical

    return logical.plan_parameterized_fingerprint(query.logical_plan())

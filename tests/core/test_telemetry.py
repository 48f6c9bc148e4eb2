"""End-to-end telemetry tests: the session-owned registry threaded
through every layer, per-query tracing, and the slow-query log.

The load-bearing properties:

* **coverage** — one quickstart-shaped workload leaves nonzero pager,
  heap, UDF-cache, zone-map, optimizer, and executor counters behind,
  and the Prometheus render of all of it passes the line validator;
* **tracing** — every LensQL query exports a parse -> bind -> rewrite
  -> lower -> execute span tree (fluent queries the engine-side
  suffix), stamped with the parameterized plan fingerprint;
* **determinism under threads** — counter totals are exact: a
  ``workers=4`` + prefetch run produces bit-identical rows and the
  same executor batch count as serial, and six concurrent query
  threads land exactly their query count while snapshots stay readable;
* **the slow-query log** — threshold behavior driven by injected fake
  clocks (never ``time.sleep``), persistence across close/reopen, and
  the ``SHOW SLOW QUERIES`` / ``SHOW METRICS`` statement surface.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.patch import Patch
from repro.core.sql import parse

from tests.core.test_metrics import StepClock, validate_prometheus_text


def make_patches(n=60):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 9, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        yield patch


def brightness(patch):
    return patch.derive(
        patch.data, "brightness", brightness=float(patch.data.mean())
    )


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "c")
        session.register_udf(
            "brightness",
            brightness,
            provides={"brightness"},
            one_to_one=True,
            cache=True,
            replace=True,  # shadow the built-in brightness UDF
        )
        yield session


# -- counter coverage ----------------------------------------------------------


class TestEngineCoverage:
    def test_workload_leaves_counters_everywhere(self, db):
        # a UDF query twice: the second run hits the UDF cache
        query = db.sql_query(
            "SELECT brightness() FROM c WHERE label = 'vehicle'"
        )
        query.patches()
        query.patches()
        query.with_execution(workers=2, prefetch_batches=2).patches()
        db.sql("SELECT COUNT(*) FROM c WHERE score >= 30")
        counters = db.metrics()["counters"]
        assert counters["deeplens_queries_total"] == 4
        assert counters["deeplens_optimizer_plans_total"] >= 3
        assert counters['deeplens_pager_page_reads_total{result="hit"}'] > 0
        assert counters['deeplens_heap_reads_total{store="blob"}'] > 0
        assert counters['deeplens_udf_cache_lookups_total{result="miss"}'] > 0
        assert counters['deeplens_udf_cache_lookups_total{result="hit"}'] > 0
        assert counters["deeplens_executor_batches_total"] > 0

    def test_prometheus_render_validates(self, db):
        db.sql("SELECT COUNT(*) FROM c WHERE label = 'vehicle'")
        text = db.metrics_text()
        assert validate_prometheus_text(text) > 20
        assert "deeplens_queries_total 1" in text.splitlines()

    def test_disabled_registry_still_answers_queries(self, tmp_path):
        with DeepLens(tmp_path, metrics_enabled=False) as session:
            session.materialize(make_patches(), "c")
            rows = session.sql("SELECT label FROM c WHERE score >= 30")
            assert len(rows) == 30
            assert session.metrics() == {
                "counters": {},
                "gauges": {},
                "histograms": {},
            }
            assert session.metrics_text() == ""
            assert session.sql("SHOW METRICS") == []
            # tracing is independent of the registry switch
            tree = json.loads(session.trace_json())
            assert tree["name"] == "query"


# -- tracing -------------------------------------------------------------------


class TestQueryTracing:
    def test_sql_span_tree_covers_every_phase(self, db):
        db.sql("SELECT label FROM c WHERE label = 'vehicle'")
        tree = json.loads(db.trace_json())
        assert tree["name"] == "query"
        assert [c["name"] for c in tree["children"]] == [
            "parse",
            "bind",
            "rewrite",
            "lower",
            "execute",
        ]
        assert all(c["seconds"] >= 0 for c in tree["children"])
        assert tree["attrs"]["sql"] == "SELECT label FROM c WHERE label = 'vehicle'"
        assert tree["attrs"]["fingerprint"]

    def test_fluent_span_tree_and_fingerprint(self, db):
        query = db.scan("c").filter(Attr("label") == "vehicle")
        query.patches()
        tree = json.loads(db.trace_json())
        assert [c["name"] for c in tree["children"]] == [
            "rewrite",
            "lower",
            "execute",
        ]
        assert "sql" not in tree.get("attrs", {})
        assert tree["attrs"]["fingerprint"]

    def test_one_root_per_user_query(self, db):
        # the SQL statement drives builder terminals internally; the
        # nested scopes must fold into one root, counted once
        before = db.metrics()["counters"].get("deeplens_queries_total", 0)
        db.sql("SELECT COUNT(*) FROM c")
        after = db.metrics()["counters"]["deeplens_queries_total"]
        assert after - before == 1

    def test_trace_survives_worker_pool(self, db):
        query = (
            db.sql_query("SELECT brightness() FROM c")
            .with_execution(workers=4, prefetch_batches=2)
        )
        query.patches()
        tree = json.loads(db.trace_json())
        assert [c["name"] for c in tree["children"]] == [
            "rewrite",
            "lower",
            "execute",
        ]


# -- zone-map actuals ----------------------------------------------------------


class TestZoneMapActuals:
    def test_analyze_grades_block_skip_estimate(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.metadata_segment.BLOCK_ROWS", 16)
        with DeepLens(tmp_path) as session:
            session.materialize(make_patches(120), "det")
            query = session.scan("det", load_data=False).filter(
                Attr("score") >= 112.0
            )
            explanation = query.explain(analyze=True)
            assert explanation.chosen.kind == "zone-map-scan"
            entry = next(
                e
                for e in explanation.profile.entries
                if e.blocks_skipped or e.est_blocks_skipped is not None
            )
            # actuals observed by the scan, estimate graded like a
            # cardinality: the zone maps are exact, so q-error == 1
            assert entry.blocks_skipped > 0
            # 120 rows at 16/block: 7 sealed blocks + the open one (the
            # matching rows all live in the open block, so every sealed
            # block is skipped)
            assert entry.blocks_skipped + entry.blocks_scanned == 8
            assert entry.est_blocks_skipped == entry.blocks_skipped
            assert entry.blocks_q == 1.0
            assert explanation.profile.block_q_errors() == [1.0]
            line = next(
                l for l in explanation.profile.lines() if "zone-map" in l
            )
            assert "blocks skipped" in line and "q-error 1.00" in line
            counters = session.metrics()["counters"]
            assert (
                counters["deeplens_zonemap_blocks_skipped_total"]
                == entry.blocks_skipped
            )
            assert (
                counters["deeplens_zonemap_blocks_scanned_total"]
                == entry.blocks_scanned
            )


# -- exactness under threads ---------------------------------------------------


class TestConcurrencyExactness:
    def test_parallel_run_same_batches_and_rows_as_serial(self, db):
        query = db.sql_query("SELECT brightness() FROM c").with_execution(
            batch_size=8
        )
        serial_before = db.metrics()["counters"].get(
            "deeplens_executor_batches_total", 0
        )
        serial_rows = query.patches()
        assert (
            db.metrics()["counters"].get("deeplens_executor_batches_total", 0)
            == serial_before
        )  # serial path never enters the fan-out loop

        parallel = query.with_execution(workers=4, prefetch_batches=2)
        parallel_rows = parallel.patches()
        counters = db.metrics()["counters"]
        # 60 patches in batches of 8 -> exactly 8 batches through the pool
        assert counters["deeplens_executor_batches_total"] == 8
        assert counters["deeplens_executor_worker_seconds_total"] > 0
        gauges = db.metrics()["gauges"]
        assert gauges["deeplens_prefetch_queue_depth_highwater"] >= 1
        # bit-identical parallelism, with metrics on
        assert [p.patch_id for p in parallel_rows] == [
            p.patch_id for p in serial_rows
        ]
        assert [p["brightness"] for p in parallel_rows] == [
            p["brightness"] for p in serial_rows
        ]

    def test_six_threads_count_exactly(self, db):
        QUERIES_PER_THREAD = 5
        before = db.metrics()["counters"].get("deeplens_queries_total", 0)
        errors = []
        stop_snapshots = threading.Event()

        def run_queries():
            try:
                for _ in range(QUERIES_PER_THREAD):
                    rows = db.sql("SELECT label FROM c WHERE label = 'vehicle'")
                    assert len(rows) == 20
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def snapshot_loop():
            while not stop_snapshots.is_set():
                snapshot = db.metrics()
                # a snapshot taken mid-flight is internally consistent:
                # plain data, every counter non-negative
                assert all(v >= 0 for v in snapshot["counters"].values())
                db.metrics_text()

        threads = [threading.Thread(target=run_queries) for _ in range(6)]
        reader = threading.Thread(target=snapshot_loop)
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_snapshots.set()
        reader.join()
        assert not errors
        after = db.metrics()["counters"]["deeplens_queries_total"]
        assert after - before == 6 * QUERIES_PER_THREAD  # exact


# -- the slow-query log --------------------------------------------------------


class TestSlowQueryCapture:
    def test_fake_clock_records_over_threshold(self, tmp_path):
        # every clock read advances 1s, so any query "takes" seconds
        with DeepLens(
            tmp_path, clock=StepClock(step=1.0), slow_query_threshold=1.0
        ) as session:
            session.materialize(make_patches(), "c")
            session.sql("SELECT label FROM c WHERE label = 'vehicle'")
            entries = session.slow_query_log().entries()
            assert len(entries) == 1
            entry = entries[0]
            assert entry["sql"] == "SELECT label FROM c WHERE label = 'vehicle'"
            assert entry["fingerprint"]
            assert entry["seconds"] >= 1.0
            assert entry["span"]["name"] == "query"
            assert {c["name"] for c in entry["span"]["children"]} >= {
                "parse",
                "execute",
            }
            # counter deltas cover the work inside the query scope
            assert entry["counters"]["deeplens_optimizer_plans_total"] == 1
            assert (
                session.metrics()["counters"]["deeplens_slow_queries_total"]
                == 1
            )

    def test_fast_clock_records_nothing(self, tmp_path):
        # every clock read advances a nanosecond: far under threshold
        with DeepLens(
            tmp_path, clock=StepClock(step=1e-9), slow_query_threshold=1.0
        ) as session:
            session.materialize(make_patches(), "c")
            session.sql("SELECT label FROM c")
            session.scan("c").count()
            assert session.slow_query_log().entries() == []
            counters = session.metrics()["counters"]
            assert counters["deeplens_slow_queries_total"] == 0
            assert counters["deeplens_queries_total"] == 2

    def test_fluent_queries_log_without_sql_text(self, tmp_path):
        with DeepLens(
            tmp_path, clock=StepClock(step=1.0), slow_query_threshold=0.5
        ) as session:
            session.materialize(make_patches(), "c")
            session.scan("c").filter(Attr("score") >= 30).count()
            entry = session.slow_query_log().entries()[0]
            assert entry["sql"] is None
            assert entry["fingerprint"]

    def test_log_persists_across_reopen(self, tmp_path):
        with DeepLens(
            tmp_path, clock=StepClock(step=1.0), slow_query_threshold=1.0
        ) as session:
            session.materialize(make_patches(), "c")
            session.sql("SELECT COUNT(*) FROM c")
        with DeepLens(tmp_path) as reopened:
            rows = reopened.sql("SHOW SLOW QUERIES")
            assert len(rows) == 1
            assert rows[0]["sql"] == "SELECT COUNT(*) FROM c"
            assert rows[0]["span"]["children"]


# -- the statement surface -----------------------------------------------------


class TestShowStatements:
    def test_round_trip(self):
        for text in ("SHOW METRICS", "SHOW SLOW QUERIES"):
            node = parse(text)
            assert node.to_sql() == text
            assert parse(node.to_sql()) == node

    def test_show_metrics_rows(self, db):
        db.sql("SELECT COUNT(*) FROM c")
        rows = db.sql("SHOW METRICS")
        by_name = {row["metric"]: row for row in rows}
        queries = by_name["deeplens_queries_total"]
        assert queries["type"] == "counter"
        assert queries["value"] >= 1
        # histograms flatten to five rows each
        heap_runs = [
            row
            for row in rows
            if row["metric"].startswith("deeplens_heap_run_bytes")
        ]
        assert len(heap_runs) % 5 == 0
        assert all(row["type"] == "histogram" for row in heap_runs)

    def test_show_slow_queries_rows(self, tmp_path):
        with DeepLens(
            tmp_path, clock=StepClock(step=1.0), slow_query_threshold=1.0
        ) as session:
            session.materialize(make_patches(), "c")
            session.sql("SELECT label FROM c LIMIT 3")
            rows = session.sql("SHOW SLOW QUERIES")
            # SHOW SLOW QUERIES itself ran after the entry was cut, so
            # only the SELECT is in it
            assert [row["sql"] for row in rows] == [
                "SELECT label FROM c LIMIT 3"
            ]

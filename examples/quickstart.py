"""Quickstart: ingest a video, run visual ETL, query with the pipeline API.

The minimal end-to-end DeepLens workflow on synthetic CCTV footage:

1. ingest the video under the Segmented File layout (compressed clips
   with coarse temporal push-down);
2. run an ETL pipeline (object detector -> colour-histogram featurizer);
3. materialize the detections (the catalog collects per-attribute
   cardinality statistics — histograms, most-common values, distinct
   sketches — as the patches land) and build a hash index on the label;
4. query with the fluent pipeline API — a brightness UDF map, a label
   filter the rewriter pushes *below* the UDF, ordering, limit, and
   projection — and read the optimizer's explanation, including the
   statistics-backed row estimates behind each plan choice;
5. tune execution: re-run the same query with ``with_execution`` —
   UDF map batches fan out across worker threads (order-preserving,
   results bit-identical to serial) while the storage scan prefetches
   and decodes batches ahead through coalesced ``multi_get`` heap
   reads; ``explain()`` reports the resolved worker count and the
   batch size the planner picked from cardinality estimates;
6. grade the plan with **EXPLAIN ANALYZE**: ``explain(analyze=True)``
   executes the query under per-operator instrumentation and renders
   estimated vs actual rows with the Q-error next to each plan choice —
   plus batch counts, wall time, UDF-cache hits, and index probes. The
   observed cardinalities land in the catalog's plan-quality log and
   feed back as correction factors: the next ``explain()`` of the same
   predicate cites source ``feedback`` instead of the histogram;
7. query the same data with **LensQL**: register the UDF by name and run
   the step-4 query as one SQL string — it binds against the catalog and
   compiles onto the *same* logical plan (identical fingerprint,
   identical rows), so statistics, rewrites, and the executor behave
   identically across both frontends (``EXPLAIN ANALYZE SELECT ...``
   included);
8. aggregate: how many frames contain a vehicle? (the paper's q2) — in
   both forms;
9. metadata-only analytics: scans that never read pixels answer from
   the **columnar metadata segment** beside the blob heap — zero heap
   reads, zero pixel decompression, with per-block zone maps skipping
   provably non-matching blocks. Filters run on the segment's columns
   (only the ones the predicate names are decoded, masked in numpy),
   rows are built for the survivors only, and an aggregate over a bare
   attribute folds the masked column without building a row at all.
   Ask for it explicitly (LensQL ``FROM detections METADATA ONLY``,
   fluent ``load_data=False``) or let the planner flip the scan itself
   when nothing above it reads pixel data — ``explain()`` shows the
   flip, the columns read and the rows materialized; a ``SELECT *``
   no index serves uses the same column pass and then fetches pixel
   records for the matching ids only (``late-materialization``);
10. backtrace one detection to its base frame through lineage: the
   ``ImgRef`` and ``_lineage`` chain are segment columns, so "every
   patch that frame produced" is a pass over the live collections'
   metadata columns — no side index, no pixel read, and rows a
   replace or a view refresh removed never come back;
11. similarity search: ``CREATE INDEX ... USING HNSW`` builds a
   graph-based approximate-nearest-neighbor index over an embedding
   attribute; ``ORDER BY SIMILARITY LIMIT k`` in LensQL (with
   ``query_vector=``) or fluent ``similarity_search(q, k)`` lowers
   onto an ANN top-k access path — a cost-based pick between the HNSW
   graph and the exact scan, with the expected recall at the chosen
   beam width in ``explain()`` and ``SHOW INDEXES`` listing each
   index's build parameters;
12. persist the UDF pipeline as a **materialized view**: later queries
   whose prefix recomputes it are rewritten to scan the view instead
   (cost-based, visible in explain(), and across sessions — the view's
   plan fingerprint lives in the catalog). Adding patches to the base
   marks the view *stale* through lineage versioning; ``refresh_view``
   re-runs only the defining plan. Independently, ``cache=True`` UDF
   results persist through the catalog, so cached inference survives
   reopening the database;
13. observability: every session owns a **metrics registry** — counters,
   gauges, and histograms threaded through the pager, the blob heap,
   the metadata segment, the UDF cache, the optimizer, and the
   executor, on by default. Each query runs under a **tracing span**
   (parse -> bind -> rewrite -> lower -> execute, surviving the worker
   pool) exported as JSON; queries over a configurable threshold land
   in a **slow-query log** persisted through the catalog. Read it all
   from Python (``db.metrics()``, ``db.trace_json()``,
   ``db.metrics_text()`` for Prometheus scrapes) or from LensQL
   (``SHOW METRICS``, ``SHOW SLOW QUERIES``);
14. durability & recovery: every catalog mutation is an atomic
   multi-file commit through a checksummed write-ahead journal — a
   crash at any point reopens in the last committed state. A commit
   costs what it changed: statistics, the metadata segment's open block
   and HNSW graphs persist as a base snapshot plus small deltas
   (``deeplens_snapshot_writes_total{structure, kind}``), not as a
   rewrite per commit. Pages, blob records, and metadata blocks carry
   CRC32s verified on read; corrupt derived state (metadata segment,
   statistics, ANN graphs — base or delta) is quarantined and rebuilt
   from the blob heap, with repairs visible in
   ``db.recovery_report()`` and the journal/corruption counters in
   ``db.metrics()``. Pick the sync policy per session with
   ``DeepLens(workdir, durability="fsync"|"flush"|"none")``.

Run: ``python examples/quickstart.py``
"""

import tempfile

from repro.bench.metrics import Timer
from repro.core import Attr, DeepLens
from repro.datasets import TrafficCamDataset
from repro.etl import HistogramTransformer, ObjectDetectorGenerator, Pipeline
from repro.vision import SyntheticSSD


def add_brightness(patch):
    """A tiny query-time UDF: annotate each detection with its mean level."""
    return patch.derive(patch.data, "brightness", brightness=float(patch.data.mean()))


def main() -> None:
    dataset = TrafficCamDataset(scale=0.004, seed=7)
    print(f"dataset: {dataset.n_frames} frames of synthetic CCTV video")

    pipeline = Pipeline(
        [
            ObjectDetectorGenerator(SyntheticSSD()),
            HistogramTransformer(bins=4, key="hist"),
        ]
    )
    print(f"ETL pipeline: {pipeline}")

    with tempfile.TemporaryDirectory() as workdir, DeepLens(workdir) as db:
        store = db.ingest_video(
            "cam0", dataset.frames(), layout="segmented", clip_len=32
        )
        print(
            f"ingested as segmented clips: {store.n_frames} frames, "
            f"{store.size_bytes / 1e6:.2f} MB on disk"
        )

        with Timer() as etl_timer:
            detections = db.materialize(
                pipeline.run(db.load("cam0")),
                "detections",
                schema=pipeline.output_schema,
            )
        print(f"ETL time: {etl_timer.seconds:.1f}s -> {len(detections)} patches")

        db.create_index("detections", "label", "hash")
        db.create_index("detections", "frameno", "btree")

        # the catalog profiled every attribute at materialize time; the
        # planner estimates cardinalities from these statistics instead
        # of fixed selectivity guesses (and explain() cites its source:
        # histogram, mcv, or fallback-constant)
        stats = db.statistics("detections")
        label_stats = stats.attribute("label")
        print(
            f"\ncollected statistics: {stats.row_count} rows, "
            f"embedding dim {stats.embedding_dim()}, "
            f"label MCVs {label_stats.most_common(2)}"
        )
        est_rows, source = db.optimizer.estimator().filter_rows(
            "detections", Attr("label") == "vehicle"
        )
        print(f"estimated vehicles: {est_rows:.0f} rows (source: {source})")

        # a declarative pipeline: the label filter is written *after* the
        # UDF map, but it does not read the UDF's output, so the rewriter
        # pushes it below the map — the (cheap) index lookup prunes rows
        # before the (expensive) inference runs, and cache=True memoizes
        # UDF results by patch lineage for any later query
        query = (
            db.scan("detections")
            .map(
                add_brightness,
                name="brightness",
                provides={"brightness"},
                one_to_one=True,
                cache=True,
            )
            .filter(Attr("label") == "vehicle")
            .order_by("brightness", reverse=True)
            .limit(5)
            .select("label", "frameno", "brightness")
        )
        print("\nplan chosen by the optimizer:")
        print(query.explain())

        with Timer() as query_timer:
            brightest = query.patches()
        print(
            f"\nbrightest vehicle detections "
            f"({query_timer.seconds * 1000:.1f} ms, batched execution):"
        )
        for patch in brightest:
            print(
                f"  frame {patch['frameno']:>4}  brightness "
                f"{patch['brightness']:.1f}"
            )

        # execution tuning: the same plan, fanned out across 4 worker
        # threads. UDF maps are pure per-row, so ordered dispatch keeps
        # results bit-identical to the serial run; the scan decodes
        # batches ahead of the map (coalesced heap reads overlapping
        # inference). Workers pay off when the UDF releases the GIL —
        # numpy/BLAS kernels, accelerator or RPC inference; and when a
        # pipeline only touches metadata, scan(load_data=False) still
        # beats any worker count by never reading pixels at all. (No
        # timing comparison here: this re-run is served from the UDF
        # cache the serial run above populated — see
        # benchmarks/bench_parallel_pipeline.py for isolated fan-out
        # speedups.)
        parallel = query.with_execution(workers=4, prefetch_batches=2)
        print("\nexecution config (see the 'execution:' line):")
        print(f"  {parallel.explain().execution}")
        parallel_rows = parallel.patches()
        assert [p.patch_id for p in parallel_rows] == [
            p.patch_id for p in brightest
        ]
        print(
            "  workers=4 re-run: rows identical to the serial run "
            "(served from the UDF cache; isolated speedups live in "
            "bench_parallel_pipeline.py)"
        )

        # -- EXPLAIN ANALYZE ------------------------------------------
        # execute the plan under per-operator instrumentation: every
        # operator reports estimated vs actual rows (and the Q-error =
        # max(est/actual, actual/est) grading the estimate), batches,
        # wall time, UDF-cache hits, and index probes. The observed
        # cardinalities are recorded in the catalog's plan-quality log,
        # keyed by the parameterized plan fingerprint, and feed back
        # into the optimizer as per-predicate correction factors.
        analyzed = query.explain(analyze=True)
        print("\nEXPLAIN ANALYZE (estimated vs actual, per operator):")
        for line in analyzed.profile.lines():
            print(f"  {line}")
        after = db.optimizer.estimator().filter_rows(
            "detections", Attr("label") == "vehicle"
        )
        print(
            f"  feedback: vehicles now estimated at {after[0]:.0f} rows "
            f"(source: {after[1]})"
        )

        # -- querying with LensQL -------------------------------------
        # the same query as one declarative string: register the UDF by
        # name (the registry hands BOTH frontends the same function
        # object, so cached inference and view fingerprints are shared),
        # then let the SQL frontend bind collection/attribute/UDF names
        # against the catalog and lower onto the same logical plan IR
        db.register_udf(
            "brightness",
            add_brightness,
            provides={"brightness"},
            one_to_one=True,
            cache=True,
            replace=True,  # shadow the built-in brightness UDF
        )
        sql_query = db.sql_query(
            "SELECT label, frameno, brightness() FROM detections "
            "WHERE label = 'vehicle' ORDER BY brightness DESC LIMIT 5"
        )
        assert sql_query.plan_fingerprint() == query.plan_fingerprint()
        sql_rows = sql_query.patches()
        assert [p.patch_id for p in sql_rows] == [
            p.patch_id for p in brightest
        ]
        print(
            "\nLensQL form of the same query: fingerprint-identical plan, "
            "identical rows"
        )
        # EXPLAIN ANALYZE is a statement too: same instrumented
        # execution, same plan-quality log, from the SQL frontend
        sql_analyzed = db.sql(
            "EXPLAIN ANALYZE SELECT label, frameno, brightness() "
            "FROM detections WHERE label = 'vehicle' "
            "ORDER BY brightness DESC LIMIT 5"
        )
        print("EXPLAIN ANALYZE via LensQL (scan line):")
        print(
            "  "
            + next(l for l in sql_analyzed.profile.lines() if "Scan" in l).strip()
        )
        # DDL and introspection are statements too
        db.sql("CREATE INDEX ON detections (score) USING btree")
        print("SHOW STATS FOR detections (first two attributes):")
        for row in db.sql("SHOW STATS FOR detections")[:2]:
            print(f"  {row}")

        # q2 via the aggregate terminal: frames containing a vehicle
        vehicles = db.scan("detections").filter(Attr("label") == "vehicle")
        n_frames = vehicles.aggregate(
            "distinct_count", key=lambda patch: patch["frameno"]
        )
        truth = len(dataset.frames_with_vehicles())
        print(f"\nq2 answer: {n_frames} frames contain a vehicle")
        print(f"ground truth: {truth} frames")
        sql_answer = db.sql(
            "SELECT COUNT(DISTINCT frameno) FROM detections "
            "WHERE label = 'vehicle'"
        )
        assert sql_answer == n_frames
        print(f"q2 via LensQL: {sql_answer} frames (same plan, same answer)")

        # -- metadata-only analytics ----------------------------------
        # the q2 aggregates above never read pixels, so the planner
        # flipped their scans to the columnar metadata segment on its
        # own — the rewrite note below says so. Asking explicitly works
        # too: METADATA ONLY in LensQL, load_data=False in the fluent
        # API — fingerprint-identical, and the plan touches only the
        # per-attribute arrays beside the blob heap (zone maps skip
        # whole blocks a range predicate rules out)
        lean = db.scan("detections", load_data=False).filter(
            Attr("score") >= 0.5
        )
        sql_lean = db.sql_query(
            "SELECT * FROM detections METADATA ONLY WHERE score >= 0.5"
        )
        assert sql_lean.plan_fingerprint() == lean.plan_fingerprint()
        # the choice names the columns the filter decodes per block
        # ("reading columns [score]") next to the rows it expects to
        # materialize ("~N rows"): everything else stays packed
        print("\nmetadata-only plan (METADATA ONLY / load_data=False):")
        print(f"  chosen: {lean.explain().chosen}")
        # COUNT(*) goes one step further: the "column-fold" note says the
        # count is summed off the filter's mask — 0 rows materialized —
        # and EXPLAIN ANALYZE confirms it ("in 0": no row was built)
        counted = vehicles.aggregate_explain("count", analyze=True)
        for rewrite in counted.rewrites:
            if "metadata-only" in rewrite or "column-fold" in rewrite:
                print(f"  auto-detected for COUNT(*): {rewrite}")
        print(f"  {counted.profile.lines()[0]}")
        # with pixels wanted, a selective filter no index serves still
        # runs on the columns first and fetches pixel records for the
        # matching ids only, instead of decoding every record to test it
        picky = db.scan("detections").filter(
            (Attr("score") >= 0.97) | (Attr("score") < 0.03)
        )
        print(f"  selective SELECT *: {picky.explain().chosen}")
        assert all(p.data.size for p in picky.patches())

        sample = vehicles.first()
        source, frame = db.lineage.backtrace(sample)
        siblings = db.lineage.patches_from_base(source, frame)
        print(
            f"\nlineage: patch {sample.patch_id} backtraces to "
            f"{source!r} frame {frame}; that frame produced "
            f"{len(siblings)} patches in total"
        )

        # -- ANN similarity search ------------------------------------
        # "find detections that look like this one": an HNSW graph
        # index over the colour-histogram vectors turns nearest-neighbor
        # search into graph navigation. Both frontends compile onto the
        # same plan; the optimizer costs the graph probe against the
        # exact scan and explain() shows the pick with its expected
        # recall at the chosen beam width
        db.sql("CREATE INDEX ON detections (hist) USING HNSW (m = 8, ef = 48)")
        probe = sample["hist"]
        lookalike = db.scan("detections").similarity_search(
            probe, 3, attr="hist"
        )
        sql_lookalike = db.sql_query(
            "SELECT * FROM detections ORDER BY SIMILARITY LIMIT 3",
            query_vector=probe,
            vector_attr="hist",
        )
        assert sql_lookalike.plan_fingerprint() == lookalike.plan_fingerprint()
        nearest = lookalike.patches()
        print("\nANN similarity search (HNSW access path):")
        print(f"  chosen: {lookalike.explain().chosen}")
        print(
            f"  3 detections most like patch {sample.patch_id}: "
            f"{[p.patch_id for p in nearest]}"
        )
        hnsw_row = next(
            row for row in db.sql("SHOW INDEXES") if row["kind"] == "hnsw"
        )
        print(f"  SHOW INDEXES: {hnsw_row}")

        # materialize the UDF pipeline as a derived view: the planner now
        # rewrites any query whose prefix recomputes it into a scan of
        # the stored view — chosen cost-based against recomputation (the
        # explain() below shows both costs), and still matched after the
        # database is closed and reopened
        scored = db.scan("detections").map(
            add_brightness,
            name="brightness",
            provides={"brightness"},
            one_to_one=True,
            cache=True,
        )
        db.materialize_view("scored", scored)
        reuse = scored.filter(Attr("label") == "vehicle")
        print("\nplan after materialize_view('scored'):")
        print(reuse.explain())

        # lineage-driven invalidation: mutating the base marks the view
        # (and the base's statistics) stale; refresh re-runs the
        # defining plan — served from the persistent UDF cache for
        # unchanged rows
        db.collection("detections").add(sample.derive(sample.data, "copy"))
        print(
            f"\nafter base add: view stale = {db.view_is_stale('scored')}, "
            f"statistics stale = {db.statistics('detections').stale}"
        )
        db.refresh_view("scored")
        print(f"after refresh_view: view stale = {db.view_is_stale('scored')}")

        # -- observability --------------------------------------------
        # everything above ran under the session's metrics registry:
        # storage, cache, optimizer, and executor counters accumulated
        # as a side effect, at near-zero cost. Snapshot them from
        # Python, render the Prometheus scrape text, or query them as
        # rows through LensQL; the last query's span tree (parse ->
        # bind -> rewrite -> lower -> execute) exports as JSON
        counters = db.metrics()["counters"]
        print("\ntelemetry (a few of the session's counters):")
        for name in (
            "deeplens_queries_total",
            'deeplens_pager_page_reads_total{result="hit"}',
            'deeplens_udf_cache_lookups_total{result="hit"}',
            "deeplens_zonemap_blocks_skipped_total",
        ):
            print(f"  {name} = {counters.get(name, 0)}")
        scrape = db.metrics_text()
        print(f"Prometheus render: {len(scrape.splitlines())} lines")
        db.sql("SELECT COUNT(*) FROM detections WHERE label = 'vehicle'")
        import json

        trace = json.loads(db.trace_json())
        print(
            "last query's span tree: "
            + " -> ".join(child["name"] for child in trace["children"])
        )
        # queries slower than the threshold land in a slow-query log
        # persisted through the catalog (it survives reopening the
        # database); SHOW SLOW QUERIES reads it back as rows
        slow = db.sql("SHOW SLOW QUERIES")
        print(f"slow-query log: {len(slow)} entries over threshold")

        # -- durability & recovery ------------------------------------
        # every catalog mutation above (materialize, index build, view
        # refresh, UDF-cache spill) ran as an atomic multi-file commit:
        # a write-ahead journal (catalog/journal.log) snapshots the
        # pre-state before anything is overwritten, so a crash at ANY
        # point reopens in the last committed state — never a mix.
        # Derived structures (statistics, the metadata segment's open
        # tail, HNSW graphs) are not rewritten per commit: each persists
        # as a full *base* snapshot plus a chain of *deltas* holding only
        # the rows / graph nodes added since, so ``add`` + ``sync`` costs
        # the same at row 200 and at row 200 000; a fresh base replaces
        # a chain once its deltas have grown to the base's size. The
        # deltas are heap appends inside the same journal transaction,
        # so a rolled-back commit takes them with it.
        # Every page, blob record, and metadata block also carries a
        # CRC32 verified on read: silent bit rot in primary data raises
        # a positioned CorruptionError (file + offset), while corrupt
        # *derived* state (a segment block, a base or delta snapshot) is
        # quarantined and rebuilt from the blob heap transparently;
        # db.scrub() sweeps every checksum and walks every chain.
        # The durability= knob picks the sync policy: "fsync" (default,
        # survives power loss), "flush" (survives process crash), or
        # "none" (no journal — benchmarks/throwaway stores).
        report = db.recovery_report()
        snapshot_writes = {
            kind: sum(
                count
                for series, count in db.metrics()["counters"].items()
                if series.startswith("deeplens_snapshot_writes_total")
                and f'kind="{kind}"' in series
            )
            for kind in ("base", "delta")
        }
        print(
            f"\ndurability: journaled commits = "
            f"{counters.get('deeplens_journal_commits_total', 0)}, "
            f"snapshot records = {snapshot_writes}, "
            f"repairs this session = {len(report['events'])}, "
            f"repair history = {len(report['history'])} events"
        )


if __name__ == "__main__":
    main()

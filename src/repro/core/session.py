"""The DeepLens session: the library's top-level API.

One :class:`DeepLens` instance owns a database directory — video stores,
the patch catalog, lineage, indexes — and exposes the workflow of Figure 1:

    ingest (storage layer) -> load -> ETL -> materialize -> query

Queries are fluent pipelines planned through the logical IR
(:mod:`repro.core.logical`): filters, UDF maps, projections, limits,
ordering, similarity joins, and aggregates compose freely, the rewriter
reorders predicates around inference, and execution moves batches of rows
through the physical operators. Access paths and join strategies are
costed against per-collection statistics (histograms, most-common
values, distinct sketches, embedding dims) the catalog collects as
patches materialize — ``explain()`` shows each decision's estimated rows
and the statistic behind it. Example::

    with DeepLens(workdir) as db:
        db.ingest_video("cam0", dataset.frames(), layout="segmented")
        detections = pipeline.run(db.load("cam0"))
        db.materialize(detections, "detections")
        db.create_index("detections", "label", "hash")
        busiest = (
            db.scan("detections")
            .map(score_udf, name="score", provides={"score"}, cache=True)
            .filter(Attr("label") == "vehicle")   # pushed below the UDF
            .order_by("score", reverse=True)
            .limit(10)
            .select("label", "frameno", "score")
            .patches()
        )
        print(db.scan("detections").explain())   # rewrites + plan choices

**Materialized views and persistent inference.** Expensive UDF pipelines
need not recompute per session. ``materialize_view`` persists any
arity-1 pipeline as a named derived view; afterwards every query whose
prefix recomputes the view's definition is rewritten to scan the view
instead — cost-based against recomputation, visible in ``explain()`` —
including in *later sessions* (the view's plan fingerprint persists in
the catalog). Views are invalidated through lineage: adding patches to a
base collection marks dependent views stale, stale views are not used
(pass ``allow_stale()`` to opt in), and ``refresh_view`` re-runs only the
defining plan. Independently, ``cache=True`` map results now land in a
catalog-persisted, lineage-keyed UDF result store (LRU-bounded in memory,
spilled through the kvstore), so cached inference survives reopen for
named module-level UDFs::

    scored = db.scan("detections").map(score_udf, name="score",
                                       provides={"score"}, cache=True)
    db.materialize_view("scored", scored)
    # this session *and* the next: planned as a scan of "scored"
    top = scored.order_by("score", reverse=True).limit(10).patches()
    db.collection("detections").add(new_patch)   # "scored" is now stale
    db.refresh_view("scored")                    # re-runs the defining plan

**LensQL.** Every query above is also one string away:
:meth:`DeepLens.sql` parses the LensQL dialect, binds names against the
catalog and the session's UDF registry (:meth:`DeepLens.register_udf`),
and lowers onto the *same* logical plans the fluent builder makes —
fingerprint-identical, so rewrites, statistics, view matching, and the
parallel executor behave identically across both frontends::

    db.register_udf("score", score_udf, provides={"score"},
                    one_to_one=True, cache=True)
    rows = db.sql(\"\"\"
        SELECT label, frameno, score() FROM detections
        WHERE label = 'vehicle' ORDER BY score DESC LIMIT 10
    \"\"\")
    print(db.sql("EXPLAIN SELECT count(*) FROM detections"))
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.core import logical
from repro.core.catalog import Catalog, MaterializedCollection
from repro.core.executor import ExecutionContext
from repro.core.expressions import Expr
from repro.core.lineage import LineageStore
from repro.core.materialization import (
    MaterializationManager,
    PersistentUDFCache,
    ViewDefinition,
)
from repro.core.metrics import (
    MetricsRegistry,
    SlowQueryLog,
    Span,
    current_span,
    span,
    trace,
)
from repro.core.operators import Operator
from repro.core.optimizer import (
    AggregateExecution,
    CostModel,
    Explanation,
    Optimizer,
    UDFCache,
    plan_pipeline,
)
from repro.core.patch import Patch, Row
from repro.core.profile import PlanQualityLog, RuntimeProfile
from repro.core.schema import PatchSchema
from repro.core.udf import UDFDefinition, attribute_key, default_registry
from repro.errors import QueryError, StorageError
from repro.storage.formats import VideoStore, load_patches, open_store


class DeepLens:
    """A visual data management session over one database directory.

    **Execution tuning.** ``execution`` sets the session-wide engine
    configuration (override per query with
    :meth:`QueryBuilder.with_execution`)::

        db = DeepLens(workdir, execution=ExecutionContext(workers=4))
        rows = db.scan("detections").map(model, name="m").patches()

    * ``workers`` — UDF map batches fan out across this many threads
      (ordered, so results are bit-identical to serial execution: same
      rows, same order, same lineage keys). Threads pay off when the UDF
      releases the GIL — numpy/BLAS kernels, accelerator or RPC
      inference; pure-Python UDFs should stay at ``workers=1``.
    * ``batch_size`` — rows per batch through the whole pipeline, and
      the only place it is set (terminals take no size argument): leave
      ``None`` and the planner picks from cardinality estimates (shown
      in ``explain()``), or pin it to a model's batch contract. Every
      operator — including the maps below a join — pulls its input in
      batches of at most this size.
    * ``prefetch_batches`` — how many batches the storage scan decodes
      ahead of the first UDF map (parallel plans only), overlapping blob
      I/O with inference.

    Orthogonally, ``scan(..., load_data=False)`` still wins whenever the
    pipeline only touches metadata: no worker count beats not reading
    the pixels at all. Metadata-only scans read a columnar metadata
    segment beside the blob heap — zone-mapped attribute blocks, zero
    heap trips, no pixel decompression — and the planner flips eligible
    scans (e.g. under ``COUNT(*)``) to this path automatically; the
    rewrite shows up in ``explain()``. Structural filters run on those
    columns, not on rows: per block only the columns the predicate
    names are decoded and masked in numpy, rows are built for the
    survivors, and with pixels wanted a selective filter fetches the
    matching records by id (``late-materialization``) instead of
    decoding every record to test it.

    **The LensQL dialect** (:meth:`sql` / :meth:`sql_query`):

    .. code-block:: text

        statement   := select | EXPLAIN [ANALYZE] select
                     | CREATE [OR REPLACE] MATERIALIZED VIEW name AS select
                     | REFRESH VIEW name [AS select]
                     | DROP VIEW name
                     | CREATE INDEX ON name '(' name ')'
                       [USING kind ['(' param '=' number, ... ')']]
                     | SHOW COLLECTIONS | SHOW VIEWS | SHOW INDEXES
                     | SHOW STATS FOR name
                     | SHOW METRICS | SHOW SLOW QUERIES
        select      := SELECT items FROM collection [METADATA ONLY]
                       [simjoin] [WHERE expr]
                       [ORDER BY (attr [ASC|DESC] | SIMILARITY)] [LIMIT n]
        items       := '*' | item (',' item)*
        item        := attr | udf '(' ')'                 -- registered UDF map
                     | COUNT '(' '*' ')' | COUNT '(' DISTINCT attr ')'
                     | AVG '(' attr ')' | MIN '(' attr ')' | MAX '(' attr ')'
        simjoin     := SIMILARITY JOIN (collection | '(' select ')')
                       [ON feature_udf] WITHIN number [DIM n] [TOP k]
                       [EXCLUDE SELF]
        expr        := boolean combinations (AND / OR / NOT, parentheses)
                       of: attr op literal | attr BETWEEN lit AND lit
                         | attr IN '(' lit, ... ')' | attr CONTAINS lit
                       (above a join, qualify sides: left.attr / right.attr)
        op          := = | == | != | <> | < | <= | > | >=
        literal     := 'string' | number | -number | TRUE | FALSE | NULL

    ``FROM c METADATA ONLY`` scans the columnar metadata segment instead
    of the blob heap (rows come back data-less) and builds the same plan
    as ``scan(c, load_data=False)`` — fingerprint-identical, so the two
    forms share views and plan-quality history.
    ``SELECT udf()`` applies a registered UDF as a map below the WHERE
    clause (its declared ``provides`` attributes join the projection);
    ``SIMILARITY JOIN ... WITHIN t`` lowers to the same
    ``SimilarityJoin`` node as :meth:`QueryBuilder.similarity_join`
    (``TOP k`` limits the pair stream directly above the join).
    ``ORDER BY SIMILARITY LIMIT k`` orders rows by Euclidean distance
    to a probe vector — vectors have no literal syntax, so pass it as
    ``sql(text, query_vector=..., vector_attr=...)`` — and builds the
    same ANN top-k plan as :meth:`QueryBuilder.similarity_search`
    (fingerprint-identical), served from an HNSW index when the cost
    model prefers it. ``MIN(attr)``/``MAX(attr)`` are terminal
    aggregates that answer from zone-map block statistics when
    provable. ``SHOW INDEXES`` lists every secondary index with its
    kind, build parameters, and indexed row count. Keywords
    are case-insensitive; identifiers may be double-quoted; ``--``
    starts a line comment. Equivalent SQL and fluent pipelines produce
    fingerprint-identical logical plans.

    ``SHOW METRICS`` returns the session's telemetry — one row per
    counter/gauge series, histograms flattened to ``_count``/``_sum``/
    quantile rows — and ``SHOW SLOW QUERIES`` returns the catalog-
    persisted slow-query log (SQL text, fingerprint, seconds, span tree,
    counter deltas), oldest first. See :meth:`metrics`,
    :meth:`metrics_text` (Prometheus text format), :meth:`trace_json`,
    and :meth:`slow_query_log` for the programmatic surfaces.

    **Durability & recovery.** Every catalog mutation (``add``,
    ``materialize``, index builds, view refreshes, stats snapshots) runs
    as an atomic multi-file commit: before any committed page or heap
    byte is overwritten, the pre-state is captured in a checksummed
    commit journal (``catalog/journal.log``). If the process dies
    mid-mutation, the next open replays the journal — restoring page
    before-images and truncating the append-only heaps back to their
    recorded ends — so the store reopens in exactly the pre-mutation
    state (all-or-nothing, never a mix). A commit writes what changed:
    statistics, the metadata segment's descriptor (its open block's rows
    packed like a sealed block's) and HNSW graphs persist as a base
    snapshot plus a chain of deltas through one
    :class:`~repro.storage.snapshot_store.SnapshotStore` (counted in
    ``deeplens_snapshot_writes_total{structure, kind}``). Every pager
    page, blob-heap record, and metadata-segment block also carries a
    CRC32 checksum verified on read; silent corruption raises
    :class:`~repro.errors.CorruptionError` naming the file and offset.
    Corruption in *derived* state degrades gracefully: a bad
    ``metadata.seg`` block or a damaged base or delta snapshot is
    quarantined and rebuilt from the blob heap (the source of truth), the
    rebuild counted in :meth:`metrics` (``deeplens_segment_rebuilds_
    total``, ``deeplens_corruption_detected_total``). Corruption in the
    blob heap itself — primary data — is surfaced, never papered over.

    The ``durability`` knob picks the sync policy at each commit
    barrier: ``"fsync"`` (default — flush + ``os.fsync``, survives
    power loss), ``"flush"`` (flush to the OS only, survives process
    crash but not power loss), or ``"none"`` (no journal at all — the
    pre-journal behavior, for benchmarks and throwaway stores).
    :meth:`recovery_report` shows what the last open repaired, plus a
    bounded history of past repairs persisted in the catalog.
    """

    def __init__(
        self,
        workdir: str | os.PathLike,
        *,
        execution: ExecutionContext | None = None,
        metrics_enabled: bool = True,
        slow_query_threshold: float | None = None,
        clock: Callable[[], float] | None = None,
        durability: str = "fsync",
        fs=None,
    ) -> None:
        self.workdir = os.fspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        #: engine-wide telemetry: every layer below reports into this
        #: registry. ``metrics_enabled=False`` swaps in no-op instruments
        #: (the A/B baseline the observability benchmark measures).
        self.metrics_registry = MetricsRegistry(enabled=metrics_enabled)
        #: clock behind query root spans and the slow-query threshold —
        #: injectable so threshold tests never sleep
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        self._slow_query_threshold = slow_query_threshold
        self._metric_queries = self.metrics_registry.counter(
            "deeplens_queries_total", "queries executed"
        )
        self._metric_slow_queries = self.metrics_registry.counter(
            "deeplens_slow_queries_total",
            "queries recorded in the slow-query log",
        )
        #: span tree of the most recent top-level query (JSON-able dict)
        self._last_trace: dict | None = None
        #: session-wide execution configuration (workers, batch size,
        #: prefetch); queries override it via ``with_execution``
        base_execution = execution if execution is not None else ExecutionContext()
        self.execution = base_execution.with_metrics(self.metrics_registry)
        self.catalog = Catalog(
            os.path.join(self.workdir, "catalog"),
            metrics=self.metrics_registry,
            durability=durability,
            fs=fs,
        )
        self.optimizer = Optimizer(
            self.catalog, CostModel(), metrics=self.metrics_registry
        )
        #: lineage-keyed memo for cache=True query UDFs — LRU in memory,
        #: spilled through the catalog so results survive sessions
        self.udf_cache: UDFCache = PersistentUDFCache(
            self.catalog, metrics=self.metrics_registry
        )
        #: materialized-view registry + the planner's view-matching hook
        self.materialization = MaterializationManager(
            self.catalog,
            self.optimizer,
            self.udf_cache,
            self.execution,
            metrics=self.metrics_registry,
        )
        #: named-UDF registry shared by LensQL and the fluent API,
        #: auto-seeded with the built-in vision-model UDFs
        self.udfs = default_registry()
        self._videos: dict[str, VideoStore] = {}
        self._video_dir = os.path.join(self.workdir, "videos")
        # ingested videos, ``name -> {"layout", "kwargs"}``, saved in full
        # on one snapshot chain (it is tiny). It is not derived state, so
        # a corrupt snapshot raises
        registry = self.catalog.snapshots.load(("videos",), dict)
        self._video_registry: dict = {} if registry is None else registry

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        for store in self._videos.values():
            store.close()
        self._videos.clear()
        self.catalog.close()

    def __enter__(self) -> "DeepLens":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- storage layer ----------------------------------------------------

    def ingest_video(
        self,
        name: str,
        frames: Iterable[np.ndarray],
        *,
        layout: str = "segmented",
        **layout_kwargs,
    ) -> VideoStore:
        """Store a frame stream under one of the physical layouts."""
        if name in self._video_registry:
            raise StorageError(f"video {name!r} already ingested")
        store = open_store(layout, self._video_dir, name, **layout_kwargs)
        store.ingest(frames)
        self._videos[name] = store
        self._video_registry[name] = {"layout": layout, "kwargs": layout_kwargs}
        self.catalog.persist(("videos",), self._video_registry)
        return store

    def video(self, name: str) -> VideoStore:
        """The store for an ingested video (reopened on demand)."""
        if name in self._videos:
            return self._videos[name]
        try:
            entry = self._video_registry[name]
        except KeyError:
            raise StorageError(
                f"no video {name!r}; have {sorted(self._video_registry)}"
            ) from None
        store = open_store(
            entry["layout"], self._video_dir, name, **dict(entry["kwargs"])
        )
        self._videos[name] = store
        return store

    def videos(self) -> list[str]:
        return sorted(self._video_registry)

    def load(self, video_name: str, filter: Expr | None = None) -> Iterator[Patch]:
        """The Load API (Section 3.1): whole-frame patches with push-down."""
        return load_patches(self.video(video_name), video_name, filter)

    # -- materialization & indexes ----------------------------------------

    def materialize(
        self,
        patches: Iterable[Patch],
        name: str,
        schema: PatchSchema | None = None,
        *,
        replace: bool = False,
    ) -> MaterializedCollection:
        return self.catalog.materialize(patches, name, schema, replace=replace)

    def collection(self, name: str) -> MaterializedCollection:
        return self.catalog.collection(name)

    def create_index(
        self,
        collection: str,
        attr: str,
        kind: str,
        *,
        feature_fn: Callable[[Patch], np.ndarray] | None = None,
        multi_value: bool = False,
        params: dict | None = None,
    ):
        """Build a secondary index (see :meth:`Catalog.create_index` for
        the kinds). For ``kind="hnsw"`` — the approximate-nearest-
        neighbor graph behind :meth:`QueryBuilder.similarity_search` —
        ``params`` carries the build knobs: ``m`` (graph degree),
        ``ef_construction`` (build beam width), ``ef``/``ef_search``
        (default search beam width) and ``seed``."""
        return self.catalog.create_index(
            collection,
            attr,
            kind,
            feature_fn=feature_fn,
            multi_value=multi_value,
            params=params,
        )

    def statistics(self, collection_name: str):
        """Cardinality statistics collected for a materialized collection
        (histograms, most-common values, distinct sketches, embedding
        dims) — what the planner's estimates and ``explain()`` rest on.
        The returned object's ``stale`` flag is True when patches were
        added after the collection's last full materialization (its
        ``staleness`` counter says how many) — the same mutation signal
        that invalidates dependent materialized views. None for
        collections materialized before statistics existed."""
        return self.catalog.statistics_for(collection_name)

    # -- materialized views ----------------------------------------------

    def materialize_view(
        self, name: str, query: "QueryBuilder", *, replace: bool = False
    ) -> MaterializedCollection:
        """Persist a query pipeline as a named derived view.

        The result is a real collection (scannable, indexable, profiled)
        plus a registered definition: any later query whose prefix
        recomputes this pipeline is rewritten to scan the view instead —
        cost-based against recomputation, across sessions — until a base
        collection mutates (then the view is stale; see
        :meth:`refresh_view`).
        """
        return self.materialization.materialize_view(
            name, query, replace=replace
        )

    def refresh_view(
        self, name: str, query: "QueryBuilder | None" = None
    ) -> MaterializedCollection:
        """Re-run a view's defining plan (after base mutations made it
        stale). In a fresh session pass the defining query back in; it is
        verified against the stored fingerprint."""
        return self.materialization.refresh_view(name, query)

    def drop_view(self, name: str) -> None:
        """Unregister a materialized view (its backing collection stays)."""
        self.materialization.drop_view(name)

    def views(self) -> list[str]:
        """Names of registered materialized views."""
        return self.materialization.views()

    def view(self, name: str) -> ViewDefinition:
        """A view's persisted definition (fingerprint, lineage, freshness)."""
        return self.materialization.view(name)

    def view_is_stale(self, name: str) -> bool:
        """True when a base collection changed since the view was built."""
        return self.materialization.is_stale(name)

    def rebuild_statistics(self, collection_name: str):
        """Recompute a collection's statistics from a full scan (for
        databases that predate statistics collection)."""
        return self.catalog.rebuild_statistics(collection_name)

    @property
    def lineage(self) -> LineageStore:
        """Lineage queries — patches by base frame, children and
        descendants by parent id — answered off the live collections'
        metadata segments, so a replaced row is never in an answer."""
        return self.catalog.lineage

    # -- plan quality -----------------------------------------------------

    def plan_quality_log(self) -> PlanQualityLog:
        """The catalog-persisted estimate-vs-actual history that
        ``explain(analyze=True)`` / ``EXPLAIN ANALYZE`` runs feed.

        Keyed by *parameterized* plan fingerprint (literals blanked), so
        repeated executions of the same plan shape accumulate one
        history. The log doubles as the optimizer's feedback store:
        observed filter selectivities become per-predicate correction
        factors that :meth:`CardinalityEstimator.selectivity` consults
        before the histogram/MCV path (source ``feedback`` in
        ``explain()``)."""
        return self.catalog.plan_quality_log()

    # -- telemetry --------------------------------------------------------

    def metrics(self) -> dict:
        """Point-in-time snapshot of every engine counter, gauge, and
        histogram summary — plain dicts, safe to hold and diff."""
        return self.metrics_registry.snapshot()

    def metrics_text(self) -> str:
        """The session's metrics in Prometheus text exposition format —
        the payload a ``/metrics`` endpoint would serve unchanged."""
        return self.metrics_registry.render_prometheus()

    def recovery_report(self) -> dict:
        """What opening this store repaired: ``{"events": [...],
        "history": [...]}``. ``events`` are repairs performed by *this*
        session (journal replays, quarantined segments, rebuilt stats);
        ``history`` is the bounded repair log persisted in the catalog
        across sessions."""
        return self.catalog.recovery_report()

    def scrub(self) -> dict:
        """On-demand integrity sweep: re-verify every checksum in the
        store — pager pages, blob-heap records, metadata-segment blocks —
        without waiting for a query to stumble over damage.

        Returns ``{"pages_checked", "records_checked", "blocks_checked",
        "errors": [...]}`` where each error names the file, offset, and
        detail. Findings are also counted in
        ``deeplens_corruption_detected_total`` and recorded as
        ``scrub_corruption`` events in :meth:`recovery_report` — the
        same surfaces crash recovery reports through."""
        return self.catalog.scrub()

    def trace_json(self) -> str | None:
        """The span tree of the most recent top-level query as JSON
        (parse -> bind -> rewrite -> lower -> execute), or None before
        the first query."""
        if self._last_trace is None:
            return None
        return json.dumps(self._last_trace)

    def slow_query_log(self) -> SlowQueryLog:
        """The catalog-persisted slow-query log. Entries survive reopen;
        a ``slow_query_threshold`` passed to this session overrides the
        persisted threshold for queries run here."""
        log = self.catalog.slow_query_log()
        if self._slow_query_threshold is not None:
            log.threshold_seconds = float(self._slow_query_threshold)
        return log

    @contextmanager
    def _query_scope(self, *, sql: str | None = None) -> Iterator[Span | None]:
        """Root-trace scope around one user-level query.

        Opens the ``query`` root span, counts the query, reads the counter
        totals before and after the execution, and feeds the slow-query log
        (with the counters that moved) when
        the root span crosses the threshold. Nested entries (a terminal
        driven by ``sql()``, a view build inside a query) detect the
        already-open trace and become transparent — one root per
        user-level query.
        """
        if current_span() is not None:
            yield None
            return
        before = self.metrics_registry.counter_totals()
        with trace("query", clock=self._clock) as root:
            if sql is not None:
                root.attrs["sql"] = sql
            try:
                yield root
            finally:
                root.finish()
                after = self.metrics_registry.counter_totals()
                self._metric_queries.inc()
                self._last_trace = root.to_dict()
                log = self.slow_query_log()
                # the deltas are assembled only for a query the log keeps
                if log.accepts(root.duration_s):
                    log.record(
                        sql=root.attrs.get("sql"),
                        fingerprint=root.attrs.get("fingerprint"),
                        seconds=root.duration_s,
                        span=self._last_trace,
                        counters={
                            name: value - before.get(name, 0)
                            for name, value in after.items()
                            if value != before.get(name, 0)
                        },
                    )
                    self._metric_slow_queries.inc()

    # -- UDF registry -----------------------------------------------------

    def register_udf(
        self,
        name: str,
        fn: Callable[[Patch], Patch | list[Patch] | None],
        *,
        batch_fn: Callable[[list[Patch]], list] | None = None,
        provides: Iterable[str] | None = None,
        one_to_one: bool = False,
        cache: bool = False,
        replace: bool = False,
    ) -> UDFDefinition:
        """Register a UDF addressable by name from LensQL *and* the
        fluent API (``query.map("name")``).

        The registry stores the function object itself, so both
        frontends share one identity: plan fingerprints (materialized-
        view matching) and lineage-keyed UDF cache entries — including
        the catalog-persisted tier for named module-level functions —
        are interchangeable across SQL and fluent queries. ``provides``/
        ``one_to_one``/``cache`` carry the same contracts as
        :meth:`QueryBuilder.map`. In SQL, ``SELECT name()`` applies the
        UDF as a map, and ``SIMILARITY JOIN ... ON name`` uses ``fn`` as
        the join's feature extractor (it should return a vector then).
        """
        return self.udfs.register(
            name,
            fn,
            batch_fn=batch_fn,
            provides=None if provides is None else frozenset(provides),
            one_to_one=one_to_one,
            cache=cache,
            replace=replace,
        )

    # -- LensQL ----------------------------------------------------------

    def sql(
        self,
        text: str,
        *,
        query_vector: Any = None,
        vector_attr: str | None = None,
    ) -> Any:
        """Parse, bind, and execute one LensQL statement.

        The result depends on the statement (see the class docstring for
        the grammar): ``SELECT`` returns patches (rows of pairs after a
        similarity join, a scalar for aggregates); ``EXPLAIN`` returns
        the :class:`~repro.core.optimizer.Explanation` (``EXPLAIN
        ANALYZE`` additionally *executes* the plan and attaches the
        per-operator runtime profile — estimated vs actual rows and
        Q-error); ``CREATE
        MATERIALIZED VIEW`` / ``REFRESH VIEW`` return the backing
        collection; ``CREATE INDEX`` returns the index; ``SHOW ...``
        returns a list of dicts; ``DROP VIEW`` returns None. Malformed
        text raises :class:`~repro.errors.ParseError`, unknown names
        :class:`~repro.errors.BindError` — both positioned, with a
        caret-annotated excerpt.

        ``query_vector`` supplies the probe vector an ``ORDER BY
        SIMILARITY`` clause binds against (vectors have no literal
        syntax); ``vector_attr`` names the metadata attribute holding
        the indexed embeddings (default: the patch data itself).
        """
        with self._query_scope(sql=text):
            return self._bind_sql(
                text, query_vector=query_vector, vector_attr=vector_attr
            ).execute()

    def sql_query(
        self,
        text: str,
        *,
        query_vector: Any = None,
        vector_attr: str | None = None,
    ) -> "QueryBuilder":
        """Compile a LensQL ``SELECT`` into its :class:`QueryBuilder`
        without executing — the bridge between frontends: inspect
        ``explain()``, extend it fluently, or pass it to
        :meth:`materialize_view`. Aggregate selects have no builder
        surface for the terminal, so they are rejected here (use
        :meth:`sql`)."""
        from repro.core.sql import BoundSelect

        bound = self._bind_sql(
            text, query_vector=query_vector, vector_attr=vector_attr
        )
        if not isinstance(bound, BoundSelect):
            raise QueryError(
                "sql_query() takes a SELECT statement; use sql() for "
                "DDL/EXPLAIN/SHOW"
            )
        if bound.aggregate is not None:
            raise QueryError(
                "sql_query() cannot return a builder for an aggregate "
                "select (the terminal is part of the statement); use "
                "sql() to execute it"
            )
        return bound.builder

    def _bind_sql(
        self,
        text: str,
        *,
        query_vector: Any = None,
        vector_attr: str | None = None,
    ):
        from repro.core.sql import Binder, parse

        with span("parse"):
            statement = parse(text)
        with span("bind"):
            return Binder(
                self,
                text,
                query_vector=query_vector,
                vector_attr=vector_attr,
            ).bind(statement)

    # -- querying -----------------------------------------------------------

    def scan(self, collection_name: str, *, load_data: bool = True) -> "QueryBuilder":
        """Start a query over a materialized collection.

        ``load_data=False`` scans metadata only (patches come back with
        empty ``data``) — the fast path for label/frameno-style queries.
        """
        return QueryBuilder(
            self,
            collection_name,
            logical.Scan(collection_name, load_data=load_data),
        )


class QueryBuilder:
    """Fluent query pipeline over one collection, optimizer-planned.

    Each call appends a node to a logical plan; every terminal hands
    the plan to one driver that plans it (rewrite -> lower -> physical
    operators) and pulls batches from the physical root. The builder is
    immutable-ish: every call returns a new builder, so partial
    pipelines can be shared and extended safely.
    """

    def __init__(
        self,
        session: DeepLens,
        collection_name: str,
        plan: logical.LogicalPlan | None = None,
        *,
        allow_stale: bool = False,
        execution: ExecutionContext | None = None,
    ) -> None:
        self.session = session
        self.collection_name = collection_name
        self._plan = plan if plan is not None else logical.Scan(collection_name)
        self._allow_stale = allow_stale
        #: per-query execution override; None inherits the session's
        #: context at plan time
        self._execution = execution

    def _extend(self, plan: logical.LogicalPlan) -> "QueryBuilder":
        return QueryBuilder(
            self.session,
            self.collection_name,
            plan,
            allow_stale=self._allow_stale,
            execution=self._execution,
        )

    def allow_stale(self, allowed: bool = True) -> "QueryBuilder":
        """Let the planner reuse *stale* materialized views (a base
        collection changed since the view was built). Default off: stale
        views are recomputed from their bases instead."""
        return QueryBuilder(
            self.session,
            self.collection_name,
            self._plan,
            allow_stale=allowed,
            execution=self._execution,
        )

    def with_execution(
        self,
        *,
        workers: int | None = None,
        batch_size: int | None = None,
        prefetch_batches: int | None = None,
    ) -> "QueryBuilder":
        """Override the session's execution configuration for this query.

        ``workers`` > 1 fans UDF map batches across a thread pool
        (order-preserving) and prefetches storage batches ahead of the
        first map; ``batch_size`` pins the pipeline batch size the
        planner would otherwise pick from cardinality estimates;
        ``prefetch_batches`` sets the scan-side prefetch depth. Knobs
        left ``None`` keep their current values.
        """
        return QueryBuilder(
            self.session,
            self.collection_name,
            self._plan,
            allow_stale=self._allow_stale,
            execution=self.execution_context().override(
                workers=workers,
                batch_size=batch_size,
                prefetch_batches=prefetch_batches,
            ),
        )

    def execution_context(self) -> ExecutionContext:
        """The execution configuration this query will plan under."""
        return (
            self._execution
            if self._execution is not None
            else self.session.execution
        )

    # -- pipeline stages --------------------------------------------------

    def filter(self, expr: Expr, *, on: int = 0) -> "QueryBuilder":
        """Keep rows whose patch satisfies ``expr``; chained calls AND.

        After a join, rows are (left, right) pairs and the predicate is
        evaluated on one side only: ``on=0`` (the left patch, default) or
        ``on=1`` (the right). Filter both sides with two calls.
        """
        return self._extend(logical.Filter(self._plan, expr, on=on))

    def map(
        self,
        fn: Callable[[Patch], Patch | list[Patch] | None] | str,
        *,
        name: str | None = None,
        provides: Iterable[str] | None = None,
        batch_fn: Callable[[list[Patch]], list] | None = None,
        one_to_one: bool = False,
        cache: bool | None = None,
    ) -> "QueryBuilder":
        """Apply a UDF (one patch -> patch / list / None).

        ``fn`` may be a **registered UDF name** (see
        :meth:`DeepLens.register_udf`): the map then uses the registry's
        function object and contracts, exactly as the SQL frontend does,
        so both forms build fingerprint-identical plans and share cache
        entries. With a name, only ``cache`` may be overridden — the
        other contracts belong to the registration.

        ``provides`` declares the UDF's metadata contract — it writes
        exactly these attributes and passes all others through unchanged
        (as ``patch.derive(...)`` does) — so the rewriter knows which
        later filters commute below it. Only declare it when that holds;
        a UDF that builds fresh patches or drops attributes must leave
        it ``None`` (undeclared), which keeps every later filter above
        the map. ``batch_fn`` gives batched execution a vectorized
        implementation; ``cache=True`` memoizes results by patch lineage
        id in the session's :class:`UDFCache`.
        """
        if isinstance(fn, str):
            if name is not None or provides is not None or batch_fn is not None or one_to_one:
                raise QueryError(
                    f"map({fn!r}) resolves its contracts from the UDF "
                    f"registry; only 'cache' may be overridden"
                )
            definition = self.session.udfs.get(fn)
            return self._extend(
                logical.Map(
                    self._plan,
                    definition.fn,
                    name=definition.name,
                    provides=definition.provides,
                    batch_fn=definition.batch_fn,
                    one_to_one=definition.one_to_one,
                    cache=definition.cache if cache is None else cache,
                )
            )
        return self._extend(
            logical.Map(
                self._plan,
                fn,
                name=name if name is not None else "udf",
                provides=None if provides is None else frozenset(provides),
                batch_fn=batch_fn,
                one_to_one=one_to_one,
                cache=bool(cache),
            )
        )

    def select(self, *attrs: str, keep_data: bool = False) -> "QueryBuilder":
        """Project each patch down to the listed metadata attributes."""
        if not attrs:
            raise QueryError("select() needs at least one attribute")
        return self._extend(logical.Project(self._plan, attrs, keep_data=keep_data))

    def limit(self, n: int) -> "QueryBuilder":
        """Emit at most ``n`` rows."""
        return self._extend(logical.Limit(self._plan, n))

    def order_by(self, attr: str, *, reverse: bool = False) -> "QueryBuilder":
        """Sort by a metadata attribute; missing attributes raise at
        execution time."""
        return self._extend(logical.OrderBy(self._plan, attr, reverse=reverse))

    def similarity_join(
        self,
        other: "QueryBuilder | str",
        *,
        threshold: float,
        features: Callable[[Patch], np.ndarray] | None = None,
        dim: int | None = None,
        exclude_self: bool = False,
    ) -> "QueryBuilder":
        """Join with ``other`` on feature distance <= ``threshold``.

        The optimizer picks nested-loop vs Ball-tree (and the build side)
        from the cost model; rows become (left, right) patch pairs, so
        use :meth:`rows` / :meth:`count` rather than :meth:`patches`.
        """
        if isinstance(other, str):
            other = self.session.scan(other)
        return self._extend(
            logical.SimilarityJoin(
                self._plan,
                other._plan,
                threshold=threshold,
                features=features,
                dim=dim,
                exclude_self=exclude_self,
            )
        )

    def similarity_search(
        self,
        query: "np.ndarray | Iterable[float]",
        k: int,
        *,
        attr: str | None = None,
    ) -> "QueryBuilder":
        """Top-k nearest rows to ``query`` by Euclidean distance.

        Appends ``ORDER BY similarity LIMIT k`` to the pipeline — the
        logical pattern the rewriter collapses to an ANN top-k node, so
        the planner can serve it from an HNSW graph (approximate, with
        the expected recall shown in ``explain()``), a Ball-tree
        (exact), or a brute-force distance scan — whichever the cost
        model picks for this collection. ``attr`` names the metadata
        attribute holding the embeddings; omitted, the patch pixel data
        itself is the vector (matching ``create_index(..., "hnsw")``
        with no ``feature_fn``). Results come back nearest first.

        The SQL spelling — ``SELECT * FROM c ORDER BY SIMILARITY LIMIT
        k`` with ``query_vector=`` passed to :meth:`DeepLens.sql` —
        builds a fingerprint-identical plan.
        """
        vector = tuple(float(x) for x in np.asarray(query, dtype=np.float64).ravel())
        if not vector:
            raise QueryError("similarity_search() needs a non-empty query vector")
        ordered = logical.OrderBy(
            self._plan, "similarity", vector=vector, vector_attr=attr
        )
        return self._extend(logical.Limit(ordered, int(k)))

    # -- planning -----------------------------------------------------------

    def _physical(
        self,
        plan: logical.LogicalPlan,
        profile: RuntimeProfile | None = None,
    ) -> tuple[Operator | AggregateExecution, Explanation]:
        execution = self.execution_context()
        return plan_pipeline(
            self.session.optimizer,
            plan,
            udf_cache=self.session.udf_cache,
            views=self.session.materialization,
            allow_stale=self._allow_stale,
            execution=(
                execution if profile is None else execution.with_profile(profile)
            ),
        )

    def plan(self) -> tuple[Operator, Explanation]:
        operator, explanation = self._physical(self._plan)
        assert isinstance(operator, Operator)  # Aggregate only via aggregate()
        return operator, explanation

    def _run(
        self,
        plan: logical.LogicalPlan,
        *,
        terminal: str | None = None,
        analyze: bool = False,
    ) -> Any:
        """The one terminal driver: query scope -> plan -> execute.

        Runs any logical plan at the planner-resolved batch size (see
        ``ExecutionContext.batch_size``) and returns its rows, or the
        reduced value when ``plan`` is rooted at an ``Aggregate``.
        ``terminal`` names a caller that needs arity-1 rows. With
        ``analyze`` the plan runs under a :class:`RuntimeProfile`, the
        output is discarded as it streams, and the graded
        :class:`Explanation` is returned (and recorded in the session's
        plan-quality log) instead.
        """
        profile = RuntimeProfile() if analyze else None
        with self.session._query_scope() as root:
            physical, explanation = self._physical(plan, profile)
            if terminal is not None and physical.arity != 1:
                raise QueryError(
                    f"{terminal}() needs arity-1 rows; this operator yields "
                    f"{physical.arity}-tuples — use rows()"
                )
            self._annotate(root, plan)
            size = explanation.execution.batch_size
            result = None
            with span("execute"):
                if isinstance(physical, AggregateExecution):
                    result = physical.execute(size)
                elif analyze:
                    for _ in physical.iter_batches(size):
                        pass
                else:
                    result = [
                        row
                        for batch in physical.iter_batches(size)
                        for row in batch
                    ]
            if profile is None:
                return result
            profile.finish()
            explanation.profile = profile
            if profile.entries:
                self.session.plan_quality_log().record(
                    logical.plan_parameterized_fingerprint(plan), profile
                )
            return explanation

    def explain(self, *, analyze: bool = False) -> Explanation:
        """The planner's reasoning for this pipeline.

        ``analyze=True`` additionally *executes* the plan under runtime
        instrumentation and attaches a per-operator profile to the
        explanation: estimated vs actual rows and the Q-error next to
        each plan choice, plus batch counts, wall time, UDF-cache hits,
        and index probes. The observed cardinalities are recorded in the
        session's :meth:`DeepLens.plan_quality_log`, where they feed
        back as correction factors for later estimates of the same
        predicates.
        """
        if analyze:
            return self._run(self._plan, analyze=True)
        return self._physical(self._plan)[1]

    def logical_plan(self) -> logical.LogicalPlan:
        """The (un-rewritten) logical plan built so far."""
        return self._plan

    def plan_fingerprint(self) -> str:
        """Structural fingerprint of the logical plan built so far —
        what the SQL/fluent equivalence tests and the view matcher
        compare. Equivalent LensQL statements compile to plans with this
        same fingerprint."""
        return logical.plan_fingerprint(self._plan)

    # -- terminals ------------------------------------------------------

    @staticmethod
    def _annotate(root: "Span | None", plan: logical.LogicalPlan) -> None:
        """Stamp the parameterized plan fingerprint onto the query's root
        span (the one this terminal opened, or — when a ``sql()`` scope
        is already open — the active span) for the slow-query log."""
        target = root if root is not None else current_span()
        if target is not None and "fingerprint" not in target.attrs:
            target.attrs["fingerprint"] = (
                logical.plan_parameterized_fingerprint(plan)
            )

    def patches(self) -> list[Patch]:
        """Collect single-patch rows. Execution is batched at the size
        the planner resolved (shown in ``explain()``); pin it with
        ``with_execution(batch_size=...)``."""
        return [row[0] for row in self._run(self._plan, terminal="patches")]

    def rows(self) -> list[Row]:
        """Collect rows of any arity (pairs after a similarity join)."""
        return self._run(self._plan)

    def count(self) -> int:
        # planned as a terminal Aggregate(count) — not a row collection —
        # so the planner can flip the scan underneath to the metadata
        # segment (counting never needs pixel data)
        return self.aggregate("count")

    def aggregate(
        self,
        kind: str,
        *,
        key: Callable[[Patch], Any] | None = None,
        reducer: Callable[[list], Any] = len,
    ) -> Any:
        """Run a terminal aggregate over the pipeline.

        ``kind``: ``count``, ``distinct_count`` (needs ``key``), ``avg``
        / ``min`` / ``max`` (need ``key``; empty input yields None), or
        ``group`` (needs ``key``; ``reducer`` folds each group's rows).
        Over a bare metadata-attribute key, ``min``/``max`` are answered
        from the segment's zone-map block statistics when provable —
        zero blocks decoded (the short-circuit shows in ``explain()``).
        Directly over a filtered scan, ``count`` and every kind keyed by
        :func:`~repro.core.udf.attribute_key` (``group`` with the
        ``len`` reducer) fold the filter's mask and the key's column —
        no row is materialized (``column-fold`` in ``explain()``).
        """
        return self._run(
            logical.Aggregate(self._plan, kind, key=key, reducer=reducer)
        )

    def aggregate_explain(
        self,
        kind: str,
        *,
        key: Callable[[Patch], Any] | None = None,
        reducer: Callable[[list], Any] = len,
        analyze: bool = False,
    ) -> Explanation:
        """The planner's explanation for this pipeline under a terminal
        aggregate (what ``EXPLAIN SELECT count(*) ...`` shows).
        ``analyze=True`` executes the aggregate under instrumentation
        and attaches the runtime profile, as :meth:`explain` does."""
        plan = logical.Aggregate(self._plan, kind, key=key, reducer=reducer)
        if analyze:
            return self._run(plan, analyze=True)
        return self._physical(plan)[1]

    def distinct_count(self, key: Callable[[Patch], object]) -> int:
        return self.aggregate("distinct_count", key=key)

    def avg(self, key: Callable[[Patch], Any]) -> float | None:
        """Mean of ``key`` over the pipeline's rows (None when empty)."""
        return self.aggregate("avg", key=key)

    def min_of(self, attr: str) -> Any:
        """Smallest non-None value of a metadata attribute (None when
        empty). Served from zone-map block statistics when provable."""
        return self.aggregate("min", key=attribute_key(attr))

    def max_of(self, attr: str) -> Any:
        """Largest non-None value of a metadata attribute (None when
        empty). Served from zone-map block statistics when provable."""
        return self.aggregate("max", key=attribute_key(attr))

    def first(self) -> Patch:
        """The pipeline's first patch — ``limit(1)``, so the scan
        underneath fetches one row unless a sort sits in between."""
        limited = self.limit(1)
        for (patch,) in limited._run(limited._plan, terminal="first"):
            return patch
        raise QueryError(
            f"query over {self.collection_name!r} returned no patches"
        )

"""The per-layer side of the benchmark: which engine callables the traced
pass wraps, and how span self-times and engine counters become the
per-layer metrics listed in ``BENCHMARK.json``.

Layers are this repo's module names. Times are self time over one traced
round; counts come from the same wrappers or from deltas of the engine's
own ``deeplens_*`` counters, and repeat exactly from run to run.
"""

from __future__ import annotations

import os
import statistics

from repro.core import catalog, materialization, patch, session, sql, statistics as core_statistics
from repro.core.lineage import LineageStore
from repro.etl import pipeline as etl_pipeline
from repro.etl.generators import ObjectDetectorGenerator
from repro.etl.transformers import DepthTransformer, HistogramTransformer
from repro.indexes.balltree import BallTree
from repro.indexes.hnsw import HNSWIndex
from repro.indexes.rtree import RTree
from repro.indexes.single_dim import HashIndex
from repro.storage.codecs import H264LikeCodec
from repro.storage.formats.segmented_file import SegmentedFile
from repro.storage.journal import CommitJournal
from repro.storage.kvstore import BlobHeap, BPlusTree, Pager, serialization
from repro.storage.metadata_segment import CollectionSegment, MetadataSegmentStore

from .tracer import OP_SPAN, Tracer, Wrappers

#: every op class of the four workloads, in workload order
OP_CLASSES = (
    "etl_clip", "build_rtree", "build_balltree", "build_hnsw",
    "materialize_view", "rebuild_stats", "reopen_first_query",
    "point_lookup", "range_select", "udf_cold", "udf_warm", "view_served", "full_scan",
    "zone_window", "minmax", "explain_only", "agg_scan", "order_limit",
    "ann_topk", "ann_append", "exact_topk", "sim_join",
)

#: span names folded into each time metric (seconds of self time)
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "core.sql.parse_s": ("core.sql.parse",),
    "core.sql.bind_s": ("core.sql.bind",),
    "core.optimizer.plan_s": ("core.optimizer.plan",),
    "core.operators.glue_s": (OP_SPAN,),
    "core.udf.call_s": ("core.udf.call",),
    "core.catalog.add_s": ("core.catalog.add",),
    "core.catalog.get_many_s": ("core.catalog.get_many",),
    "core.catalog.sync_s": ("core.catalog.sync",),
    "core.catalog.create_index_s": ("core.catalog.create_index",),
    "core.statistics.rebuild_s": ("core.statistics.rebuild",),
    "core.statistics.observe_s": ("core.statistics.observe",),
    "core.lineage.record_s": ("core.lineage.record",),
    "core.materialization.materialize_view_s": ("core.materialization.materialize_view",),
    "core.patch.from_record_s": ("core.patch.from_record",),
    "core.patch.to_record_s": ("core.patch.to_record",),
    "storage.kvstore.heap.read_s": ("storage.kvstore.heap.read",),
    "storage.kvstore.heap.write_s": ("storage.kvstore.heap.write",),
    "storage.kvstore.pager.io_s": ("storage.kvstore.pager.io",),
    "storage.kvstore.btree.s": ("storage.kvstore.btree",),
    "storage.kvstore.serialization.loads_s": ("storage.kvstore.serialization.loads",),
    "storage.kvstore.serialization.dumps_s": ("storage.kvstore.serialization.dumps",),
    "storage.metadata_segment.scan_s": (
        "storage.metadata_segment.scan", "storage.metadata_segment.heap.read",
    ),
    "storage.metadata_segment.append_s": (
        "storage.metadata_segment.append", "storage.metadata_segment.heap.write",
    ),
    "storage.journal.commit_s": ("storage.journal.commit",),
    "storage.codecs.encode_s": ("storage.codecs.encode",),
    "storage.codecs.decode_s": ("storage.codecs.decode",),
    "storage.formats.s": (
        "storage.formats", "storage.formats.heap.read", "storage.formats.heap.write",
    ),
    "vision.detect_s": ("vision.detect",),
    "vision.depth_s": ("vision.depth",),
    "vision.features_s": ("vision.features",),
    "etl.pipeline_s": ("etl.pipeline",),
    "indexes.hnsw.search_s": ("indexes.hnsw.search",),
    "indexes.hnsw.add_s": ("indexes.hnsw.add",),
    "indexes.balltree.query_s": ("indexes.balltree.query",),
    "indexes.balltree.build_s": ("indexes.balltree.build",),
    "indexes.rtree.insert_s": ("indexes.rtree.insert",),
    "indexes.hash.s": ("indexes.hash",),
}

#: count metrics and ratios; (unit, better)
COUNT_METRICS: dict[str, tuple[str, str]] = {
    "core.sql.statements": ("count", "lower"),
    "core.optimizer.plans": ("count", "lower"),
    "core.optimizer.view_matches": ("count", "higher"),
    "core.optimizer.rows_examined_per_row_returned": ("ratio", "lower"),
    "core.executor.batches": ("count", "lower"),
    "core.udf.calls": ("count", "lower"),
    "core.udf_cache.lookups": ("count", "lower"),
    "core.udf_cache.hit_ratio": ("ratio", "higher"),
    "core.udf_cache.spills": ("count", "lower"),
    "core.catalog.adds": ("count", "lower"),
    "core.materialization.view_served_ops": ("count", "higher"),
    "core.patch.records_decoded": ("count", "lower"),
    "storage.kvstore.heap.reads": ("count", "lower"),
    "storage.kvstore.heap.read_bytes": ("bytes", "lower"),
    "storage.kvstore.heap.coalesced_runs": ("count", "lower"),
    "storage.kvstore.heap.write_bytes": ("bytes", "lower"),
    "storage.kvstore.pager.page_reads": ("count", "lower"),
    "storage.kvstore.pager.page_misses": ("count", "lower"),
    "storage.kvstore.pager.page_writes": ("count", "lower"),
    "storage.kvstore.pager.page_evictions": ("count", "lower"),
    "storage.metadata_segment.blocks_scanned": ("count", "lower"),
    "storage.metadata_segment.blocks_skipped": ("count", "higher"),
    "storage.metadata_segment.skip_ratio": ("ratio", "higher"),
    "storage.journal.commits": ("count", "lower"),
    "storage.journal.page_images": ("count", "lower"),
    "storage.formats.stored_bytes_per_raw_byte": ("ratio", "lower"),
    "etl.patches_out": ("count", "higher"),
    "indexes.hnsw.hops_per_probe": ("count", "lower"),
    "indexes.hnsw.candidates_per_probe": ("count", "lower"),
    "indexes.hnsw.recall_at_10": ("ratio", "higher"),
    "indexes.hnsw.expected_recall": ("ratio", "higher"),
    "bench.inputs_s": ("s", "lower"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.failed_ops_share": ("ratio", "lower"),
    "bench.traced_ops": ("count", "higher"),
}


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` list of ``BENCHMARK.json``, from the tables above."""
    spec = [{"name": name, "unit": "s", "better": "lower"} for name in TIME_METRICS]
    spec += [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in COUNT_METRICS.items()
    ]
    spec += [{"name": f"op.{cls}.p50_ms", "unit": "ms", "better": "lower"} for cls in OP_CLASSES]
    return spec


# -- wrappers -------------------------------------------------------------------


def _heap_span(kind: str):
    """Blob heap, segment heap and clip heap are one class: name the span
    after the file the instance owns."""

    def name(heap: BlobHeap) -> str:
        base = os.path.basename(heap.path)
        if base == "patches.heap":
            return f"storage.kvstore.heap.{kind}"
        if base == "metadata.seg":
            return f"storage.metadata_segment.heap.{kind}"
        return f"storage.formats.heap.{kind}"

    return name


def _hnsw_probe(tracer: Tracer, index: HNSWIndex, _result) -> None:
    tracer.count("hnsw.probes")
    tracer.count("hnsw.hops", index.last_stats["hops"])
    tracer.count("hnsw.candidates", index.last_stats["candidates"])


def install(tracer: Tracer) -> Wrappers:
    """Wrap the public entry points of every layer."""
    w = Wrappers(tracer)
    w.function(sql, "parse", "core.sql.parse")
    w.function(sql.Binder, "bind", "core.sql.bind")
    # both modules bound the name at import; each holds its own reference
    w.function(session, "plan_pipeline", "core.optimizer.plan")
    w.function(materialization, "plan_pipeline", "core.optimizer.plan")
    collection = catalog.MaterializedCollection
    w.function(collection, "add", "core.catalog.add")
    w.function(collection, "get", "core.catalog.get_many")
    w.function(collection, "get_many", "core.catalog.get_many")
    w.generator(collection, "scan_batches", "core.catalog.get_many", counter="catalog.batches")
    w.function(catalog.Catalog, "sync", "core.catalog.sync")
    w.function(catalog.Catalog, "create_index", "core.catalog.create_index")
    w.function(catalog.Catalog, "rebuild_statistics", "core.statistics.rebuild")
    w.function(core_statistics.CollectionStatistics, "observe", "core.statistics.observe")
    w.function(LineageStore, "record", "core.lineage.record")
    w.function(
        materialization.MaterializationManager,
        "materialize_view",
        "core.materialization.materialize_view",
    )
    w.function(patch.Patch, "from_record", "core.patch.from_record")
    w.function(patch.Patch, "to_record", "core.patch.to_record")
    for attr in ("get", "multi_get"):
        w.function(BlobHeap, attr, _heap_span("read"))
    for attr in ("put", "sync"):
        w.function(BlobHeap, attr, _heap_span("write"))
    for attr in ("read", "write", "allocate", "get_meta", "set_meta", "sync"):
        w.function(Pager, attr, "storage.kvstore.pager.io")
    for attr in ("insert", "get", "delete", "bulk_load", "first", "clear"):
        w.function(BPlusTree, attr, "storage.kvstore.btree")
    for attr in ("range", "items"):
        w.generator(BPlusTree, attr, "storage.kvstore.btree")
    w.function(serialization, "loads", "storage.kvstore.serialization.loads")
    w.function(serialization, "dumps", "storage.kvstore.serialization.dumps")
    w.generator(CollectionSegment, "scan_rows", "storage.metadata_segment.scan", counter="segment.rows")
    for attr in ("get_rows", "attr_min_max", "block_stats"):
        w.function(CollectionSegment, attr, "storage.metadata_segment.scan")
    w.function(CollectionSegment, "append", "storage.metadata_segment.append")
    w.function(MetadataSegmentStore, "flush", "storage.metadata_segment.append")
    for attr in ("ensure_active", "record_page", "record_pages", "commit"):
        w.function(CommitJournal, attr, "storage.journal.commit")
    w.function(H264LikeCodec, "encode_stream", "storage.codecs.encode")
    w.generator(H264LikeCodec, "decode_stream", "storage.codecs.decode")
    for attr in ("append", "finalize"):
        w.function(SegmentedFile, attr, "storage.formats")
    w.generator(SegmentedFile, "scan", "storage.formats")
    w.function(ObjectDetectorGenerator, "generate", "vision.detect")
    w.function(HistogramTransformer, "transform", "vision.features")
    w.function(DepthTransformer, "transform", "vision.depth")
    w.generator(etl_pipeline.Pipeline, "run", "etl.pipeline", counter="etl.patches_out")
    w.function(HNSWIndex, "search", "indexes.hnsw.search", after=_hnsw_probe)
    w.function(HNSWIndex, "add", "indexes.hnsw.add")
    for attr in ("query_radius", "query_radius_batch", "query_knn", "count_radius"):
        w.function(BallTree, attr, "indexes.balltree.query")
    w.function(BallTree, "__init__", "indexes.balltree.build")
    for attr in ("insert", "bulk_load"):
        w.function(RTree, attr, "indexes.rtree.insert")
    for attr in ("insert", "lookup"):
        w.function(HashIndex, attr, "indexes.hash")
    return w


# -- metrics ----------------------------------------------------------------------


def _counter(deltas: dict[str, float], name: str) -> float:
    """Sum of every series of counter ``name`` (all label sets)."""
    return sum(v for k, v in deltas.items() if k == name or k.startswith(name + "{"))


def layer_metrics(traced_ops: list[dict]) -> dict[str, float]:
    """Time and count metrics of one traced round, from the tracer's
    per-op records (the runner adds ``class``, ``rows`` and the op's
    engine counter ``deltas`` to each)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    deltas: dict[str, float] = {}
    for op in traced_ops:
        for key, value in op["deltas"].items():
            deltas[key] = deltas.get(key, 0) + value
        for span in op["spans"]:
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self_s"]
            calls[span["name"]] = calls.get(span["name"], 0) + span["calls"]
        for name, amount in op["counts"].items():
            counts[name] = counts.get(name, 0) + amount
    out: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0.0)
    out.update(
        (metric, sum(self_s.get(span, 0.0) for span in spans))
        for metric, spans in TIME_METRICS.items()
    )
    decoded = calls.get("core.patch.from_record", 0)
    examined = decoded + counts.get("segment.rows", 0)
    returned = sum(op["rows"] for op in traced_ops)
    lookups = _counter(deltas, "deeplens_udf_cache_lookups_total")
    misses = deltas.get('deeplens_udf_cache_lookups_total{result="miss"}', 0)
    scanned = deltas.get("deeplens_zonemap_blocks_scanned_total", 0)
    skipped = deltas.get("deeplens_zonemap_blocks_skipped_total", 0)
    probes = counts.get("hnsw.probes", 0)
    out.update({
        "core.sql.statements": calls.get("core.sql.parse", 0),
        "core.optimizer.plans": deltas.get("deeplens_optimizer_plans_total", 0),
        "core.optimizer.view_matches": deltas.get(
            'deeplens_optimizer_view_matches_total{outcome="rewritten"}', 0
        ),
        "core.optimizer.rows_examined_per_row_returned": examined / returned if returned else 0.0,
        "core.executor.batches": counts.get("catalog.batches", 0),
        "core.udf.calls": calls.get("core.udf.call", 0),
        "core.udf_cache.lookups": lookups,
        "core.udf_cache.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "core.udf_cache.spills": deltas.get("deeplens_udf_cache_spills_total", 0),
        "core.catalog.adds": calls.get("core.catalog.add", 0),
        "core.materialization.view_served_ops": sum(
            1 for op in traced_ops
            if op["deltas"].get('deeplens_optimizer_view_matches_total{outcome="rewritten"}', 0)
        ),
        "core.patch.records_decoded": decoded,
        "storage.kvstore.heap.reads": deltas.get('deeplens_heap_reads_total{store="blob"}', 0),
        "storage.kvstore.heap.read_bytes": deltas.get(
            'deeplens_heap_read_bytes_total{store="blob"}', 0
        ),
        "storage.kvstore.heap.coalesced_runs": deltas.get(
            'deeplens_heap_coalesced_runs_total{store="blob"}', 0
        ),
        "storage.kvstore.heap.write_bytes": deltas.get(
            'deeplens_heap_write_bytes_total{store="blob"}', 0
        ),
        "storage.kvstore.pager.page_reads": _counter(deltas, "deeplens_pager_page_reads_total"),
        "storage.kvstore.pager.page_misses": deltas.get(
            'deeplens_pager_page_reads_total{result="miss"}', 0
        ),
        "storage.kvstore.pager.page_writes": deltas.get("deeplens_pager_page_writes_total", 0),
        "storage.kvstore.pager.page_evictions": deltas.get(
            "deeplens_pager_page_evictions_total", 0
        ),
        "storage.metadata_segment.blocks_scanned": scanned,
        "storage.metadata_segment.blocks_skipped": skipped,
        "storage.metadata_segment.skip_ratio": (
            skipped / (scanned + skipped) if scanned + skipped else 0.0
        ),
        "storage.journal.commits": deltas.get("deeplens_journal_commits_total", 0),
        "storage.journal.page_images": deltas.get("deeplens_journal_page_images_total", 0),
        "etl.patches_out": counts.get("etl.patches_out", 0),
        "indexes.hnsw.hops_per_probe": counts.get("hnsw.hops", 0) / probes if probes else 0.0,
        "indexes.hnsw.candidates_per_probe": (
            counts.get("hnsw.candidates", 0) / probes if probes else 0.0
        ),
        "bench.traced_ops": len(traced_ops),
    })
    return out


def class_p50_ms(latencies: dict[str, list[float]]) -> dict[str, float]:
    """``op.<class>.p50_ms`` for every class of every workload (0 for the
    classes this workload does not run)."""
    return {
        f"op.{cls}.p50_ms": (
            statistics.median(latencies[cls]) * 1e3 if latencies.get(cls) else 0.0
        )
        for cls in OP_CLASSES
    }


def budget_table(metrics: dict[str, float], wall_s: float) -> list[str]:
    """The layer budget: self seconds and share of the traced round's op
    wall time, largest first."""
    rows = sorted(
        ((name, metrics[name]) for name in TIME_METRICS if metrics[name] > 0.0),
        key=lambda row: -row[1],
    )
    lines = [f"  {'layer (self time)':<44}{'s':>10}{'share':>9}"]
    lines += [f"  {name:<44}{value:>10.4f}{value / wall_s:>9.1%}" for name, value in rows]
    total = sum(value for _, value in rows)
    lines.append(f"  {'sum of self times':<44}{total:>10.4f}{total / wall_s:>9.1%}")
    return lines

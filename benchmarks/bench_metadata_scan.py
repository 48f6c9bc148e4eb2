"""Metadata-only analytics — columnar segment vs full-record decode.

The bug this guards against: ``load_data=False`` used to walk the blob
heap anyway, decoding every full pixel record just to throw the data
away. The fix stores patch metadata in a columnar segment beside the
heap, so metadata-only scans never touch pixel records at all.

Two analytics over the same collection of 64x64 detector patches, each
timed both ways:

* **label histogram** — ``aggregate("group")`` over the label
  attribute, the classic "how much of each class did the detector
  emit" dashboard query (the planner flips its scan to the metadata
  segment on its own — the query never says ``load_data=False``);
* **frameno window** — count patches in a narrow frame range over
  frame-ordered data, where the segment's per-block zone maps let the
  planner skip almost every sealed block unread.

The baseline is the literal pre-fix code path
(``collection._record_batches(size, load_data=False)`` — full heap
records, pixel decompression, Python-side predicate), kept callable
precisely so this benchmark measures against it. The engine path is an
ordinary metadata-only query; a heap spy asserts it performs **zero**
``BlobHeap.get``/``multi_get`` calls, and both paths must agree on
every count before any timing is trusted.

Emits ``BENCH_metadata_scan.json`` at the repo root with the raw
numbers. Scale with ``REPRO_BENCH_METADATA_N`` (default 100_000
patches). The >= 10x speedup assertion arms at 5000+ patches — the gap
is decode work the segment path structurally never does, so it holds at
CI smoke sizes too.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import write_result
from repro.core import Attr, DeepLens
from repro.core.patch import Patch
from repro.core.udf import AttributeKey

N_PATCHES = int(os.environ.get("REPRO_BENCH_METADATA_N", "100000"))
LABELS = ("vehicle", "person", "bike", "sign")
#: frameno window for the zone-map query: ~2% of a frame-ordered
#: collection, so almost every sealed block is provably non-matching
WINDOW = max(1, N_PATCHES // 50)
BATCH = 256
REPEATS = 3

RESULT_JSON = Path(__file__).parent.parent / "BENCH_metadata_scan.json"


def build_patches(n: int):
    rng = np.random.default_rng(23)
    base = rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)
    for i in range(n):
        patch = Patch.from_frame("cam0", i, base)
        patch.metadata["label"] = LABELS[i % len(LABELS)]
        patch.metadata["score"] = float(i % 100) / 100.0
        yield patch


class HeapSpy:
    """Counts reads against one BlobHeap."""

    def __init__(self, heap):
        self.heap = heap
        self.reads = 0
        self._get, self._multi = heap.get, heap.multi_get
        heap.get = self._spy(self._get)
        heap.multi_get = self._spy(self._multi)

    def _spy(self, fn):
        def wrapped(*args, **kwargs):
            self.reads += 1
            return fn(*args, **kwargs)

        return wrapped

    def restore(self):
        self.heap.get, self.heap.multi_get = self._get, self._multi


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_metadata_scan(tmp_path):
    lo, hi = N_PATCHES // 2, N_PATCHES // 2 + WINDOW - 1
    with DeepLens(tmp_path / "db") as db:
        db.materialize(build_patches(N_PATCHES), "patches")
        collection = db.collection("patches")
        # load the segment and warm both paths once so neither timing
        # pays one-off build costs
        collection.metadata_block_stats()
        sum(1 for _ in collection.scan(load_data=False))

        # -- baseline: the pre-fix load_data=False path -----------------
        #    (full heap records decoded, pixels discarded, predicate in
        #    plain Python)
        def baseline_labels():
            counts = dict.fromkeys(LABELS, 0)
            for batch in collection._record_batches(BATCH, False):
                for patch in batch:
                    counts[patch.metadata["label"]] += 1
            return counts

        def baseline_window():
            return sum(
                1
                for batch in collection._record_batches(BATCH, False)
                for patch in batch
                if lo <= patch.metadata["frameno"] <= hi
            )

        base_label_seconds, base_labels = _best_of(baseline_labels)
        base_window_seconds, base_window = _best_of(baseline_window)

        # -- engine: metadata-only queries over the columnar segment ----
        def engine_labels():
            # a full scan as written — the planner flips it to the
            # segment because a grouped count never reads pixels
            return db.scan("patches").aggregate(
                "group", key=AttributeKey("label"), reducer=len
            )

        def engine_window():
            return (
                db.scan("patches", load_data=False)
                .filter(Attr("frameno").between(lo, hi))
                .count()
            )

        spy = HeapSpy(db.catalog.heap)
        try:
            seg_label_seconds, seg_labels = _best_of(engine_labels)
            seg_window_seconds, seg_window = _best_of(engine_window)
        finally:
            spy.restore()

        # the segment path must agree with the record path on every
        # count, and must never have touched the patch heap
        assert seg_labels == base_labels
        assert sum(base_labels.values()) == N_PATCHES
        assert seg_window == base_window == WINDOW
        assert spy.reads == 0, (
            f"metadata-only analytics hit the blob heap {spy.reads} times"
        )

        explanation = (
            db.scan("patches", load_data=False)
            .filter(Attr("frameno").between(lo, hi))
            .explain()
        )
        skipping = explanation.chosen.kind == "zone-map-scan"

    label_speedup = base_label_seconds / seg_label_seconds
    window_speedup = base_window_seconds / seg_window_seconds

    payload = {
        "n_patches": N_PATCHES,
        "window_rows": WINDOW,
        "label_histogram": {
            "full_record_seconds": base_label_seconds,
            "metadata_segment_seconds": seg_label_seconds,
            "speedup": label_speedup,
        },
        "frameno_window": {
            "full_record_seconds": base_window_seconds,
            "metadata_segment_seconds": seg_window_seconds,
            "speedup": window_speedup,
            "zone_map_scan": skipping,
        },
        "heap_reads_during_metadata_path": spy.reads,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"{N_PATCHES} patches, frameno window of {WINDOW} rows, "
        f"zero heap reads on the segment path (spied)",
        "",
        "| query | path | seconds | rows/s | speedup |",
        "|---|---|---|---|---|",
        f"| label histogram | full-record decode | {base_label_seconds:.4f} "
        f"| {N_PATCHES / base_label_seconds:,.0f} | 1.0x |",
        f"| label histogram | metadata segment | {seg_label_seconds:.4f} "
        f"| {N_PATCHES / seg_label_seconds:,.0f} | {label_speedup:.1f}x |",
        f"| frameno window | full-record decode | {base_window_seconds:.4f} "
        f"| {N_PATCHES / base_window_seconds:,.0f} | 1.0x |",
        f"| frameno window | metadata segment (zone maps: "
        f"{'skipping' if skipping else 'off'}) | {seg_window_seconds:.4f} "
        f"| {N_PATCHES / seg_window_seconds:,.0f} | {window_speedup:.1f}x |",
        "",
        f"written: {RESULT_JSON.name}",
    ]
    write_result(
        "metadata_scan",
        "Metadata-only analytics — columnar segment vs full-record decode",
        lines,
    )

    if N_PATCHES >= 5000:
        # the acceptance bar: metadata analytics must beat the pre-fix
        # full-record path by an order of magnitude
        assert label_speedup >= 10.0, (
            f"label-histogram speedup {label_speedup:.1f}x < 10x"
        )
        assert window_speedup >= 10.0, (
            f"frameno-window speedup {window_speedup:.1f}x < 10x"
        )
        assert skipping, "zone maps did not engage on the frameno window"
    else:
        assert label_speedup > 0.5 and window_speedup > 0.5

"""Pipeline batching — scalar vs vectorized UDF throughput.

Operators move ``list[Row]`` chunks (``Operator.iter_batches``) through
the scan -> filter -> map hot path, so the map stage can hand a whole
batch to a vectorized UDF (``batch_fn``) — the batched-inference win
DeepLens and EVA build their query pipelines around.

Two executions of the same 10k-patch scan+filter+map pipeline, both
through ``iter_batches`` (the only execution protocol):

* ``scalar udf`` — the UDF called once per patch of each batch;
* ``vectorized udf`` — ``batch_fn`` over the stacked batch.

Scale with ``REPRO_BENCH_PIPELINE_N`` (default 10_000).
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import write_result
from repro.core.expressions import Attr
from repro.core.operators import IteratorScan, MapPatches, Select
from repro.core.patch import Patch

N_PATCHES = int(os.environ.get("REPRO_BENCH_PIPELINE_N", "10000"))
BATCH_SIZE = int(os.environ.get("REPRO_BENCH_PIPELINE_BATCH", "512"))
REPEATS = 3


def build_patches(n: int) -> list[Patch]:
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 255, (n, 8, 8, 3), dtype=np.uint8)
    patches = []
    for i in range(n):
        patch = Patch.from_frame("cam0", i, frames[i])
        patch.patch_id = i
        patch.metadata["label"] = "vehicle" if i % 2 == 0 else "person"
        patches.append(patch)
    return patches


def brightness(patch: Patch) -> Patch:
    pixels = patch.data.astype(np.float64)
    return patch.derive(
        patch.data,
        "brightness",
        value=float(pixels.mean()),
        contrast=float(pixels.std()),
    )


def brightness_batch(patches: list[Patch]) -> list[Patch]:
    stacked = np.stack([patch.data for patch in patches]).astype(np.float64)
    flat = stacked.reshape(len(patches), -1)
    means = flat.mean(axis=1)
    stds = flat.std(axis=1)
    return [
        patch.derive(patch.data, "brightness", value=float(mean), contrast=float(std))
        for patch, mean, std in zip(patches, means, stds)
    ]


def _pipeline(patches: list[Patch], *, vectorized: bool) -> MapPatches:
    selected = Select(IteratorScan(patches), Attr("label") == "vehicle")
    return MapPatches(
        selected,
        brightness,
        batch_fn=brightness_batch if vectorized else None,
    )


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, int]:
    best, rows = float("inf"), 0
    for _ in range(repeats):
        started = time.perf_counter()
        rows = fn()
        best = min(best, time.perf_counter() - started)
    return best, rows


def test_pipeline_batching(tmp_path):
    patches = build_patches(N_PATCHES)

    def run(vectorized: bool) -> int:
        pipeline = _pipeline(patches, vectorized=vectorized)
        return sum(len(batch) for batch in pipeline.iter_batches(BATCH_SIZE))

    scalar_seconds, scalar_count = _best_of(lambda: run(False))
    vec_seconds, vec_count = _best_of(lambda: run(True))
    assert scalar_count == vec_count == N_PATCHES // 2

    speedup = scalar_seconds / vec_seconds
    lines = [
        f"pipeline: scan -> filter(label) -> map(brightness), "
        f"{N_PATCHES} patches, batch={BATCH_SIZE}",
        "",
        "| execution | seconds | rows/s | speedup |",
        "|---|---|---|---|",
        f"| scalar udf | {scalar_seconds:.4f} | "
        f"{scalar_count / scalar_seconds:,.0f} | 1.0x |",
        f"| vectorized udf | {vec_seconds:.4f} | "
        f"{vec_count / vec_seconds:,.0f} | {speedup:.2f}x |",
    ]
    write_result(
        "pipeline_batching",
        "Pipeline batching — vectorized vs scalar UDF over batches",
        lines,
    )
    # a vectorized UDF must beat the per-patch UDF by 2x at full scale;
    # tiny sizes only have to stay sane
    if N_PATCHES >= 5000:
        assert speedup >= 2.0, f"vectorized speedup {speedup:.2f}x < 2x"
    else:
        assert speedup > 0.5

"""``pixel_queries`` — the pixel read path every content query pays.

Heap reads, decompress, ``serialization.loads``, ``Patch.from_record``,
operator glue and the UDF do the work; the metadata segment and the
commit journal do none. Cold and warm UDF, and view-served and recomputed
plans, sit side by side so a cache or view gain and its bypass are in one
table. The engine caches no pixel data, so every pixel read goes to the
blob heap whatever the collection's size.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import Attr, DeepLens, Patch

from .base import Op, Outcome, Workload, crc, set_recall

LABELS = ("car", "person", "bus", "bike")
#: patches per frame number
PER_FRAME = 4
#: fixed weights of the stand-in inference UDF (not the workload seed: the
#: model is part of the benchmark, the data is what the seed varies)
MODEL_SEED = 20190113
POOL = 4
LAYERS = (432, 512, 512, 512, 8)


def _model() -> list[np.ndarray]:
    rng = np.random.default_rng(MODEL_SEED)
    return [
        (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32)
        for fan_in, fan_out in zip(LAYERS, LAYERS[1:])
    ]


def _pooled(pixels: np.ndarray) -> np.ndarray:
    """(..., S, S, 3) uint8 -> (..., 432) float32 in [0, 1]: 4x4 mean pool."""
    side = pixels.shape[-2] // POOL
    lead = pixels.shape[:-3]
    tiles = pixels.reshape(*lead, side, POOL, side, POOL, 3).astype(np.float32)
    return (tiles.mean(axis=(-4, -2)) / 255.0).reshape(*lead, side * side * 3)


def _forward(weights: list[np.ndarray], features: np.ndarray) -> np.ndarray:
    out = features
    for layer in weights:
        out = np.tanh(out @ layer)
    return out.sum(axis=-1)


class PixelQueries(Workload):
    name = "pixel_queries"
    why = (
        "pixel read path: blob-heap reads, decode, Patch build, operator glue, "
        "UDF; cold vs warm UDF cache and view-served vs recompute side by side"
    )
    mix = {
        "point_lookup": 60,
        "range_select": 23,
        "udf_cold": 10,
        "udf_warm": 4,
        "view_served": 2,
        "full_scan": 1,
    }
    round_s = 2.5

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.n = 400 if smoke else 6000
        self.side = 48
        self.range_rows = 100 if smoke else 500
        self.cold_rows = 48 if smoke else 252
        rng = self.rng("data")
        n, side = self.n, self.side
        # smooth ramp + per-patch colour + noise: compresses a little, like
        # real crops, instead of not at all (uniform noise) or entirely
        base = rng.integers(0, 256, size=(n, 1, 1, 3), dtype=np.int16)
        ramp = (np.arange(side, dtype=np.int16) * 2)[None, :, None, None]
        noise = rng.integers(0, 32, size=(n, side, side, 3), dtype=np.int16)
        self.pixels = np.clip(base // 2 + ramp + noise, 0, 255).astype(np.uint8)
        self.frameno = np.arange(n) // PER_FRAME
        self.label = rng.integers(0, len(LABELS), size=n)
        self.score = rng.permutation(n) / n  # distinct, so thresholds have no ties
        self.emb = rng.standard_normal((n, 16))
        self.crcs = np.array([crc(p) for p in self.pixels], dtype=np.int64)
        self.frames = n // PER_FRAME
        #: the materialized view and the warm-UDF window: fixed frame ranges
        self.view_window = (0, self.range_rows // PER_FRAME - 1)
        self.warm_window = (self.frames // 2, self.frames // 2 + self.cold_rows // PER_FRAME - 1)
        self.weights = _model()
        self.infer = self.traced_udf(self._infer)
        self.mean = self.traced_udf(self._mean)
        self.tag = self.traced_udf(self._tag)

    # -- UDFs (the harness's own, so the traced pass can see each call) ----

    def _infer(self, patch: Patch) -> Patch:
        value = _forward(self.weights, _pooled(patch.data))
        return patch.derive(patch.data, "bench_infer", infer=float(value))

    @staticmethod
    def _mean(patch: Patch) -> Patch:
        return patch.derive(patch.data, "bench_mean", mean=float(patch.data.mean()))

    @staticmethod
    def _tag(patch: Patch) -> Patch:
        return patch.derive(patch.data, "bench_tag", tag=float(patch.data[::4, ::4].mean()))

    # -- inputs -----------------------------------------------------------

    def input_arrays(self):
        return [self.pixels, self.frameno, self.label, self.score, self.emb]

    def user_bytes(self) -> int:
        # frameno, label, score, rid: four scalars per row
        return self.pixels.nbytes + self.emb.nbytes + 4 * 8 * self.n

    def sizes(self):
        return {
            "patches": self.n,
            "patch_shape": list(self.pixels.shape[1:]),
            "raw_pixel_mb": round(self.pixels.nbytes / 2**20, 1),
            "framenos": self.frames,
            "view_rows": self.range_rows,
            "udf_cache_capacity_entries": 100_000,
            "pager_lru_pages": 256,
            "btree_node_cache": "unbounded",
            "pixel_cache": "none",
        }

    # -- engine side --------------------------------------------------------

    def _patches(self):
        for i in range(self.n):
            yield Patch.from_frame(
                "syn",
                int(self.frameno[i]),
                self.pixels[i],
                rid=i,
                label=LABELS[self.label[i]],
                score=float(self.score[i]),
                emb=self.emb[i],
            )

    def setup(self, workdir: str) -> None:
        db = self.db = DeepLens(workdir)
        db.register_udf("bench_infer", self.infer, provides={"infer"}, one_to_one=True)
        db.register_udf("bench_mean", self.mean, provides={"mean"}, one_to_one=True, cache=True)
        db.register_udf("bench_tag", self.tag, provides={"tag"}, one_to_one=True)
        db.materialize(self._patches(), "patches")
        db.sql("CREATE INDEX ON patches (frameno) USING btree")
        db.materialize_view(
            "tagged",
            db.scan("patches").filter(Attr("frameno").between(*self.view_window)).map("bench_tag"),
        )

    def ops(self, round_index: int) -> list[Op]:
        rng = self.rng("ops", round_index)
        range_frames = self.range_rows // PER_FRAME
        cold_frames = self.cold_rows // PER_FRAME
        # cold windows never repeat: each (round, op) owns its own stretch
        cold_slot = 0
        cold_slots = self.mix["udf_cold"]
        out = []
        for cls in self.sequence:
            if cls == "point_lookup":
                args: tuple = (int(rng.integers(0, self.frames)),)
            elif cls == "range_select":
                lo = int(rng.integers(0, self.frames - range_frames))
                args = (lo, lo + range_frames - 1)
            elif cls == "udf_cold":
                slot = round_index * cold_slots + cold_slot
                cold_slot += 1
                lo = (slot * cold_frames) % (self.frames - cold_frames)
                args = (lo, lo + cold_frames - 1)
            elif cls == "udf_warm":
                args = self.warm_window
            elif cls == "view_served":
                args = (*self.view_window, round(float(rng.uniform(60.0, 140.0)), 3))
            else:  # full_scan: ~0.5 % of rows qualify
                args = (round(1.0 - float(rng.uniform(0.003, 0.007)), 6),)
            out.append(Op(cls, args))
        return out

    def run(self, op: Op) -> Any:
        sql = self.db.sql
        a = op.args
        if op.cls == "point_lookup":
            return sql(f"SELECT * FROM patches WHERE frameno = {a[0]}")
        if op.cls == "range_select":
            return sql(f"SELECT * FROM patches WHERE frameno BETWEEN {a[0]} AND {a[1]}")
        if op.cls == "udf_cold":
            return sql(
                f"SELECT rid, bench_infer() FROM patches WHERE frameno BETWEEN {a[0]} AND {a[1]}"
            )
        if op.cls == "udf_warm":
            return sql(
                f"SELECT rid, bench_mean() FROM patches WHERE frameno BETWEEN {a[0]} AND {a[1]}"
            )
        if op.cls == "view_served":
            return sql(
                f"SELECT rid, bench_tag() FROM patches "
                f"WHERE frameno BETWEEN {a[0]} AND {a[1]} AND tag >= {a[2]}"
            )
        return sql(f"SELECT * FROM patches WHERE score >= {a[0]}")

    # -- reference ------------------------------------------------------------

    def check(self, op: Op, result: Any) -> Outcome:
        a = op.args
        if op.cls == "point_lookup":
            want = np.flatnonzero(self.frameno == a[0])
        elif op.cls == "full_scan":
            want = np.flatnonzero(self.score >= a[0])
        else:
            want = np.flatnonzero((self.frameno >= a[0]) & (self.frameno <= a[1]))
        values = None
        if op.cls == "udf_cold":
            values = ("infer", _forward(self.weights, _pooled(self.pixels[want])), 1e-4)
        elif op.cls == "udf_warm":
            values = ("mean", self.pixels[want].reshape(len(want), -1).mean(axis=1), 1e-12)
        elif op.cls == "view_served":
            tags = self.pixels[want][:, ::4, ::4].reshape(len(want), -1).mean(axis=1)
            keep = tags >= a[2]
            want, tags = want[keep], tags[keep]
            values = ("tag", tags, 1e-12)
        got = [int(patch["rid"]) for patch in result]
        recall = set_recall(got, want.tolist())
        if sorted(got) != want.tolist():
            return Outcome(False, recall, len(got), f"row set differs: {len(got)} vs {len(want)}")
        if values is None:
            bad = [p["rid"] for p in result if crc(p.data) != self.crcs[p["rid"]]]
            if bad:
                return Outcome(False, recall, len(got), f"pixel CRC mismatch for rids {bad[:5]}")
        else:
            attr, expected, rtol = values
            by_rid = dict(zip(want.tolist(), expected.tolist()))
            for patch in result:
                if not np.isclose(patch[attr], by_rid[patch["rid"]], rtol=rtol, atol=1e-6):
                    return Outcome(
                        False, recall, len(got),
                        f"{attr} of rid {patch['rid']}: {patch[attr]} vs {by_rid[patch['rid']]}",
                    )
        return Outcome(True, recall, len(got))

    def bypass_failures(self, timed, traced, per_class):
        failures = []
        if timed["deeplens_journal_commits_total"]:
            failures.append("read-only rounds committed to the journal")
        if timed['deeplens_pager_page_reads_total{result="miss"}']:
            failures.append("warmed read rounds missed the pager cache")
        if traced is not None and not traced["core.optimizer.view_matches"]:
            failures.append("no query was served from the materialized view")
        return failures

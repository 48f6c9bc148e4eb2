"""``etl_ingest`` — the write path.

Vision code, codecs, ETL glue, ``collection.add`` (with incremental hash
and B+ tree maintenance, statistics and lineage) and the journal commit do
most of the work; SQL and the optimizer do none until the very last op.
Answers "is ingest cost the vision pipeline, index maintenance, or
statistics?" and makes the HNSW bulk build a visible share of the round.

The camera feed arrives clip by clip: each ``etl_clip`` appends one clip
to the segmented video store, runs the ETL pipeline over just that clip
(frame-range push-down), adds the detections, and syncs the catalog — so
every op ends in a durable commit. (One video per clip is not possible:
the session keeps its video registry in the 4 KiB catalog meta page,
which overflows after ~35 videos — see README, known gaps.)
"""

from __future__ import annotations

import colorsys
from typing import Any

import numpy as np

from repro.core import Attr, DeepLens
from repro.etl import (
    DepthTransformer,
    HistogramTransformer,
    ObjectDetectorGenerator,
    Pipeline,
)
from repro.vision import DetectorNoise, MonocularDepth, SyntheticSSD
from repro.vision.render import Renderer
from repro.vision.scene import Scene, SceneObject, linear_states

from .base import Op, Outcome, Workload, crc, set_recall

WIDTH, HEIGHT = 160, 90
CLIP_LEN = 2
VIDEO = "cam0"
#: frames a vehicle / a pedestrian stays on screen; the next one enters
#: as it leaves
VEHICLE_FRAMES, PERSON_FRAMES = 50, 80
BUILD_OPS = (
    "build_rtree", "build_balltree", "build_hnsw",
    "materialize_view", "rebuild_stats", "reopen_first_query",
)


def _color(rng: np.random.Generator, hue_base: float) -> tuple[int, int, int]:
    """A saturated identity colour; vehicles and pedestrians own disjoint
    hue half-circles, as in ``repro.datasets.trafficcam``."""
    hue = (hue_base + float(rng.uniform(0.0, 168.0))) / 360.0
    rgb = colorsys.hsv_to_rgb(hue, 0.82, float(rng.uniform(0.75, 0.92)))
    return tuple(int(round(channel * 255)) for channel in rgb)


def steady_scene(rng: np.random.Generator, n_frames: int) -> Scene:
    """TrafficCam's world — same camera, lanes, walkway, object sizes and
    renderer — with exactly one vehicle and one pedestrian on screen in
    every frame. The dataset's random arrivals make the detection count
    (and so the measured work) swing by tens of percent from seed to seed;
    here the seed changes colours, lanes, walking direction and (within
    narrow ranges) depths and sizes, not how much there is to do."""
    scene = Scene(WIDTH, HEIGHT, n_frames, name="trafficcam-steady")
    for k, start in enumerate(range(0, n_frames, VEHICLE_FRAMES)):
        lane = (-2.5, 2.5)[int(rng.integers(0, 2))]
        vehicle = SceneObject(f"veh-{k}", "vehicle", _color(rng, 0.0))
        vehicle.states = linear_states(
            scene.camera, WIDTH, range(start, min(start + VEHICLE_FRAMES, n_frames)),
            depth0=float(rng.uniform(24, 26)), depth1=float(rng.uniform(10.5, 11.5)),
            lateral0=lane, lateral1=lane,
            real_width=float(rng.uniform(4.0, 4.4)), real_height=float(rng.uniform(1.5, 1.7)),
        )
        scene.add(vehicle)
    for k, start in enumerate(range(0, n_frames, PERSON_FRAMES)):
        depth = float(rng.uniform(10, 12))
        side = 1.0 if rng.random() < 0.5 else -1.0
        person = SceneObject(f"ped-{k}", "person", _color(rng, 186.0))
        person.states = linear_states(
            scene.camera, WIDTH, range(start, min(start + PERSON_FRAMES, n_frames)),
            depth0=depth, depth1=depth + float(rng.uniform(-1.0, 1.0)),
            lateral0=-side * 0.6 * depth, lateral1=side * 0.6 * depth,
            real_width=float(rng.uniform(0.55, 0.6)), real_height=float(rng.uniform(1.7, 1.8)),
        )
        scene.add(person)
    return scene


class EtlIngest(Workload):
    name = "etl_ingest"
    why = (
        "write path: codecs, vision, ETL, catalog add with incremental index "
        "upkeep, journal commit per clip, then index/view/stats builds and a cold reopen"
    )
    round_s = 10.0
    warmup = False
    fresh_db_per_round = True

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.clips = 8 if smoke else 200
        # the stream order is the op order: clips first, then the builds
        self.mix = {"etl_clip": self.clips, **dict.fromkeys(BUILD_OPS, 1)}
        self.sequence = ["etl_clip"] * self.clips + list(BUILD_OPS)
        n_frames = self.clips * CLIP_LEN
        self.scene = steady_scene(self.rng("scene"), n_frames)
        self.frames = np.stack(list(Renderer(self.scene, seed=seed).render_all()))
        self.pipeline = Pipeline(
            [
                ObjectDetectorGenerator(SyntheticSSD(noise=DetectorNoise(seed=seed))),
                HistogramTransformer(bins=4, key="hist"),
                DepthTransformer(MonocularDepth(self.scene.camera, seed=seed)),
            ]
        )
        self.probe_frame = n_frames // 2
        #: patch id -> (pixel CRC32, label, frameno), tallied as rows are added
        self.tally: dict[int, tuple[int, str, int]] = {}

    def input_arrays(self):
        return [self.frames]

    def user_bytes(self) -> int:
        return self.frames.nbytes

    def sizes(self):
        return {
            "frames": len(self.frames),
            "frame_shape": list(self.frames.shape[1:]),
            "clips": self.clips,
            "clip_len": CLIP_LEN,
            "raw_frame_mb": round(self.frames.nbytes / 2**20, 1),
            "pager_lru_pages": 256,
        }

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.tally = {}
        db = self.db = DeepLens(workdir)
        self.store = db.ingest_video(VIDEO, [], layout="segmented", clip_len=CLIP_LEN)
        self.detections = db.materialize([], "detections", schema=self.pipeline.output_schema)
        # present from the start, so every add pays incremental maintenance
        db.create_index("detections", "label", "hash")
        db.create_index("detections", "frameno", "btree")

    def ops(self, round_index: int) -> list[Op]:
        out = [Op("etl_clip", (clip,)) for clip in range(self.clips)]
        return out + [Op(cls) for cls in BUILD_OPS]

    def run(self, op: Op) -> Any:
        db = self.db
        if op.cls == "etl_clip":
            first = op.args[0] * CLIP_LEN
            last = first + CLIP_LEN - 1
            for frame in self.frames[first : last + 1]:
                self.store.append(frame)
            self.store.finalize()
            clip = db.load(VIDEO, (Attr("frameno") >= first) & (Attr("frameno") <= last))
            added = []
            for patch in self.pipeline.run(clip):
                self.detections.add(patch)
                added.append(patch)
            db.catalog.sync()
            return added
        if op.cls == "build_rtree":
            return db.create_index("detections", "bbox", "rtree")
        if op.cls == "build_balltree":
            return db.create_index("detections", "hist", "balltree")
        if op.cls == "build_hnsw":
            return db.create_index("detections", "hist", "hnsw", params={"m": 8, "ef": 48})
        if op.cls == "materialize_view":
            return db.materialize_view(
                "persons", db.scan("detections").filter(Attr("label") == "person")
            )
        if op.cls == "rebuild_stats":
            stats = db.rebuild_statistics("detections")
            db.catalog.sync()
            return stats
        # reopen_first_query: a cold open and the first indexed query after it
        db.close()
        db = self.db = DeepLens(self.workdir)
        return db.sql(f"SELECT * FROM detections WHERE frameno = {self.probe_frame}")

    def check(self, op: Op, result: Any) -> Outcome:
        rows = len(self.tally)
        if op.cls == "etl_clip":
            first = op.args[0] * CLIP_LEN
            for patch in result:
                self.tally[patch.patch_id] = (crc(patch.data), patch["label"], patch["frameno"])
            ok = all(first <= p["frameno"] < first + CLIP_LEN for p in result)
            return Outcome(ok, float(ok), len(result), "" if ok else "detections outside the clip")
        if op.cls in ("build_rtree", "build_balltree", "build_hnsw"):
            ok = len(result) == rows
            return Outcome(ok, float(ok), 1, "" if ok else f"index holds {len(result)} of {rows} rows")
        if op.cls == "materialize_view":
            want = sum(1 for _, label, _ in self.tally.values() if label == "person")
            ok = len(result) == want
            return Outcome(ok, float(ok), 1, "" if ok else f"view holds {len(result)} of {want} rows")
        if op.cls == "rebuild_stats":
            ok = result is not None
            return Outcome(ok, float(ok), 1, "" if ok else "no statistics")
        want_ids = {pid for pid, (_, _, frame) in self.tally.items() if frame == self.probe_frame}
        got = {patch.patch_id for patch in result}
        ok = got == want_ids and all(crc(p.data) == self.tally[p.patch_id][0] for p in result)
        return Outcome(ok, set_recall(got, want_ids), len(result), "" if ok else f"ids {sorted(got)} vs {sorted(want_ids)}")

    def finish(self) -> list[str]:
        """Durability readback on the reopened directory: every committed
        patch id is readable with the pixel CRC tallied at add time, and
        per-label counts and the frameno range match."""
        db = self.db
        db.catalog.sync()
        failures = []
        seen = {p.patch_id: crc(p.data) for p in db.collection("detections").scan()}
        want = {pid: entry[0] for pid, entry in self.tally.items()}
        if seen != want:
            missing = len(set(want) - set(seen))
            failures.append(
                f"readback: {missing} committed patches unreadable, "
                f"{sum(1 for k in want if k in seen and seen[k] != want[k])} with wrong pixels"
            )
        labels = [label for _, label, _ in self.tally.values()]
        for label in sorted(set(labels)):
            got = db.sql(f"SELECT COUNT(*) FROM detections WHERE label = '{label}'")
            if got != labels.count(label):
                failures.append(f"readback: {got} rows labelled {label}, added {labels.count(label)}")
        frames = [frame for _, _, frame in self.tally.values()]
        lo, hi = db.sql("SELECT MIN(frameno) FROM detections"), db.sql("SELECT MAX(frameno) FROM detections")
        if (lo, hi) != (min(frames), max(frames)):
            failures.append(f"readback: frameno range {lo}..{hi}, added {min(frames)}..{max(frames)}")
        self.video_bytes = db.video(VIDEO).size_bytes
        return failures

    def layer_extras(self):
        return {"storage.formats.stored_bytes_per_raw_byte": self.video_bytes / self.frames.nbytes}

    def bypass_failures(self, timed, traced, per_class):
        if per_class is None:
            return []
        failures = []
        if per_class["etl_clip"]["calls"].get("core.sql.parse"):
            failures.append("etl_clip ops went through the SQL frontend")
        reopen = per_class["reopen_first_query"]["deltas"]
        if not reopen.get('deeplens_pager_page_reads_total{result="miss"}'):
            failures.append("the cold reopen read no page from disk")
        return failures

"""``metadata_analytics`` — the same catalog, used differently.

The columnar metadata segment, its zone maps and the LensQL frontend and
optimizer do the work; the blob heap must do nothing (asserted). Ops are
small, so parse/bind/plan is a visible share — a plan cache or parameter
binding shows here and must show nothing on ``pixel_queries``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core import DeepLens, Patch, attribute_key

from .base import Op, Outcome, Workload, set_recall

LABELS = ("car", "person", "bus", "bike", "truck", "dog")
PER_FRAME = 4
ZONES = 40
#: sealed segment block size of the engine (state, not a knob here)
BLOCK_ROWS = 1024
AGG_SHAPES = ("count_label", "avg_zone", "distinct_zone", "contains_tag", "q2_frames", "group_label")
MINMAX_SHAPES = (
    ("MIN", "frameno"), ("MAX", "frameno"), ("MIN", "score"),
    ("MAX", "score"), ("MIN", "zone"), ("MAX", "zone"),
)


class MetadataAnalytics(Workload):
    name = "metadata_analytics"
    why = (
        "metadata path: columnar segment, zone maps, LensQL parse/bind/plan; "
        "blob heap and pixel decode must stay idle (asserted)"
    )
    mix = {
        "zone_window": 45,
        "agg_scan": 25,
        "minmax": 10,
        "explain_only": 10,
        "order_limit": 10,
    }
    round_s = 3.2

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.n = 2 * BLOCK_ROWS if smoke else 12 * BLOCK_ROWS
        rng = self.rng("data")
        n = self.n
        # pixels exist (patches always carry data) but are never read
        self.pixels = rng.integers(0, 256, size=(n, 8, 8, 3), dtype=np.uint8)
        self.frameno = np.arange(n) // PER_FRAME  # frame-ordered: zone maps bite
        self.label = rng.integers(0, len(LABELS), size=n)
        self.score = rng.permutation(n) / n
        self.zone = rng.integers(0, ZONES, size=n)
        self.frames = n // PER_FRAME
        #: frames per zone_window / order_limit window (~1.5 blocks)
        self.window = (3 * BLOCK_ROWS // 2) // PER_FRAME // (4 if smoke else 1)

    def input_arrays(self):
        return [self.pixels, self.frameno, self.label, self.score, self.zone]

    def user_bytes(self) -> int:
        # frameno, label, score, zone, rid + two tags: seven scalars per row
        return self.pixels.nbytes + 7 * 8 * self.n

    def sizes(self):
        return {
            "patches": self.n,
            "patch_shape": [8, 8, 3],
            "sealed_blocks": self.n // BLOCK_ROWS,
            "block_rows": BLOCK_ROWS,
            "window_frames": self.window,
        }

    def _tags(self, i: int) -> tuple[str, str]:
        return (LABELS[self.label[i]], f"z{self.zone[i] % 5}")

    def _patches(self):
        for i in range(self.n):
            yield Patch.from_frame(
                "syn",
                int(self.frameno[i]),
                self.pixels[i],
                rid=i,
                label=LABELS[self.label[i]],
                score=float(self.score[i]),
                zone=int(self.zone[i]),
                tags=self._tags(i),
            )

    def setup(self, workdir: str) -> None:
        self.db = DeepLens(workdir)
        self.db.materialize(self._patches(), "meta")

    def ops(self, round_index: int) -> list[Op]:
        rng = self.rng("ops", round_index)
        rotation = {"agg_scan": round_index, "minmax": round_index}
        out = []
        for cls in self.sequence:
            if cls in ("zone_window", "order_limit"):
                lo = int(rng.integers(0, self.frames - self.window))
                args: tuple = (lo, lo + self.window - 1)
            elif cls == "minmax":
                args = MINMAX_SHAPES[rotation[cls] % len(MINMAX_SHAPES)]
                rotation[cls] += 1
            elif cls == "explain_only":
                args = (
                    LABELS[int(rng.integers(0, len(LABELS)))],
                    round(float(rng.uniform(0.1, 0.9)), 4),
                )
            else:  # agg_scan: rotate the shapes, draw the constant
                shape = AGG_SHAPES[rotation[cls] % len(AGG_SHAPES)]
                rotation[cls] += 1
                constant: Any = {
                    "count_label": LABELS[int(rng.integers(0, len(LABELS)))],
                    "avg_zone": int(rng.integers(0, ZONES)),
                    "distinct_zone": round(float(rng.uniform(0.2, 0.8)), 4),
                    "contains_tag": f"z{int(rng.integers(0, 5))}",
                    "q2_frames": LABELS[int(rng.integers(0, len(LABELS)))],
                    "group_label": None,
                }[shape]
                args = (shape, constant)
            out.append(Op(cls, args))
        return out

    def run(self, op: Op) -> Any:
        db, a = self.db, op.args
        if op.cls == "zone_window":
            return db.sql(f"SELECT COUNT(*) FROM meta WHERE frameno BETWEEN {a[0]} AND {a[1]}")
        if op.cls == "minmax":
            return db.sql(f"SELECT {a[0]}({a[1]}) FROM meta")
        if op.cls == "explain_only":
            return db.sql(
                f"EXPLAIN SELECT label, score FROM meta WHERE label = '{a[0]}' "
                f"AND score >= {a[1]} ORDER BY score LIMIT 10"
            )
        if op.cls == "order_limit":
            return db.sql(
                f"SELECT rid, score FROM meta WHERE frameno BETWEEN {a[0]} AND {a[1]} "
                f"ORDER BY score DESC LIMIT 10"
            )
        shape, c = a
        if shape == "count_label":
            return db.sql(f"SELECT COUNT(*) FROM meta WHERE label = '{c}'")
        if shape == "avg_zone":
            return db.sql(f"SELECT AVG(score) FROM meta WHERE zone = {c}")
        if shape == "distinct_zone":
            return db.sql(f"SELECT COUNT(DISTINCT zone) FROM meta WHERE score >= {c}")
        if shape == "contains_tag":
            return db.sql(f"SELECT COUNT(*) FROM meta WHERE tags CONTAINS '{c}'")
        if shape == "q2_frames":  # Table-1 q2: frames showing a given label
            return db.sql(f"SELECT COUNT(DISTINCT frameno) FROM meta WHERE label = '{c}'")
        return db.scan("meta").aggregate("group", key=attribute_key("label"))

    def check(self, op: Op, result: Any) -> Outcome:
        a = op.args
        if op.cls == "explain_only":
            text = str(result)
            ok = "chosen:" in text and "metadata" in text
            return Outcome(ok, float(ok), 1, "" if ok else f"unexpected explanation: {text[:200]}")
        if op.cls == "order_limit":
            rows = np.flatnonzero((self.frameno >= a[0]) & (self.frameno <= a[1]))
            want = rows[np.argsort(-self.score[rows], kind="stable")][:10].tolist()
            got = [int(patch["rid"]) for patch in result]
            ok = got == want
            return Outcome(ok, set_recall(got, want), len(got), "" if ok else f"top-10 {got} vs {want}")
        if op.cls == "zone_window":
            want: Any = int(((self.frameno >= a[0]) & (self.frameno <= a[1])).sum())
        elif op.cls == "minmax":
            column = {"frameno": self.frameno, "score": self.score, "zone": self.zone}[a[1]]
            want = column.min() if a[0] == "MIN" else column.max()
        else:
            shape, c = a
            if shape == "count_label":
                want = int((self.label == LABELS.index(c)).sum())
            elif shape == "avg_zone":
                want = float(self.score[self.zone == c].mean())
            elif shape == "distinct_zone":
                want = len(np.unique(self.zone[self.score >= c]))
            elif shape == "contains_tag":
                want = int((self.zone % 5 == int(c[1:])).sum())
            elif shape == "q2_frames":
                want = len(np.unique(self.frameno[self.label == LABELS.index(c)]))
            else:
                counts = np.bincount(self.label, minlength=len(LABELS))
                want = {LABELS[i]: int(counts[i]) for i in range(len(LABELS))}
        if isinstance(want, dict):
            ok = dict(result) == want
            rows = len(want)
        else:
            ok = math.isclose(result, want, rel_tol=1e-9, abs_tol=1e-12)
            rows = 1
        return Outcome(ok, float(ok), rows, "" if ok else f"{result!r} vs reference {want!r}")

    def bypass_failures(self, timed, traced, per_class):
        failures = []
        if timed['deeplens_heap_reads_total{store="blob"}']:
            failures.append("metadata rounds read the blob heap")
        if timed["deeplens_journal_commits_total"]:
            failures.append("read-only rounds committed to the journal")
        if timed['deeplens_pager_page_reads_total{result="miss"}']:
            failures.append("warmed read rounds missed the pager cache")
        if traced is not None and traced["core.patch.records_decoded"]:
            failures.append("metadata rounds decoded full patch records")
        return failures

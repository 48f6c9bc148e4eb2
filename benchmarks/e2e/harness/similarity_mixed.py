"""``similarity_mixed`` — vector search with writes running beside reads.

``indexes`` do most of the work: HNSW probes, incremental HNSW and B+ tree
maintenance on append, an exact distance scan over an un-indexed twin, and
an on-the-fly Ball-tree similarity join. A search-side gain that costs
insert (or a bulk-build trick that breaks incremental add) shows here, and
the workload carries the accuracy axis: ``result_recall`` is measured
recall@10 against brute force, next to the planner's predicted recall.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import Attr, DeepLens, Patch
from repro.indexes.hnsw import expected_recall

from .base import TIE_EPS, Op, Outcome, Workload, set_recall

DIM = 32
CLUSTERS = 16
K = 10
HNSW_M = 8
HNSW_EF = 48
#: patches per ann_append op
APPEND = 8


class SimilarityMixed(Workload):
    name = "similarity_mixed"
    why = (
        "vector path: HNSW probes beside incremental inserts on the same graph, "
        "exact scan and similarity join as baselines; carries measured recall@10"
    )
    mix = {"ann_topk": 82, "ann_append": 10, "exact_topk": 6, "sim_join": 2}
    round_s = 1.9

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.n = 192 if smoke else 1536
        self.join_rows = 48 if smoke else 400
        rng = self.rng("data")
        self.centers = rng.standard_normal((CLUSTERS, DIM)) * 2.0
        # the pool holds the loaded rows and every row a later append adds
        pool = self.n + 64 * self.mix["ann_append"] * APPEND
        cluster = rng.integers(0, CLUSTERS, size=pool)
        self.pool_emb = self.centers[cluster] + rng.standard_normal((pool, DIM)) * 0.5
        self.pool_pixels = rng.integers(0, 256, size=(pool, 16, 16, 3), dtype=np.uint8)
        self.join_threshold = 3.0
        self.emb_of = self.traced_udf(self._emb_of)
        self.live = self.n  # rows of the pool the indexed collection holds
        self._ann_recalls: list[float] = []

    @staticmethod
    def _emb_of(patch: Patch) -> np.ndarray:
        return patch["emb"]

    def input_arrays(self):
        return [self.pool_emb, self.pool_pixels]

    def user_bytes(self) -> int:
        # both collections hold the loaded rows; appends go to one.
        # frameno, rid: two scalars per row
        rows = self.n + self.live
        per_row = self.pool_pixels[0].nbytes + self.pool_emb[0].nbytes + 2 * 8
        return rows * per_row

    def sizes(self):
        return {
            "patches": self.n,
            "twin_patches": self.n,
            "patch_shape": [16, 16, 3],
            "emb_dim": DIM,
            "clusters": CLUSTERS,
            "hnsw": {"m": HNSW_M, "ef": HNSW_EF},
            "append_rows_per_op": APPEND,
            "join_window_rows": self.join_rows,
        }

    def _patch(self, i: int) -> Patch:
        return Patch.from_frame("syn", i, self.pool_pixels[i], rid=i, emb=self.pool_emb[i])

    def setup(self, workdir: str) -> None:
        self.live = self.n
        db = self.db = DeepLens(workdir)
        db.materialize((self._patch(i) for i in range(self.n)), "vecs")
        db.materialize((self._patch(i) for i in range(self.n)), "vecs_exact")
        # lower-case kind: ``USING HNSW`` raises IndexError_ (see README, known gaps)
        db.sql(f"CREATE INDEX ON vecs (emb) USING hnsw (m = {HNSW_M}, ef = {HNSW_EF})")
        db.sql("CREATE INDEX ON vecs (frameno) USING btree")

    def ops(self, round_index: int) -> list[Op]:
        rng = self.rng("ops", round_index)
        appended = self.n + round_index * self.mix["ann_append"] * APPEND
        out = []
        for cls in self.sequence:
            if cls == "ann_topk":
                # probe near a row that exists by now — often a fresh append,
                # so an index that lost an insert loses recall
                recent = rng.random() < 0.3 and appended > self.n
                anchor = int(rng.integers(self.n if recent else 0, appended))
                args: tuple = (self.pool_emb[anchor] + rng.standard_normal(DIM) * 0.2,)
            elif cls == "exact_topk":
                anchor = int(rng.integers(0, self.n))
                args = (self.pool_emb[anchor] + rng.standard_normal(DIM) * 0.2,)
            elif cls == "ann_append":
                args = (appended, appended + APPEND)
                appended += APPEND
            else:  # sim_join: two disjoint windows of loaded rows
                left = int(rng.integers(0, self.n // 2 - self.join_rows))
                right = int(rng.integers(self.n // 2, self.n - self.join_rows))
                args = (left, right)
            out.append(Op(cls, args))
        return out

    def run(self, op: Op) -> Any:
        db, a = self.db, op.args
        if op.cls == "ann_topk":
            return db.sql(
                f"SELECT rid FROM vecs ORDER BY SIMILARITY LIMIT {K}",
                query_vector=a[0], vector_attr="emb",
            )
        if op.cls == "exact_topk":
            return db.sql(
                f"SELECT rid FROM vecs_exact ORDER BY SIMILARITY LIMIT {K}",
                query_vector=a[0], vector_attr="emb",
            )
        if op.cls == "ann_append":
            collection = db.collection("vecs")
            ids = [collection.add(self._patch(i)) for i in range(a[0], a[1])]
            db.catalog.sync()
            return ids
        span = self.join_rows - 1
        left = db.scan("vecs").filter(Attr("frameno").between(a[0], a[0] + span))
        right = db.scan("vecs").filter(Attr("frameno").between(a[1], a[1] + span))
        return left.similarity_join(
            right, threshold=self.join_threshold, features=self.emb_of, dim=DIM
        ).rows()

    def check(self, op: Op, result: Any) -> Outcome:
        a = op.args
        if op.cls == "ann_append":
            ok = len(result) == APPEND and len(self.db.collection("vecs")) == self.live + APPEND
            if ok:
                self.live += APPEND
            return Outcome(ok, float(ok), APPEND, "" if ok else "append did not land")
        if op.cls == "sim_join":
            left = self.pool_emb[a[0] : a[0] + self.join_rows]
            right = self.pool_emb[a[1] : a[1] + self.join_rows]
            dist = np.linalg.norm(left[:, None, :] - right[None, :, :], axis=2)
            sure = {(a[0] + i, a[1] + j) for i, j in np.argwhere(dist <= self.join_threshold - TIE_EPS)}
            maybe = {(a[0] + i, a[1] + j) for i, j in np.argwhere(dist <= self.join_threshold + TIE_EPS)}
            got = {(int(l["rid"]), int(r["rid"])) for l, r in result}
            ok = sure <= got <= maybe and len(got) == len(result)
            return Outcome(ok, set_recall(got, sure), len(result),
                           "" if ok else f"{len(got)} pairs vs {len(sure)} in the reference")
        rows = self.live if op.cls == "ann_topk" else self.n
        dist = np.linalg.norm(self.pool_emb[:rows] - a[0], axis=1)
        order = np.argsort(dist, kind="stable")
        want = order[:K].tolist()
        got = [int(patch["rid"]) for patch in result]
        well_formed = len(got) == K and len(set(got)) == K and all(0 <= r < rows for r in got)
        recall = set_recall(got, want)
        if op.cls == "ann_topk":
            # approximate by contract: a well-formed answer passes; its recall
            # is what result_recall and indexes.hnsw.recall_at_10 report
            self._ann_recalls.append(recall)
            return Outcome(well_formed, recall, len(got), "" if well_formed else f"malformed top-k {got}")
        # exact: rows tied with the k-th distance may swap in or out
        kth = dist[order[K - 1]]
        sure = set(np.flatnonzero(dist < kth - TIE_EPS).tolist())
        maybe = set(np.flatnonzero(dist <= kth + TIE_EPS).tolist())
        ok = well_formed and sure <= set(got) <= maybe
        return Outcome(ok, recall, len(got), "" if ok else f"exact top-k {got} vs {want}")

    def layer_extras(self):
        recalls = self._ann_recalls
        return {
            "indexes.hnsw.recall_at_10": float(np.mean(recalls)) if recalls else 0.0,
            "indexes.hnsw.expected_recall": expected_recall(HNSW_EF, K),
        }

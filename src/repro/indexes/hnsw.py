"""HNSW: a hierarchical navigable small-world graph for approximate k-NN.

The paper's similarity primitives (Sections 3.2, 7.3) lean on exact
multidimensional indexes, and Figures 6/7 show where that collapses:
Ball-tree pruning dies in high dimensions, leaving a brute-force scan.
This module is the suggested LSH-style escape hatch, built as the
stronger modern alternative — a layered skip-list-style proximity graph
(Malkov & Yashunin): every point lands on a geometrically distributed
stack of layers, upper layers form an expressway of long links for the
greedy descent, and layer 0 holds the full graph a beam search walks
with ``ef`` candidates. Recall is a *runtime* knob (``ef_search``), not
a build-time commitment.

Pure numpy on purpose: neighbor expansions are batched distance kernels
over a contiguous vector matrix, the frontier bookkeeping is two heaps.
No native extension, no new dependency, deterministic level assignment
(seeded per insertion ordinal) so a rebuilt index equals its snapshot.

Cost shape the optimizer models: a search touches about
``ef * log(n)`` vectors against ``n`` for brute force — the gap the
ANN benchmark measures against the Ball-tree.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

import numpy as np

from repro.errors import IndexError_

__all__ = ["HNSWIndex"]

#: default max neighbors per node on upper layers (layer 0 gets 2x)
DEFAULT_M = 16
#: default beam width while building (quality of the graph)
DEFAULT_EF_CONSTRUCTION = 100
#: default beam width while searching (the recall knob)
DEFAULT_EF_SEARCH = 64


def expected_recall(ef: int, k: int) -> float:
    """Heuristic expected recall@k of a beam of width ``ef`` — the
    number ``explain()`` shows next to the hnsw-ann access path and the
    recall-estimate gauge reports. Calibrated to the empirical shape of
    the benchmark curve: ~0.7 at ef=k, ~0.93 at ef=4k, ->1 beyond."""
    if k <= 0:
        return 1.0
    ratio = float(ef) / float(max(1, k))
    return max(0.0, min(1.0, 1.0 - 0.5 * math.exp(-ratio / 2.0)))


class HNSWIndex:
    """An incremental HNSW graph over fixed-dimension float vectors.

    ``add`` appends one vector under an external id (a patch id);
    ``search`` returns the approximate k nearest as ``(distance, id)``
    pairs, nearest first — the same contract as
    :meth:`~repro.indexes.balltree.BallTree.query_knn`, so access paths
    can swap one for the other. ``ef`` at search time trades recall for
    speed; ``ef >= len(index)`` degenerates to an exhaustive (exact)
    beam.
    """

    def __init__(
        self,
        dim: int,
        *,
        m: int = DEFAULT_M,
        ef_construction: int = DEFAULT_EF_CONSTRUCTION,
        ef_search: int = DEFAULT_EF_SEARCH,
        seed: int = 0,
        metrics=None,
    ) -> None:
        if dim <= 0:
            raise IndexError_(f"vector dimension must be positive, got {dim}")
        if m < 2:
            raise IndexError_(f"hnsw m must be >= 2, got {m}")
        if ef_construction < m:
            raise IndexError_(
                f"ef_construction ({ef_construction}) must be >= m ({m})"
            )
        self.dim = int(dim)
        self.m = int(m)
        #: layer-0 degree bound: the base layer holds every point, so it
        #: gets twice the budget (the standard M_max0 = 2M rule)
        self.m0 = 2 * self.m
        self.ef_construction = int(ef_construction)
        self.ef_search = int(ef_search)
        self.seed = int(seed)
        self._mult = 1.0 / math.log(self.m)
        self._vectors = np.empty((0, self.dim), dtype=np.float64)
        self._n = 0
        self._ids: list[int] = []
        self._id_set: set[int] = set()
        self._levels: list[int] = []
        #: node position -> layer -> neighbor positions
        self._graph: list[list[list[int]]] = []
        self._entry = -1
        self._max_level = -1
        #: delta tracking for the snapshot store: node count at the last
        #: persist and the positions whose adjacency ``add`` rewrote
        #: since. ``None`` while the graph continues no persisted state
        #: (a fresh build tracks nothing and is saved in full)
        self._persisted_n = 0
        self._touched: set[int] | None = None
        #: probe accounting of the most recent ``search`` call
        self.last_stats: dict[str, int] = {"hops": 0, "candidates": 0}
        self._hops = 0
        self._candidates = 0
        self.set_metrics(metrics)

    # -- telemetry ------------------------------------------------------

    def set_metrics(self, metrics) -> None:
        """Attach a metrics registry (not serialized with the graph)."""
        if metrics is None:
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._metric_probes = metrics.counter(
            "deeplens_ann_probes_total", "ANN index searches executed"
        )
        self._metric_hops = metrics.histogram(
            "deeplens_ann_hops", "graph nodes expanded per ANN search"
        )
        self._metric_candidates = metrics.histogram(
            "deeplens_ann_candidates",
            "distance computations per ANN search",
        )
        self._metric_recall = metrics.gauge(
            "deeplens_ann_recall_estimate",
            "heuristic expected recall of the most recent ANN search",
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: np.ndarray,
        ids: Iterable[int],
        *,
        m: int = DEFAULT_M,
        ef_construction: int = DEFAULT_EF_CONSTRUCTION,
        ef_search: int = DEFAULT_EF_SEARCH,
        seed: int = 0,
        metrics=None,
    ) -> "HNSWIndex":
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise IndexError_(
                f"hnsw build needs a non-empty (n, dim) matrix, got shape "
                f"{matrix.shape}"
            )
        index = cls(
            matrix.shape[1],
            m=m,
            ef_construction=ef_construction,
            ef_search=ef_search,
            seed=seed,
            metrics=metrics,
        )
        for vector, patch_id in zip(matrix, ids):
            index.add(vector, patch_id)
        return index

    def __len__(self) -> int:
        return self._n

    def __contains__(self, patch_id: int) -> bool:
        return int(patch_id) in self._id_set

    def ids(self) -> list[int]:
        return list(self._ids)

    def _assigned_level(self, ordinal: int) -> int:
        """Geometric level of the ``ordinal``-th insertion. Seeded per
        ordinal (not from a shared stream), so an index rebuilt by
        replaying the same insertion order is graph-identical to one
        restored from a snapshot — no RNG state to persist."""
        u = float(np.random.default_rng((self.seed, ordinal)).random())
        return int(-math.log(max(u, 1e-12)) * self._mult)

    def _check_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64).ravel()
        if v.shape[0] != self.dim:
            raise IndexError_(
                f"hnsw expects {self.dim}-dim vectors, got {v.shape[0]}"
            )
        return v

    def _dists(self, v: np.ndarray, positions: list[int]) -> np.ndarray:
        rows = self._vectors[positions]
        delta = rows - v
        return np.sqrt(np.einsum("ij,ij->i", delta, delta))

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], cap: int
    ) -> list[int]:
        """Diversity-pruned neighbor choice (Malkov's Algorithm 4): walk
        candidates nearest-first and keep one only if it is closer to
        the base point than to every neighbor already kept. Closest-only
        pruning severs the long bridge edges between well-separated
        clusters; this keeps them, so the greedy descent can cross.
        Discarded candidates backfill any spare capacity."""
        if len(candidates) <= cap:
            return [p for _, p in candidates]
        selected: list[int] = []
        discarded: list[int] = []
        for dist, pos in candidates:
            if len(selected) >= cap:
                break
            if selected and dist >= float(
                self._dists(self._vectors[pos], selected).min()
            ):
                discarded.append(pos)
            else:
                selected.append(pos)
        for pos in discarded:
            if len(selected) >= cap:
                break
            selected.append(pos)
        return selected

    def add(self, vector, patch_id: int) -> None:
        """Insert one vector under ``patch_id`` (incremental — this is
        what ``MaterializedCollection.add`` calls as new patches land)."""
        v = self._check_vector(vector)
        pos = self._n
        if pos == len(self._vectors):  # grow geometrically
            grown = np.empty(
                (max(8, 2 * len(self._vectors)), self.dim), dtype=np.float64
            )
            grown[: self._n] = self._vectors[: self._n]
            self._vectors = grown
        self._vectors[pos] = v
        self._n += 1
        self._ids.append(int(patch_id))
        self._id_set.add(int(patch_id))
        level = self._assigned_level(pos)
        self._levels.append(level)
        self._graph.append([[] for _ in range(level + 1)])

        if self._entry < 0:
            self._entry = pos
            self._max_level = level
            return

        # greedy descent through layers above the new node's top layer
        cur = self._entry
        for layer in range(self._max_level, level, -1):
            cur = self._greedy_step(v, cur, layer)

        # beam-insert on each shared layer, top down
        entry_points = [cur]
        for layer in range(min(level, self._max_level), -1, -1):
            nearest = self._search_layer(
                v, entry_points, self.ef_construction, layer
            )
            cap = self.m0 if layer == 0 else self.m
            chosen = self._select_neighbors(nearest, self.m)
            self._graph[pos][layer] = list(chosen)
            if self._touched is not None:
                self._touched.update(chosen)
            for neighbor in chosen:
                links = self._graph[neighbor][layer]
                links.append(pos)
                if len(links) > cap:
                    base = self._vectors[neighbor]
                    ranked = sorted(
                        zip(self._dists(base, links).tolist(), links)
                    )
                    self._graph[neighbor][layer] = self._select_neighbors(
                        ranked, cap
                    )
            entry_points = [p for _, p in nearest] or [cur]

        if level > self._max_level:
            self._entry = pos
            self._max_level = level

    # -- search ---------------------------------------------------------

    def _greedy_step(self, v: np.ndarray, start: int, layer: int) -> int:
        """Hill-climb to the locally nearest node of one upper layer."""
        cur = start
        cur_dist = float(self._dists(v, [cur])[0])
        improved = True
        while improved:
            improved = False
            neighbors = self._graph[cur][layer]
            self._hops += 1
            if not neighbors:
                break
            dists = self._dists(v, neighbors)
            self._candidates += len(neighbors)
            best = int(np.argmin(dists))
            if dists[best] < cur_dist:
                cur = neighbors[best]
                cur_dist = float(dists[best])
                improved = True
        return cur

    def _search_layer(
        self, v: np.ndarray, entry_points: list[int], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        """Beam search of one layer; returns up to ``ef`` nearest as
        (distance, position), nearest first."""
        dists = self._dists(v, entry_points)
        self._candidates += len(entry_points)
        visited = set(entry_points)
        frontier = [(float(d), p) for d, p in zip(dists, entry_points)]
        heapq.heapify(frontier)
        # max-heap (negated) of the best ef found so far
        best = [(-d, p) for d, p in frontier]
        heapq.heapify(best)
        while len(best) > ef:
            heapq.heappop(best)
        while frontier:
            dist, node = heapq.heappop(frontier)
            if len(best) >= ef and dist > -best[0][0]:
                break
            self._hops += 1
            fresh = [
                p for p in self._graph[node][layer] if p not in visited
            ]
            if not fresh:
                continue
            visited.update(fresh)
            fresh_dists = self._dists(v, fresh)
            self._candidates += len(fresh)
            for d, p in zip(fresh_dists, fresh):
                d = float(d)
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(frontier, (d, p))
                    heapq.heappush(best, (-d, p))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-negated, p) for negated, p in best)

    def search(
        self, query, k: int, *, ef: int | None = None
    ) -> list[tuple[float, int]]:
        """Approximate k nearest neighbors: ``[(distance, id), ...]``
        nearest first. ``ef`` (defaulting to the index's ``ef_search``)
        is the beam width — wider is slower and more exact."""
        if k <= 0 or self._n == 0:
            return []
        v = self._check_vector(query)
        beam = max(int(ef) if ef is not None else self.ef_search, k)
        self._hops = 0
        self._candidates = 0
        cur = self._entry
        for layer in range(self._max_level, 0, -1):
            cur = self._greedy_step(v, cur, layer)
        nearest = self._search_layer(v, [cur], beam, 0)
        out = [(dist, self._ids[p]) for dist, p in nearest[:k]]
        self.last_stats = {
            "hops": self._hops,
            "candidates": self._candidates,
        }
        self._metric_probes.inc()
        self._metric_hops.observe(self._hops)
        self._metric_candidates.observe(self._candidates)
        self._metric_recall.set(expected_recall(beam, k))
        return out

    def query_knn(self, query, k: int) -> list[tuple[float, int]]:
        """BallTree-compatible alias (searched at this index's
        ``ef_search``)."""
        return self.search(query, k)

    def params(self) -> dict:
        return {
            "m": self.m,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "seed": self.seed,
        }

    # -- persistence ----------------------------------------------------

    def _csr(self, positions: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency of ``positions`` flattened CSR-style: per (node,
        layer) pair a link count, and the links end to end."""
        counts: list[int] = []
        flat: list[int] = []
        for pos in positions:
            for links in self._graph[pos]:
                counts.append(len(links))
                flat.extend(links)
        return np.array(counts, dtype=np.int64), np.array(flat, dtype=np.int64)

    def to_value(self) -> dict:
        """The full snapshot (a snapshot-store *base*): the build knobs
        plus :meth:`_nodes_value` over every node — ids/levels/vectors
        and all adjacency lists flattened to two int64 arrays (CSR over
        the (node, layer) pairs in insertion order). Between bases the
        catalog persists only :meth:`take_delta` — the same shape
        restricted to the nodes ``add`` appended and the adjacency lists
        it rewrote — so a commit costs what the inserts touched, not the
        whole graph."""
        return {
            "dim": self.dim,
            "m": self.m,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "seed": self.seed,
            **self._nodes_value(0, range(self._n)),
        }

    def _nodes_value(self, start: int, nodes: Iterable[int]) -> dict:
        """Nodes ``start..n`` (ids, levels, vectors) and the current
        adjacency of ``nodes``, which must include them."""
        nodes = list(nodes)
        counts, flat = self._csr(nodes)
        return {
            "start": start,
            "entry": self._entry,
            "max_level": self._max_level,
            "ids": np.array(self._ids[start:], dtype=np.int64),
            "levels": np.array(self._levels[start:], dtype=np.int64),
            "vectors": np.array(self._vectors[start : self._n], dtype=np.float64),
            "nodes": np.array(nodes, dtype=np.int64),
            "counts": counts,
            "flat": flat,
        }

    @classmethod
    def from_value(cls, value: dict, *, metrics=None) -> "HNSWIndex":
        """Rebuild from a snapshot, validating its internal consistency
        so a half-written or bit-flipped graph raises (and the catalog
        quarantines) instead of silently mis-searching."""
        index = cls(
            int(value["dim"]),
            m=int(value["m"]),
            ef_construction=int(value["ef_construction"]),
            ef_search=int(value["ef_search"]),
            seed=int(value["seed"]),
            metrics=metrics,
        )
        index._touched = set()
        index.apply_delta(value)
        return index

    def take_delta(self) -> dict | None:
        """Snapshot-store protocol: the nodes appended since the previous
        call (or since :meth:`from_value`) plus the current adjacency of
        every node whose links ``add`` rewrote; ``None`` when this graph
        was built in memory and must be saved in full."""
        touched, self._touched = self._touched, set()
        start, self._persisted_n = self._persisted_n, self._n
        if touched is None:
            return None
        return self._nodes_value(
            start, sorted(touched | set(range(start, self._n)))
        )

    def apply_delta(self, value: dict) -> None:
        """Fold one persisted record (a base is the delta from an empty
        graph): append its nodes, overwrite the adjacency lists it
        carries, and re-run the CSR consistency validation on everything
        folded — array shapes against levels, every neighbor an existing
        node, the entry point on the top layer."""
        ids = np.asarray(value["ids"], dtype=np.int64)
        levels = np.asarray(value["levels"], dtype=np.int64)
        vectors = np.asarray(value["vectors"], dtype=np.float64)
        nodes = np.asarray(value["nodes"], dtype=np.int64)
        counts = np.asarray(value["counts"], dtype=np.int64)
        flat = np.asarray(value["flat"], dtype=np.int64)
        entry, max_level = int(value["entry"]), int(value["max_level"])
        if int(value["start"]) != self._n:
            raise ValueError(
                f"hnsw snapshot starts at node {value['start']}, graph has {self._n}"
            )
        if vectors.shape != (len(ids), self.dim) or len(levels) != len(ids):
            raise ValueError(
                f"hnsw snapshot shape mismatch: {len(ids)} ids, "
                f"{vectors.shape} vectors, {len(levels)} levels"
            )
        n = self._n + len(ids)
        all_levels = self._levels + levels.tolist()
        if min(all_levels[self._n :], default=0) < 0 or (
            len(nodes) and not 0 <= nodes.min() <= nodes.max() < n
        ):
            raise ValueError("hnsw snapshot node or level out of range")
        if (
            len(counts) != sum(all_levels[pos] + 1 for pos in nodes.tolist())
            or counts.sum() != len(flat)
            or (len(counts) and counts.min() < 0)
        ):
            raise ValueError("hnsw snapshot adjacency arrays disagree")
        if len(flat) and (flat.min() < 0 or flat.max() >= n):
            raise ValueError("hnsw snapshot neighbor out of range")
        if n and not (0 <= entry < n and all_levels[entry] == max_level):
            raise ValueError("hnsw snapshot entry point is inconsistent")
        self._vectors = np.concatenate([self._vectors[: self._n], vectors])
        self._n = self._persisted_n = n
        self._ids.extend(ids.tolist())
        self._id_set.update(ids.tolist())
        self._levels = all_levels
        self._graph.extend([[] for _ in range(level + 1)] for level in levels.tolist())
        links = flat.tolist()
        cursor = offset = 0
        for pos in nodes.tolist():
            layers = self._graph[pos]
            for layer in range(len(layers)):
                span = int(counts[cursor])
                cursor += 1
                layers[layer] = links[offset : offset + span]
                offset += span
        self._entry = entry
        self._max_level = max_level

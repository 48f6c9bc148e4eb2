"""Cost model for the visual query optimizer (Section 7.4).

"Accurately modeling the relationship between input relation size and
operator cost is crucial for cost-based query optimization." The model
here covers the operators the optimizer chooses between:

* per-patch scan/filter costs;
* all-pairs matching (nested loop over feature distances);
* Ball-tree build and probe, with the **non-linear** size/dimension
  behaviour of Figure 7 — pruning effectiveness decays with dimension, so
  the probed fraction interpolates from logarithmic toward linear;
* hash/B+ lookups;
* device placement costs (delegated to the backend specs of
  :mod:`repro.vision.backends.device`).

Constants are seconds on the reference machine; :meth:`CostModel.calibrate`
re-fits the hot ones by timing micro-workloads, the pragmatic answer to
"a noisy and analytically complex cost model".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.indexes import BallTree


@dataclass
class CostModel:
    """Analytic operator costs in seconds."""

    #: fixed cost to produce one patch from a scan
    scan_per_patch: float = 4e-5
    #: predicate evaluation per patch
    filter_per_patch: float = 1.5e-6
    #: one UDF/model invocation per patch (inference dominates scans by
    #: orders of magnitude — the asymmetry materialized views exploit)
    udf_per_patch: float = 1.0e-3
    #: one feature-distance comparison of dimension d costs dist_base + d*dist_per_dim
    dist_base: float = 1.2e-6
    dist_per_dim: float = 2.5e-8
    #: Ball-tree build: build_per_point * n * log2(n) * (1 + dim * build_dim_factor)
    build_per_point: float = 1.0e-6
    build_dim_factor: float = 0.02
    #: Ball-tree probe visits ~ n**alpha(dim) candidates
    probe_alpha_low: float = 0.35
    probe_alpha_slope: float = 0.011
    #: hash/B+ index point lookup
    index_lookup: float = 1.2e-4
    #: per-result fetch from the heap
    fetch_per_patch: float = 1.2e-4
    #: reading one column of one metadata-segment block (for a sealed
    #: block: block read + checksum amortized over its columns, inflate,
    #: parse; for the open one: packing its in-memory values; then one
    #: vectorized predicate pass) — dearer than an index probe, which is
    #: why a point lookup still goes to its index
    segment_column_decode: float = 1.5e-4
    #: building one data-less patch for a row that survived the column
    #: filter (its other columns' values, the metadata dict, the Patch)
    segment_row_materialize: float = 8e-6

    calibrated: bool = field(default=False, repr=False)

    # -- scans / filters --------------------------------------------------

    def full_scan(self, n: int) -> float:
        return n * (self.scan_per_patch + self.filter_per_patch)

    def columns_pass(self, blocks: int, columns: int) -> float:
        """Decoding and masking ``columns`` columns of ``blocks`` segment
        blocks (the open one counts as a block) — no row is built."""
        return blocks * columns * self.segment_column_decode

    def metadata_scan(self, blocks: int, columns: int, survivors: float) -> float:
        """Metadata-only scan: a columns pass, then data-less patches
        for the ``survivors`` rows that passed it."""
        return (
            self.columns_pass(blocks, columns)
            + survivors * self.segment_row_materialize
        )

    def late_materialization(
        self, blocks: int, columns: int, survivors: float
    ) -> float:
        """A columns pass, then a heap fetch (read, inflate, parse the
        pixel record) for each surviving row only."""
        return (
            self.columns_pass(blocks, columns)
            + survivors * self.fetch_per_patch
        )

    def udf_map(self, n: float) -> float:
        """Applying a UDF map over ``n`` rows (model inference)."""
        return n * self.udf_per_patch

    def index_point_lookup(self, expected_results: float) -> float:
        return self.index_lookup + expected_results * self.fetch_per_patch

    def index_range_scan(self, expected_results: float) -> float:
        return self.index_lookup + expected_results * (
            self.fetch_per_patch + self.filter_per_patch
        )

    # -- matching ------------------------------------------------------------

    def pair_distance(self, dim: int) -> float:
        return self.dist_base + dim * self.dist_per_dim

    def nested_loop_join(self, n_left: int, n_right: int, dim: int) -> float:
        return n_left * n_right * self.pair_distance(dim)

    def probe_alpha(self, dim: int) -> float:
        """Exponent of the probed fraction: ~log-like in low dim, toward
        linear in high dim (the curse of dimensionality)."""
        return float(min(1.0, self.probe_alpha_low + self.probe_alpha_slope * dim))

    def balltree_build(self, n: int, dim: int) -> float:
        if n <= 1:
            return self.build_per_point
        return (
            self.build_per_point
            * n
            * np.log2(max(n, 2))
            * (1.0 + dim * self.build_dim_factor)
        )

    def balltree_probe(self, n_indexed: int, dim: int) -> float:
        visited = max(n_indexed, 2) ** self.probe_alpha(dim)
        return visited * self.pair_distance(dim)

    def balltree_join(
        self, n_probe: int, n_indexed: int, dim: int, *, prebuilt: bool = False
    ) -> float:
        build = 0.0 if prebuilt else self.balltree_build(n_indexed, dim)
        return build + n_probe * self.balltree_probe(n_indexed, dim)

    # -- approximate nearest neighbor (HNSW) ------------------------------

    def hnsw_probe(self, n_indexed: int, dim: int, ef: int) -> float:
        """One HNSW beam search: ~``ef * log2(n)`` distance evaluations —
        the logarithmic shape that stays flat where Ball-tree pruning
        collapses (``probe_alpha`` -> 1) in high dimensions."""
        visited = max(float(ef), 1.0) * np.log2(max(n_indexed, 2))
        return visited * self.pair_distance(dim)

    # -- calibration ----------------------------------------------------

    def calibrate(self, *, seed: int = 0) -> "CostModel":
        """Re-fit distance/build/probe constants from micro-measurements."""
        rng = np.random.default_rng(seed)
        # pairwise distance throughput at a reference dimension
        dim = 32
        left = rng.normal(size=(200, dim))
        right = rng.normal(size=(200, dim))
        started = time.perf_counter()
        for row in left:
            np.sqrt(((right - row) ** 2).sum(axis=1))
        per_pair = (time.perf_counter() - started) / (200 * 200)
        self.dist_per_dim = per_pair / (2 * dim)
        self.dist_base = per_pair / 2
        # build cost at a reference size
        points = rng.normal(size=(2000, dim))
        started = time.perf_counter()
        tree = BallTree(points, leaf_size=16)
        build_seconds = time.perf_counter() - started
        self.build_per_point = build_seconds / (
            2000 * np.log2(2000) * (1.0 + dim * self.build_dim_factor)
        )
        # probe cost fixes the alpha intercept at this dimension
        queries = rng.normal(size=(100, dim))
        started = time.perf_counter()
        for query in queries:
            tree.query_radius(query, 0.5)
        probe_seconds = (time.perf_counter() - started) / 100
        visited = probe_seconds / self.pair_distance(dim)
        alpha = float(np.log(max(visited, 2.0)) / np.log(2000))
        self.probe_alpha_low = max(alpha - self.probe_alpha_slope * dim, 0.05)
        self.calibrated = True
        return self

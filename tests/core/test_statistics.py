"""Statistics layer tests: seeded property tests for the estimators,
persistence round-trips, and incremental-vs-rebuild consistency."""

import numpy as np
import pytest

from repro.core import DeepLens
from repro.core.catalog import Catalog
from repro.core.expressions import Attr
from repro.core.patch import Patch
from repro.core.statistics import (
    EQ_SELECTIVITY,
    HISTOGRAM_BUCKETS,
    KMV_SIZE,
    MAX_NUMERIC_SAMPLE,
    MAX_TRACKED_VALUES,
    NEQ_SELECTIVITY,
    RANGE_SELECTIVITY,
    SOURCE_FALLBACK,
    SOURCE_HISTOGRAM,
    SOURCE_MCV,
    AttributeStatistics,
    CollectionStatistics,
    fallback_estimate,
)
from repro.storage.kvstore import serialization

#: absolute selectivity error allowed for histogram-backed estimates: two
#: boundary buckets of an equi-depth histogram plus interpolation slack
HISTOGRAM_TOLERANCE = 2.0 / HISTOGRAM_BUCKETS + 0.02


def _frozen(stats):
    """A snapshot as bytes: ``to_value()`` carries ndarrays, which ``==``
    cannot compare; the serialized form is the bit-exact comparison."""
    return serialization.dumps(stats.to_value())


def attr_stats(values):
    stats = AttributeStatistics()
    for value in values:
        stats.observe(value)
    return stats


def exact_fraction(values, predicate):
    return sum(1 for v in values if predicate(v)) / len(values)


def numeric_column(rng, kind, n):
    if kind == "uniform":
        return rng.uniform(-50.0, 50.0, n).tolist()
    if kind == "normal":
        return rng.normal(10.0, 4.0, n).tolist()
    if kind == "ints":  # heavy duplicates: zero-width histogram buckets
        return [int(v) for v in rng.integers(0, 25, n)]
    raise AssertionError(kind)


class TestNumericPropertyEstimates:
    """Histogram/MCV estimates stay within bounded error of brute force
    across EQ/LT/GT/range predicates on random numeric columns."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["uniform", "normal", "ints"])
    def test_range_predicates_bounded_error(self, seed, kind):
        rng = np.random.default_rng(seed)
        values = numeric_column(rng, kind, 1500)
        stats = attr_stats(values)
        lo_pool = rng.uniform(min(values), max(values), 12)
        for bound in lo_pool:
            for op, predicate in [
                ("<", lambda v, b=bound: v < b),
                ("<=", lambda v, b=bound: v <= b),
                (">", lambda v, b=bound: v > b),
                (">=", lambda v, b=bound: v >= b),
            ]:
                estimate = stats.estimate_cmp(op, bound)
                assert estimate is not None
                exact = exact_fraction(values, predicate)
                assert abs(estimate.selectivity - exact) <= HISTOGRAM_TOLERANCE, (
                    f"{kind} seed={seed} {op} {bound}: "
                    f"{estimate.selectivity} vs exact {exact}"
                )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["uniform", "normal", "ints"])
    def test_between_bounded_error(self, seed, kind):
        rng = np.random.default_rng(100 + seed)
        values = numeric_column(rng, kind, 1500)
        stats = attr_stats(values)
        for _ in range(12):
            a, b = sorted(rng.uniform(min(values), max(values), 2))
            estimate = stats.estimate_range(a, b)
            assert estimate is not None
            exact = exact_fraction(values, lambda v: a <= v <= b)
            assert abs(estimate.selectivity - exact) <= HISTOGRAM_TOLERANCE

    @pytest.mark.parametrize("seed", range(4))
    def test_eq_on_duplicate_heavy_ints_is_exact(self, seed):
        rng = np.random.default_rng(200 + seed)
        values = [int(v) for v in rng.integers(0, 25, 1500)]
        stats = attr_stats(values)
        for target in range(-2, 27):
            estimate = stats.estimate_eq(target)
            assert estimate is not None
            assert estimate.source == SOURCE_MCV  # < MAX_TRACKED_VALUES distinct
            exact = exact_fraction(values, lambda v: v == target)
            assert estimate.selectivity == pytest.approx(exact)

    @pytest.mark.parametrize("seed", range(2))
    def test_eq_on_continuous_column_uses_distinct_sketch(self, seed):
        rng = np.random.default_rng(300 + seed)
        values = rng.uniform(0.0, 1.0, 2000).tolist()  # ~all distinct
        stats = attr_stats(values)
        estimate = stats.estimate_eq(values[17])
        assert estimate is not None
        # either still tracked (mcv) or estimated via the distinct sketch;
        # both must land near 1/n
        assert estimate.selectivity <= 10.0 / len(values)

    def test_frozen_histogram_still_bounded(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 100.0, MAX_NUMERIC_SAMPLE + 3000).tolist()
        stats = attr_stats(values)
        assert stats.bucket_edges is not None  # sample cap exceeded: frozen
        for bound in rng.uniform(0.0, 100.0, 15):
            estimate = stats.estimate_cmp("<=", bound)
            exact = exact_fraction(values, lambda v: v <= bound)
            # the frozen histogram only interpolates post-freeze inserts,
            # so allow a slightly wider band
            assert abs(estimate.selectivity - exact) <= HISTOGRAM_TOLERANCE + 0.04

    def test_min_max_and_out_of_range(self):
        stats = attr_stats([5.0, 1.0, 9.0, 3.0])
        assert stats.min_value == 1.0
        assert stats.max_value == 9.0
        assert stats.estimate_range(10.0, 20.0).selectivity == 0.0
        assert stats.estimate_range(None, None).selectivity == pytest.approx(1.0)


class TestCategoricalEstimates:
    @pytest.mark.parametrize("seed", range(4))
    def test_mcv_eq_and_neq_exact(self, seed):
        rng = np.random.default_rng(400 + seed)
        labels = [f"label-{int(v)}" for v in rng.integers(0, 20, 1000)]
        stats = attr_stats(labels)
        for target in {labels[0], labels[1], "label-0", "nope"}:
            estimate = stats.estimate_eq(target)
            exact = exact_fraction(labels, lambda v: v == target)
            assert estimate.source == SOURCE_MCV
            assert estimate.selectivity == pytest.approx(exact)
            neq = stats.estimate_cmp("!=", target)
            assert neq.selectivity == pytest.approx(1.0 - exact)

    def test_most_common_ranked(self):
        stats = attr_stats(["a"] * 5 + ["b"] * 3 + ["c"])
        assert stats.most_common(2) == [("a", 5), ("b", 3)]

    def test_overflow_keeps_estimates_sane(self):
        # more distinct values than the tracking cap: the untracked tail
        # is estimated through the distinct sketch and stays a probability
        values = [f"v{i}" for i in range(MAX_TRACKED_VALUES + 500)]
        stats = attr_stats(values)
        assert stats.tracked_full
        untracked = stats.estimate_eq(f"v{MAX_TRACKED_VALUES + 100}")
        assert untracked is not None
        assert 0.0 <= untracked.selectivity <= 0.05
        # a tracked value is still exact
        tracked = stats.estimate_eq("v0")
        assert tracked.source == SOURCE_MCV
        assert tracked.selectivity == pytest.approx(1.0 / len(values))

    def test_in_predicate_sums_members(self):
        stats = attr_stats(["x"] * 6 + ["y"] * 3 + ["z"])
        estimate = stats.estimate_cmp("in", ("x", "z"))
        assert estimate.selectivity == pytest.approx(0.7)

    def test_string_range_uses_value_dictionary(self):
        stats = attr_stats(["apple", "banana", "cherry", "banana"])
        estimate = stats.estimate_range("b", "c")
        assert estimate is not None
        assert estimate.selectivity == pytest.approx(0.5)  # the two bananas


class TestDistinctAndVectors:
    def test_kmv_distinct_within_factor_two(self):
        rng = np.random.default_rng(11)
        values = [int(v) for v in rng.integers(0, 100_000, 20_000)]
        true_distinct = len(set(values))
        stats = attr_stats(values)
        assert len(stats._kmv) == KMV_SIZE
        estimate = stats.distinct_estimate()
        assert true_distinct / 2 <= estimate <= true_distinct * 2

    def test_small_distinct_exact(self):
        stats = attr_stats(["a", "b", "a", "c"])
        assert stats.distinct_estimate() == 3.0

    def test_vector_dim_recorded(self):
        stats = attr_stats([np.zeros(64), np.zeros(64), np.zeros(64)])
        assert stats.dim == 64
        assert stats.vector_count == 3
        # numeric tuples count as vectors too (bboxes)
        bbox = attr_stats([(0, 0, 4, 4), (1, 1, 5, 5)])
        assert bbox.dim == 4


class TestCollectionStatistics:
    def _patches(self, n=60):
        for i in range(n):
            patch = Patch.from_frame("v", i, np.zeros((4, 4, 3), np.uint8))
            patch.metadata["label"] = "rare" if i % 20 == 0 else "common"
            patch.metadata["score"] = float(i)
            if i % 2 == 0:  # present on half the rows only
                patch.metadata["flag"] = "on"
            yield patch

    def _collect(self, n=60):
        stats = CollectionStatistics()
        for patch in self._patches(n):
            stats.observe(patch)
        return stats

    def test_presence_scaling(self):
        stats = self._collect()
        estimate = stats.estimate_predicate(Attr("flag") == "on")
        assert estimate.selectivity == pytest.approx(0.5)

    def test_null_semantics(self):
        stats = self._collect()
        absent = stats.estimate_predicate(Attr("flag") == None)  # noqa: E711
        assert absent.selectivity == pytest.approx(0.5)
        present = stats.estimate_predicate(Attr("flag").is_not_none())
        assert present.selectivity == pytest.approx(0.5)
        # != constant also matches the rows where the attr is absent
        neq = stats.estimate_predicate(Attr("flag") != "on")
        assert neq.selectivity == pytest.approx(0.5)

    def test_conjunction_multiplies(self):
        stats = self._collect()
        expr = (Attr("label") == "rare") & (Attr("score") <= 29.5)
        estimate = stats.estimate_predicate(expr)
        assert estimate.selectivity == pytest.approx(0.05 * 0.5, abs=0.02)
        assert SOURCE_MCV in estimate.source
        assert SOURCE_HISTOGRAM in estimate.source

    def test_disjunction_and_negation(self):
        stats = self._collect()
        # Or combines under independence: 1 - (1-0.05)(1-0.95)
        disjunction = stats.estimate_predicate(
            (Attr("label") == "rare") | (Attr("label") == "common")
        )
        assert disjunction.selectivity == pytest.approx(0.9525)
        negation = stats.estimate_predicate(~(Attr("label") == "rare"))
        assert negation.selectivity == pytest.approx(0.95)

    def test_unknown_attr_falls_back(self):
        stats = self._collect()
        estimate = stats.estimate_predicate(Attr("nothing") == 1)
        assert estimate.source == SOURCE_FALLBACK
        assert estimate.selectivity == EQ_SELECTIVITY

    def test_data_dim_recorded(self):
        stats = self._collect()
        assert stats.data_dim == 4 * 4 * 3
        assert stats.embedding_dim() == 48


class TestFallbackEstimates:
    def test_neq_gets_its_own_estimate(self):
        # regression: != used to share RANGE_SELECTIVITY with ranges
        neq = fallback_estimate(Attr("a") != 1)
        assert neq.selectivity == NEQ_SELECTIVITY
        assert neq.selectivity == pytest.approx(1.0 - EQ_SELECTIVITY)
        assert neq.source == SOURCE_FALLBACK
        assert fallback_estimate(Attr("a") < 1).selectivity == RANGE_SELECTIVITY
        assert fallback_estimate(Attr("a") == 1).selectivity == EQ_SELECTIVITY

    def test_connectives(self):
        conj = fallback_estimate((Attr("a") == 1) & (Attr("b") == 2))
        assert conj.selectivity == pytest.approx(EQ_SELECTIVITY**2)
        neg = fallback_estimate(~(Attr("a") == 1))
        assert neg.selectivity == pytest.approx(1.0 - EQ_SELECTIVITY)


def _make_patches(n=40, start=0):
    rng = np.random.default_rng(start)
    for i in range(start, start + n):
        patch = Patch.from_frame(
            "vid", i, rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = "vehicle" if i % 5 == 0 else "person"
        patch.metadata["score"] = float(i % 17)
        yield patch


class TestPersistence:
    def test_round_trip_identical_estimates(self, tmp_path):
        expr = (Attr("label") == "vehicle") & (Attr("score") <= 8.0)
        with Catalog(tmp_path) as catalog:
            catalog.materialize(_make_patches(), "c")
            before = catalog.statistics_for("c")
            snapshot = _frozen(before)
            estimate_before = before.estimate_predicate(expr)
        with Catalog(tmp_path) as catalog:
            after = catalog.statistics_for("c")
            assert after is not None
            assert _frozen(after) == snapshot
            assert after.estimate_predicate(expr) == estimate_before

    def test_incremental_add_matches_rebuild(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(_make_patches(30), "c")
            for patch in _make_patches(25, start=30):
                collection.add(patch)
            incremental = _frozen(catalog.statistics_for("c"))
            rebuilt = _frozen(catalog.rebuild_statistics("c"))
            assert incremental == rebuilt

    def test_incremental_add_survives_reopen(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(_make_patches(30), "c")
            for patch in _make_patches(5, start=30):
                collection.add(patch)
            snapshot = _frozen(catalog.statistics_for("c"))
        with Catalog(tmp_path) as catalog:
            assert _frozen(catalog.statistics_for("c")) == snapshot
            assert catalog.statistics_for("c").row_count == 35

    def test_replace_resets_statistics(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(_make_patches(30), "c")
            catalog.materialize(_make_patches(10), "c", replace=True)
            assert catalog.statistics_for("c").row_count == 10

    def test_drop_statistics_falls_back(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(_make_patches(30), "c")
            db.catalog.drop_statistics("c")
            assert db.statistics("c") is None
            rows, source = db.optimizer.estimator().filter_rows(
                "c", Attr("label") == "vehicle"
            )
            assert source == SOURCE_FALLBACK
            assert rows == pytest.approx(30 * EQ_SELECTIVITY)
            # and a rebuild brings the estimates back
            db.rebuild_statistics("c")
            rows, source = db.optimizer.estimator().filter_rows(
                "c", Attr("label") == "vehicle"
            )
            assert source == SOURCE_MCV
            assert rows == pytest.approx(6.0)

    def test_unknown_collection_has_no_statistics(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            assert catalog.statistics_for("nope") is None

    def test_add_after_drop_does_not_seed_partial_stats(self, tmp_path):
        """Regression: an add() on a collection whose statistics were
        dropped (or that predates statistics) must NOT lazily create
        stats seeded from that one patch — one row posing as the whole
        collection's profile gives wildly wrong 'measured' estimates."""
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(_make_patches(100), "c")
            catalog.drop_statistics("c")
            for patch in _make_patches(3, start=100):
                collection.add(patch)
            # still no statistics: the planner stays on fallback constants
            assert catalog.statistics_for("c") is None
            from repro.core.optimizer import Optimizer

            rows, source = Optimizer(catalog).estimator().filter_rows(
                "c", Attr("label") == "vehicle"
            )
            assert source == SOURCE_FALLBACK
            assert rows == pytest.approx(103 * EQ_SELECTIVITY)
            # an explicit rebuild restores measured estimates over all rows
            assert catalog.rebuild_statistics("c").row_count == 103


class TestStaleness:
    """The mutation counter: post-materialization add()s flip the stale
    flag (the signal view invalidation also keys on) without perturbing
    the statistical profile or its persistence invariants."""

    def test_stale_flag_counts_post_materialize_adds(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(_make_patches(20), "c")
            assert db.statistics("c").stale is False
            collection = db.collection("c")
            for patch in _make_patches(3, start=20):
                collection.add(patch)
            stats = db.statistics("c")
            assert stats.stale is True
            assert stats.staleness == 3
            # the profile itself stayed exact under the incremental adds
            assert stats.row_count == 23

    def test_staleness_excluded_from_snapshot_equality(self, tmp_path):
        # staleness is bookkeeping about the collection, not part of the
        # statistical profile: incremental-vs-rebuild equality must hold
        # even when the incremental side saw post-materialization adds
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(_make_patches(20), "c")
            for patch in _make_patches(5, start=20):
                collection.add(patch)
            incremental = catalog.statistics_for("c")
            assert incremental.staleness == 5
            snapshot = _frozen(incremental)
            assert "staleness" not in repr(snapshot)
            rebuilt = catalog.rebuild_statistics("c")
            assert _frozen(rebuilt) == snapshot
            # and the rebuild re-baselined the counter
            assert catalog.statistics_for("c").staleness == 0

    def test_staleness_survives_reopen(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            collection = catalog.materialize(_make_patches(10), "c")
            collection.add(next(iter(_make_patches(1, start=10))))
        with Catalog(tmp_path) as catalog:
            assert catalog.statistics_for("c").staleness == 1
            assert catalog.statistics_for("c").stale is True

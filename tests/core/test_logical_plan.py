"""Tests for the logical plan IR, rewrite rules, lowering, and batching."""

import numpy as np
import pytest

from repro.core import logical
from repro.core.catalog import Catalog
from repro.core.expressions import Attr, Predicate
from repro.core.operators import (
    IteratorScan,
    Limit,
    MapPatches,
    OrderBy,
    Project,
    Select,
)
from repro.core.optimizer import Optimizer, UDFCache, plan_pipeline, rewrite
from repro.core.patch import Patch
from repro.errors import QueryError


def patches(n=10):
    out = []
    for i in range(n):
        patch = Patch.from_frame("v", i, np.full((4, 4, 3), i, np.uint8))
        patch.patch_id = i
        patch.metadata["label"] = "car" if i % 2 == 0 else "person"
        patch.metadata["score"] = float(i)
        out.append(patch)
    return out


def tag(patch):
    return patch.derive(patch.data, "tag", brightness=float(patch.data.mean()))


class TestExprAttrs:
    def test_comparison_and_between(self):
        assert logical.expr_attrs(Attr("label") == "car") == {"label"}
        assert logical.expr_attrs(Attr("frameno").between(1, 5)) == {"frameno"}

    def test_connectives_union(self):
        expr = (Attr("a") == 1) & ((Attr("b") > 2) | ~(Attr("c") != 3))
        assert logical.expr_attrs(expr) == {"a", "b", "c"}

    def test_opaque_predicate_is_unknown(self):
        opaque = Predicate(lambda p: True)
        assert logical.expr_attrs(opaque) is None
        assert logical.expr_attrs((Attr("a") == 1) & opaque) is None


class TestRewriteRules:
    def test_split_conjuncts(self):
        plan = logical.Filter(
            logical.Scan("c"), (Attr("a") == 1) & (Attr("b") == 2)
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Filter)
        assert isinstance(rewritten.child, logical.Filter)
        assert isinstance(rewritten.child.child, logical.Scan)
        assert any(r.rule == "split-filter-conjuncts" for r in applied)

    def test_pushdown_below_map(self):
        plan = logical.Filter(
            logical.Map(logical.Scan("c"), tag, name="tag",
                        provides=frozenset({"brightness"})),
            Attr("label") == "car",
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Map)
        assert isinstance(rewritten.child, logical.Filter)
        assert any(r.rule == "pushdown-filter-below-map" for r in applied)

    def test_no_pushdown_when_filter_reads_udf_output(self):
        plan = logical.Filter(
            logical.Map(logical.Scan("c"), tag, name="tag",
                        provides=frozenset({"brightness"})),
            Attr("brightness") > 0.5,
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Filter)  # unchanged shape
        assert not any(r.rule == "pushdown-filter-below-map" for r in applied)

    def test_no_pushdown_for_opaque_predicate(self):
        plan = logical.Filter(
            logical.Map(logical.Scan("c"), tag, name="tag",
                        provides=frozenset()),
            Predicate(lambda p: True),
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Filter)
        assert not any(r.rule == "pushdown-filter-below-map" for r in applied)

    def test_no_pushdown_when_provides_undeclared(self):
        # a map that did not declare its outputs may write anything, so
        # pushing a filter below it would be unsound
        plan = logical.Filter(
            logical.Map(logical.Scan("c"), tag, name="detector"),
            Attr("label") == "vehicle",
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Filter)
        assert not any(r.rule == "pushdown-filter-below-map" for r in applied)

    def test_pushdown_with_explicit_empty_provides(self):
        plan = logical.Filter(
            logical.Map(logical.Scan("c"), tag, name="pure",
                        provides=frozenset()),
            Attr("label") == "car",
        )
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Map)
        assert any(r.rule == "pushdown-filter-below-map" for r in applied)

    def test_limit_pushes_below_project_and_one_to_one_map(self):
        plan = logical.Limit(
            logical.Project(
                logical.Map(logical.Scan("c"), tag, name="tag", one_to_one=True),
                ("label",),
            ),
            5,
        )
        rewritten, applied = rewrite(plan)
        # limit slid below both the projection and the 1:1 map
        assert isinstance(rewritten, logical.Project)
        assert isinstance(rewritten.child, logical.Map)
        assert isinstance(rewritten.child.child, logical.Limit)
        assert sum(r.rule == "pushdown-limit" for r in applied) == 2

    def test_limit_stays_above_expanding_map(self):
        plan = logical.Limit(logical.Map(logical.Scan("c"), tag, name="tag"), 5)
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Limit)
        assert not any(r.rule == "pushdown-limit" for r in applied)

    def test_merge_limits_keeps_tighter(self):
        plan = logical.Limit(logical.Limit(logical.Scan("c"), 3), 7)
        rewritten, applied = rewrite(plan)
        assert isinstance(rewritten, logical.Limit)
        assert rewritten.n == 3
        assert isinstance(rewritten.child, logical.Scan)
        assert any(r.rule == "merge-limits" for r in applied)

    def test_memoize_traced_at_lowering_not_rewrite(self):
        plan = logical.Map(logical.Scan("c"), tag, name="tag", cache=True)
        _, applied = rewrite(plan)
        assert not any(r.rule == "memoize-udf" for r in applied)

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError, match="non-negative"):
            logical.Limit(logical.Scan("c"), -1)

    def test_unknown_aggregate_kind_rejected(self):
        with pytest.raises(QueryError, match="unknown aggregate"):
            logical.Aggregate(logical.Scan("c"), "median")
        with pytest.raises(QueryError, match="needs a key"):
            logical.Aggregate(logical.Scan("c"), "group")

    def test_describe_renders_tree(self):
        plan = logical.Filter(logical.Scan("c"), Attr("a") == 1)
        text = plan.describe()
        assert "Scan(c)" in text and "Filter" in text
        assert text.splitlines()[1].startswith("  ")


class TestLowering:
    def _catalog(self, tmp_path, n=40):
        catalog = Catalog(tmp_path)
        catalog.materialize(iter(patches(n)), "c")
        return catalog

    def test_scan_filter_group_uses_access_path(self, tmp_path):
        # cars are 1-in-10 so the recorded statistics make the index
        # path genuinely cheaper than the full scan
        rows = patches(100)
        for patch in rows:
            patch.metadata["label"] = (
                "car" if patch.metadata["frameno"] % 10 == 0 else "person"
            )
        with Catalog(tmp_path) as catalog:
            catalog.materialize(iter(rows), "c")
            catalog.create_index("c", "label", "hash")
            optimizer = Optimizer(catalog)
            plan = logical.Filter(logical.Scan("c"), Attr("label") == "car")
            operator, explanation = plan_pipeline(optimizer, plan)
            assert explanation.chosen.kind == "hash-lookup"
            assert len(operator.patches()) == 10

    def test_filters_fused_through_map_boundary(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.Filter(
                logical.Map(
                    logical.Scan("c"), tag, name="tag",
                    provides=frozenset({"brightness"}),
                ),
                (Attr("label") == "car") & (Attr("brightness") >= 0.0),
            )
            operator, explanation = plan_pipeline(optimizer, plan)
            # label filter pushed below the map, brightness stays above
            assert any("pushed" in line for line in explanation.rewrites)
            result = operator.patches()
            assert len(result) == 20
            assert all(p["brightness"] >= 0.0 for p in result)

    def test_cached_map_needs_cache(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.Map(logical.Scan("c"), tag, name="tag", cache=True)
            with pytest.raises(QueryError, match="no UDF cache"):
                plan_pipeline(optimizer, plan)
            operator, _ = plan_pipeline(optimizer, plan, udf_cache=UDFCache())
            assert len(operator.patches()) == 40

    def test_each_cached_map_gets_a_memoize_line(self, tmp_path):
        with self._catalog(tmp_path, n=5) as catalog:
            optimizer = Optimizer(catalog)
            # two cached maps sharing the default name still report twice
            plan = logical.Map(
                logical.Map(logical.Scan("c"), tag, cache=True),
                lambda p: p,
                cache=True,
            )
            _, explanation = plan_pipeline(
                optimizer, plan, udf_cache=UDFCache()
            )
            assert (
                sum("memoize-udf" in line for line in explanation.rewrites) == 2
            )

    def test_udf_cache_hits_across_plans(self, tmp_path):
        with self._catalog(tmp_path, n=10) as catalog:
            optimizer = Optimizer(catalog)
            cache = UDFCache()
            plan = logical.Map(logical.Scan("c"), tag, name="tag", cache=True)
            op1, _ = plan_pipeline(optimizer, plan, udf_cache=cache)
            op1.patches()
            assert (cache.hits, cache.misses) == (0, 10)
            op2, _ = plan_pipeline(optimizer, plan, udf_cache=cache)
            op2.patches()
            assert (cache.hits, cache.misses) == (10, 10)

    def test_orderby_missing_attr_raises(self, tmp_path):
        with self._catalog(tmp_path, n=5) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.OrderBy(logical.Scan("c"), "ghost")
            operator, _ = plan_pipeline(optimizer, plan)
            with pytest.raises(QueryError, match="ghost"):
                operator.patches()

    def test_similarity_join_lowers_and_matches_bruteforce(self, tmp_path):
        with self._catalog(tmp_path, n=12) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"),
                logical.Scan("c"),
                threshold=1.0,
                features=lambda p: np.array([p["score"]]),
                exclude_self=True,
            )
            operator, explanation = plan_pipeline(optimizer, plan)
            assert operator.arity == 2
            got = {(a.patch_id, b.patch_id) for a, b in operator}
            want = {
                (a, b)
                for a in range(12)
                for b in range(12)
                if a != b and abs(a - b) <= 1
            }
            assert got == want
            kinds = {choice.kind for choice in explanation.candidates}
            assert "nested-loop" in kinds  # join candidates surfaced


class TestStatsDrivenLowering:
    """Cardinality estimation inside the lowering: recorded join dims,
    stats-backed row estimates, and the NEQ fallback regression."""

    def _catalog(self, tmp_path, n=40):
        catalog = Catalog(tmp_path)
        catalog.materialize(iter(patches(n)), "c")
        return catalog

    def test_similarity_join_uses_sampled_match_fraction(self, tmp_path):
        # patches() data vectors sit ~sqrt(48) apart per index step, so
        # within threshold 1.0 only identity pairs match — the sampled
        # pairwise fraction replaces the geometric dim-decay estimate
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0
            )
            _, explanation = plan_pipeline(optimizer, plan)
            assert any(
                "match-fraction" in line and "sampled pairwise distances" in line
                for line in explanation.estimates
            )

    def test_similarity_join_dim_fallback_without_samples(self, tmp_path):
        # below MIN_SAMPLE_VECTORS rows the sampler abstains and the
        # recorded-dim geometric estimate still applies
        with self._catalog(tmp_path, n=4) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0
            )
            _, explanation = plan_pipeline(optimizer, plan)
            assert any(
                "dim 48" in line and "recorded data dim" in line
                for line in explanation.estimates
            )
            # and the decision matches planning explicitly at dim 48
            direct = optimizer.plan_similarity_join(4, 4, 48)
            assert explanation.chosen.kind == direct.chosen.kind

    def test_clustered_join_estimate_beats_geometric_decay(self, tmp_path):
        # Two tight clusters far apart: every within-cluster pair joins,
        # no across-cluster pair does. The geometric dim-decay constant
        # is blind to that structure and floors at ~1 match per probe;
        # the sampled pairwise fraction sees it. Clusters are interleaved
        # in materialization order so the first-K vector sample covers
        # both.
        from repro.core.optimizer import estimate_join_output
        from repro.core.profile import q_error
        from repro.core.statistics import sample_match_fraction

        rng = np.random.default_rng(3)
        clustered = []
        for i in range(40):
            center = 0.0 if i % 2 == 0 else 10.0
            data = center + rng.normal(0.0, 0.01, 8)
            patch = Patch.from_frame("v", i, data)
            patch.patch_id = i
            clustered.append(patch)
        with Catalog(tmp_path) as catalog:
            catalog.materialize(iter(clustered), "clustered")
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("clustered"),
                logical.Scan("clustered"),
                threshold=1.0,
            )
            operator, _ = plan_pipeline(optimizer, plan)
            actual = sum(1 for _ in operator)
            assert actual == 2 * 20 * 20  # all within-cluster pairs

            sample = catalog.statistics_for("clustered").data_sample()
            fraction = sample_match_fraction(sample, sample, 1.0)
            sampled_est = estimate_join_output(40, 40, 8, match_fraction=fraction)
            decay_est = estimate_join_output(40, 40, 8)
            assert q_error(sampled_est, actual) < q_error(decay_est, actual)
            assert q_error(sampled_est, actual) < 2.0  # and it is *good*
            assert q_error(decay_est, actual) > 10.0  # the floor was 20x off

    def test_caller_dim_wins_over_recorded(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0, dim=7
            )
            _, explanation = plan_pipeline(optimizer, plan)
            assert any(
                "dim 7" in line and "caller-specified" in line
                for line in explanation.estimates
            )

    def test_join_without_stats_falls_back_to_default_dim(self, tmp_path):
        from repro.core.optimizer import DEFAULT_JOIN_DIM

        with self._catalog(tmp_path) as catalog:
            catalog.drop_statistics("c")
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0
            )
            _, explanation = plan_pipeline(optimizer, plan)
            assert any(
                f"dim {DEFAULT_JOIN_DIM}" in line and "fallback-constant" in line
                for line in explanation.estimates
            )

    def test_estimate_rows_uses_statistics(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            # patches(): label "car" on even ids — exactly half
            plan = logical.Filter(logical.Scan("c"), Attr("label") == "car")
            assert optimizer.estimator().rows(plan) == pytest.approx(20.0)
            limited = logical.Limit(plan, 5)
            assert optimizer.estimator().rows(limited) == pytest.approx(5.0)

    def test_join_output_estimate_from_dim_and_sizes(self, tmp_path):
        """SimilarityJoin output must be estimated as a match count, not
        as the left input's row count (the old placeholder)."""
        from repro.core.optimizer import (
            JOIN_PER_DIM_MATCH,
            estimate_join_output,
        )

        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            # low dim: matches per probe follow the geometric decay model
            low = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0, dim=2
            )
            expected = 40 * 40 * JOIN_PER_DIM_MATCH**2
            assert optimizer.estimator().rows(low) == pytest.approx(expected)
            assert optimizer.estimator().rows(low) != pytest.approx(40.0)
            # high dim floors at ~one near-duplicate partner per left row
            high = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0, dim=64
            )
            assert optimizer.estimator().rows(high) == pytest.approx(40.0)
            # exclude_self removes the identity pairs
            assert estimate_join_output(
                40, 40, 64, exclude_self=True
            ) == pytest.approx(0.0)
            # an empty side yields zero pairs (the per-probe floor must
            # not conjure matches from nothing)
            assert estimate_join_output(0, 40, 2) == 0.0
            assert estimate_join_output(40, 0, 2) == 0.0
            # filters shrink the inputs before the match model applies
            filtered = logical.SimilarityJoin(
                logical.Filter(logical.Scan("c"), Attr("label") == "car"),
                logical.Scan("c"),
                threshold=1.0,
                dim=2,
            )
            assert optimizer.estimator().rows(filtered) == pytest.approx(
                20 * 40 * JOIN_PER_DIM_MATCH**2
            )

    def test_join_output_estimate_surfaces_in_explain(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.SimilarityJoin(
                logical.Scan("c"), logical.Scan("c"), threshold=1.0, dim=4
            )
            _, explanation = plan_pipeline(optimizer, plan)
            assert any(
                "pairs" in line and "similarity-join" in line
                for line in explanation.estimates
            )

    def test_neq_estimate_regression(self, tmp_path):
        """!= must estimate as the EQ complement, not as a range.

        The old lowering lumped every non-== comparison under
        RANGE_SELECTIVITY (0.3), so `label != 'car'` claimed to drop 70%
        of rows; with stats it is the measured complement, and without
        stats it falls back to 1 - EQ_SELECTIVITY.
        """
        from repro.core.optimizer import (
            EQ_SELECTIVITY,
            NEQ_SELECTIVITY,
            RANGE_SELECTIVITY,
        )

        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.Filter(logical.Scan("c"), Attr("label") != "car")
            # with statistics: exactly the non-car half
            assert optimizer.estimator().rows(plan) == pytest.approx(20.0)
            # without statistics: the complement constant, NOT the range one
            catalog.drop_statistics("c")
            rows = optimizer.estimator().rows(plan)
            assert rows == pytest.approx(40 * NEQ_SELECTIVITY)
            assert rows == pytest.approx(40 * (1.0 - EQ_SELECTIVITY))
            assert rows != pytest.approx(40 * RANGE_SELECTIVITY)

    def test_scan_group_estimates_surface_in_explanation(self, tmp_path):
        with self._catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            plan = logical.Filter(logical.Scan("c"), Attr("score") <= 9.5)
            _, explanation = plan_pipeline(optimizer, plan)
            assert any("histogram" in line for line in explanation.estimates)
            assert "cardinality estimates:" in str(explanation)


class TestBatchedExecution:
    def test_default_chunking(self):
        scan = IteratorScan(iter(patches(10)))
        batches = list(scan.iter_batches(4))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_list_fast_path(self):
        scan = IteratorScan(patches(10))
        batches = list(scan.iter_batches(3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert batches[0][0][0].patch_id == 0

    def test_bad_batch_size(self):
        with pytest.raises(QueryError, match="positive"):
            list(IteratorScan(patches(2)).iter_batches(0))

    def test_select_batches_match_rows(self):
        expr = Attr("label") == "car"
        rows = Select(IteratorScan(patches(10)), expr).patches()
        batched = [
            row[0]
            for batch in Select(IteratorScan(patches(10)), expr).iter_batches(3)
            for row in batch
        ]
        assert [p.patch_id for p in batched] == [p.patch_id for p in rows]

    def test_select_reaccumulates_full_batches(self):
        # 50% selective filter over 40 rows at size 10: survivors regroup
        # into full batches instead of ragged half-filled ones
        op = Select(IteratorScan(patches(40)), Attr("label") == "car")
        sizes = [len(batch) for batch in op.iter_batches(10)]
        assert sizes == [10, 10]

    def test_limit_over_orderby_keeps_upstream_batches_large(self):
        calls = []

        def batch_tag(items):
            calls.append(len(items))
            return [tag(p) for p in items]

        mapped = MapPatches(IteratorScan(patches(100)), tag, batch_fn=batch_tag)
        op = Limit(OrderBy(mapped, key=lambda p: p["score"]), 5)
        assert sum(len(b) for b in op.iter_batches(50)) == 5
        # the sort consumes everything, but the UDF still ran in large
        # batches instead of limit-sized slivers
        assert all(size >= 50 for size in calls)

    def test_limit_sees_breaker_through_intermediate_stages(self):
        calls = []

        def batch_tag(items):
            calls.append(len(items))
            return [tag(p) for p in items]

        mapped = MapPatches(IteratorScan(patches(100)), tag, batch_fn=batch_tag)
        after_sort = MapPatches(OrderBy(mapped, key=lambda p: p["score"]), tag)
        op = Limit(after_sort, 5)
        assert sum(len(b) for b in op.iter_batches(50)) == 5
        # a non-breaker between the limit and the sort must not reinstate
        # the shrink below the sort
        assert all(size >= 50 for size in calls)

    def test_map_batches_with_expansion_and_drop(self):
        def split(patch):
            if patch.patch_id % 3 == 0:
                return None
            return [patch, patch]

        rows = MapPatches(IteratorScan(patches(9)), split).patches()
        batched = [
            row[0]
            for batch in MapPatches(IteratorScan(patches(9)), split).iter_batches(4)
            for row in batch
        ]
        assert len(batched) == len(rows) == 12

    def test_expanding_map_rechunks_to_batch_size(self):
        op = MapPatches(IteratorScan(patches(8)), lambda p: [p, p, p])
        sizes = [len(batch) for batch in op.iter_batches(4)]
        assert sum(sizes) == 24
        assert all(size <= 4 for size in sizes)

    def test_map_batch_fn_used_and_validated(self):
        calls = []

        def batch_tag(items):
            calls.append(len(items))
            return [tag(p) for p in items]

        op = MapPatches(IteratorScan(patches(10)), tag, batch_fn=batch_tag)
        out = [row[0] for batch in op.iter_batches(4) for row in batch]
        assert len(out) == 10
        assert calls == [4, 4, 2]

        bad = MapPatches(
            IteratorScan(patches(4)), tag, batch_fn=lambda items: [None]
        )
        with pytest.raises(QueryError, match="batch_fn returned"):
            list(bad.iter_batches(4))

    def test_limit_batches(self):
        op = Limit(IteratorScan(patches(10)), 5)
        batched = [row for batch in op.iter_batches(3) for row in batch]
        assert len(batched) == 5
        assert list(Limit(IteratorScan(patches(10)), 0).iter_batches(3)) == []

    def test_limit_shrinks_batches_through_lazy_chains(self):
        calls = []

        def batch_tag(items):
            calls.append(len(items))
            return [tag(p) for p in items]

        op = Limit(
            MapPatches(IteratorScan(patches(100)), tag, batch_fn=batch_tag), 3
        )
        assert sum(len(b) for b in op.iter_batches(50)) == 3
        # no pipeline breaker below: the UDF ran on exactly the rows
        # the limit needs
        assert calls == [3]

    def test_limit_stops_selective_select_early(self):
        seen = []

        def observe(patch):
            seen.append(patch.patch_id)
            return patch

        # 'car' is every other patch; limit(1) must not drain the scan
        op = Limit(
            Select(
                MapPatches(IteratorScan(patches(100)), observe),
                Attr("label") == "car",
            ),
            1,
        )
        assert sum(len(b) for b in op.iter_batches(50)) == 1
        assert len(seen) <= 2  # stopped at the first survivor

    def test_orderby_batches_sorted(self):
        op = OrderBy(IteratorScan(patches(7)), key=lambda p: -p["score"])
        batched = [row[0]["score"] for b in op.iter_batches(3) for row in b]
        assert batched == sorted(batched, reverse=True)

    def test_project_batches(self):
        op = Project(IteratorScan(patches(6)), ("label",))
        out = [row[0] for batch in op.iter_batches(4) for row in batch]
        assert all("score" not in p.metadata for p in out)
        assert all(p["label"] in ("car", "person") for p in out)
        assert all(p.data.size == 0 for p in out)
        assert all(p.metadata["_lineage"] for p in out)  # lineage survives


class TestUDFCacheUnit:
    def test_wrap_batch_partial_hits(self):
        cache = UDFCache()
        items = patches(6)
        wrapped = cache.wrap_batch("b", lambda ps: [tag(p) for p in ps])
        wrapped(items[:4])
        assert (cache.hits, cache.misses) == (0, 4)
        result = wrapped(items[2:])  # 2 hits, 2 fresh
        assert (cache.hits, cache.misses) == (2, 6)
        assert len(result) == 4

    def test_distinct_udfs_sharing_a_name_do_not_collide(self):
        cache = UDFCache()
        patch = patches(1)[0]
        first = cache.wrap("udf", lambda p: "first")
        second = cache.wrap("udf", lambda p: "second")
        assert first(patch) == "first"
        assert second(patch) == "second"  # not the first UDF's cached value
        assert cache.misses == 2 and cache.hits == 0

    def test_scalar_and_batch_paths_share_entries(self):
        cache = UDFCache()
        items = patches(4)

        def scalar(p):
            return tag(p)

        wrapped_batch = cache.wrap_batch(
            "b", lambda ps: [scalar(p) for p in ps], identity=scalar
        )
        wrapped_batch(items)
        assert cache.misses == 4
        wrapped_scalar = cache.wrap("b", scalar)
        wrapped_scalar(items[0])
        assert cache.hits == 1

    def test_same_lineage_different_metadata_not_conflated(self):
        # derive() records op/params in lineage but not metadata kwargs,
        # so these two patches have identical chains; the metadata
        # fingerprint must still keep their cache entries apart
        cache = UDFCache()
        base = patches(1)[0]
        a = base.derive(base.data, "score", score=1.0)
        b = base.derive(base.data, "score", score=2.0)
        wrapped = cache.wrap("boost", lambda p: p["score"] * 10)
        assert wrapped(a) == 10.0
        assert wrapped(b) == 20.0
        assert cache.hits == 0 and cache.misses == 2

    def test_cached_data_arrays_are_isolated(self):
        cache = UDFCache()
        patch = patches(1)[0]
        wrapped = cache.wrap("u", lambda p: p.derive(np.ones(3), "u"))
        first = wrapped(patch)
        first.data *= 99  # caller post-processes its result in place
        second = wrapped(patch)
        assert cache.hits == 1
        assert np.array_equal(second.data, np.ones(3))

    def test_cached_nested_metadata_is_isolated(self):
        cache = UDFCache()
        patch = patches(1)[0]
        wrapped = cache.wrap(
            "h", lambda p: p.derive(p.data, "h", hist=np.array([1.0, 2.0]))
        )
        first = wrapped(patch)
        first.metadata["hist"][0] = 999.0  # mutate a nested array in place
        second = wrapped(patch)
        assert cache.hits == 1
        assert np.array_equal(second.metadata["hist"], [1.0, 2.0])

    def test_store_is_bounded(self):
        cache = UDFCache(max_entries=5)
        wrapped = cache.wrap("u", tag)
        for patch in patches(20):
            wrapped(patch)
        assert len(cache) == 5
        assert cache.misses == 20

    def test_unhashable_lineage_skips_cache(self):
        cache = UDFCache()
        patch = patches(1)[0]
        patch.metadata["_lineage"] = (("op", [1, 2]),)  # list is unhashable
        wrapped = cache.wrap("u", tag)
        assert wrapped(patch) is not None
        assert wrapped(patch) is not None
        assert len(cache) == 0

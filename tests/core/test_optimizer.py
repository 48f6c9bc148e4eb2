"""Tests for the cost model, planner, storage advisor, and synthesizer."""

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.optimizer import (
    ComponentSpec,
    CostModel,
    Optimizer,
    PipelineSynthesizer,
    StorageAdvisor,
    WorkloadProfile,
)
from repro.core.patch import Patch
from repro.errors import OptimizerError
from repro.etl import WholeImageGenerator


def populate(catalog, n=30, person_every=2):
    """Materialize n patches; every ``person_every``-th is a person."""

    def gen():
        for i in range(n):
            patch = Patch.from_frame("v", i, np.zeros((4, 4, 3), np.uint8))
            patch.metadata["label"] = (
                "person" if i % person_every == 0 else "vehicle"
            )
            yield patch

    return catalog.materialize(gen(), "c")


class TestCostModel:
    def test_nested_loop_scales_quadratically(self):
        cost = CostModel()
        assert cost.nested_loop_join(2000, 2000, 64) > 3.5 * cost.nested_loop_join(
            1000, 1000, 64
        )

    def test_balltree_beats_nested_loop_at_scale(self):
        cost = CostModel()
        n = 20_000
        assert cost.balltree_join(n, n, 16) < cost.nested_loop_join(n, n, 16)

    def test_probe_alpha_rises_with_dim(self):
        cost = CostModel()
        assert cost.probe_alpha(64) > cost.probe_alpha(4)
        assert cost.probe_alpha(200) == 1.0

    def test_prebuilt_cheaper_than_fresh(self):
        cost = CostModel()
        assert cost.balltree_join(100, 5000, 8, prebuilt=True) < cost.balltree_join(
            100, 5000, 8, prebuilt=False
        )

    def test_calibrate_sets_flag_and_positive_constants(self):
        cost = CostModel().calibrate()
        assert cost.calibrated
        assert cost.dist_per_dim > 0
        assert cost.build_per_point > 0
        assert 0 < cost.probe_alpha(4) <= 1


class TestOptimizerPlans:
    def test_access_path_selection(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            # persons are 1-in-10: selective enough that the recorded
            # statistics send the planner to the index
            populate(catalog, n=100, person_every=10)
            catalog.create_index("c", "label", "hash")
            optimizer = Optimizer(catalog)
            from repro.core.expressions import Attr

            operator, explanation = optimizer.plan_filter("c", Attr("label") == "person")
            assert explanation.chosen.kind == "hash-lookup"
            assert len(list(operator)) == 10
            # explanation keeps the rejected scan: the one scan candidate
            kinds = [choice.kind for choice in explanation.candidates]
            assert kinds.count("late-materialization") == 1

    def test_similarity_join_strategy_flips_with_size(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            # in high dimension the Ball-tree degrades to a linear probe
            # plus build cost, so the nested loop wins; in low dimension
            # pruning pays off at scale
            high_dim = optimizer.plan_similarity_join(100, 100, 64)
            low_dim = optimizer.plan_similarity_join(30_000, 30_000, 8)
            assert high_dim.chosen.kind == "nested-loop"
            assert low_dim.chosen.kind.startswith("balltree")

    def test_similarity_join_prefers_prebuilt_side(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            explanation = optimizer.plan_similarity_join(
                5000, 5000, 16, prebuilt_side="right"
            )
            assert explanation.chosen.params.get("build_side") == "right"

    def test_similarity_join_validates(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            with pytest.raises(OptimizerError):
                Optimizer(catalog).plan_similarity_join(0, 10, 4)

    def test_device_placement(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            big = optimizer.plan_device(50e9, 10_000_000, kernels=2)
            assert big.chosen.params["device"] == "gpu"
            small = optimizer.plan_device(1e6, 1_000, kernels=40)
            assert small.chosen.params["device"] == "avx"

    def test_dedup_accuracy_tradeoff(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            explanation = Optimizer(catalog).plan_dedup_filter_placement(
                n_patches=1000, person_fraction=0.4, mislabel_rate=0.08
            )
            by_kind = {c.kind: c for c in explanation.candidates}
            push = by_kind["filter-then-match"]
            late = by_kind["match-then-filter"]
            assert late.accuracy.recall > push.accuracy.recall
            assert late.cost_seconds > push.cost_seconds


class TestOptimizerEdgeCases:
    def test_attr_of_non_comparison_conjuncts(self):
        from repro.core.expressions import Attr, Between, Predicate
        from repro.core.optimizer.optimizer import _attr_of

        assert _attr_of(Attr("label") == "x") == "label"
        # Between carries an attr attribute, so it is introspectable
        assert _attr_of(Between("frameno", 1, 5)) == "frameno"
        # connectives and opaque predicates expose nothing
        assert _attr_of((Attr("a") == 1) | (Attr("b") == 2)) == ""
        assert _attr_of(~(Attr("a") == 1)) == ""
        assert _attr_of(Predicate(lambda p: True)) == ""

    def test_or_and_not_fall_back_to_full_scan(self, tmp_path):
        from repro.core.expressions import Attr

        with Catalog(tmp_path) as catalog:
            populate(catalog, n=200)
            catalog.create_index("c", "label", "hash")
            catalog.create_index("c", "frameno", "btree")
            optimizer = Optimizer(catalog)
            disjunction = (Attr("label") == "person") | (Attr("frameno") < 5)
            operator, explanation = optimizer.plan_filter("c", disjunction)
            assert explanation.chosen.kind == "late-materialization"
            assert len(explanation.candidates) == 1  # no index candidate at all
            assert len(list(operator)) == 102  # 100 persons + frames 1, 3 extra

            negation = ~(Attr("label") == "person")
            _, explanation = optimizer.plan_filter("c", negation)
            assert explanation.chosen.kind == "late-materialization"
            assert len(explanation.candidates) == 1

    def test_index_candidate_with_multi_conjunct_residual(self, tmp_path):
        from repro.core.expressions import Attr

        with Catalog(tmp_path) as catalog:
            populate(catalog, n=200, person_every=10)
            catalog.create_index("c", "label", "hash")
            # a dear column pass keeps the index ahead of the segment scan
            optimizer = Optimizer(catalog, CostModel(segment_column_decode=1.0))
            expr = (
                (Attr("label") == "person")
                & (Attr("frameno") >= 10)
                & (Attr("frameno") < 30)
            )
            operator, explanation = optimizer.plan_filter("c", expr)
            assert explanation.chosen.kind == "hash-lookup"
            # residual (two frameno conjuncts) still applied on top
            frames = [p["frameno"] for (p,) in operator]
            assert frames and all(10 <= f < 30 for f in frames)
            assert all(f % 10 == 0 for f in frames)  # persons: every 10th frame

    def test_similarity_join_tie_breaking_with_prebuilt_side(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            optimizer = Optimizer(catalog)
            for side in ("left", "right"):
                explanation = optimizer.plan_similarity_join(
                    20_000, 20_000, 8, prebuilt_side=side
                )
                # with equal cardinalities, the sunk build cost breaks the tie
                assert explanation.chosen.params["build_side"] == side
                by_kind = {c.kind: c for c in explanation.candidates}
                prebuilt = by_kind[f"balltree-index-{side}"]
                other = "left" if side == "right" else "right"
                fresh = by_kind[f"balltree-index-{other}"]
                assert prebuilt.cost_seconds < fresh.cost_seconds


class TestStatisticsDrivenPlanning:
    """Access-path selection driven by real statistics, not constants."""

    def test_index_cost_follows_the_estimate(self, tmp_path):
        from repro.core.expressions import Attr

        with Catalog(tmp_path) as catalog:
            # same physical design, two collections, opposite data shapes
            populate(catalog, n=100, person_every=10)  # persons rare
            catalog.create_index("c", "label", "hash")

            def uniform():
                for i in range(100):
                    patch = Patch.from_frame("v", i, np.zeros((4, 4, 3), np.uint8))
                    patch.metadata["label"] = "person" if i % 2 == 0 else "vehicle"
                    yield patch

            catalog.materialize(uniform(), "u")
            catalog.create_index("u", "label", "hash")

            optimizer = Optimizer(catalog)
            expr = Attr("label") == "person"
            _, selective = optimizer.plan_filter("c", expr)
            _, uniform_plan = optimizer.plan_filter("u", expr)
            assert selective.chosen.kind == "hash-lookup"
            # the scan fetches the same estimated survivors by id after a
            # column pass, so the index wins at either selectivity, at a
            # cost that scales with the estimate
            assert uniform_plan.chosen.kind == "hash-lookup"
            costs = {c.kind: c.cost_seconds for c in uniform_plan.candidates}
            assert costs.keys() == {"hash-lookup", "late-materialization"}
            assert uniform_plan.chosen.cost_seconds > 4 * selective.chosen.cost_seconds
            # both decisions expose their estimates and sources
            assert round(selective.chosen.params["est_rows"]) == 10
            assert selective.chosen.params["stat_source"] == "mcv"
            assert round(uniform_plan.chosen.params["est_rows"]) == 50

    def test_btree_range_estimate_from_histogram(self, tmp_path):
        from repro.core.expressions import Attr

        with Catalog(tmp_path) as catalog:
            populate(catalog, n=200)
            catalog.create_index("c", "frameno", "btree")
            optimizer = Optimizer(catalog)
            _, explanation = optimizer.plan_filter(
                "c", Attr("frameno").between(10, 29)
            )
            assert explanation.chosen.kind == "btree-range"
            assert explanation.chosen.params["stat_source"] == "histogram"
            # frames are uniform over 0..199: ~20 rows in [10, 29]
            assert explanation.chosen.params["est_rows"] == pytest.approx(20, abs=4)
            assert any("histogram" in line for line in explanation.estimates)
            assert "histogram" in str(explanation)

    def test_estimate_filter_rows_close_to_actual(self, tmp_path):
        from repro.core.expressions import Attr

        with Catalog(tmp_path) as catalog:
            collection = populate(catalog, n=120, person_every=3)
            optimizer = Optimizer(catalog)
            expr = Attr("label") == "person"
            rows, source = optimizer.estimator().filter_rows("c", expr)
            actual = sum(
                1 for patch in collection.scan() if expr.evaluate(patch)
            )
            assert source == "mcv"
            assert rows == pytest.approx(actual)

    def test_custom_statistics_provider_threads_through(self, tmp_path):
        from repro.core.expressions import Attr
        from repro.core.statistics import CollectionStatistics

        class Canned:
            def __init__(self, stats):
                self._stats = stats

            def statistics_for(self, collection_name):
                return self._stats

        with Catalog(tmp_path) as catalog:
            collection = populate(catalog, n=50)
            canned = CollectionStatistics()
            for patch in collection.scan():
                canned.observe(patch)
            optimizer = Optimizer(catalog, statistics=Canned(canned))
            rows, source = optimizer.estimator().filter_rows(
                "c", Attr("label") == "person"
            )
            assert source == "mcv"
            assert rows == pytest.approx(25.0)


class TestStorageAdvisor:
    def test_selective_workload_prefers_pushdown_layout(self):
        advisor = StorageAdvisor()
        recommendation = advisor.advise(
            WorkloadProfile(
                n_frames=30_000,
                frame_bytes=170_000,
                temporal_selectivity=0.02,
            )
        )
        assert recommendation.layout in ("frame-raw", "frame-jpeg", "segmented")

    def test_budget_forces_compression(self):
        advisor = StorageAdvisor()
        raw_size = 30_000 * 170_000
        recommendation = advisor.advise(
            WorkloadProfile(
                n_frames=30_000,
                frame_bytes=170_000,
                temporal_selectivity=0.02,
                storage_budget_bytes=raw_size // 20,
            )
        )
        assert recommendation.layout in ("encoded", "segmented")
        assert recommendation.expected_size_bytes <= raw_size // 20

    def test_impossible_budget_raises(self):
        advisor = StorageAdvisor()
        with pytest.raises(OptimizerError, match="budget"):
            advisor.advise(
                WorkloadProfile(
                    n_frames=1000,
                    frame_bytes=100_000,
                    temporal_selectivity=0.5,
                    storage_budget_bytes=10,
                )
            )

    def test_accuracy_sensitive_gets_high_quality(self):
        advisor = StorageAdvisor()
        recommendation = advisor.advise(
            WorkloadProfile(
                n_frames=10_000,
                frame_bytes=170_000,
                temporal_selectivity=0.3,
                storage_budget_bytes=10_000 * 170_000 // 10,
                accuracy_sensitive=True,
            )
        )
        assert recommendation.quality == "high"

    def test_clip_len_in_bounds(self):
        advisor = StorageAdvisor()
        profile = WorkloadProfile(
            n_frames=5_000, frame_bytes=170_000, temporal_selectivity=0.05
        )
        clip_len = advisor.optimal_clip_len(profile)
        assert 4 <= clip_len <= 5_000

    def test_validates_profile(self):
        advisor = StorageAdvisor()
        with pytest.raises(OptimizerError):
            advisor.advise(
                WorkloadProfile(n_frames=0, frame_bytes=1, temporal_selectivity=0.5)
            )
        with pytest.raises(OptimizerError):
            advisor.advise(
                WorkloadProfile(n_frames=10, frame_bytes=1, temporal_selectivity=2.0)
            )


def _component(name, provides, requires=frozenset(), latency=1e-3, recall=1.0):
    return ComponentSpec(
        name=name,
        factory=WholeImageGenerator,
        provides=frozenset(provides),
        requires=frozenset(requires),
        latency_per_item=latency,
        recall=recall,
    )


class TestPipelineSynthesis:
    def test_chooses_cheapest_chain(self):
        library = [
            _component("det-big", {"bbox", "label"}, {"pixels"}, latency=10e-3),
            _component("det-small", {"bbox", "label"}, {"pixels"}, latency=2e-3,
                       recall=0.8),
            _component("depth", {"depth"}, {"bbox"}, latency=1e-3),
        ]
        result = PipelineSynthesizer(library).synthesize({"depth"})
        names = [c.name for c in result.components]
        assert names == ["det-small", "depth"]

    def test_accuracy_constraint_switches_model(self):
        library = [
            _component("det-big", {"bbox"}, {"pixels"}, latency=10e-3, recall=0.95),
            _component("det-small", {"bbox"}, {"pixels"}, latency=2e-3, recall=0.7),
        ]
        result = PipelineSynthesizer(library).synthesize(
            {"bbox"}, min_recall=0.9
        )
        assert result.components[0].name == "det-big"

    def test_unreachable_fields(self):
        library = [_component("det", {"bbox"}, {"pixels"})]
        with pytest.raises(OptimizerError, match="no composition"):
            PipelineSynthesizer(library).synthesize({"depth"})

    def test_accuracy_infeasible_reported_distinctly(self):
        library = [_component("det", {"bbox"}, {"pixels"}, recall=0.5)]
        with pytest.raises(OptimizerError, match="recall"):
            PipelineSynthesizer(library).synthesize({"bbox"}, min_recall=0.9)

    def test_result_builds_pipeline(self):
        library = [_component("whole", {"whole"}, {"pixels"})]
        result = PipelineSynthesizer(library).synthesize({"whole"})
        assert result.build() is not None
        assert "whole" in result.describe()

    def test_rejects_empty_library(self):
        with pytest.raises(OptimizerError, match="empty"):
            PipelineSynthesizer([])

"""QueryBuilder pipeline API and error-path tests."""

import numpy as np
import pytest

from repro.core import Attr, DeepLens
from repro.core.patch import Patch
from repro.errors import QueryError


def make_patches(n=20):
    for i in range(n):
        patch = Patch.from_frame("vid", i, np.full((4, 4, 3), i % 7, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        patch.metadata["vec"] = np.array([float(i // 2), 0.0])
        yield patch


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "c")
        yield session


class TestPipelineStages:
    def test_map_derives_new_attrs(self, db):
        result = (
            db.scan("c")
            .map(
                lambda p: p.derive(p.data, "bright", brightness=float(p.data.mean())),
                name="bright",
                provides={"brightness"},
            )
            .filter(Attr("brightness") >= 0.0)
            .patches()
        )
        assert len(result) == 20
        assert all("brightness" in p.metadata for p in result)

    def test_metadata_only_scan(self, db):
        result = db.scan("c", load_data=False).filter(
            Attr("label") == "vehicle"
        ).patches()
        assert len(result) == 7
        assert all(p.data.size == 0 for p in result)
        assert all(p["score"] >= 0.0 for p in result)  # metadata intact

    def test_select_projects_metadata(self, db):
        result = db.scan("c").select("label").patches()
        assert all("score" not in p.metadata for p in result)
        assert all(p["label"] in ("vehicle", "person") for p in result)

    def test_select_requires_attrs(self, db):
        with pytest.raises(QueryError, match="at least one"):
            db.scan("c").select()

    def test_limit_and_order_by(self, db):
        result = (
            db.scan("c").order_by("score", reverse=True).limit(4).patches()
        )
        assert [p["score"] for p in result] == [19.0, 18.0, 17.0, 16.0]

    def test_limit_zero_returns_empty(self, db):
        assert db.scan("c").limit(0).patches() == []
        assert db.scan("c").limit(0).count() == 0

    def test_limit_negative_raises(self, db):
        with pytest.raises(QueryError, match="non-negative"):
            db.scan("c").limit(-1)

    def test_order_by_missing_attr_raises(self, db):
        with pytest.raises(QueryError, match="ghost"):
            db.scan("c").order_by("ghost").patches()

    def test_filter_chaining_ands(self, db):
        chained = (
            db.scan("c")
            .filter(Attr("label") == "vehicle")
            .filter(Attr("score") >= 6.0)
        )
        combined = db.scan("c").filter(
            (Attr("label") == "vehicle") & (Attr("score") >= 6.0)
        )
        assert {p.patch_id for p in chained.patches()} == {
            p.patch_id for p in combined.patches()
        }
        assert chained.count() == 5  # scores 6, 9, 12, 15, 18

    def test_builders_are_shareable(self, db):
        base = db.scan("c").filter(Attr("label") == "vehicle")
        narrowed = base.filter(Attr("score") > 10.0)
        # extending `narrowed` did not mutate `base`
        assert base.count() == 7
        assert narrowed.count() == 3

    def test_batched_and_row_paths_agree(self, db):
        # ported: the row path is gone; batch size (set in its one home,
        # with_execution) must never change what a query returns
        query = db.scan("c").filter(Attr("label") == "person").limit(7)
        small = query.with_execution(batch_size=3)
        batched = [p.patch_id for p in small.patches()]
        rowwise = [p.patch_id for p in query.with_execution(batch_size=1).patches()]
        assert batched == rowwise == [p.patch_id for p in query.patches()]
        assert small.count() == query.count() == 7


class TestSimilarityJoinAndAggregate:
    def test_similarity_join_counts_pairs(self, db):
        join = db.scan("c").similarity_join(
            "c",
            threshold=0.0,
            features=lambda p: p["vec"],
            dim=2,
            exclude_self=True,
        )
        # vecs come in equal pairs (i//2): each of 10 pairs matches both ways
        assert join.count() == 20
        rows = join.rows()
        assert all(len(row) == 2 for row in rows)

    def test_join_default_features_reject_projected_data(self, db):
        join = db.scan("c").select("label").similarity_join("c", threshold=0.1)
        with pytest.raises(QueryError, match="projected away"):
            join.count()

    def test_filter_after_join_sides(self, db):
        join = db.scan("c").similarity_join(
            "c", threshold=0.0, features=lambda p: np.array([1.0])
        )
        # every pair matches; filter one side at a time
        left = join.filter(Attr("label") == "vehicle").rows()
        assert left and all(a["label"] == "vehicle" for a, _ in left)
        assert any(b["label"] == "person" for _, b in left)
        right = join.filter(Attr("label") == "vehicle", on=1).rows()
        assert right and all(b["label"] == "vehicle" for _, b in right)
        both = (
            join.filter(Attr("label") == "vehicle")
            .filter(Attr("label") == "person", on=1)
            .rows()
        )
        assert len(both) == 7 * 13

    def test_filter_on_out_of_range_raises(self, db):
        with pytest.raises(QueryError, match="single patch"):
            db.scan("c").filter(Attr("label") == "vehicle", on=1).patches()

    def test_patches_on_join_raises(self, db):
        join = db.scan("c").similarity_join(
            "c", threshold=0.0, features=lambda p: p["vec"], dim=2
        )
        with pytest.raises(QueryError, match="arity"):
            join.patches()
        with pytest.raises(QueryError, match="arity"):
            join.with_execution(batch_size=1).patches()
        with pytest.raises(QueryError, match="arity"):
            join.first()

    def test_aggregate_count_and_group(self, db):
        assert db.scan("c").aggregate("count") == 20
        groups = db.scan("c").aggregate("group", key=lambda p: p["label"])
        assert groups == {"vehicle": 7, "person": 13}

    def test_aggregate_distinct_count(self, db):
        assert (
            db.scan("c").aggregate("distinct_count", key=lambda p: p["label"]) == 2
        )
        assert db.scan("c").distinct_count(lambda p: p["label"]) == 2

    def test_aggregate_validates(self, db):
        with pytest.raises(QueryError, match="unknown aggregate"):
            db.scan("c").aggregate("median")
        with pytest.raises(QueryError, match="needs a key"):
            db.scan("c").aggregate("distinct_count")
        # arguments a kind would silently ignore are rejected
        with pytest.raises(QueryError, match="takes no key"):
            db.scan("c").aggregate("count", key=lambda p: p["label"])
        with pytest.raises(QueryError, match="takes no reducer"):
            db.scan("c").aggregate(
                "distinct_count", key=lambda p: p["label"], reducer=sum
            )

    def test_join_explain_keeps_decisions_separate(self, db):
        # a selective collection so the stats-driven planner picks the
        # index path for the left side
        def rare(n=90):
            for patch in make_patches(n):
                patch.metadata["label"] = (
                    "vehicle" if patch.metadata["frameno"] % 30 == 0 else "person"
                )
                yield patch

        db.materialize(rare(), "cj")
        db.create_index("cj", "label", "hash")
        join = (
            db.scan("cj")
            .filter(Attr("label") == "vehicle")
            .similarity_join("cj", threshold=0.5, features=lambda p: p["vec"], dim=2)
        )
        explanation = join.explain()
        # one section per cost decision: left access path, right access
        # path, join strategy — each with its own winner
        assert len(explanation.sections) == 3
        assert explanation.sections[0].chosen.kind == "hash-lookup"
        assert explanation.chosen is explanation.sections[-1].chosen
        assert "decision 1" in str(explanation)


class TestExplainAndErrors:
    def test_first_on_empty_raises(self, db):
        empty = db.scan("c").filter(Attr("label") == "nothing")
        with pytest.raises(QueryError, match="no patches"):
            empty.first()

    def test_explain_reports_rewrite_and_candidates(self, db):
        query = (
            db.scan("c")
            .map(
                lambda p: p.derive(p.data, "b", brightness=1.0),
                name="b",
                provides={"brightness"},
            )
            .filter(Attr("label") == "vehicle")
        )
        explanation = query.explain()
        assert any("pushed" in line for line in explanation.rewrites)
        assert any(c.kind == "late-materialization" for c in explanation.candidates)
        text = str(explanation)
        assert "applied rewrites" in text and "logical plan" in text

    def test_cached_map_uses_session_cache(self, db):
        query = db.scan("c").map(
            lambda p: p.derive(p.data, "u", u=1.0), name="u", cache=True
        )
        query.patches()
        assert db.udf_cache.misses == 20
        query.patches()
        assert db.udf_cache.hits == 20

    def test_projected_and_full_data_do_not_share_cache(self, db):
        def measure(p):
            value = float(p.data.mean()) if p.data.size else -1.0
            return p.derive(p.data, "m", m=value)

        stripped = (
            db.scan("c").select("label").map(measure, name="m", cache=True).patches()
        )
        assert all(p["m"] == -1.0 for p in stripped)
        # same UDF over full data must not hit the stripped-data entries
        full = db.scan("c").map(measure, name="m", cache=True).patches()
        assert all(p["m"] >= 0.0 for p in full)

    def test_cache_hits_are_isolated_from_materialize(self, db):
        query = db.scan("c").map(
            lambda p: p.derive(p.data, "u", u=1.0), name="u", cache=True
        )
        first_run = query.patches()
        db.materialize(first_run, "derived")  # assigns patch_ids in place
        assert all(p.patch_id is not None for p in first_run)
        second_run = query.patches()  # all cache hits
        assert db.udf_cache.hits == 20
        assert all(p.patch_id is None for p in second_run)

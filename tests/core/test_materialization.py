"""Materialization manager: derived views, cost-based view reuse,
lineage-driven invalidation, and the catalog-persisted UDF result store."""

import numpy as np
import pytest

from repro.core import Attr, DeepLens, PersistentUDFCache
from repro.core import logical
from repro.core.catalog import Catalog
from repro.core.materialization import view_fingerprint
from repro.core.patch import Patch
from repro.errors import QueryError, StorageError


def make_patches(n=40, source="vid"):
    for i in range(n):
        patch = Patch.from_frame(source, i, np.full((4, 4, 3), i % 7, np.uint8))
        patch.metadata["label"] = "vehicle" if i % 4 == 0 else "person"
        patch.metadata["score"] = float(i)
        yield patch


# module-level UDFs: their identity (module.qualname) survives reopen,
# which cross-session view matching and UDF-result persistence rely on
def brighten(patch):
    return patch.derive(
        patch.data, "brighten", brightness=float(patch.data.mean())
    )


CALLS = {"n": 0}


def counting_udf(patch):
    CALLS["n"] += 1
    return patch.derive(patch.data, "count", tagged=True)


def exploding_udf(patch):
    return [
        patch.derive(patch.data, "explode", part=i) for i in range(3)
    ]


def dropping_udf(patch):
    if patch["label"] == "person":
        return None
    return patch.derive(patch.data, "keep", kept=True)


def poisonable_udf(patch):
    if patch["label"] == "poison":
        raise RuntimeError("model blew up")
    return patch.derive(patch.data, "poison", ok=True)


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "c")
        yield session


def bright_query(db):
    return db.scan("c").map(
        brighten, name="brighten", provides={"brightness"}
    )


class TestViewRegistry:
    def test_materialize_view_is_a_real_collection(self, db):
        db.materialize_view("v", bright_query(db))
        assert db.views() == ["v"]
        collection = db.collection("v")
        assert len(collection) == 40
        assert all(
            "brightness" in p.metadata for p in collection.scan()
        )
        # views are profiled like any collection
        assert db.statistics("v").row_count == 40

    def test_definition_records_lineage_and_fingerprint(self, db):
        db.materialize_view("v", bright_query(db))
        definition = db.view("v")
        assert definition.bases == {"c": db.catalog.collection_version("c")}
        assert definition.fingerprint == view_fingerprint(
            bright_query(db).logical_plan()
        )
        assert definition.portable
        assert definition.row_count == 40
        assert "Map(brighten)" in definition.plan_text

    def test_duplicate_view_rejected_then_replaced(self, db):
        db.materialize_view("v", bright_query(db))
        with pytest.raises(StorageError, match="already exists"):
            db.materialize_view("v", bright_query(db))
        db.materialize_view("v", bright_query(db), replace=True)
        assert len(db.collection("v")) == 40

    def test_drop_view_unregisters_but_keeps_collection(self, db):
        db.materialize_view("v", bright_query(db))
        db.drop_view("v")
        assert db.views() == []
        assert len(db.collection("v")) == 40  # data stays
        with pytest.raises(QueryError, match="no materialized view"):
            db.view("v")

    def test_aggregate_and_join_plans_rejected(self, db):
        plan = logical.Aggregate(
            logical.Scan("c"), "count"
        )
        with pytest.raises(QueryError, match="scalars"):
            db.materialization.materialize_view("v", plan)
        join = db.scan("c").similarity_join(
            "c", threshold=0.0, features=lambda p: np.zeros(2), dim=2
        )
        with pytest.raises(QueryError, match="arity-1"):
            db.materialize_view("v", join)

    def test_self_referential_view_rejected(self, db):
        db.materialize_view("v", bright_query(db))
        with pytest.raises(QueryError, match="over itself"):
            db.materialize_view("v", db.scan("v").limit(3), replace=True)


class TestViewReuse:
    def test_matching_prefix_rewritten_with_cost_comparison(self, db):
        db.materialize_view("v", bright_query(db))
        query = bright_query(db).filter(Attr("label") == "vehicle")
        explanation = query.explain()
        assert any(
            "view-match: rewrote" in line and "'v'" in line
            for line in explanation.rewrites
        )
        # the decision shows both costs, view-scan winning
        kinds = {c.kind for c in explanation.candidates}
        assert {"view-scan", "recompute"} <= kinds
        view_choice = next(
            c for c in explanation.candidates if c.kind == "view-scan"
        )
        recompute = next(
            c for c in explanation.candidates if c.kind == "recompute"
        )
        assert view_choice.cost_seconds < recompute.cost_seconds
        assert "Scan(v)" in explanation.logical_plan
        # and the answers match the recomputing plan
        assert query.count() == 10

    def test_view_served_rows_equal_recomputed_rows(self, db):
        db.materialize_view("v", bright_query(db))
        reused = bright_query(db).filter(Attr("score") >= 20.0).patches()
        recomputed = (
            db.scan("c")
            .filter(Attr("score") >= 20.0)
            .map(brighten, name="brighten", provides={"brightness"})
            .patches()
        )
        key = lambda p: (p["frameno"], p["brightness"])
        assert sorted(key(p) for p in reused) == sorted(
            key(p) for p in recomputed
        )

    def test_fingerprint_survives_equivalent_rewrites(self, db):
        # filter written above the map vs below: push-down erases the
        # difference, so both shapes share a fingerprint and both match
        above = bright_query(db).filter(Attr("label") == "vehicle")
        below = db.scan("c").filter(Attr("label") == "vehicle").map(
            brighten, name="brighten", provides={"brightness"}
        )
        assert view_fingerprint(above.logical_plan()) == view_fingerprint(
            below.logical_plan()
        )
        db.materialize_view("v", above)
        assert any(
            "view-match: rewrote" in line for line in below.explain().rewrites
        )

    def test_non_matching_query_untouched(self, db):
        db.materialize_view("v", bright_query(db))
        other = db.scan("c").filter(Attr("label") == "person")
        explanation = other.explain()
        assert not any("view-match" in line for line in explanation.rewrites)
        assert "Scan(c)" in explanation.logical_plan

    def test_recompute_chosen_when_cheaper(self, db):
        # a 3x-exploding UDF priced at zero: scanning the (larger) view
        # models as more expensive than recomputing the base
        query = db.scan("c").map(exploding_udf, name="explode")
        db.materialize_view("v", query)
        db.optimizer.cost.udf_per_patch = 0.0
        explanation = query.explain()
        assert any(
            "recomputation is cheaper" in line for line in explanation.rewrites
        )
        assert "Scan(v)" not in explanation.logical_plan
        assert query.count() == 120

    def test_aggregate_over_view_prefix(self, db):
        db.materialize_view("v", bright_query(db))
        assert bright_query(db).aggregate("count") == 40
        # dropped-row UDF views reuse too
        db.materialize_view(
            "kept", db.scan("c").map(dropping_udf, name="keep")
        )
        q = db.scan("c").map(dropping_udf, name="keep")
        assert any(
            "view-match: rewrote" in line and "'kept'" in line
            for line in q.explain().rewrites
        )
        assert q.count() == 10


class TestInvalidation:
    def test_base_add_marks_view_stale(self, db):
        db.materialize_view("v", bright_query(db))
        assert not db.view_is_stale("v")
        db.collection("c").add(next(make_patches(1)))
        assert db.view_is_stale("v")
        assert db.materialization.stale_bases("v") == ["c"]

    def test_stale_view_not_used_by_default(self, db):
        db.materialize_view("v", bright_query(db))
        db.collection("c").add(next(make_patches(1)))
        query = bright_query(db)
        explanation = query.explain()
        assert any(
            "stale" in line and "recomputing" in line
            for line in explanation.rewrites
        )
        assert "Scan(v)" not in explanation.logical_plan
        # recomputation sees the new row; the stale view would not
        assert query.count() == 41

    def test_allow_stale_opts_into_old_rows(self, db):
        db.materialize_view("v", bright_query(db))
        db.collection("c").add(next(make_patches(1)))
        query = bright_query(db).allow_stale()
        explanation = query.explain()
        assert any("stale tolerated" in line for line in explanation.rewrites)
        assert query.count() == 40  # the view's snapshot, missing the add

    def test_refresh_restores_freshness_and_reuse(self, db):
        db.materialize_view("v", bright_query(db))
        db.collection("c").add(next(make_patches(1)))
        db.refresh_view("v")
        assert not db.view_is_stale("v")
        assert len(db.collection("v")) == 41
        query = bright_query(db)
        assert any(
            "view-match: rewrote" in line for line in query.explain().rewrites
        )
        assert query.count() == 41

    def test_failed_refresh_preserves_old_snapshot(self, db):
        """A UDF failure during refresh must not leave a half-built view:
        the plan executes eagerly before the old rows are replaced."""
        query = db.scan("c").map(poisonable_udf, name="poison")
        db.materialize_view("v", query)
        assert len(db.collection("v")) == 40
        bad = next(make_patches(1))
        bad.metadata["label"] = "poison"
        db.collection("c").add(bad)
        with pytest.raises(RuntimeError, match="model blew up"):
            db.refresh_view("v")
        # old snapshot and definition intact; the view is still stale
        assert len(db.collection("v")) == 40
        assert db.view("v").row_count == 40
        assert db.view_is_stale("v")

    def test_replace_of_base_invalidates_view(self, db):
        """Replacing a base collection — even with an empty one — is a
        mutation: dependent views must go stale."""
        db.materialize_view("v", bright_query(db))
        db.materialize([], "c", replace=True)
        assert db.view_is_stale("v")

    def test_statistics_surface_staleness(self, db):
        assert db.statistics("c").stale is False
        assert db.statistics("c").staleness == 0
        db.collection("c").add(next(make_patches(1)))
        db.collection("c").add(next(make_patches(1)))
        stats = db.statistics("c")
        assert stats.stale is True
        assert stats.staleness == 2
        # a full rebuild re-baselines the counter (stats now reflect
        # every row) without touching view invalidation
        db.materialize_view("v", bright_query(db))
        db.collection("c").add(next(make_patches(1)))
        db.rebuild_statistics("c")
        assert db.statistics("c").stale is False
        assert db.view_is_stale("v")  # the view still predates the add


class TestPersistenceAcrossSessions:
    def test_view_round_trip_reopen_still_rewrites(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.materialize_view("v", bright_query(db))
        with DeepLens(tmp_path) as db:
            assert db.views() == ["v"]
            definition = db.view("v")
            assert definition.bases == {"c": 40}
            query = bright_query(db).filter(Attr("label") == "vehicle")
            explanation = query.explain()
            assert any(
                "view-match: rewrote" in line for line in explanation.rewrites
            ), explanation.rewrites
            assert "Scan(v)" in explanation.logical_plan
            assert query.count() == 10

    def test_staleness_survives_reopen(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.materialize_view("v", bright_query(db))
            db.collection("c").add(next(make_patches(1)))
        with DeepLens(tmp_path) as db:
            assert db.view_is_stale("v")
            assert db.statistics("c").staleness == 1
            # refresh needs the defining query back (callables are gone)
            with pytest.raises(QueryError, match="another session"):
                db.refresh_view("v")
            db.refresh_view("v", bright_query(db))
            assert not db.view_is_stale("v")
            assert len(db.collection("v")) == 41

    def test_refresh_rejects_mismatched_query(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.materialize_view("v", bright_query(db))
        with DeepLens(tmp_path) as db:
            wrong = db.scan("c").filter(Attr("label") == "person")
            with pytest.raises(QueryError, match="does not match"):
                db.refresh_view("v", wrong)

    def test_lambda_views_do_not_match_after_reopen(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            query = db.scan("c").map(
                lambda p: p.derive(p.data, "anon", anon=1.0), name="anon"
            )
            db.materialize_view("v", query)
            assert db.view("v").portable is False
            # within the defining session the lambda's identity holds
            assert any(
                "view-match: rewrote" in line for line in query.explain().rewrites
            )
        with DeepLens(tmp_path) as db:
            fresh = db.scan("c").map(
                lambda p: p.derive(p.data, "anon", anon=1.0), name="anon"
            )
            assert not any(
                "view-match" in line for line in fresh.explain().rewrites
            )


class TestPersistentUDFCache:
    def test_results_served_across_sessions(self, tmp_path):
        CALLS["n"] = 0
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.scan("c").map(counting_udf, name="count", cache=True).patches()
            assert CALLS["n"] == 40
            assert db.udf_cache.persisted_count() == 40
        with DeepLens(tmp_path) as db:
            result = (
                db.scan("c").map(counting_udf, name="count", cache=True).patches()
            )
            assert CALLS["n"] == 40  # no model invocations at all
            assert db.udf_cache.disk_hits == 40
            assert db.udf_cache.hits == 40
            assert len(result) == 40
            assert all(p["tagged"] for p in result)

    def test_none_and_list_results_round_trip(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            drop = db.scan("c").map(dropping_udf, name="drop", cache=True)
            explode = db.scan("c").map(exploding_udf, name="explode", cache=True)
            assert drop.count() == 10
            assert explode.count() == 120
        with DeepLens(tmp_path) as db:
            drop = db.scan("c").map(dropping_udf, name="drop", cache=True)
            explode = db.scan("c").map(exploding_udf, name="explode", cache=True)
            assert drop.count() == 10
            assert explode.count() == 120
            assert db.udf_cache.disk_hits == 80
            parts = explode.patches()
            assert sorted({p["part"] for p in parts}) == [0, 1, 2]

    def test_lambdas_stay_memory_only(self, db):
        db.scan("c").map(
            lambda p: p.derive(p.data, "anon", anon=1.0), name="anon", cache=True
        ).patches()
        assert db.udf_cache.persisted_count() == 0
        assert db.udf_cache.misses == 40

    def test_lru_eviction_backstopped_by_disk(self, tmp_path):
        CALLS["n"] = 0
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.udf_cache = PersistentUDFCache(db.catalog, max_entries=5)
            db.materialization.udf_cache = db.udf_cache
            query = db.scan("c").map(counting_udf, name="count", cache=True)
            query.patches()
            assert CALLS["n"] == 40
            assert len(db.udf_cache) == 5  # memory stays bounded
            assert db.udf_cache.persisted_count() == 40
            query.patches()  # evicted entries come back from the catalog
            assert CALLS["n"] == 40
            assert db.udf_cache.disk_hits >= 35

    def test_batch_and_row_paths_share_disk_entries(self, tmp_path):
        CALLS["n"] = 0

        def batch(patches):
            return [counting_udf(p) for p in patches]

        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(), "c")
            db.scan("c").map(
                counting_udf, name="count", batch_fn=batch, cache=True
            ).patches()
            assert CALLS["n"] == 40
        with DeepLens(tmp_path) as db:
            db.scan("c").map(
                counting_udf, name="count", cache=True
            ).with_execution(batch_size=8).patches()
            assert CALLS["n"] == 40
            assert db.udf_cache.disk_hits == 40


class TestCallableIdentity:
    @staticmethod
    def _named(source):
        """A function that *looks* module-level (portable) but whose body
        we control — simulating an edited UDF across sessions."""
        namespace = {}
        exec(source, namespace)
        fn = namespace["udf"]
        fn.__module__ = "fakemod"
        fn.__qualname__ = "udf"
        return fn

    def test_identity_tracks_function_body(self):
        """Editing a UDF's source (even just a constant) must change its
        identity, or the persistent cache and view fingerprints would
        silently serve results of the old code."""
        one = self._named("def udf(p): return 1.0")
        two = self._named("def udf(p): return 2.0")
        same = self._named("def udf(p): return 1.0")
        assert logical.callable_identity(one) != logical.callable_identity(two)
        assert logical.callable_identity(one) == logical.callable_identity(same)
        defaults = self._named("def udf(p, k=3): return k")
        redefaults = self._named("def udf(p, k=4): return k")
        assert logical.callable_identity(defaults) != logical.callable_identity(
            redefaults
        )

    def test_identity_is_deterministic_for_builtins(self):
        assert logical.callable_identity(len) == logical.callable_identity(len)
        assert "#" not in logical.callable_identity(len)  # portable form

    def test_edited_udf_misses_persistent_cache(self, tmp_path):
        with DeepLens(tmp_path) as db:
            db.materialize(make_patches(5), "c")
            v1 = self._named("def udf(p): return p.derive(p.data, 'u', out=1.0)")
            db.scan("c").map(v1, name="u", cache=True).patches()
            assert db.udf_cache.persisted_count() == 5
        with DeepLens(tmp_path) as db:
            v2 = self._named("def udf(p): return p.derive(p.data, 'u', out=2.0)")
            result = db.scan("c").map(v2, name="u", cache=True).patches()
            assert db.udf_cache.disk_hits == 0  # old results not served
            assert all(p["out"] == 2.0 for p in result)


class TestCollectionVersions:
    def test_versions_persist_and_advance(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(3), "c")
            assert catalog.collection_version("c") == 3
            assert catalog.mutations_since_fresh("c") == 0
            catalog.collection("c").add(next(make_patches(1)))
            assert catalog.collection_version("c") == 4
            assert catalog.mutations_since_fresh("c") == 1
        with Catalog(tmp_path) as catalog:
            assert catalog.collection_version("c") == 4
            assert catalog.mutations_since_fresh("c") == 1

    def test_replace_keeps_versions_monotone(self, tmp_path):
        with Catalog(tmp_path) as catalog:
            catalog.materialize(make_patches(5), "c")
            version = catalog.collection_version("c")
            catalog.materialize(make_patches(2), "c", replace=True)
            assert catalog.collection_version("c") > version
            assert catalog.mutations_since_fresh("c") == 0

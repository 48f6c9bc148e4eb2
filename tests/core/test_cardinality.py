"""One cardinality estimator per planning pass; one instrumentation hook.

* every ``(collection, predicate)`` selectivity, statistics snapshot and
  logical subtree is estimated once per :func:`plan_pipeline` call — and
  never remembered across calls;
* a plan lowered under ``explain(analyze=True)`` is the same tree of
  operator types as the unprofiled plan and returns the same rows: the
  profile is attached to the operators, not wrapped around them.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import Attr, DeepLens, logical
from repro.core.expressions import Predicate
from repro.core.operators import AggregateExecution
from repro.core.optimizer import CardinalityEstimator
from repro.core.patch import Patch
from repro.core.profile import RuntimeProfile
from repro.core.udf import attribute_key

N = 96


def make_patches(n=N, start=0):
    rng = np.random.default_rng(11)
    for i in range(start, start + n):
        patch = Patch.from_frame(
            "cam", i // 3, rng.integers(0, 255, (4, 4, 3)).astype(np.uint8)
        )
        patch.metadata["label"] = "vehicle" if i % 3 == 0 else "person"
        patch.metadata["score"] = float(i)
        patch.metadata["text"] = f"plate-{i % 7}"
        patch.metadata["emb"] = np.array([float(i % 4), float(i % 3), 1.0, 0.0])
        yield patch


def scored(patch):
    return patch.derive(patch.data, "scored", total=float(patch.data.sum()))


def embedding(patch):
    return np.asarray(patch["emb"], dtype=float)


def mentions_plate_3(patch):
    return "plate-3" in patch["text"]


@pytest.fixture
def db(tmp_path):
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "det")
        session.materialize(make_patches(40, start=1000), "other")
        yield session


class CountingStatistics:
    """A StatisticsProvider that counts what the planner asks it."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.calls = Counter()

    def statistics_for(self, collection_name):
        self.calls[collection_name] += 1
        return self.catalog.statistics_for(collection_name)


class CountingLog:
    """The catalog's plan-quality log, counting feedback lookups."""

    def __init__(self, log):
        self._log = log
        self.lookups = Counter()

    def correction(self, collection, expr_key, **kwargs):
        self.lookups[(collection, expr_key)] += 1
        return self._log.correction(collection, expr_key, **kwargs)

    def __getattr__(self, name):
        return getattr(self._log, name)


@pytest.fixture
def counted(db, monkeypatch):
    statistics = CountingStatistics(db.catalog)
    log = CountingLog(db.catalog.plan_quality_log())
    db.optimizer.statistics = statistics
    monkeypatch.setattr(db.catalog, "plan_quality_log", lambda: log)
    return statistics, log


def key_of(expr):
    return logical.expr_signature_key(expr)


class TestOncePerPass:
    def pass_counts(self, counted, query):
        statistics, log = counted
        statistics.calls.clear()
        log.lookups.clear()
        query.explain()  # one plan_pipeline call
        return dict(statistics.calls), dict(log.lookups)

    def test_filtered_scan(self, db, counted):
        car = Attr("label") == "vehicle"
        recent = Attr("score") > 50.0
        db.create_index("det", "label", "hash")
        query = db.scan("det").filter(car).filter(recent)
        stats, lookups = self.pass_counts(counted, query)
        assert stats == {"det": 1}
        # the conjunction for the scan group, and each conjunct the index
        # candidates and the filter chain were costed by — once each
        assert lookups == {
            ("det", key_of(car & recent)): 1,
            ("det", key_of(car)): 1,
        }

    def test_filtered_scan_under_map_and_limit(self, db, counted):
        car = Attr("label") == "vehicle"
        query = db.scan("det").filter(car).map(scored, name="scored").limit(5)
        stats, lookups = self.pass_counts(counted, query)
        assert stats == {"det": 1}
        assert lookups == {("det", key_of(car)): 1}

    def test_two_sided_similarity_join(self, db, counted):
        left = Attr("score") < 30.0
        right = Attr("score") < 1020.0
        query = (
            db.scan("det")
            .filter(left)
            .similarity_join(db.scan("other").filter(right), threshold=200.0)
        )
        stats, lookups = self.pass_counts(counted, query)
        assert stats == {"det": 1, "other": 1}
        assert lookups == {
            ("det", key_of(left)): 1,
            ("other", key_of(right)): 1,
        }

    def test_feedback_metric_counts_one_decision_per_predicate(self, db):
        car = Attr("label") == "vehicle"
        query = db.scan("det").filter(car).map(scored, name="scored").limit(5)
        db.scan("det").filter(car).explain(analyze=True)  # learn a correction
        series = 'deeplens_optimizer_feedback_total{outcome="applied"}'
        before = db.metrics()["counters"][series]
        explanation = query.explain()
        assert any("(feedback)" in line for line in explanation.estimates)
        assert db.metrics()["counters"][series] == before + 1

    def test_memo_does_not_outlive_the_pass(self, db, counted):
        statistics, _ = counted
        car = Attr("label") == "vehicle"
        query = db.scan("det").filter(car)
        first = query.explain()
        assert statistics.calls == {"det": 1}
        for patch in make_patches(30, start=N):
            patch.metadata["label"] = "vehicle"
            db.collection("det").add(patch)
        db.catalog.rebuild_statistics("det")
        second = query.explain()
        # the second pass re-read the statistics and saw the new rows
        assert statistics.calls == {"det": 2}
        assert first.chosen.params["est_rows"] == pytest.approx(N / 3)
        assert second.chosen.params["est_rows"] == pytest.approx(N / 3 + 30)

    def test_direct_plan_filter_is_a_pass_of_its_own(self, db, counted):
        statistics, _ = counted
        db.optimizer.plan_filter("det", Attr("score") > 5.0)
        db.optimizer.plan_filter("det", Attr("score") > 5.0)
        assert statistics.calls == {"det": 2}


def test_view_matching_estimates_each_node_once(db, monkeypatch):
    """The view matcher used to build a throwaway estimator per estimate,
    re-walking a depth-d prefix O(d^2) times."""

    def prefix():
        return (
            db.scan("det")
            .filter(Attr("label") == "vehicle")
            .map(scored, name="scored")
            .filter(Attr("total") > 0.0)
            .select("label", "total")
        )

    db.materialize_view("v", prefix())
    estimated = []  # nodes, kept alive so ids stay unique
    subtree_rows = CardinalityEstimator._subtree_rows

    def counting(self, node):
        estimated.append(node)
        return subtree_rows(self, node)

    monkeypatch.setattr(CardinalityEstimator, "_subtree_rows", counting)
    explanation = prefix().limit(4).explain()
    assert any("rewrote pipeline prefix" in note for note in explanation.rewrites)
    per_node = Counter(id(node) for node in estimated)
    assert per_node and set(per_node.values()) == {1}
    # every node of the depth-4 prefix was costed for the recompute side
    prefix_nodes = {"Scan", "Filter", "Map", "Project"}
    assert prefix_nodes <= {type(node).__name__ for node in estimated}


# -- profiled and unprofiled plans are the same plan ---------------------


def type_tree(operator):
    if isinstance(operator, AggregateExecution):
        return ("AggregateExecution", type_tree(operator.operator))
    children = [
        getattr(operator, name)
        for name in ("child", "left", "right")
        if getattr(operator, name, None) is not None
    ]
    return (type(operator).__name__, *map(type_tree, children))


def run(physical, size):
    if isinstance(physical, AggregateExecution):
        return physical.execute(size)
    return [
        tuple(
            (p.patch_id, p.lineage, p.data.tobytes(), sorted(map(repr, p.metadata.items())))
            for p in row
        )
        for batch in physical.iter_batches(size)
        for row in batch
    ]


def shapes(db):
    """Table-1 query shapes and every access path, as (name, builder,
    aggregate or None, chosen-kind expected somewhere in the plan)."""
    person = Attr("label") == "person"
    plate = Predicate(mentions_plate_3, "mentions_plate_3")
    det, other = lambda: db.scan("det"), lambda: db.scan("other")
    count_frames = ("distinct_count", attribute_key("frameno"))
    return [
        # q1: near-duplicate pairs — a self similarity join
        ("q1", lambda: det().filter(Attr("score") < 24.0).similarity_join(
            det().filter(Attr("score") < 24.0), threshold=60.0, exclude_self=True
        ), None, "balltree"),
        # q2: frames containing a vehicle — metadata-only distinct count
        ("q2", lambda: det().filter(Attr("label") == "vehicle"), count_frames,
         "metadata-scan"),
        # q3: per-clip trajectory — filter, sort
        ("q3", lambda: det().filter(person).order_by("score"), None,
         "late-materialization"),
        # q4: distinct pedestrians — filter, UDF features, match
        ("q4", lambda: det().filter(person).filter(Attr("score") < 30.0)
         .map(scored, name="scored").similarity_join(
            other().map(scored, name="scored"), threshold=0.5,
            features=embedding, dim=64,
        ), None, "nested-loop"),
        # q5: first image whose text mentions the target — opaque predicate
        ("q5", lambda: det().filter(plate).limit(1), None, "late-materialization"),
        # q6: same-frame pairs, filtered on the right patch after the join
        ("q6", lambda: det().filter(Attr("score") < 20.0).similarity_join(
            other(), threshold=0.5, features=embedding
        ).filter(Attr("score") > 1005.0, on=1), None, "balltree"),
        ("metadata-scan", lambda: det().filter(Attr("score") > 90.0).select("label"),
         None, "metadata-scan"),
        ("late-materialization", lambda: det().filter(Attr("score") < 3.0), None,
         "late-materialization"),
        # two rows: a 40-row block's column pass costs more than fetching them
        ("btree-range", lambda: other().filter(Attr("score").between(1004.0, 1005.0))
         .filter(person), None, "btree-range"),
        ("hnsw-ann", lambda: det().similarity_search([1.0, 1.0, 1.0, 0.0], 5, attr="emb"),
         None, "hnsw-ann"),
        ("exact-topk", lambda: other().similarity_search([1.0, 1.0, 1.0, 0.0], 5, attr="emb"),
         None, "exact-topk-scan"),
        ("exact-topk-filtered", lambda: det().filter(person)
         .similarity_search([1.0, 1.0, 1.0, 0.0], 5, attr="emb"), None,
         "late-materialization"),
        ("cached-map", lambda: det().filter(Attr("score") < 9.0)
         .map(scored, name="scored", cache=True), None, "late-materialization"),
        ("count", lambda: det().filter(Attr("score").between(10.0, 40.0)),
         ("count", None), "metadata-scan"),
        ("parallel-map", lambda: det().with_execution(workers=2, batch_size=8)
         .filter(person).map(scored, name="scored"), None,
         "late-materialization"),
    ]


SHAPE_NAMES = [
    "q1", "q2", "q3", "q4", "q5", "q6", "metadata-scan", "late-materialization",
    "btree-range", "hnsw-ann", "exact-topk", "exact-topk-filtered", "cached-map",
    "count", "parallel-map",
]


@pytest.mark.parametrize("name", SHAPE_NAMES)
def test_profiled_plan_is_the_unprofiled_plan(db, name):
    db.create_index("other", "score", "btree")
    db.create_index("det", "emb", "hnsw")
    by_name = {shape[0]: shape for shape in shapes(db)}
    assert list(by_name) == SHAPE_NAMES
    _, build, aggregate, expected_kind = by_name[name]

    def physical(profile):
        query = build()
        plan = query.logical_plan()
        if aggregate is not None:
            plan = logical.Aggregate(plan, aggregate[0], key=aggregate[1])
        return query._physical(plan, profile)

    plain, explanation = physical(None)
    profile = RuntimeProfile()
    analyzed, _ = physical(profile)
    chosen = [explanation.chosen.kind] + [s.chosen.kind for s in explanation.sections]
    assert any(expected_kind in kind for kind in chosen), chosen
    assert type_tree(analyzed) == type_tree(plain)
    size = explanation.execution.batch_size
    assert run(analyzed, size) == run(plain, size)
    # and the analyzed run was counted: every entry saw its stream end
    assert profile.entries
    assert all(entry.exhausted for entry in profile.entries if name != "q5")

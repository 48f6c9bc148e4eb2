"""Table 1 — accuracy vs runtime for the two q4 operator orders.

Paper::

    Execution method for q4      Recall  Precision  Runtime
    Patch, Filter, Match         0.73    0.97       34.56
    Patch, Match, Filter         0.82    0.98       62.11

"The second approach goes against typical query optimization principles
of filter pushdown — but we see that it is actually a more accurate
strategy." Pushing the label filter below the matcher drops every true
pedestrian the detector mislabeled; matching first and filtering pairs
afterwards recovers them (a pair survives unless *both* endpoints were
mislabeled).

The harness also asks the optimizer for its latency/accuracy estimates of
both plans, checking the cost model predicts the same trade-off direction
it measures.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench import q4_plan_accuracy
from repro.core import Attr


def _run_both_orders(traffic):
    workload, _ = traffic
    push = q4_plan_accuracy(workload, "filter-then-match")
    late = q4_plan_accuracy(workload, "match-then-filter")
    explanation = workload.db.optimizer.plan_dedup_filter_placement(
        n_patches=len(workload.detections),
        person_fraction=max(
            sum(
                1
                for identity in workload.identity_of.values()
                if identity and identity.startswith("ped-")
            )
            / max(len(workload.detections), 1),
            0.05,
        ),
        mislabel_rate=0.06,
    )
    return push, late, explanation


@pytest.mark.benchmark(group="table1")
def test_table1_filter_placement_accuracy(benchmark, traffic):
    push, late, explanation = benchmark.pedantic(
        _run_both_orders, args=(traffic,), rounds=1, iterations=1
    )
    lines = [
        "| execution method | recall | precision | runtime (s) |",
        "|---|---|---|---|",
        f"| Patch, Filter, Match | {push.accuracy.recall:.2f} "
        f"| {push.accuracy.precision:.2f} | {push.seconds:.3f} |",
        f"| Patch, Match, Filter | {late.accuracy.recall:.2f} "
        f"| {late.accuracy.precision:.2f} | {late.seconds:.3f} |",
        "",
        "paper: 0.73/0.97/34.56 vs 0.82/0.98/62.11 — the anti-push-down "
        "order is slower but more accurate.",
        "",
        "optimizer estimates for the same decision:",
        "```",
        str(explanation),
        "```",
    ]
    write_result("table1_plan_accuracy", "Table 1 — plan choice vs accuracy", lines)

    # the paper's headline: late filtering recovers recall ...
    assert late.accuracy.recall > push.accuracy.recall + 0.02
    # ... at comparable precision ...
    assert abs(late.accuracy.precision - push.accuracy.precision) < 0.15
    # ... and higher cost
    assert late.seconds > push.seconds * 1.3
    # the optimizer's accuracy model predicts the same direction
    estimates = {choice.kind: choice for choice in explanation.candidates}
    assert (
        estimates["match-then-filter"].accuracy.recall
        > estimates["filter-then-match"].accuracy.recall
    )
    assert (
        estimates["match-then-filter"].cost_seconds
        > estimates["filter-then-match"].cost_seconds
    )


@pytest.mark.benchmark(group="table1")
def test_table1_stats_driven_estimates_within_10x(traffic):
    """The statistics-driven planner's row estimates vs brute-force
    actuals on the seed workload — the catalog's histograms/MCVs must
    land every predicate within 10x (the seed's fixed constants cannot)."""
    workload, _ = traffic
    db = workload.db
    detections = list(workload.detections.scan(load_data=False))
    n = len(detections)
    frames = sorted({p["frameno"] for p in detections})
    mid_frame = frames[len(frames) // 2]
    depths = sorted(p["depth"] for p in detections)
    mid_depth = depths[len(depths) // 2]

    predicates = [
        Attr("label") == "vehicle",
        Attr("label") == "person",
        Attr("label") != "vehicle",
        Attr("frameno") <= mid_frame,
        Attr("frameno").between(frames[0], mid_frame),
        Attr("depth") >= mid_depth,
        (Attr("label") == "vehicle") & (Attr("frameno") <= mid_frame),
    ]

    lines = [
        f"seed workload: {n} detections",
        "",
        "| predicate | estimated rows | actual rows | source |",
        "|---|---|---|---|",
    ]
    sources = set()
    for expr in predicates:
        estimated, source = db.optimizer.estimator().filter_rows(
            "detections", expr
        )
        actual = sum(1 for patch in detections if expr.evaluate(patch))
        lines.append(
            f"| {expr!r} | {estimated:.1f} | {actual} | {source} |"
        )
        sources.update(source.split("+"))
        # the acceptance bar: within 10x both ways (floor at one row so
        # near-empty results do not divide by zero)
        assert max(estimated, 1.0) <= max(actual, 1.0) * 10
        assert max(actual, 1.0) <= max(estimated, 1.0) * 10
    # real statistics backed the estimates, not the fixed constants
    assert "histogram" in sources
    assert "mcv" in sources
    assert "fallback-constant" not in sources

    # explain() on a filtered scan surfaces the histogram-based estimate
    explanation = (
        db.scan("detections", load_data=False)
        .filter(Attr("frameno") <= mid_frame)
        .explain()
    )
    assert any("histogram" in line for line in explanation.estimates)
    lines += ["", "explain() over the frameno filter:", "```",
              str(explanation), "```"]
    write_result(
        "table1_stats_estimates",
        "Stats-driven cardinality estimates vs actuals",
        lines,
    )

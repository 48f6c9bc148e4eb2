"""Self-tests of the end-to-end benchmark harness, at ``--smoke`` size.

Picked up by ``pytest benchmarks/``; not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as cli  # noqa: E402
from harness import layers, runner  # noqa: E402
from harness.pixel_queries import PixelQueries  # noqa: E402
from harness.stats import BOUNDARY_MARGIN, class_placement, percentile, verdict  # noqa: E402
from repro.core.patch import Patch  # noqa: E402
from repro.storage.kvstore import BlobHeap, serialization  # noqa: E402

WORKLOADS = runner.workload_classes()
#: engine callables as imported, before any traced pass ran
ORIGINALS = (BlobHeap.get, serialization.loads, vars(Patch)["from_record"])


def _execute(workload_cls, out_dir, *, trace=True, seed=7):
    return runner.execute(
        workload_cls,
        seed=seed,
        seconds=1,
        trace=trace,
        smoke=True,
        out_dir=str(out_dir),
        import_s=0.0,
        digests_path=cli.DIGESTS_PATH,
    )


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced smoke runs of every workload, same seed."""
    out = tmp_path_factory.mktemp("e2e")
    return {
        name: [_execute(cls, out / f"{name}-{i}") for i in range(2)]
        for name, cls in WORKLOADS.items()
    }


def test_benchmark_json_matches_the_harness_tables():
    with open(cli.SPEC_PATH) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(cli.WORKLOADS)
    assert any(e["name"] == "setup_s" and e["unit"] == "s" for e in spec["end_to_end"])
    assert spec["per_layer"] == layers.per_layer_spec()
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_work(traced_runs, name):
    """Op lists, digests, answers and every per-layer count repeat exactly."""
    first, second = traced_runs[name]
    assert first["correct"] and second["correct"], first["failures"] + second["failures"]
    assert first["digest"] == second["digest"]
    assert first["attempted"] == second["attempted"]
    for metric in ("result_recall", "stored_bytes_per_user_byte"):
        assert first["end_to_end"][metric] == second["end_to_end"][metric]
    exact = [
        metric for metric, (unit, _) in layers.COUNT_METRICS.items()
        if not metric.startswith("bench.") or metric == "bench.traced_ops"
    ]
    assert {m: first["per_layer"][m] for m in exact} == {m: second["per_layer"][m] for m in exact}


def test_same_seed_same_ops_other_seed_other_ops():
    from harness.tracer import Tracer

    a, b, c = (PixelQueries(seed, True, Tracer()) for seed in (7, 7, 8))
    assert a.ops(1) == b.ops(1) and a.digest() == b.digest()
    assert a.ops(1) != a.ops(2)
    assert a.digest() != c.digest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_sum_to_op_wall(traced_runs, name):
    record = traced_runs[name][0]
    with open(record["trace_file"]) as handle:
        trace = json.load(handle)
    assert trace["ops"], "no op was traced"
    for op in trace["ops"]:
        wall = op["end"] - op["start"]
        assert sum(span["self_s"] for span in op["spans"]) == pytest.approx(wall, rel=1e-6, abs=1e-9)
        assert all(span["self_s"] >= -1e-9 for span in op["spans"])
    assert record["per_layer"]["bench.traced_ops"] == len(trace["ops"])
    assert "bench.trace_overhead_share" in record["per_layer"]


def test_wrappers_are_removed_after_the_traced_pass(traced_runs):
    assert all(run["wrappers_left_installed"] == 0 for runs in traced_runs.values() for run in runs)
    assert (BlobHeap.get, serialization.loads, vars(Patch)["from_record"]) == ORIGINALS
    assert not hasattr(BlobHeap.get, "__wrapped__")


def test_bypass_predictions_hold(traced_runs):
    meta = traced_runs["metadata_analytics"][0]["per_layer"]
    assert meta["storage.kvstore.heap.reads"] == 0
    assert meta["core.patch.records_decoded"] == 0
    assert meta["storage.journal.commits"] == 0
    assert meta["storage.metadata_segment.blocks_skipped"] > 0
    pixel = traced_runs["pixel_queries"][0]["per_layer"]
    assert pixel["storage.journal.commits"] == 0
    assert pixel["storage.kvstore.pager.page_misses"] == 0
    assert pixel["core.materialization.view_served_ops"] > 0
    assert 0 < pixel["core.udf_cache.hit_ratio"] <= 1
    etl = traced_runs["etl_ingest"][0]
    assert not etl["per_class"]["etl_clip"]["calls"].get("core.sql.parse")
    assert etl["per_layer"]["storage.journal.commits"] > 0
    similarity = traced_runs["similarity_mixed"][0]["per_layer"]
    assert similarity["indexes.hnsw.recall_at_10"] > 0.5
    assert similarity["storage.journal.commits"] > 0


def test_an_injected_failing_op_is_counted_and_fails_the_command(tmp_path, monkeypatch, capsys):
    original = PixelQueries.run
    calls = {"n": 0}

    def flaky(self, op):
        calls["n"] += 1
        if calls["n"] == 5:
            raise RuntimeError("injected")
        if calls["n"] == 9:
            return original(self, op)[:-1]  # a wrong answer, not an exception
        return original(self, op)

    monkeypatch.setattr(PixelQueries, "run", flaky)
    status = cli.main(
        ["--workload", "pixel_queries", "--smoke", "--seconds", "1", "--out", str(tmp_path)]
    )
    assert status == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_no_percentile_the_sample_cannot_support():
    samples = [float(i) for i in range(199)]
    assert percentile(samples, 0.95) is None
    assert percentile(samples + [199.0], 0.95) == 189.0  # ten samples lie beyond it
    assert percentile(samples[:19], 0.50) is None
    assert percentile(samples[:20], 0.50) == 9.0


def test_percentiles_must_sit_inside_one_op_class():
    latencies = {"fast": [1.0] * 60, "mid": [10.0] * 30, "slow": [100.0] * 10}
    assert class_placement(latencies, 0.50) == ("fast", pytest.approx(0.10))
    cls, margin = class_placement(latencies, 0.95)
    assert cls == "slow" and margin == pytest.approx(0.05)
    # a 94 / 6 mix puts p95 one point from the boundary: the self-check trips
    cls, margin = class_placement({"fast": [1.0] * 94, "slow": [9.0] * 6}, 0.95)
    assert cls == "slow" and margin < BOUNDARY_MARGIN


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert verdict(steady, [100.5, 100.0, 99.5], better="lower", bound=0.10)[0] == "same"
    assert verdict(steady, [120.0, 121.0, 119.0], better="lower", bound=0.10)[0] == "worse"
    assert verdict(steady, [80.0, 81.0, 79.0], better="lower", bound=0.10)[0] == "better"
    assert verdict(steady, [80.0, 81.0, 79.0], better="higher", bound=0.10)[0] == "worse"
    noisy = [100.0, 140.0, 70.0]
    assert verdict(noisy, [105.0, 75.0, 135.0], better="lower", bound=0.10)[0] == "unresolved"
    # wide spread, but every new run is worse than every base run: resolved
    assert verdict(noisy, [300.0, 190.0, 240.0], better="lower", bound=0.10)[0] == "worse"
    # metrics that repeat exactly (recall, stored bytes) have zero spread
    assert verdict([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], better="higher", bound=0.01)[0] == "same"
    assert verdict([1.0, 1.0, 1.0], [0.9, 0.9, 0.9], better="higher", bound=0.01)[0] == "worse"


def test_compare_command_reads_two_run_sets(tmp_path, capsys):
    with open(cli.SPEC_PATH) as handle:
        metrics = [entry["name"] for entry in json.load(handle)["end_to_end"]]

    def write(path, latency):
        with open(path, "w") as handle:
            for workload in cli.WORKLOADS:
                for jitter in (0.99, 1.0, 1.01):
                    handle.write(json.dumps({
                        "workload": workload, "trace": 0, "smoke": False,
                        "attempted": 100, "failed": 0,
                        "end_to_end": {
                            name: (latency * jitter if name == "op_p50_ms" else 1.0)
                            for name in metrics
                        },
                    }) + "\n")

    base, slow = tmp_path / "base.jsonl", tmp_path / "slow.jsonl"
    write(base, 10.0)
    write(slow, 13.0)
    assert cli.compare(str(base), str(base)) == 0
    assert "worse" not in capsys.readouterr().out
    assert cli.compare(str(base), str(slow)) == 1
    assert "worse" in capsys.readouterr().out

"""One benchmark run: inputs -> set-up -> warm-up -> timed rounds ->
(traced round) -> end-state checks -> metrics.

One process, one client, closed loop: DeepLens is an embedded library and
the caller waits for each reply, so the next op is issued when the
previous one returns (zero think time; the reference check between ops
is off the clock). BLAS threads are pinned to 1 by ``run.py``; the engine
runs with the default ``ExecutionContext`` (workers=1) and the default
``durability="fsync"`` on a fresh directory.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from typing import Any

from . import layers
from .base import Op, Outcome, Workload
from .etl_ingest import EtlIngest
from .metadata_analytics import MetadataAnalytics
from .pixel_queries import PixelQueries
from .similarity_mixed import SimilarityMixed
from .stats import BOUNDARY_MARGIN, class_placement, percentile
from .tracer import Tracer

#: set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: above this the per-layer shares are printed with a warning
TRACE_OVERHEAD_WARN = 0.30

_clock = time.perf_counter


def workload_classes() -> dict[str, type[Workload]]:
    return {
        cls.name: cls
        for cls in (EtlIngest, PixelQueries, MetadataAnalytics, SimilarityMixed)
    }


class Round:
    """What one pass over a round's op list produced."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.recalls: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        #: tracer records, one per op (traced rounds only)
        self.traced: list[dict] = []

    @property
    def op_seconds(self) -> float:
        return sum(sum(samples) for samples in self.latencies.values())

    @property
    def ops_ok(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())


def run_round(workload: Workload, ops: list[Op], tracer: Tracer | None = None) -> Round:
    """Issue ``ops`` one after the other. An op that raises, or whose
    answer the reference rejects, is a failed op: it is counted, kept out
    of the latency samples, and the round goes on."""
    result = Round()
    for index, op in enumerate(ops):
        result.attempted += 1
        before = workload.counters() if tracer is not None else None
        registry = workload.db.metrics_registry if tracer is not None else None
        answer: Any = None
        error = None
        if tracer is not None:
            tracer.begin_op()
        started = _clock()
        try:
            answer = workload.run(op)
        except Exception:  # the round must go on; the traceback is the report
            error = traceback.format_exc(limit=6)
        elapsed = _clock() - started
        record = tracer.end_op() if tracer is not None else None
        if error is None:
            try:
                outcome = workload.check(op, answer)
            except Exception:
                outcome = Outcome(False, 0.0, 0, traceback.format_exc(limit=6))
        else:
            outcome = Outcome(False, 0.0, 0, error)
        result.recalls.append(outcome.recall)
        if not outcome.ok:
            result.failures.append(f"op {index} {op.cls}{op.args!r}: {outcome.detail}")
            continue
        if record is not None:
            # the op's wall time is its root span, so self times sum to it
            elapsed = record["end"] - record["start"]
            after = workload.counters()
            if workload.db.metrics_registry is not registry:
                before = {}  # the op reopened the database: counters restarted
            record.update(
                op=index,
                **{"class": op.cls},
                rows=outcome.rows,
                deltas={k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)},
            )
            result.traced.append(record)
        result.latencies.setdefault(op.cls, []).append(elapsed)
    return result


def _fresh_dir(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=out_dir)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path)
        for name in names
    )


def _pinned_digest(workload: Workload, digests_path: str) -> str | None:
    with open(digests_path) as handle:
        pinned = json.load(handle)
    size = "smoke" if workload.smoke else "full"
    return pinned.get(size, {}).get(str(workload.seed), {}).get(workload.name)


def execute(
    workload_cls: type[Workload],
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: str,
    import_s: float,
    digests_path: str,
) -> dict:
    """Run one workload; returns the run record (``render`` and
    ``result_line`` print it). A failed op raises nothing — the record
    carries it."""
    tracer = Tracer()
    started = _clock()
    workload = workload_cls(seed, smoke, tracer)
    inputs_s = _clock() - started
    digest = workload.digest()
    pinned = _pinned_digest(workload, digests_path)
    if pinned is not None and pinned != digest:
        raise SystemExit(
            f"input digest of {workload.name} seed {seed} is {digest}, pinned {pinned}: "
            f"the generated inputs changed, so the measured work changed"
        )
    print(f"workload {workload.name} seed={seed} {'smoke ' if smoke else ''}"
          f"inputs digest {digest} ({'pinned' if pinned else 'unpinned'})")
    print("  one process, one client, closed loop; BLAS threads=1; ExecutionContext "
          "default (workers=1); durability=fsync on a fresh directory")
    print("  sandbox: reads come from the OS page cache and fsync may be cheap — "
          "latencies are this sandbox's, not a device's")
    print(f"  sizes: {json.dumps(workload.sizes())}")

    workdirs: list[str] = []

    def set_up() -> float:
        workload.close()
        for stale in workdirs:
            shutil.rmtree(stale, ignore_errors=True)
        workdirs[:] = [_fresh_dir(out_dir)]
        begun = _clock()
        workload.setup(workdirs[0])
        return _clock() - begun

    try:
        setup_samples = [set_up() for _ in range(1 if trace else SETUP_REPEATS)]
        warm = run_round(workload, workload.ops(0)) if workload.warmup else Round()
        n_rounds = workload.rounds_for(seconds)
        if trace:
            n_rounds = max(1, n_rounds // 2)
        rounds: list[Round] = []
        timed_deltas: dict[str, float] = {}
        for index in range(1, n_rounds + 1):
            if workload.fresh_db_per_round and index > 1:
                set_up()
            before = workload.counters()
            registry = workload.db.metrics_registry
            rounds.append(run_round(workload, workload.ops(index)))
            if workload.db.metrics_registry is not registry:
                before = {}  # the round reopened the database: counters restarted
            for key, value in workload.counters().items():
                timed_deltas[key] = timed_deltas.get(key, 0) + value - before.get(key, 0)
        traced_round = None
        wrappers_left = 0
        if trace:
            if workload.fresh_db_per_round:
                set_up()
            wrappers = layers.install(tracer)
            try:
                traced_round = run_round(workload, workload.ops(n_rounds + 1), tracer)
            finally:
                wrappers.remove()
            wrappers_left = len(wrappers)
        every_round = [warm, *rounds] + ([traced_round] if traced_round else [])
        failures = [failure for entry in every_round for failure in entry.failures]
        # the end-state check counts as one more attempted op
        attempted = sum(entry.attempted for entry in every_round) + 1
        failures += workload.finish()
        workload.close()
        stored_bytes = _dir_bytes(workdirs[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
        for stale in workdirs:
            shutil.rmtree(stale, ignore_errors=True)

    latencies: dict[str, list[float]] = {}
    for entry in rounds:
        for cls, samples in entry.latencies.items():
            latencies.setdefault(cls, []).extend(samples)
    pooled = [sample for samples in latencies.values() for sample in samples]
    recalls = [value for entry in rounds for value in entry.recalls]
    p50 = percentile(pooled, 0.50)
    p95 = percentile(pooled, 0.95)
    placement = {}
    if not smoke:  # the smoke mix is too small to place a percentile
        for label, q in (("p50", 0.50), ("p95", 0.95)):
            cls, margin = class_placement(latencies, q)
            placement[label] = {"class": cls, "margin": margin}
            if margin < BOUNDARY_MARGIN:
                failures.append(
                    f"self-check: {label} sits {margin:.3f} from an op-class boundary "
                    f"(class {cls}); the mix must keep it >= {BOUNDARY_MARGIN} inside one class"
                )
    round_rates = [entry.ops_ok / entry.op_seconds for entry in rounds if entry.ops_ok]
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "digest": digest,
        "rounds": len(rounds),
        "timed_ops": len(pooled),
        "placement": placement,
        "attempted": attempted,
        "end_to_end": {
            "setup_s": import_s + statistics.median(setup_samples),
            "ops_per_s": statistics.median(round_rates) if round_rates else 0.0,
            "op_p50_ms": None if p50 is None else p50 * 1e3,
            "op_p95_ms": None if p95 is None else p95 * 1e3,
            "result_recall": statistics.fmean(recalls),
            "stored_bytes_per_user_byte": stored_bytes / workload.user_bytes(),
            "peak_rss_mb": peak_rss_mb,
        },
        "setup_samples_s": setup_samples,
        "import_s": import_s,
        "sizes": workload.sizes(),
    }
    per_layer = None
    if traced_round is not None:
        per_layer = layers.layer_metrics(traced_round.traced)
        per_layer.update(layers.class_p50_ms(latencies))
        per_layer.update(workload.layer_extras())
        untraced_round_s = statistics.median(entry.op_seconds for entry in rounds)
        per_layer["bench.inputs_s"] = inputs_s
        per_layer["bench.trace_overhead_share"] = (
            traced_round.op_seconds / untraced_round_s - 1.0 if untraced_round_s else 0.0
        )
        record["per_layer"] = per_layer
        record["per_class"] = _per_class(traced_round.traced)
        record["traced_round_s"] = traced_round.op_seconds
        record["wrappers_left_installed"] = wrappers_left
        record["trace_file"] = os.path.join(out_dir, f"trace-{workload.name}.json")
        with open(record["trace_file"], "w") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "clock": "time.perf_counter (s)",
                    "ops": [
                        {k: v for k, v in op.items() if k != "deltas"}
                        for op in traced_round.traced
                    ],
                },
                handle,
            )
    failures += workload.bypass_failures(timed_deltas, per_layer, record.get("per_class"))
    if per_layer is not None:
        per_layer["bench.failed_ops_share"] = min(1.0, len(failures) / attempted)
    record["failed"] = len(failures)
    record["failures"] = failures
    record["correct"] = not failures
    return record


def _per_class(traced_ops: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    """Per op class over the traced round: self seconds and calls per span
    name, and engine counter deltas."""
    table: dict[str, dict[str, dict[str, float]]] = {}
    for op in traced_ops:
        row = table.setdefault(op["class"], {"self_s": {}, "calls": {}, "deltas": {}})
        for span in op["spans"]:
            name = span["name"]
            row["self_s"][name] = row["self_s"].get(name, 0.0) + span["self_s"]
            row["calls"][name] = row["calls"].get(name, 0) + span["calls"]
        for key, value in op["deltas"].items():
            row["deltas"][key] = row["deltas"].get(key, 0) + value
    return table


def render(record: dict, spec: dict) -> list[str]:
    """The human-readable report: every metric by name with its unit
    (``spec`` is the parsed ``BENCHMARK.json``)."""
    lines = [
        f"  rounds timed: {record['rounds']}  timed ops: {record['timed_ops']}  "
        f"attempted (all rounds + end-state check): {record['attempted']}  "
        f"failed: {record['failed']}"
    ]
    for label in ("p50", "p95"):
        place = record["placement"].get(label)
        if place:
            lines.append(
                f"  {label} falls in op class {place['class']} "
                f"({place['margin']:.3f} of ops from the nearest class boundary)"
            )
    if not record["trace"]:
        lines.append("  end-to-end (tracing off):")
        for entry in spec["end_to_end"]:
            name, unit = entry["name"], entry["unit"]
            value = record["end_to_end"][name]
            shown = "n/a (sample too small for this percentile)" if value is None else f"{value:.6g}"
            note = f"  [n={record['timed_ops']}]" if name in ("op_p50_ms", "op_p95_ms") else ""
            lines.append(f"    {name:<28}{shown:>14} {unit}{note}")
    per_layer = record.get("per_layer")
    if per_layer is not None:
        overhead = per_layer["bench.trace_overhead_share"]
        lines.append(
            f"  traced round: {record['traced_round_s']:.3f} s of op wall time, "
            f"tracing overhead {overhead:+.1%}"
        )
        if overhead > TRACE_OVERHEAD_WARN:
            lines.append(
                "  WARNING: tracing overhead above "
                f"{TRACE_OVERHEAD_WARN:.0%} — the per-layer shares below are perturbed"
            )
        lines += layers.budget_table(per_layer, record["traced_round_s"])
        lines.append("  per-layer metrics:")
        for entry in spec["per_layer"]:
            value = per_layer[entry["name"]]
            if value:
                lines.append(f"    {entry['name']:<52}{value:>16.6g} {entry['unit']}")
        lines.append(f"  trace written to {record['trace_file']}")
    for failure in record["failures"]:
        lines.append(f"  FAILED: {failure}")
    return lines


def result_line(record: dict, spec: dict) -> str:
    """The contract's last line of standard output."""
    if record["trace"]:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        values = record["per_layer"]
    else:
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        values = record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
    )

#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --seed 7 [--workload NAME] [--seconds 10]
                                  [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --compare BASE NEW

Without ``--workload`` the four workloads run one after the other, each
in its own process (so ``peak_rss_mb`` is the workload's own). With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` a shorter untraced section is followed by one traced round
that yields the per-layer budget and ``trace-<workload>.json``. Every run
appends its record to ``<out>/runs.jsonl``; ``--compare`` reads two such
files (or directories) and judges each (workload, metric) pair against
the bounds in ``BENCHMARK.json``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import os

# before numpy loads its BLAS: one client means one compute thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_PATH = os.path.join(HERE, "input_digests.json")
DEFAULT_OUT = os.path.join(ROOT, "benchmarks", "results", "e2e")
WORKLOADS = ("etl_ingest", "pixel_queries", "metadata_analytics", "similarity_mixed")


def _load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _import_engine() -> float:
    """Put the engine and the harness on ``sys.path`` and import them;
    returns the seconds it took (part of ``setup_s``: work moved to import
    time must show)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"no engine source at {source}: nothing to benchmark")
    sys.path[:0] = [HERE, source]
    started = time.perf_counter()
    import harness.runner  # noqa: F401  (pulls in numpy and every engine layer)
    import harness.layers  # noqa: F401

    return time.perf_counter() - started


def run_one(args: argparse.Namespace) -> int:
    import_s = _import_engine()
    from harness import runner

    spec = _load_spec()
    record = runner.execute(
        runner.workload_classes()[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=args.out,
        import_s=import_s,
        digests_path=DIGESTS_PATH,
    )
    print("\n".join(runner.render(record, spec)))
    with open(os.path.join(args.out, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(runner.result_line(record, spec), flush=True)
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process; the children print their own
    reports and result lines."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out,
        ] + (["--smoke"] if args.smoke else [])
        status |= subprocess.run(command, check=False).returncode
    return status


# -- compare ------------------------------------------------------------------


def _read_runs(path: str) -> dict[str, list[dict]]:
    """Untraced, full-size run records by workload from a ``runs.jsonl``
    file (or the directory holding one)."""
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs: dict[str, list[dict]] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"] and not record["smoke"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(base_path: str, new_path: str) -> int:
    sys.path.insert(0, HERE)
    from harness.stats import verdict

    spec = _load_spec()
    base_runs, new_runs = _read_runs(base_path), _read_runs(new_path)
    header = (
        f"{'workload':<20}{'metric':<28}{'base':>12}{'new':>12}"
        f"{'new/base':>10}{'bound':>8}  verdict (runs base/new)"
    )
    print(header)
    worst = 0
    for workload in WORKLOADS:
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            print(f"{workload:<20}missing from {'base' if not base else 'new'}: unresolved")
            worst = 1
            continue
        rows = [
            (entry["name"], entry["better"], entry["bound"],
             [run["end_to_end"][entry["name"]] for run in base],
             [run["end_to_end"][entry["name"]] for run in new])
            for entry in spec["end_to_end"]
        ]
        for name, better, bound, base_values, new_values in rows:
            outcome, ratio = verdict(base_values, new_values, better=better, bound=bound)
            print(
                f"{workload:<20}{name:<28}{statistics.median(base_values):>12.5g}"
                f"{statistics.median(new_values):>12.5g}{ratio:>10.4f}{bound:>8.2f}  "
                f"{outcome} ({len(base_values)}/{len(new_values)})"
            )
            if outcome == "worse":
                worst = 1
        # failed ops have no noise to allow for: any increase is a regression
        base_failed = max(run["failed"] / run["attempted"] for run in base)
        new_failed = max(run["failed"] / run["attempted"] for run in new)
        outcome = "worse" if new_failed > base_failed else "same"
        print(
            f"{workload:<20}{'failed_ops_share (max)':<28}{base_failed:>12.5g}"
            f"{new_failed:>12.5g}{'':>10}{'any':>8}  {outcome} ({len(base)}/{len(new)})"
        )
        if outcome == "worse":
            worst = 1
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for work files, runs.jsonl and trace-*.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: the harness self-test size")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(_load_spec()["run_seconds"])
    args.out = os.path.abspath(args.out)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

"""Runtime instrumentation: per-operator counters, Q-error, plan quality.

The planner (PRs 1-5) estimates cardinalities but never checks itself.
This module is the feedback half of that loop:

* :class:`OperatorProfile` — one physical operator's runtime counters
  (rows in/out, batches, wall time, cache hits, index probes), updated
  under a per-entry lock so parallel plans (worker pools, prefetch
  threads) never lose an update;
* :class:`RuntimeProfile` — one executed plan's profile: the operator
  entries in lowering order plus total wall time, threaded through
  :class:`~repro.core.executor.ExecutionContext` and rendered by
  ``explain(analyze=True)`` as estimated vs actual rows with the
  per-operator Q-error;
* :func:`q_error` — the standard cardinality-estimation scoreboard:
  ``max(est/actual, actual/est)`` with both sides floored at one row;
* :class:`PlanQualityLog` — the catalog-persisted history keyed by
  *parameterized* plan fingerprint, plus per-predicate observed
  selectivities that :meth:`~repro.core.optimizer.cardinality.
  CardinalityEstimator.selectivity` consults before the histogram/MCV
  path — repeated query shapes correct the independence assumption's
  worst misses.

Everything here is storage- and operator-agnostic (pure stdlib), so the
executor, the lowering, and the catalog can all import it freely.
"""

from __future__ import annotations

import threading
import time

#: bounded history: profiled runs retained per plan fingerprint
PLAN_HISTORY = 32
#: distinct plan fingerprints retained (oldest evicted first)
MAX_PLANS = 256
#: observed-selectivity samples retained per (collection, predicate)
PREDICATE_HISTORY = 32
#: distinct (collection, predicate) keys retained
MAX_PREDICATES = 1024


def q_error(est: float, actual: float) -> float:
    """The Q-error of one cardinality estimate: ``max(est/actual,
    actual/est)`` with both sides floored at one row, so empty results
    and zero estimates stay finite (1 row is the resolution limit of
    "how wrong can a plan decision get")."""
    e = max(float(est), 1.0)
    a = max(float(actual), 1.0)
    return max(e / a, a / e)


class OperatorProfile:
    """Runtime counters of one physical operator in one executed plan.

    Output rows/batches/time are counted by the operator itself once
    :func:`~repro.core.operators.instrument` points it at this entry;
    input rows come either from the child entries (``children``) or, for
    leaf scan groups, from the storage scan instrumented ``as_input``.
    All mutation happens under ``_lock`` — parallel plans drive different
    operators from different threads (prefetch producers, map workers),
    and the totals must be exact, not approximately right.
    """

    __slots__ = (
        "label",
        "est_rows",
        "children",
        "rows_out",
        "batches",
        "seconds",
        "cache_hits",
        "cache_misses",
        "index_probes",
        "blocks_skipped",
        "blocks_scanned",
        "est_blocks_skipped",
        "est_blocks_total",
        "ann_hops",
        "ann_candidates",
        "est_candidates",
        "exhausted",
        "feedback",
        "_rows_in",
        "_lock",
    )

    def __init__(
        self,
        label: str,
        *,
        est_rows: float | None = None,
        children: "list[OperatorProfile] | None" = None,
    ) -> None:
        self.label = label
        self.est_rows = est_rows
        self.children: list[OperatorProfile] = list(children or [])
        self.rows_out = 0
        self.batches = 0
        self.seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.index_probes = 0
        #: zone-map actuals, reported by the executing metadata scan —
        #: the planner's skip *estimate* rides in ``est_blocks_skipped``
        #: so the two can be graded against each other like a cardinality
        self.blocks_skipped = 0
        self.blocks_scanned = 0
        self.est_blocks_skipped: float | None = None
        self.est_blocks_total: float | None = None
        #: ANN probe actuals (graph hops / distance computations of the
        #: executing HNSW search) next to the cost model's candidate
        #: *estimate*, graded like a cardinality
        self.ann_hops = 0
        self.ann_candidates = 0
        self.est_candidates: float | None = None
        #: True once the operator's stream ran dry — only then is
        #: ``rows_out`` the full result cardinality (a limit above may
        #: stop the stream early, which must not be logged as the
        #: predicate's true selectivity)
        self.exhausted = False
        #: (collection, predicate signature key, base row count,
        #: collection version) for scan groups whose actual selectivity
        #: should feed the PlanQualityLog; the version dates each
        #: observation so corrections can expire once the collection
        #: mutates past them
        self.feedback: tuple[str, str, int, int] | None = None
        self._rows_in = 0
        self._lock = threading.Lock()

    # -- counting (called from whichever thread drives the operator) ------

    def add_batch(self, rows: int, seconds: float) -> None:
        with self._lock:
            self.rows_out += rows
            self.batches += 1
            self.seconds += seconds

    def add_rows(self, rows: int, seconds: float) -> None:
        with self._lock:
            self.rows_out += rows
            self.seconds += seconds

    def add_time(self, seconds: float) -> None:
        with self._lock:
            self.seconds += seconds

    def add_input(self, rows: int, *, index: bool = False) -> None:
        with self._lock:
            self._rows_in += rows
            if index:
                self.index_probes += rows

    def add_cache(self, hits: int, misses: int) -> None:
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses

    def add_blocks(self, skipped: int, scanned: int) -> None:
        with self._lock:
            self.blocks_skipped += skipped
            self.blocks_scanned += scanned

    def set_block_estimate(self, skipped: float, total: float) -> None:
        self.est_blocks_skipped = float(skipped)
        self.est_blocks_total = float(total)

    def set_candidate_estimate(self, candidates: float) -> None:
        self.est_candidates = float(candidates)

    def add_ann(self, stats: dict) -> None:
        with self._lock:
            self.ann_hops += int(stats.get("hops", 0))
            self.ann_candidates += int(stats.get("candidates", 0))

    def mark_exhausted(self) -> None:
        with self._lock:
            self.exhausted = True

    def set_feedback(
        self, collection: str, expr_key: str, base_rows: int, version: int = 0
    ) -> None:
        self.feedback = (collection, expr_key, base_rows, version)

    # -- derived ----------------------------------------------------------

    @property
    def rows_in(self) -> int:
        """Input rows: the child entries' outputs, or (for leaf scan
        groups) the rows the storage layer actually produced."""
        if self.children:
            return sum(child.rows_out for child in self.children)
        return self._rows_in

    @property
    def q(self) -> float | None:
        """Q-error of this operator's row estimate, None when the
        lowering recorded no estimate for it."""
        if self.est_rows is None:
            return None
        return q_error(self.est_rows, self.rows_out)

    @property
    def candidates_q(self) -> float | None:
        """Q-error of the ANN candidate estimate (cost-model visited
        count vs distances actually computed), None when the planner made
        no candidate estimate for this operator."""
        if self.est_candidates is None:
            return None
        return q_error(self.est_candidates, self.ann_candidates)

    @property
    def blocks_q(self) -> float | None:
        """Q-error of the zone-map skip estimate, graded like a
        cardinality (floored at one block), None when the planner made
        no skip estimate for this operator."""
        if self.est_blocks_skipped is None:
            return None
        return q_error(self.est_blocks_skipped, self.blocks_skipped)

    def describe(self) -> str:
        est = "?" if self.est_rows is None else f"~{self.est_rows:.0f}"
        q = self.q
        q_part = "" if q is None else f", q-error {q:.2f}"
        parts = [
            f"{self.label}: est {est} rows, actual {self.rows_out} rows"
            f"{q_part}",
            f"in {self.rows_in}",
            f"{self.batches} batches",
            f"{self.seconds * 1000.0:.1f} ms",
        ]
        if self.cache_hits or self.cache_misses:
            parts.append(
                f"cache {self.cache_hits} hits / {self.cache_misses} misses"
            )
        if self.index_probes:
            parts.append(f"index probes {self.index_probes}")
        if self.est_candidates is not None or self.ann_candidates:
            segment = (
                f"ann {self.ann_candidates} candidates / "
                f"{self.ann_hops} hops"
            )
            if self.est_candidates is not None:
                segment += (
                    f" (est {self.est_candidates:.0f}, "
                    f"q-error {self.candidates_q:.2f})"
                )
            parts.append(segment)
        if (
            self.blocks_skipped
            or self.blocks_scanned
            or self.est_blocks_skipped is not None
        ):
            total = self.blocks_skipped + self.blocks_scanned
            segment = f"zone-map {self.blocks_skipped}/{total} blocks skipped"
            if self.est_blocks_skipped is not None:
                segment += (
                    f" (est {self.est_blocks_skipped:.0f}, "
                    f"q-error {self.blocks_q:.2f})"
                )
            parts.append(segment)
        return " | ".join(parts)


class RuntimeProfile:
    """The runtime profile of one executed plan.

    Lowering registers one :class:`OperatorProfile` per physical operator
    (bottom-up, so child entries precede their parents); execution fills
    the counters; :meth:`finish` stamps total wall time. Registration is
    locked for symmetry, though lowering itself is single-threaded — the
    *counter* locks are the ones parallel execution actually contends.
    """

    def __init__(self) -> None:
        self.entries: list[OperatorProfile] = []
        self.seconds: float | None = None
        self._lock = threading.Lock()
        self._start = time.perf_counter()

    def operator(
        self,
        label: str,
        *,
        est_rows: float | None = None,
        children: "list[OperatorProfile] | None" = None,
    ) -> OperatorProfile:
        entry = OperatorProfile(label, est_rows=est_rows, children=children)
        with self._lock:
            self.entries.append(entry)
        return entry

    def finish(self) -> None:
        self.seconds = time.perf_counter() - self._start

    def roots(self) -> list[OperatorProfile]:
        """Entries no other entry lists as a child (plan roots)."""
        child_ids = {
            id(child) for entry in self.entries for child in entry.children
        }
        return [entry for entry in self.entries if id(entry) not in child_ids]

    def q_errors(self) -> list[float]:
        """Every per-operator Q-error with a recorded estimate."""
        return [entry.q for entry in self.entries if entry.q is not None]

    def block_q_errors(self) -> list[float]:
        """Every zone-map skip-estimate Q-error with a recorded estimate."""
        return [
            entry.blocks_q
            for entry in self.entries
            if entry.blocks_q is not None
        ]

    def lines(self) -> list[str]:
        """Tree-rendered per-operator lines, outermost operator first."""
        out: list[str] = []

        def render(entry: OperatorProfile, depth: int) -> None:
            out.append("  " * depth + entry.describe())
            for child in entry.children:
                render(child, depth + 1)

        for root in reversed(self.roots()):  # registration is bottom-up
            render(root, 0)
        return out

    def __str__(self) -> str:
        total = "" if self.seconds is None else f" ({self.seconds * 1000.0:.1f} ms)"
        return "\n".join([f"runtime profile{total}:"] + [
            f"  {line}" for line in self.lines()
        ])


class PlanQualityLog:
    """Catalog-persisted estimate-vs-actual history and its feedback.

    ``record`` folds one finished :class:`RuntimeProfile` in under two
    keys: the *parameterized* plan fingerprint (literal constants
    stripped, so ``label = 'car'`` and ``label = 'bus'`` share one shape
    history), and — for fully-drained scan groups — the exact
    ``(collection, predicate signature)`` with the observed selectivity.
    ``correction`` serves the median observed selectivity back to the
    optimizer, which beats any independence-assumption product on a
    repeated predicate. Everything is bounded (history per key, key
    count) and serializes to plain lists for the catalog's kvstore.
    """

    def __init__(self) -> None:
        #: parameterized fingerprint -> runs; one run is a list of
        #: [label, est_rows, actual_rows] triples in lowering order
        self._plans: dict[str, list[list]] = {}
        #: (collection, predicate signature key) -> [est_sel, actual_sel,
        #: collection version] observations, oldest first (entries loaded
        #: from pre-version logs have only the two selectivities and read
        #: as version 0)
        self._predicates: dict[tuple[str, str], list[list[float]]] = {}
        self.dirty = False
        self._lock = threading.Lock()

    def record(self, fingerprint: str, profile: RuntimeProfile) -> None:
        """Fold one executed plan's profile into the log."""
        run = [
            [entry.label, float(entry.est_rows), float(entry.rows_out)]
            for entry in profile.entries
            if entry.est_rows is not None
        ]
        with self._lock:
            if fingerprint in self._plans:
                # refresh recency: dict order is the eviction order, so
                # re-inserting makes eviction drop the *least-recently-
                # updated* fingerprint — a hot recurring query can no
                # longer be evicted by a burst of one-off queries
                self._plans[fingerprint] = self._plans.pop(fingerprint)
            elif len(self._plans) >= MAX_PLANS:
                self._plans.pop(next(iter(self._plans)))
            history = self._plans.setdefault(fingerprint, [])
            history.append(run)
            del history[:-PLAN_HISTORY]
            for entry in profile.entries:
                if entry.feedback is None or not entry.exhausted:
                    continue
                collection, expr_key, base_rows = entry.feedback[:3]
                version = entry.feedback[3] if len(entry.feedback) > 3 else 0
                if base_rows <= 0:
                    continue
                key = (collection, expr_key)
                if key in self._predicates:
                    # same least-recently-updated discipline as plans
                    self._predicates[key] = self._predicates.pop(key)
                elif len(self._predicates) >= MAX_PREDICATES:
                    self._predicates.pop(next(iter(self._predicates)))
                observations = self._predicates.setdefault(key, [])
                observations.append(
                    [
                        float(entry.est_rows or 0.0) / base_rows,
                        float(entry.rows_out) / base_rows,
                        float(version),
                    ]
                )
                del observations[:-PREDICATE_HISTORY]
            self.dirty = True

    def correction(
        self,
        collection: str,
        expr_key: str,
        *,
        current_version: int | None = None,
        staleness: int | None = None,
    ) -> float | None:
        """Median observed selectivity of a predicate over a collection,
        or None when this exact shape was never profiled to completion.

        With ``current_version`` and ``staleness`` set, observations
        recorded more than ``staleness`` collection mutations ago are
        considered expired; when **every** observation has expired, the
        correction abstains (returns None) so fresher statistics decide.
        Recent observations keep the whole history alive — the median
        still pools old runs, since the predicate evidently still holds.
        """
        with self._lock:
            observations = self._predicates.get((collection, expr_key))
            if not observations:
                return None
            if current_version is not None and staleness is not None:
                if all(
                    current_version - (obs[2] if len(obs) > 2 else 0)
                    > staleness
                    for obs in observations
                ):
                    return None
            actuals = sorted(obs[1] for obs in observations)
            return actuals[len(actuals) // 2]

    def has_predicate_history(self, collection: str, expr_key: str) -> bool:
        """Whether this predicate shape was ever profiled to completion
        (distinguishes a :meth:`correction` abstention from no history)."""
        with self._lock:
            return bool(self._predicates.get((collection, expr_key)))

    def history(self, fingerprint: str) -> list[list]:
        """Recorded runs for one parameterized plan fingerprint."""
        with self._lock:
            return [list(run) for run in self._plans.get(fingerprint, [])]

    def plan_q_errors(self) -> list[float]:
        """Q-errors of every recorded operator estimate, across plans."""
        with self._lock:
            return [
                q_error(est, actual)
                for runs in self._plans.values()
                for run in runs
                for _, est, actual in run
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    # -- persistence ------------------------------------------------------

    def to_value(self) -> dict:
        with self._lock:
            return {
                "plans": [
                    [fingerprint, [list(map(list, run)) for run in runs]]
                    for fingerprint, runs in self._plans.items()
                ],
                "predicates": [
                    [collection, expr_key, [list(obs) for obs in observations]]
                    for (collection, expr_key), observations
                    in self._predicates.items()
                ],
            }

    @classmethod
    def from_value(cls, value: dict) -> "PlanQualityLog":
        log = cls()
        log._plans = {
            fingerprint: [list(run) for run in runs]
            for fingerprint, runs in value.get("plans", [])
        }
        log._predicates = {
            (collection, expr_key): [list(obs) for obs in observations]
            for collection, expr_key, observations in value.get("predicates", [])
        }
        return log

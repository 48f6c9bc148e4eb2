"""Per-collection cardinality statistics that drive the planner.

The paper's optimizer needs "accurately modeling the relationship between
input relation size and operator cost" — but relation size after a filter
is a *cardinality estimation* problem, and the seed planner guessed with
fixed selectivity constants. This module is the statistics layer systems
like Deep Lake and VDMS keep next to the visual data:

* :class:`AttributeStatistics` — one metadata attribute's profile: row
  count, null count, distinct-count estimate (KMV sketch), min/max, an
  equi-depth histogram for numeric values, per-value counts (the
  most-common-values list) for categorical values, and the observed
  dimensionality for vector-valued attributes;
* :class:`CollectionStatistics` — per-collection roll-up (row count, the
  patch-data embedding dimensionality, one ``AttributeStatistics`` per
  metadata key) with predicate-level selectivity estimation over the
  expression DSL;
* :class:`StatisticsProvider` — the protocol the optimizer consumes
  (:class:`~repro.core.catalog.Catalog` implements it).

Statistics are collected **incrementally** at
:meth:`~repro.core.catalog.MaterializedCollection.add` time and persisted
through the catalog's snapshot store — a full snapshot as the base, then
per commit only the rows observed since (replayed on load through the
same update path) — so they survive sessions at a cost per commit that
does not grow with the collection. Every update is deterministic in
insertion order, which makes an incremental build, a base + deltas
reload, and a from-scratch rebuild over the same rows bit-identical —
the property the consistency tests pin down.

Estimates carry their *source* so ``explain()`` can say which statistic
backed each decision: ``histogram`` (equi-depth interpolation),
``mcv`` (tracked per-value counts), ``distinct`` (distinct-count
uniformity assumption), or ``fallback-constant`` (no statistics — the
seed planner's fixed guesses).
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left, insort
from collections import abc as _abc
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.core.expressions import (
    AlwaysTrue,
    And,
    Between,
    Comparison,
    Expr,
    Not,
    Or,
)
from repro.core.patch import LINEAGE_KEY, Patch, _normalize_meta
from repro.storage.kvstore import serialization

#: buckets in the equi-depth histogram for numeric attributes
HISTOGRAM_BUCKETS = 32
#: numeric values retained verbatim before the histogram freezes; until
#: then estimates are computed from an equi-depth histogram over the full
#: sample, after that new values increment frozen bucket counts
MAX_NUMERIC_SAMPLE = 4096
#: distinct values tracked exactly per attribute (the MCV dictionary);
#: later distinct values pool into an "untracked" count estimated via the
#: distinct sketch
MAX_TRACKED_VALUES = 256
#: size of the KMV (k-minimum-values) distinct-count sketch
KMV_SIZE = 128
#: patch-data vectors sampled per collection (first-K — deterministic in
#: insertion order, so incremental collection stays bit-identical to a
#: rebuild) for sampled-distance join-selectivity estimation
DATA_SAMPLE_SIZE = 32
#: coordinates kept per sampled vector; higher-dimensional vectors are
#: subsampled on a fixed stride and distances rescaled by
#: ``sqrt(dim / kept)``
DATA_SAMPLE_MAX_DIM = 256
#: sampled vectors each side needs before the pairwise match fraction is
#: trusted over the geometric-decay constant
MIN_SAMPLE_VECTORS = 8

SOURCE_HISTOGRAM = "histogram"
SOURCE_MCV = "mcv"
SOURCE_DISTINCT = "distinct"
SOURCE_FALLBACK = "fallback-constant"
SOURCE_EXACT = "row-count"
SOURCE_FEEDBACK = "feedback"

#: fixed selectivity guesses used when no statistics exist (the seed
#: planner's constants; ``!=`` gets its own complement rather than being
#: lumped in with ranges)
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
NEQ_SELECTIVITY = 1.0 - EQ_SELECTIVITY

_HASH_SPACE = float(1 << 64)


@dataclass(frozen=True)
class Estimate:
    """A selectivity estimate plus the statistic that produced it."""

    selectivity: float
    source: str

    def rows(self, n: int) -> float:
        return self.selectivity * n


@runtime_checkable
class StatisticsProvider(Protocol):
    """Anything that can hand the optimizer per-collection statistics."""

    def statistics_for(
        self, collection_name: str
    ) -> "CollectionStatistics | None":
        """Statistics for a collection, or None when none were collected."""
        ...  # pragma: no cover


def _hash64(kind: str, payload: bytes) -> int:
    digest = hashlib.blake2b(
        kind.encode() + b"\x00" + payload, digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _plain(value: Any) -> Any:
    """Normalize a value for counting/serialization: numpy scalars to
    Python, numerics to float (5 and 5.0 are one key), tuples recursively."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    return value


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


class AttributeStatistics:
    """Incremental profile of one metadata attribute.

    ``count`` is non-null observations; selectivity estimates are
    fractions of those (the collection scales by attribute presence).
    """

    def __init__(self) -> None:
        self.count = 0
        self.null_count = 0
        self.min_value: Any = None
        self.max_value: Any = None
        # numeric sample / frozen equi-depth histogram
        self.numeric_count = 0
        self._numeric_values: list[float] = []
        self.bucket_edges: list[float] | None = None
        self.bucket_counts: list[int] | None = None
        self._hist_cache: tuple[list[float], list[int]] | None = None
        # categorical most-common-values tracking
        self.value_counts: dict[Any, int] = {}
        self.tracked_full = False
        self.untracked_count = 0
        # vector-valued observations (embeddings, bboxes, feature arrays)
        self.vector_count = 0
        self._dim_total = 0
        # KMV distinct sketch: the KMV_SIZE smallest 64-bit value hashes
        self._kmv: list[int] = []
        self._kmv_full = False

    # -- collection -----------------------------------------------------

    def observe(self, value: Any) -> None:
        if value is None:
            self.null_count += 1
            return
        self.count += 1
        if _is_numeric(value):
            v = float(value)
            if math.isnan(v):
                return
            self._kmv_add(_hash64("num", struct.pack("<d", v)))
            self._observe_numeric(v)
            self._count_value(v)
            self._update_minmax(v)
            return
        if isinstance(value, np.ndarray) and value.size:
            self._observe_vector(value)
            return
        if isinstance(value, (list, tuple)) and value and all(
            _is_numeric(item) for item in value
        ):
            self._observe_vector(np.asarray(value, dtype=np.float64))
            return
        plain = _plain(value)
        try:
            self._kmv_add(_hash64("obj", repr(plain).encode()))
            self._count_value(plain)
        except TypeError:  # unhashable oddballs: counted, never estimated
            return
        self._update_minmax(plain)

    def _observe_vector(self, vector: np.ndarray) -> None:
        flat = np.asarray(vector, dtype=np.float64).ravel()
        self.vector_count += 1
        self._dim_total += int(flat.size)
        self._kmv_add(_hash64("vec", flat.tobytes()))

    def _observe_numeric(self, v: float) -> None:
        self.numeric_count += 1
        if self.bucket_edges is not None:  # frozen: bump the right bucket
            edges, counts = self.bucket_edges, self.bucket_counts
            assert counts is not None
            if v < edges[0]:
                edges[0] = v
                counts[0] += 1
            elif v > edges[-1]:
                edges[-1] = v
                counts[-1] += 1
            else:
                counts[bisect_left(edges, v, 1, len(edges) - 1) - 1] += 1
            return
        self._numeric_values.append(v)
        self._hist_cache = None
        if len(self._numeric_values) > MAX_NUMERIC_SAMPLE:
            self.bucket_edges, self.bucket_counts = _equi_depth(
                self._numeric_values
            )
            self._numeric_values = []

    def _count_value(self, plain: Any) -> None:
        if plain in self.value_counts:
            self.value_counts[plain] += 1
        elif not self.tracked_full:
            self.value_counts[plain] = 1
            if len(self.value_counts) >= MAX_TRACKED_VALUES:
                self.tracked_full = True
        else:
            self.untracked_count += 1

    def _update_minmax(self, value: Any) -> None:
        try:
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value
        except TypeError:  # cross-type comparisons: keep the first type
            pass

    def _kmv_add(self, h: int) -> None:
        if self._kmv_full and h >= self._kmv[-1]:
            return
        pos = bisect_left(self._kmv, h)
        if pos < len(self._kmv) and self._kmv[pos] == h:
            return
        insort(self._kmv, h)
        if len(self._kmv) > KMV_SIZE:
            self._kmv.pop()
        self._kmv_full = len(self._kmv) == KMV_SIZE

    # -- derived statistics --------------------------------------------

    @property
    def dim(self) -> int | None:
        """Mean observed dimensionality of vector values, if any."""
        if not self.vector_count:
            return None
        return max(int(round(self._dim_total / self.vector_count)), 1)

    def distinct_estimate(self) -> float:
        """Estimated number of distinct non-null values (KMV sketch)."""
        if not self._kmv:
            return 0.0
        if not self._kmv_full:
            return float(len(self._kmv))
        return (KMV_SIZE - 1) * _HASH_SPACE / float(self._kmv[-1])

    def most_common(self, k: int = 10) -> list[tuple[Any, int]]:
        """The MCV list: up to ``k`` tracked values by descending count."""
        ranked = sorted(
            self.value_counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        return ranked[:k]

    def _histogram(self) -> tuple[list[float], list[int]] | None:
        if self.bucket_edges is not None:
            assert self.bucket_counts is not None
            return self.bucket_edges, self.bucket_counts
        if not self._numeric_values:
            return None
        if self._hist_cache is None:
            self._hist_cache = _equi_depth(self._numeric_values)
        return self._hist_cache

    def _all_tracked(self) -> bool:
        """True when every non-null observation lives in value_counts."""
        return (
            not self.tracked_full
            and self.vector_count == 0
            and sum(self.value_counts.values()) == self.count
        )

    # -- estimation ------------------------------------------------------

    def estimate_eq(self, value: Any) -> Estimate | None:
        """Fraction of non-null observations equal to ``value``."""
        if self.count == 0:
            return None
        plain = _plain(value)
        try:
            tracked = plain in self.value_counts
        except TypeError:
            return None
        if tracked:
            return Estimate(self.value_counts[plain] / self.count, SOURCE_MCV)
        if self.tracked_full:
            # uniformity over the distinct values we stopped tracking
            untracked_distinct = max(
                self.distinct_estimate() - len(self.value_counts), 1.0
            )
            return Estimate(
                self.untracked_count / self.count / untracked_distinct,
                SOURCE_DISTINCT,
            )
        if self._all_tracked():
            # we have an exact value dictionary and this value is absent
            return Estimate(0.0, SOURCE_MCV)
        return None

    def estimate_range(self, lo: Any, hi: Any) -> Estimate | None:
        """Fraction of non-null observations with ``lo <= value <= hi``
        (either bound may be None for open)."""
        if self.count == 0:
            return None
        histogram = self._histogram()
        if histogram is not None and _is_boundish(lo) and _is_boundish(hi):
            fraction = _hist_fraction(*histogram, lo, hi)
            return Estimate(
                fraction * self.numeric_count / self.count, SOURCE_HISTOGRAM
            )
        if self._all_tracked():
            matching = 0
            for value, n in self.value_counts.items():
                try:
                    if (lo is None or value >= lo) and (hi is None or value <= hi):
                        matching += n
                except TypeError:
                    return None
            return Estimate(matching / self.count, SOURCE_MCV)
        return None

    def estimate_cmp(self, op: str, value: Any) -> Estimate | None:
        """Estimate one comparison operator against a constant."""
        if op == "==":
            return self.estimate_eq(value)
        if op == "!=":
            eq = self.estimate_eq(value)
            if eq is None:
                return None
            return Estimate(1.0 - eq.selectivity, eq.source)
        if op in ("<", "<="):
            estimate = self.estimate_range(None, value)
            return estimate if op == "<=" else self._strict(estimate, value)
        if op in (">", ">="):
            estimate = self.estimate_range(value, None)
            return estimate if op == ">=" else self._strict(estimate, value)
        if op == "in":
            # sized containers only: a string operand means substring
            # membership (chars are not list members), and list() would
            # consume a one-shot iterator the evaluator still needs
            if isinstance(value, (str, bytes)) or not (
                isinstance(value, _abc.Sized)
                and isinstance(value, (_abc.Container, _abc.Iterable))
            ):
                return None
            items = list(value)
            total, sources = 0.0, []
            for item in items:
                eq = self.estimate_eq(item)
                if eq is None:
                    return None
                total += eq.selectivity
                sources.append(eq.source)
            return Estimate(min(total, 1.0), _combine_sources(sources))
        return None  # contains / opaque ops

    def _strict(self, estimate: Estimate | None, bound: Any) -> Estimate | None:
        """Tighten an inclusive range estimate for a strict bound by
        subtracting the boundary value's own mass when it is tracked."""
        if estimate is None:
            return None
        eq = self.estimate_eq(bound)
        if eq is not None and eq.source == SOURCE_MCV:
            return Estimate(
                max(estimate.selectivity - eq.selectivity, 0.0), estimate.source
            )
        return estimate

    # -- persistence -----------------------------------------------------

    def to_value(self) -> dict:
        """A kvstore-serializable snapshot. The long numeric runs (the
        retained sample, the KMV hashes) travel as ndarrays — one
        serializer value each instead of a tagged scalar per element;
        ``from_value`` restores the same Python lists."""
        return {
            "count": self.count,
            "null_count": self.null_count,
            "min": _plain(self.min_value) if self.min_value is not None else None,
            "max": _plain(self.max_value) if self.max_value is not None else None,
            "numeric_count": self.numeric_count,
            "values": np.array(self._numeric_values, dtype=np.float64)
            if self.bucket_edges is None
            else None,
            "edges": list(self.bucket_edges) if self.bucket_edges else None,
            "buckets": list(self.bucket_counts) if self.bucket_counts else None,
            "value_counts": [
                [key, n] for key, n in self.value_counts.items()
            ],
            "tracked_full": self.tracked_full,
            "untracked_count": self.untracked_count,
            "vector_count": self.vector_count,
            "dim_total": self._dim_total,
            "kmv": np.array(self._kmv, dtype=np.uint64),
        }

    @classmethod
    def from_value(cls, value: dict) -> "AttributeStatistics":
        stats = cls()
        stats.count = value["count"]
        stats.null_count = value["null_count"]
        stats.min_value = value["min"]
        stats.max_value = value["max"]
        stats.numeric_count = value["numeric_count"]
        values = value["values"]
        stats._numeric_values = [] if values is None else values.tolist()
        stats.bucket_edges = list(value["edges"]) if value["edges"] else None
        stats.bucket_counts = list(value["buckets"]) if value["buckets"] else None
        stats.value_counts = {
            _tuplify(key): n for key, n in value["value_counts"]
        }
        stats.tracked_full = value["tracked_full"]
        stats.untracked_count = value["untracked_count"]
        stats.vector_count = value["vector_count"]
        stats._dim_total = value["dim_total"]
        stats._kmv = value["kmv"].tolist()
        stats._kmv_full = len(stats._kmv) == KMV_SIZE
        return stats


class CollectionStatistics:
    """Roll-up of one materialized collection's statistics."""

    def __init__(self) -> None:
        self.row_count = 0
        self.attrs: dict[str, AttributeStatistics] = {}
        # patch.data profile: the embedding dimensionality similarity
        # joins over default features actually see
        self.data_count = 0
        self._data_dim_total = 0
        # first-K patch-data vectors (original dim, possibly-subsampled
        # coordinates) for sampled pairwise-distance join estimation
        self._data_sample: list[tuple[int, np.ndarray]] = []
        #: mutations since the collection's last full materialization or
        #: statistics rebuild — the catalog stamps this when it serves the
        #: snapshot (it is bookkeeping about the *collection*, not part of
        #: the statistical profile, so it stays out of ``to_value``)
        self.staleness = 0
        #: serialized rows observed since the last persist (the snapshot
        #: store's delta); ``None`` while this object continues no
        #: persisted state — a fresh build or rebuild pays no row log
        self._pending: list[bytes] | None = None

    # -- collection -----------------------------------------------------

    def observe(self, patch: Patch) -> None:
        """Fold one materialized patch into the statistics."""
        size = int(patch.data.size)
        sample = None
        if size and len(self._data_sample) < DATA_SAMPLE_SIZE:
            flat = np.asarray(patch.data, dtype=np.float64).ravel()
            sample = flat
            if size > DATA_SAMPLE_MAX_DIM:
                stride = np.linspace(0, size - 1, DATA_SAMPLE_MAX_DIM).astype(
                    np.int64
                )
                sample = flat[stride]
            sample = sample.copy()
        metadata = _normalize_meta(patch.metadata)
        metadata.pop(LINEAGE_KEY, None)
        self._fold(size, sample, metadata)
        if self._pending is not None:
            # serialized now, like the patch record itself: a caller
            # mutating the patch after ``add`` cannot change the delta
            self._pending.append(
                serialization.dumps([size, sample, metadata], compress_arrays=False)
            )

    def _fold(self, size: int, sample: np.ndarray | None, metadata: dict) -> None:
        """The one update path: live observation and delta replay both
        land here, so state folded from base + deltas is bit-identical
        to the state that was in memory (and to a from-scratch rebuild)."""
        self.row_count += 1
        if size:
            self.data_count += 1
            self._data_dim_total += size
            if sample is not None:
                self._data_sample.append((size, sample))
        for key, value in metadata.items():
            self.attrs.setdefault(key, AttributeStatistics()).observe(value)

    # -- derived ---------------------------------------------------------

    @property
    def stale(self) -> bool:
        """True when rows were added after the collection was last fully
        materialized (or its statistics rebuilt). Incremental collection
        keeps the profile exact under appends, so this flags *mutation*,
        not error — views built before those appends no longer reflect
        the collection, which is what lineage-driven invalidation keys on.
        """
        return self.staleness > 0

    @property
    def data_dim(self) -> int | None:
        """Mean raveled patch-data size — the recorded embedding dim."""
        if not self.data_count:
            return None
        return max(int(round(self._data_dim_total / self.data_count)), 1)

    def embedding_dim(self, attr: str | None = None) -> int | None:
        """Recorded vector dimensionality: ``attr``'s, or the patch data's."""
        if attr is not None:
            stats = self.attrs.get(attr)
            return stats.dim if stats is not None else None
        return self.data_dim

    def attribute(self, attr: str) -> AttributeStatistics | None:
        return self.attrs.get(attr)

    def data_sample(self) -> list[tuple[int, np.ndarray]]:
        """The recorded patch-data vector sample as ``(original_dim,
        kept_coordinates)`` pairs."""
        return list(self._data_sample)

    # -- estimation ------------------------------------------------------

    def estimate_predicate(self, expr: Expr | None) -> Estimate:
        """Selectivity of ``expr`` over this collection's rows.

        Conjunctions multiply (independence), disjunctions combine via
        inclusion-exclusion under independence, negation complements.
        Leaves without usable statistics fall back to the fixed
        constants, and the estimate's source records it.
        """
        if expr is None or isinstance(expr, AlwaysTrue):
            return Estimate(1.0, SOURCE_EXACT)
        if isinstance(expr, And):
            parts = [self.estimate_predicate(child) for child in expr.children]
            sel = 1.0
            for part in parts:
                sel *= part.selectivity
            return Estimate(sel, _combine_sources([p.source for p in parts]))
        if isinstance(expr, Or):
            parts = [self.estimate_predicate(child) for child in expr.children]
            miss = 1.0
            for part in parts:
                miss *= 1.0 - part.selectivity
            return Estimate(
                1.0 - miss, _combine_sources([p.source for p in parts])
            )
        if isinstance(expr, Not):
            inner = self.estimate_predicate(expr.child)
            return Estimate(_clamp(1.0 - inner.selectivity), inner.source)
        if isinstance(expr, Between):
            return self._leaf_range(expr.attr, expr.lo, expr.hi)
        if isinstance(expr, Comparison):
            return self._leaf_comparison(expr)
        return fallback_estimate(expr)

    def _leaf_comparison(self, expr: Comparison) -> Estimate:
        stats = self.attrs.get(expr.attr)
        if expr.value is None and expr.op in ("==", "!="):
            # null semantics: == None matches absent/null rows
            present = stats.count if stats is not None else 0
            null_fraction = _clamp(
                1.0 - present / self.row_count
            ) if self.row_count else 0.0
            sel = null_fraction if expr.op == "==" else 1.0 - null_fraction
            return Estimate(_clamp(sel), SOURCE_MCV)
        if stats is None:
            return fallback_estimate(expr)
        estimate = stats.estimate_cmp(expr.op, expr.value)
        if estimate is None:
            return fallback_estimate(expr)
        presence = stats.count / self.row_count if self.row_count else 0.0
        sel = estimate.selectivity * presence
        if expr.op == "!=":
            # absent/null rows *match* != (None != constant is True in the
            # evaluator), so they join the complement wholesale
            sel += 1.0 - presence
        return Estimate(_clamp(sel), estimate.source)

    def _leaf_range(self, attr: str, lo: Any, hi: Any) -> Estimate:
        stats = self.attrs.get(attr)
        if stats is None:
            return Estimate(RANGE_SELECTIVITY, SOURCE_FALLBACK)
        estimate = stats.estimate_range(lo, hi)
        if estimate is None:
            return Estimate(RANGE_SELECTIVITY, SOURCE_FALLBACK)
        presence = stats.count / self.row_count if self.row_count else 0.0
        return Estimate(_clamp(estimate.selectivity * presence), estimate.source)

    # -- persistence -----------------------------------------------------

    def to_value(self) -> dict:
        return {
            "row_count": self.row_count,
            "data_count": self.data_count,
            "data_dim_total": self._data_dim_total,
            "data_sample": [[dim, vec] for dim, vec in self._data_sample],
            "attrs": {
                name: stats.to_value()
                for name, stats in sorted(self.attrs.items())
            },
        }

    @classmethod
    def from_value(cls, value: dict) -> "CollectionStatistics":
        stats = cls()
        stats.row_count = value["row_count"]
        stats.data_count = value["data_count"]
        stats._data_dim_total = value["data_dim_total"]
        stats._data_sample = [
            (int(dim), np.asarray(vec, dtype=np.float64))
            for dim, vec in value["data_sample"]
        ]
        stats.attrs = {
            name: AttributeStatistics.from_value(attr_value)
            for name, attr_value in value["attrs"].items()
        }
        stats._pending = []
        return stats

    def take_delta(self) -> list[bytes] | None:
        """Snapshot-store protocol: the rows observed since the previous
        call (or since :meth:`from_value`), ``None`` when this object was
        built or rebuilt in memory and must be saved in full."""
        pending, self._pending = self._pending, []
        return pending

    def apply_delta(self, rows: list[bytes]) -> None:
        """Replay one persisted delta through :meth:`_fold`."""
        for row in rows:
            size, sample, metadata = serialization.loads(row)
            self._fold(size, sample, metadata)


# -- sampled join selectivity --------------------------------------------------


def sample_match_fraction(
    left: list[tuple[int, np.ndarray]],
    right: list[tuple[int, np.ndarray]],
    threshold: float,
    *,
    same: bool = False,
) -> float | None:
    """Fraction of sampled cross pairs within ``threshold`` distance.

    The data-distribution-aware replacement for the geometric-decay
    join-selectivity constant: clustered embeddings match far more often
    than the independence-per-dimension decay predicts, and the recorded
    first-K vector samples (:meth:`CollectionStatistics.data_sample`) see
    exactly that. ``same=True`` excludes identity pairs (self-join
    sampling from one collection). Subsampled vectors rescale distances
    by ``sqrt(dim / kept)`` — the uniform-coordinate estimate of the full
    distance. Returns None (caller keeps the constant) when either
    sample is too small to trust.
    """
    if threshold < 0 or not math.isfinite(threshold):
        return None
    if len(left) < MIN_SAMPLE_VECTORS or len(right) < MIN_SAMPLE_VECTORS:
        return None
    matches = 0
    total = 0
    for i, (left_dim, left_vec) in enumerate(left):
        for j, (right_dim, right_vec) in enumerate(right):
            if same and i == j:
                continue
            if left_vec.size != right_vec.size or not left_vec.size:
                continue
            distance = float(np.linalg.norm(left_vec - right_vec))
            full_dim = max(left_dim, right_dim)
            if full_dim > left_vec.size:
                distance *= math.sqrt(full_dim / left_vec.size)
            total += 1
            if distance <= threshold:
                matches += 1
    if not total:
        return None
    return matches / total


# -- fallback estimation (no statistics) --------------------------------------


def fallback_estimate(expr: Expr | None) -> Estimate:
    """The seed planner's constants, recursively over connectives.

    ``!=`` gets its own complement estimate (``1 - EQ_SELECTIVITY``)
    instead of the old bug of sharing ``RANGE_SELECTIVITY`` with ranges —
    a not-equals predicate keeps almost everything, not 30%.
    """
    return Estimate(_clamp(_fallback_selectivity(expr)), SOURCE_FALLBACK)


def _fallback_selectivity(expr: Expr | None) -> float:
    if expr is None or isinstance(expr, AlwaysTrue):
        return 1.0
    if isinstance(expr, Comparison):
        if expr.op == "==":
            return EQ_SELECTIVITY
        if expr.op == "!=":
            return NEQ_SELECTIVITY
        if expr.op == "in":
            # an IN list is a disjunction of equalities: one equality's
            # worth of selectivity per member, not the range constant.
            # Strings mean substring membership (keep the range
            # constant); unsized containers have unknown member counts;
            # non-containers always evaluate False
            value = expr.value
            if isinstance(value, (str, bytes)):
                return RANGE_SELECTIVITY
            if isinstance(value, _abc.Sized) and isinstance(
                value, (_abc.Container, _abc.Iterable)
            ):
                return min(len(value) * EQ_SELECTIVITY, 1.0)
            if isinstance(value, (_abc.Container, _abc.Iterable)):
                return RANGE_SELECTIVITY
            return 0.0
        return RANGE_SELECTIVITY
    if isinstance(expr, Between):
        return RANGE_SELECTIVITY
    if isinstance(expr, And):
        sel = 1.0
        for child in expr.children:
            sel *= _fallback_selectivity(child)
        return sel
    if isinstance(expr, Or):
        miss = 1.0
        for child in expr.children:
            miss *= 1.0 - _fallback_selectivity(child)
        return 1.0 - miss
    if isinstance(expr, Not):
        return 1.0 - _fallback_selectivity(expr.child)
    return RANGE_SELECTIVITY  # opaque predicates


# -- helpers -------------------------------------------------------------------


def _clamp(selectivity: float) -> float:
    return min(max(selectivity, 0.0), 1.0)


def _combine_sources(sources: list[str]) -> str:
    unique: list[str] = []
    for source in sources:
        for part in source.split("+"):
            if part not in unique:
                unique.append(part)
    return "+".join(unique) if unique else SOURCE_FALLBACK


def _is_boundish(value: Any) -> bool:
    return value is None or _is_numeric(value)


def _tuplify(key: Any) -> Any:
    """Serialized dict keys come back as lists inside pairs; restore
    hashability (tuples stay tuples through the serializer, so this only
    guards nested list decoding)."""
    if isinstance(key, list):
        return tuple(_tuplify(item) for item in key)
    return key


def _equi_depth(values: list[float]) -> tuple[list[float], list[int]]:
    """Equi-depth histogram: ~n/B values per bucket; heavy duplicates
    collapse into zero-width buckets, which estimation treats as exact."""
    data = sorted(values)
    n = len(data)
    n_buckets = min(HISTOGRAM_BUCKETS, n)
    edges = [data[0]]
    counts = []
    previous = 0
    for i in range(1, n_buckets + 1):
        cut = round(i * n / n_buckets)
        edges.append(data[cut - 1])
        counts.append(cut - previous)
        previous = cut
    return edges, counts


def _hist_fraction(
    edges: list[float], counts: list[int], lo: Any, hi: Any
) -> float:
    """Fraction of histogrammed values inside the inclusive range,
    linearly interpolating within partially-covered buckets."""
    total = sum(counts)
    if not total:
        return 0.0
    lo_f = -math.inf if lo is None else float(lo)
    hi_f = math.inf if hi is None else float(hi)
    if hi_f < lo_f:
        return 0.0
    acc = 0.0
    for i, count in enumerate(counts):
        left, right = edges[i], edges[i + 1]
        if right < lo_f or left > hi_f:
            continue
        if right == left:
            acc += count
        else:
            overlap = min(hi_f, right) - max(lo_f, left)
            acc += count * overlap / (right - left)
    return _clamp(acc / total)

"""Columnar metadata segment: per-attribute arrays with zone maps.

The blob heap stores each patch as one record — pixels and metadata
interleaved — so even ``load_data=False`` readers used to pay the full
zlib decompress + record parse per patch. This module is the other half
of the storage split (Deep Lake's tensor-layout insight applied to the
patch store): every collection keeps a **columnar segment** beside the
heap holding only the metadata, in blocks of ``BLOCK_ROWS`` rows with

* one column per attribute (values + a presence mask, so a missing key
  and an explicit ``None`` stay distinct — metadata-only reads must be
  bit-identical to ``Patch.from_record``), and
* a per-block, per-attribute min/max **zone map** used for block
  skipping: a range or equality predicate whose value band provably
  misses a block never decompresses it.

Every block has this one layout. Full blocks are *sealed*: their
columns are packed into one immutable blob. The newest rows form the
*open* block: the same columns and zone maps, grown one row at a time
in memory and packed into a blob when the block fills.

The segment lives in its *own* heap file (``metadata.seg``) — a
metadata-only scan performs zero reads against the patch heap, which is
the whole point (and what the profile counters assert in CI).

Zone-map pruning is deliberately conservative. It mirrors the
expression DSL's semantics exactly: ordered comparisons are ``False``
on ``None``; ``==``/``!=`` are plain equality (``== None`` matches a
missing attribute); mixed-type or non-scalar columns (and any column
containing NaN, which breaks min/max ordering) simply opt out of
pruning rather than risk dropping a matching row.
"""

from __future__ import annotations

import copy
import threading
import zlib
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import CorruptionError
from repro.storage.kvstore import BlobHeap, BlobRef, serialization
from repro.storage.snapshot_store import DECODE_ERRORS, SnapshotStore

#: rows per sealed block — one zone-map entry and one column read each
BLOCK_ROWS = 1024
#: columns smaller than this are stored raw (zlib header overhead wins)
COLUMN_COMPRESS_MIN = 64

#: snapshot-store structure kind of a segment descriptor chain
SEGMENT = "segment"

GROUP_NUMERIC = "num"
GROUP_STRING = "str"


def _value_group(value: Any) -> str | None:
    """Ordering group of one value: values of the same group compare
    safely with ``<``; anything else opts out of zone-map pruning."""
    if isinstance(value, (bool, int, float)):
        if isinstance(value, float) and value != value:  # NaN breaks min/max
            return None
        return GROUP_NUMERIC
    if isinstance(value, str):
        return GROUP_STRING
    return None


@dataclass
class ZoneMap:
    """Min/max summary of one attribute over one block."""

    lo: Any = None
    hi: Any = None
    #: ordering group of lo/hi; None means the block holds mixed or
    #: unorderable values and range pruning is disabled
    group: str | None = None
    #: non-None values in the block (0 = attribute all-None/missing)
    n_values: int = 0
    #: True when at least one row reads the attribute as None/missing
    has_none: bool = False

    def fold(self, value: Any) -> None:
        """Summarize one more row (``None``: missing or explicit None)."""
        if value is None:
            self.has_none = True
            return
        first = self.n_values == 0
        self.n_values += 1
        group = _value_group(value)
        if group is None or (not first and group != self.group):
            # mixed or unorderable: no bounds, for good
            self.group = self.lo = self.hi = None
        else:
            self.group = group
            if first or value < self.lo:
                self.lo = value
            if first or value > self.hi:
                self.hi = value

    def to_value(self) -> list:
        return [self.lo, self.hi, self.group, self.n_values, self.has_none]

    @classmethod
    def from_value(cls, value: list) -> "ZoneMap":
        lo, hi, group, n_values, has_none = value
        return cls(lo, hi, group, int(n_values), bool(has_none))


#: zone map of an attribute no row in the block carries: every read is
#: None, so ``has_none`` must hold or ``== None`` probes would wrongly
#: prune the block
_ABSENT = ZoneMap(has_none=True)


def zone_of(values: list, present: list[bool]) -> ZoneMap:
    """Summarize one column of a block (``present[i]`` False means the
    attribute was missing from row ``i``'s metadata)."""
    zone = ZoneMap()
    for value, is_present in zip(values, present):
        zone.fold(value if is_present else None)
    return zone


def _cmp_may_match(zone: ZoneMap, op: str, value: Any) -> bool:
    """Can any row summarized by ``zone`` satisfy ``attr <op> value``?
    ``False`` only on proof; any doubt keeps the block."""
    if op == "==":
        if value is None:
            return zone.has_none
        if zone.n_values == 0:
            return False
        if zone.group is None or _value_group(value) != zone.group:
            return True
        return not (value < zone.lo or value > zone.hi)
    if op == "!=":
        if value is None:
            # None != None is False; only non-None rows match
            return zone.n_values > 0
        if zone.has_none:
            return True  # a None row satisfies any != non-None
        if (
            zone.group is not None
            and _value_group(value) == zone.group
            and zone.lo == zone.hi
            and zone.lo == value
        ):
            return False  # constant block equal to the probe
        return True
    # ordered comparisons are False on None, so an all-None block
    # cannot match regardless of the probe
    if zone.n_values == 0:
        return False
    if zone.group is None or _value_group(value) != zone.group:
        return True
    if op == "<":
        return zone.lo < value
    if op == "<=":
        return zone.lo <= value
    if op == ">":
        return zone.hi > value
    if op == ">=":
        return zone.hi >= value
    return True  # in/contains and anything future: never prune


def _between_may_match(zone: ZoneMap, low: Any, high: Any) -> bool:
    if zone.n_values == 0:
        return False  # Between is False on None
    if zone.group is None:
        return True
    if low is not None and _value_group(low) == zone.group and zone.hi < low:
        return False
    if high is not None and _value_group(high) == zone.group and zone.lo > high:
        return False
    return True


def block_may_match(zones: dict[str, ZoneMap], expr: Any) -> bool:
    """Zone-map test for one block: False means *no* row in the
    block can satisfy ``expr``. Only top-level conjuncts of the two
    statically analyzable shapes (comparisons, BETWEEN) prune; every
    other conjunct — OR, NOT, opaque predicates — conservatively keeps
    the block."""
    from repro.core.expressions import Between, Comparison

    conjuncts = expr.conjuncts() if hasattr(expr, "conjuncts") else [expr]
    for conjunct in conjuncts:
        try:
            if isinstance(conjunct, Comparison):
                zone = zones.get(conjunct.attr, _ABSENT)
                if not _cmp_may_match(zone, conjunct.op, conjunct.value):
                    return False
            elif isinstance(conjunct, Between):
                zone = zones.get(conjunct.attr, _ABSENT)
                if not _between_may_match(zone, conjunct.lo, conjunct.hi):
                    return False
        except (TypeError, ValueError):
            continue  # exotic probe value: keep the block
    return True


#: values no caller can mutate: handed out as they are
_ATOMS = (type(None), bool, int, float, str, bytes)


def _owned(value: Any) -> Any:
    """``value``, or a deep copy of it when a caller could mutate it."""
    if isinstance(value, _ATOMS):
        return value
    if isinstance(value, tuple):  # lineage, boxes: far cheaper than deepcopy
        return tuple([_owned(item) for item in value])
    return copy.deepcopy(value)


def _pack_values(values: list) -> list:
    """Typed encoding of one value run. Homogeneous runs — the common
    case for a column, and for each ``ImgRef`` field — become one
    vector (an ndarray, or a joined string plus lengths) so decode is a
    single serializer value instead of a tagged scalar per row; anything
    mixed falls back to the general per-value encoding. The run shares
    no mutable object with ``values``."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return ["i", np.array(values, dtype=np.int64)]
        except OverflowError:
            return ["o", list(values)]  # ints are atoms
    if kinds == {float}:
        return ["f", np.array(values, dtype=np.float64)]
    if kinds == {str}:
        lengths = np.array([len(value) for value in values], dtype=np.int64)
        return ["s", "".join(values), lengths]
    if kinds == {type(None)}:
        return ["n", len(values)]
    if kinds == {np.ndarray}:
        first = values[0]
        if all(
            value.dtype == first.dtype and value.shape == first.shape
            for value in values
        ) and first.dtype != object:
            # same-shape vectors (embeddings, histograms): one stacked
            # array instead of a serialized ndarray per row
            return ["a", np.stack(values)]
    if kinds == {tuple}:
        width = len(values[0])
        if width and all(len(value) == width for value in values):
            # same-shape tuples (lineage steps, refs) recurse columnwise
            return ["t", width, [
                _pack_values([value[i] for value in values])
                for i in range(width)
            ]]
    return ["o", [_owned(value) for value in values]]


def _unpack_values(packed: list, positions: list[int] | None = None) -> list:
    """Decode one typed run; with ``positions``, only those entries (in
    that order) are materialized as Python objects."""
    kind = packed[0]
    if kind == "o":
        values = packed[1]
        return values if positions is None else [values[i] for i in positions]
    if kind == "n":
        return [None] * (packed[1] if positions is None else len(positions))
    if kind == "s":
        joined, ends = packed[1], np.cumsum(packed[2])
        starts = ends - packed[2]
        if positions is not None:
            starts, ends = starts[positions], ends[positions]
        return [joined[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    if kind == "t":
        return list(zip(*(_unpack_values(run, positions) for run in packed[2])))
    array = packed[1] if positions is None else packed[1][positions]
    if kind == "a":
        return [row.copy() for row in array]  # rows own their data
    return array.tolist()  # "i"/"f": back to plain int/float


def _pack_column(values: list, present: list[bool], sealed: bool) -> bytes | list:
    """One column: ``[mask, typed values]``. The mask is None when every
    row carries the attribute (the common case for schema attrs — saves
    the per-row byte). In a ``sealed`` block it is serialized on its own
    and zlib'd when that pays, so a reader inflates only the columns it
    asks for; a descriptor is serialized and compressed whole."""
    column = [
        None if all(present) else [1 if p else 0 for p in present],
        _pack_values(values),
    ]
    if not sealed:
        return column
    raw = serialization.dumps(column, compress_arrays=False)
    if len(raw) >= COLUMN_COMPRESS_MIN:
        squeezed = zlib.compress(raw, 6)
        if len(squeezed) < len(raw):
            return b"z" + squeezed
    return b"r" + raw


def _load_column(blob: bytes) -> tuple[list | None, list]:
    """(presence mask, typed run) of one stored column — the run stays
    packed, so a vectorized reader never builds a Python object per row."""
    raw = zlib.decompress(blob[1:]) if blob[:1] == b"z" else blob[1:]
    mask, packed = serialization.loads(raw)
    return mask, packed


def _take(column: tuple[list | None, list], positions) -> tuple[list | None, list]:
    """A (presence mask, typed run) column restricted to ``positions``
    (the whole column for ``None``)."""
    if positions is None:
        return column
    mask, run = column
    if mask is not None:
        mask = [mask[i] for i in positions]
    return mask, _take_run(run, positions)


def _take_run(run: list, positions) -> list:
    """A typed run restricted to ``positions``. Vectors are indexed in
    place; strings and general runs (the open block's) are typed anew."""
    kind = run[0]
    if kind == "t":
        return ["t", run[1], [_take_run(part, positions) for part in run[2]]]
    if kind in ("i", "f", "a"):
        return [kind, run[1][positions]]
    return _pack_values(_unpack_values(run, positions))


def _pack_rows(ids, refs: list[tuple], columns: dict, sealed: bool) -> dict:
    """The stored form of a run of rows — a sealed block's blob, and the
    open rows a descriptor carries: the ids, one typed run of ``ImgRef``
    tuples, and one column (:func:`_pack_column`) per attribute some row
    carries, in first-appearance order. ``columns`` maps attr ->
    (presence, values), one entry per row."""
    return {
        "ids": np.asarray(ids, dtype=np.int64),
        "refs": _pack_values(refs),
        "cols": {
            attr: _pack_column(values, present, sealed)
            for attr, (present, values) in columns.items()
            if any(present)
        },
    }


@dataclass
class _Block:
    """One block's summary: where its blob is (``ref``; None for the open
    block, which lives in memory), its id range and its zone maps."""

    ref: BlobRef | None
    n_rows: int
    min_id: int
    max_id: int
    zones: dict[str, ZoneMap]

    def to_value(self) -> list:
        return [
            list(self.ref.to_tuple()),
            self.n_rows,
            self.min_id,
            self.max_id,
            [[attr, zone.to_value()] for attr, zone in self.zones.items()],
        ]

    @classmethod
    def from_value(cls, value: list) -> "_Block":
        ref, n_rows, min_id, max_id, zones = value
        return cls(
            ref=BlobRef.from_tuple(tuple(ref)),
            n_rows=int(n_rows),
            min_id=int(min_id),
            max_id=int(max_id),
            zones={attr: ZoneMap.from_value(z) for attr, z in zones},
        )


class _OpenBlock:
    """The newest rows: a sealed block's content — ids, ``ImgRef``
    tuples, per-attribute columns and zone maps — held in memory and
    grown one row at a time. Each column is a (presence, general run)
    pair, the shape a stored column loads into before it is restricted
    to a batch's rows. Rows below ``n_rows`` never change, so a batch
    over them stays valid while appends continue."""

    def __init__(self, capacity: int) -> None:
        self.ids = np.empty(capacity, dtype=np.int64)
        self.n_rows = 0
        self.refs: list[tuple] = []
        #: attr -> (presence, ["o", values]), one entry per row
        self.columns: dict[str, tuple[list[bool], list]] = {}
        self.zones: dict[str, ZoneMap] = {}

    def append(self, patch_id: int, ref_value: tuple, metadata: dict) -> None:
        n = self.n_rows
        for attr in metadata:
            if attr not in self.columns:
                self.columns[attr] = ([False] * n, ["o", [None] * n])
                self.zones[attr] = ZoneMap(has_none=n > 0)
        for attr, (present, (_, values)) in self.columns.items():
            # the one copy: later changes to the caller's patch stay out
            value = _owned(metadata.get(attr))
            present.append(attr in metadata)
            values.append(value)
            self.zones[attr].fold(value)
        self.refs.append(tuple(ref_value))
        self.ids[n] = patch_id
        self.n_rows = n + 1

    def summary(self, ref: BlobRef | None = None) -> _Block:
        ids, n = self.ids, self.n_rows
        return _Block(ref, n, int(ids[0]), int(ids[n - 1]), self.zones)

    def pack(self, start: int = 0, *, sealed: bool = False) -> dict:
        """Rows ``start`` onwards in their stored form."""
        return _pack_rows(
            self.ids[start : self.n_rows],
            self.refs[start:],
            {
                attr: (present[start:], values[start:])
                for attr, (present, (_, values)) in self.columns.items()
            },
            sealed,
        )


#: one segment row: (patch_id, img_ref value tuple, metadata dict)
Row = tuple[int, tuple, dict]


class ColumnBatch:
    """The rows of one block — sealed or open — column-wise.

    ``ids`` holds the patch ids. A column is decoded the first time it
    is asked for (a filter on ``frameno`` never inflates ``label``) and
    stays a typed run: :meth:`numeric` and :meth:`strings` hand a
    vectorized predicate one array for the whole batch, :meth:`values`
    is the general one-Python-value-per-row form, and :meth:`rows`
    builds full rows for just the positions asked for. ``stored`` is a
    block in its stored form (:func:`_pack_rows`), except that the open
    block's columns are already loaded. A batch may cover some rows of
    its block only (``positions``; always given for the open block, see
    :meth:`take`), and then decodes just those. No value handed out is
    shared with the segment.
    """

    def __init__(
        self,
        segment: "CollectionSegment",
        stored: dict,
        ids: np.ndarray,
        *,
        positions=None,
        block: _Block | None = None,
    ) -> None:
        self._segment = segment
        self._stored = stored
        self.ids = ids
        #: the block rows this batch covers (None: all of them)
        self._positions = positions
        #: a sealed block's summary, to position decode errors
        self._block = block
        #: attr -> (presence mask or None, typed run), decoded on demand
        self._columns: dict[str, tuple[list | None, list]] = {}
        self._strings: dict[str, np.ndarray] = {}
        self._refs: list | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, positions) -> "ColumnBatch":
        """The rows at ``positions`` of this batch as a batch of their
        own, decoding nothing yet."""
        ids = self.ids[positions]
        if self._positions is not None:
            positions = [self._positions[i] for i in positions]
        return ColumnBatch(
            self._segment, self._stored, ids, positions=positions, block=self._block
        )

    def _column(self, attr: str) -> tuple[list | None, list]:
        column = self._columns.get(attr)
        if column is not None:
            return column
        stored = self._stored["cols"].get(attr)
        if stored is None:  # no row of this block carries the attribute
            column = ([0] * len(self), ["n", len(self)])
        else:
            with self._segment._decoding(self._block):
                if isinstance(stored, bytes):  # a sealed block's column
                    stored = _load_column(stored)
                column = _take(stored, self._positions)
            if self._block is not None:
                self._segment._metric_columns.inc()
        self._columns[attr] = column
        return column

    def numeric(self, attr: str) -> np.ndarray | None:
        """The column as one int64/float64 array — only when it is
        stored as a numeric run, which means every row carries a
        non-None ``int`` (or ``float``) under ``attr``."""
        run = self._column(attr)[1]
        return run[1] if run[0] in ("i", "f") else None

    def strings(self, attr: str) -> np.ndarray | None:
        """The column as one object array of ``str`` — only when every
        row carries a string under ``attr``."""
        run = self._column(attr)[1]
        if run[0] != "s":
            return None
        array = self._strings.get(attr)
        if array is None:
            array = self._strings[attr] = np.array(
                _unpack_values(run), dtype=object
            )
        return array

    def values(self, attr: str, positions=None) -> list:
        """One Python value per row (``None`` where the attribute is
        missing), or per entry of ``positions``."""
        return _unpack_values(self._column(attr)[1], positions)

    def rows(self, positions=None, attrs=None) -> list[Row]:
        """Full rows — all, or those at ``positions`` — with metadata
        restricted to ``attrs`` when given (key order unchanged)."""
        if positions is not None and len(positions) == 0:
            return []
        if positions is not None and self._positions is not None:
            # part of a block already (the open one, a cut): pack or
            # restrict only the rows asked for
            return self.take(positions).rows(attrs=attrs)
        with self._segment._decoding(self._block):
            if self._refs is None:
                self._refs = _take((None, self._stored["refs"]), self._positions)[1]
            refs = _unpack_values(self._refs, positions)
            unpacked = []
            for attr in self._stored["cols"]:
                if attrs is not None and attr not in attrs:
                    continue
                mask, run = self._column(attr)
                if mask is not None and positions is not None:
                    mask = [mask[i] for i in positions]
                unpacked.append((attr, mask, _unpack_values(run, positions)))
        ids = (self.ids if positions is None else self.ids[positions]).tolist()
        rows: list[Row] = []
        for i, (patch_id, ref_value) in enumerate(zip(ids, refs)):
            metadata = {}
            for attr, mask, values in unpacked:
                if mask is None or mask[i]:
                    metadata[attr] = values[i]
            rows.append((patch_id, ref_value, metadata))
        self._segment._metric_rows.inc(len(rows))
        return rows


class CollectionSegment:
    """One collection's columnar metadata: sealed blocks plus the open
    block the newest rows go to, all read through :class:`ColumnBatch`.

    The open block copies each mutable metadata value once, at
    :meth:`append` — a caller mutating the patch after ``add`` cannot
    desynchronize the segment from the patch record — and every read
    packs fresh runs, so scans never hand out state the segment holds.
    """

    def __init__(
        self,
        heap: BlobHeap,
        name: str,
        *,
        block_rows: int | None = None,
        metrics=None,
    ) -> None:
        self._heap = heap
        self.name = name
        self.block_rows = block_rows or BLOCK_ROWS
        if metrics is None:
            # runtime import: repro.core imports this module at load
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._metric_blocks_scanned = metrics.counter(
            "deeplens_zonemap_blocks_scanned_total",
            "metadata blocks (sealed or open) read by scans",
        )
        self._metric_blocks_skipped = metrics.counter(
            "deeplens_zonemap_blocks_skipped_total",
            "metadata blocks (sealed or open) zone-map pruning never read",
        )
        self._metric_columns = metrics.counter(
            "deeplens_segment_columns_decoded_total",
            "sealed-block columns inflated and parsed",
        )
        self._metric_rows = metrics.counter(
            "deeplens_segment_rows_materialized_total",
            "rows built as Python objects from the metadata segment",
        )
        self._blocks: list[_Block] = []
        self._open = _OpenBlock(self.block_rows)
        #: open rows the persisted descriptor chain already holds — the
        #: snapshot store's delta is everything after them. ``None`` when
        #: the sealed blocks changed since the last persist (a seal, a
        #: rebuild, a fresh segment): only a full descriptor can follow
        self._persisted: int | None = None
        self._lock = threading.RLock()
        self.dirty = False

    @property
    def row_count(self) -> int:
        with self._lock:
            return sum(b.n_rows for b in self._blocks) + self._open.n_rows

    # -- writes ---------------------------------------------------------

    def append(self, patch_id: int, ref_value: tuple, metadata: dict) -> None:
        """Add one row (metadata already normalized by the caller)."""
        with self._lock:
            self._open.append(patch_id, ref_value, metadata)
            if self._open.n_rows >= self.block_rows:
                self._seal()
            self.dirty = True

    def rebuild(self, rows: Iterable[tuple[int, tuple, dict]]) -> None:
        """Replace all contents — sealed blocks and the open one — with
        ``rows`` (a segment rebuilt from the blob heap after quarantine
        or for a pre-segment catalog, or a collection
        re-materialization)."""
        with self._lock:
            self._blocks = []
            self._open = _OpenBlock(self.block_rows)
            self._persisted = None
            self.dirty = True
            for patch_id, ref_value, metadata in rows:
                self.append(patch_id, ref_value, metadata)

    def _seal(self) -> None:
        # caller holds the lock; batches over the old open block stay valid
        payload = serialization.dumps(
            self._open.pack(sealed=True), compress_arrays=False
        )
        ref = self._heap.put(payload, compress=False)  # columns already packed
        self._blocks.append(self._open.summary(ref))
        self._open = _OpenBlock(self.block_rows)
        self._persisted = None

    # -- reads ----------------------------------------------------------

    @contextmanager
    def _decoding(self, block: _Block | None) -> Iterator[None]:
        """Position whatever decoding a sealed ``block`` raises: the
        checksum passed but the content does not decode — same
        corruption, one typed positioned error instead of a codec
        traceback. Anything else propagates as it is."""
        try:
            yield
        except CorruptionError:
            raise  # already positioned (heap checksum / short read)
        except DECODE_ERRORS as exc:
            if block is None:
                raise
            raise CorruptionError(
                f"undecodable metadata block for {self.name!r}: {exc}",
                file=self._heap.path,
                offset=block.ref.offset,
            ) from exc

    def _snapshot(self) -> list[tuple[_Block, ColumnBatch | None]]:
        """Every block holding rows, in id order: the sealed ones (read
        on demand) and last the open one, with a batch of its rows as
        they stand now."""
        with self._lock:
            blocks: list = [(block, None) for block in self._blocks]
            open_block, n = self._open, self._open.n_rows
            if n:
                stored = {
                    "refs": ["o", open_block.refs],
                    "cols": dict(open_block.columns),
                }
                batch = ColumnBatch(
                    self, stored, open_block.ids[:n], positions=range(n)
                )
                # its zones keep folding later rows, which only widens
                # them: pruning on them stays sound for this batch
                blocks.append((open_block.summary(), batch))
        return blocks

    def _read(self, block: _Block, batch: ColumnBatch | None) -> ColumnBatch:
        """A :meth:`_snapshot` entry's batch, reading a sealed block's
        blob; its columns stay packed until asked for."""
        if batch is not None:
            return batch
        with self._decoding(block):
            stored = serialization.loads(self._heap.get(block.ref))
        return ColumnBatch(self, stored, stored["ids"], block=block)

    def scan_columns(
        self, expr: Any = None, on_blocks=None, *, after_id: int | None = None
    ) -> Iterator[ColumnBatch]:
        """All rows in id order, one :class:`ColumnBatch` per block; with
        ``expr``, blocks whose zone maps prove no row can match are
        skipped *without being read*. Surviving batches are NOT
        row-filtered — the caller masks the columns ``expr`` names — and
        decode nothing until a column or a row is asked for.

        ``on_blocks(skipped, scanned)``, when given, receives the scan's
        zone-map actuals as the stream finishes (partial counts when an
        early-exiting consumer closes the generator) — how the executing
        operator's profile learns what pruning really did, graded against
        the planner's ``block_stats`` estimate.

        ``after_id`` resumes an interrupted scan: only rows with a patch
        id strictly greater are delivered (blocks wholly at or below it
        are never read). The catalog uses this to restart a scan after a
        corrupt block forced a segment rebuild, without re-delivering
        rows its consumer already saw.
        """
        blocks = self._snapshot()
        skipped = scanned = 0
        try:
            for block, batch in blocks:
                if after_id is not None and block.max_id <= after_id:
                    continue
                if expr is not None and not block_may_match(block.zones, expr):
                    skipped += 1
                    continue
                scanned += 1
                batch = self._read(block, batch)
                if after_id is not None and block.min_id <= after_id:
                    batch = batch.take(np.flatnonzero(batch.ids > after_id))
                yield batch
        finally:
            # aggregated per scan, not per block; also runs when the
            # consumer abandons the generator early
            if skipped:
                self._metric_blocks_skipped.inc(skipped)
            if scanned:
                self._metric_blocks_scanned.inc(scanned)
            if on_blocks is not None:
                on_blocks(skipped, scanned)

    def scan_rows(
        self, expr: Any = None, on_blocks=None, *, after_id: int | None = None
    ) -> Iterator[Row]:
        """:meth:`scan_columns` as a flat stream of fully built rows."""
        for batch in self.scan_columns(expr, on_blocks, after_id=after_id):
            yield from batch.rows()

    def get_rows(
        self, patch_ids: Iterable[int], attrs: Iterable[str] | None = None
    ) -> list[Row]:
        """Point access; results align with ``patch_ids``. Raises
        ``KeyError(patch_id)`` for ids not in the segment. Rows are built
        for the wanted ids only (the open block packs just those), and
        with ``attrs`` only those metadata columns are decoded (a ``SELECT
        rid`` never inflates a block's embedding column)."""
        ids = list(patch_ids)
        keep = None if attrs is None else frozenset(attrs)
        blocks = self._snapshot()
        max_ids = [block.max_id for block, _ in blocks]
        wanted: dict[int, set[int]] = {}  # block index -> ids wanted there
        for patch_id in ids:
            position = bisect_left(max_ids, patch_id)
            if position < len(blocks) and blocks[position][0].min_id <= patch_id:
                wanted.setdefault(position, set()).add(patch_id)
        found: dict[int, Row] = {}
        for position, targets in wanted.items():
            batch = self._read(*blocks[position])
            hits = np.flatnonzero(np.isin(batch.ids, list(targets)))
            for row in batch.rows(hits, keep):
                found[row[0]] = row
        out = []
        for patch_id in ids:
            row = found.get(patch_id)
            if row is None:
                raise KeyError(patch_id)
            out.append(row)
        return out

    def attr_min_max(self, attr: str) -> tuple[Any, Any] | None:
        """(min, max) of ``attr`` across the whole segment, answered
        purely from block zone maps — no block is decoded. Returns
        ``None`` whenever the answer is not provable from summaries
        alone: an attribute with mixed/unorderable values in any block
        (zone group ``None`` with non-None rows), ordering groups that
        differ across blocks, or no non-None value anywhere. ``None``
        rows are skipped, matching the aggregate executor's semantics."""
        lo = hi = None
        group: str | None = None
        for block, _ in self._snapshot():
            zone = block.zones.get(attr, _ABSENT)
            if zone.n_values == 0:
                continue
            if zone.group is None:
                return None  # mixed/unorderable block: not provable
            if group is None:
                group = zone.group
            elif zone.group != group:
                return None  # str vs num across blocks: incomparable
            if lo is None or zone.lo < lo:
                lo = zone.lo
            if hi is None or zone.hi > hi:
                hi = zone.hi
        if lo is None:
            return None  # no non-None value anywhere: nothing to prove
        return lo, hi

    def block_stats(self, expr: Any = None) -> tuple[int, int]:
        """(kept blocks, total blocks) for the planner: how much of the
        segment a zone-mapped scan of ``expr`` would read. The open block
        counts like a sealed one."""
        blocks = [block for block, _ in self._snapshot()]
        kept = sum(
            1
            for block in blocks
            if expr is None or block_may_match(block.zones, expr)
        )
        return kept, len(blocks)

    def scrub(self) -> tuple[int, list[CorruptionError]]:
        """Decode every sealed block end to end — checksum *and* content
        validation — collecting failures instead of raising. Returns
        ``(blocks_checked, errors)``."""
        with self._lock:
            blocks = list(self._blocks)
        errors: list[CorruptionError] = []
        for block in blocks:
            try:
                self._read(block, None).rows()
            except CorruptionError as exc:
                errors.append(exc)
        return len(blocks), errors

    # -- persistence ----------------------------------------------------

    def to_value(self) -> dict:
        """The full descriptor (a snapshot-store *base*): sealed-block
        refs with their zone maps, plus the open block's rows in the
        stored form of a sealed block."""
        with self._lock:
            return {
                "block_rows": self.block_rows,
                "blocks": [block.to_value() for block in self._blocks],
                "open": self._open.pack(),
            }

    @classmethod
    def from_value(
        cls, heap: BlobHeap, name: str, value: dict, *, metrics=None
    ) -> "CollectionSegment":
        segment = cls(
            heap, name, block_rows=int(value["block_rows"]), metrics=metrics
        )
        segment._blocks = [_Block.from_value(entry) for entry in value["blocks"]]
        segment.apply_delta(value["open"])
        return segment

    def take_delta(self) -> dict | None:
        """Snapshot-store protocol: the open-block rows appended since
        the previous call (or since :meth:`from_value`), stored like a
        sealed block; ``None`` when the sealed blocks changed, which only
        a full descriptor records — so sealing a block starts a new base."""
        with self._lock:
            start, self._persisted = self._persisted, self._open.n_rows
            return None if start is None else self._open.pack(start)

    def apply_delta(self, payload: dict) -> None:
        """Fold persisted open-block rows. Ids must keep ascending (scans
        and point lookups bisect on that) and the block must stay open."""
        rows = ColumnBatch(self, payload, payload["ids"]).rows()
        with self._lock:
            block = self._open
            if block.n_rows + len(rows) >= self.block_rows:
                raise ValueError("segment open block holds a whole block")
            last = int(block.ids[block.n_rows - 1]) if block.n_rows else (
                self._blocks[-1].max_id if self._blocks else -1
            )
            for patch_id, ref_value, metadata in rows:
                if patch_id <= last:
                    raise ValueError(
                        f"segment row {patch_id} does not follow row {last}"
                    )
                last = patch_id
                block.append(patch_id, ref_value, metadata)
            self._persisted = block.n_rows


class MetadataSegmentStore:
    """All collections' segments over one ``metadata.seg`` heap file.

    Sealed blocks are immutable blobs; what changes is each segment's
    *descriptor* (block refs + zone maps + the open block's rows),
    persisted through a :class:`~repro.storage.snapshot_store.SnapshotStore`
    over the same heap: a full descriptor is the base, and a flush that
    only appended open-block rows writes just those rows as a delta — a
    commit costs the rows it added, not the block it found. Base and
    delta carry rows in the stored form of a sealed block. Sealing a block (or
    a chain grown to its base's size) starts a fresh base. ``refs`` is
    the section of the catalog's directory holding one chain-ref entry
    per segment; the snapshot store writes an entry when :meth:`flush`
    moves that chain. Superseded descriptors and blocks
    stay in the append-only heap, unreferenced; the store bounds them to
    a constant factor of the live data, and reclaiming them
    (compaction) stays a non-goal.
    """

    def __init__(
        self,
        path: str,
        refs,
        *,
        metrics=None,
        journal=None,
        fs=None,
        durability: str = "fsync",
        on_corruption=None,
    ) -> None:
        self._heap = BlobHeap(
            path,
            metrics=metrics,
            store="segment",
            journal=journal,
            fs=fs,
            durability=durability,
        )
        self._metrics = metrics
        #: descriptor chains, keyed ``("segment", collection)``
        self.snapshots = SnapshotStore(self._heap, refs, metrics=metrics)
        #: ``on_corruption(name, exc)`` — the catalog's quarantine hook,
        #: called when a segment descriptor fails validation and the
        #: store falls back to a fresh empty segment (rebuilt lazily)
        self._on_corruption = on_corruption or (lambda name, exc: None)
        self._segments: dict[str, CollectionSegment] = {}
        self._lock = threading.RLock()

    def segment(self, name: str) -> CollectionSegment:
        """The named collection's segment, loading the persisted
        descriptor chain on first use (an empty segment otherwise — the
        lazy backfill trigger for pre-segment catalogs).

        A corrupt descriptor is quarantined, not fatal: the segment is
        derived state, so the store reports the damage through
        ``on_corruption`` and starts from an empty segment the catalog
        rebuilds from the blob heap."""
        with self._lock:
            segment = self._segments.get(name)
            if segment is None:
                segment = self.snapshots.load(
                    (SEGMENT, name),
                    lambda value: CollectionSegment.from_value(
                        self._heap, name, value, metrics=self._metrics
                    ),
                    on_corrupt=lambda exc: self._on_corruption(name, exc),
                )
                if segment is None:
                    segment = CollectionSegment(
                        self._heap, name, metrics=self._metrics
                    )
                self._segments[name] = segment
            return segment

    def drop(self, name: str) -> None:
        """Forget a collection's segment (re-materialization starts clean)."""
        with self._lock:
            self._segments.pop(name, None)
            self.snapshots.drop((SEGMENT, name))

    def flush(self) -> None:
        """Persist dirty segments (each moves its descriptor chain, and
        with it that chain's ref entry)."""
        with self._lock:
            for name, segment in self._segments.items():
                if segment.dirty:
                    self.snapshots.save((SEGMENT, name), segment)
                    segment.dirty = False

    def scrub(self) -> tuple[int, list]:
        """Checksum-walk the segment heap file (see
        :meth:`~repro.storage.kvstore.heap.BlobHeap.scrub`)."""
        return self._heap.scrub()

    def sync(self) -> None:
        self._heap.sync()

    def close(self) -> None:
        self._heap.close()

    @property
    def heap_path(self) -> str:
        return self._heap.path

    @property
    def heap_size_bytes(self) -> int:
        return self._heap.size_bytes

"""Append-only blob heap.

Large values — serialized video frames, encoded clips, feature matrices —
do not fit inside B+ tree pages. The Frame File and Segmented File keep the
bulky bytes in a :class:`BlobHeap` and store only a small
``(offset, length)`` pointer in the tree, the classic heap-file split used
by record-oriented storage managers.

Format v2 (``DLHP0002``) frames every record as ``(length, flags,
payload CRC32)`` + payload; the CRC is verified on every read, so torn or
bit-flipped records raise a positioned
:class:`~repro.errors.CorruptionError` instead of surfacing as downstream
``zlib``/``struct`` garbage.

Being append-only is what makes the heap trivially journal-friendly: the
commit journal only records the pre-transaction end offset, and rollback is
a truncate.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass

from repro.errors import CorruptionError, StorageError

_MAGIC = b"DLHP0002"
_HEADER_SIZE = 16  # magic + reserved
_REC_HEADER = ">QBI"  # payload length, flags, payload crc32
_REC_HEADER_SIZE = struct.calcsize(_REC_HEADER)
_FLAG_COMPRESSED = 0x01

#: multi_get coalescing: two sorted requests whose file gap is at most
#: this many bytes are served by one read (reading the gap is cheaper
#: than another seek + syscall round-trip)
COALESCE_GAP_BYTES = 16 << 10
#: upper bound on one coalesced read, bounding transient buffer memory
MAX_RUN_BYTES = 8 << 20


@dataclass(frozen=True)
class BlobRef:
    """Location of one blob inside a heap file."""

    offset: int
    length: int

    def to_tuple(self) -> tuple[int, int]:
        return (self.offset, self.length)

    @classmethod
    def from_tuple(cls, pair: tuple[int, int]) -> "BlobRef":
        return cls(int(pair[0]), int(pair[1]))


class BlobHeap:
    """Append-only blob store with optional per-blob zlib compression.

    Thread-safe: one lock serializes every seek/read/write on the shared
    file handle, so a prefetch thread's batched reads can interleave
    with worker threads spilling UDF results without corrupting either.

    ``journal``, ``fs``, and ``durability`` mirror the
    :class:`~repro.storage.kvstore.pager.Pager` parameters: appends open
    the catalog transaction, file ops route through the injectable
    :class:`~repro.storage.faultfs.FileOps`, and :meth:`sync` fsyncs when
    ``durability == "fsync"``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        metrics=None,
        store: str = "blob",
        journal=None,
        fs=None,
        durability: str = "fsync",
    ) -> None:
        self.path = os.fspath(path)
        self._journal = journal
        self.durability = durability
        if fs is None:
            from repro.storage.faultfs import OS_OPS

            fs = OS_OPS
        self._fs = fs
        if metrics is None:
            # runtime import: repro.core imports this package at load
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        # ``store`` labels this heap's series (the patch heap vs the
        # metadata segment's heap share the same metric families)
        self._metric_reads = metrics.counter(
            "deeplens_heap_reads_total", "blobs read", labels=("store",)
        ).labels(store=store)
        self._metric_read_bytes = metrics.counter(
            "deeplens_heap_read_bytes_total",
            "bytes read from the heap file (coalesced gaps included)",
            labels=("store",),
        ).labels(store=store)
        self._metric_writes = metrics.counter(
            "deeplens_heap_writes_total", "blobs appended", labels=("store",)
        ).labels(store=store)
        self._metric_write_bytes = metrics.counter(
            "deeplens_heap_write_bytes_total",
            "payload bytes appended",
            labels=("store",),
        ).labels(store=store)
        self._metric_runs = metrics.counter(
            "deeplens_heap_coalesced_runs_total",
            "coalesced multi_get read runs issued",
            labels=("store",),
        ).labels(store=store)
        self._metric_run_bytes = metrics.histogram(
            "deeplens_heap_run_bytes",
            "size of coalesced multi_get read runs",
            labels=("store",),
        ).labels(store=store)
        self._metric_corruption = metrics.counter(
            "deeplens_corruption_detected_total",
            "on-disk corruption detected by checksum/structure validation",
            labels=("file",),
        ).labels(file=os.path.basename(self.path))
        self._lock = threading.RLock()
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = self._fs.open(self.path, "r+b" if exists else "w+b")
        if exists:
            self._file.seek(0)
            magic = self._file.read(8)
            if magic != _MAGIC:
                raise CorruptionError(
                    f"bad heap magic {magic!r}",
                    file=self.path,
                    offset=0,
                )
            self._file.seek(0, os.SEEK_END)
            self._end = self._file.tell()
        else:
            self._file.write(_MAGIC.ljust(_HEADER_SIZE, b"\x00"))
            self._file.flush()
            self._end = _HEADER_SIZE
        self._closed = False

    def __enter__(self) -> "BlobHeap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._file.flush()
                self._file.close()
                self._closed = True

    def put(self, data: bytes, *, compress: bool = False) -> BlobRef:
        """Append ``data``; returns the reference needed to read it back."""
        flags = 0
        payload = data
        if compress:
            squeezed = zlib.compress(data, 6)
            if len(squeezed) < len(data):
                payload = squeezed
                flags |= _FLAG_COMPRESSED
        if self._journal is not None:
            # opening the transaction before taking the heap lock keeps
            # the component -> journal lock order acyclic
            self._journal.ensure_active()
        header = struct.pack(_REC_HEADER, len(payload), flags, zlib.crc32(payload))
        with self._lock:
            self._check_open()
            offset = self._end
            self._file.seek(offset)
            self._file.write(header)
            self._file.write(payload)
            self._end = offset + len(header) + len(payload)
        self._metric_writes.inc()
        self._metric_write_bytes.inc(len(payload))
        return BlobRef(offset=offset, length=len(payload))

    def get(self, ref: BlobRef) -> bytes:
        """Read a blob previously stored with :meth:`put`."""
        with self._lock:
            self._check_open()
            if ref.offset < _HEADER_SIZE or ref.offset >= self._end:
                raise StorageError(f"blob offset {ref.offset} out of range")
            self._file.seek(ref.offset)
            header = self._file.read(_REC_HEADER_SIZE)
            length, flags, crc = self._parse_header(header, ref)
            payload = self._file.read(length)
        self._metric_reads.inc()
        self._metric_read_bytes.inc(_REC_HEADER_SIZE + length)
        if len(payload) != length:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"short read of blob ({len(payload)} of {length} bytes)",
                file=self.path,
                offset=ref.offset,
            )
        self._verify(payload, crc, ref.offset)
        return self._inflate(payload, flags, ref.offset)

    def multi_get(self, refs: list[BlobRef] | tuple[BlobRef, ...]) -> list[bytes]:
        """Read many blobs in one pass; results align with ``refs``.

        Requests are served in file-offset order, adjacent/near-adjacent
        records are coalesced into single reads (``COALESCE_GAP_BYTES``,
        capped at ``MAX_RUN_BYTES`` per read), so a batch of point reads
        costs a handful of sequential I/O requests instead of one
        seek + two reads per blob — the batched storage path cold scans
        and index access paths sit on.
        """
        if not refs:
            return []
        # only the raw file reads happen under the lock; decompression
        # runs after release so a prefetch thread decoding a large run
        # cannot stall workers fetching/spilling through the same heap
        raw: list[tuple[bytes, int, int] | None] = [None] * len(refs)
        with self._lock:
            self._check_open()
            order = sorted(range(len(refs)), key=lambda i: refs[i].offset)

            run: list[int] = []
            run_start = run_end = 0
            for position in order:
                ref = refs[position]
                if ref.offset < _HEADER_SIZE or ref.offset >= self._end:
                    raise StorageError(
                        f"blob offset {ref.offset} out of range"
                    )
                record_end = ref.offset + _REC_HEADER_SIZE + ref.length
                if not run:
                    run, run_start, run_end = [position], ref.offset, record_end
                elif (
                    ref.offset - run_end <= COALESCE_GAP_BYTES
                    and max(run_end, record_end) - run_start <= MAX_RUN_BYTES
                ):
                    run.append(position)
                    run_end = max(run_end, record_end)
                else:
                    self._read_run(refs, run, run_start, run_end, raw)
                    run, run_start, run_end = [position], ref.offset, record_end
            self._read_run(refs, run, run_start, run_end, raw)
        out = []
        for position, slot in enumerate(raw):
            payload, flags, crc = slot  # type: ignore[misc]  # every slot filled
            offset = refs[position].offset
            self._verify(payload, crc, offset)
            out.append(self._inflate(payload, flags, offset))
        return out

    def _read_run(
        self,
        refs: list[BlobRef] | tuple[BlobRef, ...],
        run: list[int],
        run_start: int,
        run_end: int,
        raw: list[tuple[bytes, int, int] | None],
    ) -> None:
        """One coalesced read serving every request in ``run``; fills
        ``raw`` with (still-compressed payload, flags, crc) triples."""
        self._file.seek(run_start)
        buffer = self._file.read(run_end - run_start)
        if len(buffer) != run_end - run_start:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"short read of blob run ({len(buffer)} of "
                f"{run_end - run_start} bytes)",
                file=self.path,
                offset=run_start,
            )
        # one locked inc per coalesced run, not per blob — the hot
        # batched-read path pays a few instrument touches per batch
        self._metric_runs.inc()
        self._metric_run_bytes.observe(len(buffer))
        self._metric_reads.inc(len(run))
        self._metric_read_bytes.inc(len(buffer))
        for position in run:
            ref = refs[position]
            base = ref.offset - run_start
            header = buffer[base : base + _REC_HEADER_SIZE]
            length, flags, crc = self._parse_header(header, ref)
            payload = buffer[base + _REC_HEADER_SIZE : base + _REC_HEADER_SIZE + length]
            if len(payload) != length:
                self._metric_corruption.inc()
                raise CorruptionError(
                    f"short read of blob ({len(payload)} of {length} bytes)",
                    file=self.path,
                    offset=ref.offset,
                )
            raw[position] = (payload, flags, crc)

    def _parse_header(self, header: bytes, ref: BlobRef):
        """Decode one record header; returns (length, flags, crc)."""
        if len(header) < _REC_HEADER_SIZE:
            self._metric_corruption.inc()
            raise CorruptionError(
                "truncated blob record header",
                file=self.path,
                offset=ref.offset,
            )
        length, flags, crc = struct.unpack(_REC_HEADER, header)
        if length != ref.length:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"blob length mismatch: header says {length}, ref says "
                f"{ref.length}",
                file=self.path,
                offset=ref.offset,
            )
        return length, flags, crc

    def _verify(self, payload: bytes, crc: int, offset: int) -> None:
        computed = zlib.crc32(payload)
        if computed != crc:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"blob checksum mismatch (stored 0x{crc:08x}, computed "
                f"0x{computed:08x})",
                file=self.path,
                offset=offset,
            )

    def _inflate(self, payload: bytes, flags: int, offset: int) -> bytes:
        if not flags & _FLAG_COMPRESSED:
            return payload
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"undecompressable blob: {exc}",
                file=self.path,
                offset=offset,
            ) from exc

    def scrub(self) -> tuple[int, list[CorruptionError]]:
        """Walk every record in the heap and re-verify its checksum.

        Collects failures instead of raising (each detection still counts
        in ``deeplens_corruption_detected_total``); a *structural* fault —
        a truncated header or a length that overruns the file — ends the
        walk, since record framing cannot be resynchronized past it.
        Returns ``(records_checked, errors)``.
        """
        errors: list[CorruptionError] = []
        checked = 0
        with self._lock:
            self._check_open()
            offset = _HEADER_SIZE
            while offset < self._end:
                self._file.seek(offset)
                header = self._file.read(_REC_HEADER_SIZE)
                if len(header) < _REC_HEADER_SIZE:
                    self._metric_corruption.inc()
                    errors.append(
                        CorruptionError(
                            "truncated blob record header",
                            file=self.path,
                            offset=offset,
                        )
                    )
                    break
                length, flags, crc = struct.unpack(_REC_HEADER, header)
                if offset + _REC_HEADER_SIZE + length > self._end:
                    self._metric_corruption.inc()
                    errors.append(
                        CorruptionError(
                            f"blob record of {length} bytes overruns the "
                            f"heap end",
                            file=self.path,
                            offset=offset,
                        )
                    )
                    break
                payload = self._file.read(length)
                checked += 1
                try:
                    if len(payload) != length:
                        self._metric_corruption.inc()
                        raise CorruptionError(
                            f"short read of blob ({len(payload)} of "
                            f"{length} bytes)",
                            file=self.path,
                            offset=offset,
                        )
                    self._verify(payload, crc, offset)
                except CorruptionError as exc:
                    errors.append(exc)
                offset += _REC_HEADER_SIZE + length
        return checked, errors

    def sync(self) -> None:
        with self._lock:
            self._check_open()
            self._fs.sync_file(self._file, self.durability)

    @property
    def size_bytes(self) -> int:
        """Total bytes in the heap file (the on-disk footprint)."""
        return self._end

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: heap is closed")

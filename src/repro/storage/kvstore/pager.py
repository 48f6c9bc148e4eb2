"""Page-based storage manager.

A :class:`Pager` exposes a single file as an array of fixed-size pages with
allocation, a free list, a write-back LRU cache, and one growable keyed
:class:`~repro.storage.kvstore.directory.Directory` in which every paged
structure keeps its header (a B+ tree its root page and entry count, a
hash file its bucket directory pages) and clients keep whatever else they
must find again by name. It is the substrate that stands in for
BerkeleyDB's underlying mpool/file layer in the paper's prototype.

Layout (format v3, ``DLPG0003``)::

    page 0        header: magic, page_size, page_count, freelist head,
                  meta page id, header CRC32
    page meta     the fixed-size root: root page and entry count of the
                  directory's own B+ tree, then one small client record
                  (:meth:`Pager.get_meta` / :meth:`Pager.set_meta` — the
                  catalog keeps ``next_id`` there; it must fit the page
                  and is meant never to grow)
    page 2..n     client pages / free pages (free pages chain through their
                  first 8 bytes)

Nothing that grows with the number of structures lives in the meta page:
headers are directory entries, written by each structure's flush when
they changed (:meth:`Pager.attach` / :meth:`Pager.store_header`), and the
directory's tree flushes last in :meth:`Pager.sync`, after every other
structure has reported into it.

Every page reserves its last 4 bytes for a CRC32 of the payload, stamped on
write-through and verified on every disk read — a torn or bit-flipped page
surfaces as a positioned :class:`~repro.errors.CorruptionError` instead of
garbage decoding downstream. Clients therefore size their structures
against :attr:`Pager.capacity` (``page_size - 4``), not ``page_size``.

Durability: writes participate in the catalog's
:class:`~repro.storage.journal.CommitJournal` when one is attached — the
first mutation of a transaction opens it, and any on-disk page about to be
overwritten mid-transaction (LRU write-back or :meth:`sync`) journals its
before-image first, the write-ahead rule that makes rollback possible.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Any

from repro.errors import CorruptionError, PageError, StorageError
from repro.storage.faultfs import OS_OPS
from repro.storage.kvstore import serialization
from repro.storage.kvstore.directory import Directory

MAGIC = b"DLPG0003"
DEFAULT_PAGE_SIZE = 4096
# magic, page_size, page_count, freelist_head, meta_page (+ CRC32)
_HEADER_BODY_FMT = ">8sIQQQ"
_HEADER_BODY_SIZE = struct.calcsize(_HEADER_BODY_FMT)
_HEADER_SIZE = _HEADER_BODY_SIZE + 4
_TRAILER_SIZE = 4  # per-page payload CRC32
# meta page: directory root page, directory entry count, client record length
_META_FMT = ">QQI"
_META_SIZE = struct.calcsize(_META_FMT)
#: the directory's own tree: the one header kept in the meta page
_DIRECTORY_KEY = ("btree", "pager:directory")
_NO_PAGE = 0  # page 0 is the header, so 0 doubles as the null page id


class Pager:
    """Fixed-size page manager over one file.

    Parameters
    ----------
    path:
        File to open or create.
    page_size:
        Page size in bytes for a *new* file; an existing file's recorded
        page size always wins.
    cache_pages:
        Number of pages held in the write-back LRU cache.
    metrics:
        Optional :class:`~repro.core.metrics.MetricsRegistry`; page
        reads (hit/miss), writes, and LRU evictions report into it.
    journal:
        Optional :class:`~repro.storage.journal.CommitJournal`; when set,
        mutations open a transaction and on-disk overwrites journal their
        before-images first.
    fs:
        A :class:`~repro.storage.faultfs.FileOps` (defaults to the real
        filesystem); tests substitute a fault injector.
    durability:
        ``"fsync"`` makes :meth:`sync` fsync the file; ``"flush"`` (or
        ``"none"``) only flushes.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 256,
        *,
        metrics=None,
        journal=None,
        fs=None,
        durability: str = "fsync",
    ) -> None:
        self.path = os.fspath(path)
        self._journal = journal
        self._fs = fs if fs is not None else OS_OPS
        self.durability = durability
        if metrics is None:
            # runtime import: the metrics module lives in repro.core,
            # which imports this package at module load
            from repro.core.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        page_reads = metrics.counter(
            "deeplens_pager_page_reads_total",
            "page reads by LRU outcome",
            labels=("result",),
        )
        self._metric_read_hits = page_reads.labels(result="hit")
        self._metric_read_misses = page_reads.labels(result="miss")
        self._metric_writes = metrics.counter(
            "deeplens_pager_page_writes_total", "page images written"
        )
        self._metric_evictions = metrics.counter(
            "deeplens_pager_page_evictions_total",
            "pages evicted from the LRU cache",
        )
        self._metric_corruption = metrics.counter(
            "deeplens_corruption_detected_total",
            "on-disk corruption detected by checksum/structure validation",
            labels=("file",),
        ).labels(file=os.path.basename(self.path))
        # serializes every page/file/cache operation: page-granularity
        # atomicity is what concurrent clients get (a prefetch thread
        # scanning one B+ tree while workers insert into another), and
        # the LRU OrderedDict must never be mutated from two threads
        self._lock = threading.RLock()
        self._cache: OrderedDict[int, bytearray] = OrderedDict()
        self._dirty: set[int] = set()
        self._cache_pages = max(cache_pages, 8)
        self._closed = False
        #: header key -> flush callable of the structure attached under it
        self._flushers: dict[tuple, Any] = {}
        #: the file's keyed directory: tuple keys, small serializable
        #: values, one unique B+ tree (created at the first read or
        #: write) whose own header is the meta page's fixed root
        self.directory = Directory(self._open_directory_tree, self._lock)
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = self._fs.open(self.path, "r+b" if exists else "w+b")
        if exists:
            self._load_header()
        else:
            if page_size < 512:
                raise PageError(f"page size {page_size} too small (minimum 512)")
            self.page_size = page_size
            self.page_count = 1
            self._freelist_head = _NO_PAGE
            self._meta_page = _NO_PAGE
            self._write_header()
            self._meta_page = self.allocate()
            self._write_header()

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Flush all dirty pages and close the backing file."""
        with self._lock:
            if self._closed:
                return
            self.sync()
            self._file.close()
            self._closed = True

    def _open_directory_tree(self):
        # runtime import: btree imports this module
        from repro.storage.kvstore.btree import BPlusTree

        return BPlusTree(self, _DIRECTORY_KEY[1], unique=True)

    def attach(self, key: tuple, flush) -> Any:
        """Adopt a paged structure: returns the header persisted under
        ``key`` (``None`` for a structure that does not exist yet) and
        calls ``flush()`` at the start of every :meth:`sync`, where the
        structure writes its dirty pages and hands a changed header to
        :meth:`store_header`. Where the header lives is the pager's
        business alone. A later ``attach`` of the same key takes over."""
        with self._lock:
            self._flushers[key] = flush
            if key != _DIRECTORY_KEY:
                return self.directory.get(key)
            root, count, _ = struct.unpack_from(
                _META_FMT, self.read(self._meta_page), 0
            )
            return {"root": root, "count": count, "unique": True} if root else None

    def store_header(self, key: tuple, header: dict) -> None:
        """Persist the header of the structure attached under ``key``."""
        with self._lock:
            if key != _DIRECTORY_KEY:
                self.directory[key] = header
                return
            page = self.read(self._meta_page)
            struct.pack_into(">QQ", page, 0, header["root"], header["count"])
            self.write(self._meta_page, bytes(page))

    def detach(self, key: tuple) -> None:
        """Drop a structure: its header and its flush registration (its
        pages are leaked until compaction)."""
        with self._lock:
            del self._flushers[key]
            self.directory.pop(key, None)

    def sync(self) -> None:
        """Write every dirty cached page and the header durably to disk."""
        with self._lock:
            self._check_open()
            # the directory's own tree sorts last: every other
            # structure's flush may still write its header into it
            for key in sorted(self._flushers, key=_DIRECTORY_KEY.__eq__):
                self._flushers[key]()
            dirty = sorted(self._dirty)
            if self._journal is not None and dirty:
                # batch the before-images with one journal sync barrier
                # instead of one fsync per page at write-through time
                self._journal.record_pages(
                    (page_id, self._on_disk_image(page_id))
                    for page_id in dirty
                    if self._journal.needs_page(page_id)
                )
            for page_id in dirty:
                self._write_through(page_id, self._cache[page_id])
            self._dirty.clear()
            self._write_header()
            self._fs.sync_file(self._file, self.durability)

    # -- page operations --------------------------------------------------

    def allocate(self) -> int:
        """Return the id of a fresh zeroed page, reusing freed pages first."""
        with self._lock:
            self._check_open()
            # the transaction must open *before* page_count/freelist
            # mutate, so the BEGIN snapshot captures the committed state
            self._ensure_journaled()
            if self._freelist_head != _NO_PAGE:
                page_id = self._freelist_head
                page = self.read(page_id)
                (self._freelist_head,) = struct.unpack_from(">Q", page, 0)
                self.write(page_id, bytes(self.page_size))
                return page_id
            page_id = self.page_count
            self.page_count += 1
            self.write(page_id, bytes(self.page_size))
            return page_id

    def free(self, page_id: int) -> None:
        """Return ``page_id`` to the free list."""
        with self._lock:
            self._check_open()
            self._validate_id(page_id)
            self._ensure_journaled()
            page = bytearray(self.page_size)
            struct.pack_into(">Q", page, 0, self._freelist_head)
            self.write(page_id, bytes(page))
            self._freelist_head = page_id

    def read(self, page_id: int) -> bytearray:
        """Return a mutable copy of the page image (callers own the copy).

        Disk reads verify the page checksum; the CRC trailer is zeroed in
        the returned image so clients always see pure payload bytes.
        """
        with self._lock:
            self._check_open()
            self._validate_id(page_id)
            if page_id in self._cache:
                self._cache.move_to_end(page_id)
                self._metric_read_hits.inc()
                return bytearray(self._cache[page_id])
            self._metric_read_misses.inc()
            self._file.seek(page_id * self.page_size)
            data = self._file.read(self.page_size)
            if len(data) < self.page_size:
                data = data.ljust(self.page_size, b"\x00")
            image = bytearray(data)
            self._verify_page(page_id, image)
            image[self.capacity :] = bytes(_TRAILER_SIZE)
            self._cache_put(page_id, image, dirty=False)
            return bytearray(image)

    def write(self, page_id: int, data: bytes) -> None:
        """Replace the page image; buffered until eviction or :meth:`sync`."""
        with self._lock:
            self._check_open()
            self._validate_id(page_id)
            self._ensure_journaled()
            if len(data) > self.page_size:
                raise PageError(
                    f"page image of {len(data)} bytes exceeds page size "
                    f"{self.page_size}"
                )
            image = bytearray(data.ljust(self.page_size, b"\x00"))
            if any(image[self.capacity :]):
                raise PageError(
                    f"page image of {len(data)} bytes overruns the "
                    f"{_TRAILER_SIZE}-byte checksum trailer; usable "
                    f"capacity is {self.capacity}"
                )
            self._metric_writes.inc()
            self._cache_put(page_id, image, dirty=True)

    # -- client metadata ----------------------------------------------------

    def get_meta(self) -> dict:
        """Return the client's record from the meta page: a small dict
        that must never grow with the number of structures (those are
        :attr:`directory` entries)."""
        with self._lock:
            page = self.read(self._meta_page)
        _, _, length = struct.unpack_from(_META_FMT, page, 0)
        if length == 0:
            return {}
        if length > self.capacity - _META_SIZE:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"meta dict length {length} exceeds page capacity",
                file=self.path,
                offset=self._meta_page * self.page_size,
            )
        try:
            return serialization.loads(bytes(page[_META_SIZE : _META_SIZE + length]))
        except (StorageError, ValueError, KeyError, struct.error) as exc:
            self._metric_corruption.inc()
            raise CorruptionError(
                f"undecodable meta dict: {exc}",
                file=self.path,
                offset=self._meta_page * self.page_size,
            ) from exc

    def set_meta(self, meta: dict) -> None:
        """Replace the client's record in the meta page (must fit in one
        page beside the directory root, which is kept)."""
        payload = serialization.dumps(meta)
        if len(payload) + _META_SIZE > self.capacity:
            raise PageError(
                f"meta dict of {len(payload)} bytes does not fit in one "
                f"{self.page_size}-byte page"
            )
        with self._lock:
            root, count, _ = struct.unpack_from(
                _META_FMT, self.read(self._meta_page), 0
            )
            self.write(
                self._meta_page,
                struct.pack(_META_FMT, root, count, len(payload)) + payload,
            )

    # -- internals ----------------------------------------------------------

    def _ensure_journaled(self) -> None:
        if self._journal is not None:
            self._journal.ensure_active()

    def _cache_put(self, page_id: int, image: bytearray, *, dirty: bool) -> None:
        self._cache[page_id] = image
        self._cache.move_to_end(page_id)
        if dirty:
            self._dirty.add(page_id)
        while len(self._cache) > self._cache_pages:
            victim, victim_image = self._cache.popitem(last=False)
            self._metric_evictions.inc()
            if victim in self._dirty:
                self._write_through(victim, victim_image)
                self._dirty.discard(victim)

    def _write_through(self, page_id: int, image: bytearray) -> None:
        if self._journal is not None and self._journal.needs_page(page_id):
            # write-ahead rule: the on-disk image must be safely in the
            # journal before this overwrite can clobber it
            self._journal.record_page(page_id, self._on_disk_image(page_id))
        # stamp the CRC into a copy, never the cached image: cache hits
        # must keep returning pure payload bytes
        stamped = bytearray(image)
        struct.pack_into(
            ">I", stamped, self.capacity, zlib.crc32(image[: self.capacity])
        )
        self._file.seek(page_id * self.page_size)
        self._file.write(stamped)

    def _on_disk_image(self, page_id: int) -> bytes:
        """The raw on-disk bytes of a page (CRC trailer included)."""
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        return data.ljust(self.page_size, b"\x00")

    def _verify_page(self, page_id: int, image: bytearray) -> None:
        payload = bytes(image[: self.capacity])
        (stored,) = struct.unpack_from(">I", image, self.capacity)
        computed = zlib.crc32(payload)
        if stored == computed:
            return
        if stored == 0 and not any(payload):
            return  # never-written page (file hole / short tail)
        self._metric_corruption.inc()
        raise CorruptionError(
            f"page {page_id} checksum mismatch (stored 0x{stored:08x}, "
            f"computed 0x{computed:08x})",
            file=self.path,
            offset=page_id * self.page_size,
        )

    def scrub(self) -> tuple[int, list[CorruptionError]]:
        """Verify every allocated page's *on-disk* checksum, bypassing the
        LRU cache (a dirty cached page is checked against its last
        committed image — the bytes recovery would restore). Collects
        failures instead of raising; each detection still counts in
        ``deeplens_corruption_detected_total``. Returns
        ``(pages_checked, errors)``.
        """
        errors: list[CorruptionError] = []
        with self._lock:
            self._check_open()
            checked = 0
            for page_id in range(1, self.page_count):
                image = bytearray(self._on_disk_image(page_id))
                checked += 1
                try:
                    self._verify_page(page_id, image)
                except CorruptionError as exc:
                    errors.append(exc)
        return checked, errors

    def packed_header(self) -> bytes:
        """The exact header bytes :meth:`sync` would write right now —
        the before-image the commit journal snapshots at BEGIN."""
        body = struct.pack(
            _HEADER_BODY_FMT,
            MAGIC,
            self.page_size,
            self.page_count,
            self._freelist_head,
            self._meta_page,
        )
        body += struct.pack(">I", zlib.crc32(body))
        return body.ljust(min(self.page_size, 512), b"\x00")

    def _write_header(self) -> None:
        self._file.seek(0)
        self._file.write(self.packed_header())
        self._file.flush()

    def _load_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_HEADER_SIZE)
        if len(raw) < _HEADER_SIZE:
            raise CorruptionError(
                f"truncated pager header ({len(raw)} of {_HEADER_SIZE} bytes)",
                file=self.path,
                offset=0,
            )
        magic = raw[:8]
        if magic != MAGIC:
            raise CorruptionError(
                f"bad magic {magic!r}; not a pager file of the {MAGIC!r} "
                f"layout (directory root in the meta page)",
                file=self.path,
                offset=0,
            )
        (crc,) = struct.unpack_from(">I", raw, _HEADER_BODY_SIZE)
        if zlib.crc32(raw[:_HEADER_BODY_SIZE]) != crc:
            self._metric_corruption.inc()
            raise CorruptionError(
                "pager header checksum mismatch",
                file=self.path,
                offset=0,
            )
        _, page_size, page_count, freelist_head, meta_page = struct.unpack_from(
            _HEADER_BODY_FMT, raw, 0
        )
        self.page_size = page_size
        self.page_count = page_count
        self._freelist_head = freelist_head
        self._meta_page = meta_page

    def _validate_id(self, page_id: int) -> None:
        if page_id <= 0 or page_id >= max(self.page_count, 1):
            raise PageError(f"page id {page_id} out of range (1..{self.page_count - 1})")

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self.path}: pager is closed")

    @property
    def capacity(self) -> int:
        """Usable bytes per page for client payloads (the CRC trailer is
        the pager's own)."""
        return self.page_size - _TRAILER_SIZE

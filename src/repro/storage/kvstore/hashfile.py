"""Persistent hash table (static hashing with overflow chains).

DeepLens supports "hash tables ... over any key" (Section 3.2) for equality
lookups on discrete metadata — labels, OCR tokens, video ids. This is the
disk structure behind :class:`repro.indexes.hash_index.HashIndex`: a fixed
power-of-two bucket directory where each bucket is a chain of pages holding
``(key, value)`` entries. It is a multimap: one key may map to many patch
identifiers.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator

from repro.errors import StorageError
from repro.storage.kvstore import serialization
from repro.storage.kvstore.pager import Pager

_NO_PAGE = 0


def _hash_key(key_bytes: bytes) -> int:
    # crc32 is stable across processes (unlike hash()) and fast enough;
    # bucket selection only needs uniformity, not cryptographic strength.
    return zlib.crc32(key_bytes)


def _frame(value: Any) -> bytes:
    """A page image: the serialized value behind its 4-byte length."""
    payload = serialization.dumps(value, compress_arrays=False)
    return struct.pack(">I", len(payload)) + payload


def _unframe(image: bytes) -> Any:
    """The value of a page written by :func:`_frame` (``None`` for a
    never-written page)."""
    (length,) = struct.unpack_from(">I", image, 0)
    return serialization.loads(bytes(image[4 : 4 + length])) if length else None


class HashFile:
    """A named persistent hash multimap inside a :class:`Pager`.

    Each bucket page stores ``serialization.dumps([next_page, entries])``
    where ``entries`` is a list of ``(key_bytes, value_bytes)`` pairs; pages
    chain through ``next_page`` when a bucket overflows.
    """

    def __init__(self, pager: Pager, name: str = "hash", n_buckets: int = 256) -> None:
        if n_buckets < 1 or n_buckets & (n_buckets - 1):
            raise StorageError(f"n_buckets must be a power of two, got {n_buckets}")
        self.pager = pager
        self.name = name
        self._key = ("hash", name)
        #: the header as last persisted — a flush stores it only on change
        self._stored = header = pager.attach(self._key, self._flush)
        if header is None:
            self.n_buckets = n_buckets
            self._directory = [pager.allocate() for _ in range(n_buckets)]
            for page_id in self._directory:
                self._write_bucket(page_id, _NO_PAGE, [])
            self._count = 0
            self._dir_pages = self._write_directory()
        else:
            self.n_buckets = header["n_buckets"]
            self._count = header["count"]
            self._dir_pages = list(header["dir_pages"])
            self._directory = self._read_directory()

    def __len__(self) -> int:
        return self._count

    def put(self, key: Any, value: bytes) -> None:
        """Insert one ``key -> value`` entry (duplicates accumulate)."""
        if not isinstance(value, (bytes, bytearray)):
            raise StorageError(
                f"hash values must be bytes, got {type(value).__name__}"
            )
        key_bytes = serialization.encode_key(key)
        entry_size = len(key_bytes) + len(value)
        if entry_size > self.pager.capacity // 2:
            raise StorageError(
                f"hash entry of {entry_size} bytes exceeds half a page; "
                f"store the payload in a BlobHeap"
            )
        page_id = self._bucket_for(key_bytes)
        # Append into the first page of the chain with room; otherwise grow
        # the chain with a fresh head so hot buckets stay one seek deep.
        next_page, entries = self._read_bucket(page_id)
        entries.append((key_bytes, bytes(value)))
        if self._bucket_fits(next_page, entries):
            self._write_bucket(page_id, next_page, entries)
        else:
            entries.pop()
            overflow = self.pager.allocate()
            self._write_bucket(overflow, next_page, entries)
            self._write_bucket(page_id, overflow, [(key_bytes, bytes(value))])
        self._count += 1

    def get(self, key: Any) -> list[bytes]:
        """Return every value stored under ``key`` (empty list if none)."""
        key_bytes = serialization.encode_key(key)
        out: list[bytes] = []
        page_id = self._bucket_for(key_bytes)
        while page_id != _NO_PAGE:
            next_page, entries = self._read_bucket(page_id)
            out.extend(value for k, value in entries if k == key_bytes)
            page_id = next_page
        return out

    def contains(self, key: Any) -> bool:
        return bool(self.get(key))

    def delete(self, key: Any, value: bytes | None = None) -> int:
        """Remove entries under ``key`` (all, or only those equal to ``value``)."""
        key_bytes = serialization.encode_key(key)
        removed = 0
        page_id = self._bucket_for(key_bytes)
        while page_id != _NO_PAGE:
            next_page, entries = self._read_bucket(page_id)
            kept = [
                (k, v)
                for k, v in entries
                if not (k == key_bytes and (value is None or v == value))
            ]
            if len(kept) != len(entries):
                removed += len(entries) - len(kept)
                self._write_bucket(page_id, next_page, kept)
            page_id = next_page
        self._count -= removed
        return removed

    def items(self) -> Iterator[tuple[Any, bytes]]:
        """Yield every ``(key, value)`` pair (bucket order, not key order)."""
        for head in self._directory:
            page_id = head
            while page_id != _NO_PAGE:
                next_page, entries = self._read_bucket(page_id)
                for key_bytes, value in entries:
                    yield serialization.decode_key(key_bytes), value
                page_id = next_page

    def drop(self) -> None:
        """Remove the hash file from its pager: the header is deleted and
        the object must not be used afterwards (pages are leaked until
        compaction)."""
        self.pager.detach(self._key)

    # -- internals ----------------------------------------------------------

    def _bucket_for(self, key_bytes: bytes) -> int:
        return self._directory[_hash_key(key_bytes) & (self.n_buckets - 1)]

    def _read_bucket(self, page_id: int) -> tuple[int, list[tuple[bytes, bytes]]]:
        payload = _unframe(self.pager.read(page_id))
        if payload is None:
            return _NO_PAGE, []
        return payload[0], [(k, v) for k, v in payload[1]]

    def _write_bucket(
        self, page_id: int, next_page: int, entries: list[tuple[bytes, bytes]]
    ) -> None:
        self.pager.write(page_id, _frame([next_page, [list(e) for e in entries]]))

    def _bucket_fits(self, next_page: int, entries: list[tuple[bytes, bytes]]) -> bool:
        image = _frame([next_page, [list(e) for e in entries]])
        return len(image) <= self.pager.capacity

    def _flush(self) -> None:
        """What the pager runs at every sync: the header, if it moved."""
        header = {
            "n_buckets": self.n_buckets,
            "count": self._count,
            "dir_pages": list(self._dir_pages),
        }
        if header != self._stored:
            self.pager.store_header(self._key, header)
            self._stored = header

    # The bucket directory can be arbitrarily large, so it lives in its
    # own chain of pages rather than in the header entry.
    _DIR_SLOTS = 400  # 8-byte ids with serialization overhead per 4K page

    def _write_directory(self) -> list[int]:
        pages = []
        for start in range(0, len(self._directory), self._DIR_SLOTS):
            chunk = self._directory[start : start + self._DIR_SLOTS]
            page_id = self.pager.allocate()
            self.pager.write(page_id, _frame(list(chunk)))
            pages.append(page_id)
        return pages

    def _read_directory(self) -> list[int]:
        out: list[int] = []
        for page_id in self._dir_pages:
            out.extend(_unframe(self.pager.read(page_id)))
        return out

"""Single-dimensional indexes: hash, B+ tree, sorted file.

Section 3.2: "Over string valued or discrete metadata, the index choices
are straight-forward. We support hash tables and B+ Trees over any key" —
plus sorted files. These classes adapt the kvstore substrate into the
common shape the query layer consumes: metadata key -> patch id.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.errors import IndexError_
from repro.storage.kvstore import BPlusTree, HashFile, Pager, SortedRecordFile


def _pack_id(patch_id: int) -> bytes:
    return struct.pack(">q", patch_id)


def _unpack_id(payload: bytes) -> int:
    return struct.unpack(">q", payload)[0]


class HashIndex:
    """Equality index: key -> patch ids. Backed by a persistent hash file."""

    kind = "hash"

    def __init__(self, pager: Pager, name: str, n_buckets: int = 256) -> None:
        self._store = HashFile(pager, f"idx:{name}", n_buckets=n_buckets)
        self.name = name

    def insert(self, key: Any, patch_id: int) -> None:
        self._store.put(key, _pack_id(patch_id))

    def lookup(self, key: Any) -> list[int]:
        return [_unpack_id(payload) for payload in self._store.get(key)]

    def delete(self, key: Any, patch_id: int | None = None) -> int:
        payload = None if patch_id is None else _pack_id(patch_id)
        return self._store.delete(key, payload)

    def __len__(self) -> int:
        return len(self._store)

    def drop(self) -> None:
        """Delete the on-disk structure (the index must not be used after)."""
        self._store.drop()

    def range(self, lo: Any = None, hi: Any = None) -> Iterator[tuple[Any, int]]:
        raise IndexError_(
            "hash indexes do not support range scans; build a B+ tree or "
            "sorted-file index for range predicates"
        )


class BTreeIndex:
    """Ordered index: key -> patch ids, supporting range scans."""

    kind = "btree"

    def __init__(self, pager: Pager, name: str, order: int = 64) -> None:
        self._store = BPlusTree(pager, f"idx:{name}", order=order, unique=False)
        self.name = name

    def insert(self, key: Any, patch_id: int) -> None:
        self._store.insert(key, _pack_id(patch_id))

    def bulk_load(self, sorted_items: list[tuple[Any, int]]) -> None:
        self._store.bulk_load(
            [(key, _pack_id(patch_id)) for key, patch_id in sorted_items]
        )

    def lookup(self, key: Any) -> list[int]:
        return [_unpack_id(payload) for payload in self._store.get(key)]

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        *,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        for key, payload in self._store.range(
            lo, hi, include_lo=include_lo, include_hi=include_hi
        ):
            yield key, _unpack_id(payload)

    def delete(self, key: Any, patch_id: int | None = None) -> int:
        payload = None if patch_id is None else _pack_id(patch_id)
        return self._store.delete(key, payload)

    def __len__(self) -> int:
        return len(self._store)

    def drop(self) -> None:
        """Delete the on-disk structure (the index must not be used after)."""
        self._store.drop()


class SortedFileIndex:
    """Sorted-file index: bulk-built, binary-searched, range-scannable."""

    kind = "sorted"

    def __init__(self, path) -> None:
        self._store = SortedRecordFile(path)
        self.name = str(path)

    def bulk_build(self, items: list[tuple[Any, int]]) -> None:
        self._store.bulk_build(
            [(key, _pack_id(patch_id)) for key, patch_id in items]
        )

    def append(self, key: Any, patch_id: int) -> None:
        self._store.append(key, _pack_id(patch_id))

    def lookup(self, key: Any) -> list[int]:
        return [_unpack_id(payload) for payload in self._store.get(key)]

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        *,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        for key, payload in self._store.range(
            lo, hi, include_lo=include_lo, include_hi=include_hi
        ):
            yield key, _unpack_id(payload)

    def __len__(self) -> int:
        return len(self._store)

    def close(self) -> None:
        self._store.close()

"""Disk-resident B+ tree.

This is the ordered keyed store that plays BerkeleyDB's role in the paper's
prototype (Section 3.1/3.2): it backs the Frame File (sorted by frame
number), the single-attribute B+ tree indexes, and the temporal filter
push-down experiments. Keys are order-preserving byte strings produced by
:func:`repro.storage.kvstore.serialization.encode_key`; values are small
byte strings (large payloads belong in a :class:`~repro.storage.kvstore.heap.BlobHeap`
with only the pointer stored here).

Properties:

* point lookups, duplicate keys (multimap mode) or upsert (unique mode);
* range scans ``[lo, hi]`` via linked leaves — the access path behind
  temporal predicates such as ``frameno BETWEEN a AND b``;
* node size bounded by both a key-count order and the physical page size;
* lazy deletion (no rebalancing), the usual trade-off for read-mostly
  analytical stores like this one.
"""

from __future__ import annotations

import bisect
import struct
from typing import Any, Iterator

from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.kvstore import serialization
from repro.storage.kvstore.pager import Pager

_NO_PAGE = 0


class _Node:
    """In-memory image of one tree page."""

    __slots__ = ("page_id", "leaf", "keys", "values", "children", "next_leaf")

    def __init__(
        self,
        page_id: int,
        leaf: bool,
        keys: list[bytes] | None = None,
        values: list[bytes] | None = None,
        children: list[int] | None = None,
        next_leaf: int = _NO_PAGE,
    ) -> None:
        self.page_id = page_id
        self.leaf = leaf
        self.keys = keys if keys is not None else []
        self.values = values if values is not None else []
        self.children = children if children is not None else []
        self.next_leaf = next_leaf

    def to_bytes(self) -> bytes:
        if self.leaf:
            payload = [True, self.next_leaf, self.keys, self.values]
        else:
            payload = [False, self.keys, self.children]
        body = serialization.dumps(payload, compress_arrays=False)
        return struct.pack(">I", len(body)) + body

    @classmethod
    def from_bytes(cls, page_id: int, image: bytes) -> "_Node":
        (length,) = struct.unpack_from(">I", image, 0)
        payload = serialization.loads(image[4 : 4 + length])
        if payload[0]:
            return cls(
                page_id,
                leaf=True,
                next_leaf=payload[1],
                keys=list(payload[2]),
                values=list(payload[3]),
            )
        return cls(page_id, leaf=False, keys=list(payload[1]), children=list(payload[2]))


class BPlusTree:
    """A named B+ tree stored inside a :class:`Pager`.

    Several trees can share one pager. A tree's header (root page, entry
    count, uniqueness) is whatever :meth:`Pager.attach` hands back for
    ``("btree", name)``; the tree reports a changed header to
    :meth:`Pager.store_header` from the flush the pager runs at every
    sync, and never learns where the pager keeps it.

    Parameters
    ----------
    pager:
        Backing page manager.
    name:
        Tree name inside the pager file.
    order:
        Maximum keys per node (splits also trigger on physical page
        overflow, whichever comes first).
    unique:
        When true, inserting an existing key raises
        :class:`DuplicateKeyError` unless ``replace=True``; when false the
        tree is a multimap and ``get`` returns every value for the key.
    """

    def __init__(
        self, pager: Pager, name: str = "btree", order: int = 64, unique: bool = False
    ) -> None:
        if order < 4:
            raise StorageError(f"B+ tree order {order} too small (minimum 4)")
        self.pager = pager
        self.name = name
        self.order = order
        # deserialized-node cache: page id -> _Node; _write_node refreshes
        # entries, so reads skip per-page deserialization on warm paths
        self._node_cache: dict[int, _Node] = {}
        self._node_cache_limit = 4096
        self._dirty_nodes: set[int] = set()
        self._key = ("btree", name)
        #: the header as last persisted — a flush stores it only on change
        self._stored = header = pager.attach(self._key, self._flush)
        if header is None:
            root = _Node(pager.allocate(), leaf=True)
            self._write_node(root)
            self._root_id = root.page_id
            self._count = 0
            self.unique = unique
        else:
            self._root_id = header["root"]
            self._count = header["count"]
            self.unique = header["unique"]

    # -- public API -----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def insert(self, key: Any, value: bytes, *, replace: bool = False) -> None:
        """Insert ``key -> value``.

        In unique mode an existing key raises unless ``replace`` is given;
        in multimap mode duplicates accumulate in insertion order.
        """
        if not isinstance(value, (bytes, bytearray)):
            raise StorageError(
                f"B+ tree values must be bytes, got {type(value).__name__}"
            )
        key_bytes = serialization.encode_key(key)
        self._check_entry_size(key_bytes, value)
        split = self._insert(self._root_id, key_bytes, bytes(value), replace)
        if split is not None:
            sep_key, right_id = split
            new_root = _Node(
                self.pager.allocate(),
                leaf=False,
                keys=[sep_key],
                children=[self._root_id, right_id],
            )
            self._write_node(new_root)
            self._root_id = new_root.page_id

    def get(self, key: Any) -> list[bytes]:
        """Return all values stored under ``key`` (empty list if none)."""
        key_bytes = serialization.encode_key(key)
        node = self._find_leaf(key_bytes)
        out = []
        while True:
            idx = bisect.bisect_left(node.keys, key_bytes)
            while idx < len(node.keys) and node.keys[idx] == key_bytes:
                out.append(node.values[idx])
                idx += 1
            if idx < len(node.keys) or node.next_leaf == _NO_PAGE:
                break
            node = self._read_node(node.next_leaf)
            if not node.keys or node.keys[0] != key_bytes:
                break
        return out

    def get_one(self, key: Any) -> bytes:
        """Return the single value for ``key`` or raise :class:`KeyNotFoundError`."""
        values = self.get(key)
        if not values:
            raise KeyNotFoundError(f"key {key!r} not found in B+ tree {self.name!r}")
        return values[0]

    def contains(self, key: Any) -> bool:
        return bool(self.get(key))

    def delete(self, key: Any, value: bytes | None = None) -> int:
        """Remove entries for ``key`` (all of them, or only those equal to
        ``value``). Returns the number removed. Lazy: leaves may underflow.
        """
        key_bytes = serialization.encode_key(key)
        removed = 0
        node = self._find_leaf(key_bytes)
        while True:
            changed = False
            idx = bisect.bisect_left(node.keys, key_bytes)
            while idx < len(node.keys) and node.keys[idx] == key_bytes:
                if value is None or node.values[idx] == value:
                    del node.keys[idx]
                    del node.values[idx]
                    removed += 1
                    changed = True
                else:
                    idx += 1
            if changed:
                self._write_node(node)
            if node.next_leaf == _NO_PAGE:
                break
            nxt = self._read_node(node.next_leaf)
            if not nxt.keys or nxt.keys[0] > key_bytes:
                break
            node = nxt
        self._count -= removed
        return removed

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        *,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[Any, bytes]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi`` in key order.

        ``None`` bounds are open. This linked-leaf walk is the physical
        access path for temporal filter push-down.
        """
        lo_bytes = None if lo is None else serialization.encode_key(lo)
        hi_bytes = None if hi is None else serialization.encode_key(hi)
        node = self._leftmost_leaf() if lo_bytes is None else self._find_leaf(lo_bytes)
        while True:
            for idx, key_bytes in enumerate(node.keys):
                if lo_bytes is not None:
                    if key_bytes < lo_bytes:
                        continue
                    if key_bytes == lo_bytes and not include_lo:
                        continue
                if hi_bytes is not None:
                    if key_bytes > hi_bytes:
                        return
                    if key_bytes == hi_bytes and not include_hi:
                        return
                yield serialization.decode_key(key_bytes), node.values[idx]
            if node.next_leaf == _NO_PAGE:
                return
            node = self._read_node(node.next_leaf)

    def items(self) -> Iterator[tuple[Any, bytes]]:
        """Yield every ``(key, value)`` pair in key order."""
        return self.range()

    def first(self) -> tuple[Any, bytes]:
        for pair in self.items():
            return pair
        raise KeyNotFoundError(f"B+ tree {self.name!r} is empty")

    def bulk_load(self, sorted_items: list[tuple[Any, bytes]]) -> None:
        """Replace the tree contents from already-sorted ``(key, value)`` pairs.

        Builds leaves left-to-right then stacks internal levels — the fast
        path index builders use when the input is pre-sorted.
        """
        encoded = [(serialization.encode_key(k), bytes(v)) for k, v in sorted_items]
        for i in range(1, len(encoded)):
            if encoded[i - 1][0] > encoded[i][0]:
                raise StorageError("bulk_load input is not sorted by key")
        for key_bytes, value in encoded:
            self._check_entry_size(key_bytes, value)
        half = max(self.order // 2, 2)
        leaves: list[_Node] = []
        for start in range(0, len(encoded), half) or [0]:
            chunk = encoded[start : start + half]
            node = _Node(
                self.pager.allocate(),
                leaf=True,
                keys=[k for k, _ in chunk],
                values=[v for _, v in chunk],
            )
            leaves.append(node)
        if not leaves:
            leaves = [_Node(self.pager.allocate(), leaf=True)]
        for left, right in zip(leaves, leaves[1:]):
            left.next_leaf = right.page_id
        for node in leaves:
            self._write_node(node)
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), half):
                group = level[start : start + half]
                parent = _Node(
                    self.pager.allocate(),
                    leaf=False,
                    keys=[self._min_key(child) for child in group[1:]],
                    children=[child.page_id for child in group],
                )
                self._write_node(parent)
                parents.append(parent)
            level = parents
        self._root_id = level[0].page_id
        self._count = len(encoded)

    def clear(self) -> None:
        """Drop every entry (old pages are leaked until compaction)."""
        root = _Node(self.pager.allocate(), leaf=True)
        self._write_node(root)
        self._root_id = root.page_id
        self._count = 0

    def drop(self) -> None:
        """Remove the tree from its pager: the header is deleted and the
        object must not be used afterwards (pages are leaked until
        compaction, as with :meth:`clear`)."""
        self._dirty_nodes.clear()
        self.pager.detach(self._key)

    # -- internals ----------------------------------------------------------

    def _insert(
        self, page_id: int, key_bytes: bytes, value: bytes, replace: bool
    ) -> tuple[bytes, int] | None:
        node = self._read_node(page_id)
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key_bytes)
            if self.unique and idx < len(node.keys) and node.keys[idx] == key_bytes:
                if not replace:
                    raise DuplicateKeyError(
                        f"duplicate key {serialization.decode_key(key_bytes)!r} "
                        f"in unique B+ tree {self.name!r}"
                    )
                node.values[idx] = value
                self._write_node(node)
                return None
            insert_at = bisect.bisect_right(node.keys, key_bytes)
            node.keys.insert(insert_at, key_bytes)
            node.values.insert(insert_at, value)
            self._count += 1
        else:
            child_idx = bisect.bisect_right(node.keys, key_bytes)
            split = self._insert(node.children[child_idx], key_bytes, value, replace)
            if split is None:
                return None
            sep_key, right_id = split
            node.keys.insert(child_idx, sep_key)
            node.children.insert(child_idx + 1, right_id)
        if self._overflows(node):
            return self._split(node)
        self._write_node(node)
        return None

    def _split(self, node: _Node) -> tuple[bytes, int]:
        mid = len(node.keys) // 2
        if node.leaf:
            right = _Node(
                self.pager.allocate(),
                leaf=True,
                keys=node.keys[mid:],
                values=node.values[mid:],
                next_leaf=node.next_leaf,
            )
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            node.next_leaf = right.page_id
            sep = right.keys[0]
        else:
            sep = node.keys[mid]
            right = _Node(
                self.pager.allocate(),
                leaf=False,
                keys=node.keys[mid + 1 :],
                children=node.children[mid + 1 :],
            )
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        self._write_node(node)
        self._write_node(right)
        return sep, right.page_id

    def _overflows(self, node: _Node) -> bool:
        if len(node.keys) > self.order:
            return True
        # cheap upper-bound estimate first; exact serialization only when
        # the node is plausibly near the page boundary
        approx = 64 + 10 * len(node.keys) + sum(len(key) for key in node.keys)
        if node.leaf:
            approx += sum(len(value) for value in node.values) + 5 * len(node.values)
        else:
            approx += 13 * len(node.children)
        if approx <= int(self.pager.capacity * 0.7):
            return False
        return len(node.to_bytes()) > self.pager.capacity

    def _find_leaf(self, key_bytes: bytes) -> _Node:
        node = self._read_node(self._root_id)
        while not node.leaf:
            idx = bisect.bisect_left(node.keys, key_bytes)
            node = self._read_node(node.children[idx])
        return node

    def _leftmost_leaf(self) -> _Node:
        node = self._read_node(self._root_id)
        while not node.leaf:
            node = self._read_node(node.children[0])
        return node

    def _min_key(self, node: _Node) -> bytes:
        while not node.leaf:
            node = self._read_node(node.children[0])
        return node.keys[0]

    def _read_node(self, page_id: int) -> _Node:
        node = self._node_cache.get(page_id)
        if node is None:
            node = _Node.from_bytes(page_id, bytes(self.pager.read(page_id)))
            self._cache_node(node)
        return node

    def _write_node(self, node: _Node) -> None:
        # Lazy write-back: the mutation lives in the node cache and is
        # serialized to its page at sync time (or cache eviction). This is
        # what keeps inserts O(entries-moved) instead of O(node-serialize).
        self._cache_node(node)
        self._dirty_nodes.add(node.page_id)

    def _flush_dirty_nodes(self) -> None:
        for page_id in sorted(self._dirty_nodes):
            node = self._node_cache.get(page_id)
            if node is None:
                continue  # already flushed at eviction
            self._flush_one(node)
        self._dirty_nodes.clear()

    def _flush_one(self, node: _Node) -> None:
        image = node.to_bytes()
        if len(image) > self.pager.capacity:
            raise StorageError(
                f"B+ tree node of {len(image)} bytes exceeds the "
                f"{self.pager.capacity}-byte page capacity; store large "
                f"values in a BlobHeap and index the BlobRef instead"
            )
        self.pager.write(node.page_id, image)

    def _cache_node(self, node: _Node) -> None:
        if len(self._node_cache) >= self._node_cache_limit:
            self._flush_dirty_nodes()
            self._node_cache.clear()  # simple epoch eviction
        self._node_cache[node.page_id] = node

    def _check_entry_size(self, key_bytes: bytes, value: bytes) -> None:
        budget = self.pager.capacity // 4
        if len(key_bytes) + len(value) > budget:
            raise StorageError(
                f"entry of {len(key_bytes) + len(value)} bytes exceeds the "
                f"per-entry budget of {budget} bytes; store the payload in a "
                f"BlobHeap and index the BlobRef instead"
            )

    def _flush(self) -> None:
        """What the pager runs at every sync: dirty nodes to their pages,
        then the header if it moved."""
        self._flush_dirty_nodes()
        header = {"root": self._root_id, "count": self._count, "unique": self.unique}
        if header != self._stored:
            self.pager.store_header(self._key, header)
            self._stored = header

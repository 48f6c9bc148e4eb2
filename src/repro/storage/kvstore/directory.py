"""Keyed directory: the one growable home of small named records.

A :class:`Directory` is a mutable mapping from tuple keys
(``("btree", "col:detections")``, ``("index", "detections", "label",
"hash")``) to small serializable values, stored as the entries of one
unique :class:`~repro.storage.kvstore.btree.BPlusTree`. Each
:class:`~repro.storage.kvstore.pager.Pager` owns exactly one
(:attr:`Pager.directory`); its pages are ordinary pager pages, so an
update dirties the leaf holding that key and nothing else, rides the
commit journal like any other page write, and leaves no garbage behind.

:meth:`section` narrows a directory to the keys under a prefix — the
handle a component gets so that it can read, write, delete and
enumerate its own entries without seeing anyone else's.
"""

from __future__ import annotations

import copy
from collections.abc import MutableMapping
from typing import Any, Iterator

from repro.storage.kvstore import serialization


class Directory(MutableMapping):
    """Tuple key -> value entries of one unique B+ tree.

    ``open_tree()`` returns that tree and is called at the first read or
    write, not before: handing out the directory (or a section of it)
    touches no page. ``lock`` is the owning pager's: an entry may be
    written by a flush running inside :meth:`Pager.sync` while another
    thread reads one.
    """

    def __init__(self, open_tree, lock) -> None:
        self._open_tree = open_tree
        self._opened = None
        self._lock = lock
        self._prefix: tuple = ()
        self._whole = self

    def section(self, *prefix: str) -> "Directory":
        """The sub-directory of keys starting with ``prefix`` (which its
        own keys then omit)."""
        section = copy.copy(self)
        section._prefix = self._prefix + prefix
        return section

    @property
    def _tree(self):
        whole = self._whole
        if whole._opened is None:
            whole._opened = whole._open_tree()
        return whole._opened

    def __getitem__(self, key: tuple) -> Any:
        with self._lock:
            values = self._tree.get(self._prefix + key)
        if not values:
            raise KeyError(key)
        return serialization.loads(values[0])

    def __setitem__(self, key: tuple, value: Any) -> None:
        payload = serialization.dumps(value, compress_arrays=False)
        with self._lock:
            self._tree.insert(self._prefix + key, payload, replace=True)

    def __delitem__(self, key: tuple) -> None:
        with self._lock:
            removed = self._tree.delete(self._prefix + key)
        if not removed:
            raise KeyError(key)

    def items(self) -> list[tuple[tuple, Any]]:
        """Every ``(key, value)`` under the prefix, in key order — one
        leaf walk, not a lookup per key."""
        skip = len(self._prefix)
        found = []
        with self._lock:
            for key, payload in self._tree.range(lo=self._prefix):
                if key[:skip] != self._prefix:
                    break
                found.append((key[skip:], serialization.loads(payload)))
        return found

    def __iter__(self) -> Iterator[tuple]:
        return iter([key for key, _ in self.items()])

    def __len__(self) -> int:
        return len(self.items())

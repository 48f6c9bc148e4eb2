"""Embedded key-value storage substrate (the BerkeleyDB stand-in).

Public surface:

* :class:`~repro.storage.kvstore.pager.Pager` — fixed-size page manager.
* :class:`~repro.storage.kvstore.directory.Directory` — the pager's keyed
  directory of structure headers and small named records.
* :class:`~repro.storage.kvstore.btree.BPlusTree` — ordered keyed store.
* :class:`~repro.storage.kvstore.hashfile.HashFile` — persistent hash multimap.
* :class:`~repro.storage.kvstore.recordfile.SortedRecordFile` — sorted file.
* :class:`~repro.storage.kvstore.heap.BlobHeap` — append-only large-value heap.
* ``dumps`` / ``loads`` / ``encode_key`` / ``decode_key`` — record and key codecs.
"""

from repro.storage.kvstore.btree import BPlusTree
from repro.storage.kvstore.directory import Directory
from repro.storage.kvstore.hashfile import HashFile
from repro.storage.kvstore.heap import BlobHeap, BlobRef
from repro.storage.kvstore.pager import Pager
from repro.storage.kvstore.recordfile import SortedRecordFile
from repro.storage.kvstore.serialization import (
    decode_key,
    dumps,
    encode_key,
    loads,
)

__all__ = [
    "BPlusTree",
    "BlobHeap",
    "BlobRef",
    "Directory",
    "HashFile",
    "Pager",
    "SortedRecordFile",
    "decode_key",
    "dumps",
    "encode_key",
    "loads",
]

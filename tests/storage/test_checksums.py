"""Checksum verification, positioned corruption errors, and rebuilds.

Every pager page, blob-heap record, and metadata-segment block carries a
CRC32 verified on read. These tests flip single bits in each file kind
and assert the failure mode the design promises: primary data
(``patches.heap``, ``catalog.db``) surfaces a positioned
:class:`~repro.errors.CorruptionError`; derived state (``metadata.seg``
blocks, statistics snapshots) is quarantined and rebuilt transparently,
with the repair visible in ``db.metrics()`` and ``recovery_report()``.
"""

import os
import struct
import zlib

import numpy as np
import pytest

from repro.core import DeepLens
from repro.core.catalog import Catalog
from repro.core.patch import Patch
from repro.errors import CorruptionError, StorageError
from repro.storage.faultfs import FileOps
from repro.storage.kvstore import serialization
from repro.storage.kvstore.heap import BlobHeap
from repro.storage.kvstore.pager import Pager


def _patches(n, start=0):
    rng = np.random.default_rng(start)
    for i in range(start, start + n):
        patch = Patch.from_frame(
            "vid", i, rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = "car" if i % 2 == 0 else "person"
        yield patch


def _flip_bit(path, offset):
    with open(path, "r+b") as file:
        file.seek(offset)
        byte = file.read(1)
        file.seek(offset)
        file.write(bytes([byte[0] ^ 0x01]))


def _seed(workdir, n=12):
    with Catalog(workdir, durability="flush") as catalog:
        catalog.materialize(_patches(n), "base")


# -- primary data: corruption is surfaced, positioned ------------------


def test_bitflipped_heap_record_raises_positioned_error(tmp_path):
    _seed(tmp_path)
    heap_path = tmp_path / "patches.heap"
    # past the 16-byte header and the first 13-byte record header: inside
    # the first patch record's payload
    _flip_bit(heap_path, 48)
    with Catalog(tmp_path, durability="flush") as catalog:
        with pytest.raises(CorruptionError) as excinfo:
            list(catalog.collection("base").scan())
    assert excinfo.value.file == str(heap_path)
    assert excinfo.value.offset is not None
    assert "patches.heap" in str(excinfo.value)


def test_bitflipped_pager_page_raises_positioned_error(tmp_path):
    _seed(tmp_path)
    pager_path = str(tmp_path / "catalog.db")
    with Catalog(tmp_path, durability="flush") as catalog:
        page_size = catalog.pager.page_size
        meta_page = catalog.pager._meta_page
    _flip_bit(pager_path, meta_page * page_size + 100)
    with pytest.raises(CorruptionError) as excinfo:
        Catalog(tmp_path, durability="flush")
    assert excinfo.value.file == pager_path
    assert excinfo.value.offset == meta_page * page_size


def test_zeroed_meta_page_raises_positioned_error(tmp_path):
    """Satellite: a meta page that reads as all zeroes (a hole left by a
    partial write) must not present a populated catalog as empty."""
    _seed(tmp_path)
    pager_path = str(tmp_path / "catalog.db")
    with Catalog(tmp_path, durability="flush") as catalog:
        page_size = catalog.pager.page_size
        meta_page = catalog.pager._meta_page
    with open(pager_path, "r+b") as file:
        file.seek(meta_page * page_size)
        file.write(bytes(page_size))
    with pytest.raises(CorruptionError) as excinfo:
        Catalog(tmp_path, durability="flush")
    assert excinfo.value.file == pager_path
    assert excinfo.value.offset == meta_page * page_size
    assert str(excinfo.value.offset) in str(excinfo.value)


def test_truncated_pager_header_raises_positioned_error(tmp_path):
    _seed(tmp_path)
    pager_path = str(tmp_path / "catalog.db")
    with open(pager_path, "r+b") as file:
        file.truncate(10)
    with pytest.raises(CorruptionError) as excinfo:
        Catalog(tmp_path, durability="flush")
    assert excinfo.value.file == pager_path
    assert excinfo.value.offset == 0


def test_torn_heap_tail_raises_positioned_error(tmp_path):
    """A record whose payload never fully landed reads back short."""
    heap = BlobHeap(tmp_path / "t.heap")
    ref = heap.put(b"x" * 1000)
    heap.close()
    with open(tmp_path / "t.heap", "r+b") as file:
        file.truncate(ref.offset + 13 + 500)
    heap = BlobHeap(tmp_path / "t.heap")
    with pytest.raises(CorruptionError) as excinfo:
        heap.get(ref)
    assert excinfo.value.offset == ref.offset
    heap.close()


# -- derived data: corruption is quarantined and rebuilt ----------------


def test_bitflipped_segment_block_rebuilds_transparently(tmp_path):
    with DeepLens(tmp_path, durability="flush") as db:
        db.catalog.materialize(_patches(12), "base")
        expected = [
            (p.patch_id, p.metadata["label"])
            for p in db.catalog.collection("base").scan()
        ]
    seg_path = tmp_path / "catalog" / "metadata.seg"
    size = os.path.getsize(seg_path)
    assert size > 16
    _flip_bit(seg_path, (16 + size) // 2)

    with DeepLens(tmp_path, durability="flush") as db:
        got = [
            (p.patch_id, p.metadata["label"])
            for p in db.catalog.collection("base").scan(load_data=False)
        ]
        assert got == expected  # the scan never saw the corruption
        counters = db.metrics()["counters"]
        assert counters["deeplens_segment_rebuilds_total"] >= 1
        kinds = [e["kind"] for e in db.recovery_report()["events"]]
        assert "segment_quarantined" in kinds

    # the rebuild persisted: a later clean session scans without repair
    with DeepLens(tmp_path, durability="flush") as db:
        got = [
            (p.patch_id, p.metadata["label"])
            for p in db.catalog.collection("base").scan(load_data=False)
        ]
        assert got == expected
        assert (
            db.metrics()["counters"].get("deeplens_segment_rebuilds_total", 0)
            == 0
        )


def test_corrupt_sealed_block_mid_scan_resumes_without_dup_or_loss(
    tmp_path, monkeypatch
):
    """A scan that already yielded rows hits a corrupt sealed block: the
    segment rebuilds and the scan resumes after the last delivered row —
    no duplicates, no gaps."""
    import repro.storage.metadata_segment as seg_mod

    monkeypatch.setattr(seg_mod, "BLOCK_ROWS", 4)
    with Catalog(tmp_path, durability="flush") as catalog:
        catalog.materialize(_patches(12), "base")
        expected = [
            (p.patch_id, p.metadata["label"])
            for p in catalog.collection("base").scan()
        ]
        blocks = catalog.segments.segment("base")._blocks
        assert len(blocks) == 3
        second_block_offset = blocks[1].ref.offset
    _flip_bit(tmp_path / "metadata.seg", second_block_offset + 20)
    with Catalog(tmp_path, durability="flush") as catalog:
        rows = []
        for batch in catalog.collection("base").scan_batches(
            2, load_data=False
        ):
            rows.extend((p.patch_id, p.metadata["label"]) for p in batch)
        assert rows == expected
        kinds = [e["kind"] for e in catalog.recovery_report()["events"]]
        assert "segment_quarantined" in kinds


def test_corrupt_stats_snapshot_rebuilds_from_scan(tmp_path):
    _seed(tmp_path)
    with Catalog(tmp_path, durability="flush") as catalog:
        good = catalog.statistics_for("base")
        assert good is not None
        row_count = good.row_count
        # corrupt the persisted snapshot in place: point its ref at a
        # blob that is not a statistics payload
        bogus = catalog.heap.put(b"not a stats snapshot").to_tuple()
        catalog.snapshots.refs[("stats", "base")] = [*bogus, *bogus]
        catalog._stats.pop("base", None)
        rebuilt = catalog.statistics_for("base")
        assert rebuilt is not None
        assert rebuilt.row_count == row_count
        kinds = [e["kind"] for e in catalog.recovery_report()["events"]]
        assert "stats_rebuilt" in kinds


# -- the never-deployed v1 formats are gone: their magics are rejected -----


def test_v1_pager_magic_is_rejected(tmp_path):
    path = tmp_path / "v1.db"
    page_size = 4096
    meta = serialization.dumps({"hello": 1})
    header = struct.pack(
        ">8sIQQQ", b"DLPG0001", page_size, 2, 0, 1
    ).ljust(page_size, b"\x00")
    meta_image = struct.pack(">I", len(meta)) + meta
    with open(path, "wb") as file:
        file.write(header)
        file.write(meta_image.ljust(page_size, b"\x00"))
    with pytest.raises(CorruptionError, match="bad magic b'DLPG0001'") as caught:
        Pager(path)
    assert caught.value.file == str(path)
    assert caught.value.offset == 0


def test_dict_in_a_page_catalog_is_rejected_by_name(tmp_path):
    """``DLPG0002`` kept the whole catalog as one dict in the meta page;
    no such catalog was ever deployed, nothing reads or migrates it, and
    opening one says which layout this build expects."""
    workdir = tmp_path / "old"
    workdir.mkdir()
    page_size = 4096
    meta = serialization.dumps({"catalog:next_id": 3, "catalog:collections": ["c"]})
    body = struct.pack(">8sIQQQ", b"DLPG0002", page_size, 2, 0, 1)
    header = (body + struct.pack(">I", zlib.crc32(body))).ljust(page_size, b"\x00")
    meta_image = struct.pack(">I", len(meta)) + meta
    with open(workdir / "catalog.db", "wb") as file:
        file.write(header)
        file.write(meta_image.ljust(page_size, b"\x00"))
    with pytest.raises(StorageError, match="DLPG0002.*DLPG0003.*directory") as caught:
        Catalog(workdir, durability="flush")
    assert caught.value.file == str(workdir / "catalog.db")


def test_v1_heap_magic_is_rejected(tmp_path):
    path = tmp_path / "v1.heap"
    payload = b"legacy blob"
    with open(path, "wb") as file:
        file.write(b"DLHP0001".ljust(16, b"\x00"))
        file.write(struct.pack(">QB", len(payload), 0))
        file.write(payload)
    with pytest.raises(CorruptionError, match="bad heap magic b'DLHP0001'") as caught:
        BlobHeap(path)
    assert caught.value.file == str(path)
    assert caught.value.offset == 0


def test_v2_page_crc_actually_on_disk(tmp_path):
    """The trailer holds a real CRC of the payload (not zeroes), and a
    cached read never leaks it into the image handed back."""
    pager = Pager(tmp_path / "p.db")
    page = pager.allocate()
    pager.write(page, b"hello")
    pager.sync()
    image = bytes(pager.read(page))  # cache hit
    assert image[:5] == b"hello"
    assert image == b"hello".ljust(pager.page_size, b"\x00")
    with open(tmp_path / "p.db", "rb") as file:
        file.seek(page * pager.page_size)
        raw = file.read(pager.page_size)
    (stored,) = struct.unpack_from(">I", raw, pager.capacity)
    assert stored == zlib.crc32(raw[: pager.capacity])
    pager.close()


# -- durability knob ----------------------------------------------------


class _RecordingOps(FileOps):
    def __init__(self):
        self.syncs = []

    def sync_file(self, file, durability="fsync"):
        self.syncs.append(durability)
        file.flush()  # never fsync inside the test suite


@pytest.mark.parametrize("durability", ["fsync", "flush"])
def test_durability_mode_reaches_every_sync_barrier(tmp_path, durability):
    ops = _RecordingOps()
    with Catalog(tmp_path, durability=durability, fs=ops) as catalog:
        catalog.materialize(_patches(3), "base")
    assert ops.syncs  # journal + data barriers all routed through fs
    assert set(ops.syncs) == {durability}


def test_fileops_fsyncs_only_in_fsync_mode(tmp_path, monkeypatch):
    from repro.storage.faultfs import OS_OPS

    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
    with open(tmp_path / "x", "wb") as file:
        OS_OPS.sync_file(file, "fsync")
        assert calls
        calls.clear()
        OS_OPS.sync_file(file, "flush")
        assert not calls


def test_unknown_durability_mode_is_rejected(tmp_path):
    with pytest.raises(StorageError, match="unknown durability mode"):
        Catalog(tmp_path, durability="bogus")


def test_durability_none_disables_the_journal(tmp_path):
    with Catalog(tmp_path, durability="none") as catalog:
        catalog.materialize(_patches(3), "base")
        assert catalog._journal is None
    assert not os.path.exists(tmp_path / "journal.log")
    with Catalog(tmp_path, durability="none") as catalog:
        assert len(catalog.collection("base")) == 3

"""Tests for the pager, B+ tree, hash file, sorted record file, and blob heap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    PageError,
    StorageError,
)
from repro.storage.kvstore import (
    BlobHeap,
    BlobRef,
    BPlusTree,
    HashFile,
    Pager,
    SortedRecordFile,
)


@pytest.fixture
def pager(tmp_path):
    with Pager(tmp_path / "store.db") as pg:
        yield pg


class TestPager:
    def test_allocate_and_rw(self, pager):
        page = pager.allocate()
        pager.write(page, b"hello")
        assert bytes(pager.read(page))[:5] == b"hello"

    def test_pages_are_zeroed(self, pager):
        page = pager.allocate()
        assert bytes(pager.read(page)) == bytes(pager.page_size)

    def test_free_list_reuse(self, pager):
        a = pager.allocate()
        pager.free(a)
        b = pager.allocate()
        assert b == a
        assert bytes(pager.read(b)) == bytes(pager.page_size)

    def test_write_too_large_rejected(self, pager):
        page = pager.allocate()
        with pytest.raises(PageError, match="exceeds page size"):
            pager.write(page, b"x" * (pager.page_size + 1))

    def test_invalid_page_id(self, pager):
        with pytest.raises(PageError):
            pager.read(9999)
        with pytest.raises(PageError):
            pager.read(0)

    def test_meta_round_trip(self, pager):
        pager.set_meta({"root": 7, "name": "idx"})
        assert pager.get_meta() == {"root": 7, "name": "idx"}

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        with Pager(path) as pg:
            page = pg.allocate()
            pg.write(page, b"durable")
            pg.set_meta({"page": page})
        with Pager(path) as pg:
            page = pg.get_meta()["page"]
            assert bytes(pg.read(page))[:7] == b"durable"

    def test_directory_entries_grow_past_a_page_and_persist(self, tmp_path):
        path = tmp_path / "dir.db"
        with Pager(path) as pg:
            pg.set_meta({"next_id": 5})
            names = pg.directory.section("name")
            for i in range(600):  # ~40 KiB of entries: ten pages' worth
                names[(f"n{i:04d}",)] = {"i": i, "pad": "x" * 40}
            pg.directory[("other", "k")] = [1, 2]
            assert len(names) == 600 and len(pg.directory) == 601
        with Pager(path) as pg:
            names = pg.directory.section("name")
            assert pg.get_meta() == {"next_id": 5}  # the root record is apart
            assert names[("n0317",)] == {"i": 317, "pad": "x" * 40}
            assert [key for key, _ in names.items()][:2] == [("n0000",), ("n0001",)]
            assert ("other", "k") not in names and ("k",) in pg.directory.section("other")
            del names[("n0317",)]
            assert names.get(("n0317",)) is None and len(names) == 599
            with pytest.raises(KeyError):
                del names[("n0317",)]
            pg.set_meta({"next_id": 6})  # must not lose the directory root
        with Pager(path) as pg:
            assert len(pg.directory) == 600 and pg.get_meta() == {"next_id": 6}

    def test_structure_headers_are_directory_entries(self, tmp_path):
        path = tmp_path / "hdr.db"
        with Pager(path) as pg:
            tree = BPlusTree(pg, "t")
            table = HashFile(pg, "h", n_buckets=4)
            tree.insert(1, b"one")
            table.put("k", b"v")
            assert pg.get_meta() == {}  # headers never touch the client record
        with Pager(path) as pg:
            assert sorted(pg.directory) == [("btree", "t"), ("hash", "h")]
            assert pg.directory[("btree", "t")]["count"] == 1
            BPlusTree(pg, "t").drop()
            HashFile(pg, "h").drop()
        with Pager(path) as pg:
            assert list(pg.directory) == []
            assert len(BPlusTree(pg, "t")) == 0  # a dropped name starts empty

    def test_eviction_under_small_cache(self, tmp_path):
        with Pager(tmp_path / "small.db", cache_pages=8) as pg:
            pages = [pg.allocate() for _ in range(64)]
            for i, page in enumerate(pages):
                pg.write(page, bytes([i]) * 16)
            for i, page in enumerate(pages):
                assert bytes(pg.read(page))[:16] == bytes([i]) * 16

    def test_closed_pager_raises(self, tmp_path):
        pg = Pager(tmp_path / "closed.db")
        pg.close()
        with pytest.raises(StorageError, match="closed"):
            pg.allocate()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_pager.db"
        path.write_bytes(b"GARBAGE!" * 100)
        with pytest.raises(StorageError, match="magic"):
            Pager(path)


class TestBPlusTree:
    def test_insert_get(self, pager):
        tree = BPlusTree(pager, "t")
        tree.insert(5, b"five")
        assert tree.get(5) == [b"five"]
        assert tree.get(6) == []

    def test_many_inserts_sorted_scan(self, pager):
        tree = BPlusTree(pager, "t", order=8)
        rng = np.random.default_rng(0)
        keys = rng.permutation(500).tolist()
        for key in keys:
            tree.insert(int(key), str(key).encode())
        scanned = [k for k, _ in tree.items()]
        assert scanned == sorted(range(500))
        assert len(tree) == 500

    def test_range_scan_bounds(self, pager):
        tree = BPlusTree(pager, "t", order=8)
        for i in range(100):
            tree.insert(i, b"v")
        assert [k for k, _ in tree.range(10, 20)] == list(range(10, 21))
        assert [k for k, _ in tree.range(10, 20, include_lo=False)] == list(
            range(11, 21)
        )
        assert [k for k, _ in tree.range(10, 20, include_hi=False)] == list(
            range(10, 20)
        )
        assert [k for k, _ in tree.range(None, 3)] == [0, 1, 2, 3]
        assert [k for k, _ in tree.range(97, None)] == [97, 98, 99]

    def test_duplicate_keys_multimap(self, pager):
        tree = BPlusTree(pager, "t", order=8)
        for i in range(10):
            tree.insert("dup", str(i).encode())
        assert sorted(tree.get("dup")) == sorted(str(i).encode() for i in range(10))

    def test_duplicates_across_leaf_splits(self, pager):
        tree = BPlusTree(pager, "t", order=4)
        for i in range(50):
            tree.insert("same", str(i).encode())
        assert len(tree.get("same")) == 50

    def test_unique_mode(self, pager):
        tree = BPlusTree(pager, "u", unique=True)
        tree.insert("k", b"1")
        with pytest.raises(DuplicateKeyError):
            tree.insert("k", b"2")
        tree.insert("k", b"3", replace=True)
        assert tree.get("k") == [b"3"]

    def test_get_one(self, pager):
        tree = BPlusTree(pager, "t")
        tree.insert("k", b"v")
        assert tree.get_one("k") == b"v"
        with pytest.raises(KeyNotFoundError):
            tree.get_one("missing")

    def test_delete(self, pager):
        tree = BPlusTree(pager, "t", order=8)
        for i in range(100):
            tree.insert(i, b"v")
        assert tree.delete(50) == 1
        assert tree.get(50) == []
        assert len(tree) == 99
        assert tree.delete(50) == 0

    def test_delete_specific_value(self, pager):
        tree = BPlusTree(pager, "t")
        tree.insert("k", b"a")
        tree.insert("k", b"b")
        assert tree.delete("k", b"a") == 1
        assert tree.get("k") == [b"b"]

    def test_mixed_key_types(self, pager):
        tree = BPlusTree(pager, "t")
        tree.insert(("cam1", 5), b"a")
        tree.insert(("cam1", 2), b"b")
        tree.insert(("cam2", 1), b"c")
        keys = [k for k, _ in tree.items()]
        assert keys == [("cam1", 2), ("cam1", 5), ("cam2", 1)]

    def test_persistence(self, tmp_path):
        path = tmp_path / "tree.db"
        with Pager(path) as pg:
            tree = BPlusTree(pg, "frames")
            for i in range(200):
                tree.insert(i, str(i).encode())
        with Pager(path) as pg:
            tree = BPlusTree(pg, "frames")
            assert len(tree) == 200
            assert tree.get(123) == [b"123"]

    def test_two_trees_one_pager(self, pager):
        a = BPlusTree(pager, "a")
        b = BPlusTree(pager, "b")
        a.insert(1, b"a1")
        b.insert(1, b"b1")
        assert a.get(1) == [b"a1"]
        assert b.get(1) == [b"b1"]

    def test_bulk_load(self, pager):
        tree = BPlusTree(pager, "bulk", order=8)
        items = [(i, str(i).encode()) for i in range(300)]
        tree.bulk_load(items)
        assert len(tree) == 300
        assert tree.get(250) == [b"250"]
        assert [k for k, _ in tree.range(5, 8)] == [5, 6, 7, 8]

    def test_bulk_load_rejects_unsorted(self, pager):
        tree = BPlusTree(pager, "bulk")
        with pytest.raises(StorageError, match="not sorted"):
            tree.bulk_load([(2, b"b"), (1, b"a")])

    def test_oversized_value_rejected(self, pager):
        tree = BPlusTree(pager, "t")
        with pytest.raises(StorageError, match="BlobHeap"):
            tree.insert(1, b"x" * pager.page_size)

    def test_first_on_empty(self, pager):
        tree = BPlusTree(pager, "empty")
        with pytest.raises(KeyNotFoundError):
            tree.first()

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), st.binary(min_size=1, max_size=8)),
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_multimap(self, tmp_path_factory, items):
        path = tmp_path_factory.mktemp("hyp") / "tree.db"
        reference: dict[int, list[bytes]] = {}
        with Pager(path) as pg:
            tree = BPlusTree(pg, "t", order=6)
            for key, value in items:
                tree.insert(key, value)
                reference.setdefault(key, []).append(value)
            for key, expected in reference.items():
                assert sorted(tree.get(key)) == sorted(expected)
            assert [k for k, _ in tree.items()] == sorted(
                key for key, values in reference.items() for _ in values
            )


class TestHashFile:
    def test_put_get(self, pager):
        hf = HashFile(pager, "h")
        hf.put("car", b"p1")
        hf.put("car", b"p2")
        hf.put("bus", b"p3")
        assert sorted(hf.get("car")) == [b"p1", b"p2"]
        assert hf.get("bus") == [b"p3"]
        assert hf.get("bike") == []

    def test_many_keys(self, pager):
        hf = HashFile(pager, "h", n_buckets=16)
        for i in range(1000):
            hf.put(i, str(i).encode())
        assert len(hf) == 1000
        for i in (0, 17, 999):
            assert hf.get(i) == [str(i).encode()]

    def test_overflow_chains(self, pager):
        hf = HashFile(pager, "h", n_buckets=1)
        for i in range(500):
            hf.put(i, b"x" * 32)
        assert len(hf) == 500
        assert hf.get(499) == [b"x" * 32]

    def test_delete(self, pager):
        hf = HashFile(pager, "h")
        hf.put("k", b"a")
        hf.put("k", b"b")
        assert hf.delete("k", b"a") == 1
        assert hf.get("k") == [b"b"]
        assert hf.delete("k") == 1
        assert hf.get("k") == []

    def test_items(self, pager):
        hf = HashFile(pager, "h")
        hf.put("a", b"1")
        hf.put("b", b"2")
        assert sorted(hf.items()) == [("a", b"1"), ("b", b"2")]

    def test_rejects_bad_bucket_count(self, pager):
        with pytest.raises(StorageError, match="power of two"):
            HashFile(pager, "bad", n_buckets=3)

    def test_persistence(self, tmp_path):
        path = tmp_path / "hash.db"
        with Pager(path) as pg:
            hf = HashFile(pg, "labels")
            hf.put("person", b"p7")
        with Pager(path) as pg:
            hf = HashFile(pg, "labels")
            assert hf.get("person") == [b"p7"]


class TestSortedRecordFile:
    def test_append_and_get(self, tmp_path):
        with SortedRecordFile(tmp_path / "sorted.db") as sf:
            for i in range(50):
                sf.append(i, str(i).encode())
            assert sf.get(25) == [b"25"]
            assert sf.get(99) == []

    def test_rejects_out_of_order_append(self, tmp_path):
        with SortedRecordFile(tmp_path / "sorted.db") as sf:
            sf.append(10, b"a")
            with pytest.raises(StorageError, match="out of order"):
                sf.append(5, b"b")

    def test_range(self, tmp_path):
        with SortedRecordFile(tmp_path / "sorted.db") as sf:
            for i in range(0, 100, 2):
                sf.append(i, str(i).encode())
            assert [k for k, _ in sf.range(10, 20)] == [10, 12, 14, 16, 18, 20]
            assert [k for k, _ in sf.range(11, 15)] == [12, 14]

    def test_bulk_build_sorts(self, tmp_path):
        with SortedRecordFile(tmp_path / "sorted.db") as sf:
            sf.bulk_build([(3, b"c"), (1, b"a"), (2, b"b")])
            assert [k for k, _ in sf.items()] == [1, 2, 3]

    def test_duplicate_keys(self, tmp_path):
        with SortedRecordFile(tmp_path / "sorted.db") as sf:
            sf.append(1, b"a")
            sf.append(1, b"b")
            assert sorted(sf.get(1)) == [b"a", b"b"]

    def test_reopen_rebuilds_index(self, tmp_path):
        path = tmp_path / "sorted.db"
        with SortedRecordFile(path) as sf:
            for i in range(20):
                sf.append(i, str(i).encode())
        with SortedRecordFile(path) as sf:
            assert len(sf) == 20
            assert sf.get(7) == [b"7"]


class TestBlobHeap:
    def test_put_get(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(b"hello world")
            assert heap.get(ref) == b"hello world"

    def test_compression(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            data = b"\x00" * 100_000
            ref = heap.put(data, compress=True)
            assert ref.length < 1000
            assert heap.get(ref) == data

    def test_incompressible_stays_raw(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=10_000, dtype=np.uint8).tobytes()
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(data, compress=True)
            assert heap.get(ref) == data

    def test_ref_round_trip(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(b"x")
            restored = BlobRef.from_tuple(ref.to_tuple())
            assert heap.get(restored) == b"x"

    def test_bad_offset_rejected(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            heap.put(b"x")
            with pytest.raises(StorageError, match="out of range"):
                heap.get(BlobRef(offset=10**9, length=1))

    def test_persistence(self, tmp_path):
        path = tmp_path / "heap.db"
        with BlobHeap(path) as heap:
            ref = heap.put(b"persisted")
        with BlobHeap(path) as heap:
            assert heap.get(ref) == b"persisted"


class TestBlobHeapMultiGet:
    """The coalesced batch read path behind scans and index fetches."""

    def test_empty(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            assert heap.multi_get([]) == []

    def test_matches_get_in_request_order(self, tmp_path):
        rng = np.random.default_rng(3)
        with BlobHeap(tmp_path / "heap.db") as heap:
            blobs = [
                rng.integers(0, 256, size=int(n), dtype=np.uint8).tobytes()
                for n in rng.integers(0, 5_000, size=200)
            ]
            refs = [
                heap.put(blob, compress=(i % 3 == 0))
                for i, blob in enumerate(blobs)
            ]
            order = rng.permutation(len(refs)).tolist()
            got = heap.multi_get([refs[i] for i in order])
            assert got == [blobs[i] for i in order]

    def test_duplicates_and_subsets(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            refs = [heap.put(bytes([i]) * (i + 1)) for i in range(50)]
            want = [refs[7], refs[7], refs[0], refs[49], refs[7]]
            assert heap.multi_get(want) == [
                b"\x07" * 8,
                b"\x07" * 8,
                b"\x00",
                b"\x31" * 50,
                b"\x07" * 8,
            ]

    def test_far_apart_blobs_split_runs(self, tmp_path):
        # blobs separated by more than the coalescing gap exercise the
        # run-flush path; a blob larger than MAX_RUN_BYTES caps a run
        from repro.storage.kvstore import heap as heap_module

        with BlobHeap(tmp_path / "heap.db") as heap:
            first = heap.put(b"a" * 10)
            filler = heap.put(b"\x00" * (heap_module.COALESCE_GAP_BYTES + 1))
            big = heap.put(b"b" * (heap_module.MAX_RUN_BYTES + 1))
            last = heap.put(b"c" * 10)
            got = heap.multi_get([last, big, first, filler])
            assert got[0] == b"c" * 10
            assert got[1] == b"b" * (heap_module.MAX_RUN_BYTES + 1)
            assert got[2] == b"a" * 10

    def test_bad_offset_rejected(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(b"x")
            with pytest.raises(StorageError, match="out of range"):
                heap.multi_get([ref, BlobRef(offset=10**9, length=1)])

    def test_length_mismatch_rejected(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(b"hello")
            heap.put(b"trailing so the over-long read stays inside the file")
            wrong = BlobRef(offset=ref.offset, length=ref.length + 2)
            with pytest.raises(StorageError, match="length mismatch"):
                heap.multi_get([wrong])

    def test_truncated_tail_rejected(self, tmp_path):
        with BlobHeap(tmp_path / "heap.db") as heap:
            ref = heap.put(b"hello")
            wrong = BlobRef(offset=ref.offset, length=ref.length + 2)
            with pytest.raises(StorageError, match="short read"):
                heap.multi_get([wrong])

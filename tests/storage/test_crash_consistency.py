"""Crash-consistency matrix: kill/tear the process at every I/O step.

The deterministic :class:`~repro.storage.faultfs.FaultInjector` counts
every mutating file operation (write/truncate) across all catalog files.
For each workload we first run a fault-free probe to learn how many
mutating ops it performs, then re-run it from the same starting state
crashing at op 1, op 2, ... op N (sampled by stride when the matrix is
large — ``REPRO_CRASH_STEPS`` bounds the steps per cell). After every
crash the store is reopened with real file ops and must present either
the complete pre-mutation state or the complete post-mutation state —
never a mix — with the blob heap, B+ trees, and metadata segment all
agreeing with each other.

The crash model is in-process (the "dead" handles are closed, the store
reopens in the same OS page cache), so ``durability="flush"`` gives the
same coverage as ``"fsync"`` without paying a real fsync per barrier.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.metadata_segment as seg_mod
from repro.core import DeepLens
from repro.core.catalog import Catalog
from repro.core.patch import Patch
from repro.storage.faultfs import OS_OPS, FaultInjector, SimulatedCrash

#: per (workload, mode) cell: at most this many crash points are tested
#: (stride-sampled across the op range, endpoints always included)
STEP_BUDGET = int(os.environ.get("REPRO_CRASH_STEPS", "30"))

DURABILITY = "flush"  # see module docstring: equivalent under this model


def _patches(n, start=0):
    rng = np.random.default_rng(start)
    for i in range(start, start + n):
        patch = Patch.from_frame(
            "vid", i, rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = "car" if i % 2 == 0 else "person"
        patch.metadata["emb"] = [float(x) for x in rng.normal(size=8)]
        yield patch


def _seed_base(workdir):
    """A committed catalog with one collection, cleanly closed."""
    with Catalog(workdir, durability=DURABILITY) as catalog:
        catalog.materialize(_patches(8), "base")


# -- workloads: one interrupted catalog mutation each -------------------


def _wl_materialize(workdir, fs):
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    catalog.materialize(_patches(6, start=100), "fresh")
    catalog.close()


def _wl_add_sync(workdir, fs):
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    collection = catalog.collection("base")
    for patch in _patches(3, start=200):
        collection.add(patch)
    catalog.sync()
    catalog.close()


def _wl_create_index(workdir, fs):
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    catalog.create_index("base", "label", "hash")
    catalog.close()


def _wl_create_hnsw_index(workdir, fs):
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    catalog.create_index("base", "emb", "hnsw", params={"m": 4, "ef": 8})
    catalog.close()


def _wl_materialize_replace(workdir, fs):
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    catalog.materialize(_patches(4, start=300), "base", replace=True)
    catalog.close()


WORKLOADS = {
    "materialize": _wl_materialize,
    "add_sync": _wl_add_sync,
    "create_index": _wl_create_index,
    "create_hnsw_index": _wl_create_hnsw_index,
    "materialize_replace": _wl_materialize_replace,
}


# -- state fingerprint + invariants -------------------------------------


def _fingerprint(workdir):
    """Full logical state through a clean reopen, with cross-structure
    invariants asserted: a full (heap) scan and a metadata-only
    (segment) scan must agree row for row, and every checksum on the
    read path must verify."""
    with Catalog(workdir, durability=DURABILITY) as catalog:
        state = {}
        for name in catalog.collections():
            collection = catalog.collection(name)
            full = [
                (p.patch_id, p.metadata["label"]) for p in collection.scan()
            ]
            meta_only = [
                (p.patch_id, p.metadata["label"])
                for p in collection.scan(load_data=False)
            ]
            assert full == meta_only, f"segment disagrees with heap in {name!r}"
            assert len(full) == len(collection)
            state[name] = tuple(full)
            # statistics folded from base + deltas cover exactly the
            # committed rows — never a delta from a rolled-back commit
            stats = catalog.statistics_for(name)
            assert stats is None or stats.row_count == len(full)
            state[f"__stats__{name}"] = stats and stats.row_count
        state["__indexes__"] = tuple(
            sorted(tuple(key) for key in catalog.indexes())
        )
        # an interrupted hnsw build must leave either no index or a
        # complete one — never a torn graph
        for key in catalog.indexes():
            name, attr, kind = tuple(key)
            if kind != "hnsw":
                continue
            index = catalog.get_index(name, attr, kind)
            assert len(index) == len(catalog.collection(name))
            state[f"__hnsw__{name}.{attr}"] = tuple(index.ids())
        return state


def _wl_delta_commits(workdir, fs, commits=8):
    """Append 4 rows + sync, ``commits`` times, under an HNSW index: every
    commit after the first appends a delta to the statistics, segment and
    graph chains."""
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    collection = catalog.collection("base")
    for commit in range(commits):
        for patch in _patches(4, start=400 + 4 * commit):
            collection.add(patch)
        catalog.sync()
    catalog.close()


def _steps_for(total):
    if total <= STEP_BUDGET:
        return list(range(1, total + 1))
    stride = max(1, total // STEP_BUDGET)
    steps = sorted(set(range(1, total + 1, stride)) | {1, total})
    return steps


def _crash_run(workdir, workload, step, mode):
    """Run ``workload`` with a fault at ``step``; True if it crashed."""
    injector = FaultInjector(fail_at=step, mode=mode)
    try:
        workload(workdir, injector)
        return False
    except SimulatedCrash:
        return True
    finally:
        injector.close_all()


@pytest.mark.parametrize("mode", ["kill", "torn"])
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_crash_at_every_step_is_all_or_nothing(tmp_path, workload_name, mode):
    workload = WORKLOADS[workload_name]
    base = tmp_path / "base"
    _seed_base(base)
    pre_state = _fingerprint(base)

    # fault-free probe: count the mutating ops and capture the post state
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    counter = FaultInjector(fail_at=None)
    workload(probe, counter)
    counter.close_all()
    total_ops = counter.ops
    assert total_ops > 0
    post_state = _fingerprint(probe)
    assert post_state != pre_state

    for step in _steps_for(total_ops):
        workdir = tmp_path / f"step{step}"
        shutil.copytree(base, workdir)
        crashed = _crash_run(workdir, workload, step, mode)
        assert crashed, f"op {step} of {total_ops} did not fire"
        state = _fingerprint(workdir)
        assert state in (pre_state, post_state), (
            f"{workload_name}/{mode}: crash at op {step}/{total_ops} left a "
            f"mixed state"
        )


@pytest.mark.parametrize("mode", ["kill", "torn"])
def test_crash_during_delta_commits_lands_on_a_commit(tmp_path, mode):
    """A run of small commits, each appending deltas to three snapshot
    chains: a crash at any I/O step reopens to exactly one of the
    committed states (rows, statistics row count and HNSW ids agree),
    and a later crash never lands on an earlier commit."""
    commits = 8
    base = tmp_path / "base"
    _seed_base(base)
    with Catalog(base, durability=DURABILITY) as catalog:
        catalog.create_index("base", "emb", "hnsw", params={"m": 4, "ef": 8})

    # fault-free probes: the state after k commits, for every k
    checkpoints = []
    for done in range(commits + 1):
        probe = tmp_path / f"probe{done}"
        shutil.copytree(base, probe)
        counter = FaultInjector(fail_at=None)
        _wl_delta_commits(probe, counter, commits=done)
        counter.close_all()
        checkpoints.append(_fingerprint(probe))
    total_ops = counter.ops
    assert len({repr(state) for state in checkpoints}) == commits + 1
    assert checkpoints[-1]["__stats__base"] == 8 + 4 * commits
    assert len(checkpoints[-1]["__hnsw__base.emb"]) == 8 + 4 * commits

    reached = 0
    for step in _steps_for(total_ops):
        workdir = tmp_path / f"step{step}"
        shutil.copytree(base, workdir)
        assert _crash_run(workdir, _wl_delta_commits, step, mode)
        state = _fingerprint(workdir)
        assert state in checkpoints, (
            f"delta_commits/{mode}: crash at op {step}/{total_ops} left a "
            f"state no commit produced"
        )
        assert checkpoints.index(state) >= reached
        reached = checkpoints.index(state)
    assert reached >= commits - 1


#: rows per metadata block in the block-boundary cells: the seeded 8 rows
#: are one sealed block of 6 plus an open block of 2
SMALL_BLOCK_ROWS = 6


def _wl_append(rows):
    """ONE commit appending ``rows`` rows to the seeded collection."""

    def workload(workdir, fs):
        catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
        collection = catalog.collection("base")
        for patch in _patches(rows, start=700):
            collection.add(patch)
        catalog.sync()
        catalog.close()

    return workload


@pytest.mark.parametrize(
    "rows, seals", [(5, True), (2, False)], ids=["seal", "open-block-delta"]
)
def test_crash_at_a_block_boundary_is_all_or_nothing(
    tmp_path, monkeypatch, rows, seals
):
    """The metadata segment's two commit shapes: appending across a
    block boundary (a sealed block, a fresh descriptor base, new
    open-block rows) and appending to the open block only (a descriptor
    delta). A crash at any step of either reopens to the state before or
    after the commit, with the segment agreeing with the heap."""
    monkeypatch.setattr(seg_mod, "BLOCK_ROWS", SMALL_BLOCK_ROWS)
    workload = _wl_append(rows)
    base = tmp_path / "base"
    _seed_base(base)
    pre_state = _fingerprint(base)

    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    counter = FaultInjector(fail_at=None)
    workload(probe, counter)
    counter.close_all()
    post_state = _fingerprint(probe)
    assert post_state != pre_state
    with Catalog(probe, durability=DURABILITY) as catalog:
        # the commit has the shape the test is about
        base_off, _, head_off, _ = catalog.segments.snapshots.refs[
            ("segment", "base")
        ]
        assert (head_off == base_off) == seals
        blocks = catalog.collection("base")._metadata_segment().block_stats()
        assert blocks == ((3, 3) if seals else (2, 2))

    for mode in ("kill", "torn"):
        for step in _steps_for(counter.ops):
            workdir = tmp_path / f"{mode}{step}"
            shutil.copytree(base, workdir)
            assert _crash_run(workdir, workload, step, mode)
            state = _fingerprint(workdir)
            assert state in (pre_state, post_state), (
                f"append {rows}/{mode}: crash at op {step}/{counter.ops} "
                f"left a mixed state"
            )
            shutil.rmtree(workdir)


def _wl_grow_everything(workdir, fs):
    """ONE commit that creates a collection and an index, splits the root
    of a collection tree, and moves a statistics chain — so every kind of
    directory entry (collection and index records, tree and hash-file
    headers, snapshot refs) is written, and enough of them to split a
    directory leaf. The statements' own commit barriers are suppressed;
    ``close`` commits everything at once."""
    catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
    catalog.sync = lambda: None
    collection = catalog.collection("base")
    for patch in _patches(60, start=500):
        collection.add(patch)
    catalog.materialize(_patches(5, start=600), "fresh")
    catalog.create_index("fresh", "label", "hash")
    del catalog.sync
    catalog.close()


def _tree_shape(tree):
    """(root is a leaf, number of leaves) of a B+ tree."""
    node = tree._leftmost_leaf()
    leaves = 1
    while node.next_leaf:
        node = tree._read_node(node.next_leaf)
        leaves += 1
    return tree._read_node(tree._root_id).leaf, leaves


@pytest.mark.parametrize(
    "fillers, splits_root, mode",
    [(11, True, "torn"), (26, False, "kill")],
    ids=["directory-root-splits-torn", "directory-leaf-splits-kill"],
)
def test_crash_while_the_directory_grows_is_all_or_nothing(
    tmp_path, fillers, splits_root, mode
):
    """The guard for the directory's one ordering rule: its pages (and
    the root record in the meta page) must be written after every tree,
    hash file and snapshot store has reported into it. ``fillers``
    one-row collections bring a directory leaf to the brink, so the
    commit splits it — the root leaf itself (the meta page's root
    pointer moves) or a leaf below an existing root."""
    base = tmp_path / "base"
    _seed_base(base)
    with Catalog(base, durability=DURABILITY) as catalog:
        for i in range(fillers):
            catalog.materialize(_patches(1, start=50 + i), f"filler{i:02d}")
    pre_state = _fingerprint(base)
    with Catalog(base, durability=DURABILITY) as catalog:
        pre_directory = _tree_shape(catalog.directory._tree)
        assert _tree_shape(catalog.collection("base")._tree) == (True, 1)
        pre_stats = catalog.snapshots.refs[("stats", "base")]

    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    counter = FaultInjector(fail_at=None)
    _wl_grow_everything(probe, counter)
    counter.close_all()
    post_state = _fingerprint(probe)
    assert post_state != pre_state
    with Catalog(probe, durability=DURABILITY) as catalog:
        # the commit did what the test is about
        post_directory = _tree_shape(catalog.directory._tree)
        assert post_directory[1] == pre_directory[1] + 1
        assert pre_directory[0] == splits_root and not post_directory[0]
        assert not _tree_shape(catalog.collection("base")._tree)[0]
        assert catalog.snapshots.refs[("stats", "base")] != pre_stats
        assert catalog.has_index("fresh", "label", "hash")

    for step in _steps_for(counter.ops):
        workdir = tmp_path / f"step{step}"
        shutil.copytree(base, workdir)
        assert _crash_run(workdir, _wl_grow_everything, step, mode)
        state = _fingerprint(workdir)
        assert state in (pre_state, post_state), (
            f"grow_everything/{mode}: crash at op {step}/{counter.ops} left "
            f"a mixed state"
        )
        shutil.rmtree(workdir)


def test_crash_past_the_last_op_changes_nothing(tmp_path):
    """A fault point beyond the workload's op count never fires: the
    workload completes and the store shows exactly the post state."""
    base = tmp_path / "base"
    _seed_base(base)
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    counter = FaultInjector(fail_at=None)
    _wl_add_sync(probe, counter)
    counter.close_all()
    post_state = _fingerprint(probe)

    workdir = tmp_path / "run"
    shutil.copytree(base, workdir)
    injector = FaultInjector(fail_at=counter.ops + 50, mode="kill")
    _wl_add_sync(workdir, injector)
    injector.close_all()
    assert not injector.fired
    assert _fingerprint(workdir) == post_state


def test_crash_during_recovery_is_idempotent(tmp_path):
    """Recovery itself can die at any write and simply runs again."""
    base = tmp_path / "base"
    _seed_base(base)
    pre_state = _fingerprint(base)
    counter = FaultInjector(fail_at=None)
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    _wl_materialize_replace(probe, counter)
    counter.close_all()

    workdir = tmp_path / "run"
    shutil.copytree(base, workdir)
    # die mid-mutation, leaving a journal with real rollback work
    assert _crash_run(workdir, _wl_materialize_replace, counter.ops // 2, "kill")

    # now die during the recovery pass too, at each of its first writes
    for recovery_step in (1, 2, 3):
        injector = FaultInjector(fail_at=recovery_step, mode="kill")
        try:
            Catalog(workdir, durability=DURABILITY, fs=injector)
        except SimulatedCrash:
            pass
        finally:
            injector.close_all()

    assert _fingerprint(workdir) == pre_state


def test_transient_eio_aborts_but_never_corrupts(tmp_path):
    """An injected EIO surfaces synchronously as OSError; the journal
    still rolls the half-done mutation back on the next open."""
    base = tmp_path / "base"
    _seed_base(base)
    pre_state = _fingerprint(base)
    workdir = tmp_path / "run"
    shutil.copytree(base, workdir)
    injector = FaultInjector(fail_at=4, mode="eio")
    with pytest.raises(OSError):
        _wl_materialize(workdir, injector)
    injector.close_all()
    assert injector.fired
    assert _fingerprint(workdir) == pre_state


def test_garbage_journal_is_cleared_on_open(tmp_path):
    """A journal holding no valid BEGIN record (pure garbage) is inert:
    the open clears it and touches nothing else."""
    base = tmp_path / "base"
    _seed_base(base)
    pre_state = _fingerprint(base)
    journal = base / "journal.log"
    with open(journal, "r+b") as file:
        file.seek(0, os.SEEK_END)
        file.write(b"\xde\xad\xbe\xef" * 32)
    assert _fingerprint(base) == pre_state
    assert os.path.getsize(journal) == 16


def test_replay_is_reported_and_counted(tmp_path):
    """A rolled-back mutation shows up in recovery_report() and in the
    deeplens_journal_replays_total counter of the reopening session."""
    base = tmp_path / "base"
    _seed_base(base)
    counter = FaultInjector(fail_at=None)
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    _wl_materialize(probe, counter)
    counter.close_all()
    assert _crash_run(base, _wl_materialize, counter.ops // 2, "torn")

    with DeepLens(tmp_path, durability=DURABILITY) as db:
        # DeepLens(workdir) keeps its catalog under workdir/catalog
        pass
    shutil.rmtree(tmp_path / "catalog")
    shutil.copytree(base, tmp_path / "catalog")
    with DeepLens(tmp_path, durability=DURABILITY) as db:
        report = db.recovery_report()
        kinds = [event["kind"] for event in report["events"]]
        assert "journal_replay" in kinds
        assert kinds == [event["kind"] for event in report["history"][-len(kinds):]]
        counters = db.metrics()["counters"]
        assert counters["deeplens_journal_replays_total"] == 1
        assert list(db.catalog.collection("base").scan())


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_crash_lands_on_a_committed_checkpoint(tmp_path_factory, data):
    """Property: whatever interleaving of adds and syncs a session runs,
    a crash at any op reopens to a state some sync actually committed."""
    tmp_path = tmp_path_factory.mktemp("hypo")
    base = tmp_path / "base"
    _seed_base(base)
    plan = data.draw(
        st.lists(
            st.sampled_from(["add", "add", "sync"]), min_size=2, max_size=8
        ),
        label="plan",
    )

    def workload(workdir, fs):
        catalog = Catalog(workdir, durability=DURABILITY, fs=fs)
        collection = catalog.collection("base")
        next_frame = 1000
        for op in plan:
            if op == "add":
                for patch in _patches(1, start=next_frame):
                    collection.add(patch)
                next_frame += 1
            else:
                catalog.sync()
                checkpoints.append(tuple(collection.ids()))
        catalog.close()
        checkpoints.append(tuple(collection.ids()))

    # fault-free probe: collect every committed checkpoint + the op count
    checkpoints: list[tuple] = []
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    with Catalog(probe, durability=DURABILITY) as catalog:
        checkpoints.append(tuple(catalog.collection("base").ids()))
    counter = FaultInjector(fail_at=None)
    workload(probe, counter)
    counter.close_all()

    step = data.draw(st.integers(1, counter.ops), label="crash_op")
    mode = data.draw(st.sampled_from(["kill", "torn"]), label="mode")
    workdir = tmp_path / "run"
    shutil.copytree(base, workdir)
    _crash_run(workdir, workload, step, mode)
    with Catalog(workdir, durability=DURABILITY) as catalog:
        ids = tuple(catalog.collection("base").ids())
    assert ids in checkpoints

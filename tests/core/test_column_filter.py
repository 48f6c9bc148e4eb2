"""Filters and aggregates on segment columns: one semantics, rows last.

``Expr.mask`` evaluates a predicate over a whole column batch; the row
path's ``Expr.evaluate`` is the reference it must equal — answers *and*
exceptions — for every value shape the segment can store. On top of it:
aggregates folded off the masked key column equal the row fold, late
materialization returns the rows (and pixels) a full scan + filter
returns, corruption recovery still neither drops nor repeats a row, and
the work done is pinned by counters (columns decoded, rows materialized,
blob-heap reads), never by timings.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.metadata_segment as seg_mod
from repro.core import Attr, DeepLens, attribute_key
from repro.core.catalog import MaterializedCollection
from repro.core.expressions import And, Between, Comparison, Not, Or, Predicate
from repro.core.operators import AggregateExecution, IteratorScan, MetadataScan
from repro.core.patch import Patch
from repro.errors import QueryError
from repro.storage.kvstore import BlobHeap, serialization
from repro.storage.metadata_segment import CollectionSegment

# -- Expr.mask == Expr.evaluate, row by row -------------------------------------

ATTRS = ("a", "b", "c")
OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "contains")

ints = st.integers(-3, 3) | st.sampled_from(
    [2**53, 2**53 + 1, -(2**53) - 1, 2**62, 2**63 - 1, -(2**63), 2**70]
)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.5, -0.0, float(2**53), 1.0, 2.0]
)
strs = st.text(alphabet="ab\x00", max_size=3)
tuples = st.tuples(st.integers(0, 2), st.text(alphabet="ab", max_size=1))
arrays = st.sampled_from(
    [np.array([1.0, 2.0]), np.array([3]), np.array([], dtype=np.int64)]
)
scalars = st.none() | st.booleans() | ints | floats | strs
anything = scalars | tuples | arrays

#: how one attribute's values are drawn: homogeneous (a typed run on
#: disk) or anything goes (the general per-value encoding)
column_kinds = st.sampled_from([ints, floats, strs, tuples, arrays, anything])


@st.composite
def tables(draw):
    """Rows with missing keys, explicit Nones, typed and mixed columns."""
    kinds = {attr: draw(column_kinds) for attr in ATTRS}
    holes = {attr: draw(st.sampled_from([0.0, 0.0, 0.3])) for attr in ATTRS}
    rows = []
    for _ in range(draw(st.integers(1, 11))):
        row = {}
        for attr in ATTRS:
            if holes[attr] and draw(st.floats(0, 1)) < holes[attr]:
                if draw(st.booleans()):
                    row[attr] = None  # explicit None; else: key missing
                continue
            row[attr] = draw(kinds[attr])
        rows.append(row)
    return rows


@st.composite
def leaves(draw):
    attr = draw(st.sampled_from(ATTRS + ("nope",)))
    if draw(st.integers(0, 4)) == 0:
        lo, hi = draw(scalars), draw(scalars)
        if lo is None and hi is None:
            hi = 1
        return Between(attr, lo, hi)
    op = draw(st.sampled_from(OPS))
    if op == "in":
        probe = draw(st.lists(anything, max_size=3).map(tuple) | strs)
    else:
        probe = draw(anything)
    return Comparison(attr, op, probe)


exprs = st.recursive(
    leaves(),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda c: And(*c)),
        st.lists(children, min_size=2, max_size=3).map(lambda c: Or(*c)),
        children.map(Not),
    ),
    max_leaves=5,
)


def outcome(thunk):
    """What a computation did: its value, or the exception type."""
    try:
        return ("value", thunk())
    except Exception as exc:  # noqa: BLE001 — the type IS the assertion
        return ("raised", type(exc))


@pytest.fixture(scope="module")
def heap(tmp_path_factory):
    heap = BlobHeap(str(tmp_path_factory.mktemp("columns") / "seg.heap"))
    yield heap
    heap.close()


_ids = itertools.count()


def segment_of(heap, rows, block_rows=4):
    segment = CollectionSegment(heap, f"t{next(_ids)}", block_rows=block_rows)
    for i, row in enumerate(rows):
        segment.append(i, ("src", i, None), row)
    return segment


def row_by_row(expr, batch):
    patches = [
        MaterializedCollection._patch_from_metadata(*row) for row in batch.rows()
    ]
    return [bool(expr.evaluate(patch)) for patch in patches]


@given(rows=tables(), expr=exprs)
@settings(max_examples=400, deadline=None)
def test_mask_equals_evaluate_row_by_row(heap, rows, expr):
    """Every batch — sealed blocks of 4 and the open one — answers
    ``mask`` exactly as the row loop does, exception type included."""
    segment = segment_of(heap, rows)
    batches = list(segment.scan_columns())
    assert sum(len(batch) for batch in batches) == len(rows)
    assert len(batches) == -(-len(rows) // 4)
    for batch in batches:
        assert outcome(lambda: expr.mask(batch).tolist()) == outcome(
            lambda: row_by_row(expr, batch)
        )


@given(rows=tables(), expr=exprs)
@settings(max_examples=150, deadline=None)
def test_zone_map_skipping_never_drops_a_masked_row(heap, rows, expr):
    segment = segment_of(heap, rows)
    reference = outcome(
        lambda: [
            int(batch.ids[i])
            for batch in segment.scan_columns()
            for i, hit in enumerate(row_by_row(expr, batch))
            if hit
        ]
    )
    if reference[0] == "raised":
        return  # a skipped block may legitimately hide the raising row
    pruned = [
        int(patch_id)
        for batch in segment.scan_columns(expr)
        for patch_id in batch.ids[expr.mask(batch)]
    ]
    assert pruned == reference[1]


def _ordering_group(value):
    if isinstance(value, float) and value != value:
        return None  # NaN orders against nothing
    if isinstance(value, (bool, int, float)):
        return "num"
    return "str" if isinstance(value, str) else None


def brute_min_max(values):
    """(min, max) of the non-None values when they all order against
    each other (numbers without NaN, or strings), else None."""
    present = [value for value in values if value is not None]
    groups = {_ordering_group(value) for value in present}
    if len(groups) != 1 or None in groups:
        return None
    return min(present), max(present)


@given(rows=tables(), expr=exprs, data=st.data())
@settings(max_examples=150, deadline=None)
def test_open_block_answers_like_a_sealed_one(heap, rows, expr, data):
    """Blocks of 4, the last one open unless the rows fill it — holding
    None, NaN and mixed types like any other: the segment returns the
    rows it was given; every block's zone maps summarize the rows it
    returns; MIN/MAX off the zone maps equal a brute-force
    fold; the planner's kept-block count is the number of batches the
    scan yields; a scan resumed after any id (cutting a sealed or the
    open block) is the suffix of the uncut scan; one point read across
    every block equals the scan's rows."""
    segment = segment_of(heap, rows)
    frozen = serialization.dumps
    scanned = [row for batch in segment.scan_columns() for row in batch.rows()]
    assert [row[0] for row in scanned] == list(range(len(rows)))
    assert frozen([dict(sorted(row[2].items())) for row in scanned]) == frozen(
        [dict(sorted(row.items())) for row in rows]
    )
    for block, batch in segment._snapshot():
        held = [row[2] for row in segment._read(block, batch).rows()]
        for attr in ATTRS:
            assert block.zones.get(attr, seg_mod._ABSENT) == seg_mod.zone_of(
                [metadata.get(attr) for metadata in held],
                [attr in metadata for metadata in held],
            ), (attr, block.ref is None)
    for attr in ATTRS + ("nope",):
        assert segment.attr_min_max(attr) == brute_min_max(
            [row.get(attr) for row in rows]
        ), attr
    kept, total = segment.block_stats(expr)
    assert total == -(-len(rows) // 4)
    assert kept == len(list(segment.scan_columns(expr)))
    after = data.draw(st.integers(-1, len(rows)), label="after_id")
    resumed = [
        row
        for batch in segment.scan_columns(after_id=after)
        for row in batch.rows()
    ]
    assert frozen(resumed) == frozen([row for row in scanned if row[0] > after])
    wanted = data.draw(st.permutations(range(len(rows))), label="ids")
    assert frozen(segment.get_rows(wanted)) == frozen(
        [scanned[i] for i in wanted]
    )


def test_typed_runs_take_the_numpy_kernels(heap):
    """The differential must not pass by everything falling back: typed
    int/float/str columns really are served as arrays."""
    rows = [{"i": n, "f": n / 2, "s": f"v{n}", "m": n if n % 2 else "x"}
            for n in range(4)]
    (batch,) = segment_of(heap, rows).scan_columns()
    assert batch.numeric("i").dtype == np.int64
    assert batch.numeric("f").dtype == np.float64
    assert batch.strings("s").tolist() == ["v0", "v1", "v2", "v3"]
    assert batch.numeric("m") is None and batch.strings("m") is None
    assert batch.numeric("absent") is None
    assert batch.values("absent") == [None] * 4


# -- a small catalog with sealed blocks and an open one ----------------------

LABELS = ("car", "person", "bus")
N = 30


def make_patches(n=N):
    rng = np.random.default_rng(11)
    for i in range(n):
        patch = Patch.from_frame(
            "vid", i, rng.integers(0, 255, (4, 4, 3), dtype=np.uint8)
        )
        patch.metadata["label"] = LABELS[i % 3]
        patch.metadata["zone"] = i % 5
        patch.metadata["score"] = None if i % 7 == 0 else i / 4
        patch.metadata["mixed"] = [i, str(i), None][i % 3]
        patch.metadata["nothing"] = None
        patch.metadata["emb"] = [float(i), float(i % 3)]
        if i % 4:
            patch.metadata["opt"] = float(i)
        yield patch


@pytest.fixture()
def db(tmp_path, monkeypatch):
    monkeypatch.setattr(seg_mod, "BLOCK_ROWS", 8)  # 3 sealed + 6 open rows
    with DeepLens(tmp_path) as session:
        session.materialize(make_patches(), "det")
        yield session


def counter(session, name):
    return session.metrics()["counters"].get(name, 0)


def record_rows(collection, expr):
    """The row-path reference: every heap record, decoded by walking the
    row tree, filtered with ``Expr.evaluate`` — the segment plays no part."""
    return [
        patch
        for batch in collection._record_batches(7, True)
        for patch in batch
        if expr is None or expr.evaluate(patch)
    ]


FILTERS = {
    "none": None,
    "zone": Attr("zone") >= 2,
    "label": Attr("label") == "car",
    "or": (Attr("label") == "bus") | ~(Attr("opt") > 10.0),
    "empty": Attr("zone") == 99,
    "all-none-key": Attr("score") == None,  # noqa: E711 — the DSL's ==
}
KINDS = ("count", "avg", "min", "max", "distinct_count", "group")
KEYS = ("zone", "score", "label", "mixed", "nothing", "opt", "absent")


@pytest.mark.parametrize("where", FILTERS)
@pytest.mark.parametrize("kind", KINDS)
def test_column_fold_equals_row_fold(db, kind, where):
    """All six aggregate kinds, over typed, mixed, all-None, partly
    missing and absent keys, with empty and all-None inputs: folding the
    masked key column gives what folding full rows gives (or raises the
    same error), and builds no row."""
    expr = FILTERS[where]
    collection = db.collection("det")
    for attr in KEYS[:1] if kind == "count" else KEYS:
        key = None if kind == "count" else attribute_key(attr)
        rows = AggregateExecution(
            IteratorScan(record_rows(collection, expr)), kind, key, len
        )
        query = db.scan("det")
        if expr is not None:
            query = query.filter(expr)
        before = counter(db, "deeplens_segment_rows_materialized_total")
        folded = outcome(lambda: query.aggregate(kind, key=key))
        assert (
            counter(db, "deeplens_segment_rows_materialized_total") == before
        ), (kind, attr)
        expected = outcome(rows.execute)
        if expected[0] == "raised":
            assert expected[1] is QueryError
        assert folded == expected, (kind, attr)


def test_column_fold_is_planned_and_explained(db):
    explanation = db.scan("det").filter(Attr("zone") >= 2).aggregate_explain(
        "avg", key=attribute_key("score")
    )
    text = str(explanation)
    assert explanation.chosen.kind in ("metadata-scan", "zone-map-scan")
    assert "reading columns [zone]" in text
    assert "column-fold: avg(score) folds the masked key column of Scan(det)" in text
    assert "reading columns [score, zone] and materializing 0 rows" in text
    # a reducer over whole rows, or an opaque key, still gets rows
    rows_needed = db.scan("det").aggregate_explain(
        "group", key=attribute_key("label"), reducer=lambda rows: rows[0]
    )
    assert "column-fold" not in str(rows_needed)
    limited = db.scan("det").limit(3).aggregate_explain("count")
    assert "column-fold" not in str(limited)
    assert db.scan("det").limit(3).count() == 3


def test_analyze_grades_a_folded_aggregate(db):
    """EXPLAIN ANALYZE of a column-folded aggregate reports the rows
    that passed the filter as the scan's output, none as materialized."""
    explanation = db.scan("det").filter(Attr("label") == "car").aggregate_explain(
        "count", analyze=True
    )
    (entry,) = explanation.profile.entries
    assert entry.rows_out == 10 and entry.rows_in == 0
    assert entry.exhausted and entry.q is not None


# -- late materialization -----------------------------------------------------


def signature(patches):
    return [
        (p.patch_id, p.img_ref, p.data.tobytes(), list(p.metadata.items()))
        for p in patches
    ]


@pytest.mark.parametrize(
    "expr",
    [
        Attr("opt") >= 27.0,
        (Attr("label") == "person") & Attr("zone").between(3, 4),
        Attr("mixed").isin((3, "4")),
        Attr("zone") == 99,
        Predicate(lambda p: int(p.data.sum()) % 3 == 0, "pixel-sum"),
        None,
    ],
    ids=repr,
)
def test_late_materialization_equals_scan_then_filter(db, expr):
    """The one scan the planner offers — structural conjuncts on the
    columns, an opaque one above, nothing for a bare scan — returns the
    records a row-tree walk + filter returns, pixels included."""
    collection = db.collection("det")
    reference = record_rows(collection, expr)
    late, explanation = db.optimizer.plan_filter("det", expr)
    assert explanation.chosen.kind == "late-materialization"
    assert len(explanation.candidates) == 1
    for size in (1, 4, 256):
        got = [row[0] for batch in late.iter_batches(size) for row in batch]
        assert signature(got) == signature(reference)
    if isinstance(expr, Predicate):
        assert 0 < len(reference) < N  # the predicate really filters
        return
    lean = MetadataScan(collection, expr).patches()
    assert all(p.data.size == 0 for p in lean)
    assert [list(p.metadata.items()) for p in lean] == [
        list(p.metadata.items()) for p in reference
    ]


def test_selective_select_star_reads_only_matching_records(db):
    """Counts, not timings: ``SELECT *`` with a selective filter is
    planned as late materialization and reads exactly ``len(result)``
    records from the blob heap."""
    sql = "SELECT * FROM det WHERE opt >= 27.0"
    assert db.sql(f"EXPLAIN {sql}").chosen.kind == "late-materialization"
    before = counter(db, 'deeplens_heap_reads_total{store="blob"}')
    result = db.sql(sql)
    reads = counter(db, 'deeplens_heap_reads_total{store="blob"}') - before
    assert [p["opt"] for p in result] == [27.0, 29.0]
    assert all(p.data.shape == (4, 4, 3) for p in result)
    assert reads == len(result) == 2
    # an unselective filter takes the same path: the columns first, then
    # one record read per survivor (24 of 30), never a record for a miss
    unselective = db.scan("det").filter(Attr("zone") >= 1)
    assert unselective.explain().chosen.kind == "late-materialization"
    before = counter(db, 'deeplens_heap_reads_total{store="blob"}')
    assert len(unselective.patches()) == 24
    assert counter(db, 'deeplens_heap_reads_total{store="blob"}') - before == 24


def test_count_decodes_one_column_per_surviving_block(db):
    """The tier-1 perf guard: a zone-mapped COUNT(*) decodes exactly one
    column per surviving sealed block and materializes no row."""
    columns = "deeplens_segment_columns_decoded_total"
    rows = "deeplens_segment_rows_materialized_total"
    scanned = "deeplens_zonemap_blocks_scanned_total"
    before = {name: counter(db, name) for name in (columns, rows, scanned)}
    # frames 9..20 live in blocks 2 and 3 of [0-7][8-15][16-23][24-29]
    assert db.sql("SELECT COUNT(*) FROM det WHERE frameno BETWEEN 9 AND 20") == 12
    delta = {name: counter(db, name) - before[name] for name in before}
    assert delta == {columns: 2, rows: 0, scanned: 2}
    text = db.metrics_text()
    assert columns in text and rows in text
    shown = {row["metric"] for row in db.sql("SHOW METRICS")}
    assert {columns, rows} <= shown


def test_projected_point_fetch_decodes_only_projected_columns(db):
    """``SELECT zone ... ORDER BY SIMILARITY LIMIT k`` fetches its k rows
    through the index and decodes the projected column plus the three
    always-kept ones — not the block's stacked embedding column."""
    db.create_index("det", "emb", "hnsw", params={"ef": 8})
    nearest = db.scan("det").similarity_search([10.2, 1.0], 4, attr="emb")
    assert nearest.select("zone").explain().chosen.kind == "hnsw-ann"
    full = nearest.patches()
    before = counter(db, "deeplens_segment_columns_decoded_total")
    got = nearest.select("zone").patches()
    decoded = counter(db, "deeplens_segment_columns_decoded_total") - before
    # ids 9..12 all live in the second sealed block
    assert sorted(p.patch_id for p in got) == [9, 10, 11, 12]
    kept = {"zone", "_lineage", "source", "frameno"}
    assert decoded == len(kept)
    assert [list(p.metadata) for p in got] == [
        [key for key in p.metadata if key in kept] for p in full
    ]
    assert [(p.patch_id, p["zone"], p.lineage, p.img_ref) for p in got] == [
        (p.patch_id, p["zone"], p.lineage, p.img_ref) for p in full
    ]


# -- corruption mid-scan ------------------------------------------------------


def _flip_bit(path, offset):
    with open(path, "r+b") as file:
        file.seek(offset)
        byte = file.read(1)
        file.seek(offset)
        file.write(bytes([byte[0] ^ 0x01]))


def test_corrupt_block_mid_column_scan_quarantines_rebuilds_resumes(
    tmp_path, monkeypatch
):
    """The second of four sealed blocks is corrupt: the column scan has
    already delivered block one, quarantines the segment, rebuilds it
    from the blob heap and resumes — every id once, for rows, late
    materialization and a folded aggregate alike."""
    monkeypatch.setattr(seg_mod, "BLOCK_ROWS", 4)
    with DeepLens(tmp_path, durability="flush") as session:
        session.materialize(make_patches(18), "det")
        blocks = session.catalog.segments.segment("det")._blocks
        assert len(blocks) == 4
        offset = blocks[1].ref.offset
    expr = Attr("zone") >= 1
    expected = [i for i in range(18) if i % 5 >= 1]
    for run in ("rows", "late", "fold"):
        _flip_bit(tmp_path / "catalog" / "metadata.seg", offset + 20)
        with DeepLens(tmp_path, durability="flush") as session:
            collection = session.collection("det")
            if run == "rows":
                got = [p["frameno"] for p in MetadataScan(collection, expr).patches()]
            elif run == "late":
                got = [
                    p["frameno"]
                    for p in MetadataScan(collection, expr, load_data=True).patches()
                ]
            else:
                assert session.scan("det").filter(expr).count() == len(expected)
                got = expected
            assert got == expected
            kinds = [e["kind"] for e in session.recovery_report()["events"]]
            assert "segment_quarantined" in kinds
            assert counter(session, "deeplens_segment_rebuilds_total") == 1
            offset = session.catalog.segments.segment("det")._blocks[1].ref.offset

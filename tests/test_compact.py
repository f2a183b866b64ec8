import csv
import io
import json
import random
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from downcolor import (
    Coloring,
    ColoringError,
    CompactMatrix,
    ParseError,
    build_compact,
    canonical_columns,
    down_coloring,
    find_down_violation,
    is_below,
    is_below_ids,
    parse_compact,
    parse_digraph,
    serialize,
    stats,
    transitive_closure,
    verify_ac_property,
    verify_down_coloring,
)
from downcolor import _kernels, compact
from conftest import (SCALE_GRAPHS, ac_check_reference, brute_ac_ok,
                      brute_violation, compact_csv_reference, csv_reference,
                      hierarchy, json_reference, layered_dag, random_dag,
                      reach_closed)

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"
WITNESS = Coloring({"g1": 1, "g2": 3, "g3": 2, "g4": 2, "g5": 3, "g6": 1}, 3,
                  "exact")


def test_six_example_matrix_cells():
    g = parse_digraph(SIX)
    m = build_compact(g, WITNESS)
    assert m.k == 3
    assert m.rows == {
        "g1": ("g1", "g4", "g5"),
        "g2": ("g6", "g4", "g2"),
        "g3": ("g6", "g3", "g5"),
        "g4": (None, "g4", None),
        "g5": (None, None, "g5"),
        "g6": ("g6", None, None),
    }


def test_build_compact_rejects_bad_coloring():
    g = parse_digraph(SIX)
    bad = Coloring({"g1": 1, "g2": 2, "g3": 3, "g4": 1, "g5": 2, "g6": 3}, 3,
                   "greedy")
    with pytest.raises(ColoringError):
        build_compact(g, bad)


def test_build_compact_raises_exactly_on_violation_with_its_witness():
    rng = random.Random(43)
    raised = 0
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 14), rng.choice([0.1, 0.3, 0.6]))
        k = rng.randint(1, g.n)
        colors = {lab: rng.randint(1, k) for lab in g.labels}
        rank = {col: i + 1 for i, col in enumerate(sorted(set(colors.values())))}
        c = Coloring({lab: rank[x] for lab, x in colors.items()}, len(rank),
                     "greedy")
        violation = find_down_violation(g, c)
        if violation is None:
            assert verify_ac_property(build_compact(g, c), g).ok
            continue
        with pytest.raises(ColoringError) as exc:
            build_compact(g, c)
        assert exc.value.witness == violation
        raised += 1
    assert 0 < raised < 300


def closure_table(g, c) -> dict[str, tuple]:
    """The compact rows of a rainbow coloring, laid out from the closed
    reachability sets: row v holds each u below v at u's color."""
    rows = {}
    for v, below in reach_closed(g).items():
        cells = [None] * c.k
        for u in below:
            cells[c.colors[u] - 1] = u
        rows[v] = tuple(cells)
    return rows


@pytest.mark.parametrize("family", [
    lambda rng: random_dag(rng, rng.randint(1, 16), rng.choice([0.1, 0.3, 0.6])),
    lambda rng: layered_dag(rng, rng.randint(1, 30), rng.choice([0.2, 0.5])),
    lambda rng: hierarchy(rng, rng.randint(12, 36), rng.randint(1, 2)),
], ids=["random_dag", "layered_dag", "hierarchy"])
def test_build_compact_matches_the_closure_oracle(family):
    rng = random.Random(71)
    raised = 0
    for _ in range(60):
        g = family(rng)
        c = down_coloring(g)
        m = build_compact(g, c)
        assert m.labels == tuple(sorted(g.labels))
        assert m.rows == closure_table(g, c)
        # a random coloring, its colors renumbered 1..k
        colors = {lab: rng.randint(1, rng.randint(1, g.n)) for lab in g.labels}
        rank = {x: i + 1 for i, x in enumerate(sorted(set(colors.values())))}
        c = Coloring({lab: rank[x] for lab, x in colors.items()}, len(rank), "greedy")
        witness = brute_violation(g, c)
        if witness is None:
            assert build_compact(g, c).rows == closure_table(g, c)
            continue
        with pytest.raises(ColoringError) as exc:
            build_compact(g, c)
        assert exc.value.witness == witness
        raised += 1
    assert 0 < raised < 60


def test_build_compact_rejects_partial_coloring():
    g = parse_digraph(SIX)
    partial = dict(WITNESS.colors)
    del partial["g4"]
    with pytest.raises(ColoringError, match="misses vertices"):
        build_compact(g, Coloring(partial, 3, "exact"))


# twelve vertices in a chain, their labels out of sorted order by id
CHAIN = "".join(f"v{i} v{i - 1}\n" for i in range(11, 0, -1))


@pytest.mark.parametrize("missing, unknown, want", [
    (7, 0, "coloring misses vertices: ['v0', 'v1', 'v10', 'v11', 'v2']"),
    (0, 7, "coloring names unknown vertices: ['z0', 'z1', 'z2', 'z3', 'z4']"),
    (2, 2, "coloring misses vertices: ['v0', 'v1']"),
])
@pytest.mark.parametrize("entry", [build_compact, verify_down_coloring])
def test_color_lookup_refuses_a_coloring_of_other_vertices(entry, missing,
                                                           unknown, want):
    g = parse_digraph(CHAIN)
    labels = sorted(g.labels)[missing:] + [f"z{i}" for i in range(unknown - 1, -1, -1)]
    c = Coloring(dict.fromkeys(reversed(labels), 1), 1, "greedy")
    with pytest.raises(ColoringError) as exc:
        entry(g, c)
    assert str(exc.value) == want and exc.value.witness is None


@pytest.mark.parametrize("entry", [build_compact, verify_down_coloring])
def test_color_lookup_runs_before_the_acyclicity_gate(entry):
    g = parse_digraph("a b\nb c\nc a\n")
    with pytest.raises(ColoringError, match=r"misses vertices: \['c'\]"):
        entry(g, Coloring({"a": 1, "b": 2}, 2, "greedy"))


def test_verify_ac_property_ok():
    g = parse_digraph(SIX)
    chk = verify_ac_property(build_compact(g, WITNESS), g)
    assert chk.ok and chk.clause is None


def test_verify_catches_column_conflict():
    g = parse_digraph(SIX)
    m = build_compact(g, WITNESS)
    rows = dict(m.rows)
    # move g6 into column 2 of one row only
    rows["g3"] = (None, "g6", "g5")
    chk = verify_ac_property(CompactMatrix(m.k, m.labels, rows), g)
    assert not chk.ok and chk.clause == 1


def test_verify_catches_wrong_row_content():
    g = parse_digraph(SIX)
    m = build_compact(g, WITNESS)
    rows = dict(m.rows)
    rows["g4"] = (None, None, None)  # drops the g4 self entry
    chk = verify_ac_property(CompactMatrix(m.k, m.labels, rows), g)
    assert not chk.ok and chk.clause == 2
    assert "g4" in chk.detail


def test_verify_catches_missing_row_labels():
    g = parse_digraph(SIX + "g7 g4\n")
    m = build_compact(parse_digraph(SIX), WITNESS)
    chk = verify_ac_property(m, g)
    assert not chk.ok and chk.clause == 2
    # as many rows as vertices, one of them named for no vertex
    g = parse_digraph(SIX.replace("g6", "g7"))
    chk = verify_ac_property(m, g)
    assert (chk.ok, chk.clause, chk.detail) == ac_check_reference(m, g)
    assert chk.clause == 2


# labels the csv module quotes, or leaves bare, in ways the writer must
# match: line breaks, outer spaces, non-ASCII text, header names
ODD_LABELS = [
    ["a\rb", "c\nd", "e\r\nf", "g"],
    [" lead", "trail ", " both ", "in side"],
    ["é", "日本", "ü,v", "\u2028"],
    ["vertex", "c1", "c2", "x"],
]


def relabeled(m, names):
    """``m`` with its labels renamed, in order, to ``names``."""
    new = dict(zip(m.labels, names))
    rows = {new[lab]: tuple(new.get(x) for x in m.rows[lab]) for lab in m.labels}
    return CompactMatrix(m.k, tuple(sorted(rows)), rows)


def test_csv_roundtrip_and_header():
    g = parse_digraph(SIX)
    m = build_compact(g, WITNESS)
    text = serialize(m, "csv")
    assert text.splitlines()[0] == "vertex,c1,c2,c3"
    assert text == csv_reference(m)
    assert parse_compact(text, "csv") == m
    # labels with "," and '"' go through csv quoting
    g = parse_digraph('a,b x"y\nx"y "z\na,b w,\n')
    m = build_compact(g, down_coloring(g))
    text = serialize(m, "csv")
    assert text == csv_reference(m)
    assert '"a,b"' in text and '"x""y"' in text
    assert parse_compact(text, "csv") == m
    g = parse_digraph("p q\nq r\np s\n")
    for names in ODD_LABELS:
        m = relabeled(build_compact(g, down_coloring(g)), names)
        text = serialize(m, "csv")
        assert text == csv_reference(m)
        assert parse_compact(text, "csv") == m
        assert serialize(m, "json") == json_reference(m)
        assert parse_compact(serialize(m, "json"), "json") == m


# the names random tables draw their rows and cells from: plain, quoted
# for a comma, quote, CR or LF, with outer spaces, non-ASCII, empty, and
# holding a NUL, which sends the writer's quoting to the csv module
WRITER_NAMES = ["a", "b,c", 'd"e', "f\rg", "h\ni", "j\r\nk", " l ", "é",
                "", '"', ",", "m" * 20, "\0", "a\x00b"] + [f"v{i}" for i in range(30)]


def random_table(rng):
    """A table with 0 to 14 rows and 0 to 9 columns, each row empty, full
    or filled at random, its cells naming rows or names of no row."""
    labels = tuple(sorted(rng.sample(WRITER_NAMES, rng.randint(0, 14))))
    k = rng.choice([0, 1, 2, 5, 9])
    names = labels + ("x,y", "z\n", "w")
    rows = {}
    for lab in labels:
        fill = rng.choice([0.0, 1.0, rng.random()])
        rows[lab] = tuple(rng.choice(names) if rng.random() < fill else None
                          for _ in range(k))
    return CompactMatrix(k, labels, rows)


def test_csv_writer_matches_reference_on_random_tables(monkeypatch):
    # blocks of 3 rows: tables span several, and a run's commas, made in
    # one block, are reused in the next
    monkeypatch.setattr(compact, "_CSV_ROWS", 3)
    rng = random.Random(131)
    for _ in range(400):
        m = random_table(rng)
        chunks = list(compact.csv_chunks(m))
        assert "".join(chunks) == serialize(m, "csv") == csv_reference(m)
        assert len(chunks) == 1 + -(-len(m.labels) // 3)  # the header, then each block


def quoted_reference(name: str) -> str:
    """``name`` as the csv module writes it as the first field of a
    two-field record that ends in CR LF."""
    out: list[str] = []
    csv.writer(SimpleNamespace(write=out.append), lineterminator="\r\n").writerow([name, ""])
    return out[0][:-3]


# the characters the writer's quoting test decides on, blanks the csv
# module leaves bare, non-ASCII text and a lone surrogate, then any
NAME_CHARS = st.sampled_from(list(',"\r\n\0 \t\x0b\x85\xa0é\ud800a')) | st.characters()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(NAME_CHARS, max_size=5), max_size=6))
def test_quoted_matches_the_csv_module(names):
    assert compact._quoted(tuple(names)) == [quoted_reference(x) for x in names]


def test_csv_reads_back_one_label_holding_a_lf_among_plain_ones():
    g = parse_digraph("".join(f"t{i} b{i % 97}\n" for i in range(3000)))
    m = build_compact(g, down_coloring(g))
    m = relabeled(m, [lab if lab != "t5" else "a\nb" for lab in m.labels])
    text = serialize(m, "csv")
    assert '"a\nb"' in text
    assert parse_compact(text, "csv") == m


def test_json_roundtrip():
    g = parse_digraph(SIX)
    m = build_compact(g, WITNESS)
    assert serialize(m, "json") == json_reference(m)
    assert parse_compact(serialize(m, "json"), "json") == m


def test_valid_table_never_builds_rows(monkeypatch):
    def built(self):
        raise AssertionError("rows were built")
    rng = random.Random(61)
    graphs = [parse_digraph(SIX)] + [random_dag(rng, rng.randint(1, 20), 0.3)
                                     for _ in range(20)]
    colorings = [down_coloring(g) for g in graphs]
    monkeypatch.setattr(CompactMatrix, "rows", property(built))
    for g, c in zip(graphs, colorings):
        m = build_compact(g, c)
        for fmt in ("csv", "json"):
            back = parse_compact(serialize(m, fmt), fmt)
            assert back == m
            assert verify_ac_property(back, g).ok


@pytest.mark.parametrize("text", [
    "vertex,c1\nv1,v1\nv1,v1\n",      # duplicate row
    "wrong,c1\nv1,v1\n",              # bad header
    "vertex,c1\nv1,v1,v2\n",          # row too long
])
def test_csv_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_compact(text, "csv")


@pytest.mark.parametrize("text", [
    '{"k": 1, "rows": []}',                # rows not an object
    '{"k": 1, "rows": {"a": 5}}',          # row not a list
    '{"k": 2, "rows": {"a": "ab"}}',       # row a string
    '{"k": 1, "rows": {"a": [3]}}',        # cell neither string nor null
])
def test_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_compact(text, "json")


def test_readers_refuse_deep_json_and_read_long_csv_fields():
    deep = "[" * 100000 + "]" * 100000
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_compact(deep, "json")
    # labels over the csv module's field limit (131072 characters), bare
    # or quoted, read back, and the limit, process-global, stays put
    g = parse_digraph("x" * 140000 + " b\n")
    m = build_compact(g, down_coloring(g))
    assert parse_compact(serialize(m, "csv"), "csv") == m
    g = parse_digraph('x,"' + "x" * 140000 + " b\n")
    m = build_compact(g, down_coloring(g))
    assert parse_compact(serialize(m, "csv"), "csv") == m
    assert csv.field_size_limit() == 131072
    assert parse_compact(serialize(m, "json"), "json") == m


def test_csv_reader_names_irregular_plain_records_past_the_field_limit():
    # a field over csv.field_size_limit() does not hide an irregular
    # record, and a quoted one reads back
    x = "x" * 140000
    for text, want in ((f"vertex,c1\n{x},{x}\n{x},{x}\n", f"duplicate row {x!r}"),
                       (f"vertex,c1,c2\n{x},{x},\nb,\n",
                        "row 'b' has 1 cells, expected 2")):
        with pytest.raises(ValueError) as ei:
            parse_compact(text, "csv")
        assert (type(ei.value), str(ei.value)) == (ValueError, want)
    m = parse_compact(f'vertex,c1\n"{x}",\n', "csv")
    assert (m.k, dict(m.rows)) == (1, {x: (None,)})


def mutate(rng, m, labels):
    """One random edit of a table: swap two cells of a row, move a cell
    to another column, write a foreign or other-vertex label, drop a
    row, or write an extra vertex into an empty cell of its own column
    (where it sits in its own row), which a valid table's row lacks."""
    rows = dict(m.rows)
    lab = rng.choice(m.labels)
    cells = list(rows[lab])
    kind = rng.choice(("swap", "move", "foreign", "drop", "extra"))
    if kind == "drop":
        del rows[lab]
        return CompactMatrix(m.k, tuple(sorted(rows)), rows)
    i, j = rng.randrange(m.k), rng.randrange(m.k)
    if kind == "swap":
        cells[i], cells[j] = cells[j], cells[i]
    elif kind == "move":
        cells[i], cells[j] = None, cells[i]
    elif kind == "extra":  # every read still succeeds: only the fill count sees it
        spots = [(x, c) for x in m.labels if x in rows[x]
                 for c in [rows[x].index(x)] if cells[c] is None]
        if spots:
            x, c = rng.choice(spots)
            cells[c] = x
    else:
        cells[i] = rng.choice(["zz"] + list(labels))
    rows[lab] = tuple(cells)
    return CompactMatrix(m.k, m.labels, rows)


def test_verify_ac_property_matches_brute_oracle_on_mutations():
    rng = random.Random(97)
    verdicts = set()
    for _ in range(400):
        g = random_dag(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.7]))
        m = build_compact(g, down_coloring(g))
        for _ in range(rng.randint(1, 3)):
            if m.labels and m.k:
                m = mutate(rng, m, g.labels)
        chk = verify_ac_property(m, g)
        assert (chk.ok, chk.clause, chk.detail) == ac_check_reference(m, g)
        assert chk.ok == brute_ac_ok(m, g)
        verdicts.add(chk.clause)
    assert verdicts == {None, 1, 2}


def test_is_below_matches_reach_closed():
    # on built tables, and on mutated ones wherever the AC check passes
    rng = random.Random(79)
    checked = 0
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.6]))
        m = build_compact(g, down_coloring(g))
        if m.labels and m.k and rng.random() < 0.7:
            m = mutate(rng, m, g.labels)
        if not verify_ac_property(m, g).ok:
            continue
        checked += 1
        reach = reach_closed(g)
        want = [[u in reach[v] for v in m.labels] for u in m.labels]
        ids = np.arange(len(m.labels))
        assert is_below_ids(m, ids[:, None], ids[None, :]).tolist() == want
        assert [[is_below(m, u, v) for v in m.labels] for u in m.labels] == want
    assert checked > 100
    with pytest.raises(ValueError, match="unknown vertex label 'zz'"):
        is_below(m, "zz", m.labels[0])
    with pytest.raises(ValueError, match="row ids must lie in"):
        is_below_ids(m, [len(m.labels)], [0])


def test_is_below_ids_takes_only_integer_ids():
    m = build_compact(parse_digraph(SIX), WITNESS)
    g4 = m.labels.index("g4")
    for bad in ([1.7], ["1"], [True], np.array([g4], dtype=object)):
        with pytest.raises(ValueError, match="^row ids must be integers$"):
            is_below_ids(m, bad, [0])
        with pytest.raises(ValueError, match="^row ids must be integers$"):
            is_below_ids(m, [0], bad)
    g1 = m.labels.index("g1")
    assert is_below_ids(m, np.array([g4], dtype=np.uint8), [g1]).tolist() == [True]
    for empty in ([], np.array([], dtype=float)):
        assert is_below_ids(m, empty, empty).shape == (0,)


def test_is_below_on_a_table_without_columns():
    m = CompactMatrix(0, ("a", "b"), {"a": (), "b": ()})
    assert is_below_ids(m, [0, 1], [[0], [1]]).tolist() == [[False, False]] * 2
    assert not is_below(m, "a", "a")


def test_table_refusals():
    m = build_compact(parse_digraph(SIX), WITNESS)
    with pytest.raises(AttributeError, match="^a CompactMatrix is read-only$"):
        m.k = 4
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        serialize(m, "xml")
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        parse_compact(serialize(m), "xml")


def test_build_and_ac_check_hold_one_table():
    # the build gathers the down-set rows in final row order and scatters
    # them once into the table it returns, and the AC check only reads
    # it, one cell per pair of the closure, so neither holds a second
    # n-by-k array
    g = hierarchy(random.Random(0), 20000)
    c = down_coloring(g)
    tracemalloc.start()
    try:
        m = build_compact(g, c)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert verify_ac_property(m, g)
        check = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert m.k == 42
    assert build < 2.75 * m.table.nbytes
    assert check < 1.25 * m.table.nbytes


def test_verify_ac_property_counts_each_rows_fill():
    # a and b share column 1, and row a holds a there: the fill count
    # matches sum |D|, but reading b in row a at its column returns a
    g = parse_digraph("b\na b\n")
    m = CompactMatrix(2, ("a", "b"), {"a": ("a", None), "b": ("b", None)})
    chk = verify_ac_property(m, g)
    assert (chk.ok, chk.clause) == (False, 2)
    assert (chk.ok, chk.clause, chk.detail) == ac_check_reference(m, g)


def test_build_compact_refuses_a_table_over_the_byte_budget(monkeypatch):
    # a wide star: T over h leaves, and h pendant tops, each over one
    # leaf; sum |D| is linear in n, but k = h + 1, so the table is not
    h = 1000
    g = parse_digraph("".join(f"T l{i}\np{i} l{i}\n" for i in range(h)))
    c = down_coloring(g)
    n, k = g.n, c.k
    assert (n, k) == (2 * h + 1, h + 1)
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 4 * n * k - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as ei:
            build_compact(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(ei.value) == (
        "the compact table of 2001 vertices and 1001 colors is too large: "
        "its cells take 8,012,004 bytes, over the 8,012,003-byte budget")
    assert peak < 0.05 * 4 * n * k
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 4 * n * k)
    assert verify_ac_property(build_compact(g, c), g)


def test_compact_matrix_validation():
    with pytest.raises(ValueError):
        CompactMatrix(1, ("b", "a"), {"a": ("a",), "b": ("b",)})
    with pytest.raises(ValueError):
        CompactMatrix(1, ("a",), {"a": ("a",), "b": ("b",)})
    with pytest.raises(ValueError):
        CompactMatrix(2, ("a",), {"a": ("a",)})


def test_stats_counts():
    g = parse_digraph(SIX)
    s = stats(build_compact(g, WITNESS))
    assert (s.n, s.k) == (6, 3)
    assert s.dense_cells == 36 and s.compact_cells == 18
    assert s.fill_ratio == pytest.approx(12 / 18)


def test_canonical_columns_permutes_by_first_use():
    g = parse_digraph("a b\nc d\n")
    c = Coloring({"a": 2, "b": 3, "c": 1, "d": 2}, 3, "greedy")
    m = canonical_columns(build_compact(g, c))
    assert m.rows == {
        "a": ("a", "b", None),
        "b": (None, "b", None),
        "c": ("d", None, "c"),
        "d": ("d", None, None),
    }


def test_canonical_columns_idempotent_and_stable():
    rng = random.Random(83)
    for _ in range(20):
        g = random_dag(rng, rng.randint(0, 12), 0.4)
        m = canonical_columns(build_compact(g, down_coloring(g)))
        assert canonical_columns(m) == m


def test_closure_reconstruction_from_matrix():
    rng = random.Random(89)
    for _ in range(20):
        g = random_dag(rng, rng.randint(1, 12), 0.4)
        m = build_compact(g, down_coloring(g))
        got = {(u, v) for u, row in m.rows.items()
               for v in row if v is not None and v != u}
        assert got == set(transitive_closure(g).edge_labels())


# ------------------------------------------------------------ reader fuzz

CELLS = ["a", "b", "c", "", "a,b", 'x"y', " s ", "é", "vertex", "c1",
         "a\rb", "l\nm", "zz", "ninebytes", "sixteen-bytes-ab", "x" * 40,
         "ünïcödé"]


@st.composite
def compact_csv_texts(draw):
    """Compact CSV documents, mostly well formed: a header for k columns
    or a mangled one, records of k + 1 fields or not, written by the csv
    module with assorted quoting and line ends, sometimes with a random
    fragment spliced in."""
    k = draw(st.integers(0, 3))
    recs = [["vertex"] + [f"c{i}" for i in range(1, k + 1)]]
    if draw(st.integers(0, 5)) == 0:
        recs[0] = draw(st.lists(st.sampled_from(CELLS + ["c2", "c3"]), max_size=4))
    for _ in range(draw(st.integers(0, 5))):
        width = k + 1 if draw(st.integers(0, 5)) else draw(st.integers(0, 5))
        recs.append(draw(st.lists(st.sampled_from(CELLS), min_size=width,
                                  max_size=width)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])),
               quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
               ).writerows(recs)
    text = buf.getvalue()
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(max_size=4)) + text[i:]
    return text


# csv.reader's error, in Python 3.11's words, for a CR outside quotes
# before other text on its line
CR_ERROR = ("new-line character seen in unquoted field - do you need to open "
            "the file in universal-newline mode?")


def reference_outcome(text):
    """What ``compact_csv_reference`` makes of ``text`` as Python 3.11's
    ``csv.reader`` reads it, which the reader follows on every Python:
    ``(k, rows)``, or the error's type and text (a ``ParseError``'s names
    its line)."""
    nul = None
    if "\0" in text and sys.version_info < (3, 11):
        # csv.reader before 3.11 refuses NUL ("line contains NUL"), which
        # 3.11 reads as text: the oracle reads NUL as a character the text
        # lacks, and its results are mapped back
        nul = next(c for c in map(chr, range(0xE000, 0xF900)) if c not in text)
        text = text.replace("\0", nul)
    try:
        k, rows = compact_csv_reference(text)
    except ParseError as exc:
        if "new-line character seen in unquoted field" in str(exc):
            # later Pythons may word this error otherwise; the reader
            # keeps 3.11's text
            exc = ParseError(CR_ERROR, exc.line)
        return type(exc), str(exc)
    except ValueError as exc:
        return type(exc), (str(exc) if nul is None
                           else str(exc).replace(repr(nul)[1:-1], "\\x00"))
    if nul is not None:
        def back(x):
            return x and x.replace(nul, "\0")
        rows = {back(lab): tuple(map(back, cells)) for lab, cells in rows.items()}
    return k, rows


def reader_outcome(text):
    try:
        m = parse_compact(text, "csv")
    except ValueError as exc:
        return type(exc), str(exc)
    return m.k, dict(m.rows)


@settings(max_examples=500, deadline=None)
@given(st.one_of(compact_csv_texts(), st.text(max_size=30)))
def test_csv_reader_fuzz(text):
    want = reference_outcome(text)
    assert reader_outcome(text) == want
    if isinstance(want[0], int):
        m = parse_compact(text, "csv")
        assert m.labels == tuple(sorted(want[1]))
        for fmt in ("csv", "json"):
            assert parse_compact(serialize(m, fmt), fmt) == m


# names that take the array reader past one 8-byte word, or through
# multi-byte UTF-8, or share long prefixes
LONG_NAMES = ["ninebytes", "sixteen-bytes-ab", "x" * 40, "x" * 39 + "y",
              "ünïcödé", "日本語のラベル", " s ", "a" * 8]


def edited_csv(rng, text):
    """``text`` with one edit to its records: a repeated row, a row one
    field wider or narrower, blank lines, or no final LF."""
    lines = text.split("\n")[:-1]
    i = rng.randrange(1, len(lines) + 1)
    kind = rng.choice(("repeat", "wider", "narrower", "blank", "no-lf"))
    if kind == "repeat" and len(lines) > 1:
        lines.insert(i, lines[rng.randrange(1, len(lines))])
    elif kind == "wider" and len(lines) > 1:
        lines[i - 1] += ","
    elif kind == "narrower" and "," in lines[i - 1]:
        lines[i - 1] = lines[i - 1].rpartition(",")[0]
    elif kind == "blank":
        lines[i:i] = [""] * rng.randint(1, 2)
    return "\n".join(lines) + ("" if kind == "no-lf" else "\n")


def test_csv_reader_matches_reference_on_edited_tables():
    # long and non-ASCII labels, tables with foreign cells, and texts with
    # one record-level edit: each reads as the reference does
    rng = random.Random(101)
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.6]))
        m = build_compact(g, down_coloring(g))
        m = relabeled(m, [rng.choice(LONG_NAMES + [""]) + lab for lab in m.labels])
        for _ in range(rng.randint(0, 2)):
            if m.labels and m.k:
                m = mutate(rng, m, m.labels)
        text = serialize(m, "csv")
        if rng.random() < 0.5:
            text = edited_csv(rng, text)
        assert reader_outcome(text) == reference_outcome(text)


def test_csv_reader_checks_a_fingerprint_match_word_by_word():
    # a 16-byte foreign cell whose fingerprint is a row's: found by its
    # fingerprint, refused by its words, and sorted among the labels
    rng = np.random.default_rng(3)
    label = b"BBBBBBBBAAAAAAAA"
    words = np.frombuffer(label, dtype=">u8").astype(np.uint64)
    want = _kernels.fingerprints(words, np.array([0]))[0]
    for _ in range(100):
        second = rng.integers(ord("a"), ord("z") + 1, size=(4096, 8), dtype=np.uint8)
        tail = second.view(">u8")[:, 0].astype(np.uint64)
        pairs = np.stack([np.zeros_like(tail), tail], axis=1).ravel()
        mixed = _kernels.fingerprints(pairs, np.arange(0, pairs.size, 2))
        head = (want - mixed).astype(">u8").view(np.uint8).reshape(-1, 8)
        printable = (head >= ord(" ")) & (head <= ord("~"))
        ok = np.flatnonzero((printable & (head != ord(",")) & (head != ord('"')))
                            .all(axis=1))
        if ok.size:
            break
    cell = (head[ok[0]].tobytes() + second[ok[0]].tobytes()).decode()
    assert cell != label.decode()
    text = f"vertex,c1\n{label.decode()},{cell}\n"
    assert reader_outcome(text) == reference_outcome(text)
    assert parse_compact(text, "csv").foreign == (cell,)


# csv.reader's lenient default dialect, as Python 3.11 reads it: text
# after a closing quote joins its field, a quote inside a bare field is
# text, a quote left open keeps its field, CRs then a LF end a record, a
# CR before other text is refused at its line, NUL is text, and "" inside
# quotes is one quote
LENIENT = [
    'vertex,c1\n"a"b,x\nx,\n', 'vertex,c1\na"b,\n', 'vertex,c1\n"a"b"c,\n',
    'vertex,c1\n"a" ,x\nx,\n', 'vertex,c1\n"abc', 'vertex,c1\nb,\n"a\n',
    'vertex,c1\na,\r\r\nb,a\r\n', 'vertex,c1\r\na,\r\n\r\nb,a',
    "vertex,c1\na,\rb\n", "vertex,c1\na,\n\rb,\n", "vertex,c1\rx\n",
    'vertex,c1\n"a\nb",\n"c\rd"\re\n', "vertex\rvertex",
    "vertex,c1\na\0,a\na,a\0\n\0,\0\n", "vertex,c1\na\0b,\na,a\0b\n",
    'vertex,c1\n"a""b",\n"""",a""b\n"""a""b""",""""\n', '"vertex","c1"\n"",""\n',
    "vertex,c1\na,a\na,b\n", "vertex,c1\na,a,a\na,a\n", '"vertex,c1"\n',
]


def straddling_table(label):
    """A table of 4097 rows whose row 4096 has ``label`` (holding a LF),
    which a cell of another row names, as CSV."""
    names = [f"v{i:05d}" for i in range(4095)] + [label, "w"]
    recs = [["vertex", "c1"]] + [[x, ""] for x in names[:-1]] + [["w", label]]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(recs)
    return buf.getvalue()


@pytest.mark.parametrize("text", LENIENT + [
    straddling_table("a\nb"), straddling_table("a\r\nb" + "x" * 20),
    straddling_table('c,"\r\n\n"'),
])
def test_csv_reader_matches_the_lenient_dialect(text):
    assert reader_outcome(text) == reference_outcome(text)


@pytest.mark.parametrize("text", [
    "vertex,c1\na,a\n",
    "vertex\nonly\n",
    # labels over 8 bytes that share their first word, some also their second
    "vertex,c1,c2\nabcdefgh,abcdefgh,\nabcdefgh1,abcdefgh,abcdefgh1\n"
    "abcdefgh12345678,abcdefgh12345678x,abcdefgh12345678\n"
    "abcdefgh12345678x,abcdefgh12345678x,\n",
])
def test_csv_reader_reads_small_and_shared_word_tables_as_arrays(text):
    m = parse_compact(text, "csv")
    assert (m.k, dict(m.rows)) == compact_csv_reference(text)
    assert m.foreign == ()


def test_csv_reader_reads_lone_surrogates():
    # lone surrogates pass through UTF-8 and sort by code point
    text = "vertex,c1,c2\n\ud800,\ud800,\nb,\ud800,b\n"
    m = parse_compact(text, "csv")
    assert m.labels == ("b", "\ud800") and m.foreign == ()
    assert m.rows == {"b": ("\ud800", "b"), "\ud800": ("\ud800", None)}
    # surrogatepass bytes (ED A0 80) fall between U+D7FF's and U+E000's
    m = parse_compact("vertex\n\ue000\n\ud800\n\ud7ff\n", "csv")
    assert m.labels == ("\ud7ff", "\ud800", "\ue000")


def scale_tables():
    """Tables shaped like the pipeline benchmark's: the dense layered and
    hierarchy digraphs of ``SCALE_GRAPHS``, the hierarchy's also with
    labels over 8 bytes, non-ASCII labels, or one 100,000-character
    label among short ones."""
    tables = {}
    for name, make in SCALE_GRAPHS.items():
        g = make()
        tables[name] = build_compact(g, down_coloring(g))
    m = tables["hierarchy"]
    tables["long"] = relabeled(m, [f"vertex-label-{lab}" for lab in m.labels])
    tables["non-ascii"] = relabeled(m, [f"日本-{lab}-ü" for lab in m.labels])
    tables["one-huge"] = relabeled(m, m.labels[:-1] + ("h" * 100000,))
    return tables


def test_csv_reader_reads_regular_tables_as_arrays(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("csv.reader was called")
    tables = scale_tables()
    monkeypatch.setattr(compact.csv, "reader", refused)
    for m in tables.values():
        text = serialize(m, "csv")
        assert parse_compact(text, "csv") == m
        # blank lines, and no final LF, stay on the array path too
        lines = text.split("\n")
        assert parse_compact("\n".join(lines[:2] + [""] + lines[2:-1]), "csv") == m


def test_csv_reader_peak_memory_per_text_byte():
    # every field costs the text at least its comma or LF; the reader
    # holds a few int64 arrays per field of one block of rows and 24 bytes
    # per filled cell until the labels are known, and reads a long label
    # word by word, never padded to the widest
    for name, m in scale_tables().items():
        text = serialize(m, "csv")
        tracemalloc.start()
        try:
            back = parse_compact(text, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == m
        assert peak < 32 * len(text.encode()), name


@st.composite
def compact_json_texts(draw):
    """Compact JSON documents of k-cell rows, or with one thing wrong: a
    ``k`` that is no natural number, ``rows`` of another shape, a row of
    another length, a key missing, or a random fragment spliced in."""
    k = draw(st.integers(0, 3))
    cell = st.one_of(st.none(), st.sampled_from(CELLS))
    doc = {"k": k, "rows": draw(st.dictionaries(
        st.sampled_from(CELLS), st.lists(cell, min_size=k, max_size=k), max_size=4))}
    wrong = draw(st.integers(0, 9))
    if wrong == 1:
        doc["k"] = draw(st.sampled_from([-1, True, None, "2", 1.5]))
    elif wrong == 2:
        doc["rows"] = draw(st.sampled_from([[], 3, "ab", {"a": 5}, {"a": [3]},
                                            {"a": "ab"}]))
    elif wrong == 3:
        doc["rows"][draw(st.sampled_from(CELLS))] = draw(st.lists(cell, max_size=4))
    elif wrong == 4:
        del doc[draw(st.sampled_from(["k", "rows"]))]
    text = json.dumps(doc)
    if wrong == 5:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(max_size=3)) + text[i:]
    return text


@settings(max_examples=500, deadline=None)
@given(st.one_of(compact_json_texts(), st.text(max_size=30)))
def test_json_reader_fuzz(text):
    try:
        m = parse_compact(text, "json")
    except ValueError:
        return
    rows = json.loads(text)["rows"]
    assert (m.labels, dict(m.rows)) == (tuple(sorted(rows)),
                                        {lab: tuple(x) for lab, x in rows.items()})
    assert parse_compact(serialize(m, "json"), "json") == m
    if all(x != "" for cells in m.rows.values() for x in cells):
        # CSV reads an empty field as an empty cell, not as ""
        assert parse_compact(serialize(m, "csv"), "csv") == m

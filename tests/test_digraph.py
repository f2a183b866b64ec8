import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from downcolor import (
    CyclicGraphError,
    Digraph,
    ParseError,
    UndirectedGraph,
    big_d,
    bound_report,
    build_compact,
    condense_to_acyclic,
    down_coloring,
    down_graph,
    down_set,
    format_digraph,
    height_two_reduction,
    is_acyclic,
    max_vertices,
    parse_digraph,
    transitive_closure,
    up_digraph,
    down_hypergraph,
    verify_ac_property,
    verify_down_coloring,
)
from downcolor import _kernels, digraph
from downcolor.digraph import _read
from conftest import (SCALE_GRAPHS, brute_down_edges, components_reference,
                      condense_reference, digraph_reference, hierarchy,
                      layered_dag, parse_digraph_reference, random_dag,
                      random_digraph, random_hypergraph, reach_closed,
                      topological_order_reference, undirected_reference,
                      up_digraph_reference)

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"


def test_parse_basic():
    g = parse_digraph(SIX)
    assert g.n == 6
    assert g.edge_count == 6
    assert sorted(g.labels) == ["g1", "g2", "g3", "g4", "g5", "g6"]
    assert ("g1", "g4") in set(g.edge_labels())


def test_parse_isolated_and_comments():
    g = parse_digraph("# header\na b\n\nc\n")
    assert sorted(g.labels) == ["a", "b", "c"]
    assert g.edge_count == 1


@pytest.mark.parametrize("text", ["a b c\n", "a a\n", "a b\na b\n"])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_digraph(text)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as ei:
        parse_digraph("a b\nx y z\n")
    assert ei.value.line == 2


def test_format_roundtrip():
    g = parse_digraph(SIX + "lone\n")
    assert parse_digraph(format_digraph(g)) == g


def test_cycle_detection_and_message():
    g = parse_digraph("a b\nb c\nc a\n")
    assert not is_acyclic(g)
    with pytest.raises(CyclicGraphError) as ei:
        g.topological_order()
    msg = str(ei.value)
    assert "cycle" in msg and "->" in msg
    # named cycle must actually exist edge by edge
    cyc = ei.value.cycle
    assert cyc[0] == cyc[-1] and len(cyc) > 2
    es = set(g.edge_labels())
    assert all((cyc[i], cyc[i + 1]) in es for i in range(len(cyc) - 1))


def test_label_and_vertex_refusals():
    with pytest.raises(ValueError, match="^bad vertex label 'a b': labels are "
                       "non-empty strings without whitespace$"):
        Digraph(("a b", "c"), [])
    with pytest.raises(ValueError, match="^duplicate vertex label 'a'$"):
        Digraph(("a", "b", "a"), [(0, 1)])
    g = Digraph(("a", "b"), [(0, 1)])
    with pytest.raises(ValueError, match="^unknown vertex label 'z'$"):
        g.id_of("z")
    for u in (2, -1):
        with pytest.raises(ValueError, match=f"^vertex id {u} out of range$"):
            down_set(g, u)


def test_topological_order_is_valid():
    rng = random.Random(7)
    for _ in range(20):
        g = random_dag(rng, rng.randint(1, 12), 0.4)
        pos = {v: i for i, v in enumerate(g.topological_order())}
        for a, b in g.edges():
            assert pos[a] < pos[b]


def assert_down_sets_match_reach(g):
    reach = reach_closed(g)
    indptr, ids = g._down_sets()
    assert (indptr.dtype, ids.dtype, indptr.size) == (np.int64, np.int32, g.n + 1)
    assert [ids[indptr[u]:indptr[u + 1]].tolist() for u in range(g.n)] == \
        [sorted(map(g.id_of, reach[g.label_of(u)])) for u in range(g.n)]
    return reach


def test_down_sets_against_reachability():
    rng = random.Random(11)
    for i in range(150):
        g = random_dag(rng, rng.randint(1, 12) if i < 40 else rng.randint(0, 70),
                       0.35 if i < 40 else rng.choice([0.02, 0.08, 0.2, 0.5]))
        reach = assert_down_sets_match_reach(g)
        for u in g.labels:
            uid = g.id_of(u)
            closed = {g.label_of(v) for v in down_set(g, uid)}
            assert closed == set(reach[u])
            opened = {g.label_of(v) for v in down_set(g, uid, closed=False)}
            assert opened == set(reach[u]) - {u}


def path_digraph(n):
    return Digraph([f"p{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def ladder_digraph(height):
    """Two vertices per level, each with an edge to both of the next
    level's: ``height`` levels of width 2."""
    return Digraph([f"r{i}" for i in range(2 * height)],
                   [(2 * i + a, 2 * i + 2 + b) for i in range(height - 1)
                    for a in (0, 1) for b in (0, 1)])


SHAPES = {
    "n0": lambda: Digraph([], []),
    "n1": lambda: Digraph(["a"], []),
    "isolated": lambda: Digraph(list("abcde"), [(3, 1)]),  # around one edge
    "diamond": lambda: Digraph(list("abcdef"), [(0, 1), (1, 2), (0, 2), (4, 2)]),
    "path300": lambda: path_digraph(300),
    "ladder150": lambda: ladder_digraph(150),
    "layered400": lambda: layered_dag(random.Random(8), 400, 0.2),
    **SCALE_GRAPHS,
}


@pytest.mark.parametrize("make", SHAPES.values(), ids=SHAPES)
def test_down_sets_match_reach_closed_on_shapes(make):
    assert_down_sets_match_reach(make())


def force_layout(monkeypatch, ids_per_word):
    """Merge CSR rows while the ids the merge holds stay within
    ``ids_per_word`` times the bitset words, with no charge per level."""
    monkeypatch.setattr(_kernels, "_IDS_PER_WORD", ids_per_word)
    monkeypatch.setattr(_kernels, "_IDS_PER_LEVEL", 0)


@pytest.mark.parametrize("layout", ["merge", "bitsets"])
@pytest.mark.parametrize("make", SHAPES.values(), ids=SHAPES)
def test_down_sets_in_either_layout(monkeypatch, make, layout):
    # the merge all the way up, or bitsets from the first level
    force_layout(monkeypatch, 1 << 40 if layout == "merge" else 0)
    g = make()
    assert_down_sets_match_reach(g)
    assert g._bits_level == (None if layout == "merge" or g.n == 0 else 1)


def merge_volumes(g, reach):
    """Per height level, the ids the merge holds once that level is
    gathered: the rows of the levels below, and each vertex of the level
    with its children's rows."""
    verts, lptr = g._levels()
    size = [len(reach[g.label_of(u)]) for u in range(g.n)]
    done = np.cumsum([0] + [size[u] for u in verts.tolist()])
    return [int(done[a]) + sum(1 + sum(size[c] for c in g.children(u))
                               for u in verts[a:b].tolist())
            for a, b in zip(lptr[:-1].tolist(), lptr[1:].tolist())]


@pytest.mark.parametrize("gather_bytes", [8, 1 << 18])
def test_down_sets_switch_to_bitsets_at_every_level(monkeypatch, gather_bytes):
    # the limit is put just above the lower bound n + max(edges, sum of
    # heights) and above each level's volume in turn; the bitsets take
    # over at the first level past it, or before any merge when the lower
    # bound passes it
    monkeypatch.setattr(_kernels, "_GATHER_BYTES", gather_bytes)
    rng = random.Random(gather_bytes)
    switched = set()
    for i in range(40):
        if i % 4 == 0:
            g = hierarchy(rng, rng.randint(18, 90), rng.randint(1, 3))
        else:
            g = random_dag(rng, rng.randint(1, 70), rng.choice([0.03, 0.06, 0.12]))
        reach = reach_closed(g)
        volumes = merge_volumes(g, reach)
        lptr = g._levels()[1]
        low = g.n + max(g.edge_count,
                        int(np.diff(lptr) @ np.arange(lptr.size - 1)))
        words = g.n * _kernels.words_for(g.n)
        for limit in [-1, low, *volumes]:
            force_layout(monkeypatch, (limit + 0.5) / words)
            g._down = None
            assert_down_sets_match_reach(g)
            if low > limit + 0.5:
                want = 1
            else:
                want = next((h for h, v in enumerate(volumes)
                             if v > limit + 0.5), None)
            assert g._bits_level == want
            switched.add(want)
    assert {None, 1, 2, 3, 4} <= switched


@pytest.mark.parametrize("gather_bytes", [8, 64, 1000])
def test_down_sets_in_small_gather_steps(monkeypatch, gather_bytes):
    # levels split into runs of few child rows, down to one vertex whose
    # children alone exceed the step
    monkeypatch.setattr(_kernels, "_GATHER_BYTES", gather_bytes)
    rng = random.Random(gather_bytes)
    for _ in range(40):
        assert_down_sets_match_reach(random_dag(rng, rng.randint(0, 90), 0.15))
    assert_down_sets_match_reach(ladder_digraph(40))


def test_closure_too_large_for_either_layout_raises(monkeypatch):
    # path300: bitsets of 300 * 5 words, and a merge that would hold at
    # least 300 + (0 + 1 + ... + 299) ids, one per vertex and height
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 10_000)
    msg = ("the closure of 300 vertices is too large: its bitsets take "
           "12,000 bytes and the merge of its CSR rows 180,600 bytes, over "
           "the 10,000-byte budget")
    for call in (lambda g: g._down_sets(), down_coloring):
        with pytest.raises(ValueError) as ei:
            call(path_digraph(300))
        assert str(ei.value) == msg


def test_closure_over_budget_part_way_up_the_merge_raises(monkeypatch):
    # 1000 sinks, 500 mids over 10 sinks each, 500 tops over 10 mids each:
    # the merge starts on at least 12,000 ids (48,000 bytes) and would
    # hold 1000 + 500 * 11 + 500 * (10 * 11 + 1) = 62,000 at the tops,
    # while the 512,000 bytes of bitsets never fit
    text = "".join(f"t{j} m{(j + i) % 500}\n" for j in range(500) for i in range(10))
    text += "".join(f"m{i} s{(2 * i + k) % 1000}\n"
                    for i in range(500) for k in range(10))
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 100_000)
    with pytest.raises(ValueError) as ei:
        parse_digraph(text)._down_sets()
    assert str(ei.value) == (
        "the closure of 2000 vertices is too large: its bitsets take "
        "512,000 bytes and the merge of its CSR rows 248,000 bytes, over "
        "the 100,000-byte budget")


@pytest.mark.parametrize("budget, layout", [(12_000, 1), (100_000, None)])
def test_closure_takes_the_layout_that_fits(monkeypatch, budget, layout):
    # path300 fits in its 12,000 bytes of bitsets but not in the merge;
    # the hierarchy's merge fits in 100,000 bytes but its 288,000 bytes
    # of bitsets do not, so the merge runs on past the volume limit
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", budget)
    force_layout(monkeypatch, 0 if layout is None else 1 << 40)
    g = path_digraph(300) if layout else hierarchy(random.Random(2), 1500)
    assert_down_sets_match_reach(g)
    assert g._bits_level == layout


@pytest.mark.parametrize("make", [
    lambda: layered_dag(random.Random(0), 3000, 0.3),  # stops at level 4
    lambda: hierarchy(random.Random(0), 1500, 12),  # at level 2
    lambda: random_dag(random.Random(0), 2000, 0.005),  # at level 10
], ids=["layered", "hierarchy", "random"])
def test_merge_stops_past_level_one_at_the_fixed_constants(make):
    # no constant patched: these graphs pass the volume limit part-way
    # up, so the merge stops there and bitsets rebuild every row
    g = make()
    indptr, ids = g._down_sets()
    assert g._bits_level > 1
    order = np.asarray(g.topological_order()[::-1])
    want = _kernels.rows_csr(_kernels.closure_bits(g.n, *g._csr, order))
    assert np.array_equal(indptr, want[0]) and np.array_equal(ids, want[1])


@st.composite
def cyclic_digraphs(draw):
    """A digraph on 2..8 vertices holding at least one directed cycle,
    plus random extra edges."""
    n = draw(st.integers(2, 8))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    pairs = {(cycle[i - 1], cycle[i]) for i in range(len(cycle))}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=14))
    pairs |= {(a, b) for a, b in extra if a != b}
    return [f"v{i}" for i in range(n)], sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(cyclic_digraphs())
def test_cyclic_input_raises_the_topological_order_error(graph):
    with pytest.raises(CyclicGraphError) as want:
        Digraph(*graph).topological_order()
    for call in (lambda g: g._down_sets(), down_coloring,
                 lambda g: down_coloring(g, "exact"), bound_report, big_d,
                 max_vertices, height_two_reduction):
        with pytest.raises(CyclicGraphError) as got:
            call(Digraph(*graph))
        assert (str(got.value), got.value.cycle) == \
            (str(want.value), want.value.cycle)
    assert not is_acyclic(Digraph(*graph))


def test_pipeline_never_builds_the_topological_order(monkeypatch):
    def refuse(self):
        raise AssertionError("topological_order called")

    monkeypatch.setattr(Digraph, "topological_order", refuse)
    for text in (format_digraph(layered_dag(random.Random(4), 120, 0.3)),
                 SIX + "lone\n"):
        g = parse_digraph(text)
        assert is_acyclic(g)
        c = down_coloring(g)
        m = build_compact(g, c)
        assert verify_down_coloring(g, c) and verify_ac_property(m, g).ok
        assert bound_report(g).big_d == big_d(g)
        assert down_graph(height_two_reduction(g)) == down_graph(g)


def test_six_example_frozen_values():
    g = parse_digraph(SIX)
    assert sorted(g.label_of(v) for v in max_vertices(g)) == ["g1", "g2", "g3"]
    assert big_d(g) == 3
    d1 = {g.label_of(v) for v in down_set(g, g.id_of("g1"))}
    assert d1 == {"g1", "g4", "g5"}
    dg = down_graph(g)
    assert dg.n == 6
    assert len(dg.edges()) == 9
    # g4 conflicts with everything except g3 (no shared closed down-set)
    nbrs = {dg.label_of(v) for v in dg.neighbors(dg.id_of("g4"))}
    assert nbrs == {"g1", "g2", "g5", "g6"}


def test_down_graph_matches_brute_oracle():
    rng = random.Random(13)
    for _ in range(40):
        g = random_dag(rng, rng.randint(1, 11), 0.4)
        dg = down_graph(g)
        got = {frozenset((dg.label_of(a), dg.label_of(b))) for a, b in dg.edges()}
        assert got == brute_down_edges(g)


def test_transitive_closure_edges():
    rng = random.Random(17)
    for _ in range(20):
        g = random_dag(rng, rng.randint(1, 10), 0.35)
        tc = transitive_closure(g)
        reach = reach_closed(g)
        want = {(u, v) for u in g.labels for v in reach[u] if v != u}
        assert set(tc.edge_labels()) == want


def test_height_two_reduction_preserves_conflicts():
    rng = random.Random(19)
    for _ in range(25):
        g = random_dag(rng, rng.randint(1, 10), 0.4)
        g2 = height_two_reduction(g)
        # maximal vertices keep their labels; the reduction is height <= 2
        for u in max_vertices(g2):
            for v in g2.children(u):
                assert not g2.children(v)
        assert brute_down_edges(g2) == brute_down_edges(g)


def test_condensation_on_cyclic_graphs():
    rng = random.Random(23)
    for _ in range(40):
        g = random_digraph(rng, rng.randint(1, 9), 0.3)
        c = condense_to_acyclic(g)
        assert is_acyclic(c)
        assert set(c.labels) == set(g.labels)
        dg = down_graph(c)
        got = {frozenset((dg.label_of(a), dg.label_of(b))) for a, b in dg.edges()}
        assert got == brute_down_edges(g)


def test_condensation_identity_on_dags():
    rng = random.Random(29)
    for _ in range(15):
        g = random_dag(rng, rng.randint(1, 10), 0.4)
        assert condense_to_acyclic(g) == g


def assert_same_digraph(got, want):
    """Equal labels, children and parents CSR arrays (values and dtypes)
    and ``format_digraph`` text."""
    assert got.labels == want.labels
    for a, b in zip(got._csr + got._rcsr, want._csr + want._rcsr):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert format_digraph(got) == format_digraph(want)


def test_condensation_matches_tarjan_reference():
    rng = random.Random(31)
    graphs = [random_digraph(rng, rng.randint(0, 40), p)
              for p in (0.01, 0.03, 0.06, 0.12, 0.3) for _ in range(30)]
    n = 300
    graphs += [
        Digraph(["a", "b"], [(0, 1), (1, 0)]),
        # nested cycles: 0-1-2-0 inside 0..5, a tail 6 -> 7, and 8 alone
        Digraph([f"x{i}" for i in range(9)],
                [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2),
                 (5, 0), (6, 7), (4, 6)]),
        # one long cycle, labelled so its smallest label is not vertex 0
        Digraph([f"c{(i * 7) % n:03d}" for i in range(n)],
                [(i, (i + 1) % n) for i in range(n)]),
    ]
    for g in graphs:
        assert_same_digraph(condense_to_acyclic(g), condense_reference(g))


def test_closures_match_reachability_oracle():
    rng = random.Random(37)
    graphs = [random_dag(rng, rng.randint(0, 30), rng.choice([0.05, 0.2, 0.5]))
              for _ in range(40)]
    graphs += [layered_dag(rng, 60, 0.3), hierarchy(rng, 120)]
    for g in graphs:
        reach = reach_closed(g)
        tops = {lab for lab in g.labels if not g.parents(g.id_of(lab))}
        for got, sources in ((transitive_closure(g), g.labels),
                             (height_two_reduction(g), tops)):
            pairs = sorted((g.id_of(u), g.id_of(v)) for u in sources
                           for v in reach[u] if v != u)
            assert_same_digraph(got, Digraph(g.labels, pairs))


def test_up_digraph_matches_edge_list_construction():
    rng = random.Random(41)
    for _ in range(150):
        h = random_hypergraph(rng, max_n=12, max_m=10).simplify()
        assert_same_digraph(up_digraph(h), up_digraph_reference(h))


def test_up_down_roundtrip():
    # up_digraph invents w# source labels, so compare on the hypergraph side
    g = parse_digraph(SIX)
    h = down_hypergraph(g)
    assert down_hypergraph(up_digraph(h)) == h
    assert down_hypergraph(height_two_reduction(g)) == h


label = st.text(alphabet="abcdef", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(label, label), max_size=25), st.lists(label, max_size=5))
def test_format_parse_roundtrip_property(pairs, isolated):
    pairs = [(a, b) for a, b in pairs if a != b]
    seen = set()
    uniq = [p for p in pairs if not (p in seen or seen.add(p))]
    g = Digraph.from_label_pairs(uniq, isolated=isolated)
    assert parse_digraph(format_digraph(g)) == g


# ------------------------------------------------ the text boundary, fuzzed

# splitlines breaks on all of these; the ones after \r also split tokens
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x85", "\u2028", "\u2029", "\r\x85", "\r\u2028", "\r\u2029"]
# tokens of one word, and of two or three that share their first eight bytes
TOKENS = ["a", "b", "c", "d", "abcdefgh1", "abcdefgh12345678",
          "abcdefgh123456789", "abcdefgh" + "y" * 16]
# non-ASCII tokens, a lone surrogate, and tokens holding NUL next to the
# ones without, of one word and of two or three sharing their first eight bytes
ODD_TOKENS = ["\u00e9", "\ud800", "a\0", "abcdefgh\0", "abcdefgh\u00e9",
              "abcdefgh\ud800", "abcdefgh12345678\0", "abcdefgh1234567\u00e9"]
# split gaps, the last three non-ASCII: NBSP, U+2003 and U+3000
GAPS = [" ", "\t", "  ", " \t", "\x1f", "\xa0", "\u2003", " \u3000"]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts of 0-3 tokens per line, with comments that may hold
    tokens, blank lines, assorted gaps and line breaks, self-loops and
    repeated edges.  About half are ASCII with no comment."""
    plain = draw(st.booleans())
    token = st.sampled_from(TOKENS if plain else TOKENS + ODD_TOKENS)
    gap = st.sampled_from([g for g in GAPS if g.isascii()] if plain else GAPS)
    brk = st.sampled_from([b for b in BREAKS if b.isascii()] if plain else BREAKS)
    out = []
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 2, 3]))
        toks = [draw(token) for _ in range(width)]
        line = draw(st.sampled_from(["", " ", "\t"]))
        for i, tok in enumerate(toks):
            line += (draw(gap) if i else "") + tok
        if not plain and draw(st.booleans()) and draw(st.booleans()):
            line += draw(st.sampled_from(["#", " # ", "#a b", "#a#"]))
            line += " ".join(draw(st.lists(token, max_size=3)))
        out.append(line + draw(brk))
    text = "".join(out)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def assert_parsed_as(g, labels, children, parents):
    assert g.labels == labels
    assert list(g.edges()) == [(u, v) for u in range(g.n) for v in children[u]]
    assert tuple(map(g.children, range(g.n))) == children
    assert tuple(map(g.parents, range(g.n))) == parents


@settings(max_examples=300, deadline=None)
@given(edge_list_texts(), st.integers(1, 6))
def test_parse_matches_reference(text, size):
    # the reader in slices of a few characters, one line or more each,
    # and in its 1 MiB ones
    readers = (lambda t: _read(t, size), parse_digraph)
    try:
        labels, children, parents = parse_digraph_reference(text)
    except ParseError as exc:
        for read in readers:
            with pytest.raises(ParseError) as ei:
                read(text)
            assert (str(ei.value), ei.value.line) == (str(exc), exc.line)
        return
    for read in readers:
        g = read(text)
        assert_parsed_as(g, labels, children, parents)
        assert g._label_order().tolist() == by_label(g)
    want = topological_order_reference(labels, children, parents)
    if isinstance(want, tuple):
        assert g.topological_order() == want
    else:
        with pytest.raises(CyclicGraphError) as ei:
            g.topological_order()
        assert ei.value.cycle == want


def by_label(g):
    """The reference label order: ``g``'s ids sorted by label."""
    return sorted(range(g.n), key=g.labels.__getitem__)


def test_label_order_is_the_parsers_byte_sort():
    # prefixes, NUL, non-ASCII and lone surrogates, kept from the parser's
    # sort; built any other way, a digraph sorts once, on first use
    names = ["a", "a\0", "ab", "é", "\udc80", "a\0\0", "b", "\ud7ff", "\ue000",
             "abcdefgh", "abcdefgh\0", "abcdefghi", "日本"]
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(names)
        g = parse_digraph("".join(f"{u} {v}\n" for u, v in zip(names, names[1:])))
        assert g._order is not None
        assert g._label_order().tolist() == by_label(g)
    built = [Digraph(names, [(0, 1), (2, 3)]),
             Digraph.from_label_pairs(zip(names, names[1:]), ["z", "\0"]),
             up_digraph(random_hypergraph(rng, 12, 6).simplify())]
    for g in built:
        assert g._order is None
        assert g._label_order().tolist() == by_label(g)
        assert g._label_order() is g._label_order()
    # digraphs on the same labels share it, and no one can edit it
    for g in (parse_digraph(SIX), built[1]):
        for h in (condense_to_acyclic(g), transitive_closure(g),
                  height_two_reduction(g)):
            assert h._label_order() is g._label_order()
        with pytest.raises(ValueError):
            g._label_order()[0] = 1


def test_wide_separators_are_those_str_split_splits_at():
    # every code point: the ones mapped are exactly the non-ASCII ones
    # str.split() splits at, and the line breaks among them become VT
    text = "".join(map(chr, range(0x110000)))
    out = digraph._narrow(text)
    assert len(out) == len(text)
    changed = {i for i, (a, b) in enumerate(zip(text, out)) if a != b}
    assert changed == {c for c in range(128, 0x110000) if chr(c).isspace()}
    assert {c for c in changed if out[c] == "\v"} == {0x85, 0x2028, 0x2029}
    assert {out[c] for c in changed} == {" ", "\v"}


def test_text_writers_refuse_a_comment_mark():
    # the one character a label may hold that the text formats cannot
    # carry: read back, it would cut the line short without an error
    with pytest.raises(ValueError, match="^label 'a#b' holds '#', which the text "
                       "formats read as the start of a comment$"):
        format_digraph(Digraph(["c", "a#b", "d#"], [(0, 1)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=12))
def test_constructor_errors_match_reference(n, edges):
    # edge lists that mix out-of-range pairs, self-loops and repeats
    labels = [f"v{i}" for i in range(n)]
    try:
        children, parents = digraph_reference(labels, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            Digraph(labels, edges)
        assert str(ei.value) == str(exc)
        return
    g = Digraph(labels, edges)
    assert tuple(map(g.children, range(n))) == children
    assert tuple(map(g.parents, range(n))) == parents
    assert g.edge_count == len(edges)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (3, 0), (0, 5)], "edge (3, 0) out of range for 3 vertices"),
    ([(0, 1), (0, -1)], "edge (0, -1) out of range for 3 vertices"),
    ([(0, 1), (2, 2), (1, 0)], "self-loop at 'c'"),
    ([(0, 2), (1, 2), (2, 0), (2, 2)], "duplicate edge 'a' -- 'c'"),
])
def test_undirected_constructor_names_first_offender(edges, message):
    with pytest.raises(ValueError) as ei:
        UndirectedGraph(["a", "b", "c"], edges)
    assert str(ei.value) == message


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=12))
def test_undirected_constructor_matches_reference(n, edges):
    labels = [f"v{i}" for i in range(n)]
    try:
        rows = undirected_reference(labels, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            UndirectedGraph(labels, edges)
        assert str(ei.value) == str(exc)
        return
    g = UndirectedGraph(labels, edges)
    assert tuple(map(g.neighbors, range(n))) == rows
    assert list(map(g.degree, range(n))) == list(map(len, rows))
    assert g.edges() == tuple(sorted((min(e), max(e)) for e in edges))
    assert g.edge_count == len(edges)
    assert all(g.has_edge(a, b) == (b in rows[a])
               for a in range(n) for b in range(n))


def test_has_edge_out_of_range_is_false():
    g = UndirectedGraph(list("abc"), [(0, 1), (1, 2), (0, 2)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    for a, b in [(-1, 0), (0, -1), (-1, 2), (2, -3), (3, 0), (0, 3), (-1, -1),
                 (3, 3)]:
        assert not g.has_edge(a, b)


def test_connected_components_match_union_find():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(0, 30)
        p = rng.choice([0.02, 0.06, 0.15, 0.4])
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        rng.shuffle(edges)
        g = UndirectedGraph([f"v{i}" for i in range(n)], edges)
        assert g.connected_components() == components_reference(n, edges)


def test_undirected_equality_matches_label_pairs():
    # equal graphs may number their labels differently
    rng = random.Random(89)
    for _ in range(300):
        n = rng.randint(0, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.4]
        g = UndirectedGraph(labels, edges)
        perm = rng.sample(labels, n)
        if n and rng.random() < 0.2:
            perm[rng.randrange(n)] = "x"
        where = {lab: i for i, lab in enumerate(perm)}
        moved = [(where.get(labels[a]), where.get(labels[b])) for a, b in edges]
        moved = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in moved
                 if a is not None and b is not None]
        if moved and rng.random() < 0.3:
            moved.pop(rng.randrange(len(moved)))
        h = UndirectedGraph(perm, moved)
        want = (set(g.labels) == set(h.labels)
                and {frozenset(e) for e in g.edge_labels()}
                == {frozenset(e) for e in h.edge_labels()})
        assert (g == h) == want


def test_digraph_equality_matches_label_pairs():
    # equal digraphs may number their labels differently; a reversed
    # edge makes them unequal
    rng = random.Random(97)
    for _ in range(300):
        n = rng.randint(0, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a in range(n) for b in range(n)
                 if a != b and rng.random() < 0.25]
        g = Digraph(labels, edges)
        perm = rng.sample(labels, n)
        if n and rng.random() < 0.2:
            perm[rng.randrange(n)] = "x"
        where = {lab: i for i, lab in enumerate(perm)}
        moved = [(where.get(labels[a]), where.get(labels[b])) for a, b in edges]
        moved = [(a, b) for a, b in moved if a is not None and b is not None]
        rng.shuffle(moved)
        if moved and rng.random() < 0.2:
            moved.pop()
        if moved and rng.random() < 0.2:
            a, b = moved.pop()
            if (b, a) not in moved:
                moved.append((b, a))
        h = Digraph(perm, moved)
        want = (set(g.labels) == set(h.labels)
                and set(g.edge_labels()) == set(h.edge_labels()))
        assert (g == h) == want

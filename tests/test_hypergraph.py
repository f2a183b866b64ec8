import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from downcolor import (
    Hypergraph,
    ParseError,
    UndirectedGraph,
    big_d,
    bound_report,
    clique_graph,
    degeneracy,
    degree,
    down_coloring,
    down_graph,
    down_hypergraph,
    exact_strong_chromatic,
    format_hypergraph,
    graph_degeneracy,
    induced_subhypergraph,
    intersection_graph,
    parse_digraph,
    parse_hypergraph,
    sigma,
    up_digraph,
)
from downcolor import _kernels
from downcolor.coloring import _greedy_strong, greedy_strong_coloring
from downcolor.hypergraph import _distinct_rows
from conftest import (SCALE_GRAPHS, brute_degeneracy, distinct_rows_reference,
                      down_hypergraph_reference, first_fit_reference,
                      greedy_down_coloring_reference, hypergraph_reference,
                      parse_hypergraph_reference, peel_reference, random_dag,
                      random_hypergraph, strong_first_fit_reference)

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"


def test_parse_and_format_roundtrip():
    h = parse_hypergraph("a b c\nb d\nlone\n")
    assert h.n == 5
    assert h.m == 2
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_parse_rejects_repeated_member():
    with pytest.raises(ParseError):
        parse_hypergraph("a b a\n")


def test_constructor_rejects_repeated_member():
    with pytest.raises(ValueError):
        Hypergraph(["a", "b"], [(0, 0)])


def test_sigma_and_degree():
    h = parse_hypergraph("a b c\na b\na\n")
    assert sigma(h) == 3
    # trivial edges never count toward degree
    assert degree(h, h.id_of("a")) == 2
    assert degree(h, h.id_of("c")) == 1


def test_simplify_drops_trivial_and_duplicate_edges():
    # nested edges are legal in a simple hypergraph; only duplicates
    # and trivial edges go
    h = Hypergraph(list("abcd"), [(0, 1, 2), (0, 1), (0, 1, 2), (3,)],
                   simple=False)
    s = h.simplify()
    assert s.n == 4  # vertex set survives simplification
    assert sorted(tuple(sorted(e)) for e in s.edges) == [(0, 1), (0, 1, 2)]
    assert s.simple


def test_down_hypergraph_open_and_closed():
    g = parse_digraph(SIX)
    h = down_hypergraph(g)
    assert sorted(h.labels) == ["g4", "g5", "g6"]
    assert sorted(tuple(sorted(s)) for s in h.edge_label_sets()) == [
        ("g4", "g5"), ("g4", "g6"), ("g5", "g6")]
    hc = down_hypergraph(g, closed=True)
    assert hc.n == 6
    assert clique_graph(hc) == down_graph(g)


def test_down_hypergraph_and_greedy_path_match_references():
    # edge order included; the coloring compares key order too
    rng = random.Random(89)
    for _ in range(200):
        g = random_dag(rng, rng.randint(1, 14), rng.uniform(0.1, 0.6))
        for closed in (False, True):
            for simplify in (False, True):
                h = down_hypergraph(g, closed=closed, simplify=simplify)
                labels, edges = down_hypergraph_reference(g, closed, simplify)
                assert (h.labels, h.edges) == (labels, edges)
                assert h.simple == (len(set(edges)) == len(edges)
                                    and all(len(e) >= 2 for e in edges))
        colors, ind = greedy_down_coloring_reference(g)
        c = down_coloring(g)
        assert list(c.colors.items()) == list(colors.items())
        assert c.k == max(colors.values())
        if g.edge_count:
            d = big_d(g)
            rep = bound_report(g)
            assert (rep.big_d, rep.sigma_h, rep.ind_h, rep.lower_bound) == (
                d, d - 1, ind, d)
            assert rep.cor1_bound == (d if ind <= 1 else ind * (d - 2) + 1)


def test_up_digraph_rejects_label_collision():
    h = Hypergraph(["w0", "x"], [(0, 1)])
    with pytest.raises(ValueError):
        up_digraph(h)


def test_intersection_graph_shape():
    # three edges meeting pairwise in single vertices form a triangle
    h = Hypergraph(list("abc"), [(0, 1), (1, 2), (0, 2)])
    ig = intersection_graph(h)
    assert ig.n == 3
    assert len(ig.edges()) == 3
    # disjoint edges stay non-adjacent
    h2 = Hypergraph(list("abcd"), [(0, 1), (2, 3)])
    assert len(intersection_graph(h2).edges()) == 0


def test_trusted_csr_graphs_equal_validated():
    # clique_graph, intersection_graph and down_graph build from their CSR
    # without re-validating; each must equal the validating constructor
    rng = random.Random(61)
    built = []
    for _ in range(60):
        h = random_hypergraph(rng, max_n=12, max_m=10)
        built += [clique_graph(h), intersection_graph(h)]
        built.append(down_graph(random_dag(rng, rng.randint(1, 12), 0.35)))
    for g in built:
        ref = UndirectedGraph(g.labels, g.edges())
        assert g.edges() == ref.edges()
        assert [g.neighbors(u) for u in range(g.n)] == [ref.neighbors(u) for u in range(ref.n)]
        assert all(g.has_edge(a, b) == ref.has_edge(a, b)
                   for a in range(g.n) for b in range(g.n))
        assert [g.id_of(lab) for lab in g.labels] == list(range(g.n))
        for got, want in zip(g._csr, ref._csr):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_edge_labels_on_graphs_only():
    g = parse_digraph("a b\nb c\n")
    assert list(g.edge_labels()) == [("a", "b"), ("b", "c")]
    u = UndirectedGraph(["a", "b", "c"], [(2, 0), (1, 2)])
    assert list(u.edge_labels()) == [("a", "c"), ("b", "c")]
    # a hyperedge is no pair: a hypergraph lists its edges by label sets
    h = parse_hypergraph("a b c\n")
    with pytest.raises(AttributeError):
        h.edge_labels()
    assert list(h.edge_label_sets()) == [frozenset("abc")]


def test_induced_subhypergraph_keeps_pairs_with_multiplicity():
    h = Hypergraph(list("abcd"), [(0, 1, 2), (0, 1, 3), (0, 3)], simple=False)
    s = induced_subhypergraph(h, [0, 1])
    assert s.n == 2
    # both size-3 edges restrict to the same surviving pair
    assert sorted(tuple(sorted(s.label_of(v) for v in e)) for e in s.edges) == [
        ("a", "b"), ("a", "b")]
    assert not s.simple


def test_induced_subhypergraph_reports_simple():
    h = Hypergraph(list("abcd"), [(0, 1, 2), (1, 2, 3)], simple=True)
    s = induced_subhypergraph(h, [0, 1, 3])
    assert s.edges == ((0, 1), (1, 2))
    assert s.simple
    assert up_digraph(s).edge_count == 4


def test_degeneracy_known_values():
    # single edge: both vertices have degree 1
    assert degeneracy(Hypergraph(["a", "b"], [(0, 1)])).value == 1
    # triangle as a graph
    tri = Hypergraph(list("abc"), [(0, 1), (1, 2), (0, 2)])
    assert degeneracy(tri).value == 2
    # one big edge: every vertex sits in one edge
    assert degeneracy(Hypergraph(list("abcde"), [tuple(range(5))])).value == 1
    # edgeless
    assert degeneracy(Hypergraph(list("ab"), [])).value == 0


def test_degeneracy_order_is_a_valid_elimination():
    rng = random.Random(31)
    for _ in range(30):
        h = random_hypergraph(rng)
        res = degeneracy(h)
        assert sorted(res.order) == list(range(h.n))
        remaining = set(range(h.n))
        for v in res.order:
            # the recorded value bounds every vertex degree at removal time
            edges = [tuple(u for u in e if u in remaining) for e in h.edges]
            d = sum(1 for e in edges if v in e and len(e) >= 2)
            assert d <= res.value
            remaining.remove(v)


def test_degeneracy_matches_subset_oracle():
    rng = random.Random(37)
    for _ in range(60):
        h = random_hypergraph(rng, max_n=8, max_m=6)
        assert degeneracy(h).value == brute_degeneracy(h)


def peel_case(rng, n=None, edges_per_vertex=2):
    """Hypergraph with empty, singleton and repeated edges, and edges that
    differ only in a few vertices; by default n = 0 to 24, so n = 0 and
    n = 1 are included."""
    n = rng.randint(0, 24) if n is None else n
    edges = []
    for _ in range(rng.randint(0, edges_per_vertex * n + 2)):
        if edges and rng.random() < 0.3:
            e = set(rng.choice(edges))
            if e and rng.random() < 0.5:
                e.discard(rng.choice(sorted(e)))
            if n and rng.random() < 0.5:
                e.add(rng.randrange(n))
        else:
            e = rng.sample(range(n), rng.randint(0, min(n, 6)))
        edges.append(tuple(sorted(e)))
    return Hypergraph([f"u{i}" for i in range(n)], edges)


def assert_peels_match_reference(h):
    peel = peel_reference(h.n, h.edges)
    assert astuple(degeneracy(h)) == peel
    colors = greedy_strong_coloring(h).colors
    assert [colors[h.label_of(u)] for u in range(h.n)] == \
        strong_first_fit_reference(h, peel[1])
    g = clique_graph(h)
    want = peel_reference(g.n, g.edges())
    assert astuple(graph_degeneracy(g)) == want
    # the exact solver's upper-bound seed: the strong first-fit on the pairs
    assert _greedy_strong(g.n, *_kernels.csr_edges(*g._csr)) == \
        first_fit_reference(g, want[1])


def test_peel_matches_heap_reference():
    rng = random.Random(53)
    for _ in range(300):
        assert_peels_match_reference(peel_case(rng))
    # n in the hundreds, degrees over dozens of buckets
    for _ in range(6):
        assert_peels_match_reference(peel_case(rng, rng.randint(100, 400), 8))
    # removing u kills both copies of (u, w): w falls from 3 to 1, two
    # below u's 3, while x only falls to 2, so w must go next
    u, w, x, y1, y2, y3, y4 = range(7)
    h = Hypergraph([f"u{i}" for i in range(7)],
                   [(u, w), (u, w), (u, x), (w, y1), (x, y2), (x, y3),
                    (y1, y2), (y1, y3), (y1, y4), (y2, y3), (y2, y4), (y3, y4)])
    assert degeneracy(h).order[:2] == (u, w)
    assert_peels_match_reference(h)
    # the down-hypergraphs of the pinned pipeline-scale colorings
    for make in SCALE_GRAPHS.values():
        assert_peels_match_reference(down_hypergraph(make()))


def test_conflict_builders_refuse_over_the_byte_budget(monkeypatch):
    # each conflict build needs 48 bytes of bitsets; SIX's closure fits in
    # 48 bytes and its conflict build needs 72
    h = parse_hypergraph("a b c\nb c d\n")
    for budget, build in ((71, lambda: down_graph(parse_digraph(SIX))),
                          (47, lambda: clique_graph(h)),
                          (47, lambda: intersection_graph(h)),
                          (47, lambda: exact_strong_chromatic(h))):
        monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", budget)
        with pytest.raises(ValueError, match="^the conflict graph of .* bitsets "
                                             f"take .* over the {budget}-byte"):
            build()


def test_graph_degeneracy_examples():
    g = down_graph(parse_digraph(SIX))
    # maximal vertices peel first at degree 2, leaving the g4-g5-g6 triangle
    assert graph_degeneracy(g).value == 2
    path = Hypergraph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    assert degeneracy(path).value == 1


# -------------------------------------------- the CSR store against tuples

def assert_same_hypergraph(h, ref):
    assert (h.labels, h.edges, h.simple, h.m, h.sigma) == (
        ref.labels, ref.edges, ref.simple, ref.m, ref.sigma)
    assert [h.id_of(lab) for lab in h.labels] == list(range(h.n))
    eptr, members = h._csr
    assert (eptr.dtype, members.dtype) == (np.int64, np.int32)
    assert h.edges is h.edges  # built once


@st.composite
def member_lists(draw):
    """A vertex count and member lists that may hold negative and
    out-of-range ids, repeats inside an edge, repeated edges, and empty
    and singleton edges."""
    n = draw(st.integers(0, 6))
    member = (st.integers(0, n - 1) if n and draw(st.booleans())
              else st.integers(-2, n + 1))
    edges = draw(st.lists(st.lists(member, max_size=4, unique=draw(st.booleans())),
                          max_size=8))
    if edges and draw(st.booleans()):
        edges.append(draw(st.permutations(draw(st.sampled_from(edges)))))
    return n, edges


@settings(max_examples=400, deadline=None)
@given(member_lists(), st.sampled_from([None, True, False]),
       st.lists(st.integers(-1, 7), max_size=6))
def test_hypergraph_matches_tuple_reference(case, simple, s):
    n, edges = case
    labels = [f"u{i}" for i in range(n)]
    try:
        ref = hypergraph_reference(labels, edges, simple)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            Hypergraph(labels, edges, simple)
        assert str(ei.value) == str(exc)
        return
    h = Hypergraph(labels, edges, simple)
    assert_same_hypergraph(h, ref)
    for u in range(-1, n + 1):
        try:
            want = ref.degree(u)
        except ValueError as exc:
            with pytest.raises(ValueError) as ei:
                h.degree(u)
            assert str(ei.value) == str(exc)
        else:
            assert h.degree(u) == want
    assert_same_hypergraph(h.simplify(), ref.simplify())
    assert format_hypergraph(h) == ref.format()
    try:
        want = ref.induced(s)
    except ValueError as exc:
        with pytest.raises(ValueError) as ei:
            induced_subhypergraph(h, s)
        assert str(ei.value) == str(exc)
    else:
        assert_same_hypergraph(induced_subhypergraph(h, s), want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=10),
       st.integers(0, 3))
def test_distinct_rows_matches_dict_of_tuples(rows, least):
    eptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=eptr[1:])
    members = np.array([x for r in rows for x in r], dtype=np.int32)
    got = _distinct_rows(eptr, members, least)
    assert got.dtype == np.int64
    assert got.tolist() == distinct_rows_reference(rows, least)


token = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def hypergraph_texts(draw):
    """Edge-per-line texts of 0-4 tokens, repeats inside a line included,
    with comments that may hold tokens, blank lines, tabs and assorted
    line breaks."""
    out = []
    for _ in range(draw(st.integers(0, 10))):
        toks = draw(st.lists(token, max_size=4))
        line = draw(st.sampled_from(["", " ", "\t"]))
        line += "".join(draw(st.sampled_from([" ", "\t", "  "])) + t for t in toks)
        if draw(st.booleans()) and draw(st.booleans()):
            line += draw(st.sampled_from(["#", " # ", "#a b "]))
            line += " ".join(draw(st.lists(token, max_size=3)))
        out.append(line + draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"])))
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(hypergraph_texts())
def test_parse_hypergraph_matches_reference(text):
    try:
        ref = parse_hypergraph_reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as ei:
            parse_hypergraph(text)
        assert (str(ei.value), ei.value.line) == (str(exc), exc.line)
        return
    h = parse_hypergraph(text)
    assert_same_hypergraph(h, ref)
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_down_hypergraph_fill_matches_constructor():
    # down_hypergraph fills its Hypergraph without the constructor's
    # checks; the result must be the one the constructor builds
    rng = random.Random(71)
    for _ in range(100):
        g = random_dag(rng, rng.randint(0, 12), rng.uniform(0.1, 0.6))
        for closed in (False, True):
            for simplify in (False, True):
                h = down_hypergraph(g, closed=closed, simplify=simplify)
                ref = hypergraph_reference(h.labels, h.edges)
                assert_same_hypergraph(h, ref)
                assert_same_hypergraph(h.simplify(), ref.simplify())
                assert [h.degree(u) for u in range(h.n)] == [
                    ref.degree(u) for u in range(h.n)]

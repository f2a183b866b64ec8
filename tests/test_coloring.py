import hashlib
import json
import pickle
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from downcolor import (
    CapExceededError,
    Coloring,
    ColoringError,
    Hypergraph,
    UndirectedGraph,
    affine_design,
    build_field,
    bound_report,
    big_d,
    build_compact,
    coloring_from_json,
    coloring_to_json,
    down_coloring,
    down_graph,
    down_hypergraph,
    exact_chromatic,
    exact_strong_chromatic,
    find_down_violation,
    format_digraph,
    greedy_strong_coloring,
    degeneracy,
    parse_digraph,
    prime_power,
    serialize,
    up_digraph,
    verify_down_coloring,
)
from downcolor import _kernels, cli
from downcolor.coloring import _columns, _greedy_clique, _greedy_strong
from downcolor.hypergraph import _down_csr, _peel
from conftest import (GROTZSCH_EDGES, SCALE_GRAPHS, brute_chromatic,
                      brute_violation, dsatur_reference,
                      extend_to_maximal_reference, greedy_clique_reference,
                      layered_dag, pair_digraph_text, random_dag,
                      random_hypergraph)

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"


def random_graph(rng, n, p):
    labels = [f"v{i}" for i in range(n)]
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(labels, edges)


# ------------------------------------------------------------ Coloring type

def test_coloring_validates_contiguity():
    Coloring({"a": 1, "b": 2}, 2, "greedy")
    with pytest.raises(ValueError):
        Coloring({"a": 1, "b": 3}, 3, "greedy")  # color 2 unused
    with pytest.raises(ValueError):
        Coloring({"a": 0}, 1, "greedy")
    with pytest.raises(ValueError):
        Coloring({"a": 1}, 2, "greedy")


def test_coloring_json_roundtrip():
    c = Coloring({"a": 1, "b": 2, "c": 1}, 2, "exact")
    c2 = coloring_from_json(coloring_to_json(c))
    assert c2.colors == c.colors and c2.k == c.k and c2.method == c.method


def test_coloring_repr_is_the_field_repr():
    c = Coloring({"b": 2, "a": 1}, 2, "greedy")
    assert repr(c) == "Coloring(colors={'b': 2, 'a': 1}, k=2, method='greedy')"


def test_array_coloring_equals_dict_coloring_and_pickles():
    rng = random.Random(97)
    for _ in range(40):
        g = random_dag(rng, rng.randint(0, 14), rng.choice([0.1, 0.3, 0.6]))
        for c in (down_coloring(g), greedy_strong_coloring(down_hypergraph(g))):
            twin = Coloring(dict(c.colors), c.k, c.method)
            assert c == twin and twin == c
            assert repr(c) == repr(twin)
            assert list(c.colors.items()) == list(twin.colors.items())
            back = pickle.loads(pickle.dumps(c))
            assert back == c and repr(back) == repr(c)
            assert list(back.colors.items()) == list(c.colors.items())
            assert coloring_to_json(back) == coloring_to_json(twin)
            assert c != Coloring(dict(c.colors), c.k, "other")


def test_coloring_is_read_only():
    g = parse_digraph("a c\nb c\nc d\n")
    c = down_coloring(g)
    # the vertices with a parent in id order, then the maximal ones by label
    assert list(c.colors) == ["c", "d", "a", "b"]
    with pytest.raises(TypeError):
        c.colors["a"] = 3
    with pytest.raises(AttributeError):
        c.k = 5
    with pytest.raises(ValueError):
        c._color[0] = 3


def test_columns_fast_path_matches_lookup():
    rng = random.Random(101)
    for _ in range(40):
        text = format_digraph(random_dag(rng, rng.randint(2, 14),
                                         rng.choice([0.1, 0.3, 0.6])))
        g, fresh = parse_digraph(text), parse_digraph(text)
        c = down_coloring(g)
        read = coloring_from_json(coloring_to_json(c))
        assert c._labels == fresh.labels and c._labels is not fresh.labels
        if read._labels != fresh.labels:  # JSON keys are sorted
            assert np.array_equal(_columns(fresh, c), _columns(fresh, read))
        assert np.array_equal(_columns(g, c), _columns(fresh, read))


def test_array_coloring_of_other_labels_is_refused():
    g = parse_digraph(SIX)
    other = down_coloring(parse_digraph(SIX.replace("g6", "g7")))
    with pytest.raises(ColoringError, match=r"misses vertices: \['g6'\]"):
        verify_down_coloring(g, other)
    with pytest.raises(ColoringError, match=r"unknown vertices: \['h'\]"):
        build_compact(g, down_coloring(parse_digraph(SIX + "h\n")))


@pytest.mark.parametrize("text", [
    "[]",
    '{"colors": {"a": 1}}',
    '{"colors": {"a": "x"}, "k": 1, "method": "greedy"}',
    '{"colors": {"a": 1}, "k": "1", "method": "greedy"}',
])
def test_coloring_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        coloring_from_json(text)


def test_coloring_json_refuses_deep_nesting_as_value_error():
    with pytest.raises(ValueError, match="nested too deeply"):
        coloring_from_json("[" * 100000 + "]" * 100000)


def test_coloring_json_refuses_a_k_above_the_vertex_count_at_once():
    # no set of 10^10 colors is built to find the unused ones
    with pytest.raises(ValueError, match="k = 10000000000 is above the vertex count 1"):
        coloring_from_json('{"k": 10000000000, "method": "m", "colors": {"a": 1}}')


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)


@st.composite
def coloring_texts(draw):
    """Arbitrary text, any JSON value, or a coloring document with at most
    one thing wrong: a key dropped, a value of any type or size, or a
    fragment spliced into its text."""
    kind = draw(st.sampled_from(["text", "value", "doc", "doc", "doc"]))
    if kind == "text":
        return draw(st.text())
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    colors = draw(st.dictionaries(st.text(max_size=3), st.integers(1, 4), max_size=6))
    doc = {"k": max(colors.values(), default=0),
           "method": draw(st.text(max_size=4)), "colors": colors}
    wrong = draw(st.sampled_from([None, "k", "method", "colors", "color",
                                  "drop", "splice"]))
    if wrong in doc:
        doc[wrong] = draw(st.integers() | JSON_VALUES)
    elif wrong == "color":
        colors[draw(st.text(max_size=3))] = draw(st.integers() | JSON_VALUES)
    elif wrong == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    if wrong == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(max_size=3)) + text[at:]
    return text


@settings(max_examples=500, deadline=None)
@given(coloring_texts())
def test_coloring_json_reader_fuzz(text):
    # any text reads as a Coloring, which writes and reads back equal,
    # or raises ValueError
    try:
        c = coloring_from_json(text)
    except ValueError:
        return
    assert isinstance(c, Coloring)
    assert coloring_from_json(coloring_to_json(c)) == c


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), st.integers(1, 4), max_size=8), st.text())
def test_coloring_json_writer_matches_json_dumps(colors, method):
    rank = {x: i + 1 for i, x in enumerate(sorted(set(colors.values())))}
    c = Coloring({lab: rank[x] for lab, x in colors.items()}, len(rank), method)
    doc = {"colors": dict(c.colors), "k": c.k, "method": method}
    assert coloring_to_json(c) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------ exact solver

def test_exact_matches_brute_oracle():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.7))
        res = exact_chromatic(g)
        assert res.exact
        assert res.k == brute_chromatic(g.n, list(g.edges()))
        assert res.coloring.k == res.k


def test_exact_coloring_is_proper():
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 12), 0.4)
        res = exact_chromatic(g)
        for a, b in g.edges():
            assert res.coloring.colors[g.label_of(a)] != res.coloring.colors[g.label_of(b)]


def test_exact_complete_graph_skips_cap():
    n = 40
    g = UndirectedGraph([f"v{i}" for i in range(n)], list(combinations(range(n), 2)))
    res = exact_chromatic(g, cap=10)
    assert res.exact and res.k == n


def test_exact_cap_refusal():
    rng = random.Random(47)
    g = random_graph(rng, 12, 0.3)
    assert not g.is_complete()
    with pytest.raises(CapExceededError):
        exact_chromatic(g, cap=5)


def test_exact_cap_refused_before_the_conflict_build(monkeypatch):
    # cliques with fewer than C(n, 2) pairs cannot make the conflict graph
    # complete, so above the cap nothing is built
    def refuse(*args, **kw):
        raise AssertionError("the conflict graph was built above the cap")

    monkeypatch.setattr(_kernels, "_clique_union", refuse)
    g = parse_digraph(pair_digraph_text(GROTZSCH_EDGES))
    with pytest.raises(CapExceededError) as ei:
        down_coloring(g, "exact", cap=10)
    assert str(ei.value) == "exact solver cap exceeded: 11 vertices > cap 10"
    h = Hypergraph([f"v{i}" for i in range(40)],
                   [(i, i + 1, i + 2) for i in range(38)])
    with pytest.raises(CapExceededError) as ei:
        exact_strong_chromatic(h)
    assert str(ei.value) == "exact solver cap exceeded: 40 vertices > cap 30"
    # a complete union still skips the cap, so it is built
    with pytest.raises(AssertionError):
        exact_strong_chromatic(Hypergraph(list("abcd"), [(0, 1, 2, 3)]), cap=2)


def test_exact_budget_exhaustion_returns_incumbent():
    # 5-cycle: clique bound 2 < chi = 3, so search must run
    g = UndirectedGraph(list("abcde"), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    res = exact_chromatic(g, budget=0)
    assert not res.exact
    assert res.lower <= 3 <= res.k
    for a, b in g.edges():
        assert res.coloring.colors[g.label_of(a)] != res.coloring.colors[g.label_of(b)]


def test_exact_deterministic():
    rng = random.Random(53)
    g = random_graph(rng, 11, 0.45)
    assert exact_chromatic(g).coloring.colors == exact_chromatic(g).coloring.colors


@pytest.mark.parametrize("budget", [0, 1, 3, 10, 40, None])
def test_exact_matches_recursive_reference(budget):
    # same bound, lower bound, stop and coloring as the recursive search,
    # at every budget: the node sequence is unchanged
    rng = random.Random(71)
    stops = 0
    for _ in range(220):
        n = rng.randint(1, 22)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        res = exact_chromatic(g, cap=n, budget=budget)
        got = (res.k, res.lower, res.exact,
               [res.coloring.colors[g.label_of(u)] for u in range(n)])
        assert got == dsatur_reference(g, budget)
        stops += not res.exact
    assert (stops > 0) == (budget is not None)


@pytest.mark.parametrize("budget", [0, 7, 300])
def test_exact_matches_reference_on_dense_graphs(budget):
    # saturations of 16 and more reach the search's fifth bit plane and its
    # longest carries, which the small graphs above never do
    rng = random.Random(89)
    wide = 0
    for _ in range(30):
        n = rng.randint(40, 56)
        g = random_graph(rng, n, rng.uniform(0.8, 0.9))
        res = exact_chromatic(g, cap=n, budget=budget)
        got = (res.k, res.lower, res.exact,
               [res.coloring.colors[g.label_of(u)] for u in range(n)])
        assert got == dsatur_reference(g, budget)
        wide += res.k >= 17 and res.lower < res.k
    assert wide >= 15


@pytest.mark.parametrize("kw, message", [({"budget": -1}, "budget must be >= 0"),
                                         ({"cap": -1}, "cap must be >= 0")])
def test_exact_refuses_a_negative_budget_or_cap(kw, message):
    # refused before the complete-graph shortcut, by every exact entry
    k4 = UndirectedGraph(list("abcd"), list(combinations(range(4), 2)))
    g = parse_digraph(SIX)
    for call in (lambda: exact_chromatic(k4, **kw),
                 lambda: exact_strong_chromatic(Hypergraph(list("abcd"), [(0, 1, 2, 3)]), **kw),
                 lambda: down_coloring(g, "exact", **kw)):
        with pytest.raises(ValueError) as ei:
            call()
        assert str(ei.value) == message
    assert exact_chromatic(k4, budget=0, cap=0).k == 4


def test_greedy_clique_matches_reference():
    # random, edgeless, complete-minus-one-edge and circulant graphs; the
    # circulants are regular, so every first pick is a tie
    rng = random.Random(83)
    for i in range(600):
        n = rng.randint(1, 60)
        pairs = list(combinations(range(n), 2))
        if i % 4 == 0:
            p = rng.uniform(0.05, 0.95)
            edges = [e for e in pairs if rng.random() < p]
        elif i % 4 == 1:
            edges = []
        elif i % 4 == 2:
            edges = pairs[:]
            if edges:
                edges.remove(rng.choice(edges))
        else:
            hops = rng.sample(range(1, n // 2 + 1), rng.randint(0, n // 2))
            edges = sorted({tuple(sorted((u, (u + h) % n)))
                            for u in range(n) for h in hops})
        a = np.zeros((n, n), dtype=bool)
        adj = [0] * n
        for u, v in edges:
            a[u, v] = a[v, u] = True
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert _greedy_clique(a) == greedy_clique_reference(n, adj)


def partial_plane(q, seed, share=0.45):
    """Up-digraph of a seeded random share of the lines of AG(2, q)."""
    plane, _ = affine_design(build_field(*prime_power(q)), 2)
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(plane.m), round(share * plane.m)))
    return up_digraph(Hypergraph(plane.labels, [plane.edges[j] for j in chosen]))


# sha256 of coloring_to_json(down_coloring(g, "exact", cap=g.n, budget=5000)),
# the incumbent on a budget stop; the q = 7 and 11 rows were computed before
# the search became iterative, the q = 9 rows before it moved to a dense
# conflict matrix
PLANE_PINS = [  # q, seed, k, stopped, digest
    (7, 1, 10, False,
     "558528f75911eccab5b49c899477d273619baa716dbfd1681de296467173fd88"),
    (11, 1, 17, True,
     "f3517696ddf6bc1ce6de4a1f7f3df1775af5119f5c617f261ca61e59abc20e07"),
    (9, 1, 12, False,
     "ace60d992e285b2234984a8def6326ca380c7bb0d6ab38f6783c4581786a9912"),
    (9, 6, 13, True,
     "e0fc47a97ca78fc17815904c7bd12ca164caf44d581ca120b8086dccc81f8242"),
]


@pytest.mark.parametrize("q, seed, k, stopped, digest", PLANE_PINS,
                         ids=[f"{q}-{k}-{st}-{d}" for q, _, k, st, d in PLANE_PINS])
def test_exact_partial_plane_pinned(q, seed, k, stopped, digest):
    g = partial_plane(q, seed)
    try:
        c = down_coloring(g, "exact", cap=g.n, budget=5000)
    except CapExceededError as exc:
        assert stopped
        c = exc.partial
    else:
        assert not stopped
    assert c.k == k
    assert hashlib.sha256(coloring_to_json(c).encode()).hexdigest() == digest


def test_exact_strong_partial_plane_pinned():
    # the q = 11 plane's down-hypergraph stops at the budget; the digest
    # was computed before the search moved to a dense conflict matrix
    h = down_hypergraph(partial_plane(11, 1))
    res = exact_strong_chromatic(h, cap=h.n, budget=5000)
    assert (res.k, res.lower, res.exact) == (17, 12, False)
    assert hashlib.sha256(coloring_to_json(res.coloring).encode()).hexdigest() == (
        "33e3f70447b033b8ba884c3f56b8113cb3d4c43010b61ffc3d5df045f69b6fe6")


def old_seed(n, indptr, indices):
    """The exact solver's upper-bound seed as it was built before it
    shared the strong first-fit: the graph's ``u < v`` pairs peeled as a
    2-uniform hypergraph, then ``_kernels.greedy_color``, the set-based
    first-fit over the adjacency, along the reversed order."""
    src = np.repeat(np.arange(n), np.diff(indptr))
    up = src < indices
    pairs = np.stack((src[up], indices[up]), axis=1).ravel()
    order = _peel(n, np.arange(0, pairs.size + 1, 2), pairs)[0].order
    return _kernels.greedy_color(np.array(order[::-1], dtype=np.int64),
                                 indptr, indices).tolist()


def test_exact_seed_matches_the_old_seed():
    def check(n, indptr, indices):
        assert _greedy_strong(n, *_kernels.csr_edges(indptr, indices)) == \
            old_seed(n, indptr, indices)

    rng = random.Random(97)
    for p in (0.05, 0.2, 0.4, 0.6, 0.9):
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 60), p)
            check(g.n, *g._csr)
    # the conflict graphs of the exact partial-plane benchmark, seed 1
    checked = 0
    for q, count in {7: 2, 9: 4, 11: 14}.items():
        plane, _ = affine_design(build_field(*prime_power(q)), 2)
        for i in range(count):
            rng = random.Random(f"1:{q}:{i}")
            share = rng.uniform(0.4, 0.5)
            chosen = sorted(rng.sample(range(plane.m), round(share * plane.m)))
            h = down_hypergraph(up_digraph(Hypergraph(
                plane.labels, [plane.edges[j] for j in chosen], simple=True)))
            check(h.n, *_kernels.clique_union_csr(h.n, *h._csr))
            checked += 1
    assert checked == 20


# ------------------------------------------------------------ strong coloring

def _is_strong(h, colors):
    for e in h.edges:
        got = [colors[h.label_of(v)] for v in e]
        if len(set(got)) != len(got):
            return False
    return True


def test_greedy_strong_coloring_valid_and_bounded():
    rng = random.Random(59)
    for _ in range(40):
        h = random_hypergraph(rng)
        c = greedy_strong_coloring(h)
        assert _is_strong(h, c.colors)
        ind = degeneracy(h).value
        assert c.k <= max(1, ind * (h.sigma - 1) + 1)


def test_exact_strong_matches_brute():
    rng = random.Random(61)
    for _ in range(25):
        h = random_hypergraph(rng, max_n=8, max_m=6)
        res = exact_strong_chromatic(h)
        assert res.exact
        assert _is_strong(h, res.coloring.colors)
        pairs = set()
        for e in h.edges:
            pairs.update(combinations(sorted(e), 2))
        assert res.k == brute_chromatic(h.n, sorted(pairs))


# ------------------------------------------------------------ down-coloring

def test_down_coloring_greedy_valid_and_bounded():
    # the paper's bound: D <= k <= ind(H)*(D - 2) + 1
    rng = random.Random(67)
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 14), rng.uniform(0.2, 0.5))
        c = down_coloring(g)
        assert verify_down_coloring(g, c)
        assert c.k >= big_d(g)
        if g.edge_count:
            assert c.k <= bound_report(g).cor1_bound


def test_greedy_paths_build_no_clique_union(monkeypatch, tmp_path):
    # greedy coloring works on the down-hypergraph itself; the n-row
    # clique-union bitset is left to the graph builders and the exact path
    def refuse(*args):
        raise AssertionError("a greedy path built a clique-union bitset")

    monkeypatch.setattr(_kernels, "_clique_union", refuse)
    g = parse_digraph(SIX)
    assert verify_down_coloring(g, down_coloring(g))
    h = down_hypergraph(g)
    assert _is_strong(h, greedy_strong_coloring(h).colors)
    six, hyper = tmp_path / "six.txt", tmp_path / "h.txt"
    six.write_text(SIX)
    hyper.write_text("a b c\nb c d\n")
    assert cli.main(["color", str(six)]) == 0
    assert cli.main(["color", "--strong", str(hyper)]) == 0


def test_exact_down_coloring_builds_no_graph_object(monkeypatch):
    # the exact branch hands the clique union's CSR arrays to the solver
    def refuse(*args, **kw):
        raise AssertionError("the exact branch built an UndirectedGraph")

    monkeypatch.setattr(UndirectedGraph, "__init__", refuse)
    monkeypatch.setattr(UndirectedGraph, "_from_csr", classmethod(refuse))
    g = parse_digraph(pair_digraph_text(GROTZSCH_EDGES))
    assert down_coloring(g, "exact").k == 4


def test_down_coloring_exact_matches_down_graph_chromatic():
    rng = random.Random(71)
    for _ in range(30):
        g = random_dag(rng, rng.randint(1, 10), 0.4)
        c = down_coloring(g, "exact")
        assert verify_down_coloring(g, c)
        dg = down_graph(g)
        assert c.k == brute_chromatic(dg.n, list(dg.edges()))


def test_down_coloring_case_split():
    # with trivial edges kept, sigma(H) + 1 = D and the two-way split is exact
    rng = random.Random(73)
    for _ in range(30):
        g = random_dag(rng, rng.randint(1, 10), 0.35)
        h = down_hypergraph(g, simplify=False)
        ks = exact_strong_chromatic(h).k
        want = ks + 1 if ks == h.sigma else ks
        assert down_coloring(g, "exact").k == want


def test_maximal_extension_matches_per_top_first_fit():
    rng = random.Random(83)
    graphs = [random_dag(rng, rng.randint(0, 14), rng.choice([0.1, 0.3, 0.6]))
              for _ in range(60)]
    # every vertex maximal, and one with many maximal vertices
    graphs += [parse_digraph("a\nc\nb\n"), layered_dag(rng, 80, 0.2)]
    for g in graphs:
        for mode in ("greedy", "exact") if g.n <= 30 else ("greedy",):
            try:
                c = down_coloring(g, mode, budget=500)
            except CapExceededError as exc:
                c = exc.partial
            want = extend_to_maximal_reference(g, c)
            assert list(c.colors.items()) == list(want.items())
            assert c.k == max(want.values(), default=0)


def test_down_coloring_deterministic():
    rng = random.Random(79)
    g = random_dag(rng, 12, 0.4)
    assert down_coloring(g).colors == down_coloring(g).colors
    assert down_coloring(g, "exact").colors == down_coloring(g, "exact").colors


def test_down_coloring_budget_carries_partial():
    # the Groetzsch conflict graph: clique 2 and D = 3 both sit below
    # chi = 4, so a stopped search proves nothing
    g = parse_digraph(pair_digraph_text(GROTZSCH_EDGES))
    with pytest.raises(CapExceededError) as ei:
        down_coloring(g, "exact", budget=0)
    err = ei.value
    assert err.partial is not None
    assert verify_down_coloring(g, err.partial)
    assert err.lower <= err.upper == err.partial.k
    assert (err.lower, err.upper, err.partial.method) == (3, 4, "greedy")


def test_down_coloring_budget_stop_at_d_is_proved():
    # the 5-cycle conflict graph: the search stops at once with clique
    # bound 2, but the incumbent's 3 colors meet D = 3, which proves it
    g = parse_digraph(pair_digraph_text(
        [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]))
    assert big_d(g) == 3
    c = down_coloring(g, "exact", budget=0)
    assert (c.k, c.method) == (3, "exact")
    assert verify_down_coloring(g, c)
    assert c == down_coloring(g, "exact")


def test_six_example_exact_and_bounds():
    g = parse_digraph(SIX)
    rep = bound_report(g)
    assert (rep.big_d, rep.sigma_h, rep.ind_h) == (3, 2, 2)
    assert rep.cor1_bound == 3 and rep.lower_bound == 3
    c = down_coloring(g, "exact")
    assert c.k == 3
    # the 3-coloring of this digraph is unique up to color names
    classes = {}
    for v, col in c.colors.items():
        classes.setdefault(col, set()).add(v)
    assert sorted(map(sorted, classes.values())) == [
        ["g1", "g6"], ["g2", "g5"], ["g3", "g4"]]


def test_down_coloring_refuses_an_unknown_mode():
    with pytest.raises(ValueError) as ei:
        down_coloring(parse_digraph(SIX), "bogus")
    assert str(ei.value) == "unknown mode 'bogus'"


def test_bound_report_requires_edges():
    with pytest.raises(ValueError):
        bound_report(parse_digraph("a\nb\n"))


def test_three_cell_design_bounds():
    from downcolor import hkm_design, up_digraph
    g = up_digraph(hkm_design(3, 2))
    rep = bound_report(g)
    assert (rep.big_d, rep.sigma_h, rep.ind_h) == (5, 4, 2)
    assert rep.cor1_bound == 7 and rep.lower_bound == 5
    # the bound is not tight here: one color per cell pair suffices
    assert down_coloring(g, "exact").k == 6


# ------------------------------------------------------------ verification

def test_find_down_violation_witness():
    g = parse_digraph(SIX)
    bad = Coloring({"g1": 1, "g2": 2, "g3": 3, "g4": 1, "g5": 2, "g6": 3}, 3,
                   "greedy")
    hit = find_down_violation(g, bad)
    assert hit is not None
    u, v, w = hit
    assert bad.colors[u] == bad.colors[v]
    anc = down_hypergraph(g, closed=True)
    shared = [s for s in anc.edge_label_sets() if u in s and v in s]
    assert shared
    assert any(u in s and v in s and w in s for s in shared)


def test_find_down_violation_matches_brute():
    rng = random.Random(43)
    for _ in range(150):
        g = random_dag(rng, rng.randint(1, 14), rng.choice([0.1, 0.3, 0.6]))
        k = rng.randint(1, g.n)
        colors = {lab: rng.randint(1, k) for lab in g.labels}
        rank = {col: i + 1 for i, col in enumerate(sorted(set(colors.values())))}
        c = Coloring({lab: rank[x] for lab, x in colors.items()}, len(rank),
                     "greedy")
        want = brute_violation(g, c)
        assert find_down_violation(g, c) == want
        assert verify_down_coloring(g, c) == (want is None)


def test_verify_rejects_wrong_vertex_set():
    g = parse_digraph(SIX)
    with pytest.raises(ColoringError):
        verify_down_coloring(g, Coloring({"g1": 1}, 1, "greedy"))
    full = {v: i + 1 for i, v in enumerate(sorted(g.labels))}
    full["zz"] = 7
    with pytest.raises(ColoringError):
        verify_down_coloring(g, Coloring(full, 7, "greedy"))


def test_verify_accepts_valid():
    g = parse_digraph(SIX)
    assert verify_down_coloring(g, down_coloring(g))


# ------------------------------------------- pinned outputs at pipeline scale

def merged(c, a, b):
    """``c`` with color ``b`` folded into color ``a`` and the colors above
    ``b`` shifted down; invalid wherever a down-set holds both."""
    colors = {lab: a if x == b else x - (x > b) for lab, x in c.colors.items()}
    return Coloring(colors, c.k - 1, c.method)


# sha256 of serialize(build_compact(g, c), "csv") for the pinned colorings
SCALE_CSV_DIGESTS = {
    "layered": "300e552ac46a57325724faf824d949ced98414f691acc78cf81240fd808178dd",
    "hierarchy": "d0b53eb4c15cc4dec72e386419c47a6ec0bc757b971b3746aad100d318c57b14",
}


@pytest.mark.parametrize("name, k, digest, fold_low, fold_high", [
    ("layered", 273,
     "99a47b9cfebfce3f70490354babf467c36f1191ebfb2e4b0f4b03c90c8a9e4e1",
     ("v297", "v299", "v0"), ("v32", "v291", "v0")),
    ("hierarchy", 39,
     "1a8deb8e93f06526346bc15d6358b486b0300fd1820a36e9fafbb388fe6811f4",
     ("m318", "m22", "t233"), ("m214", "b89", "t406")),
], ids=["layered", "hierarchy"])
def test_pipeline_scale_outputs_pinned(name, k, digest, fold_low, fold_high):
    g = SCALE_GRAPHS[name]()
    c = down_coloring(g)
    assert c.k == k
    assert hashlib.sha256(coloring_to_json(c).encode()).hexdigest() == digest
    csv = serialize(build_compact(g, c), "csv")
    assert hashlib.sha256(csv.encode()).hexdigest() == SCALE_CSV_DIGESTS[name]
    assert find_down_violation(g, c) is None
    assert find_down_violation(g, merged(c, 1, 2)) == fold_low
    assert find_down_violation(g, merged(c, 3, c.k)) == fold_high


def test_find_down_violation_pinned_small():
    rng = random.Random(101)
    want = [("v11", "v8", "v11"), ("v8", "v9", "v8"), ("v2", "v7", "v2"),
            ("v9", "v4", "v9")]
    for triple in want:
        g = random_dag(rng, 14, 0.3)
        c = down_coloring(g)
        assert find_down_violation(g, merged(c, 1, c.k)) == triple

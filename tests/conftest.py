"""Shared corpus generators and brute-force oracles.

Oracles here use plain Python sets and backtracking only, so they share
no code path with the package internals they check;
``affine_design_reference`` shares only the field arithmetic.
"""
from __future__ import annotations

import csv
import heapq
import io
import json
import math
import random
from collections import Counter, deque
from itertools import combinations, product
from types import SimpleNamespace

from downcolor import BibdError, DesignParams, Digraph, Hypergraph, ParseError


# ---------------------------------------------------------------- corpora

def random_dag(rng: random.Random, n: int, density: float) -> Digraph:
    """DAG on v0..v{n-1} with edges sampled along a random topological order."""
    labels = [f"v{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    pairs = []
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            pairs.append((order[i], order[j]))
    return Digraph.from_label_pairs(pairs, isolated=labels)


def layered_dag(rng: random.Random, n: int, density: float) -> Digraph:
    """sqrt(n)-wide layers on v0..v{n-1}; each pair of vertices in adjacent
    layers is an edge with probability ``density``."""
    width = max(1, round(math.sqrt(n)))
    pairs = []
    for lo in range(0, n - width, width):
        for u in range(lo, lo + width):
            for v in range(lo + width, min(lo + 2 * width, n)):
                if rng.random() < density:
                    pairs.append((f"v{u}", f"v{v}"))
    return Digraph.from_label_pairs(pairs, isolated=[f"v{i}" for i in range(n)])


def hierarchy(rng: random.Random, n: int, out_degree: int = 3) -> Digraph:
    """Three levels t, m, b of n/2, n/3, n/6 vertices; every vertex above
    the bottom gets ``out_degree`` random children one level down."""
    levels = [[f"{p}{i}" for i in range(size)]
              for p, size in zip("tmb", (n // 2, n // 3, n // 6))]
    pairs = [(u, v) for upper, lower in zip(levels, levels[1:])
             for u in upper for v in sorted(rng.sample(lower, out_degree))]
    return Digraph.from_label_pairs(pairs, isolated=[u for lv in levels for u in lv])


# the pipeline-scale digraphs whose colorings and tables are pinned
SCALE_GRAPHS = {
    "layered": lambda: layered_dag(random.Random(3), 300, 0.3),
    "hierarchy": lambda: hierarchy(random.Random(5), 1500),
}


# the Groetzsch graph: the 5-cycle u0..u4, a shadow w_i adjacent to the
# cycle neighbours of u_i, and a hub z adjacent to every shadow; it is
# triangle-free with chromatic number 4
GROTZSCH_EDGES = ([(f"u{i}", f"u{(i + 1) % 5}") for i in range(5)]
                  + [(f"w{i}", f"u{(i + j) % 5}") for i in range(5) for j in (1, 4)]
                  + [("z", f"w{i}") for i in range(5)])


def pair_digraph_text(edges) -> str:
    """Edge-list text of the up-digraph of a graph read as 2-element
    hyperedges: a top ``e{j}`` above both ends of each edge, so the
    down-hypergraph's clique graph is the graph itself and D = 3."""
    return "".join(f"e{j} {a}\ne{j} {b}\n" for j, (a, b) in enumerate(edges))


def random_digraph(rng: random.Random, n: int, density: float) -> Digraph:
    """Arbitrary digraph, cycles allowed, no self-loops or parallel edges."""
    labels = [f"v{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                pairs.append((labels[i], labels[j]))
    return Digraph.from_label_pairs(pairs, isolated=labels)


def random_hypergraph(rng: random.Random, max_n: int = 10,
                      max_m: int = 8) -> Hypergraph:
    """Small hypergraph; duplicate and nested edges are allowed."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    labels = [f"u{i}" for i in range(n)]
    edges = []
    for _ in range(m):
        size = rng.randint(1, min(4, n))
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    return Hypergraph(labels, edges, simple=False)


# ---------------------------------------------------------------- oracles

def reach_closed(g: Digraph) -> dict[str, frozenset[str]]:
    """Closed reachability sets by label, via DFS on label adjacency."""
    kids = {u: [g.label_of(c) for c in g.children(g.id_of(u))] for u in g.labels}
    out = {}
    for start in g.labels:
        seen = {start}
        stack = [start]
        while stack:
            for w in kids[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out[start] = frozenset(seen)
    return out


def brute_down_edges(g: Digraph) -> set[frozenset[str]]:
    """Pairs that co-occur in some closed reachability set (cycles allowed)."""
    reach = reach_closed(g)
    out = set()
    for rs in reach.values():
        for a, b in combinations(sorted(rs), 2):
            out.add(frozenset((a, b)))
    return out


def brute_violation(g: Digraph, c) -> tuple[str, str, str] | None:
    """Smallest (u, v, w) by vertex id over same-colored pairs u < v in the
    closed down-set of a maximal vertex w, as labels; None if none."""
    reach = reach_closed(g)
    hits = [(a, b, w) for w in range(g.n) if not g.parents(w)
            for a, b in combinations(sorted(map(g.id_of, reach[g.label_of(w)])), 2)
            if c.colors[g.label_of(a)] == c.colors[g.label_of(b)]]
    return tuple(map(g.label_of, min(hits))) if hits else None


def brute_chromatic(n: int, edges: list[tuple[int, int]]) -> int:
    """Smallest k admitting a proper coloring, by backtracking."""
    if n == 0:
        return 0
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def colorable(k: int) -> bool:
        colors = [0] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            used = {colors[u] for u in range(v) if adj[v] >> u & 1}
            # cap new colors at one above the current maximum to kill
            # permutation-equivalent branches
            top = min(k, max(colors[:v], default=0) + 1)
            for c in range(1, top + 1):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
            colors[v] = 0
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def induced_min_degree(edges: list[tuple[int, ...]], s: int) -> int:
    """Minimum degree of the subhypergraph induced on bitmask ``s``.

    Degree counts, with multiplicity, induced edge parts of size >= 2.
    """
    masks = []
    for e in edges:
        em = 0
        for v in e:
            if s >> v & 1:
                em |= 1 << v
        if em.bit_count() >= 2:
            masks.append(em)
    best = None
    t = s
    while t:
        v = (t & -t).bit_length() - 1
        t &= t - 1
        d = sum(1 for em in masks if em >> v & 1)
        best = d if best is None else min(best, d)
    return 0 if best is None else best


def brute_degeneracy(h: Hypergraph) -> int:
    """max over nonempty vertex subsets of the induced minimum degree."""
    edges = list(h.edges)
    best = 0
    for s in range(1, 1 << h.n):
        best = max(best, induced_min_degree(edges, s))
    return best


def peel_reference(n: int, edges) -> tuple[int, tuple[int, ...]]:
    """Min-degree peeling on one heap of (degree, id) pairs, written apart
    from ``hypergraph._peel`` and its bucket queue, as ``(value, order)``:
    min degree first, ties on the smallest id, degrees counted with
    multiplicity, edges of cardinality below two ignored."""
    edges = [e for e in edges if len(e) >= 2]
    size = [len(e) for e in edges]
    inc: list[list[int]] = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for u in e:
            inc[u].append(ei)
    deg = [len(inc[u]) for u in range(n)]
    alive = [True] * n
    heap: list[tuple[int, int]] = [(deg[u], u) for u in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    value = 0
    while len(order) < n:
        d, u = heapq.heappop(heap)
        if not alive[u] or d != deg[u]:
            continue
        alive[u] = False
        value = max(value, d)
        order.append(u)
        for ei in inc[u]:
            if size[ei] <= 1:
                continue
            size[ei] -= 1
            if size[ei] == 1:
                for w in edges[ei]:
                    if alive[w]:
                        deg[w] -= 1
                        heapq.heappush(heap, (deg[w], w))
                        break
    return value, tuple(order)


def first_fit_reference(g, order) -> list[int]:
    """First-fit along the reversed ``order`` over a graph's neighbours:
    each vertex takes the smallest color no colored neighbour holds.
    Colors by vertex id."""
    colors = [0] * g.n
    for v in reversed(order):
        used = {colors[w] for w in g.neighbors(v)}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


def strong_first_fit_reference(h: Hypergraph, order) -> list[int]:
    """First-fit along the reversed ``order``: each vertex takes the
    smallest color no already-colored member of a shared hyperedge holds.
    Colors by vertex id."""
    co: list[set[int]] = [set() for _ in range(h.n)]
    for e in h.edges:
        for u in e:
            co[u].update(e)
    colors = [0] * h.n
    for v in reversed(order):
        used = {colors[w] for w in co[v] if w != v}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


# ------------------------------------------------- digraph text boundary

def digraph_reference(labels, edges) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``Digraph(labels, edges)`` as it validated edge by edge before it
    became array-backed: ``(children, parents)`` as sorted id tuples, or
    the same ``ValueError`` for the first offending pair."""
    labels = tuple(labels)
    n = len(labels)
    children: list[list[int]] = [[] for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at {labels[u]!r}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge {labels[u]!r} -> {labels[v]!r}")
        seen.add((u, v))
        children[u].append(v)
        parents[v].append(u)
    return (tuple(tuple(sorted(c)) for c in children),
            tuple(tuple(sorted(p)) for p in parents))


def undirected_reference(labels, edges) -> tuple[tuple[int, ...], ...]:
    """``UndirectedGraph(labels, edges)`` as it validated edge by edge
    before it became CSR-backed: the sorted neighbour tuples, or the same
    ``ValueError`` for the first offending pair."""
    labels = tuple(labels)
    n = len(labels)
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        if a == b:
            raise ValueError(f"self-loop at {labels[a]!r}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {labels[key[0]]!r} -- {labels[key[1]]!r}")
        seen.add(key)
        adj[a].append(b)
        adj[b].append(a)
    return tuple(tuple(sorted(x)) for x in adj)


def components_reference(n, edges) -> list[list[int]]:
    """Connected components by union-find, each sorted, ordered by their
    smallest vertex."""
    root = list(range(n))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for a, b in edges:
        root[find(a)] = find(b)
    comps: dict[int, list[int]] = {}
    for u in range(n):
        comps.setdefault(find(u), []).append(u)
    return sorted(comps.values())


def _tarjan(g: Digraph) -> tuple[list[int], list[list[int]]]:
    """Iterative Tarjan; returns (component id per vertex, components)."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # (vertex, position of its next child)
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            kids = g.children(v)
            descend = False
            for i in range(pi, len(kids)):
                w = kids[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descend = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if descend:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                members: list[int] = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(sorted(members))
    return comp, comps


def condense_reference(g: Digraph) -> Digraph:
    """``condense_to_acyclic`` as it was built from Tarjan's components and
    a set of id pairs, through the validating constructor."""
    comp, comps = _tarjan(g)
    reps = [min(members, key=g.label_of) for members in comps]
    edges: set[tuple[int, int]] = set()
    for ci, members in enumerate(comps):
        edges.update((reps[ci], v) for v in members if v != reps[ci])
    for x, y in g.edges():
        if comp[x] != comp[y]:
            edges.add((reps[comp[x]], reps[comp[y]]))
    return Digraph(g.labels, sorted(edges))


def up_digraph_reference(h: Hypergraph) -> Digraph:
    """``up_digraph`` of a simple hypergraph as an edge list through the
    validating constructor: top ``w<i>`` above the members of edge i."""
    return Digraph(h.labels + tuple(f"w{i}" for i in range(h.m)),
                   [(h.n + i, u) for i, e in enumerate(h.edges) for u in e])


def extend_to_maximal_reference(g: Digraph, c) -> dict[str, int]:
    """``c``'s colors of the vertices with a parent, in id order, then
    each maximal vertex by label with the smallest color missing from
    its open down-set, found by a set per vertex."""
    reach = reach_closed(g)
    tops = {lab for lab in g.labels if not g.parents(g.id_of(lab))}
    out = {lab: c.colors[lab] for lab in g.labels if lab not in tops}
    for w in sorted(tops):
        used = {out[v] for v in reach[w] if v != w}
        out[w] = min(set(range(1, len(used) + 2)) - used)
    return out


def parse_digraph_reference(text: str):
    """The line-by-line ``parse_digraph`` with a set of seen pairs, as
    ``(labels, children, parents)``; raises the same ``ParseError``."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    eset: set[tuple[int, int]] = set()

    def vid(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) == 1:
            vid(toks[0])
        elif len(toks) == 2:
            u, v = vid(toks[0]), vid(toks[1])
            if u == v:
                raise ParseError(f"self-loop at {toks[0]!r}", lineno)
            if (u, v) in eset:
                raise ParseError(f"duplicate edge {toks[0]} -> {toks[1]}", lineno)
            eset.add((u, v))
            edges.append((u, v))
        else:
            raise ParseError(f"expected 1 or 2 tokens, got {len(toks)}", lineno)
    return (tuple(labels), *digraph_reference(labels, edges))


def topological_order_reference(labels, children, parents):
    """Kahn's FIFO order over id tuples, or on a cycle the label cycle
    that a walk along smallest in-residue parents from the smallest
    residue id closes, as ``CyclicGraphError`` names it."""
    indeg = [len(p) for p in parents]
    queue = deque(u for u in range(len(children)) if indeg[u] == 0)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) == len(children):
        return tuple(order)
    residue = set(range(len(children))) - set(order)
    path = [min(residue)]
    while True:
        p = min(w for w in parents[path[-1]] if w in residue)
        if p in path:
            return [labels[v] for v in reversed(path[path.index(p):] + [p])]
        path.append(p)


# ------------------------------------------------------------ hypergraph

class TupleHypergraph:
    """``Hypergraph`` as it stored sorted id tuples before it held CSR:
    the per-edge checks with their texts, simplicity through a set of the
    tuples, and ``simplify``, ``format_hypergraph`` and
    ``induced_subhypergraph`` on the tuples.  Labels are taken as valid."""

    def __init__(self, labels, edges, simple=None):
        self.labels = tuple(labels)
        n = len(self.labels)
        normalized = []
        for e in edges:
            members = tuple(sorted(e))
            for u in members:
                if not 0 <= u < n:
                    raise ValueError(f"edge member {u} out of range for {n} vertices")
            if len(set(members)) != len(members):
                raise ValueError(f"repeated vertex inside edge {members}")
            normalized.append(members)
        self.edges = tuple(normalized)
        self.m = len(self.edges)
        self.sigma = max((len(e) for e in self.edges), default=0)
        is_simple = (len(set(self.edges)) == len(self.edges)
                     and all(len(e) >= 2 for e in self.edges))
        if simple and not is_simple:
            raise ValueError("hypergraph declared simple has duplicate or trivial edges")
        self.simple = is_simple

    def degree(self, u: int) -> int:
        if not 0 <= u < len(self.labels):
            raise ValueError(f"vertex id {u} out of range")
        return sum(1 for e in self.edges if len(e) >= 2 and u in e)

    def simplify(self) -> "TupleHypergraph":
        seen: set[tuple[int, ...]] = set()
        kept = []
        for e in self.edges:
            if len(e) >= 2 and e not in seen:
                seen.add(e)
                kept.append(e)
        return TupleHypergraph(self.labels, kept, simple=True)

    def format(self) -> str:
        lines = sorted(" ".join(sorted(self.labels[u] for u in e)) for e in self.edges)
        covered = {u for e in self.edges for u in e}
        lines += sorted(lab for u, lab in enumerate(self.labels) if u not in covered)
        return "".join(line + "\n" for line in lines)

    def induced(self, s) -> "TupleHypergraph":
        ids = sorted(set(s))
        for u in ids:
            if not 0 <= u < len(self.labels):
                raise ValueError(f"vertex id {u} out of range")
        remap = {u: i for i, u in enumerate(ids)}
        cuts = [tuple(remap[x] for x in e if x in remap) for e in self.edges]
        return TupleHypergraph([self.labels[u] for u in ids],
                               [c for c in cuts if len(c) >= 2], simple=None)


def hypergraph_reference(labels, edges, simple=None) -> TupleHypergraph:
    """``Hypergraph(labels, edges, simple)`` as the tuple store built it,
    raising the same ``ValueError``."""
    return TupleHypergraph(labels, edges, simple)


def parse_hypergraph_reference(text: str) -> TupleHypergraph:
    """``parse_hypergraph`` line by line onto the tuple store, raising the
    same ``ParseError``."""
    index: dict[str, int] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if len(set(toks)) != len(toks):
            raise ParseError("repeated vertex inside an edge", lineno)
        ids = [index.setdefault(t, len(index)) for t in toks]
        if len(ids) >= 2:
            edges.append(ids)
    return TupleHypergraph(index, edges)


def distinct_rows_reference(rows, least: int) -> list[int]:
    """Positions of the rows with at least ``least`` members that equal
    no earlier row, through a dict of tuples."""
    first: dict[tuple[int, ...], int] = {}
    for r, row in enumerate(rows):
        if len(row) >= least:
            first.setdefault(tuple(row), r)
    return list(first.values())


def validate_bibd_reference(h: Hypergraph):
    """``validate_bibd`` on the edge tuples, with Counters of points and
    of point pairs, as ``(v, b, r, block size, lambda)``; raises the same
    ``ValueError`` or ``BibdError`` text."""
    v, b, edges = h.n, h.m, h.edges
    if v < 2 or b < 1:
        raise ValueError("a design needs at least two points and one block")
    sizes = {len(e) for e in edges}
    if len(sizes) != 1:
        raise BibdError(f"block sizes vary: {sorted(sizes)}", "non-uniform-block-size")
    ksize = sizes.pop()
    if ksize < 2 or ksize >= v:
        raise ValueError(f"block size {ksize} must lie in 2..{v - 1}")
    reps = Counter(u for e in edges for u in e)
    rvals = {reps.get(u, 0) for u in range(v)}
    if len(rvals) != 1:
        raise BibdError(f"replication varies: {sorted(rvals)}", "non-constant-replication")
    pairs = Counter(pair for e in edges for pair in combinations(e, 2))
    lams = set(pairs.values()) | ({0} if len(pairs) < v * (v - 1) // 2 else set())
    if len(lams) != 1:
        raise BibdError(f"pair coverage varies: {sorted(lams)}",
                        "non-constant-pair-coverage")
    return v, b, rvals.pop(), ksize, lams.pop()


def affine_design_reference(field, m: int):
    """``affine_design`` point by point on field elements: every line
    ``{a + t*b}`` for every point a and every direction b whose first
    nonzero coordinate is one, deduplicated through a set of point sets,
    then sorted; within the point cap."""
    q = field.order
    elems = field.elements()
    zero, one = field.zero, field.one
    points = list(product(elems, repeat=m))
    labels = [".".join(str(c.value) for c in pt) for pt in points]
    pid = {pt: i for i, pt in enumerate(points)}

    def canonical(b) -> bool:
        for c in b:
            if c != zero:
                return c == one
        return False

    seen: set[frozenset[int]] = set()
    blocks: list[tuple[int, ...]] = []
    for b in filter(canonical, points):
        for a in points:
            line = frozenset(pid[tuple(a[i] + t * b[i] for i in range(m))]
                             for t in elems)
            if line not in seen:
                seen.add(line)
                blocks.append(tuple(sorted(line)))
    blocks.sort()
    h = Hypergraph(labels, blocks, simple=True)
    return h, DesignParams(v=q ** m, b=len(blocks), r=(q ** m - 1) // (q - 1),
                           block_size=q, lambda_=1)


# ------------------------------------------------------ down-hypergraph

def down_hypergraph_reference(g: Digraph, closed: bool, simplify: bool):
    """``down_hypergraph`` from ``reach_closed`` by labels, as ``(vertex
    labels, edges as sorted id tuples)``: the maximal vertices in id order,
    each with its closed (or open) reachability set, empty sets dropped;
    ``simplify`` also drops singletons and repeats after the first."""
    reach = reach_closed(g)
    has_parent = {v for u, v in g.edge_labels()}
    tops = [w for w in g.labels if w not in has_parent]
    keep = [u for u in g.labels if closed or u in has_parent]
    pos = {u: i for i, u in enumerate(keep)}
    edges = []
    for w in tops:
        e = tuple(sorted(pos[v] for v in reach[w] if closed or v != w))
        if len(e) >= (2 if simplify else 1) and not (simplify and e in edges):
            edges.append(e)
    return tuple(keep), tuple(edges)


def greedy_down_coloring_reference(g: Digraph) -> tuple[dict[str, int], int]:
    """Greedy ``down_coloring`` the way it ran through a ``Hypergraph``:
    the heap peel of the simplified open down-hypergraph, set-based
    first-fit along its reversed order, then each maximal vertex (by
    label) takes the smallest color missing from its open down-set.
    Returns the colors in the library's key order and ``ind(H)``."""
    labels, edges = down_hypergraph_reference(g, closed=False, simplify=True)
    h = Hypergraph(labels, edges, simple=True)
    ind, order = peel_reference(h.n, h.edges)
    base = strong_first_fit_reference(h, order)
    colors = {labels[u]: base[u] for u in range(h.n)}
    reach = reach_closed(g)
    for w in sorted(set(g.labels) - set(labels)):
        used = {colors[v] for v in reach[w] if v != w}
        c = 1
        while c in used:
            c += 1
        colors[w] = c
    return colors, ind


def brute_ac_ok(m, g: Digraph) -> bool:
    """All three clauses of a valid compact table, each checked directly:
    every vertex sits in one column, row u holds exactly D[u], and
    vertices sharing a column share no ancestor."""
    reach = reach_closed(g)
    if set(m.labels) != set(g.labels):
        return False
    columns: dict[str, set[int]] = {}
    for lab in m.labels:
        for j, cell in enumerate(m.rows[lab]):
            if cell is not None:
                columns.setdefault(cell, set()).add(j)
    if any(len(js) > 1 for js in columns.values()):
        return False
    for lab in m.labels:
        if {cell for cell in m.rows[lab] if cell is not None} != reach[lab]:
            return False
    for a, b in combinations(sorted(columns), 2):
        if columns[a] == columns[b] and any(a in r and b in r
                                            for r in reach.values()):
            return False
    return True


def ac_check_reference(m, g: Digraph) -> tuple[bool, int | None, str]:
    """``verify_ac_property`` as a per-cell scan, as ``(ok, clause,
    detail)``: the first cell that puts a vertex in a second column fails
    clause 1; row labels that differ from ``g``'s, or the first row (by
    label) whose cells are not exactly D[u], fail clause 2."""
    column: dict[str, int] = {}
    for lab in m.labels:
        for j, cell in enumerate(m.rows[lab]):
            if cell is None:
                continue
            if cell in column and column[cell] != j:
                return (False, 1, f"{cell} appears in columns "
                                  f"{column[cell] + 1} and {j + 1}")
            column.setdefault(cell, j)
    if set(m.labels) != set(g.labels):
        return (False, 2, "row labels differ from the digraph's vertices")
    reach = reach_closed(g)
    for lab in m.labels:
        got = {cell for cell in m.rows[lab] if cell is not None}
        if got != reach[lab]:
            return (False, 2, f"row {lab}: extra {sorted(got - reach[lab])}, "
                              f"missing {sorted(reach[lab] - got)}")
    return (True, None, "")


def csv_reference(m) -> str:
    """The compact CSV written cell by cell: a header ``vertex,c1..ck``,
    then one row per label with empty fields for empty cells.  Each
    record is quoted as the csv module quotes records that end in CR LF,
    then ends in LF: so a CR in a label is quoted, as a LF is (quoted for
    LF-ended records, Python 3.11 leaves a CR bare, and the table does
    not read back)."""
    out: list[str] = []
    writer = csv.writer(SimpleNamespace(write=out.append), lineterminator="\r\n")
    writer.writerow(["vertex"] + [f"c{i}" for i in range(1, m.k + 1)])
    for lab in m.labels:
        writer.writerow([lab] + ["" if x is None else x for x in m.rows[lab]])
    return "".join(rec[:-2] + "\n" for rec in out)


def json_reference(m) -> str:
    """The compact JSON written from the rows by label: ``k`` and each
    row's cells, null for empty, indented, keys sorted."""
    doc = {"k": m.k, "rows": {lab: list(m.rows[lab]) for lab in m.labels}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compact_csv_reference(text: str) -> tuple[int, dict[str, tuple]]:
    """The compact CSV reader record by record, as ``(k, rows)`` with
    None for empty cells; raises the same ``ValueError`` texts, and a
    ``ParseError`` with its line for a record ``csv.reader`` rejects."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV document")
        if not header or header[0] != "vertex":
            raise ValueError("first CSV column must be 'vertex'")
        k = len(header) - 1
        if header[1:] != [f"c{i}" for i in range(1, k + 1)]:
            raise ValueError("CSV columns must be named c1..ck")
        rows: dict[str, tuple] = {}
        for rec in reader:
            if not rec:
                continue
            if len(rec) != k + 1:
                raise ValueError(f"row {rec[0]!r} has {len(rec) - 1} cells, expected {k}")
            if rec[0] in rows:
                raise ValueError(f"duplicate row {rec[0]!r}")
            rows[rec[0]] = tuple(x or None for x in rec[1:])
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None
    return k, rows


def greedy_clique_reference(n: int, adj: list[int]) -> list[int]:
    """The exact solver's clique seed as it ran on Python-int adjacency
    masks, one start at a time: from each start vertex, repeatedly add
    the candidate adjacent to most other candidates (the lowest id on a
    tie); keep the largest clique, the earliest start on a tie."""
    best: list[int] = []
    for s in range(n):
        clique = [s]
        cand = adj[s]
        while cand:
            pick, pick_score = -1, -1
            m = cand
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                score = (adj[v] & cand).bit_count()
                if score > pick_score:
                    pick, pick_score = v, score
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return best


def dsatur_reference(g, budget: int | None = None) -> tuple[int, int, bool, list[int]]:
    """The recursive DSATUR branch and bound that ``exact_chromatic`` used
    before its search became iterative, as ``(k, lower, exact, colors by
    id)``.  It is seeded as the solver is, with first-fit along the
    reversed smallest-last order (``peel_reference`` on the graph's edges)
    and ``greedy_clique_reference``, so the two must agree on every field,
    budget stops included.  Recursion depth is one level per vertex: keep
    ``g`` small."""
    n = g.n
    if g.is_complete():
        return n, n, True, list(range(1, n + 1))
    adj = [0] * n
    for a, b in g.edges():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    deg = [adj[v].bit_count() for v in range(n)]
    best = first_fit_reference(g, peel_reference(n, g.edges())[1])
    best_k = max(best)
    clique = greedy_clique_reference(n, adj)
    lb = len(clique)
    if lb >= best_k:
        return best_k, best_k, True, best

    colors = [0] * n
    sat = [0] * n
    state = {"nodes": 0, "aborted": False, "k": best_k, "best": best}

    def stamp(v: int, c: int) -> list[int]:
        colors[v] = c
        bit = 1 << (c - 1)
        touched = [w for w in range(n)
                   if adj[v] >> w & 1 and colors[w] == 0 and not sat[w] & bit]
        for w in touched:
            sat[w] |= bit
        return touched

    def unstamp(v: int, c: int, touched: list[int]) -> None:
        for w in touched:
            sat[w] &= ~(1 << (c - 1))
        colors[v] = 0

    for i, v in enumerate(clique):
        stamp(v, i + 1)

    def dfs(done: int, k_cur: int) -> None:
        if state["aborted"] or k_cur >= state["k"]:
            return
        if done == n:
            state["k"], state["best"] = k_cur, colors[:]
            return
        state["nodes"] += 1
        if budget is not None and state["nodes"] > budget:
            state["aborted"] = True
            return
        pick = max((v for v in range(n) if colors[v] == 0),
                   key=lambda v: (sat[v].bit_count(), deg[v], -v))
        top = min(k_cur + 1, state["k"] - 1)
        for c in range(1, top + 1):
            if sat[pick] >> (c - 1) & 1:
                continue
            touched = stamp(pick, c)
            dfs(done + 1, max(k_cur, c))
            unstamp(pick, c, touched)
            if state["aborted"]:
                return

    dfs(lb, lb)
    exact = not state["aborted"]
    return state["k"], state["k"] if exact else lb, exact, state["best"]

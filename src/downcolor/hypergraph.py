"""Hypergraphs, their digraph dictionary, and degeneracy peeling.

A hypergraph here is a labeled vertex set plus a list of hyperedges.
The list may be a proper multiset, and edges of cardinality below two
may be present; :meth:`Hypergraph.simplify` merges duplicates and drops
the trivial edges.  Degrees count the non-trivial edges containing a
vertex, with multiplicity.

The dictionary with digraphs: ``down_hypergraph`` collects the open (or
closed) down-sets of the maximal vertices, ``up_digraph`` goes back by
hanging a fresh top vertex over every hyperedge.  On simple hypergraphs
and on height-two digraphs with distinct tops these are inverse to each
other.  The down-hypergraph is built as a CSR pair (``_down_edges``),
which the coloring pipeline uses as is; ``down_hypergraph`` wraps it in
a ``Hypergraph``.

Clique and intersection graphs come from the one conflict builder,
``_kernels.clique_union_csr``, which takes the cliques as CSR rows and
returns the graph's own CSR; so do ``digraph.down_graph`` and the exact
solver.  Greedy coloring peels and colors the hypergraph itself and
builds no graph.  ``_peel`` is the one peeling routine.  It reads
hyperedges as a CSR pair (edge pointer, member ids), and a graph as its
``u < v`` pairs, a 2-uniform hypergraph.  Each removal is one numpy
step: an ``argmin`` pick whose first-minimum rule breaks ties on the
smallest id, edge survivors found by XOR, and a ``np.subtract.at``
decrement that counts a survivor once for each edge that dies onto it.
The pick scans all n degrees, so selection alone costs O(n) per
removal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .digraph import (Digraph, UndirectedGraph, _Labeled, _check_labels,
                      _max_rows, _tuples_csr)
from .errors import ParseError


class Hypergraph(_Labeled):
    """Immutable hypergraph; edges are stored sorted, in list order."""

    __slots__ = ("_labels", "_index", "_edges", "_sigma", "_simple")

    def __init__(self, labels: Iterable[str], edges: Iterable[Iterable[int]],
                 simple: bool | None = None):
        """``simple=None`` detects simplicity; ``simple=True`` asserts it."""
        self._labels = tuple(labels)
        self._index = _check_labels(self._labels)
        n = len(self._labels)
        normalized: list[tuple[int, ...]] = []
        for e in edges:
            members = tuple(sorted(e))
            for u in members:
                if not 0 <= u < n:
                    raise ValueError(f"edge member {u} out of range for {n} vertices")
            if len(set(members)) != len(members):
                raise ValueError(f"repeated vertex inside edge {members}")
            normalized.append(members)
        self._edges = tuple(normalized)
        self._sigma = max((len(e) for e in self._edges), default=0)
        is_simple = (len(set(self._edges)) == len(self._edges)
                     and all(len(e) >= 2 for e in self._edges))
        if simple is None:
            self._simple = is_simple
        elif simple and not is_simple:
            raise ValueError("hypergraph declared simple has duplicate or trivial edges")
        else:
            self._simple = bool(simple) and is_simple

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self._edges

    @property
    def sigma(self) -> int:
        """Largest edge cardinality (0 when there are no edges)."""
        return self._sigma

    @property
    def simple(self) -> bool:
        return self._simple

    def edge_label_sets(self) -> Iterator[frozenset[str]]:
        for e in self._edges:
            yield frozenset(self._labels[u] for u in e)

    def degree(self, u: int) -> int:
        """Number of non-trivial edges containing ``u``, with multiplicity."""
        if not 0 <= u < self.n:
            raise ValueError(f"vertex id {u} out of range")
        return sum(1 for e in self._edges if len(e) >= 2 and u in e)

    def simplify(self) -> "Hypergraph":
        """Merge duplicate edges and drop edges of cardinality < 2."""
        seen: set[tuple[int, ...]] = set()
        kept: list[tuple[int, ...]] = []
        for e in self._edges:
            if len(e) >= 2 and e not in seen:
                seen.add(e)
                kept.append(e)
        return Hypergraph(self._labels, kept, simple=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (set(self._labels) == set(other._labels)
                and Counter(self.edge_label_sets()) == Counter(other.edge_label_sets()))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, sigma={self._sigma})"


def degree(h: Hypergraph, u: int) -> int:
    return h.degree(u)


def sigma(h: Hypergraph) -> int:
    return h.sigma


# ------------------------------------------------------------------ text

def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the edge-per-line format: whitespace-separated member labels,
    single-token lines declaring isolated vertices, ``#`` comments."""
    index: dict[str, int] = {}
    edges: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(set(toks)) != len(toks):
            raise ParseError("repeated vertex inside an edge", lineno)
        ids = tuple(index.setdefault(t, len(index)) for t in toks)
        if len(ids) >= 2:
            edges.append(ids)
    return Hypergraph(tuple(index), edges)


def format_hypergraph(h: Hypergraph) -> str:
    """Serialize to the edge-per-line format, members and lines sorted;
    vertices in no edge appear on trailing single-token lines."""
    lines = sorted(" ".join(sorted(h.label_of(u) for u in e)) for e in h.edges)
    covered = {u for e in h.edges for u in e}
    lines += sorted(h.label_of(u) for u in range(h.n) if u not in covered)
    return "".join(line + "\n" for line in lines)


# ------------------------------------------------------------- dictionary

def _down_edges(g: Digraph, closed: bool = False, simplify: bool = True):
    """``down_hypergraph`` as arrays ``(keep, eptr, members)``: the ids of
    ``g`` it keeps as vertices, ascending, and its edges, in the same
    order, as CSR rows of positions in ``keep``.  The open variant keeps
    the vertices with a parent, which are all below some maximal one."""
    tops, eptr, members = _max_rows(g)
    if closed:
        keep = np.arange(g.n)
    else:
        members = members[members != np.repeat(tops, np.diff(eptr))]
        eptr = eptr - np.arange(eptr.size)  # each row loses its own top
        below = np.diff(g._rcsr[0]) > 0
        keep = np.flatnonzero(below)
        members = (np.cumsum(below, dtype=np.int32) - 1)[members]
    rows = np.flatnonzero(np.diff(eptr) >= 1 + simplify)
    if simplify:  # the first of each distinct row
        ptr, flat = eptr.tolist(), members.tolist()
        first: dict[tuple[int, ...], int] = {}
        for r in rows.tolist():
            first.setdefault(tuple(flat[ptr[r]:ptr[r + 1]]), r)
        rows = np.array(list(first.values()), dtype=np.int64)
    return (keep, *_kernels.gather_rows(eptr, members, rows))


def down_hypergraph(g: Digraph, closed: bool = False,
                    simplify: bool = True) -> Hypergraph:
    """Hypergraph of the down-sets of the maximal vertices of ``g``.

    Open variant: vertex set is everything below some maximal vertex's
    level (all non-maximal vertices), edges are the open down-sets.
    Closed variant: vertex set is all of ``g``, edges are the closed
    down-sets.  Empty down-sets are never kept; ``simplify`` additionally
    merges duplicates and drops singletons.
    """
    keep, eptr, members = _down_edges(g, closed, simplify)
    ptr, flat = eptr.tolist(), members.tolist()
    return Hypergraph(tuple(g.label_of(u) for u in keep.tolist()),
                      [flat[a:b] for a, b in zip(ptr, ptr[1:])],
                      simple=True if simplify else None)


def up_digraph(h: Hypergraph) -> Digraph:
    """Digraph with a fresh top vertex ``w<i>`` over the i-th hyperedge."""
    if not h.simple:
        raise ValueError("up_digraph requires a simple hypergraph")
    tops = tuple(f"w{i}" for i in range(h.m))
    clash = set(tops) & set(h.labels)
    if clash:
        raise ValueError(f"vertex labels collide with top labels: {sorted(clash)}")
    labels = h.labels + tops
    # row h.n + i lists edge i's members, sorted and distinct
    eptr, members = _tuples_csr(h.edges)
    return Digraph.__new__(Digraph)._fill(
        labels, {lab: i for i, lab in enumerate(labels)},
        (np.concatenate((np.zeros(h.n, dtype=np.int64), eptr)), members))


def clique_graph(h: Hypergraph) -> UndirectedGraph:
    """Graph joining every two vertices that share a hyperedge."""
    return UndirectedGraph._from_csr(
        h.labels, *_kernels.clique_union_csr(h.n, *_tuples_csr(h.edges)))


def _incidence(n: int, size: np.ndarray,
               members: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The edges through each vertex, ascending, as CSR (pointers as a
    list, edge ids), for edges of sizes ``size`` laid out in ``members``."""
    inc = np.repeat(np.arange(size.size), size)[np.argsort(members, kind="stable")]
    return [0] + np.cumsum(np.bincount(members, minlength=n)).tolist(), inc


def intersection_graph(h: Hypergraph) -> UndirectedGraph:
    """Graph on the hyperedges, joined when they share a vertex."""
    labels = tuple(f"e{i}" for i in range(h.m))
    eptr, members = _tuples_csr(h.edges)
    iptr, inc = _incidence(h.n, np.diff(eptr), members)
    return UndirectedGraph._from_csr(
        labels, *_kernels.clique_union_csr(h.m, np.array(iptr), inc))


def induced_subhypergraph(h: Hypergraph, s: Iterable[int]) -> Hypergraph:
    """Restriction to ``s``: edge intersections of cardinality >= 2,
    kept with multiplicity."""
    ids = sorted(set(s))
    for u in ids:
        if not 0 <= u < h.n:
            raise ValueError(f"vertex id {u} out of range")
    smask = set(ids)
    remap = {u: i for i, u in enumerate(ids)}
    labels = tuple(h.label_of(u) for u in ids)
    edges: list[tuple[int, ...]] = []
    for e in h.edges:
        cut = tuple(remap[x] for x in e if x in smask)
        if len(cut) >= 2:
            edges.append(cut)
    return Hypergraph(labels, edges, simple=False)


# ------------------------------------------------------------- degeneracy

@dataclass(frozen=True)
class DegeneracyResult:
    """Peeling outcome: the degeneracy and the removal order (vertex ids)."""

    value: int
    order: tuple[int, ...]


def _peel(n: int, eptr: np.ndarray, members: np.ndarray) -> DegeneracyResult:
    """Iterated min-degree peeling of ``n`` vertices under the hyperedges
    ``members[eptr[i]:eptr[i + 1]]``; ties break on the smallest vertex id.

    Removing a vertex shrinks every incident edge; an edge dies when a
    single member remains, at which point that member loses one degree.
    Edges of cardinality below two never count.  The returned value is
    the largest degree seen at a removal, which equals the maximum over
    induced subhypergraphs of their minimum degree.

    Each removal is one array step.  Removed vertices hold a degree
    above any real one, and ``argmin`` returns the first minimum, so the
    pick is the alive vertex with the smallest ``deg * n + id``: the
    (degree, id) order a heap of such pairs would pop.  Every edge keeps
    its live size and the XOR of its alive members, so an edge that
    shrinks to one member names its survivor directly.  A step shrinks
    every edge of the removed vertex: a dead edge there has that vertex
    as its survivor, so it drops from one member to none and never
    counts again.  Two edges can die onto the same survivor in one step
    (duplicate edges, or edges that differ only in vertices already
    removed), so the decrement is ``np.subtract.at``, which counts
    repeated indices, not a fancy-index ``-=``, which would count each
    survivor once.
    """
    size = np.diff(eptr)
    live = size >= 2
    members = members[np.repeat(live, size)]
    size = size[live]
    xor = np.bitwise_xor.reduceat(members, np.cumsum(size) - size)
    deg = np.bincount(members, minlength=n)
    iptr, inc = _incidence(n, size, members)
    removed = np.iinfo(deg.dtype).max
    order: list[int] = []
    value = 0
    for _ in range(n):
        u = int(deg.argmin())
        d = int(deg[u])
        deg[u] = removed
        order.append(u)
        if d == 0:
            continue
        value = max(value, d)
        e = inc[iptr[u]:iptr[u + 1]]
        left = size[e] - 1
        size[e] = left
        xor[e] ^= u
        dying = e[left == 1]
        if dying.size:
            np.subtract.at(deg, xor[dying], 1)
    return DegeneracyResult(value, tuple(order))


def _graph_peel(n: int, indptr: np.ndarray, indices: np.ndarray) -> DegeneracyResult:
    """``_peel`` of a symmetric CSR graph, its ``u < v`` pairs read as a
    2-uniform hypergraph."""
    src, dst = _kernels.csr_edges(indptr, indices)
    return _peel(n, np.arange(0, 2 * src.size + 1, 2),
                 np.stack((src, dst), axis=1).ravel())


def degeneracy(h: Hypergraph) -> DegeneracyResult:
    """Peeling degeneracy; degrees count edges with multiplicity."""
    return _peel(h.n, *_tuples_csr(h.edges))


def graph_degeneracy(g: UndirectedGraph) -> DegeneracyResult:
    """Degeneracy of a graph via the same peeling, viewed 2-uniform."""
    return _graph_peel(g.n, *g._csr)

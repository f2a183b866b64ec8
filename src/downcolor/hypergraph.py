"""Hypergraphs, their digraph dictionary, and degeneracy peeling.

A hypergraph here is a labeled vertex set plus a list of hyperedges.
The list may be a proper multiset, and edges of cardinality below two
may be present; :meth:`Hypergraph.simplify` merges duplicates and drops
the trivial edges.  Degrees count the non-trivial edges containing a
vertex, with multiplicity.  The edges are held as one CSR pair, which
every function here reads; the tuples of ``Hypergraph.edges`` are built
only when asked for.  One row dedup, :func:`_distinct_rows`, serves the
simplicity check and ``simplify``, which the down-hypergraph runs.

The dictionary with digraphs: ``down_hypergraph`` collects the open (or
closed) down-sets of the maximal vertices, ``up_digraph`` goes back by
hanging a fresh top vertex over every hyperedge.  On simple hypergraphs
and on height-two digraphs with distinct tops these are inverse to each
other.  ``down_hypergraph`` fills its ``Hypergraph`` from the cached
down-set rows without a second check, and the coloring pipeline colors
that object.

Clique and intersection graphs come from the one conflict builder,
``_kernels.clique_union_csr``, which takes the cliques as CSR rows and
returns the graph's own CSR; so do ``digraph.down_graph`` and the exact
solver.  Greedy coloring peels and colors the hypergraph itself and
builds no graph.  ``_peel`` is the one peeling routine.  It reads
hyperedges as a CSR pair (edge pointer, member ids), and a graph as its
``u < v`` pairs, a 2-uniform hypergraph (``_kernels.csr_edges``), as
``graph_degeneracy`` and the exact solver's seed do.  It picks from a
bucket queue, one ``heapq`` of ids per degree, so a peel costs linear
steps in n, the memberships and the largest degree, plus one heap step
per degree decrement.  ``_peel_incidence`` also hands back the
live-edge incidence it walked, which the greedy strong coloring reuses
for first-fit.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .digraph import Digraph, UndirectedGraph, _Labeled, _check_labels, _max_rows
from .errors import ParseError


class Hypergraph(_Labeled):
    """Immutable hypergraph.  Its edges are one CSR pair (int64 edge
    pointers, int32 member ids, each edge sorted, in list order);
    ``edges`` lists them as tuples, built on first access."""

    __slots__ = ("_labels", "_index", "_csr", "_simple", "_edges")

    def __init__(self, labels: Iterable[str], edges: Iterable[Iterable[int]],
                 simple: bool | None = None):
        """``simple=None`` detects simplicity; ``simple=True`` asserts it."""
        labels = tuple(labels)
        index = _check_labels(labels)
        n = len(labels)
        normalized: list[tuple[int, ...]] = []
        for e in edges:
            members = tuple(sorted(e))
            for u in members:
                if not 0 <= u < n:
                    raise ValueError(f"edge member {u} out of range for {n} vertices")
            if len(set(members)) != len(members):
                raise ValueError(f"repeated vertex inside edge {members}")
            normalized.append(members)
        eptr = np.cumsum([0, *map(len, normalized)], dtype=np.int64)
        csr = eptr, np.fromiter(chain.from_iterable(normalized), np.int32, eptr[-1])
        if simple and _distinct_rows(*csr, 2).size != len(normalized):
            raise ValueError("hypergraph declared simple has duplicate or trivial edges")
        self._fill(labels, index, csr, None if simple is None else bool(simple))

    def _fill(self, labels: tuple[str, ...], index: dict[str, int],
              csr: tuple[np.ndarray, np.ndarray], simple: bool | None) -> Hypergraph:
        """Set every field from validated labels and edges given as CSR,
        with ``simple=None`` detected on first access; the library's
        builders fill a bare instance with it."""
        self._labels, self._index, self._csr, self._simple = labels, index, csr, simple
        self._edges: tuple[tuple[int, ...], ...] | None = None
        return self

    @property
    def m(self) -> int:
        return self._csr[0].size - 1

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        if self._edges is None:
            ptr, flat = (a.tolist() for a in self._csr)
            self._edges = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self._edges

    @property
    def sigma(self) -> int:
        """Largest edge cardinality (0 when there are no edges)."""
        return int(np.diff(self._csr[0]).max(initial=0))

    @property
    def simple(self) -> bool:
        if self._simple is None:
            self._simple = _distinct_rows(*self._csr, 2).size == self.m
        return self._simple

    def edge_label_sets(self) -> Iterator[frozenset[str]]:
        for e in self.edges:
            yield frozenset(self._labels[u] for u in e)

    def degree(self, u: int) -> int:
        """Number of non-trivial edges containing ``u``, with multiplicity."""
        if not 0 <= u < self.n:
            raise ValueError(f"vertex id {u} out of range")
        size = np.diff(self._csr[0])
        return int(np.count_nonzero(self._csr[1][np.repeat(size >= 2, size)] == u))

    def simplify(self) -> "Hypergraph":
        """Merge duplicate edges and drop edges of cardinality < 2."""
        rows = _distinct_rows(*self._csr, 2)
        return Hypergraph.__new__(Hypergraph)._fill(
            self._labels, self._index, _kernels.gather_rows(*self._csr, rows), True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (set(self._labels) == set(other._labels)
                and Counter(self.edge_label_sets()) == Counter(other.edge_label_sets()))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, sigma={self.sigma})"


def _distinct_rows(eptr: np.ndarray, members: np.ndarray, least: int) -> np.ndarray:
    """The CSR rows, ascending, with at least ``least`` members that equal
    no earlier row; rows are compared by the bytes of their members."""
    ptr, data, w = eptr.tolist(), members.tobytes(), members.itemsize
    first: dict[bytes, int] = {}
    for r in np.flatnonzero(np.diff(eptr) >= least).tolist():
        first.setdefault(data[w * ptr[r]:w * ptr[r + 1]], r)
    return np.array(list(first.values()), dtype=np.int64)


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
        toks = raw.split("#", 1)[0].split()
        if len(set(toks)) != len(toks):
            raise ParseError("repeated vertex inside an edge", lineno)
        ids = tuple(index.setdefault(t, len(index)) for t in toks)
        if len(ids) >= 2:
            edges.append(ids)
    return Hypergraph(tuple(index), edges)


def format_hypergraph(h: Hypergraph) -> str:
    """Serialize to the edge-per-line format, members and lines sorted;
    vertices in no edge appear on trailing single-token lines."""
    eptr, members = h._csr
    names, ptr = [h.label_of(u) for u in members.tolist()], eptr.tolist()
    lines = sorted(" ".join(sorted(names[a:b])) for a, b in zip(ptr, ptr[1:]))
    bare = np.flatnonzero(np.bincount(members, minlength=h.n) == 0)
    lines += sorted(h.label_of(u) for u in bare.tolist())
    return "".join(line + "\n" for line in lines)


# ------------------------------------------------------------- dictionary

def down_hypergraph(g: Digraph, closed: bool = False,
                    simplify: bool = True) -> Hypergraph:
    """Hypergraph of the down-sets of the maximal vertices of ``g``.

    Open variant: vertex set is everything below some maximal vertex's
    level (all non-maximal vertices), edges are the open down-sets.
    Closed variant: vertex set is all of ``g``, edges are the closed
    down-sets.  Empty down-sets are never kept; ``simplify`` additionally
    merges duplicates and drops singletons.  Edges follow the maximal
    vertices in id order, and the vertices keep ``g``'s id order.
    """
    tops, eptr, members = _max_rows(g)  # acyclicity gate
    if closed:
        labels, index = g._labels, g._index
    else:
        members = members[members != np.repeat(tops, np.diff(eptr))]
        eptr = eptr - np.arange(eptr.size)  # each row loses its own top
        below = np.diff(g._rcsr[0]) > 0  # the vertices with a parent
        labels = tuple(g.label_of(u) for u in np.flatnonzero(below).tolist())
        index = {lab: i for i, lab in enumerate(labels)}
        members = (np.cumsum(below, dtype=np.int32) - 1)[members]
    h = Hypergraph.__new__(Hypergraph)._fill(labels, index, _kernels.gather_rows(
        eptr, members, np.flatnonzero(np.diff(eptr) >= 1)), None)
    return h.simplify() if simplify else h


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
    eptr, members = h._csr
    return Digraph.__new__(Digraph)._fill(
        labels, {lab: i for i, lab in enumerate(labels)},
        (np.concatenate((np.zeros(h.n, dtype=np.int64), eptr)), members))


def clique_graph(h: Hypergraph) -> UndirectedGraph:
    """Graph joining every two vertices that share a hyperedge."""
    return UndirectedGraph._from_csr(
        h.labels, *_kernels.clique_union_csr(h.n, *h._csr))


def _incidence(n: int, size: np.ndarray,
               members: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The edges through each vertex, ascending, as CSR (pointers as a
    list, edge ids), for edges of sizes ``size`` laid out in ``members``."""
    # numpy's stable sort is a radix sort on 16-bit keys, several times
    # faster than its merge sort on wider ones
    keys = members.astype(np.uint16) if n <= 1 << 16 else members
    inc = np.repeat(np.arange(size.size), size)[np.argsort(keys, kind="stable")]
    return [0] + np.cumsum(np.bincount(members, minlength=n)).tolist(), inc


def intersection_graph(h: Hypergraph) -> UndirectedGraph:
    """Graph on the hyperedges, joined when they share a vertex."""
    labels = tuple(f"e{i}" for i in range(h.m))
    eptr, members = h._csr
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
    pos = np.full(h.n, -1, dtype=np.int32)  # new id, or -1 outside s
    pos[np.array(ids, dtype=np.int64)] = np.arange(len(ids), dtype=np.int32)
    cut = pos[h._csr[1]]
    row = np.repeat(np.arange(h.m), np.diff(h._csr[0]))[cut >= 0]
    size = np.bincount(row, minlength=h.m)  # members left in each edge
    labels = tuple(h.label_of(u) for u in ids)
    return Hypergraph.__new__(Hypergraph)._fill(
        labels, {lab: i for i, lab in enumerate(labels)},
        (np.concatenate(([0], np.cumsum(size[size >= 2]))),
         cut[cut >= 0][size[row] >= 2]), None)


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
    """
    return _peel_incidence(n, eptr, members)[0]


def _peel_incidence(n: int, eptr: np.ndarray, members: np.ndarray
                    ) -> tuple[DegeneracyResult, list[int], list[int]]:
    """``_peel``, with the incidence it walked: the live edges (those of
    cardinality at least two, renumbered in order) through each vertex,
    as CSR lists (pointers, edge ids).

    The pick is a bucket queue (Matula and Beck, J. ACM 1983): one list
    per degree holds the alive ids as a ``heapq`` heap, so a bucket pops
    its smallest id first.  Deletion is lazy: a vertex whose degree drops
    is pushed into its new bucket, and a popped id whose current degree
    differs from the bucket's is stale and skipped.  ``d`` is the lowest
    bucket that may hold an alive vertex; a removal can drop a survivor
    by more than one (duplicate edges, or edges that differ only in
    vertices already removed, die onto it together), so every decrement
    below ``d`` lowers it.  Every edge keeps its live size and the XOR of
    its alive members, so an edge that shrinks to one member names its
    survivor directly; a dead edge is skipped when that survivor goes.
    Selection costs O(n + max degree) over the whole peel, plus a heap
    step per decrement.
    """
    size = np.diff(eptr)
    live = size >= 2
    members = members[np.repeat(live, size)]
    size = size[live]
    xor = np.bitwise_xor.reduceat(members, np.cumsum(size) - size).tolist()
    iptr, inc = _incidence(n, size, members)
    inc = inc.tolist()
    size = size.tolist()
    deg = [b - a for a, b in zip(iptr, iptr[1:])]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for u, k in enumerate(deg):  # ascending ids: each bucket starts a heap
        buckets[k].append(u)
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    value = d = 0
    for _ in range(n):
        while True:
            bucket = buckets[d]
            if not bucket:
                d += 1
            elif deg[u := heappop(bucket)] == d:
                break
        deg[u] = -1
        order.append(u)
        if d == 0:
            continue
        if d > value:
            value = d
        for e in inc[iptr[u]:iptr[u + 1]]:
            s = size[e] - 1
            if s == 0:  # died earlier, onto u
                continue
            size[e] = s
            if s > 1:
                xor[e] ^= u
            else:  # dies now, onto its last member
                w = xor[e] ^ u
                k = deg[w] - 1
                deg[w] = k
                heappush(buckets[k], w)
                if k < d:
                    d = k
    return DegeneracyResult(value, tuple(order)), iptr, inc


def degeneracy(h: Hypergraph) -> DegeneracyResult:
    """Peeling degeneracy; degrees count edges with multiplicity."""
    return _peel(h.n, *h._csr)


def graph_degeneracy(g: UndirectedGraph) -> DegeneracyResult:
    """Degeneracy of a graph via the same peeling, its ``u < v`` pairs
    read as a 2-uniform hypergraph."""
    return _peel(g.n, *_kernels.csr_edges(*g._csr))

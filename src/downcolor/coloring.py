"""Strong colorings of hypergraphs and down-colorings of digraphs.

A strong coloring gives distinct colors to the vertices inside every
hyperedge, i.e. properly colors the clique graph.  A down-coloring of an
acyclic digraph gives distinct colors to any two vertices that share a
closed down-set.  The two meet through the down-hypergraph: color it
strongly, then hand each maximal vertex the smallest color missing from
its open down-set.  That pipeline runs on vertex ids: it colors the
down-hypergraph's CSR pair, never its labels, and fills the maximal
vertices' colors into the same array.  A ``Coloring`` keeps the labels
and that one color array aligned with them; its mapping by label is
built only when read, and the table build and the checks read the
array itself when the coloring's labels are the digraph's.

The greedy strong coloring never builds the clique graph.  It peels the
hypergraph itself smallest-last, through the bucket queue of
``hypergraph._peel``, and runs first-fit along the reversed order over
the incidence that peel built, one Python-int mask of used colors per
hyperedge; this is the constructive side of the bound
ind(H)*(D - 2) + 1 on down-colorings.

The exact solver is a DSATUR-style branch and bound over the clique
graph, taken as CSR and scattered once into a dense bool matrix.  It is
seeded with the greedy strong coloring of the graph's ``u < v`` pairs,
the one first-fit, and a greedy clique grown from every start at once,
one float32 matrix product per step.  The search is
iterative, with an explicit stack, so its depth is not bound by Python's
recursion limit.  Vertices are renumbered by degree (descending, then
id) and the uncolored ones are kept as Python-int bitmasks, one per
saturation level and one per color they already see: the next vertex is
the lowest bit of the highest non-empty level, and coloring a vertex
lifts all its affected neighbors with a few mask operations.  A vertex
taken from level s sees s of the colors in use, so once it has tried
the others it jumps straight to a new color.  It refuses graphs above a
vertex cap (default 30) and can be given a node budget; a
budget-exhausted search reports its bracketing bounds instead of failing,
and an exact down-coloring counts D among them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import _kernels
from .digraph import Digraph, UndirectedGraph, _max_rows, big_d
from .errors import CapExceededError, ColoringError
from .hypergraph import Hypergraph, _down_csr, _peel

DEFAULT_EXACT_CAP = 30


class Coloring:
    """Total color assignment by vertex label, colors 1..k, all used.

    It is held as ``_labels`` and one int64 array ``_color`` aligned with
    them.  ``colors``, the read-only mapping by label, is built on first
    read, in label order; a down-coloring lists the vertices with a
    parent in id order and then, by label, its maximal ones, ``_last``.
    A down-coloring also keeps its digraph's ids in label order,
    ``_order``, which the JSON writer reads in place of a sort.
    """

    def __init__(self, colors: Mapping[str, int], k: int, method: str):
        colors = dict(colors)
        if not colors:
            if k != 0:
                raise ValueError(f"empty coloring must have k = 0, got {k}")
        elif k < 1:
            raise ValueError("k must be >= 1 for a nonempty coloring")
        used = set()
        for lab, c in colors.items():
            if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= k:
                raise ValueError(f"color of {lab!r} must lie in 1..{k}, got {c!r}")
            used.add(c)
        if len(used) < k:  # every used color lies in 1..k
            if k > len(colors):  # build no range of a huge k
                raise ValueError(f"k = {k} is above the vertex count "
                                 f"{len(colors)}, so some color is never used")
            missing = sorted(set(range(1, k + 1)) - used)
            raise ValueError(f"colors {missing} are declared but never used")
        color = np.fromiter(colors.values(), np.int64, len(colors))
        color.flags.writeable = False
        self.__dict__.update(_labels=tuple(colors), _color=color, _last=None,
                             _order=None, k=k, method=method,
                             colors=MappingProxyType(colors))

    def __setattr__(self, name, value):
        raise AttributeError("a Coloring is read-only")

    @classmethod
    def _of(cls, labels: tuple[str, ...], color: np.ndarray, k: int,
            method: str, last: np.ndarray | None = None,
            order: np.ndarray | None = None) -> Coloring:
        """A coloring from its int64 colors by id, taken as valid and not
        copied; ``last`` lists the maximal ids of a down-coloring and
        ``order`` its ids sorted by label."""
        color.flags.writeable = False
        c = cls.__new__(cls)
        c.__dict__.update(_labels=labels, _color=color, _last=last,
                          _order=order, k=k, method=method)
        return c

    @cached_property
    def colors(self) -> Mapping[str, int]:
        labels, color, last = self._labels, self._color.tolist(), self._last
        order = range(len(labels))
        if last is not None:
            head = np.ones(len(labels), dtype=bool)
            head[last] = False
            order = chain(np.flatnonzero(head).tolist(),
                          sorted(last.tolist(), key=labels.__getitem__))
        return MappingProxyType({labels[u]: color[u] for u in order})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return (self.k, self.method, self.colors) == (other.k, other.method,
                                                      other.colors)

    def __repr__(self) -> str:
        return (f"Coloring(colors={dict(self.colors)!r}, k={self.k!r}, "
                f"method={self.method!r})")

    def __reduce__(self):
        return Coloring._of, (self._labels, self._color, self.k, self.method,
                              self._last, self._order)


class ExactResult(NamedTuple):
    """Outcome of an exact search; ``exact`` is False on budget exhaustion,
    in which case ``k`` and ``lower`` bracket the true optimum."""

    k: int
    coloring: Coloring
    lower: int
    exact: bool


# ------------------------------------------------------------------ JSON

def coloring_to_json(c: Coloring) -> str:
    """The coloring as ``json.dumps(doc, indent=2, sort_keys=True)`` would
    write it, plus a newline; the colors are written from the arrays by
    label order, one line each, and only ``k`` and ``method`` go through
    the encoder.  That order is the coloring's own when it keeps one,
    else a sort of the labels."""
    labels, color = c._labels, c._color.tolist()
    order = (c._order.tolist() if c._order is not None
             else sorted(range(len(labels)), key=labels.__getitem__))
    key = json.encoder.encode_basestring_ascii
    cells = ",\n".join([f"    {key(labels[u])}: {color[u]}" for u in order])
    colors = f"{{\n{cells}\n  }}" if cells else "{}"
    rest = json.dumps({"k": c.k, "method": c.method}, indent=2, sort_keys=True)
    return f'{{\n  "colors": {colors},{rest[1:]}\n'


def _load_json(text: str):
    """``json.loads``, refusing too deep a nesting as a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def coloring_from_json(text: str) -> Coloring:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValueError("coloring document must be a JSON object")
    try:
        k, method, colors = doc["k"], doc["method"], doc["colors"]
    except KeyError as exc:
        raise ValueError(f"coloring document missing key {exc}") from None
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("'k' must be a natural number")
    if not isinstance(method, str):
        raise ValueError("'method' must be a string")
    if not isinstance(colors, dict):
        raise ValueError("'colors' must be an object")
    return Coloring(colors, k, method)


# ------------------------------------------------------- greedy coloring

def _greedy_strong(n: int, eptr: np.ndarray, members: np.ndarray) -> list[int]:
    """Colors by id of first-fit along the reversed peeling order of the
    hyperedges ``members[eptr[i]:eptr[i + 1]]``.  Each edge keeps a mask
    of its colors; a vertex takes the lowest color missing from the OR of
    its edges' masks.  The masks follow the peel's own incidence, which
    leaves out edges below two members: such an edge constrains nobody
    else."""
    peel, iptr, inc = _peel(n, eptr, members)
    used = [0] * (eptr.size - 1)
    colors = [0] * n
    for v in reversed(peel.order):
        es = inc[iptr[v]:iptr[v + 1]]
        f = 0
        for e in es:
            f |= used[e]
        bit = ~f & (f + 1)
        for e in es:
            used[e] |= bit
        colors[v] = bit.bit_length()
    return colors


def greedy_strong_coloring(h: Hypergraph) -> Coloring:
    """First-fit along the reversed peeling order of ``h`` itself, so
    k <= ind(H)*(sigma - 1) + 1: a vertex's colored co-members lie in the
    at most ind(H) edges alive when the peel removed it."""
    colors = np.array(_greedy_strong(h.n, *h._csr), dtype=np.int64)
    return Coloring._of(h.labels, colors, int(colors.max(initial=0)), "greedy")


# -------------------------------------------------------- exact coloring

def _dense(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The n-by-n bool adjacency matrix of a CSR graph."""
    n = indptr.size - 1
    a = np.zeros((n, n), dtype=bool)
    a[np.repeat(np.arange(n), np.diff(indptr)), indices] = True
    return a


def _greedy_clique(a: np.ndarray) -> list[int]:
    """Grow a clique greedily from every start vertex at once and keep the
    largest, the lowest start on a tie.  Each step adds to every growing
    clique the candidate adjacent to most other candidates, the lowest id
    on a tie; one float32 product counts them all, exactly."""
    n = a.shape[0]
    af = a.astype(np.float32)
    cand = a.copy()  # row s: the vertices adjacent to all of s's clique
    live = np.arange(n)
    picks = []  # picks[t][s]: the clique from s gains it at step t, or -1
    while True:
        live = live[cand[live].any(axis=1)]
        if not live.size:
            break
        rows = cand[live]
        score = rows.astype(np.float32) @ af
        score[~rows] = -1
        pick = np.full(n, -1)
        pick[live] = score.argmax(axis=1)
        cand[live] &= a[pick[live]]
        picks.append(pick)
    steps = np.array(picks, dtype=np.int64).reshape(-1, n)
    size = (steps >= 0).sum(axis=0)
    s = int(size.argmax())
    return [s, *steps[:size[s], s].tolist()]


def _dsatur(a: np.ndarray, clique: list[int], best_k: int,
            budget: int | None) -> tuple[list[int] | None, bool]:
    """DSATUR branch and bound for a coloring with fewer than ``best_k``
    colors, with ``clique`` precolored 1, 2, ...

    Returns the best coloring found by id (None if none beats ``best_k``)
    and whether the search ran to completion within ``budget`` nodes.
    """
    n = a.shape[0]
    # rank space: by degree descending, then id, so the lowest set bit of
    # any mask is DSATUR's tie-break winner
    order = np.argsort(-a.sum(axis=1), kind="stable")
    rank = np.argsort(order).tolist()
    rows = np.packbits(a[np.ix_(order, order)], axis=1, bitorder="little")
    w, packed = rows.shape[1], rows.tobytes()
    radj = [int.from_bytes(packed[i:i + w], "little")
            for i in range(0, n * w, w)]

    # col[c]: uncolored vertices that see color c.  sat[b]: bit b of every
    # vertex's saturation, the count of colors it sees (at the root, its
    # clique neighbors); below best_k, it fits best_k.bit_length() planes.
    # Stamps touch only uncolored vertices and uncol masks each pick, so
    # a colored vertex's bits are never read or changed.
    colors = [0] * n
    uncol = (1 << n) - 1
    for i, v in enumerate(clique):
        colors[rank[v]] = i + 1
        uncol ^= 1 << rank[v]
    col = [0] * best_k
    col[1:len(clique) + 1] = [radj[rank[v]] & uncol for v in clique]
    seen = a[np.ix_(order, clique)].sum(axis=1)
    sat = [int.from_bytes(np.packbits(seen >> b & 1, bitorder="little").tobytes(),
                          "little") for b in range(best_k.bit_length())]
    top = range(len(sat) - 1, -1, -1)

    best = None
    nodes = 0
    exact = True
    k_cur = len(clique)
    # one frame per open node: pick bit and rank, the node's color count,
    # the child's color (0 before the first), how many colors up to that
    # count are still free for the pick, the child's touched mask, and the
    # node's planes, which undoing a child restores
    stack: list[list] = []
    while True:
        # enter the node the last stamp made (the root first)
        if not uncol:
            best_k, best = k_cur, colors[:]
        else:
            nodes += 1
            if budget is not None and nodes > budget:
                exact = False
                break
            # narrow uncol plane by plane from the top to the vertices of
            # the highest saturation s; the lowest rank among them wins
            m, s = uncol, 0
            for b in top:
                x = m & sat[b]
                if x:
                    m = x
                    s |= 1 << b
            bit = m & -m
            uncol ^= bit
            # the pick sees s of the colors 1..k_cur
            stack.append([bit, bit.bit_length() - 1, k_cur, 0, k_cur - s, 0,
                          tuple(sat)])
        # undo the deepest open node's last child and stamp its next one
        while stack:
            frame = stack[-1]
            bit, r, k0, c, free, touched, planes = frame
            if touched:
                col[c] ^= touched
                sat[:] = planes
            # colors above k0 + 1 only permute the new one, and a child
            # with best_k colors or more cannot improve on the incumbent
            if free and k0 < best_k:
                c += 1
                while col[c] & bit:
                    c += 1
                free -= 1
            elif c <= k0 < best_k - 1:
                c = k0 + 1
            else:
                stack.pop()
                uncol |= bit
                continue
            k_cur = k0 if k0 > c else c
            # add one to the touched vertices' saturation by ripple carry
            carry = touched = radj[r] & uncol & ~col[c]
            col[c] |= touched
            b = 0
            while carry:
                p = sat[b]
                sat[b] = p ^ carry
                carry &= p
                b += 1
            colors[r] = c
            frame[3] = c
            frame[4] = free
            frame[5] = touched
            break
        else:
            break
    return (None if best is None else [best[rank[v]] for v in range(n)]), exact


def _check_limits(n: int, cap: int | None, budget: int | None,
                  complete: bool) -> None:
    """Refuse a negative budget or cap, then more than ``cap`` vertices
    unless the graph may be complete, which needs no search."""
    for name, value in (("budget", budget), ("cap", cap)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0")
    limit = DEFAULT_EXACT_CAP if cap is None else cap
    if n > limit and not complete:
        raise CapExceededError(
            f"exact solver cap exceeded: {n} vertices > cap {limit}")


def _exact(n: int, indptr: np.ndarray, indices: np.ndarray, cap: int | None,
           budget: int | None) -> tuple[np.ndarray, int, bool]:
    """The best colors by id that DSATUR finds for the graph on ``n``
    vertices given by a sorted, symmetric, loop-free CSR adjacency, as
    ``clique_union_csr`` returns, its lower bound, and whether the search
    completed."""
    complete = indices.size == n * (n - 1)
    _check_limits(n, cap, budget, complete)
    if complete:
        return np.arange(1, n + 1, dtype=np.int64), n, True

    a = _dense(indptr, indices)
    best = _greedy_strong(n, *_kernels.csr_edges(indptr, indices))
    clique = _greedy_clique(a)
    exact = True
    if len(clique) < max(best):
        found, exact = _dsatur(a, clique, max(best), budget)
        if found is not None:
            best = found
    return np.array(best, dtype=np.int64), max(best) if exact else len(clique), exact


def _strong_exact(n: int, eptr: np.ndarray, members: np.ndarray,
                  cap: int | None, budget: int | None) -> tuple[np.ndarray, int, bool]:
    """``_exact`` on the clique graph of the hyperedges ``members[eptr[i]:
    eptr[i + 1]]``.  Edges holding fewer than C(n, 2) pairs cannot make
    that graph complete, so above the cap it is refused before it is
    built."""
    size = np.diff(eptr)
    _check_limits(n, cap, budget, int((size * (size - 1)).sum()) >= n * (n - 1))
    return _exact(n, *_kernels.clique_union_csr(n, eptr, members), cap, budget)


def _result(labels: tuple[str, ...], found: tuple[np.ndarray, int, bool]) -> ExactResult:
    colors, lower, exact = found
    k = int(colors.max(initial=0))
    return ExactResult(k, Coloring._of(labels, colors, k, "exact" if exact else "greedy"),
                       lower, exact)


def exact_chromatic(g: UndirectedGraph, cap: int | None = None,
                    budget: int | None = None) -> ExactResult:
    """Exact chromatic number by DSATUR branch and bound.

    Complete graphs are answered without search regardless of size;
    otherwise the vertex count must not exceed ``cap`` (default 30).
    """
    return _result(g.labels, _exact(g.n, *g._csr, cap, budget))


def exact_strong_chromatic(h: Hypergraph, cap: int | None = None,
                           budget: int | None = None) -> ExactResult:
    """Exact strong chromatic number: exact coloring of the clique graph."""
    return _result(h.labels, _strong_exact(h.n, *h._csr, cap, budget))


# --------------------------------------------------------- down-coloring

def _extend_to_maximal(g: Digraph, base: list[int] | np.ndarray,
                       method: str) -> Coloring:
    """``base`` on the vertices with a parent, in id order, and on each
    maximal vertex the smallest color missing from its open down-set, all
    it conflicts with: no two maximal vertices share a down-set."""
    color = np.zeros(g.n, dtype=np.int64)
    color[np.diff(g._rcsr[0]) > 0] = base
    tops, ptr, ids = _max_rows(g)
    # seen[i, c]: the down-set of top i holds color c; its own entry is 0,
    # and a column past the largest color is never set
    width = int(color.max(initial=0)) + 2
    seen = np.zeros(tops.size * width, dtype=bool)
    seen[_cells(np.arange(tops.size), ptr, color[ids], width)] = True
    color[tops] = seen.reshape(tops.size, width).argmin(axis=1)
    return Coloring._of(g.labels, color, int(color.max(initial=0)), method, tops,
                        g._label_order())


def down_coloring(g: Digraph, mode: str = "greedy", *, cap: int | None = None,
                  budget: int | None = None) -> Coloring:
    """Color ``g`` so that each closed down-set is rainbow.

    Strong-colors the open down-hypergraph, then extends to the maximal
    vertices.  In exact mode the result size is the down-chromatic
    number.  A budget-exhausted exact run whose coloring
    still sits above max(clique bound, D) raises :class:`CapExceededError`
    carrying that coloring; one that reached the bound is proved optimal.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    h = _down_csr(g)  # acyclicity gate
    if mode == "greedy":
        return _extend_to_maximal(g, _greedy_strong(*h), mode)
    colors, lower, exact = _strong_exact(*h, cap, budget)
    c = _extend_to_maximal(g, colors, mode)
    # a closed down-set of D vertices is rainbow, so D bounds from below too
    lower = max(lower, big_d(g))
    if not exact and c.k > lower:
        raise CapExceededError(
            f"exact search budget exhausted between {lower} and {c.k} colors",
            partial=Coloring._of(g.labels, c._color, c.k, "greedy", c._last,
                                 c._order),
            lower=lower, upper=c.k)
    return c


def _columns(g: Digraph, c: Coloring) -> np.ndarray:
    """Each vertex's 0-based color by id: the coloring's own array when
    it holds ``g``'s labels in ``g``'s order, else one lookup per label.
    Refuses a coloring of other vertices, naming the first five sorted
    labels that it misses, else those ``g`` lacks.  It runs before the
    acyclicity gate."""
    if c._labels == g.labels:  # the same tuple, or an equal one
        return c._color - 1
    try:
        col = np.fromiter(map(c.colors.__getitem__, g.labels), np.int64, g.n)
    except KeyError:
        col = None
    if col is None or len(c._labels) != g.n:  # g's labels are distinct
        have, want = set(c.colors), set(g.labels)
        if want - have:
            raise ColoringError(
                f"coloring misses vertices: {sorted(want - have)[:5]}")
        raise ColoringError(
            f"coloring names unknown vertices: {sorted(have - want)[:5]}")
    return col - 1


def _cells(rows: np.ndarray, indptr: np.ndarray, cols: np.ndarray,
           width: int) -> np.ndarray:
    """The flat cell ``rows[i] * width + cols[j]`` of each entry j of CSR
    row i in a table ``width`` cells wide, in ``rows``' dtype."""
    cell = np.repeat(rows * width, np.diff(indptr))
    cell += cols
    return cell


def find_down_violation(g: Digraph, c: Coloring) -> tuple[str, str, str] | None:
    """Smallest same-colored id pair inside a closed down-set, with the
    smallest-id maximal witness whose down-set holds both, or None when
    every maximal vertex's down-set is rainbow (a valid down-coloring).

    Each maximal row's colors are marked in one flat bool table, a row
    to a vertex; rows never share a cell, so fewer marks than entries
    means a clash.  Only then are the rows found short sorted."""
    color = _columns(g, c)
    tops, eptr, ids = _max_rows(g)  # acyclicity gate
    seen = np.zeros(tops.size * c.k, dtype=bool)
    seen[_cells(np.arange(tops.size), eptr, color[ids], c.k)] = True
    if np.count_nonzero(seen) == ids.size:
        return None
    short = np.flatnonzero(np.count_nonzero(seen.reshape(tops.size, c.k), axis=1)
                           != np.diff(eptr))
    eptr, ids = _kernels.gather_rows(eptr, ids, short)
    row = np.repeat(tops[short], np.diff(eptr))  # the vertex id
    color = color[ids]
    order = np.lexsort((ids, color, row))
    row, color, ids = row[order], color[order], ids[order]
    # within a (row, color) run, consecutive ids include the run's
    # smallest pair, so the smallest clash is among consecutive ones
    clash = np.nonzero((row[1:] == row[:-1]) & (color[1:] == color[:-1]))[0]
    # stable: among equal pairs the first clash sits in the smallest row
    i = clash[np.lexsort((ids[clash + 1], ids[clash]))[0]]
    return tuple(g.label_of(int(x)) for x in (ids[i], ids[i + 1], row[i]))


def verify_down_coloring(g: Digraph, c: Coloring) -> bool:
    """True iff no two vertices of any closed down-set share a color."""
    return find_down_violation(g, c) is None


# ----------------------------------------------------------------- bounds

@dataclass(frozen=True)
class BoundReport:
    """Degeneracy-based bracket on the down-chromatic number.

    ``sigma_h`` is the largest open down-set of a maximal vertex, which
    is ``big_d - 1``.  ``ind_h`` is the degeneracy of the simplified
    down-hypergraph.  With ``ind_h <= 1`` the down-chromatic number is
    exactly ``big_d``; otherwise it is at most ``ind_h*(big_d - 2) + 1``
    and at least ``big_d``.
    """

    big_d: int
    sigma_h: int
    ind_h: int
    cor1_bound: int
    lower_bound: int


def bound_report(g: Digraph) -> BoundReport:
    if g.edge_count == 0:
        raise ValueError("bound_report requires at least one edge")
    d = big_d(g)
    ind = _peel(*_down_csr(g))[0].value
    cor1 = d if ind <= 1 else ind * (d - 2) + 1
    return BoundReport(big_d=d, sigma_h=d - 1, ind_h=ind,
                       cor1_bound=cor1, lower_bound=d)

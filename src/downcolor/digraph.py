"""Labeled digraphs, reachability order, and derived conflict graphs.

An edge ``(u, v)`` points from ancestor to descendant: ``v`` is below
``u``.  The closed down-set ``D[u]`` collects ``u`` and everything
reachable from it; the open down-set ``D(u)`` drops ``u`` itself.
Vertices carry string labels and dense integer ids (0..n-1, in label
registration order); the library works on ids internally and uses labels
at every textual boundary.

A ``Digraph`` holds its edges as children and parents CSR arrays (the
parents as the transpose of the children), an ``UndirectedGraph`` as one
symmetric CSR, and either lists its edges on demand.  They are validated
once, as arrays: range, self-loops, and repeats found as equal
neighbours among the sorted ``u*n + v`` keys.  ``parse_digraph`` has
one reader, on arrays: per 1 MiB slice, non-ASCII separators and
comments are blanked and one numpy scan finds the tokens and their
lines; one exact sort of the tokens' bytes (the word kernels of
``_kernels``, shared with the CSV reader) gives ids, and the first
error in line order is named from the same arrays, which the digraph
takes without a second check, with its labels' order from the same sort
(:meth:`Digraph._label_order`).  The text writers refuse a label holding
``#``, which they could not read back.  Each acyclic ``Digraph`` caches
its closed down-sets once, as sorted CSR rows
(:meth:`Digraph._down_sets`); every stage of the pipeline reads those
rows.  They are built from the vertices' heights, peeled level by
level from the sinks up
(:meth:`Digraph._levels`), and merged as CSR rows a level at a time;
only a dense DAG, whose rows would outgrow its bitset matrix, finishes
on bitsets, and a closure too large for both raises ``ValueError``.
The peel is also the pipeline's acyclicity check: the topological
order, a Python tuple, is built only on demand, or to name the cycle of
a cyclic input.  Two graphs compare equal by their sorted ``u*n + v``
keys under the label bijection.

One sweep serves both kinds of component (:func:`_sweep`): connected
components sweep the symmetric CSR from every vertex in id order, and
strong components (Kosaraju) sweep the parents CSR in reverse
depth-first finishing order (:func:`_finish_order`).  Derived digraphs
(condensation, transitive closure, height-two reduction) are filled
from deduplicated ``u*n + v`` keys (:func:`_filled`), never through the
validating constructor.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import CyclicGraphError, ParseError


def _check_labels(labels: tuple[str, ...]) -> dict[str, int]:
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if not isinstance(lab, str) or lab.split() != [lab]:
            raise ValueError(
                f"bad vertex label {lab!r}: labels are non-empty strings "
                "without whitespace")
        if lab in index:
            raise ValueError(f"duplicate vertex label {lab!r}")
        index[lab] = i
    return index


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray):
    """CSR of the edges ``src[i] -> dst[i]``, rows ascending, from sorted
    ``u*n + v`` keys; None when an edge is out of range, a self-loop, or
    a repeat (two equal neighbouring keys)."""
    if src.size and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= n or np.any(src == dst)):
        return None
    keys = np.sort(src.astype(np.int64) * n + dst)
    if np.any(keys[1:] == keys[:-1]):
        return None
    return _kernels.keys_csr(n, keys)


def _labeled_pairs(labels: Iterable[str], edges: Iterable[tuple[int, int]]):
    """Checked labels, their index, and the edges' two ends as arrays."""
    labels = tuple(labels)
    index = _check_labels(labels)
    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    return labels, index, pairs[0::2], pairs[1::2]


def _refusal(labels: tuple[str, ...], a: np.ndarray, b: np.ndarray,
             lo: np.ndarray, hi: np.ndarray, arrow: str) -> ValueError:
    """The error naming the first edge ``a[i], b[i]`` that ``_adjacency``
    refused, found by its key ``lo[i], hi[i]``, a repeat with ``arrow``."""
    n = len(labels)
    i, kind = _first_bad_edge(n, lo, hi)
    if kind == "range":
        return ValueError(f"edge ({a[i]}, {b[i]}) out of range for {n} vertices")
    if kind == "self-loop":
        return ValueError(f"self-loop at {labels[a[i]]!r}")
    return ValueError(f"duplicate edge {labels[lo[i]]!r} {arrow} {labels[hi[i]]!r}")


def _first_bad_edge(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, str]:
    """Index and kind of the first edge, in input order, that
    ``_adjacency`` rejects; out of range comes before self-loop, and both
    before a repeat of an earlier edge."""
    out = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    keys = np.where(out, -1 - np.arange(src.size), src.astype(np.int64) * n + dst)
    repeat = np.ones(src.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    i = int(np.flatnonzero(out | (src == dst) | repeat)[0])
    return i, "range" if out[i] else "self-loop" if src[i] == dst[i] else "duplicate"


class _Labeled:
    """String labels with dense ids 0..n-1 in label order, the discipline
    every graph type keeps in its ``_labels`` and ``_index`` slots."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex label {label!r}") from None

    def label_of(self, u: int) -> str:
        return self._labels[u]


class _Graph(_Labeled):
    """The two graph types' edge pairs by label, and their equality."""

    __slots__ = ()

    def edge_labels(self) -> Iterator[tuple[str, str]]:
        for u, v in self.edges():
            yield (self._labels[u], self._labels[v])

    def __eq__(self, other) -> bool:
        # same labels and, other's ids renamed to ours, the same u*n + v keys
        if not isinstance(other, type(self)):
            return NotImplemented
        if set(self._labels) != set(other._labels):
            return False
        n = self.n
        ids = np.array([self._index[lab] for lab in other._labels], dtype=np.int64)
        (gptr, gids), (hptr, hids) = self._csr, other._csr
        keys = np.sort(np.repeat(ids, np.diff(hptr)) * n + ids[hids])
        return np.array_equal(keys, np.repeat(np.arange(n), np.diff(gptr)) * n + gids)

    __hash__ = None  # type: ignore[assignment]


class Digraph(_Graph):
    """Immutable digraph; edges run ancestor -> descendant.  Children and
    parents are CSR arrays (int64 row pointers, int32 ids, rows
    ascending); ``children``/``parents`` slice them into tuples."""

    __slots__ = ("_labels", "_index", "_csr", "_rcsr", "_down", "_bits_level",
                 "_order")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]]):
        labels, index, src, dst = _labeled_pairs(labels, edges)
        adj = _adjacency(len(labels), src, dst)
        if adj is None:
            raise _refusal(labels, src, dst, src, dst, "->")
        self._fill(labels, index, adj)

    def _fill(self, labels: tuple[str, ...], index: dict[str, int],
              csr: tuple[np.ndarray, np.ndarray],
              order: np.ndarray | None = None) -> Digraph:
        """Set every field from validated labels and the ``_adjacency``
        arrays, with the parents CSR as their transpose, and the labels'
        order (:meth:`_label_order`) when it is known; ``parse_digraph``
        fills a bare instance with it."""
        self._labels, self._index, self._csr = labels, index, csr
        self._rcsr = _kernels.reverse_csr(len(labels), *csr)
        self._down: tuple[np.ndarray, np.ndarray] | None = None
        self._bits_level: int | None = None
        self._order = order
        return self

    @classmethod
    def from_label_pairs(cls, pairs: Iterable[tuple[str, str]],
                         isolated: Iterable[str] = ()) -> "Digraph":
        """Build from labeled edges; vertices appear in first-mention order."""
        index: dict[str, int] = {}
        edges = [(index.setdefault(u, len(index)), index.setdefault(v, len(index)))
                 for u, v in pairs]
        for lab in isolated:
            index.setdefault(lab, len(index))
        return cls(tuple(index), edges)

    @property
    def edge_count(self) -> int:
        return self._csr[1].size

    def children(self, u: int) -> tuple[int, ...]:
        indptr, ids = self._csr
        return tuple(ids[indptr[u]:indptr[u + 1]].tolist())

    def parents(self, u: int) -> tuple[int, ...]:
        indptr, ids = self._rcsr
        return tuple(ids[indptr[u]:indptr[u + 1]].tolist())

    def edges(self) -> Iterator[tuple[int, int]]:
        indptr, ids = self._csr
        src = np.repeat(np.arange(self.n), np.diff(indptr))
        return zip(src.tolist(), ids.tolist())

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={self.edge_count})"

    # internal machinery -------------------------------------------------

    def topological_order(self) -> tuple[int, ...]:
        """Ancestors-first order of all vertices; raises on a cycle."""
        ptr, ids = (a.tolist() for a in self._csr)
        indeg = np.diff(self._rcsr[0]).tolist()
        queue = deque(u for u in range(self.n) if indeg[u] == 0)
        order: list[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in ids[ptr[u]:ptr[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.n:
            raise CyclicGraphError(self._find_cycle(set(range(self.n)) - set(order)))
        return tuple(order)

    def _find_cycle(self, residue: set[int]) -> list[str]:
        # Every vertex of the residue has a parent inside it, so walking
        # parents must revisit a vertex.
        ptr, ids = (a.tolist() for a in self._rcsr)
        start = min(residue)
        path = [start]
        pos = {start: 0}
        while True:
            u = path[-1]
            p = min(w for w in ids[ptr[u]:ptr[u + 1]] if w in residue)
            if p in pos:
                cyc = path[pos[p]:] + [p]
                cyc.reverse()  # parent walk records edges backwards
                return [self._labels[v] for v in cyc]
            pos[p] = len(path)
            path.append(p)

    def _label_order(self) -> np.ndarray:
        """The ids sorted by their labels, read-only: kept from the sort
        ``parse_digraph`` makes of the labels' UTF-8 bytes, which orders
        them as Python orders strings, lone surrogates included; a digraph
        built any other way sorts its labels on first use."""
        if self._order is None:
            self._order = np.array(sorted(range(self.n), key=self._labels.__getitem__),
                                   dtype=np.int32)
            self._order.flags.writeable = False
        return self._order

    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertices grouped by height, peeled from the sinks up on the CSR
        arrays (see ``_kernels.sink_levels``).  This is the library's
        acyclicity gate: on a cycle it raises the ``CyclicGraphError`` of
        :meth:`topological_order`, which is built only then."""
        levels = _kernels.sink_levels(self._csr[0], *self._rcsr)
        if levels is None:
            self.topological_order()  # raises, naming a cycle
        return levels

    def _down_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed down-sets as CSR ``(indptr, ids)``: ``D[u]`` is
        ``ids[indptr[u]:indptr[u + 1]]``, ascending; raises on a cycle.

        The rows are merged level by level from the sinks up, as CSR,
        while the ids the merge holds stay small against the
        n*ceil(n/64)-word bitset matrix; past that (dense DAGs) the merge
        is dropped and every level is ORed as bitsets from the sinks up,
        then decoded (:func:`_kernels.closure_csr`).  ``_bits_level``
        keeps the level at which the merge stopped, 1 when it never
        started, None when it built every row.
        A closure too large for either layout's byte budget raises
        ``ValueError`` naming n and the bytes each needs, which the CLI
        reports with exit code 1.
        """
        if self._down is None:
            self._down, self._bits_level = _kernels.closure_csr(
                self.n, *self._csr, *self._levels())
        return self._down


class UndirectedGraph(_Graph):
    """Immutable undirected graph.  Its adjacency is one symmetric CSR
    (int64 row pointers, int32 ids, rows ascending); ``edges()`` lists
    the ``u < v`` pairs on demand."""

    __slots__ = ("_labels", "_index", "_csr")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]]):
        labels, index, a, b = _labeled_pairs(labels, edges)
        csr = _adjacency(len(labels), np.concatenate((a, b)), np.concatenate((b, a)))
        if csr is None:
            raise _refusal(labels, a, b, np.minimum(a, b), np.maximum(a, b), "--")
        self._labels, self._index, self._csr = labels, index, csr

    @classmethod
    def _from_csr(cls, labels: tuple[str, ...], indptr: np.ndarray,
                  indices: np.ndarray) -> UndirectedGraph:
        """Graph on already-validated ``labels`` from a sorted, symmetric,
        loop-free CSR adjacency (as ``clique_union_csr`` returns), taken on
        trust as the graph's own arrays."""
        g = cls.__new__(cls)
        g._labels, g._csr = labels, (indptr, indices)
        g._index = {lab: i for i, lab in enumerate(labels)}
        return g

    @property
    def edge_count(self) -> int:
        return self._csr[1].size // 2

    def neighbors(self, u: int) -> tuple[int, ...]:
        indptr, ids = self._csr
        return tuple(ids[indptr[u]:indptr[u + 1]].tolist())

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def edges(self) -> tuple[tuple[int, int], ...]:
        ids = _kernels.csr_edges(*self._csr)[1].tolist()
        # a list first: tuple() of a bare zip builds noticeably slower
        return tuple(list(zip(ids[0::2], ids[1::2])))

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.n and 0 <= b < self.n and b in self.neighbors(a)

    def is_complete(self) -> bool:
        return 2 * self.edge_count == self.n * (self.n - 1)

    def connected_components(self) -> list[list[int]]:
        """Components, each ascending, in the order of their smallest vertex."""
        comps: list[list[int]] = []
        for v, c in enumerate(_sweep(self.n, range(self.n), self._csr)):
            if c == len(comps):
                comps.append([])
            comps[c].append(v)
        return comps

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edge_count})"


# ------------------------------------------------------------------ text

# the ASCII bytes that str.split() and str.splitlines() split at
_SPACE = np.array([not chr(b).split() for b in range(128)] + [False] * 128)
_BREAK = np.array([len(f"a{chr(b)}a".splitlines()) == 2 for b in range(128)]
                  + [False] * 128)
# the non-ASCII characters str.split() splits at: the three that
# str.splitlines() breaks at too, the rest, and all of them
_WIDE_BREAK = re.compile("[\x85\u2028\u2029]")
_WIDE_GAP = re.compile("[\xa0\u1680\u2000-\u200a\u202f\u205f\u3000]")
_WIDE = re.compile(f"{_WIDE_BREAK.pattern}|{_WIDE_GAP.pattern}")


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: one ``ancestor descendant`` pair per
    line, single-token lines declaring isolated vertices, ``#`` comments.

    Lines and tokens are those of ``str.splitlines()`` and ``str.split()``,
    whose non-ASCII separators count too; a comment runs from a line's
    first ``#`` to its end.  Ids go to labels in first-mention order.  The
    first error in line order, a line of three or more tokens or a
    self-loop or repeated edge before it, raises ``ParseError`` with its
    line.  One reader, on arrays, does all of this (:func:`_read`).
    """
    return _read(text)


def _read(text: str, slice_size: int = 1 << 20) -> Digraph:
    """The edge-list reader, a slice of about ``slice_size`` characters
    ending just after a LF at a time: separators made ASCII
    (:func:`_narrow`), encoded, comments blanked (:func:`_blank_comments`)
    and scanned once for the tokens and lines of ``str.split()`` and
    ``str.splitlines()``, CR LF as one break.  Tokens are kept as 8-byte
    words (:func:`_kernels.field_words`), grouped by one exact sort
    (:func:`_kernels.byte_order`) and given ids in first-mention order;
    only the n labels are decoded.  A line of three or more tokens ends
    the read; the first edge before it that the array check refuses is
    named at its line, kept for each edge, and else that line is."""
    # grown in place as the slices are read, so no slice's arrays outlive it
    words, first, size = array("Q"), array("q"), array("i")
    paired, edge_line = array("b"), array("q")
    pos, lineno, bad = 0, 1, None  # lineno: the line the slice starts on
    while pos < len(text):
        end = text.find("\n", pos + slice_size) + 1 or len(text)
        part, pos = _narrow(text[pos:end]), end
        raw = part.encode("utf-8", "surrogatepass") + bytes(8)  # room for word reads
        if "#" in part:
            raw = _blank_comments(bytearray(raw))
        buf = np.frombuffer(raw, dtype=np.uint8)[:-8]
        gap = np.flatnonzero(buf <= 32)  # every whitespace byte is one of these
        gap = gap[_SPACE.take(buf[gap])]
        brk = _BREAK.take(buf[gap])
        if "\r" in part:  # CR LF is one line break
            brk[1:] &= ~((buf[gap[1:]] == 10) & (buf[gap[:-1]] == 13)
                         & (np.diff(gap) == 1))
        cut = np.concatenate(([-1], gap, [buf.size]))
        tok = np.flatnonzero(np.diff(cut) > 1)  # a token between two cuts
        # each token's line in the slice: the line breaks among the cuts before it
        line = np.zeros(cut.size - 1, dtype=np.int64)
        np.cumsum(brk, out=line[1:])
        lines = int(line[-1])
        line = line[tok]
        per_line = np.bincount(line)
        if per_line.max(initial=0) > 2:
            at = int(np.argmax(per_line > 2))
            bad = ParseError(f"expected 1 or 2 tokens, got {per_line[at]}",
                             lineno + at)
            tok, line = tok[line < at], line[line < at]
        start = cut[tok] + 1
        length = (cut[tok + 1] - start).astype(np.int32)
        word_at = np.ndarray((buf.size + 1,), dtype=">u8", buffer=raw, strides=(1,))
        w, f = _kernels.field_words(word_at, start, length)
        first.frombytes((f + len(words)).tobytes())
        words.frombytes(w.astype(np.uint64).tobytes())
        size.frombytes(length.tobytes())
        pair = per_line[line] == 2
        paired.frombytes(pair.tobytes())
        edge_line.frombytes((line[pair][0::2] + lineno).tobytes())
        if bad is not None:
            break
        lineno += lines
    first.append(len(words))  # and the end of the last token's words
    words, first, size, paired, edge_line = (
        np.frombuffer(a, dtype=a.typecode)
        for a in (words, first, size, paired, edge_line))
    order, head = _kernels.byte_order(words, first[:-1],
                                      size if "\0" in text else None)
    group = np.flatnonzero(head)  # where each run of equal tokens starts
    tops = np.minimum.reduceat(order, group)  # each run's first token
    by = np.argsort(tops)
    lab = tops[by]  # the labels' first tokens, in id order
    gid = np.empty(lab.size, dtype=np.int32)
    gid[by] = np.arange(lab.size, dtype=np.int32)
    gid.flags.writeable = False  # the ids in label order
    del head, tops, by
    ptr, lw = _kernels.gather_rows(first, words, lab)
    size = size[lab]
    del words, first, lab
    ids = np.empty(order.size, dtype=np.int32)
    ids[order] = np.repeat(gid, np.diff(group, append=order.size))
    del order, group
    pairs = ids[paired.view(bool)]
    del ids, paired
    buf = np.append(lw, np.uint64(0)).astype(">u8").view(np.uint8)  # text order
    labels = _kernels.decode_fields(buf, 8 * ptr[:-1], size)
    del buf, ptr, lw, size
    src, dst = pairs[0::2], pairs[1::2]
    adj = _adjacency(len(labels), src, dst)
    if adj is None:
        i, kind = _first_bad_edge(len(labels), src, dst)
        u, v = labels[src[i]], labels[dst[i]]
        raise ParseError(f"self-loop at {u!r}" if kind == "self-loop"
                         else f"duplicate edge {u} -> {v}", int(edge_line[i]))
    if bad is not None:
        raise bad
    del pairs, src, dst, edge_line
    index = dict(zip(labels, range(len(labels))))
    return Digraph.__new__(Digraph)._fill(labels, index, adj, gid)


def _narrow(part: str) -> str:
    """``part`` with each non-ASCII character ``str.split()`` splits at as a
    space, or VT for the three ``str.splitlines()`` breaks at, if any."""
    if part.isascii() or not _WIDE.search(part):
        return part
    return _WIDE_GAP.sub(" ", _WIDE_BREAK.sub("\v", part))


def _blank_comments(raw: bytearray) -> bytearray:
    """``raw`` with its bytes from each line's first ``#`` up to the line
    break after it, or to 8 bytes before the end, set to spaces."""
    buf = np.frombuffer(raw, dtype=np.uint8)[:-8]
    mark = np.flatnonzero(buf == 35)
    low = np.flatnonzero(buf <= 32)
    ends = np.append(low[_BREAK.take(buf[low])], buf.size)
    end = ends[np.searchsorted(ends, mark)]  # the end of each mark's line
    first = np.append(True, end[1:] != end[:-1])  # each line's first mark
    step = np.zeros(buf.size + 1, dtype=np.int8)
    step[mark[first]], step[end[first]] = 1, -1
    buf[np.cumsum(step[:-1], dtype=np.int8).view(bool)] = 32
    return raw


def _check_text_labels(labels: tuple[str, ...]) -> None:
    """Refuse the first label holding ``#``, which the text formats would
    read back as the start of a comment."""
    bad = next((lab for lab in labels if "#" in lab), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} holds '#', which the text formats "
                         "read as the start of a comment")


def format_digraph(g: Digraph) -> str:
    """Serialize to the edge-list format, edges sorted by label pair,
    isolated vertices on trailing single-token lines; a label holding
    ``#`` is refused with ``ValueError``."""
    _check_text_labels(g.labels)
    lines = sorted(f"{lu} {lv}" for lu, lv in g.edge_labels())
    degree = np.diff(g._csr[0]) + np.diff(g._rcsr[0])
    lines += sorted(g.label_of(u) for u in np.flatnonzero(degree == 0).tolist())
    return "".join(line + "\n" for line in lines)


# ------------------------------------------------------------ basic order

def is_acyclic(g: Digraph) -> bool:
    try:
        g._levels()
        return True
    except CyclicGraphError:
        return False


def down_set(g: Digraph, u: int, closed: bool = True) -> frozenset[int]:
    """Vertices reachable from ``u``; ``closed`` keeps ``u`` itself."""
    indptr, ids = g._down_sets()  # acyclicity gate
    if not 0 <= u < g.n:
        raise ValueError(f"vertex id {u} out of range")
    return frozenset(v for v in ids[indptr[u]:indptr[u + 1]].tolist()
                     if closed or v != u)


def _max_rows(g: Digraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal vertices, ascending, and their closed down-sets as CSR
    rows in that order."""
    indptr, ids = g._down_sets()  # acyclicity gate
    tops = np.flatnonzero(np.diff(g._rcsr[0]) == 0)
    return (tops, *_kernels.gather_rows(indptr, ids, tops))


def max_vertices(g: Digraph) -> frozenset[int]:
    """Maximal elements of the reachability order: the in-degree-0 vertices."""
    g._levels()  # acyclicity gate
    return frozenset(np.flatnonzero(np.diff(g._rcsr[0]) == 0).tolist())


def big_d(g: Digraph) -> int:
    """Largest closed down-set size; 0 on the empty digraph."""
    if g.n == 0:
        return 0
    return int(np.diff(g._down_sets()[0]).max())


# ------------------------------------------------------- transformations

def _finish_order(n: int, csr: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """The vertices in the order a depth-first search along the CSR
    adjacency ``csr`` finishes them, roots tried ascending."""
    ptr, ids = (a.tolist() for a in csr)
    nxt = ptr[:-1]  # each vertex's next child position
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack[-1]
            i, end = nxt[v], ptr[v + 1]
            while i < end and seen[ids[i]]:
                i += 1
            nxt[v] = i + 1
            if i < end:
                seen[ids[i]] = True
                stack.append(ids[i])
            else:
                order.append(stack.pop())
    return order


def _sweep(n: int, roots: Iterable[int], csr: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """A component id per vertex: each of ``roots`` not reached yet opens
    the next id and claims every vertex it reaches along ``csr``."""
    ptr, ids = (a.tolist() for a in csr)
    comp = [-1] * n
    c = 0
    for root in roots:
        if comp[root] >= 0:
            continue
        comp[root] = c
        stack = [root]
        while stack:
            u = stack.pop()
            for v in ids[ptr[u]:ptr[u + 1]]:
                if comp[v] < 0:
                    comp[v] = c
                    stack.append(v)
        c += 1
    return comp


def _filled(g: Digraph, src: np.ndarray, dst: np.ndarray) -> Digraph:
    """Digraph on ``g``'s labels with the edges ``src[i] -> dst[i]``, in
    range and loop-free, repeats merged; filled without a second check,
    and sharing ``g``'s label order if it is known."""
    keys = _kernels._distinct(src.astype(np.int64) * g.n + dst)
    return Digraph.__new__(Digraph)._fill(g._labels, g._index,
                                          _kernels.keys_csr(g.n, keys), g._order)


def condense_to_acyclic(g: Digraph) -> Digraph:
    """Collapse every strongly connected component onto a representative.

    The representative is the lexicographically smallest label of the
    component; it keeps an edge to every other member, and component-
    crossing edges are rerouted between representatives.  The result is
    acyclic on the same vertex set, and its down-graph coincides with
    the reachability-based conflict graph of the input.
    """
    n = g.n
    # Kosaraju: sweep the parents from the latest-finished vertex first
    comp = np.array(_sweep(n, reversed(_finish_order(n, g._csr)), g._rcsr),
                    dtype=np.int64)
    by_label = g._label_order()
    first = np.full(n, n)  # per component, its smallest label's rank
    np.minimum.at(first, comp, np.argsort(by_label))
    rep = by_label[first[comp]]
    src = np.concatenate((rep[np.repeat(np.arange(n), np.diff(g._csr[0]))], rep))
    dst = np.concatenate((rep[g._csr[1]], np.arange(n)))
    keep = src != dst
    return _filled(g, src[keep], dst[keep])


def _below(g: Digraph, tops: np.ndarray, ptr: np.ndarray, ids: np.ndarray) -> Digraph:
    """``g``'s vertices with an edge from each of ``tops`` to every other
    vertex of its closed down-set, the CSR row ``ids[ptr[i]:ptr[i + 1]]``."""
    src = np.repeat(tops, np.diff(ptr))
    keep = ids != src
    return _filled(g, src[keep], ids[keep])


def height_two_reduction(g: Digraph) -> Digraph:
    """Rewire every maximal vertex directly onto its open down-set.

    The result has the same vertex set and the same down-graph, with all
    ancestor chains flattened to height two.
    """
    return _below(g, *_max_rows(g))


def transitive_closure(g: Digraph) -> Digraph:
    """Edge (u, v) for every v strictly below u."""
    return _below(g, np.arange(g.n), *g._down_sets())


def down_graph(g: Digraph) -> UndirectedGraph:
    """Conflict graph: u ~ v when some closed down-set holds both.

    Only maximal vertices need scanning, since every closed down-set is
    contained in a maximal one.
    """
    _, ptr, ids = _max_rows(g)
    return UndirectedGraph._from_csr(g.labels,
                                     *_kernels.clique_union_csr(g.n, ptr, ids))

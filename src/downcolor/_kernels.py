"""Hot inner loops on CSR arrays and packed bitsets, numpy only.

Three kernels carry most of the work on large digraphs: the height
peel and the level-synchronous reachability closure (:func:`sink_levels`,
:func:`closure_csr`), and clique union (the one conflict-graph builder,
from cliques given as CSR rows).  They make a few numpy steps per height
level or clique, so their Python overhead grows with the height of the
digraph, not with its edge count.  :func:`greedy_color` is kept only for
the benchmarks that time it; the library's one first-fit is the greedy
strong coloring's, which seeds the exact solver too.

The closure is built as sorted CSR rows first: each level merges its
children's finished rows, the successor-list closure of Goralcikova and
Koubek (1979) one level at a time.  On dense DAGs, where the rows would
outgrow the ``n*ceil(n/64)``-word bitset matrix, the remaining levels
OR bitset rows instead (:func:`closure_levels`), decoded at the end.
Either layout is held to ``_CLOSURE_BYTES``; a closure that fits
neither raises ``ValueError``, which the command line reports with exit
code 1.  So is the conflict builder, its bitsets and then its CSR ids.

Vertex ``u`` maps to bit ``u & 63`` of word ``u >> 6``.  Bitsets stay
inside this module and ``digraph``: :func:`rows_csr` decodes a whole
bitset matrix at once into sorted CSR rows, which is the form every
other module reads and every graph type holds; its ids are int32, its
row pointers int64.  The decode goes through a ``uint8`` view, which
assumes a little-endian host.
"""

from __future__ import annotations

import numpy as np

# every kernel has one numpy build; both names stay for callers that
# record the backend
HAS_NUMBA = False

# bytes of children's rows, bitsets or int32 ids, the closure gathers at once
_GATHER_BYTES = 1 << 18

# the closure merges CSR rows while the ids it holds, plus a charge per
# height level for the merge's fixed cost there, stay within this many
# times the n*ceil(n/64) words of the bitset matrix, and ORs bitsets past
# it; the merge costs about 55 us more per level than the OR does
_IDS_PER_WORD = 1
_IDS_PER_LEVEL = 1024

# bytes either closure layout may take
_CLOSURE_BYTES = 1 << 30


def get_backend() -> str:
    return "numpy"


def words_for(n: int) -> int:
    return (n + 63) >> 6


def popcounts(bits: np.ndarray) -> np.ndarray:
    """Per-row population counts of a bitset matrix."""
    if bits.size == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)


def gather_rows(indptr: np.ndarray, ids: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the rows ``rows`` of ``(indptr, ids)``, in that order."""
    start = indptr[rows]
    size = indptr[rows + 1] - start
    ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(size, out=ptr[1:])
    return ptr, ids[np.arange(ptr[-1]) + np.repeat(start - ptr[:-1], size)]


def keys_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency on ``n`` ids (int64 row pointers, int32 ids) of the
    edges ``u -> v`` given as sorted ``u*n + v`` keys."""
    return np.searchsorted(keys, np.arange(n + 1) * n), (keys % n).astype(np.int32)


def reverse_csr(n: int, indptr: np.ndarray,
                indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transpose of a CSR adjacency on ``n`` ids: row ``v`` lists the
    ``u`` with ``v`` in row ``u``, ascending."""
    return keys_csr(n, np.sort(indices.astype(np.int64) * n
                               + np.repeat(np.arange(n), np.diff(indptr))))


# ---------------------------------------------------------------- closure

def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending.  ``np.unique`` would do,
    but its first call imports ``numpy.ma`` (10-15 ms and 1.3 MB of RSS
    on numpy 2.4), and its overhead dominates on the short arrays the
    peel makes."""
    if x.size < 2:
        return x
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def sink_levels(indptr: np.ndarray, rptr: np.ndarray,
                rids: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices grouped by height: level ``h`` is
    ``verts[lptr[h]:lptr[h + 1]]``, ascending, and holds the vertices
    whose longest path down to a sink has ``h`` edges.

    ``indptr`` are the children row pointers and ``(rptr, rids)`` the
    parents CSR.  Each step peels the vertices whose children are all
    peeled, at a cost of the edges into the level plus a constant.
    None when a cycle stops the peel before every vertex is placed.
    """
    left = np.diff(indptr)  # children not yet peeled
    parts = [np.flatnonzero(left == 0)]
    while parts[-1].size:
        v = parts[-1]
        # a one-vertex level, common in tall thin DAGs, is one slice
        up = (rids[rptr[v[0]]:rptr[v[0] + 1]] if v.size == 1
              else gather_rows(rptr, rids, v)[1])
        np.subtract.at(left, up, 1)
        parts.append(_distinct(up[left[up] == 0]))  # once per child in the level
    lptr = np.zeros(len(parts), dtype=np.int64)
    np.cumsum([p.size for p in parts[:-1]], out=lptr[1:])
    if lptr[-1] < left.size:
        return None
    return np.concatenate(parts), lptr


def _runs(cum: np.ndarray, a: int, end: int, step: int):
    """Split ``a..end`` into runs ``[a, b)`` with ``cum[b] - cum[a] <= step``;
    an index whose own span exceeds ``step`` is a run alone."""
    while a < end:
        b = end if cum[end] - cum[a] <= step else min(end, max(
            a + 1, int(np.searchsorted(cum, cum[a] + step, "right")) - 1))
        yield a, b
        a = b


def _own_bits(n: int) -> np.ndarray:
    """An n-row bitset matrix holding each vertex's own bit."""
    bits = np.zeros((n, words_for(n)), dtype=np.uint64)
    own = np.arange(n)
    bits[own, own >> 6] = np.uint64(1) << (own & 63).astype(np.uint64)
    return bits


def _or_levels(bits: np.ndarray, verts: np.ndarray, lptr: np.ndarray,
               ptr: np.ndarray, kids: np.ndarray, first: int) -> np.ndarray:
    """OR into each vertex's bitset row its children's finished rows,
    level by level from level ``first`` up; ``(ptr, kids)`` are the
    children of ``verts`` in that order.

    A level ORs at most ``_GATHER_BYTES`` of child rows per ``reduceat``
    (one vertex with more children takes one step alone): the reduction
    slows several times once its block outgrows the cache.
    """
    step = _GATHER_BYTES // max(8 * bits.shape[1], 1)
    for a, end in zip(lptr[first:-1].tolist(), lptr[first + 1:].tolist()):
        for a, b in _runs(ptr, a, end, step):
            bits[verts[a:b]] |= np.bitwise_or.reduceat(
                bits[kids[ptr[a]:ptr[b]]], ptr[a:b] - ptr[a], axis=0)
    return bits


def closure_levels(n: int, indptr: np.ndarray, indices: np.ndarray,
                   verts: np.ndarray, lptr: np.ndarray) -> np.ndarray:
    """Closed reachability bitsets, one row per vertex, from the levels
    :func:`sink_levels` returns: each vertex's own bit, then, level by
    level above the sinks, the OR of its children's finished rows."""
    return _or_levels(_own_bits(n), verts, lptr,
                      *gather_rows(indptr, indices, verts), 1)


def _too_large(n: int, ids: int) -> ValueError:
    return ValueError(
        f"the closure of {n} vertices is too large: its bitsets take "
        f"{8 * n * words_for(n):,} bytes and the merge of its CSR rows "
        f"{4 * ids:,} bytes, over the {_CLOSURE_BYTES:,}-byte budget")


def closure_csr(n: int, indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray,
                lptr: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], int | None]:
    """Closed down-sets as sorted CSR rows (int64 row pointers, int32
    ids), from the levels :func:`sink_levels` returns, and the level from
    which they were ORed as bitsets (None when merged throughout).

    The merge walks the levels from the sinks up.  Each level gathers
    its vertices' finished child rows plus each vertex's own id, as
    int64 ``row << 32 | id`` keys, and sorts and dedups them once, in
    runs of at most ``_GATHER_BYTES`` of gathered ids; the rows are put
    in id order at the end.

    Bitsets take over (:func:`_or_levels`, then :func:`rows_csr`) where
    the merge would hold more than ``_IDS_PER_WORD`` times the bitset
    matrix's ``n*ceil(n/64)`` words, less ``_IDS_PER_LEVEL`` per level:
    before any merge when the free lower bound on ``sum |D[u]|``, n plus
    the larger of the edge count and the sum of the heights, passes that
    limit, else at the first level whose gathered ids, added to the
    finished rows, would.  The switch reuses the one gather of the
    children and ORs the finished rows into the bitsets.

    Neither layout may pass ``_CLOSURE_BYTES``: bitsets take 8 bytes a
    word, the merge 4 per id it holds.  A merge over budget hands over
    to bitsets that fit, bitsets over budget leave the merge to run on,
    and when neither fits a ``ValueError`` names n and both sizes.
    """
    words = words_for(n)
    limit = _IDS_PER_WORD * n * words - _IDS_PER_LEVEL * (lptr.size - 1)
    fits = 8 * n * words <= _CLOSURE_BYTES
    # sum |D[u]| >= n + the edge count, and >= n + the sum of the heights
    low = n + max(indices.size, (lptr.size - 2) * n - sum(lptr[1:-1].tolist()))
    if low > limit or 4 * low > _CLOSURE_BYTES:
        if fits:
            return rows_csr(closure_levels(n, indptr, indices, verts, lptr)), 1
        if 4 * low > _CLOSURE_BYTES:
            raise _too_large(n, low)
    ptr, kids = gather_rows(indptr, indices, verts)
    rank = np.empty(n, dtype=np.int32)
    rank[verts] = np.arange(n, dtype=np.int32)
    sinks = int(lptr[1]) if n else 0
    rowptr = np.zeros(n + 1, dtype=np.int64)
    rowptr[1:sinks + 1] = np.arange(1, sinks + 1)
    buf = np.empty(low, dtype=np.int32)
    buf[:sinks] = verts[:sinks]
    step = max(_GATHER_BYTES // 4, 1)
    for h in range(1, lptr.size - 1):
        a, end = int(lptr[h]), int(lptr[h + 1])
        used, k0 = int(rowptr[a]), int(ptr[a])
        krank = rank[kids[k0:ptr[end]]]
        start = rowptr[krank]
        size = rowptr[krank + 1] - start
        kptr = ptr[a:end + 1] - k0  # each vertex's children in krank
        got = np.add.reduceat(size, kptr[:-1])  # ids each vertex gathers
        cum = np.zeros(end - a + 1, dtype=np.int64)  # and its own id
        np.cumsum(got + 1, out=cum[1:])
        total = used + int(cum[-1])
        if total > limit or 4 * total > _CLOSURE_BYTES:
            if fits:  # the merged rows, then bitsets from this level
                bits = _own_bits(n)
                _set_bits(bits, np.repeat(verts[:a], np.diff(rowptr[:a + 1])),
                          buf[:used])
                return rows_csr(_or_levels(bits, verts, lptr, ptr, kids, h)), h
            if 4 * total > _CLOSURE_BYTES:
                raise _too_large(n, total)
        if total > buf.size:
            grown = np.empty(max(total, min(2 * buf.size, _CLOSURE_BYTES // 4)),
                             dtype=np.int32)
            grown[:used] = buf[:used]
            buf = grown
        # gathered position of each child's row, less its position in buf
        shift = np.cumsum(size) - size - start
        for i, j in _runs(cum, 0, end - a, step):
            gi, gj = int(cum[i]) - i, int(cum[j]) - j
            ki, kj = kptr[i], kptr[j]
            row = np.arange(j - i, dtype=np.int64) << 32
            keys = np.empty(gj - gi + j - i, dtype=np.int64)
            keys[:gj - gi] = np.repeat(row, got[i:j])
            keys[:gj - gi] |= buf[np.arange(gi, gj)
                                  - np.repeat(shift[ki:kj], size[ki:kj])]
            np.bitwise_or(row, verts[a + i:a + j], out=keys[gj - gi:])
            keys = _distinct(keys)
            at = int(rowptr[a + i])
            np.cumsum(np.bincount(keys >> 32, minlength=j - i),
                      out=rowptr[a + i + 1:a + j + 1])
            rowptr[a + i + 1:a + j + 1] += at
            buf[at:at + keys.size] = keys
    # the rows, in level order, into id order
    size = np.diff(rowptr)[rank]
    out = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(size, out=out[1:])
    ids = np.empty(int(out[-1]), dtype=np.int32)
    for lo, hi in _runs(out, 0, n, step):
        ids[out[lo]:out[hi]] = gather_rows(rowptr, buf, rank[lo:hi])[1]
    return (out, ids), None


def closure_bits(n: int, indptr: np.ndarray, indices: np.ndarray,
                 order: np.ndarray) -> np.ndarray:
    """Closed reachability bitsets, one row per vertex, of the acyclic
    CSR adjacency ``(indptr, indices)``.

    ``order`` (every vertex after all of its out-neighbours) is not
    read: the levels are peeled from the arrays, and
    :func:`closure_levels` does the work.
    """
    levels = sink_levels(indptr, *reverse_csr(n, indptr, indices))
    if levels is None:
        raise ValueError("closure_bits needs an acyclic adjacency")
    return closure_levels(n, indptr, indices, *levels)


# --------------------------------------------------------- bitsets <-> CSR

def rows_csr(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode bitset rows into CSR: row ``i`` lists its set bit positions,
    ascending, in ``indices[indptr[i]:indptr[i + 1]]``.  Only the nonzero
    words are unpacked, and their bits are found through a bool view,
    which ``flatnonzero`` scans several times faster than ``uint8``."""
    flat = np.flatnonzero(bits)
    row, word = np.divmod(flat, max(bits.shape[1], 1))
    pos = np.flatnonzero(np.unpackbits(bits.reshape(-1)[flat].view(np.uint8),
                                       bitorder="little").view(bool))
    hit = pos >> 6
    indptr = np.zeros(bits.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[hit], minlength=bits.shape[0]), out=indptr[1:])
    ids = word[hit].astype(np.int32) << 6
    ids += (pos & 63).astype(np.int32)
    return indptr, ids


def _set_bits(bits: np.ndarray, row: np.ndarray, ids: np.ndarray) -> None:
    """Set bit ``ids[i]`` of row ``row[i]`` of ``bits``, for every ``i``."""
    np.bitwise_or.at(bits, (row, ids >> 6),
                     np.uint64(1) << (ids & 63).astype(np.uint64))


def pack_rows(n: int, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Bitset rows over ``n`` ids; row ``i`` holds ``ids[indptr[i]:indptr[i + 1]]``."""
    out = np.zeros((indptr.size - 1, words_for(n)), dtype=np.uint64)
    _set_bits(out, np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), ids)
    return out


def csr_edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``u < v`` of a symmetric CSR adjacency as the CSR rows of a
    2-uniform hypergraph ``(eptr, members)``, each row ``u, v``; sorted
    when the adjacency rows are."""
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    up = src < indices
    members = np.stack((src[up], indices[up]), axis=1).ravel()
    return np.arange(0, members.size + 1, 2), members


# ----------------------------------------------------------- clique union

def _clique_union(n, members, indptr, ids):
    """Union of the cliques given twice: as bitset rows ``members`` and as
    the CSR rows ``(indptr, ids)`` of the same ids."""
    adj = np.zeros((n, members.shape[1]), dtype=np.uint64)
    ptr = indptr.tolist()
    for i, row in enumerate(members):
        adj[ids[ptr[i]:ptr[i + 1]]] |= row
    diag = np.arange(n, dtype=np.uint64)
    adj[np.arange(n), diag >> np.uint64(6)] &= ~(np.uint64(1) << (diag & np.uint64(63)))
    return adj


def _check_conflict(n: int, what: str, size: int) -> None:
    """Refuse a conflict graph of ``n`` vertices whose ``what`` would take
    ``size`` bytes, over the closure's budget."""
    if size > _CLOSURE_BYTES:
        raise ValueError(
            f"the conflict graph of {n} vertices is too large: its {what} "
            f"take {size:,} bytes, over the {_CLOSURE_BYTES:,}-byte budget")


def clique_union_csr(n: int, indptr: np.ndarray,
                     ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted symmetric CSR adjacency, without self-loops, of the union of
    cliques on ``n`` ids; clique ``i`` is ``ids[indptr[i]:indptr[i + 1]]``.
    Its bitsets, then its CSR ids, are held to ``_CLOSURE_BYTES`` before
    they are built, or a ``ValueError`` names n and the bytes."""
    _check_conflict(n, "bitsets", 8 * (indptr.size - 1 + n) * words_for(n))
    adj = _clique_union(n, pack_rows(n, indptr, ids), indptr, ids)
    _check_conflict(n, "adjacency lists", 4 * int(popcounts(adj).sum()))
    return rows_csr(adj)


def clique_union_bits(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Symmetric adjacency bitsets of the union of cliques.

    Each entry of ``rows`` selects a bitset row of ``bits``; the vertices
    set in that row become pairwise adjacent.  The diagonal is cleared.
    The bytes are held to ``_CLOSURE_BYTES`` as in :func:`clique_union_csr`.
    """
    n = bits.shape[0]
    _check_conflict(n, "bitsets", 8 * (rows.size + n) * bits.shape[1])
    members = bits[rows]
    _check_conflict(n, "clique lists", 4 * int(popcounts(members).sum()))
    return _clique_union(n, members, *rows_csr(members))


# --------------------------------------------------------- greedy coloring

def greedy_color(order: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray) -> np.ndarray:
    """First-fit coloring along ``order``: each vertex gets the smallest
    color, 1-based, not used by an already-colored neighbour.  Only the
    benchmarks call it."""
    ptr, ids = indptr.tolist(), indices.tolist()
    colors = [0] * order.shape[0]
    for v in order.tolist():
        used = {colors[w] for w in ids[ptr[v]:ptr[v + 1]]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return np.array(colors, dtype=np.int64)

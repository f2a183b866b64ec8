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
outgrow the ``n*ceil(n/64)``-word bitset matrix, the merge stops and the
closure is built again as bitset rows from the sinks up
(:func:`closure_levels`), decoded at the end.
Either layout is held to ``_CLOSURE_BYTES``; a closure that fits
neither raises ``ValueError``, which the command line reports with exit
code 1.  So are the conflict builder and the compact table's cells.

Vertex ``u`` maps to bit ``u & 63`` of word ``u >> 6``.  Bitsets stay
inside this module and ``digraph``: :func:`rows_csr` decodes a bitset
matrix, in blocks of rows as large as the merge's runs of ids, into
sorted CSR rows, which is the form every other module reads and every
graph type holds; its ids are int32, its row pointers int64, and
:func:`reverse_csr` is their one transpose.  The decode goes through a
``uint8`` view, which assumes a little-endian host.

Both readers of text, the edge-list parser and the compact CSV reader,
share the word kernels at the end of this module.  A field of UTF-8
bytes becomes its 8-byte big-endian words, zero past its end
(:func:`field_words`); one exact sort puts fields in byte order and
marks each run of equal ones (:func:`byte_order`); and only the labels
are decoded to ``str``, in blocks (:func:`decode_fields`).  Only the
CSV reader's cell lookup uses a 64-bit fingerprint of a field's words
(:func:`fingerprints`), found through a hashed bucket index
(:func:`key_index`) and checked word by word (:func:`same_words`).
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

# bytes a closure layout, the conflict graph or the compact table may take
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
    """The transpose of CSR rows, of any count, over ``n`` ids: row ``v``
    lists the rows holding ``v``, ascending.  It is Gustavson's (ACM TOMS
    1978) with one sort of ``v * rows + u`` keys for his counting pass."""
    rows = indptr.size - 1
    keys = np.sort(indices.astype(np.int64) * rows
                   + np.repeat(np.arange(rows), np.diff(indptr)))
    ptr = np.searchsorted(keys, np.arange(n + 1) * rows)
    return ptr, (keys % rows).astype(np.int32)


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


def closure_levels(n: int, indptr: np.ndarray, indices: np.ndarray,
                   verts: np.ndarray, lptr: np.ndarray) -> np.ndarray:
    """Closed reachability bitsets, one row per vertex, from the levels
    :func:`sink_levels` returns: each vertex's own bit, then, level by
    level above the sinks, the OR of its children's finished rows.

    A level ORs at most ``_GATHER_BYTES`` of child rows per ``reduceat``
    (one vertex with more children takes one step alone): the reduction
    slows several times once its block outgrows the cache.
    """
    bits = np.zeros((n, words_for(n)), dtype=np.uint64)
    own = np.arange(n)
    bits[own, own >> 6] = np.uint64(1) << (own & 63).astype(np.uint64)
    ptr, kids = gather_rows(indptr, indices, verts)
    step = _GATHER_BYTES // max(8 * bits.shape[1], 1)
    for a, end in zip(lptr[1:-1].tolist(), lptr[2:].tolist()):
        for a, b in _runs(ptr, a, end, step):
            bits[verts[a:b]] |= np.bitwise_or.reduceat(
                bits[kids[ptr[a]:ptr[b]]], ptr[a:b] - ptr[a], axis=0)
    return bits


def _too_large(n: int, ids: int) -> ValueError:
    return ValueError(
        f"the closure of {n} vertices is too large: its bitsets take "
        f"{8 * n * words_for(n):,} bytes and the merge of its CSR rows "
        f"{4 * ids:,} bytes, over the {_CLOSURE_BYTES:,}-byte budget")


def closure_csr(n: int, indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray,
                lptr: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], int | None]:
    """Closed down-sets as sorted CSR rows (int64 row pointers, int32
    ids), from the levels :func:`sink_levels` returns, and the level at
    which the merge stopped for bitsets (1 when it never started, None
    when it ran throughout).

    The merge walks the levels from the sinks up.  Each level gathers
    its vertices' finished child rows plus each vertex's own id, as
    int64 ``row << 32 | id`` keys, and sorts and dedups them once, in
    runs of at most ``_GATHER_BYTES`` of gathered ids; the rows are put
    in id order at the end.

    The merge stops where it would hold more than ``_IDS_PER_WORD`` times
    the bitset matrix's ``n*ceil(n/64)`` words, less ``_IDS_PER_LEVEL``
    per level: before it starts when the free lower bound on
    ``sum |D[u]|``, n plus the larger of the edge count and the sum of
    the heights, passes that limit, else at the first level whose
    gathered ids, added to the finished rows, would.  Its rows are then
    dropped, and the whole closure is built as bitsets from the sinks up
    (:func:`closure_levels`, then :func:`rows_csr`).

    Neither layout may pass ``_CLOSURE_BYTES``: bitsets take 8 bytes a
    word, the merge 4 per id it holds.  A merge over budget gives way to
    bitsets that fit, bitsets over budget leave the merge to run on, and
    when neither fits a ``ValueError`` names n and both sizes.
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
        size = rowptr[krank + 1] - rowptr[krank]
        kptr = ptr[a:end + 1] - k0  # each vertex's children in krank
        got = np.add.reduceat(size, kptr[:-1])  # ids each vertex gathers
        cum = np.zeros(end - a + 1, dtype=np.int64)  # and its own id
        np.cumsum(got + 1, out=cum[1:])
        total = used + int(cum[-1])
        if total > limit or 4 * total > _CLOSURE_BYTES:
            if fits:  # drop the merge, and build the bitsets from the sinks
                del buf, ptr, kids
                return rows_csr(closure_levels(n, indptr, indices, verts, lptr)), h
            if 4 * total > _CLOSURE_BYTES:
                raise _too_large(n, total)
        if total > buf.size:
            grown = np.empty(max(total, min(2 * buf.size, _CLOSURE_BYTES // 4)),
                             dtype=np.int32)
            grown[:used] = buf[:used]
            buf = grown
        for i, j in _runs(cum, 0, end - a, step):
            g = int(cum[j] - cum[i]) - (j - i)  # ids of the children's rows
            row = np.arange(j - i, dtype=np.int64) << 32
            keys = np.empty(g + j - i, dtype=np.int64)
            keys[:g] = np.repeat(row, got[i:j])
            keys[:g] |= gather_rows(rowptr, buf, krank[kptr[i]:kptr[j]])[1]
            np.bitwise_or(row, verts[a + i:a + j], out=keys[g:])
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
    ascending, in ``indices[indptr[i]:indptr[i + 1]]``.

    The row sizes, from :func:`popcounts`, size the int32 output, which
    is filled in blocks of rows holding at most ``_GATHER_BYTES // 4``
    ids, the merge's run size (a larger row is a block alone): the
    decode's int64 and bool temporaries, up to about 130 bytes per id,
    stay within a fixed size.  Only the nonzero words are unpacked, and
    their bits are found through a bool view, which ``flatnonzero`` scans
    several times faster than ``uint8``."""
    words = max(bits.shape[1], 1)
    indptr = np.zeros(bits.shape[0] + 1, dtype=np.int64)
    np.cumsum(popcounts(bits), out=indptr[1:])
    ids = np.empty(int(indptr[-1]), dtype=np.int32)
    for a, b in _runs(indptr, 0, bits.shape[0], _GATHER_BYTES // 4):
        block = bits[a:b].reshape(-1)
        flat = np.flatnonzero(block)
        pos = np.flatnonzero(np.unpackbits(block[flat].view(np.uint8),
                                           bitorder="little").view(bool))
        ids[indptr[a]:indptr[b]] = (flat % words)[pos >> 6] << 6 | pos & 63
    return indptr, ids


def pack_rows(n: int, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Bitset rows over ``n`` ids; row ``i`` holds ``ids[indptr[i]:indptr[i + 1]]``."""
    out = np.zeros((indptr.size - 1, words_for(n)), dtype=np.uint64)
    row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    np.bitwise_or.at(out, (row, ids >> 6),
                     np.uint64(1) << (ids & 63).astype(np.uint64))
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


def check_bytes(thing: str, what: str, size: int) -> None:
    """Refuse ``thing`` whose ``what`` would take ``size`` bytes, over the
    byte budget the closure's layouts are held to."""
    if size > _CLOSURE_BYTES:
        raise ValueError(f"{thing} is too large: its {what} take {size:,} bytes, "
                         f"over the {_CLOSURE_BYTES:,}-byte budget")


def clique_union_csr(n: int, indptr: np.ndarray,
                     ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted symmetric CSR adjacency, without self-loops, of the union of
    cliques on ``n`` ids; clique ``i`` is ``ids[indptr[i]:indptr[i + 1]]``.
    Its bitsets, then its CSR ids, are held to ``_CLOSURE_BYTES`` before
    they are built, or a ``ValueError`` names n and the bytes."""
    graph = f"the conflict graph of {n} vertices"
    check_bytes(graph, "bitsets", 8 * (indptr.size - 1 + n) * words_for(n))
    adj = _clique_union(n, pack_rows(n, indptr, ids), indptr, ids)
    check_bytes(graph, "adjacency lists", 4 * int(popcounts(adj).sum()))
    return rows_csr(adj)


def clique_union_bits(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Symmetric adjacency bitsets of the union of cliques.

    Each entry of ``rows`` selects a bitset row of ``bits``; the vertices
    set in that row become pairwise adjacent.  The diagonal is cleared.
    The bytes are held to ``_CLOSURE_BYTES`` as in :func:`clique_union_csr`.
    """
    n = bits.shape[0]
    graph = f"the conflict graph of {n} vertices"
    check_bytes(graph, "bitsets", 8 * (rows.size + n) * bits.shape[1])
    members = bits[rows]
    check_bytes(graph, "clique lists", 4 * int(popcounts(members).sum()))
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


# -------------------------------------------------------- fields as words

# each count 0..8 of a field's bytes in an 8-byte big-endian word as the
# mask that keeps them: the word's leading bytes
_KEEP = np.array([0] + [(1 << 64) - (1 << (64 - 8 * b)) for b in range(1, 9)],
                 dtype=np.uint64)


def _within(size: np.ndarray) -> np.ndarray:
    """0..size[i]-1 for each run, the runs end to end."""
    return np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)


def field_words(word_at: np.ndarray, start: np.ndarray,
                size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fields of ``size`` bytes at ``start`` as big-endian words read
    from ``word_at`` (the word at each byte offset), zero past each
    field's end, the fields end to end, at least one word each; and each
    field's first word."""
    if size.max(initial=0) <= 8:  # one word each
        words = word_at[start]
        words &= _KEEP[size]
        return words, np.arange(size.size)
    count = np.maximum((size + 7) >> 3, 1)
    j = 8 * _within(count)
    words = word_at[np.repeat(start, count) + j]
    words &= _KEEP[np.clip(np.repeat(size, count) - j, 0, 8)]
    return words, np.cumsum(count) - count


def byte_order(words: np.ndarray, first: np.ndarray,
               size: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts fields by their UTF-8 bytes, from their words
    (:func:`field_words`), and which sorted places start a run of equal
    fields.  Round j sorts by word j (0 past a field's end) the runs tied
    in words 0..j-1 that hold a field of more than j words, keyed by
    their places.  Given ``size``, as text holding NUL must, a run tied
    in every word differs only in trailing NUL bytes, and is sorted by
    size, as a prefix sorts first."""
    n = first.size
    key = words if words.size == n else words[first]
    order = np.argsort(key)
    key = key[order]
    head = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    if words.size > n:  # some field has more than one word
        count = np.diff(first, append=words.size)
        live = np.arange(n)  # sorted places still tied
        for j in range(1, int(count.max())):
            h = np.flatnonzero(head[live])  # keep the runs of two or more
            runs = np.diff(h, append=live.size)  # with a field past word j
            deep = np.logical_or.reduceat(count[order[live]] > j, h)
            live = live[np.repeat((runs > 1) & deep, runs)]
            if not live.size:
                break
            f = order[live]
            key = np.where(count[f] > j, words[first[f] + np.minimum(j, count[f] - 1)], 0)
            by = np.lexsort((key, np.cumsum(head[live])))
            order[live], key = f[by], key[by]
            head[live[1:]] |= key[1:] != key[:-1]
    del key
    if size is None:
        return order, head
    fsize = size[order]
    if np.any(~head[1:] & (fsize[1:] != fsize[:-1])):
        by = np.lexsort((fsize, np.cumsum(head)))
        order, fsize = order[by], fsize[by]
        head[1:] |= fsize[1:] != fsize[:-1]
    return order, head


def fingerprints(words: np.ndarray, first: np.ndarray) -> np.ndarray:
    """One 64-bit fingerprint of each field's words: its first word plus
    a bijective mix of each later word with its place, so that a one-word
    field's fingerprint is that word."""
    if words.size == first.size:
        return words
    place = np.arange(words.size, dtype=np.uint64)
    place -= np.repeat(first, np.diff(first, append=words.size)).astype(np.uint64)
    x = (words ^ place * 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
    x ^= x >> 31
    x[first] = words[first]
    return np.add.reduceat(x, first)


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying permutes the words
_PROBES = 4  # a lookup's steps before crowded buckets are binary-searched


def key_index(keys: np.ndarray):
    """``find(q)``: for each of the uint64 values ``q``, the place in
    ``keys`` of an equal key, else of another key, and the probe rounds.
    The keys times ``_MIX``, whose top bits hang on every bit of a key
    (Knuth's multiplicative hashing), are sorted once and indexed by their
    top ceil(log2 n) bits; a value steps forward from its bucket's start
    while the key there is below it, for at most ``_PROBES`` rounds, and
    is binary-searched after, so it ends at its ``searchsorted`` place."""
    n = keys.size
    shift = 64 - max((n - 1).bit_length(), 1)
    mixed = keys * _MIX
    order = np.argsort(mixed)
    at = np.append(mixed[order], np.uint64(2**64 - 1))  # a sentinel last
    ptr = np.zeros((1 << (64 - shift)) + 1, dtype=np.int32)  # bucket starts
    np.cumsum(np.bincount((at[:n] >> shift).view(np.int64),
                          minlength=ptr.size - 1), out=ptr[1:])

    def find(q: np.ndarray) -> tuple[np.ndarray, int]:
        q = q * _MIX
        pos = ptr[(q >> shift).view(np.int64)]
        live = np.flatnonzero(at[pos] < q)
        rounds = 0
        while live.size and rounds < _PROBES:
            rounds += 1
            pos[live] += 1
            live = live[at[pos[live]] < q[live]]
        pos[live] = np.searchsorted(at[:n], q[live])
        return order[np.minimum(pos, n - 1)], rounds
    return find


def same_words(words: np.ndarray, at: np.ndarray, cwords: np.ndarray,
               cfirst: np.ndarray) -> bool:
    """Whether each field ``i`` of ``(cwords, cfirst)`` has the words that
    start at word ``at[i]`` of ``words``, the two fields of one size: the
    word-by-word check behind a fingerprint match."""
    if cwords.size == cfirst.size:  # one word each
        return np.array_equal(cwords, words[at])
    count = np.diff(cfirst, append=cwords.size)
    return np.array_equal(cwords, words[np.repeat(at - cfirst, count)
                                        + np.arange(cwords.size)])


def decode_fields(buf: np.ndarray, at: np.ndarray, size: np.ndarray) -> tuple[str, ...]:
    """The UTF-8 fields of ``size`` bytes at ``at`` in the bytes ``buf``,
    each followed by a byte of ``buf``, as strings, lone surrogates passed
    through: gathered ``_GATHER_BYTES`` at a time, each with the byte
    after it set to LF, decoded once and split at the LFs.  A field that
    holds a LF is split too, and only such fields are joined back."""
    cum = np.zeros(at.size + 1, dtype=np.int64)
    np.cumsum(size + 1, out=cum[1:])
    parts = []
    for a, b in _runs(cum, 0, at.size, _GATHER_BYTES):
        pick = np.repeat(at[a:b] - cum[a:b], size[a:b] + 1)
        pick += np.arange(cum[a], cum[b])
        pick = buf[pick]
        pick[cum[a + 1:b + 1] - cum[a] - 1] = 10
        parts.append(pick.tobytes())
    fields = b"".join(parts).decode("utf-8", "surrogatepass").split("\n")
    fields.pop()  # the empty string after the last LF
    if len(fields) == at.size:
        return tuple(fields)
    # each field's pieces: one per LF in its bytes, the one after it included
    lf = np.flatnonzero(np.frombuffer(b"".join(parts), dtype=np.uint8) == 10)
    count = np.bincount(np.searchsorted(cum, lf, "right") - 1, minlength=at.size)
    first = np.cumsum(count) - count
    out = np.array(fields, dtype=object)[first]
    for i in np.flatnonzero(count > 1).tolist():
        out[i] = "\n".join(fields[first[i]:first[i] + count[i]])
    return tuple(out.tolist())

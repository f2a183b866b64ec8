"""Hot inner loops; the closure is compiled with numba when available.

Three kernels carry most of the work on large digraphs: packed-bitset
reachability closure, clique union (the one conflict-graph builder, from
cliques given as CSR rows), and greedy sequential coloring over a CSR
adjacency, which seeds the exact solver.  The closure has a numba
``@njit`` build and an equivalent numpy-backend build; the clique union
and the coloring are numpy only, the coloring a plain Python loop over
the adjacency as lists.  The active backend is chosen at import time
from the ``DOWNCOLOR_NUMBA`` environment variable (``0``/``false``
forces the numpy path) and can be switched at runtime with
:func:`set_backend`.

Vertex ``u`` maps to bit ``u & 63`` of word ``u >> 6``.  Bitsets stay
inside this module and ``digraph``: :func:`rows_csr` decodes a whole
bitset matrix at once into sorted CSR rows, which is the form every
other module reads and every graph type holds; its ids are int32, its
row pointers int64.  The decode goes through a ``uint8`` view, which
assumes a little-endian host.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    HAS_NUMBA = False


def _initial_backend() -> str:
    flag = os.environ.get("DOWNCOLOR_NUMBA", "").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return "numpy"
    return "numba" if HAS_NUMBA else "numpy"


_BACKEND = _initial_backend()


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAS_NUMBA else ("numpy",)


def get_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> None:
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    global _BACKEND
    _BACKEND = name


def words_for(n: int) -> int:
    return (n + 63) >> 6


def popcounts(bits: np.ndarray) -> np.ndarray:
    """Per-row population counts of a bitset matrix."""
    if bits.size == 0:
        return np.zeros(bits.shape[0], dtype=np.int64)
    return np.bitwise_count(bits).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------- closure

def _closure_np(n, indptr, indices, order):
    W = words_for(n)
    bits = np.zeros((n, W), dtype=np.uint64)
    shifts = np.uint64(1) << (np.arange(n, dtype=np.uint64) & np.uint64(63))
    for u in order:
        row = bits[u]
        row[u >> 6] |= shifts[u]
        for k in range(indptr[u], indptr[u + 1]):
            np.bitwise_or(row, bits[indices[k]], out=row)
    return bits


if HAS_NUMBA:

    @njit(cache=True)
    def _closure_nb(n, indptr, indices, order):  # pragma: no cover - compiled
        W = (n + 63) >> 6
        bits = np.zeros((n, W), dtype=np.uint64)
        one = np.uint64(1)
        for i in range(n):
            u = order[i]
            bits[u, u >> 6] |= one << np.uint64(u & 63)
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                for w in range(W):
                    bits[u, w] |= bits[v, w]
        return bits


def closure_bits(n: int, indptr: np.ndarray, indices: np.ndarray,
                 order: np.ndarray) -> np.ndarray:
    """Closed reachability bitsets, one row per vertex.

    ``order`` must list every vertex after all of its out-neighbours
    (reverse topological order), so each row is its own bit OR-ed with
    the finished rows of its children.
    """
    if n == 0:
        return np.zeros((0, 0), dtype=np.uint64)
    if _BACKEND == "numba":
        return _closure_nb(n, indptr, indices, order)
    return _closure_np(n, indptr, indices, order)


# --------------------------------------------------------- bitsets <-> CSR

def rows_csr(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode bitset rows into CSR: row ``i`` lists its set bit positions,
    ascending, in ``indices[indptr[i]:indptr[i + 1]]``.  Only the nonzero
    words are unpacked."""
    row, word = np.nonzero(bits)
    flags = np.unpackbits(bits[row, word].view(np.uint8).reshape(-1, 8),
                          axis=1, bitorder="little")
    hit, bit = np.nonzero(flags)
    indptr = np.zeros(bits.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[hit], minlength=bits.shape[0]), out=indptr[1:])
    ids = word[hit].astype(np.int32) << 6
    ids += bit
    return indptr, ids


def pack_rows(n: int, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Bitset rows over ``n`` ids; row ``i`` holds ``ids[indptr[i]:indptr[i + 1]]``."""
    out = np.zeros((indptr.size - 1, words_for(n)), dtype=np.uint64)
    np.bitwise_or.at(out, (np.repeat(np.arange(indptr.size - 1), np.diff(indptr)),
                           ids >> 6), np.uint64(1) << (ids & 63).astype(np.uint64))
    return out


def csr_edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``u < v`` of a symmetric CSR adjacency as two id arrays
    ``(u, v)``; sorted when the rows are."""
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    up = src < indices
    return src[up], indices[up]


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


def clique_union_csr(n: int, indptr: np.ndarray,
                     ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted symmetric CSR adjacency, without self-loops, of the union of
    cliques on ``n`` ids; clique ``i`` is ``ids[indptr[i]:indptr[i + 1]]``."""
    return rows_csr(_clique_union(n, pack_rows(n, indptr, ids), indptr, ids))


def clique_union_bits(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Symmetric adjacency bitsets of the union of cliques.

    Each entry of ``rows`` selects a bitset row of ``bits``; the vertices
    set in that row become pairwise adjacent.  The diagonal is cleared.
    """
    members = bits[rows]
    return _clique_union(bits.shape[0], members, *rows_csr(members))


# --------------------------------------------------------- greedy coloring

def greedy_color(order: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray) -> np.ndarray:
    """First-fit coloring along ``order``: each vertex gets the smallest
    color, 1-based, not used by an already-colored neighbour."""
    ptr, ids = indptr.tolist(), indices.tolist()
    colors = [0] * order.shape[0]
    for v in order.tolist():
        used = {colors[w] for w in ids[ptr[v]:ptr[v + 1]]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return np.array(colors, dtype=np.int64)

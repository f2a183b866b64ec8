import random

import numpy as np
import pytest

from downcolor import _kernels
from downcolor._kernels import (
    clique_union_bits,
    clique_union_csr,
    closure_bits,
    greedy_color,
    popcounts,
    reverse_csr,
    rows_csr,
    sink_levels,
    words_for,
)


def csr(n, adj):
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    for u in range(n):
        indices.extend(sorted(adj.get(u, ())))
        indptr[u + 1] = len(indices)
    return indptr, np.asarray(indices, dtype=np.int64)


def random_dag_csr(rng, n, p):
    # ids are already topological: edges only run small -> large
    adj = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj.setdefault(i, []).append(j)
    indptr, indices = csr(n, adj)
    order = np.arange(n - 1, -1, -1, dtype=np.int64)
    return indptr, indices, order, adj


def bit_ids(row):
    """Reference decode of one bitset row: its set bit positions, ascending."""
    return np.nonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))[0].tolist()


def reach_sets(n, adj):
    out = []
    for u in range(n):
        seen = {u}
        stack = [u]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
    return out


def test_words_for():
    assert [words_for(k) for k in (0, 1, 63, 64, 65, 128)] == [0, 1, 1, 1, 2, 2]


def test_rows_csr_and_popcounts():
    rng = random.Random(5)
    for n in (0, 1, 63, 64, 65, 200):
        bits = np.zeros((n, words_for(n)), dtype=np.uint64)
        for u in range(n):
            if u % 3:  # every third row stays all-zero
                for v in rng.sample(range(n), rng.randint(0, n)):
                    bits[u, v >> 6] |= np.uint64(1) << np.uint64(v & 63)
        indptr, ids = rows_csr(bits)
        assert (indptr.dtype, ids.dtype) == (np.int64, np.int32)
        assert indptr.tolist()[0] == 0 and indptr.size == n + 1
        assert [ids[indptr[u]:indptr[u + 1]].tolist() for u in range(n)] == \
            [bit_ids(bits[u]) for u in range(n)]
        assert np.diff(indptr).tolist() == popcounts(bits).tolist()


def test_closure_matches_reachability():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 90)
        indptr, indices, order, adj = random_dag_csr(rng, n, 0.15)
        bits = closure_bits(n, indptr, indices, order)
        want = reach_sets(n, adj)
        for u in range(n):
            assert set(bit_ids(bits[u])) == want[u]


def test_sink_levels_group_by_height():
    # height: edges on the longest path down to a sink
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(0, 60)
        indptr, indices, order, adj = random_dag_csr(rng, n, rng.choice([0.03, 0.1, 0.3]))
        height = [0] * n
        for u in order.tolist():
            height[u] = max((height[v] + 1 for v in adj.get(u, ())), default=0)
        verts, lptr = sink_levels(indptr, *reverse_csr(n, indptr, indices))
        assert lptr[0] == 0 and lptr[-1] == n
        assert [verts[lptr[h]:lptr[h + 1]].tolist() for h in range(lptr.size - 1)] == \
            [[u for u in range(n) if height[u] == h] for h in range(max(height, default=-1) + 1)]
        if indices.size:  # close the longest path into a cycle
            top = low = height.index(max(height))
            while adj.get(low):
                low = next(v for v in adj[low] if height[v] == height[low] - 1)
            indptr, indices = csr(n, {**adj, low: [top]})
            assert sink_levels(indptr, *reverse_csr(n, indptr, indices)) is None


def test_clique_union_matches_pair_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 80)
        indptr, indices, order, adj = random_dag_csr(rng, n, 0.15)
        bits = closure_bits(n, indptr, indices, order)
        maxes = np.asarray(
            sorted(set(range(n)) - {v for vs in adj.values() for v in vs}),
            dtype=np.int64)
        out = clique_union_bits(bits, maxes)
        want = {frozenset((a, b))
                for w in maxes.tolist()
                for a in bit_ids(bits[w])
                for b in bit_ids(bits[w]) if a != b}
        got = {frozenset((u, v))
               for u in range(n) for v in bit_ids(out[u])}
        assert got == want
        # diagonal stays clear
        for u in range(n):
            assert u not in bit_ids(out[u])


def test_clique_union_csr_matches_pair_oracle():
    # cliques as CSR rows, in any order inside a row, with repeated,
    # nested, single-vertex and empty cliques; n = 0 included
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 140)
        cliques = []
        for _ in range(rng.randint(0, 12)):
            r = rng.random()
            if cliques and r < 0.2:
                cliques.append(rng.choice(cliques))
            elif cliques and r < 0.4:
                base = rng.choice(cliques)
                cliques.append(rng.sample(base, rng.randint(0, len(base))))
            elif n and r < 0.5:
                cliques.append([rng.randrange(n)])
            else:
                cliques.append(rng.sample(range(n), rng.randint(0, min(n, 9))))
        indptr = np.zeros(len(cliques) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in cliques], out=indptr[1:])
        ids = np.array([v for c in cliques for v in c], dtype=np.int32)
        got_ptr, got_ids = clique_union_csr(n, indptr, ids)
        want = [sorted({b for c in cliques if a in c for b in c} - {a})
                for a in range(n)]
        assert got_ptr.dtype == np.int64 and got_ids.dtype == np.int32
        assert np.array_equal(got_ptr, np.cumsum([0] + [len(r) for r in want]))
        assert got_ids.tolist() == [b for row in want for b in row]


def test_clique_union_refused_over_the_byte_budget(monkeypatch):
    def refused(fn, *args):
        with pytest.raises(ValueError) as ei:
            fn(*args)
        return str(ei.value)

    # one clique of 5 ids: 1 + 5 bitset rows of one word, then 20
    # adjacency ids
    ptr, ids = np.array([0, 5]), np.arange(5, dtype=np.int32)
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 47)
    assert refused(clique_union_csr, 5, ptr, ids) == (
        "the conflict graph of 5 vertices is too large: its bitsets take "
        "48 bytes, over the 47-byte budget")
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 79)
    assert refused(clique_union_csr, 5, ptr, ids) == (
        "the conflict graph of 5 vertices is too large: its adjacency lists "
        "take 80 bytes, over the 79-byte budget")
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 80)
    assert clique_union_csr(5, ptr, ids)[1].size == 20
    # 64 selections of a full 64-id row: 64 + 64 bitset rows of one word,
    # then 4096 clique ids
    bits = np.full((64, 1), np.uint64(2**64 - 1))
    rows = np.zeros(64, dtype=np.int64)
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 1023)
    assert refused(clique_union_bits, bits, rows) == (
        "the conflict graph of 64 vertices is too large: its bitsets take "
        "1,024 bytes, over the 1,023-byte budget")
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 16383)
    assert refused(clique_union_bits, bits, rows) == (
        "the conflict graph of 64 vertices is too large: its clique lists "
        "take 16,384 bytes, over the 16,383-byte budget")
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 16384)
    assert popcounts(clique_union_bits(bits, rows)).tolist() == [63] * 64


def test_greedy_color_first_fit():
    rng = random.Random(13)

    def check(n, sym):
        indptr, indices = csr(n, sym)
        perm = list(range(n))
        rng.shuffle(perm)
        order = np.asarray(perm, dtype=np.int64)
        got = greedy_color(order, indptr, indices)
        colors = {}
        for v in perm:
            used = {colors[w] for w in sym.get(v, ()) if w in colors}
            c = 1
            while c in used:
                c += 1
            colors[v] = c
        assert got.tolist() == [colors[v] for v in range(n)]
        return got.tolist()

    for _ in range(25):
        n = rng.randint(1, 60)
        sym = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    sym.setdefault(i, []).append(j)
                    sym.setdefault(j, []).append(i)
        check(n, sym)
    # the ends of the first-fit search: nothing used, everything used
    assert check(1, {}) == [1]
    assert check(7, {}) == [1] * 7
    complete = {i: [j for j in range(9) if j != i] for i in range(9)}
    assert sorted(check(9, complete)) == list(range(1, 10))

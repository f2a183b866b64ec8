"""Time the numpy kernels on a layered random DAG and on a path.

Vertices sit in sqrt(n)-wide layers with edges only between adjacent
layers, which keeps closures large enough to exercise the bitset paths.
The closure makes one numpy step per height level, so a path of the same
n, with n levels, is its worst case; both are timed, through
``closure_bits`` and through ``Digraph._down_sets()`` (peel, closure and
decode), with their level counts and the level at which the CSR merge
stopped for bitsets (``_bits_level``: 1 when it never started, None when
it ran throughout).

    python3 benchmarks/bench_kernels.py --n 3000 --density 0.3 --repeat 5
"""
import argparse
import math
import random
import time

import numpy as np

from downcolor import Digraph
from downcolor._kernels import (
    clique_union_bits,
    closure_bits,
    greedy_color,
    reverse_csr,
    rows_csr,
    sink_levels,
)


def layered_dag(rng: random.Random, n: int, density: float):
    width = max(1, round(math.sqrt(n)))
    layers = [list(range(i, min(i + width, n))) for i in range(0, n, width)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in b:
                if rng.random() < density:
                    indices.append((u, v))
    indices.sort()
    adj = [[] for _ in range(n)]
    for u, v in indices:
        adj[u].append(v)
    flat = []
    for u in range(n):
        flat.extend(adj[u])
        indptr[u + 1] = len(flat)
    order = np.arange(n - 1, -1, -1, dtype=np.int64)
    maxes = np.asarray(layers[0], dtype=np.int64)
    return indptr, np.asarray(flat, dtype=np.int64), order, maxes


def path_dag(n: int):
    """The path 0 -> 1 -> ... -> n-1 as CSR, with a reverse topological
    order: n levels of one vertex each."""
    indptr = np.minimum(np.arange(n + 1), n - 1)
    indices = np.arange(1, n, dtype=np.int64)
    return indptr, indices, np.arange(n - 1, -1, -1, dtype=np.int64)


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def time_closure(name, n, indptr, indices, order, repeat):
    levels = sink_levels(indptr, *reverse_csr(n, indptr, indices))[1].size - 1
    g = Digraph((f"v{u}" for u in range(n)),
                zip(np.repeat(np.arange(n), np.diff(indptr)).tolist(),
                    indices.tolist()))

    def down_sets():
        g._down = None  # drop the cached rows so each call rebuilds them
        g._down_sets()

    t_bits = best_of(repeat, lambda: closure_bits(n, indptr, indices, order))
    t_down = best_of(repeat, down_sets)
    print(f"{name:>7}: levels {levels:6d}   closure_bits {t_bits * 1e3:8.2f} ms   "
          f"_down_sets {t_down * 1e3:8.2f} ms   _bits_level {g._bits_level}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3000, help="vertex count")
    ap.add_argument("--density", type=float, default=0.3,
                    help="edge probability between adjacent layers")
    ap.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    indptr, indices, order, maxes = layered_dag(rng, args.n, args.density)
    print(f"n={args.n} edges={indices.size} layers~{round(math.sqrt(args.n))} "
          f"repeat={args.repeat}")
    time_closure("layered", args.n, indptr, indices, order, args.repeat)
    time_closure("path", args.n, *path_dag(args.n), args.repeat)

    bits = closure_bits(args.n, indptr, indices, order)
    conflict = clique_union_bits(bits, maxes)
    gp, gi = rows_csr(conflict)
    t_clique = best_of(args.repeat, lambda: clique_union_bits(bits, maxes))
    t_greedy = best_of(args.repeat, lambda: greedy_color(order, gp, gi))
    print(f"clique union {t_clique * 1e3:8.2f} ms   "
          f"greedy {t_greedy * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()

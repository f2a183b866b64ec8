"""Compare the numba and numpy kernel backends on layered random DAGs.

Vertices sit in sqrt(n)-wide layers with edges only between adjacent
layers, which keeps closures large enough to exercise the bitset paths.

    python3 benchmarks/bench_kernels.py --n 3000 --density 0.3 --repeat 5
"""
import argparse
import math
import random
import time

import numpy as np

from downcolor._kernels import (
    available_backends,
    clique_union_bits,
    closure_bits,
    greedy_color,
    rows_csr,
    set_backend,
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


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


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

    results = {}
    for backend in available_backends():
        set_backend(backend)
        # warm once per backend; the first numba call compiles
        bits = closure_bits(args.n, indptr, indices, order)
        conflict = clique_union_bits(bits, maxes)
        gp, gi = rows_csr(conflict)
        greedy_color(order, gp, gi)

        t_close = best_of(args.repeat,
                          lambda: closure_bits(args.n, indptr, indices, order))
        t_clique = best_of(args.repeat, lambda: clique_union_bits(bits, maxes))
        t_greedy = best_of(args.repeat, lambda: greedy_color(order, gp, gi))
        results[backend] = (t_close, t_clique, t_greedy)
        print(f"{backend:>6}: closure {t_close * 1e3:8.2f} ms   "
              f"clique {t_clique * 1e3:8.2f} ms   "
              f"greedy {t_greedy * 1e3:8.2f} ms")

    if len(results) == 2:
        # the clique union and the first-fit have one (numpy) build each,
        # so only the closure compares
        ratio = results["numpy"][0] / results["numba"][0]
        print(f"numba speedup on closure: {ratio:.2f}x")


if __name__ == "__main__":
    main()

"""Time the exact solver's stages on seeded partial affine planes.

Each instance is the up-digraph of a random 40-50% share of the lines
of AG(2, q), as in the pipeline benchmark's exact workload, and the
solver runs on the conflict graph of its open down-hypergraph, as
``down_coloring(g, "exact")`` does.  Four stages are timed apart, each
as the best of ``--repeat`` runs: the conflict build (clique union to
CSR, then the dense bool matrix), the first-fit upper-bound seed (the
greedy strong coloring of the graph's ``u < v`` pairs), the greedy
clique seed, and the DSATUR search.  A search that stops at the
node budget has expanded exactly ``--budget`` nodes, so its time per
node is printed too.

    python3 benchmarks/bench_exact.py --q 11 --seed 1 --budget 5000
"""
import argparse
import random
import time

import downcolor as dc
from downcolor import _kernels
from downcolor.coloring import _dense, _dsatur, _greedy_clique, _greedy_strong


def partial_planes(q: int, seed: int, count: int):
    """Up-digraphs of ``count`` seeded random line subsets of AG(2, q)."""
    plane, _ = dc.affine_design(dc.build_field(*dc.prime_power(q)), 2)
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}:{q}:{i}")
        share = rng.uniform(0.4, 0.5)
        chosen = sorted(rng.sample(range(plane.m), round(share * plane.m)))
        out.append(dc.up_digraph(dc.Hypergraph(
            plane.labels, [plane.edges[j] for j in chosen], simple=True)))
    return out


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=11, help="prime power order")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget", type=int, default=5000, help="node budget")
    ap.add_argument("--count", type=int, default=10, help="instances")
    ap.add_argument("--repeat", type=int, default=3, help="best-of runs")
    args = ap.parse_args()

    stages = ("conflict", "ub_seed", "clique_seed", "search")
    total = dict.fromkeys(stages, 0.0)
    stopped_s, stopped = 0.0, 0
    for g in partial_planes(args.q, args.seed, args.count):
        g.topological_order()
        h = dc.down_hypergraph(g)
        n, (eptr, members) = h.n, h._csr

        def conflict():
            csr = _kernels.clique_union_csr(n, eptr, members)
            return csr, _dense(*csr)

        t = {}
        t["conflict"], ((indptr, indices), a) = best_of(args.repeat, conflict)
        t["ub_seed"], ub = best_of(args.repeat, lambda: _greedy_strong(
            n, *_kernels.csr_edges(indptr, indices)))
        t["clique_seed"], clique = best_of(args.repeat, lambda: _greedy_clique(a))
        best_k = max(ub)
        exact = True
        t["search"] = 0.0
        if len(clique) < best_k:
            t["search"], (_, exact) = best_of(
                args.repeat, lambda: _dsatur(a, clique, best_k, args.budget))
        for s in stages:
            total[s] += t[s]
        if not exact:
            stopped += 1
            stopped_s += t["search"]
    print(f"q={args.q} seed={args.seed} budget={args.budget} "
          f"instances={args.count} repeat={args.repeat}")
    print("ms per instance: " + "  ".join(
        f"{s} {total[s] / args.count * 1e3:.3f}" for s in stages))
    if stopped:
        print(f"budget stops: {stopped}, search "
              f"{stopped_s / (stopped * args.budget) * 1e6:.2f} us per node")
    else:
        print("budget stops: 0")


if __name__ == "__main__":
    main()

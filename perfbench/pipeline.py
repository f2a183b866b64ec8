"""One benchmark op: edge-list text to audited compact table.

``run_op`` times the pipeline with tracing off.  ``run_traced_op`` makes
the same public calls in the same order, each inside a span, and after
each call that contains public sub-steps it times those sub-steps again
as standalone calls on the same inputs.  Such replica spans name the
call they replicate as their parent, so a parent's self time is its
duration minus theirs.  ``check`` is the correctness gate; it runs after
the timed calls and never inside a span.
"""
from __future__ import annotations

import contextlib
import hashlib
import random
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

import downcolor as dc
import speed
from downcolor import _kernels

clock = time.perf_counter

ORACLE_SAMPLE = 16


@dataclass
class Colored:
    coloring: dc.Coloring
    lower: int | None   # exact mode: the solver's lower bound
    stopped: bool       # exact mode: the node budget ran out


@dataclass
class Outcome:
    colored: Colored
    table: dc.CompactMatrix
    csv: str
    reparsed: dc.CompactMatrix
    verified: bool
    ac: dc.AcCheck


def color(g: dc.Digraph, inst) -> Colored:
    """``down_coloring`` as ``downcolor color`` runs it; a budget stop is
    a documented outcome whose incumbent coloring is used."""
    if inst.mode == "greedy":
        return Colored(dc.down_coloring(g), None, False)
    try:
        c = dc.down_coloring(g, "exact", cap=g.n, budget=inst.budget)
    except dc.CapExceededError as exc:
        if exc.partial is None:
            raise
        return Colored(exc.partial, exc.lower, True)
    return Colored(c, c.k, False)


def run_op(inst) -> tuple[dict[str, float], dict[str, float], Outcome]:
    """Wall time of each stage, and each stage's time at reference speed:
    the reference loop runs before each stage and after the last, outside
    the timed stages."""
    r0 = speed.reference()
    t0 = clock()
    g = dc.parse_digraph(inst.text)
    colored = color(g, inst)
    t1 = clock()
    r1 = speed.reference()
    t2 = clock()
    m = dc.build_compact(g, colored.coloring)
    csv = dc.serialize(m, "csv")
    t3 = clock()
    r2 = speed.reference()
    t4 = clock()
    g2 = dc.parse_digraph(inst.text)
    m2 = dc.parse_compact(csv)
    ok = dc.verify_down_coloring(g2, colored.coloring)
    ac = dc.verify_ac_property(m2, g2)
    t5 = clock()
    r3 = speed.reference()
    wall = {"color_s": t1 - t0, "table_s": t3 - t2, "audit_s": t5 - t4}
    at_ref = {"color_s": speed.scaled(t1 - t0, r0, r1),
              "table_s": speed.scaled(t3 - t2, r1, r2),
              "audit_s": speed.scaled(t5 - t4, r2, r3)}
    return wall, at_ref, Outcome(colored, m, csv, m2, ok, ac)


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans kept in memory as (id, parent, op, name, start, end, stage).

    ``stage`` is set on the pipeline's own top-level calls (color, table,
    audit) and None on replicas and input generation.  Times are seconds
    since the tracer was made.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "gen"
        self._t0 = clock()

    def call(self, name, fn, *args, parent=None, stage=None, **kw):
        t0 = clock()
        try:
            return fn(*args, **kw), len(self.spans)
        finally:
            self.spans.append((len(self.spans), parent, self.op, name,
                               t0 - self._t0, clock() - self._t0, stage))

    @contextlib.contextmanager
    def __call__(self, name):
        """A span around a block, for input generation."""
        t0 = clock()
        try:
            yield
        finally:
            self.spans.append((len(self.spans), None, self.op, name,
                               t0 - self._t0, clock() - self._t0, None))


def _csr(n, neighbors):
    indptr = np.zeros(n + 1, dtype=np.int64)
    rows = [neighbors(u) for u in range(n)]
    indptr[1:] = np.cumsum([len(r) for r in rows])
    indices = np.fromiter((v for r in rows for v in r), dtype=np.int64,
                          count=int(indptr[-1]))
    return indptr, indices


def _closure_replica(tr, g, parent, counts):
    n = g.n
    indptr, indices = _csr(n, g.children)
    order = np.array(g.topological_order()[::-1], dtype=np.int64)
    bits, _ = tr.call("kernels.closure_bits", _kernels.closure_bits,
                      n, indptr, indices, order, parent=parent)
    words = bits.shape[1]
    # each edge ORs a child row into the parent row: two reads, one write
    counts["kernels.closure_bits_ops"] += indices.size * words
    counts["kernels.closure_bits_bytes"] += 8 * 3 * indices.size * words + bits.nbytes
    return bits


def _violation_replicas(tr, g, coloring, bits, parent, counts):
    _, s = tr.call("coloring.find_down_violation", dc.find_down_violation,
                   g, coloring, parent=parent)
    dg, s = tr.call("digraph.down_graph", dc.down_graph, g, parent=s)
    rows = np.fromiter(sorted(dc.max_vertices(g)), dtype=np.int64)
    tr.call("kernels.clique_union_bits", _kernels.clique_union_bits,
            bits, rows, parent=s)
    # every member of a maximal row ORs that whole row into its own
    ors = int(_kernels.popcounts(bits[rows]).sum()) * bits.shape[1]
    counts["kernels.clique_union_bits_ops"] += ors
    counts["kernels.clique_union_bits_bytes"] += 8 * 3 * ors + bits.nbytes
    return dg


def _strong_replicas(tr, h, inst, cap, parent, counts):
    if inst.mode == "greedy":
        _, s = tr.call("coloring.greedy_strong_coloring",
                       dc.greedy_strong_coloring, h, parent=parent)
    else:
        _, s = tr.call("coloring.exact_strong_chromatic",
                       dc.exact_strong_chromatic, h, cap=cap,
                       budget=inst.budget, parent=parent)
    cg, _ = tr.call("hypergraph.clique_graph", dc.clique_graph, h, parent=s)
    deg, _ = tr.call("hypergraph.graph_degeneracy", dc.graph_degeneracy, cg,
                     parent=s)
    order = np.array(deg.order[::-1], dtype=np.int64)
    indptr, indices = _csr(cg.n, cg.neighbors)
    tr.call("kernels.greedy_color", _kernels.greedy_color,
            order, indptr, indices, parent=s)
    counts["hypergraph.pair_attempts"] += sum(
        len(e) * (len(e) - 1) // 2 for e in h.edges)
    counts["hypergraph.clique_edges"] += cg.edge_count
    counts["kernels.greedy_color_ops"] += indices.size
    counts["kernels.greedy_color_bytes"] += 8 * (indptr.size + 2 * indices.size
                                                 + 2 * cg.n)


def run_traced_op(inst, tr: Tracer, counts) -> Outcome:
    """The calls of ``run_op`` in spans, followed by replicas of their
    public sub-steps.  ``big_d`` runs first on each fresh digraph so the
    closure the digraph caches is timed on its own."""
    call = tr.call
    g, _ = call("digraph.parse_digraph", dc.parse_digraph, inst.text,
                stage="color")
    _, s = call("digraph.big_d", dc.big_d, g, stage="color")
    bits = _closure_replica(tr, g, s, counts)
    colored, s = call("coloring.down_coloring", color, g, inst, stage="color")
    h, _ = call("hypergraph.down_hypergraph", dc.down_hypergraph, g, parent=s)
    _strong_replicas(tr, h, inst, g.n, s, counts)

    m, s = call("compact.build_compact", dc.build_compact, g,
                colored.coloring, stage="table")
    dg = _violation_replicas(tr, g, colored.coloring, bits, s, counts)
    csv, _ = call("compact.serialize", dc.serialize, m, "csv", stage="table")

    g2, _ = call("digraph.parse_digraph", dc.parse_digraph, inst.text,
                 stage="audit")
    _, s = call("digraph.big_d", dc.big_d, g2, stage="audit")
    bits2 = _closure_replica(tr, g2, s, counts)
    m2, _ = call("compact.parse_compact", dc.parse_compact, csv,
                 stage="audit")
    ok, s = call("coloring.verify_down_coloring", dc.verify_down_coloring,
                 g2, colored.coloring, stage="audit")
    _violation_replicas(tr, g2, colored.coloring, bits2, s, counts)
    ac, _ = call("compact.verify_ac_property", dc.verify_ac_property, m2, g2,
                 stage="audit")
    counts["digraph.closure_bytes"] += bits.nbytes
    counts["digraph.conflict_edges"] += dg.edge_count
    counts["compact.csv_bytes"] += len(csv.encode())
    counts["compact.cells"] += len(m.labels) * m.k
    counts["compact.filled_cells"] += sum(
        v is not None for row in m.rows.values() for v in row)
    return Outcome(colored, m, csv, m2, ok, ac)


# --------------------------------------------------------- correctness gate

@dataclass
class Reference:
    """Per-instance facts the gate checks against, computed once."""

    n: int
    edges: int
    maximal: int
    big_d: int
    cor1_bound: int
    labels: frozenset[str]            # from the text, by the oracle
    down: dict[str, frozenset[str]]   # oracle closed down-sets of a sample


def oracle(text: str, rng: random.Random):
    """All vertex labels, and the closed down-sets of a random sample of
    them by BFS over the edge-list text; no library calls."""
    labels: set[str] = set()
    kids: dict[str, list[str]] = {}
    for line in text.splitlines():
        toks = line.split()
        labels.update(toks)
        if len(toks) == 2:
            kids.setdefault(toks[0], []).append(toks[1])
    out = {}
    for u in rng.sample(sorted(labels), min(ORACLE_SAMPLE, len(labels))):
        seen = {u}
        queue = deque([u])
        while queue:
            for v in kids.get(queue.popleft(), ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        out[u] = frozenset(seen)
    return frozenset(labels), out


def reference(inst, seed: int) -> Reference:
    g = dc.parse_digraph(inst.text)
    bounds = dc.bound_report(g)
    labels, down = oracle(inst.text, random.Random(f"{seed}:{inst.name}"))
    return Reference(g.n, g.edge_count, len(dc.max_vertices(g)),
                     bounds.big_d, bounds.cor1_bound, labels, down)


def check(inst, out: Outcome, ref: Reference) -> list[str]:
    """Every reason this op's outputs are wrong; empty when correct."""
    problems = []
    c = out.colored.coloring
    if not out.verified:
        problems.append("verify_down_coloring is false")
    if not out.ac.ok:
        problems.append(f"verify_ac_property clause {out.ac.clause}: "
                        f"{out.ac.detail}")
    if out.reparsed != out.table:
        problems.append("parse_compact(serialize(m)) != m")
    if inst.mode == "greedy":
        if not ref.big_d <= c.k <= ref.cor1_bound:
            problems.append(f"greedy k={c.k} outside [D={ref.big_d}, "
                            f"cor1={ref.cor1_bound}]")
    elif c.k < max(out.colored.lower, ref.big_d):
        problems.append(f"exact k={c.k} below lower bound "
                        f"{out.colored.lower} or D={ref.big_d}")
    if set(out.table.labels) != ref.labels:
        problems.append("oracle: table rows differ from the text's vertices")
        return problems
    for u, want in ref.down.items():
        row = out.table.rows[u]
        got = {v for v in row if v is not None}
        if got != want:
            problems.append(f"oracle: row {u} holds {len(got)} vertices, "
                            f"BFS finds {len(want)}")
        elif any(v is not None and c.colors[v] != j + 1
                 for j, v in enumerate(row)):
            problems.append(f"oracle: row {u} has a cell in the wrong column")
    return problems


def digest(c: dc.Coloring) -> str:
    return hashlib.sha256(dc.coloring_to_json(c).encode()).hexdigest()

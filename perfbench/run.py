"""Pipeline benchmark: edge-list text to audited compact table.

    python3 perfbench/run.py --workload dense-layered --seed 1 --seconds 30 --trace 0

Run it from a source checkout of downcolor: it imports the package from
``src/`` and the layered-DAG rule from ``benchmarks/bench_kernels.py``,
and exits with code 2 when either is missing.

Each op takes one generated instance through the public API on one
``Digraph``: ``parse_digraph`` -> ``down_coloring`` -> ``build_compact``
-> ``serialize(..., "csv")`` (the pipeline), then audits the table the way
a consumer who was handed it would: a fresh ``parse_digraph``,
``parse_compact``, ``verify_down_coloring`` and ``verify_ac_property``.
Every op passes a correctness gate and an independent BFS oracle outside
the timed calls; an op that fails either, or raises, counts as failed and
its times stay in the sample (an exception as infinity).

The run repeats whole rounds over the workload's instances until another
round would pass ``--seconds``.  One process, one thread, closed loop: the
next op starts when the last one ends.

``--trace 0`` prints the end-to-end metrics: the time per instance of
``pipeline_s``, ``color_s`` (parse + coloring), ``table_s`` (build +
serialize) and ``audit_s``, each the mean over the workload's instances
of that instance's median over the run's rounds; ``setup_s`` (median
over fresh interpreters of importing downcolor plus one pipeline run on
the paper's six-vertex example); ``peak_rss_mb``; and ``k_total`` (the
sum of the table widths over the run's instances).  The timings are
seconds at reference speed: a fixed loop of the benchmark's own
(``speed.py``) is timed before each stage and after the last, and each
stage's wall time is scaled by how much faster or slower than
``speed.REF_S`` the host ran the loop around it, because the speed of a
shared host's cores drifts by more than a regression bound between runs.
The medians, tails and sample counts of the scaled and the wall times
are printed and recorded.  ``--trace 1`` follows each untraced op with
a traced op on the same instance and prints per-layer metrics: span
times per op, counts computed from array shapes, and the tracing
overhead between the paired untraced and traced ops.  A ``_self_s``
metric is a span minus the standalone replicas of its public sub-steps;
where the parent's own work is small next to theirs it can read slightly
below zero, within the noise of timing the replicas separately.  Spans
are kept in memory and written with the full record to
``perfbench/out/``.
"""
from __future__ import annotations

import os

# one thread: no BLAS pool next to the interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = ("src/downcolor/__init__.py", "benchmarks/bench_kernels.py")

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"
SETUP_REPEATS = 7
# the reference loop runs in the same interpreter after the timed part,
# on whichever core that interpreter ran
SETUP_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import downcolor as dc
g = dc.parse_digraph({six!r})
dc.serialize(dc.build_compact(g, dc.down_coloring(g)), "csv")
wall = time.perf_counter() - t0
sys.path.insert(0, {here!r})
import speed
ref = sorted(speed.reference() for _ in range(3))[1]
print(wall, speed.scaled(wall, ref, ref))
"""

STAGE_METRICS = ("pipeline_s", "color_s", "table_s", "audit_s")

# per-layer metric -> (span names, "incl" for whole spans or "self" for
# spans minus their replicated sub-steps), summed per traced op
SPAN_METRICS = {
    "digraph.parse_digraph_s": (("digraph.parse_digraph",), "incl"),
    "digraph.closure_s": (("digraph.big_d",), "incl"),
    "digraph.down_graph_s": (("digraph.down_graph",), "incl"),
    "hypergraph.down_hypergraph_s": (("hypergraph.down_hypergraph",), "incl"),
    "hypergraph.clique_graph_s": (("hypergraph.clique_graph",), "incl"),
    "hypergraph.graph_degeneracy_s": (("hypergraph.graph_degeneracy",), "incl"),
    "coloring.down_coloring_self_s": (("coloring.down_coloring",), "self"),
    "coloring.strong_coloring_self_s": (("coloring.greedy_strong_coloring",
                                         "coloring.exact_strong_chromatic"),
                                        "self"),
    "coloring.find_down_violation_s": (("coloring.find_down_violation",), "incl"),
    "compact.build_compact_self_s": (("compact.build_compact",), "self"),
    "compact.serialize_s": (("compact.serialize",), "incl"),
    "compact.parse_compact_s": (("compact.parse_compact",), "incl"),
    "compact.verify_ac_property_s": (("compact.verify_ac_property",), "incl"),
    "kernels.closure_bits_s": (("kernels.closure_bits",), "incl"),
    "kernels.clique_union_bits_s": (("kernels.clique_union_bits",), "incl"),
    "kernels.greedy_color_s": (("kernels.greedy_color",), "incl"),
}
COUNT_METRICS = (
    "digraph.closure_bytes", "digraph.conflict_edges",
    "hypergraph.pair_attempts", "hypergraph.clique_edges",
    "compact.csv_bytes", "compact.cells", "compact.filled_cells",
    "kernels.closure_bits_ops", "kernels.closure_bits_bytes",
    "kernels.clique_union_bits_ops", "kernels.clique_union_bits_bytes",
    "kernels.greedy_color_ops", "kernels.greedy_color_bytes",
)
UNITS = {"_s": "s", "_bytes": "B", "_frac": "fraction", "_yield": "fraction",
         "_mb": "MB"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)),
                "count")


def require_checkout() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("perfbench: run from a downcolor source checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    from downcolor import _kernels

    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"backend": _kernels.get_backend(), "has_numba": _kernels.HAS_NUMBA,
            "numpy": np.__version__, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "os_threads": threads}


def measure_setup() -> tuple[list[float], list[float]]:
    """Import plus one six-vertex pipeline, each in a fresh interpreter:
    wall times, and the same at reference speed."""
    script = SETUP_SCRIPT.format(src=str(ROOT / "src"), six=SIX,
                                 here=str(HERE))
    wall, at_ref = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        w, r = map(float, done.stdout.split()[-2:])
        wall.append(w)
        at_ref.append(r)
    return wall, at_ref


def summary(values: list[float], names: list[str] | None = None) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it when there are enough samples for one above the median.  Given the
    instance each sample ran, also the mean over instances of each
    instance's median: the end-to-end figure, which a few slow rounds or
    the mix of instance sizes around the median cannot shift."""
    out = {"median": statistics.median(values), "samples": len(values)}
    if names is not None:
        by_instance = defaultdict(list)
        for name, value in zip(names, values):
            by_instance[name].append(value)
        out["instance_mean"] = statistics.fmean(
            statistics.median(v) for v in by_instance.values())
    if len(values) >= 20:
        ordered = sorted(values)
        out[f"p{100 * (len(values) - 10) // len(values)}"] = ordered[-11]
    return out


def no_span(name):
    return contextlib.nullcontext()


class Run:
    def __init__(self, args):
        import pipeline

        self.pipeline = pipeline
        self.seed = args.seed
        self.tracer = pipeline.Tracer() if args.trace else None
        self.refs: dict = {}
        self.facts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)  # wall
        self.at_ref: dict[str, list[float]] = defaultdict(list)
        self.op_names: list[str] = []   # the instance of each untraced op
        self.counts: dict[str, int] = defaultdict(int)
        self.traced_ops = 0
        self.cli_calls = 0

    def fail(self, inst, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{inst.name}: {why}")

    def record(self, inst, out) -> None:
        """Gate one op's outputs; the first op of an instance also records
        its facts and coloring digest."""
        pl = self.pipeline
        try:
            ref = self.refs.get(inst.name)
            if ref is None:
                ref = self.refs[inst.name] = pl.reference(inst, self.seed)
            problems = pl.check(inst, out, ref)
        except Exception as exc:  # noqa: BLE001 - outputs the gate cannot read
            self.fail(inst, f"gate raised {type(exc).__name__}: {exc}")
            return
        if problems:
            self.fail(inst, "; ".join(problems))
        if inst.name not in self.facts:
            c = out.colored
            self.facts[inst.name] = {
                "n": ref.n, "edges": ref.edges, "maximal": ref.maximal,
                "big_d": ref.big_d, "cor1_bound": ref.cor1_bound,
                "k": c.coloring.k, "lower": c.lower,
                "budget_stop": c.stopped,
                "proved": (not c.stopped) if inst.mode == "exact"
                else c.coloring.k == ref.big_d,
                "digest": pl.digest(c.coloring),
                "csv": out.csv}

    def untraced(self, inst) -> None:
        gc.collect()
        self.attempted += 1
        self.op_names.append(inst.name)
        try:
            wall, at_ref, out = self.pipeline.run_op(inst)
        except Exception as exc:  # noqa: BLE001 - a failed op stays in the sample
            self.fail(inst, f"{type(exc).__name__}: {exc}")
            wall = dict.fromkeys(STAGE_METRICS[1:], math.inf)
            at_ref, out = dict(wall), None
        for times, samples in ((wall, self.samples), (at_ref, self.at_ref)):
            times["pipeline_s"] = times["color_s"] + times["table_s"]
            for key in STAGE_METRICS:
                samples[key].append(times[key])
        if out is not None:
            self.record(inst, out)

    def traced(self, inst) -> None:
        gc.collect()
        self.attempted += 1
        self.traced_ops += 1
        self.tracer.op = f"{inst.name}#{self.traced_ops}"
        try:
            out = self.pipeline.run_traced_op(inst, self.tracer, self.counts)
        except Exception as exc:  # noqa: BLE001 - a failed op stays in the sample
            self.fail(inst, f"{type(exc).__name__}: {exc}")
            return
        self.record(inst, out)

    def cli(self, inst) -> None:
        """``downcolor color`` then ``downcolor compact`` in-process on a
        file; the table must match the library pipeline's."""
        from downcolor import cli

        facts = self.facts.get(inst.name)
        if facts is None:  # every op on this instance failed already
            return
        self.attempted += 1
        self.cli_calls += 1
        self.tracer.op = f"cli#{self.cli_calls}"
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            graph, col, table = (Path(tmp) / f for f in
                                 ("graph.txt", "coloring.json", "table.csv"))
            graph.write_text(inst.text)
            argv = ["color", str(graph), "-o", str(col)]
            if inst.mode == "exact":
                argv += ["--exact", "--cap", str(facts["n"]),
                         "--budget", str(inst.budget)]
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    rc_color, _ = self.tracer.call("cli.color", cli.main, argv)
                    rc_compact, _ = self.tracer.call(
                        "cli.compact", cli.main, ["compact", str(graph),
                                                  "--coloring", str(col),
                                                  "-o", str(table)])
            except Exception as exc:  # noqa: BLE001 - a traceback is a failure
                self.fail(inst, f"cli raised {type(exc).__name__}: {exc}")
                return
            same = table.exists() and table.read_text() == facts["csv"]
        want_rc = 3 if facts["budget_stop"] else 0
        if (rc_color, rc_compact) != (want_rc, 0):
            self.fail(inst, f"cli exit codes {rc_color}, {rc_compact}")
        elif not same:
            self.fail(inst, "cli table differs from the library pipeline's")


def measure(seconds: float, one_round) -> int:
    """Whole rounds until another would pass ``seconds``; at least one."""
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return rounds


def warm_up() -> None:
    import downcolor as dc

    g = dc.parse_digraph(SIX)
    m = dc.build_compact(g, dc.down_coloring(g))
    g2 = dc.parse_digraph(SIX)
    dc.verify_ac_property(dc.parse_compact(dc.serialize(m, "csv")), g2)


def span_report(spans) -> tuple[dict, dict]:
    """Whole and self span times by name, summed over the traced ops, and
    per pipeline stage the traced time and the name holding the largest
    self share."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, op, name, start, end, stage in spans:
        if parent is not None:
            child_time[parent] += end - start
    stage_of: dict[int, str | None] = {}
    incl: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    by_stage: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, parent, op, name, start, end, stage in spans:
        stage_of[sid] = stage if parent is None else stage_of[parent]
        if stage_of[sid] is None:
            continue
        own = end - start - child_time[sid]
        incl[name] += end - start
        self_[name] += own
        by_stage[stage_of[sid]][name] += own
    stages = {}
    for stage, parts in by_stage.items():
        total = sum(parts.values())
        top = max(parts, key=parts.get)
        stages[stage] = {"total_s": total, "largest": top,
                         "largest_share": parts[top] / total}
    return {"incl": incl, "self": self_}, stages


def traced_metrics(run: Run, gen_per_instance_s: float) -> tuple[dict, dict]:
    spans = run.tracer.spans
    sums, stages = span_report(spans)
    ops = run.traced_ops
    metrics = {}
    for name, (span_names, kind) in SPAN_METRICS.items():
        metrics[name] = sum(sums[kind][s] for s in span_names) / ops
    for name in ("cli.color", "cli.compact"):
        metrics[name + "_s"] = sum(e - s for _, _, _, n, s, e, _ in spans
                                   if n == name) / run.cli_calls
    for name in COUNT_METRICS:
        metrics[name] = run.counts[name] / ops
    metrics["hypergraph.pair_yield"] = (run.counts["hypergraph.clique_edges"]
                                        / run.counts["hypergraph.pair_attempts"])
    facts = list(run.facts.values())
    for key in ("n", "edges", "maximal"):
        metrics[f"digraph.{key}"] = statistics.fmean(f[key] for f in facts)
    for key in ("k", "big_d", "cor1_bound"):
        metrics[f"coloring.{key}"] = statistics.fmean(f[key] for f in facts)
    metrics["coloring.budget_stops"] = sum(f["budget_stop"] for f in facts)
    metrics["coloring.proved_frac"] = statistics.fmean(f["proved"] for f in facts)
    metrics["inputs.generate_s"] = gen_per_instance_s
    traced = sum(s["total_s"] for s in stages.values()) / ops
    untraced = statistics.fmean(
        a + b for a, b in zip(run.samples["pipeline_s"], run.samples["audit_s"]))
    metrics["trace.self_sum_s"] = traced
    metrics["trace.untraced_op_s"] = untraced
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics, stages


def main(argv=None) -> int:
    require_checkout()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import speed
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment()
    setup_wall, setup = ([], []) if args.trace else measure_setup()
    warm_up()
    run = Run(args)
    instances, gen_s = workloads.generate(args.workload, args.seed,
                                          run.tracer or no_span)
    OUT.mkdir(exist_ok=True)

    def one_round():
        for inst in instances:
            run.untraced(inst)
            if args.trace:
                run.traced(inst)
        if args.trace:
            run.cli(instances[0])

    rounds = measure(args.seconds, one_round)
    stats = {k: summary(v, run.op_names) for k, v in run.at_ref.items()}
    wall_stats = {k: summary(v, run.op_names) for k, v in run.samples.items()}
    if args.trace:
        metrics, stages = traced_metrics(run, gen_s / len(instances))
    else:
        stages = {}
        metrics = {k: stats[k]["instance_mean"] for k in STAGE_METRICS}
        metrics["setup_s"] = statistics.median(setup)
        stats["setup_s"] = summary(setup)
        wall_stats["setup_s"] = summary(setup_wall)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["k_total"] = sum(f["k"] for f in run.facts.values())

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "environment": env,
        "attempted": run.attempted, "failed": run.failed,
        "fail_rate": run.failed / run.attempted, "problems": run.problems,
        "metrics": metrics, "timing_summaries": stats,
        "wall_summaries": wall_stats, "stages": stages,
        "ref_s": speed.REF_S, "samples": run.at_ref,
        "wall_samples": run.samples,
        "instances": {k: {f: v for f, v in facts.items() if f != "csv"}
                      for k, facts in run.facts.items()},
    }
    if run.tracer is not None:
        record["span_fields"] = ["id", "parent", "op", "name", "start", "end",
                                 "stage"]
        record["spans"] = run.tracer.spans
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(record, path)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


def print_report(record: dict, path: Path) -> None:
    env = record["environment"]
    numba = ("numba present" if env["has_numba"] else
             "numba absent: every number here is from the numpy backend")
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} rounds={record['rounds']}")
    print(f"# backend={env['backend']} ({numba}); numpy {env['numpy']}; "
          f"python {env['python']}; nproc {env['nproc']}; "
          f"os threads {env['os_threads']}")
    for name, facts in record["instances"].items():
        print(f"# {name}: n={facts['n']} D={facts['big_d']} "
              f"cor1={facts['cor1_bound']} k={facts['k']} "
              f"proved={facts['proved']} sha256={facts['digest'][:16]}")
    for kind, key in (("at reference speed", "timing_summaries"),
                      ("wall", "wall_summaries")):
        for name, st in record[key].items():
            parts = [f"{k} {v:.6g}" for k, v in st.items()
                     if k.startswith("p") or k == "instance_mean"]
            print(f"{name} {kind}: median {st['median']:.6g} s, "
                  + "".join(p + ", " for p in parts)
                  + f"over {st['samples']} samples")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    for stage, st in record["stages"].items():
        print(f"{stage} (traced): largest self share {st['largest']} "
              f"{st['largest_share']:.1%}")
    if record["trace"]:
        m = record["metrics"]
        print(f"trace: self times sum to {m['trace.self_sum_s']:.6g} s per op, "
              f"untraced op {m['trace.untraced_op_s']:.6g} s, overhead "
              f"{m['trace.overhead_frac']:+.2%}")
    print(f"fail_rate: {record['failed']}/{record['attempted']} = "
          f"{record['fail_rate']:.6g}")
    for p in record["problems"]:
        print(f"FAILED {p}")
    print(f"record: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

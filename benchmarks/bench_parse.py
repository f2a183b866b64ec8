"""Time ``parse_digraph`` on a large edge list, then the closure, then
reading the compact table back with ``parse_compact``, with their peak
memory.

The input is a seeded three-level hierarchy: levels of n/2, n/3 and n/6
vertices, and every vertex above the bottom level has three distinct
random children one level down (the sparse-hierarchy rule of the
pipeline benchmark).  It is written to a temporary file, and a fresh
interpreter runs ``parse_digraph(Path(f).read_text())`` on it, so the
peak RSS reported covers the interpreter, the text and the parse, and
nothing the generator held.  The same interpreter then builds the
closed down-sets (``g._down_sets()``) and reports their time, their
total size sum |D[u]| in ids, the layout that built them, and how far
they raised the peak RSS above the parse's.  It goes on to color the
digraph with the greedy ``down_coloring``, reporting its time and the
peak RSS after it, then builds the compact table and AC-checks it
against the digraph, reporting each one's time and the peak RSS after
it, and how far the AC check raised the peak above the build's
(``ac_check_peak_growth_mb``), times ``coloring_to_json`` on the
coloring, then times writing the table as CSV with ``serialize`` and
reports the peak RSS after it, and saves that text to a second
temporary file.  A second
fresh interpreter reads that file and times ``parse_compact`` on its
text; its peak growth is how far the read raised that interpreter's
peak RSS, which holds nothing but the text, so the coloring's own peak
does not hide it.  Both interpreters import the package from this
checkout's ``src/``, so no install or ``PYTHONPATH`` is needed; when one
fails, its stderr is printed and the script exits with status 1.

    python3 benchmarks/bench_parse.py --n 1000000 --seed 1
"""
import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

OUT_DEGREE = 3

# the checkout's package, put first on each child's path
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import resource, sys, time
from pathlib import Path
from downcolor import (build_compact, coloring_to_json, down_coloring,
                       parse_digraph, serialize, verify_ac_property)
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t0 = time.perf_counter()
g = parse_digraph(Path(sys.argv[1]).read_text())
t1 = time.perf_counter()
parse_peak = peak()
_, ids = g._down_sets()
t2 = time.perf_counter()
layout = "csr" if g._bits_level is None else f"bitsets-merge-stopped-at-level-{g._bits_level}"
print(t1 - t0, parse_peak, g.n, g.edge_count, t2 - t1, ids.size, layout,
      peak() - parse_peak)
t3 = time.perf_counter()
c = down_coloring(g)
print(time.perf_counter() - t3, peak())
t4 = time.perf_counter()
m = build_compact(g, c)
print(time.perf_counter() - t4, peak())
t5 = time.perf_counter()
assert verify_ac_property(m, g)
print(time.perf_counter() - t5, peak())
t6 = time.perf_counter()
coloring_to_json(c)
print(time.perf_counter() - t6)
t7 = time.perf_counter()
text = serialize(m, "csv")
print(time.perf_counter() - t7, peak())
Path(sys.argv[2]).write_text(text)
print(m.k, m.table.size, int((m.table >= 0).sum()))
"""

READ_CHILD = """
import resource, sys, time
from pathlib import Path
from downcolor import parse_compact
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
text = Path(sys.argv[1]).read_text()
before = peak()
t0 = time.perf_counter()
m = parse_compact(text, "csv")
t1 = time.perf_counter()
print(t1 - t0, peak() - before)
"""


def write_hierarchy(f, n: int, seed: int) -> None:
    """Write the hierarchy's edge list to ``f`` a block of rows at a time,
    so this process stays smaller than the parsing child: the peak RSS of
    a child counts what the parent held when it was started."""
    rng = np.random.default_rng(seed)
    levels = [(p, size) for p, size in zip("tmb", (n // 2, n // 3, n // 6))]
    for (up, count), (down, width) in zip(levels, levels[1:]):
        kids = rng.integers(0, width, size=(count, OUT_DEGREE))
        kids.sort(axis=1)
        while True:  # redraw the rows that picked a child twice
            again = np.flatnonzero((kids[:, 1:] == kids[:, :-1]).any(axis=1))
            if again.size == 0:
                break
            kids[again] = np.sort(
                rng.integers(0, width, size=(again.size, OUT_DEGREE)), axis=1)
        for lo in range(0, count, 1 << 16):
            rows = kids[lo:lo + (1 << 16)].tolist()
            f.write("".join(f"{up}{u} {down}{v}\n"
                            for u, row in enumerate(rows, lo) for v in row))
    # bottom vertices no one picked get a single-token line
    f.write("".join(f"b{i}\n" for i in
                    np.setdiff1d(np.arange(n // 6), kids).tolist()))


def run_child(script: str, *args: str) -> str:
    """The output of ``script`` run with ``args`` in a fresh interpreter
    that imports this checkout's ``src/``; when it fails, its stderr is
    printed and this process exits with status 1."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{script}",
         *args], capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        sys.exit(1)
    return done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="vertex count")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.n // 6 < OUT_DEGREE:
        ap.error("--n must be at least 18: each level below the top needs "
                 "three vertices to pick from")
    fd, path = tempfile.mkstemp(suffix=".txt")
    fd_csv, csv_path = tempfile.mkstemp(suffix=".csv")
    os.close(fd_csv)
    try:
        with os.fdopen(fd, "w") as f:
            write_hierarchy(f, args.n, args.seed)
        size_mb = os.path.getsize(path) / 2**20
        done = run_child(CHILD, path, csv_path)
        csv_mb = os.path.getsize(csv_path) / 2**20
        read = run_child(READ_CHILD, csv_path)
    finally:
        os.unlink(path)
        os.unlink(csv_path)
    (wall, peak, n, m, closure, sum_d, layout, growth, color, color_peak,
     build, build_peak, audit, audit_peak, to_json, write, write_peak, k,
     cells, filled) = done.split()
    read_s, read_growth = read.split()
    print(f"n={n} edges={m} text={size_mb:.1f} MB")
    print(f"parse_s={float(wall):.3f} child_peak_rss_mb={float(peak):.1f}")
    print(f"closure_s={float(closure):.3f} sum_d={sum_d} layout={layout} "
          f"closure_peak_growth_mb={float(growth):.1f}")
    print(f"down_coloring_s={float(color):.3f} "
          f"peak_rss_after_coloring_mb={float(color_peak):.1f}")
    print(f"build_compact_s={float(build):.3f} "
          f"peak_rss_after_build_mb={float(build_peak):.1f}")
    print(f"verify_ac_property_s={float(audit):.3f} "
          f"peak_rss_after_ac_check_mb={float(audit_peak):.1f} "
          f"ac_check_peak_growth_mb={float(audit_peak) - float(build_peak):.1f}")
    print(f"coloring_to_json_s={float(to_json):.3f}")
    print(f"serialize_s={float(write):.3f} "
          f"peak_rss_after_write_mb={float(write_peak):.1f}")
    print(f"k={k} cells={cells} filled={filled} csv={csv_mb:.1f} MB")
    print(f"parse_compact_s={float(read_s):.3f} "
          f"parse_compact_peak_growth_mb={float(read_growth):.1f}")


if __name__ == "__main__":
    main()

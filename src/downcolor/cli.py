"""Command-line interface.

Exit codes: 0 success, 1 invalid input or out of memory, 2 verification
failure, 3 exact-solver cap or budget exceeded.  Results go to stdout
(or the ``-o`` file) and are byte-stable for fixed inputs; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

from . import compact as compact_mod
from .coloring import (bound_report, coloring_from_json, coloring_to_json,
                       down_coloring, exact_strong_chromatic,
                       find_down_violation, greedy_strong_coloring)
from .designs import cor4_point, ds_bounds, hkm_design, build_field, affine_design
from .digraph import (big_d, condense_to_acyclic, format_digraph, is_acyclic,
                      parse_digraph)
from .errors import (CapExceededError, ColoringError, DowncolorError)
from .hypergraph import format_hypergraph, parse_hypergraph, up_digraph


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for
    # verification failures, so remap to 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks as they are made, to ``path`` or
    stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------- commands

def cmd_analyze(args) -> int:
    g = parse_digraph(_read(args.graph))
    out = [f"n = {g.n}", f"edges = {g.edge_count}"]
    if not is_acyclic(g):
        out.append("acyclic = false")
        _write(args.output, "".join(line + "\n" for line in out))
        print("input is cyclic; 'acyclify' produces an equivalent "
              "acyclic digraph", file=sys.stderr)
        return 0
    out.append("acyclic = true")
    if g.edge_count == 0:
        d = big_d(g)
        ind, cor1 = 0, d
    else:
        rep = bound_report(g)
        d, ind, cor1 = rep.big_d, rep.ind_h, rep.cor1_bound
    out += [f"D = {d}", f"sigma = {max(d - 1, 0)}", f"ind = {ind}",
            f"cor1_bound = {cor1}", f"lower_bound = {d}"]
    _write(args.output, "".join(line + "\n" for line in out))
    return 0


def cmd_color(args) -> int:
    text = _read(args.graph)
    stop = None  # the bracket of a budget stop, whose incumbent is emitted
    if args.strong and args.exact:
        res = exact_strong_chromatic(parse_hypergraph(text), cap=args.cap,
                                     budget=args.budget)
        col = res.coloring
        if not res.exact:
            stop = f"{res.lower} <= chi_s <= {res.k}"
    elif args.strong:
        col = greedy_strong_coloring(parse_hypergraph(text))
    else:
        g = parse_digraph(text)
        try:
            col = down_coloring(g, "exact" if args.exact else "greedy",
                                cap=args.cap, budget=args.budget)
        except CapExceededError as exc:
            if exc.partial is None:
                raise
            col, stop = exc.partial, f"{exc.lower} <= chi_d <= {exc.upper}"
    if stop is not None:
        print(f"budget exhausted: {stop}; emitting the incumbent coloring",
              file=sys.stderr)
    _write(args.output, coloring_to_json(col))
    return 0 if stop is None else 3


def cmd_compact(args) -> int:
    g = parse_digraph(_read(args.graph))
    col = coloring_from_json(_read(args.coloring))
    matrix = compact_mod.build_compact(g, col)
    _write(args.output, compact_mod.csv_chunks(matrix) if args.format == "csv"
           else compact_mod.to_json(matrix))
    st = compact_mod.stats(matrix)
    print(f"stats: n={st.n} k={st.k} dense={st.dense_cells} "
          f"compact={st.compact_cells} fill={st.fill_ratio:.3f}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    g = parse_digraph(_read(args.graph))
    col = coloring_from_json(_read(args.coloring))
    violation = find_down_violation(g, col)
    if violation is not None:
        u, v, w = violation
        print(f"invalid: {u} and {v} share a color inside the closed "
              f"down-set of {w}", file=sys.stderr)
        return 2
    print(f"ok: valid down-coloring with k = {col.k}")
    return 0


def cmd_acyclify(args) -> int:
    g = parse_digraph(_read(args.graph))
    _write(args.output, format_digraph(condense_to_acyclic(g)))
    return 0


def cmd_gen(args) -> int:
    if args.family == "hkm":
        h = hkm_design(args.k, args.m)
    else:
        h, _ = affine_design(build_field(args.p, args.k), args.m)
    if args.as_digraph:
        _write(args.output, format_digraph(up_digraph(h)))
    else:
        _write(args.output, format_hypergraph(h))
    return 0


def cmd_discrepancy(args) -> int:
    rows: list[str] = ["sigma,n,ratio,thm4_bound,cor2_bound"]
    if args.cor4 is not None:
        if args.sigma is not None or args.n is not None:
            raise ValueError("--cor4 excludes --sigma/--n")
        p, k, mmax = args.cor4
        if mmax < 1:
            raise ValueError("m-max must be >= 1")
        for m in range(1, mmax + 1):
            pt = cor4_point(p, k, m, attach_witness=False)
            rows.append(f"{pt.sigma},{pt.n},{_fmt(pt.ratio)},"
                        f"{_fmt(pt.thm4_bound)},{_fmt(pt.cor2_bound)}")
    else:
        if args.sigma is None or args.n is None:
            raise ValueError("need --sigma and --n, or --cor4 P K MMAX")
        bounds = ds_bounds(args.sigma, args.n)
        rows.append(f"{args.sigma},{args.n},,"
                    f"{_fmt(bounds.thm4)},{_fmt(bounds.cor2)}")
    _write(args.output, "".join(r + "\n" for r in rows))
    return 0


# ------------------------------------------------------------------ wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="downcolor",
                     description="Down-colorings of digraphs and compact "
                                 "ancestor-closure tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural stats and coloring bounds")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("color", help="emit a coloring as JSON")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--exact", action="store_true",
                   help="prove optimality (vertex-capped branch and bound)")
    p.add_argument("--strong", action="store_true",
                   help="input is hypergraph text; emit a strong coloring")
    p.add_argument("--cap", type=int, help="exact-solver vertex cap")
    p.add_argument("--budget", type=int, help="exact-solver node budget")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("compact", help="emit the colored closure table")
    p.add_argument("graph")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("verify", help="check a coloring is a down-coloring")
    p.add_argument("graph")
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("acyclify", help="condense cycles onto representatives")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_acyclify)

    p = sub.add_parser("gen", help="generate benchmark hypergraphs")
    gsub = p.add_subparsers(dest="family", required=True)
    q = gsub.add_parser("hkm", help="k cells of size m, edges = cell pairs")
    q.add_argument("k", type=int)
    q.add_argument("m", type=int)
    q.add_argument("--as-digraph", action="store_true",
                   help="emit the digraph with one top per edge")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_gen)
    q = gsub.add_parser("affine", help="affine space over GF(p^k), dimension m")
    q.add_argument("p", type=int)
    q.add_argument("k", type=int)
    q.add_argument("m", type=int)
    q.add_argument("--as-digraph", action="store_true",
                   help="emit the digraph with one top per line")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_gen)

    p = sub.add_parser("discrepancy", help="ratio-vs-bounds table as CSV")
    p.add_argument("--sigma", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--cor4", nargs=3, type=int, metavar=("P", "K", "MMAX"),
                   help="tabulate the affine family for m = 1..MMAX")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_discrepancy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep usage errors as return codes so main() stays embeddable
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ColoringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DowncolorError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large for this "
              "machine", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

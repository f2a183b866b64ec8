import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from downcolor import (Hypergraph, _kernels, build_compact, cli,
                       coloring_from_json, compact, format_digraph, is_acyclic,
                       parse_digraph, serialize, up_digraph,
                       verify_down_coloring)
from downcolor.cli import main
from conftest import GROTZSCH_EDGES, brute_down_edges, pair_digraph_text

SIX = "g1 g4\ng1 g5\ng2 g4\ng2 g6\ng3 g5\ng3 g6\n"

ANALYZE_SIX = """\
n = 6
edges = 6
acyclic = true
D = 3
sigma = 2
ind = 2
cor1_bound = 3
lower_bound = 3
"""


@pytest.fixture
def six(tmp_path):
    p = tmp_path / "six.txt"
    p.write_text(SIX)
    return str(p)


def test_analyze_golden(six, capsys):
    assert main(["analyze", six]) == 0
    assert capsys.readouterr().out == ANALYZE_SIX


def test_analyze_without_edges(tmp_path, capsys):
    p = tmp_path / "two.txt"
    p.write_text("a\nb\n")
    assert main(["analyze", str(p)]) == 0
    assert capsys.readouterr().out == ("n = 2\nedges = 0\nacyclic = true\nD = 1\n"
                                       "sigma = 0\nind = 0\ncor1_bound = 1\n"
                                       "lower_bound = 1\n")


def test_analyze_cyclic_reports_and_hints(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("a b\nb a\n")
    assert main(["analyze", str(p)]) == 0
    cap = capsys.readouterr()
    assert "acyclic = false" in cap.out
    assert "acyclify" in cap.err


def test_color_exact_verify_compact_pipeline(six, tmp_path, capsys):
    col = tmp_path / "col.json"
    assert main(["color", "--exact", six, "--output", str(col)]) == 0
    data = json.loads(col.read_text())
    assert data["k"] == 3 and data["method"] == "exact"

    assert main(["verify", six, "--coloring", str(col)]) == 0
    assert "ok: valid down-coloring with k = 3" in capsys.readouterr().out

    assert main(["compact", six, "--coloring", str(col)]) == 0
    cap = capsys.readouterr()
    assert cap.out.splitlines()[0] == "vertex,c1,c2,c3"
    assert len(cap.out.splitlines()) == 7
    assert "stats: n=6 k=3 dense=36 compact=18 fill=0.667" in cap.err

    assert main(["compact", six, "--coloring", str(col), "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["k"] == 3 and len(parsed["rows"]) == 6


def test_compact_streams_the_csv_blocks(tmp_path, monkeypatch):
    # the CLI writes the writer's blocks as they are made, never the
    # joined text, and the file equals the library's CSV
    g = parse_digraph("".join(f"t{i} b{i % 7}\n" for i in range(40)))
    graph, col, out = (tmp_path / f for f in ("g.txt", "col.json", "t.csv"))
    graph.write_text(format_digraph(g))
    assert main(["color", str(graph), "-o", str(col)]) == 0
    want = serialize(build_compact(g, coloring_from_json(col.read_text())), "csv")
    monkeypatch.setattr(compact, "_CSV_ROWS", 8)

    def joined(m):
        raise AssertionError("the CSV text was joined")
    monkeypatch.setattr(compact, "to_csv", joined)
    monkeypatch.setattr(compact, "serialize", joined)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["compact", str(graph), "--coloring", str(col), "-o", str(out)]) == 0
    assert out.read_text() == want


def test_color_greedy_is_default(six, capsys):
    assert main(["color", six]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "greedy" and data["k"] >= 3


def test_color_strong_mode(tmp_path, capsys):
    p = tmp_path / "h.txt"
    p.write_text("a b c\nb c d\n")
    assert main(["color", "--strong", "--exact", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 3  # a and d share no edge, so they share a color


def test_color_rejects_cyclic(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("a b\nb a\n")
    assert main(["color", str(p)]) == 1
    assert "cycle" in capsys.readouterr().err


def test_verify_checks_the_coloring_before_the_cycle(tmp_path, capsys):
    # a cyclic digraph with a coloring that misses a vertex: the coloring
    # is refused first (exit 2), before the acyclicity gate (exit 1)
    p, col = tmp_path / "c.txt", tmp_path / "c.json"
    p.write_text("a b\nb c\nc a\n")
    col.write_text(json.dumps({"colors": {"a": 1, "b": 2}, "k": 2,
                               "method": "greedy"}))
    assert main(["verify", str(p), "--coloring", str(col)]) == 2
    assert capsys.readouterr().err == "error: coloring misses vertices: ['c']\n"


def test_verify_detects_violation(six, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "colors": {"g1": 1, "g2": 2, "g3": 3, "g4": 1, "g5": 2, "g6": 3},
        "k": 3, "method": "greedy"}))
    assert main(["verify", six, "--coloring", str(bad)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_compact_rejects_non_down_coloring(six, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "colors": {"g1": 1, "g2": 2, "g3": 3, "g4": 1, "g5": 2, "g6": 3},
        "k": 3, "method": "greedy"}))
    assert main(["compact", six, "--coloring", str(bad)]) == 2


def test_exact_cap_exit_code(tmp_path):
    p = tmp_path / "two.txt"
    p.write_text(SIX + SIX.replace("g", "h"))
    assert main(["color", "--exact", str(p), "--cap", "3"]) == 3


@pytest.mark.parametrize("flag", ["--budget", "--cap"])
@pytest.mark.parametrize("strong", [[], ["--strong"]])
def test_exact_negative_budget_or_cap_exits_one(tmp_path, capsys, flag, strong):
    p = tmp_path / "grotzsch.txt"
    p.write_text(pair_digraph_text(GROTZSCH_EDGES))
    assert main(["color", "--exact", *strong, flag, "-1", str(p)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: {flag[2:]} must be >= 0\n"


def test_exact_long_odd_cycle_has_no_recursion_limit(tmp_path, capsys):
    # the conflict graph is the 1501-cycle itself: clique bound 2, chi 3,
    # so the exact search runs about 1500 levels deep
    n = 1501
    h = Hypergraph([f"x{i}" for i in range(n)],
                   [tuple(sorted((i, (i + 1) % n))) for i in range(n)])
    text = format_digraph(up_digraph(h))
    p = tmp_path / "cycle.txt"
    p.write_text(text)
    assert main(["color", "--exact", "--cap", "3012", str(p)]) == 0
    cap = capsys.readouterr()
    assert "Traceback" not in cap.err
    c = coloring_from_json(cap.out)
    assert c.method == "exact" and c.k == 3
    assert verify_down_coloring(parse_digraph(text), c)


def test_exact_budget_emits_incumbent(tmp_path, capsys):
    p = tmp_path / "grotzsch.txt"
    p.write_text(pair_digraph_text(GROTZSCH_EDGES))
    assert main(["color", "--exact", str(p), "--budget", "0"]) == 3
    cap = capsys.readouterr()
    assert "budget exhausted" in cap.err
    assert "3 <= chi_d <= 4" in cap.err
    data = json.loads(cap.out)
    assert data["method"] == "greedy"


def test_strong_exact_budget_emits_incumbent(tmp_path, capsys):
    # the Groetzsch graph as 2-member hyperedges: clique 2, chi = 4
    p = tmp_path / "grotzsch-pairs.txt"
    p.write_text("".join(f"{a} {b}\n" for a, b in GROTZSCH_EDGES))
    assert main(["color", "--strong", "--exact", "--budget", "0", str(p)]) == 3
    cap = capsys.readouterr()
    assert cap.err == ("budget exhausted: 2 <= chi_s <= 4; emitting the "
                       "incumbent coloring\n")
    assert coloring_from_json(cap.out).k == 4


def test_exact_budget_stop_at_d_exits_zero(tmp_path, capsys):
    # 5-cycle conflict graph: D = 3 proves the stopped search's 3 colors
    p = tmp_path / "c5.txt"
    p.write_text(pair_digraph_text([(f"v{i}", f"v{(i + 1) % 5}")
                                    for i in range(5)]))
    assert main(["color", "--exact", str(p), "--budget", "0"]) == 0
    cap = capsys.readouterr()
    assert cap.err == ""
    c = coloring_from_json(cap.out)
    assert (c.k, c.method) == (3, "exact")
    assert verify_down_coloring(parse_digraph(p.read_text()), c)


def test_acyclify_output_is_equivalent_dag(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("a b\nb a\nb c\nd\n")
    assert main(["acyclify", str(p)]) == 0
    g2 = parse_digraph(capsys.readouterr().out)
    assert is_acyclic(g2)
    assert set(g2.labels) == {"a", "b", "c", "d"}
    g = parse_digraph(p.read_text())
    assert brute_down_edges(g2) == brute_down_edges(g)


def test_gen_hkm_digraph(capsys):
    assert main(["gen", "hkm", "3", "1", "--as-digraph"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "w0 a1_1"
    assert len(out.splitlines()) == 6


def test_gen_affine(capsys):
    assert main(["gen", "affine", "2", "1", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert main(["gen", "affine", "4", "1", "2"]) == 1  # 4 is not prime


def test_discrepancy_single_point(capsys):
    assert main(["discrepancy", "--sigma", "3", "--n", "21"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sigma,n,ratio,thm4_bound,cor2_bound"
    assert out[1] == "3,21,,2.25,2.80624304008"


def test_discrepancy_cor4_rows(capsys):
    assert main(["discrepancy", "--cor4", "2", "1", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sigma,n,ratio,thm4_bound,cor2_bound"
    assert [r.split(",")[1] for r in out[1:]] == ["3", "10", "36"]


def test_huge_field_or_dimension_exits_one_at_once(capsys):
    p = "1000000000000000003"
    assert main(["gen", "affine", p, "1", "1"]) == 1
    assert main(["discrepancy", "--cor4", p, "1", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: field order {p}^1 exceeds 1048576"] * 2
    assert main(["gen", "affine", "3", "1", "100000000"]) == 1
    assert capsys.readouterr().err == "error: point count 3^100000000 exceeds cap 4096\n"


def test_discrepancy_overflow_exits_one(capsys):
    assert main(["discrepancy", "--sigma", "2", "--n", "9" * 400]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1


def test_discrepancy_names_the_largest_usable_n(capsys):
    assert main(["discrepancy", "--sigma", "2", "--n", "1" + "0" * 400]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("error: n must be a finite number at most 2.24712e+307 "
                       "for sigma = 2\n")


@pytest.mark.parametrize("command", ["verify", "compact"])
def test_deeply_nested_coloring_exits_one(six, tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main([command, six, "--coloring", str(deep)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: JSON document is nested too deeply\n"


def test_discrepancy_flag_conflicts(capsys):
    assert main(["discrepancy"]) == 1
    assert main(["discrepancy", "--sigma", "2"]) == 1
    assert main(["discrepancy", "--cor4", "2", "1", "3", "--sigma", "2"]) == 1


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["nosuchcmd"]) == 1
    assert main(["analyze", "/nope/missing.txt"]) == 1


def test_out_of_memory_exits_one(six, monkeypatch, capsys):
    def exhaust(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, "down_coloring", exhaust)
    assert main(["color", six]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_closure_over_budget_exits_one(six, monkeypatch, capsys):
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 20)
    assert main(["color", six]) == 1
    assert capsys.readouterr().err == (
        "error: the closure of 6 vertices is too large: its bitsets take 48 "
        "bytes and the merge of its CSR rows 48 bytes, over the 20-byte budget\n")


def test_conflict_graph_over_budget_exits_one(tmp_path, monkeypatch, capsys):
    p = tmp_path / "h.txt"
    p.write_text("a b c\nb c d\n")
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 20)
    assert main(["color", "--strong", "--exact", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: the conflict graph of 4 vertices is too large: its bitsets "
        "take 48 bytes, over the 20-byte budget\n")


def test_compact_table_over_budget_exits_one(six, tmp_path, monkeypatch, capsys):
    assert main(["color", six, "-o", str(tmp_path / "c.json")]) == 0
    monkeypatch.setattr(_kernels, "_CLOSURE_BYTES", 71)
    out = tmp_path / "t.csv"
    assert main(["compact", six, "--coloring", str(tmp_path / "c.json"),
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the compact table of 6 vertices and 3 colors is too large: "
        "its cells take 72 bytes, over the 71-byte budget\n")
    assert not out.exists()


def test_parse_error_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("a b\nx y z\n")
    assert main(["analyze", str(p)]) == 1
    assert "line 2" in capsys.readouterr().err


# argv pieces: path placeholders resolved in a fresh directory per case,
# small integers, and tokens no option accepts
def paths(*names):
    return st.sampled_from([f"{{{name}}}" for name in names])


GRAPH = paths("six", "six", "six", "text", "text", "coloring", "missing", "dir")
COLORING = paths("coloring", "coloring", "bad", "text", "six", "missing", "dir")
OUT = paths("out", "out", "text", "lost", "dir")


def ints(low, high):
    return st.integers(low, high).map(str)


INT = ints(-1, 7)
ODD = st.sampled_from(["-1", "0", "1e400", "x", "", "--help", "-o", "--nope"])
# colors of g1..g6 in SIX: a down-coloring, and one where g1 and g4
# share a color below g1
COLORINGS = {"coloring": (3, 2, 1, 1, 2, 3), "bad": (1, 2, 3, 1, 2, 3)}


# the field of gen affine and --cor4, GF(p^k) with p <= 7 and k <= 2,
# valid half the time; with hkm values <= 6 and m <= 4 no case is slow
P = st.sampled_from(["2", "3", "5", "7"]) | INT
K = st.sampled_from(["1", "2"]) | ints(-1, 2)


def argument(*parts):
    """One argument as its tokens: literal strings and drawn ones."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))


# each subcommand's required arguments, then its optional flags
COMMANDS = {
    ("analyze",): ([argument(GRAPH)], [argument("-o", OUT)]),
    ("color",): ([argument(GRAPH)],
                 [argument("--exact"), argument("--strong"), argument("--cap", INT),
                  argument("--budget", INT), argument("-o", OUT)]),
    ("compact",): ([argument(GRAPH), argument("--coloring", COLORING)],
                   [argument("-o", OUT),
                    argument("--format", st.sampled_from(["csv", "json", "xml"]))]),
    ("verify",): ([argument(GRAPH), argument("--coloring", COLORING)], []),
    ("acyclify",): ([argument(GRAPH)], [argument("-o", OUT)]),
    ("gen", "hkm"): ([argument(ints(-1, 6), ints(-1, 6))],
                     [argument("--as-digraph"), argument("-o", OUT)]),
    ("gen", "affine"): ([argument(P, K, ints(1, 3) | ints(-1, 3))],
                        [argument("--as-digraph"), argument("-o", OUT)]),
    ("discrepancy",): ([argument("--cor4", P, K, ints(-1, 4))
                        | argument("--sigma", INT, "--n", INT | ODD)],
                       [argument("--sigma", INT), argument("-o", OUT)]),
}

EDGE_LISTS = st.lists(st.tuples(*[st.sampled_from("abcdefg")] * 2),
                      max_size=10).map(lambda es: "".join(f"{u} {v}\n" for u, v in es))


@st.composite
def cli_argvs(draw):
    """A subcommand with its required arguments and some of its flags, in
    any order, with a token dropped or an odd one put in now and then."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(optional), unique_by=id)) if optional else []
    args = draw(st.permutations([draw(a) for a in required + chosen]))
    argv = [*command, *(token for arg in args for token in arg)]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(argv) - 1))
        if draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(ODD | INT | GRAPH))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs(), st.one_of(st.text(), EDGE_LISTS, st.binary()))
def test_cli_argv_fuzz(argv, text):
    # every argv ends in an exit code 0-3, never in an exception: paths
    # that hold random text, bytes that are no UTF-8, a valid graph and
    # coloring, nothing, a directory, or a file in a missing directory
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "text").write_bytes(text if isinstance(text, bytes) else text.encode())
        (root / "six").write_text(SIX)
        for name, colors in COLORINGS.items():
            (root / name).write_text(json.dumps({
                "k": 3, "method": "exact",
                "colors": {f"g{i}": c for i, c in enumerate(colors, 1)}}))
        (root / "dir").mkdir()
        where = {name: str(root / name)
                 for name in ("text", "six", *COLORINGS, "missing", "dir", "out")}
        where["lost"] = str(root / "missing" / "out")
        argv = [token.format(**where) for token in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)

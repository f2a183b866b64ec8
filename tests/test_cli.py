import json

import pytest

from downcolor import (Hypergraph, _kernels, cli, coloring_from_json,
                       format_digraph, is_acyclic, parse_digraph, up_digraph,
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


def test_parse_error_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("a b\nx y z\n")
    assert main(["analyze", str(p)]) == 1
    assert "line 2" in capsys.readouterr().err

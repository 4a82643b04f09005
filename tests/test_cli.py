import json

from pcml.cli import run
from pcml.suite import EXAMPLE_GRAPH_EDGES


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr().out
    return status, out.strip().splitlines()


def line_value(lines, key):
    for line in lines:
        if line.startswith(key + "="):
            return line[len(key) + 1:]
    raise AssertionError(f"{key} not found in {lines}")


def test_nf_edge_bracket(capsys):
    status, lines = invoke(capsys, "nf", "--graph", "cycle:4", "--element", "[x0,x1]")
    assert status == 0
    assert line_value(lines, "RESULT") == "0"


def test_nf_with_order_flag(capsys):
    status, lines = invoke(
        capsys, "nf", "--graph", "cycle:5", "--order", "2,3,0,1,4",
        "--element", "[x0,x2]",
    )
    assert status == 0
    assert line_value(lines, "RESULT") == "[x0,x2]"


def test_bracket_and_act(capsys):
    status, lines = invoke(
        capsys, "bracket", "--graph", "cycle:5", "--left", "x0", "--right", "x2"
    )
    assert status == 0
    assert line_value(lines, "RESULT") == "-[x2,x0]"
    status, lines = invoke(
        capsys, "act", "--graph", "cycle:5", "--element", "[x2,x0]", "--poly", "x1"
    )
    assert status == 0
    assert line_value(lines, "RESULT") == "0"


def test_dim_line_format(capsys):
    status, lines = invoke(capsys, "dim", "--graph", "cycle:5", "--mdeg", "0,1,0,1,1")
    assert status == 0
    assert lines[-1] == "delta=0,1,0,1,1 count=1 dim=1 OK"


def test_certify_sweep(capsys):
    status, lines = invoke(capsys, "certify", "--graph", "cycle:4", "--max-degree", "3")
    assert status == 0
    assert line_value(lines, "FAILURES") == "0"


def test_centralizer_output(capsys):
    status, lines = invoke(
        capsys, "centralizer", "--graph", "cycle:5", "--element", "x0 + x2",
        "--degree", "4",
    )
    assert status == 0
    assert line_value(lines, "COUNT") == "4"
    assert line_value(lines, "BASIS_0") == "[x4,x1;x3]"


def test_theta_assignment(capsys):
    status, lines = invoke(
        capsys, "theta", "--n", "5", "--m", "5", "--assign", "x0,x1,x2,x3,x4"
    )
    assert status == 0
    assert line_value(lines, "RESULT") == "true"


def test_witness_search(capsys):
    status, lines = invoke(capsys, "witness", "--n", "4", "--m", "5")
    assert status == 0
    assert line_value(lines, "WITNESS") == "none"
    assert line_value(lines, "EXHAUSTED") == "true"


def test_distinguish_psi(capsys):
    status, lines = invoke(capsys, "distinguish", "--n", "3", "--m", "4")
    assert status == 0
    assert line_value(lines, "SEPARATED") == "true"
    assert line_value(lines, "SENTENCE") == "Psi"
    assert line_value(lines, "COUNTEREXAMPLE") == "[x1,x3]"


def test_distinguish_equivalent(capsys):
    status, lines = invoke(capsys, "distinguish", "--n", "5", "--m", "5")
    assert status == 0
    assert line_value(lines, "VERDICT") == "equivalent"


def test_compact_from_json(capsys, tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps({"n": 7, "edges": [list(e) for e in EXAMPLE_GRAPH_EDGES]}))
    status, lines = invoke(capsys, "compact", "--graph", str(path))
    assert status == 0
    assert line_value(lines, "VERTICES") == "5"
    assert line_value(lines, "KEPT") == "0,1,4,5,6"


def test_perp_classes(capsys, tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps({"n": 7, "edges": [list(e) for e in EXAMPLE_GRAPH_EDGES]}))
    status, lines = invoke(capsys, "perp", "--graph", str(path))
    assert status == 0
    assert line_value(lines, "CLASSES") == "5"
    assert line_value(lines, "CLASS_1") == "1,2,3"


def test_phi_and_lambda0(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[2, 3], [1, 2], [1, 3]]}))
    status, lines = invoke(
        capsys, "phi", "--graph", str(path), "--lambda", "2",
        "--element", "[x2,x0] - [x3,x0]",
    )
    assert status == 0
    assert line_value(lines, "RESULT") == "[x0,x2]"
    status, lines = invoke(
        capsys, "lambda0", "--graph", str(path), "--element", "[x2,x0] - [x3,x0]"
    )
    assert status == 0
    assert line_value(lines, "LAMBDA0") == "2"
    # the merged pair is always the last two vertices, which must be twins
    status, lines = invoke(
        capsys, "phi", "--graph", "path:4", "--lambda", "2", "--element", "x0",
    )
    assert status == 2
    assert line_value(lines, "ERROR") == "vertices 2 and 3 do not have equal closed neighborhoods"


def test_lambda0_with_a_thirteen_digit_coefficient(capsys, tmp_path):
    # the threshold is found by root isolation, not by scanning up to the coefficient
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": [[2, 3], [1, 2], [1, 3]]}))
    status, lines = invoke(
        capsys, "lambda0", "--graph", str(path),
        "--element", "-1234567890123*[x2,x0;x2] + 1234567890124*[x2,x0;x3] - [x3,x0;x3]",
    )
    assert status == 0
    assert line_value(lines, "LAMBDA0") == "1234567890124"


def test_gamma_witness(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[2, 3], [1, 2], [1, 3]]}))
    fpath = tmp_path / "gamma.txt"
    fpath.write_text("[x2,x0]\n[x3,x0]\nx0\n")
    status, lines = invoke(capsys, "gamma-witness", "--graph", str(gpath), "--gamma", str(fpath))
    assert status == 0
    assert line_value(lines, "OK") == "true"
    assert int(line_value(lines, "LAMBDA")) >= 2
    # the witness subcommand searches Theta only and needs --n/--m
    status, _ = invoke(capsys, "witness", "--graph", str(gpath), "--gamma", str(fpath))
    assert status == 2
    status, lines = invoke(capsys, "gamma-witness", "--graph", str(gpath), "--gamma", str(tmp_path / "missing.txt"))
    assert status == 2
    assert line_value(lines, "ERROR").startswith("cannot read gamma file")


def test_usage_errors(capsys):
    status, _ = invoke(capsys, "nope")
    assert status == 2
    status, lines = invoke(capsys, "nf", "--graph", "cycle:4", "--element", "x0 +")
    assert status == 2
    assert any(line.startswith("ERROR=") for line in lines)
    assert any(line.startswith("POSITION=") for line in lines)
    status, _ = invoke(capsys, "nf", "--graph", "cycle:2", "--element", "x0")
    assert status == 2
    # integer options take ASCII digits only, like every other integer
    status, _ = invoke(capsys, "witness", "--n", "\u0664", "--m", "5")
    assert status == 2


def test_digits_int_rejects_are_usage_errors(capsys):
    for argv, position in (
        (("nf", "--graph", "cycle:4", "--element", "x\u00b2"), "1"),
        (("act", "--graph", "cycle:4", "--element", "[x3,x1]", "--poly", "x1^\u00b2"), "3"),
        (("nf", "--graph", "cycle:4", "--element", "x0+" + "7" * 4400 + "*x1"), "3"),
    ):
        status, lines = invoke(capsys, *argv)
        assert status == 2
        assert line_value(lines, "ERROR").startswith(("expected an integer", "integer of 4400 digits"))
        assert line_value(lines, "POSITION") == position


def test_certify_rejects_max_degree_below_two(capsys):
    for bound in ("-3", "0", "1"):
        status, lines = invoke(capsys, "certify", "--graph", "cycle:4", "--max-degree", bound)
        assert status == 2
        assert any(line.startswith("ERROR=") for line in lines)
        assert not any(line.startswith("FAILURES=") for line in lines)


def test_reports_are_deterministic(capsys, tmp_path):
    argv = ["centralizer", "--graph", "cycle:5", "--element", "x0 + x2", "--degree", "4"]
    _, first = invoke(capsys, *argv)
    _, second = invoke(capsys, *argv)
    assert first == second


def test_output_file(capsys, tmp_path):
    out = tmp_path / "report.txt"
    status, lines = invoke(
        capsys, "nf", "--graph", "cycle:4", "--element", "[x0,x1]", "--output", str(out)
    )
    assert status == 0
    assert out.read_text().strip().splitlines() == lines


def test_seed_in_header(capsys):
    _, lines = invoke(capsys, "nf", "--graph", "cycle:4", "--element", "x0", "--seed", "9")
    assert lines[0] == "SEED=9"

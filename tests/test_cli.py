import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pcml
from pcml import equivalence, oracle
from pcml.cli import run
from pcml.core import LieElement
from pcml.suite import EXAMPLE_GRAPH_EDGES
from pcml.textio import MAX_VERTICES


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


def test_fail_lines_say_why(capsys, monkeypatch):
    # x0, x2, x4 are pairwise apart in C6, so the slice has dimension 2
    monkeypatch.setattr(oracle, "is_basis_monomial", lambda head, tail, graph, order: head in ((2, 0), (0, 2)))
    status, lines = invoke(capsys, "dim", "--graph", "cycle:6", "--mdeg", "1,0,1,0,1,0")
    assert status == 1
    assert lines[-1] == "delta=1,0,1,0,1,0 count=2 dim=2 FAIL dependent modulo the relation ideal"
    status, lines = invoke(capsys, "dim", "--graph", "cycle:6", "--mdeg", "1,0,1,0,0,0")
    assert status == 1
    assert lines[-1] == "delta=1,0,1,0,0,0 count=2 dim=1 FAIL count != dim"


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
    status, lines = invoke(capsys, "theta", "--n", "5", "--assign", "x0,x1,x2,x3,x4")
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


def test_gamma_witness_reports_a_failed_verification(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        equivalence, "phi_lambda",
        lambda hom, g: LieElement.generator(hom.target_graph, hom.target_order, 0),
    )
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[2, 3], [1, 2], [1, 3]]}))
    fpath = tmp_path / "gamma.txt"
    fpath.write_text("[x2,x0]\nx0\n")
    status, lines = invoke(capsys, "gamma-witness", "--graph", str(gpath), "--gamma", str(fpath))
    assert status == 1
    assert lines == ["SEED=0", "ERROR=merge witness verification failed"]


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


def test_graphs_over_the_vertex_limit_exit_2_before_they_are_built(capsys, tmp_path):
    # building cycle:300000 alone took about 2 s before the limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 300000, "edges": []}))
    for spec in ("cycle:300000", "complete:300000", "path:300000", str(path)):
        start = time.perf_counter()
        status, lines = invoke(capsys, "nf", "--graph", spec, "--element", "x0")
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ERROR=a graph of 300000 vertices is over the limit of {MAX_VERTICES} vertices"]


def test_cycle_lengths_over_the_vertex_limit_exit_2_at_once(capsys):
    # theta --n 1000000 took 7.5 s and 722 MiB before the limit
    big = MAX_VERTICES + 1
    for n, argv in ((1000000, ("theta", "--n", "1000000", "--assign", "x0,x1,x2,x3")),
                    (big, ("witness", "--n", "4", "--m", str(big))),
                    (big, ("witness", "--n", str(big), "--m", "5")),
                    (big, ("distinguish", "--n", str(big), "--m", "4")),
                    (big, ("distinguish", "--n", "3", "--m", str(big)))):
        start = time.perf_counter()
        status, lines = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ERROR=a graph of {n} vertices is over the limit of {MAX_VERTICES} vertices"]


def test_bad_multidegrees_and_long_terms_exit_2_at_once(capsys):
    # x1^100000000 ran out of memory before terms had a degree limit, and
    # dim kept its own copy of the oracle's length check
    for argv, error in (
        (("dim", "--graph", "cycle:4", "--mdeg", "1,1,1"), "(1, 1, 1) is not a multidegree on 4 generators"),
        (("dim", "--graph", "cycle:4", "--mdeg", "1,1,1,1,1"), "(1, 1, 1, 1, 1) is not a multidegree on 4 generators"),
        (("act", "--graph", "cycle:4", "--element", "[x2,x0]", "--poly", "x1^100000000"),
         "a term of degree 100000000 is over the limit of 1024 (at offset 2)"),
    ):
        start = time.perf_counter()
        status, lines = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert status == 2
        assert line_value(lines, "ERROR") == error
    assert line_value(lines, "POSITION") == "2"


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


def test_output_to_an_unwritable_path(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "report.txt"
    status = run(["nf", "--graph", "cycle:4", "--element", "x0", "--output", str(out)])
    captured = capsys.readouterr()
    assert status == 2
    lines = captured.out.splitlines()
    assert lines[:2] == ["SEED=0", "RESULT=x0"] and len(lines) == 3
    assert lines[2].startswith(f"ERROR=cannot write report to {str(out)!r}: ")
    assert captured.err == ""


def test_seed_in_header(capsys):
    _, lines = invoke(capsys, "nf", "--graph", "cycle:4", "--element", "x0", "--seed", "9")
    assert lines[0] == "SEED=9"


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # as `pcml witness ... | head -1` does, here with the read end of the
    # pipe closed before the report is written
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(pcml.__file__).resolve().parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pcml.cli", "nf", "--graph", "cycle:4", "--element", "[x0,x1]"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 0

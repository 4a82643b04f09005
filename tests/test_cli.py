import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pcml
from pcml import cli, equivalence, oracle
from pcml.cli import run
from pcml.core import GeneratorOrder, LieElement, multidegrees
from pcml.graphs import Graph
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


def test_witness_at_the_largest_cycle_lengths_answers_at_once(capsys):
    # the prefix-pruned walk ran past 20 s here
    start = time.perf_counter()
    status, lines = invoke(capsys, "witness", "--n", "250", "--m", "256")
    assert time.perf_counter() - start < 1
    assert status == 0
    assert [line.split("=")[0] for line in lines] == ["SEED", "MODE", "CHECKED", "SPACE", "WITNESS", "EXHAUSTED"]
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


def test_oversized_certify_sweeps_exit_2_at_once(capsys):
    # cycle:40 up to degree 6 ran past 12 s before the estimate
    big = "1" + "0" * 3999
    for graph, bound, estimate in (("cycle:40", "6", "9366778 multidegrees"),
                                   ("path:1", big, f"{10 ** 3999 - 1} multidegrees"),
                                   ("path:2", big, f"at least 10^{sys.get_int_max_str_digits()} multidegrees")):
        start = time.perf_counter()
        status, lines = invoke(capsys, "certify", "--graph", graph, "--max-degree", bound)
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ESTIMATE={estimate}",
                         f"ERROR=the sweep is over the limit of {cli.MAX_SWEEP} multidegrees"]


def test_oversized_centralizer_walks_exit_2_at_once(capsys):
    # cycle:24 at degree 22 walked 4,194,281 supports, past 15 s, before the estimate
    for n, far, bound, estimate in ((24, 12, 22, 4194281), (20, 10, 20, 262125)):
        start = time.perf_counter()
        status, lines = invoke(capsys, "centralizer", "--graph", f"cycle:{n}", "--element", f"x0+x{far}",
                               "--degree", str(bound))
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ESTIMATE={estimate} supports",
                         f"ERROR=the support walk is over the limit of {cli.MAX_SWEEP} supports"]


def test_oversized_centralizer_slices_exit_2_before_any_element(capsys, monkeypatch):
    # cycle:6 at degree 60 walked 11 supports, then printed C(60, 4) = 487,635
    # elements in 20 s; the estimate is the count a slice under the limit prints
    argv = ["centralizer", "--graph", "cycle:6", "--element", "x0+x3", "--degree"]
    status, lines = invoke(capsys, *argv, "8")
    assert status == 0 and line_value(lines, "COUNT") == str(comb(8, 4))
    spread = []
    monkeypatch.setattr(cli, "spread", lambda g, bound, walk: spread.append(bound))
    default = cli.MAX_SWEEP
    for limit, bound, estimate in ((comb(8, 4) - 1, 8, comb(8, 4)), (default, 41, 101270), (default, 60, 487635),
                                   (default, 1000, comb(1000, 4))):
        monkeypatch.setattr(cli, "MAX_SWEEP", limit)
        start = time.perf_counter()
        status, lines = invoke(capsys, *argv, str(bound))
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ESTIMATE={estimate} elements",
                         f"ERROR=the slice is over the limit of {limit} elements"]
    assert not spread


def test_oversized_dim_multidegrees_exit_2_before_the_oracle(capsys, monkeypatch):
    # the oracle lays out a multidegree's letters with multiplicity:
    # path:3 at 4000000,1,1 took 1.5 s and 198 MiB before the estimate
    certified = []
    monkeypatch.setattr(oracle, "certify_basis", lambda *args: certified.append(args))
    for mdeg, estimate in (("100000,1,1", 100002), ("100000000,1,1", 100000002)):
        start = time.perf_counter()
        status, lines = invoke(capsys, "dim", "--graph", "path:3", "--mdeg", mdeg)
        assert time.perf_counter() - start < 1
        assert status == 2
        assert lines == ["SEED=0", f"ESTIMATE={estimate} letters",
                         f"ERROR=the multidegree is over the limit of {cli.MAX_SWEEP} letters"]
    assert not certified
    monkeypatch.undo()
    # a multidegree of MAX_SWEEP letters runs
    status, lines = invoke(capsys, "dim", "--graph", "path:3", "--mdeg", f"{cli.MAX_SWEEP - 2},1,1")
    assert status == 0 and lines[-1] == f"delta={cli.MAX_SWEEP - 2},1,1 count=0 dim=0 OK"


def test_oversized_gamma_closures_exit_2_before_the_closure(capsys, tmp_path, monkeypatch):
    # 120 elements built a closure of 34 s and 776 MiB before the estimate
    reached = []

    def stub(graph, gamma):
        reached.append(len(gamma))
        return equivalence.CompactionWitnessReport(1, len(gamma), 0, 0, 3, 2)

    monkeypatch.setattr(cli, "compaction_witness", stub)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"n": 4, "edges": [[2, 3], [1, 2], [1, 3]]}))
    fpath = tmp_path / "gamma.txt"
    for k, estimate in ((37, 102712), (120, 3470520)):
        fpath.write_text("".join(f"{c}*x0 + x1\n" for c in range(1, k + 1)))
        status, lines = invoke(capsys, "gamma-witness", "--graph", str(gpath), "--gamma", str(fpath))
        assert status == 2
        assert lines == ["SEED=0", f"ESTIMATE={estimate} closure candidates",
                         f"ERROR=the closure is over the limit of {cli.MAX_SWEEP} candidates"]
    assert not reached
    # 36 elements give 94,644 candidates, under the limit
    fpath.write_text("".join(f"{c}*x0 + x1\n" for c in range(1, 37)))
    status, lines = invoke(capsys, "gamma-witness", "--graph", str(gpath), "--gamma", str(fpath))
    assert status == 0 and "GAMMA_SIZE=36" in lines
    assert reached == [36]


def test_the_closure_estimate_counts_what_gamma_closure_pushes(monkeypatch):
    # gamma_closure pushes each element, then one difference per candidate
    # after them: two subtractions, of a linear and of a derived dict
    subtractions = []
    engine_accumulate = equivalence._accumulate

    def counted(acc, terms, coeff):
        subtractions.append(coeff)
        return engine_accumulate(acc, terms, coeff)

    monkeypatch.setattr(equivalence, "_accumulate", counted)
    graph, order = Graph(4, [(2, 3), (1, 2), (1, 3)]), GeneratorOrder.ascending(4)
    for k in range(1, 6):
        gamma = [LieElement.generator(graph, order, v % 4) * (v + 1) for v in range(k)]
        subtractions.clear()
        equivalence.gamma_closure(gamma)
        assert set(subtractions) == {-1}
        assert k + len(subtractions) // 2 == k + k * k + 2 * k ** 3
        assert len(subtractions) % 2 == 0


def test_gamma_closure_brackets_each_unordered_pair_once(monkeypatch):
    pairs = []
    engine_bracket = equivalence.bracket

    def counted(a, b):
        pairs.append((a, b))
        return engine_bracket(a, b)

    monkeypatch.setattr(equivalence, "bracket", counted)
    graph, order = Graph(4, [(2, 3), (1, 2), (1, 3)]), GeneratorOrder.ascending(4)
    for k in range(0, 7):
        gamma = [LieElement.generator(graph, order, v % 4) * (v + 1) for v in range(k)]
        pairs.clear()
        equivalence.gamma_closure(gamma)
        assert pairs == [(gamma[i], gamma[j]) for i in range(k) for j in range(i + 1, k)]
        assert len(pairs) == k * (k - 1) // 2


def test_sweep_estimate_counts_the_multidegrees_certify_visits(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP", 0)
    for n in range(1, 6):
        for bound in range(2, 7):
            visited = sum(1 for k in range(2, bound + 1) for _ in multidegrees(n, k))
            assert cli._oversized_sweep(n, bound) == f"{visited} multidegrees", (n, bound)
    monkeypatch.undo()
    # the largest sweep of the examples runs
    assert cli._oversized_sweep(5, 6) is None and cli._oversized_sweep(17, 6) == "100929 multidegrees"


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


def test_commands_load_neither_the_suite_nor_dataclasses():
    # every command starts a fresh interpreter, so what `pcml.cli` imports
    # is paid on each one; `suite` alone loads the suite, when it runs
    script = (
        "import sys\n"
        "import pcml, pcml.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'pcml.suite', 'pcml.sampling'} & set(sys.modules)))\n"
        "status = pcml.cli.run(['suite'])\n"
        "print('LOADED', 'pcml.suite' in sys.modules, 'STATUS', status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pcml.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "SEED=0"
    assert sum(line.startswith("CRITERION=") for line in lines) == 7
    assert all("STATUS=PASS" in line for line in lines if line.startswith("CRITERION="))
    assert lines[-1] == "LOADED True STATUS 0"


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

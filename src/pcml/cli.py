"""Command-line front end.

Reports are ordered KEY=VALUE lines, deterministic for fixed argv and
seed.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import oracle
from .centralizer import slice_size, spread, support_count, support_walk
from .core import (
    GeneratorOrder,
    act,
    bracket,
    format_element,
    multidegrees,
)
from .equivalence import (
    ThetaInstance,
    build_phi_hom,
    compaction_witness,
    distinguish_cycles,
    eval_theta,
    lambda_zero,
    phi_lambda,
    search_theta_witness,
)
from .errors import AlgebraError, GraphError, ParseError, PcmlError
from .graphs import compaction, cycle_graph, perp_classes
from .textio import (
    _check_vertex_count,
    parse_assoc_poly,
    parse_element,
    parse_elements,
    parse_graph_spec,
    parse_integer,
    parse_integers,
    read_file,
)

DEFAULT_DEGREE_BOUND = 6
# the most multidegrees `certify` sweeps, letters `dim` lays out, supports
# `centralizer` walks and elements it builds, and closure candidates
# `gamma-witness` builds; the largest examples sweep 456 multidegrees,
# walk 247 supports, build 40 elements and 280 candidates
MAX_SWEEP = 10 ** 5


class Report:
    __slots__ = ("lines", "status")

    def __init__(self, lines: Optional[List[str]] = None, status: int = 0):
        self.lines = [] if lines is None else lines
        self.status = status

    def __repr__(self) -> str:
        return f"Report(lines={self.lines!r}, status={self.status!r})"

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append(f"{key}={value}")

    def add_raw(self, line: str) -> None:
        self.lines.append(line)


def _graph_and_order(args):
    graph = parse_graph_spec(args.graph)
    if args.order:
        order = GeneratorOrder(parse_integers(args.order))
    else:
        order = GeneratorOrder.ascending(graph.n)
    return graph, order


def _certify(report: Report, graph, delta, order) -> bool:
    """Certify one multidegree's basis and add its line; True if it holds."""
    cert = oracle.certify_basis(graph, delta, order)
    vec = ",".join(map(str, delta))
    status = "OK" if cert.ok else f"FAIL {cert.witness}"
    report.add_raw(f"delta={vec} count={cert.count} dim={cert.dim} {status}")
    return cert.ok


def _cmd_nf(args, report: Report) -> None:
    graph, order = _graph_and_order(args)
    element = parse_element(args.element, graph, order)
    report.add("RESULT", format_element(element))


def _cmd_bracket(args, report: Report) -> None:
    graph, order = _graph_and_order(args)
    left = parse_element(args.left, graph, order)
    right = parse_element(args.right, graph, order)
    report.add("RESULT", format_element(bracket(left, right)))


def _cmd_act(args, report: Report) -> None:
    graph, order = _graph_and_order(args)
    element = parse_element(args.element, graph, order)
    poly = parse_assoc_poly(args.poly, graph.n)
    report.add("RESULT", format_element(act(element, poly)))


def _cmd_dim(args, report: Report) -> None:
    graph, order = _graph_and_order(args)
    delta = tuple(parse_integers(args.mdeg))
    total = sum(delta)
    if total > MAX_SWEEP:  # the oracle lays out every letter of delta, with multiplicity
        _refuse(report, f"{total} letters", "the multidegree", "letters")
    if not _certify(report, graph, delta, order):
        report.status = 1


def _oversized_sweep(n: int, bound: int) -> Optional[str]:
    """The C(n+bound, n) - n - 1 = sum_{k=2..bound} C(n+k-1, k) multidegrees `certify`
    sweeps, as text if over `MAX_SWEEP`, or as "at least 10^digits" once past printing."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    count, ceiling = 1, 10 ** digits + n + 1
    for i in range(1, n + 1):
        count = count * (bound + i) // i
        if count >= ceiling:
            return f"at least 10^{digits} multidegrees"
    count -= n + 1
    return f"{count} multidegrees" if count > MAX_SWEEP else None


def _refuse(report: Report, estimate: str, work: str, unit: str) -> None:
    """Refuse, before it starts, a run of over `MAX_SWEEP` units of work."""
    report.add("ESTIMATE", estimate)
    raise AlgebraError(f"{work} is over the limit of {MAX_SWEEP} {unit}")


def _cmd_certify(args, report: Report) -> None:
    bound = args.max_degree
    if bound < 2:
        raise AlgebraError("max degree must be at least 2")
    graph, order = _graph_and_order(args)
    estimate = _oversized_sweep(graph.n, bound)
    if estimate is not None:
        _refuse(report, estimate, "the sweep", "multidegrees")
    failures = 0
    for degree in range(2, bound + 1):
        for delta in multidegrees(graph.n, degree):
            failures += not _certify(report, graph, delta, order)
    report.add("FAILURES", failures)
    if failures:
        report.status = 1


def _cmd_centralizer(args, report: Report) -> None:
    graph, order = _graph_and_order(args)
    g = parse_element(args.element, graph, order)
    supports = support_count(g, args.degree)
    if supports > MAX_SWEEP:
        _refuse(report, f"{supports} supports", "the support walk", "supports")
    walk = support_walk(g, args.degree) if supports else []
    elements = slice_size(walk, args.degree)
    if elements > MAX_SWEEP:
        _refuse(report, f"{elements} elements", "the slice", "elements")
    slice_ = spread(g, args.degree, walk)
    report.add("ELEMENT", format_element(g))
    report.add("DEGREE_BOUND", slice_.degree_bound)
    report.add("COUNT", len(slice_.elements))
    for k, h in enumerate(slice_.elements):
        report.add(f"BASIS_{k}", format_element(h))


def _cmd_theta(args, report: Report) -> None:
    _check_vertex_count(args.n)  # the cycle lengths obey the limit of graph specs
    graph = cycle_graph(args.n)
    order = GeneratorOrder.ascending(args.n)
    assignment = parse_elements(args.assign, graph, order)
    result = eval_theta(ThetaInstance(len(assignment), graph, order), assignment)
    report.add("RESULT", result.holds)
    if result.failing_atom is not None:
        atom = result.failing_atom
        report.add("FAILING_ATOM", f"{atom.family}({atom.i},{atom.j})")


def _cmd_witness(args, report: Report) -> None:
    _check_vertex_count(max(args.n, args.m))
    found = search_theta_witness(args.n, args.m, mode=args.mode)
    report.add("MODE", found.mode)
    report.add("CHECKED", found.checked)
    report.add("SPACE", found.space)
    if found.mode == "generator-assignments":
        report.add("WITNESS", ",".join(map(str, found.witness)) if found.witness else "none")
    else:
        report.add("NO_REPEAT_COUNT", len(found.no_repeat_sequences))
    report.add("EXHAUSTED", found.exhausted)


def _cmd_distinguish(args, report: Report) -> None:
    _check_vertex_count(max(args.n, args.m))
    verdict = distinguish_cycles(args.n, args.m)
    if verdict.equivalent:
        report.add("SEPARATED", False)
        report.add("VERDICT", "equivalent")
        report.add("SENTENCE", verdict.sentence)
        return
    report.add("SEPARATED", verdict.separated)
    report.add("SENTENCE", verdict.sentence)
    if verdict.sentence == "Psi":
        report.add("COUNTEREXAMPLE", verdict.detail["counterexample"])
        report.add("COUNTEREXAMPLE_VALUE", format_element(verdict.detail["counterexample_value"]))
    else:
        search = verdict.detail["search"]
        report.add("THETA_IN_LARGE", verdict.detail["theta_holds_in_large"])
        report.add("SEQUENCES_CHECKED", search.checked)
    if not verdict.separated:
        report.status = 1


def _cmd_compact(args, report: Report) -> None:
    result = compaction(parse_graph_spec(args.graph))
    report.add("VERTICES", result.graph.n)
    report.add("KEPT", ",".join(map(str, result.kept)))
    report.add("EDGES", ";".join(f"{i},{j}" for i, j in result.graph.edge_list()))
    report.add("MAP", ",".join(f"{old}:{new}" for old, new in sorted(result.vertex_map.items())))


def _cmd_perp(args, report: Report) -> None:
    classes = perp_classes(parse_graph_spec(args.graph))
    report.add("CLASSES", len(classes))
    for k, block in enumerate(classes):
        report.add(f"CLASS_{k}", ",".join(map(str, sorted(block))))


def _cmd_phi(args, report: Report) -> None:
    graph = parse_graph_spec(args.graph)
    hom = build_phi_hom(graph, args.lam)
    element = parse_element(args.element, graph, hom.source_order)
    image = phi_lambda(hom, element)
    report.add("LAMBDA", hom.lam)
    report.add("RESULT", format_element(image))


def _cmd_lambda0(args, report: Report) -> None:
    graph = parse_graph_spec(args.graph)
    hom = build_phi_hom(graph, 1)
    element = parse_element(args.element, graph, hom.source_order)
    report.add("LAMBDA0", lambda_zero(element, hom))


def _cmd_gamma_witness(args, report: Report) -> None:
    graph = parse_graph_spec(args.graph)
    order = GeneratorOrder.ascending(graph.n)
    lines = read_file(args.gamma, "gamma file", AlgebraError).split("\n")
    gamma = [parse_element(t, graph, order) for t in lines if t.strip()]
    k = len(gamma)
    candidates = k + k * k + 2 * k ** 3  # what `gamma_closure` pushes
    if candidates > MAX_SWEEP:
        _refuse(report, f"{candidates} closure candidates", "the closure", "candidates")
    result = compaction_witness(graph, gamma)
    report.add("GAMMA_SIZE", result.gamma_size)
    report.add("CLOSURE_SIZE", result.closure_size)
    report.add("NONZERO", result.nonzero_in_closure)
    report.add("REMOVED", result.removed_vertex)
    report.add("KEPT", result.kept_vertex)
    report.add("LAMBDA", result.lam)
    report.add("OK", result.ok)


def _cmd_suite(args, report: Report) -> None:
    from .suite import run_suite  # here, so that no other command compiles the suite at start-up

    results = run_suite(seed=args.seed, emit=report.add_raw)
    if any(not r.ok for r in results):
        report.status = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcml",
        description="Exact computation in graph-defined metabelian Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, graph=False, order=False, degree=False):
        p.set_defaults(run=handler)
        p.add_argument("--seed", type=parse_integer, default=0)
        p.add_argument("--output", default=None, help="also write the report to a file")
        if graph:
            p.add_argument("--graph", required=True, help="cycle:<n>, complete:<n>, path:<n>, or a JSON file")
        if order:
            p.add_argument("--order", default=None, help="comma list of generators, least first")
        if degree:
            p.add_argument("--degree", type=parse_integer, default=DEFAULT_DEGREE_BOUND, help=f"degree bound (default {DEFAULT_DEGREE_BOUND})")
        return p

    p = common(sub.add_parser("nf", help="normal form of an element"), _cmd_nf, graph=True, order=True)
    p.add_argument("--element", required=True)

    p = common(sub.add_parser("bracket", help="Lie product of two elements"), _cmd_bracket, graph=True, order=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = common(sub.add_parser("act", help="polynomial action on a derived element"), _cmd_act, graph=True, order=True)
    p.add_argument("--element", required=True)
    p.add_argument("--poly", required=True)

    p = common(sub.add_parser("dim", help="certify one multidegree against the oracle"), _cmd_dim, graph=True, order=True)
    p.add_argument("--mdeg", required=True)

    p = common(sub.add_parser("certify", help="certify all multidegrees up to a degree"), _cmd_certify, graph=True, order=True)
    p.add_argument("--max-degree", type=parse_integer, default=4)

    p = common(sub.add_parser("centralizer", help="derived centralizer of a linear element"), _cmd_centralizer, graph=True, order=True, degree=True)
    p.add_argument("--element", required=True)

    p = common(sub.add_parser("theta", help="evaluate the cycle sentence"), _cmd_theta)
    p.add_argument("--n", type=parse_integer, required=True)
    p.add_argument("--assign", required=True, help="comma-separated element list, one per variable")

    p = common(sub.add_parser("witness", help="search for a sentence witness"), _cmd_witness)
    p.add_argument("--n", type=parse_integer, required=True)
    p.add_argument("--m", type=parse_integer, required=True)
    p.add_argument("--mode", default="generator-assignments", choices=["generator-assignments", "j-sequences"])

    p = common(sub.add_parser("distinguish", help="separate two cycle algebras"), _cmd_distinguish)
    p.add_argument("--n", type=parse_integer, required=True)
    p.add_argument("--m", type=parse_integer, required=True)

    common(sub.add_parser("compact", help="compaction of a graph"), _cmd_compact, graph=True)
    common(sub.add_parser("perp", help="closed-neighborhood classes"), _cmd_perp, graph=True)

    p = common(sub.add_parser("phi", help="merge homomorphism image"), _cmd_phi, graph=True)
    p.add_argument("--lambda", dest="lam", type=parse_integer, required=True)
    p.add_argument("--element", required=True)

    p = common(sub.add_parser("lambda0", help="nonvanishing threshold of an element"), _cmd_lambda0, graph=True)
    p.add_argument("--element", required=True)

    p = common(sub.add_parser("gamma-witness", help="finite-set merge witness"), _cmd_gamma_witness, graph=True)
    p.add_argument("--gamma", required=True, help="file with one element per line")

    common(sub.add_parser("suite", help="run the acceptance suite"), _cmd_suite)
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    report = Report()
    report.add("SEED", args.seed)
    try:
        args.run(args, report)
    except ParseError as exc:
        report.add("ERROR", exc)
        report.add("POSITION", exc.position)
        report.status = 2
    except (GraphError, AlgebraError) as exc:
        report.add("ERROR", exc)
        report.status = 2
    except PcmlError as exc:
        report.add("ERROR", exc)
        report.status = 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.lines) + "\n")
        except OSError as exc:
            report.add("ERROR", f"cannot write report to {args.output!r}: {exc.strerror or exc}")
            report.status = 2
    try:
        print("\n".join(report.lines), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; the exit flush must not raise again
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return report.status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

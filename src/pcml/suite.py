"""The acceptance suite: every exit criterion as a callable check.

Each criterion function returns a CriterionResult and is deterministic
for a fixed seed.  The pytest acceptance module and the ``suite`` CLI
subcommand both run these.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, List, NamedTuple, Optional, Sequence

from . import oracle
from .centralizer import (
    check_intersection_theorem,
    classify_cycle_centralizer,
    derived_centralizer,
)
from .core import (
    GeneratorOrder,
    LieElement,
    bracket,
    multidegrees,
)
from .equivalence import (
    _theta_identity,
    build_phi_hom,
    compaction_witness,
    distinguish_cycles,
    lambda_zero,
    merge_scaling_components,
    phi_lambda,
    search_theta_witness,
)
from .graphs import (
    Graph,
    compaction,
    components_within,
    cycle_graph,
    perp_classes,
)
from .sampling import (
    random_element,
    random_graph,
    random_graph_with_merged_pair,
    random_homogeneous_raw,
    raw_to_element,
)

# seven-vertex example graph: a dense cluster on {0,1,2,3}, vertex 4
# joined to the cluster's interior, and two leaves hanging off 4
EXAMPLE_GRAPH_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3),
    (1, 4), (2, 4), (3, 4), (4, 5), (4, 6),
)

SPIDER_EDGES = ((0, 1), (1, 2), (2, 3), (2, 4))


def example_graph() -> Graph:
    return Graph(7, EXAMPLE_GRAPH_EDGES)


def spider_graph() -> Graph:
    return Graph(5, SPIDER_EDGES)


class CriterionResult(NamedTuple):
    index: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"CRITERION={self.index} STATUS={status} NAME={self.name} DETAIL={self.detail}"


# the name of criterion k is NAMES[k - 1]
NAMES = (
    "oracle-certification", "lie-axioms", "cycle-centralizers", "centralizer-intersection",
    "cycle-separation", "compaction", "merge-homomorphism",
)


def _passed(index: int, detail: str) -> CriterionResult:
    return CriterionResult(index, NAMES[index - 1], True, detail)


def _failed(index: int, detail: str) -> CriterionResult:
    return CriterionResult(index, NAMES[index - 1], False, detail)


def _all_graphs(n: int):
    all_edges = list(combinations(range(n), 2))
    for mask in range(1 << len(all_edges)):
        yield Graph(n, [e for k, e in enumerate(all_edges) if mask >> k & 1])


def criterion_1(seed: int = 0) -> CriterionResult:
    """Basis counts match oracle dimensions and vanishing agrees with
    ideal membership, over every labeled 4-vertex graph."""
    rng = random.Random(seed)
    order = GeneratorOrder.ascending(4)
    graphs = list(_all_graphs(4))
    slices = 0
    for graph in graphs:
        for degree in range(2, 6):
            for delta in multidegrees(4, degree):
                report = oracle.certify_basis(graph, delta, order)
                slices += 1
                if not report.ok:
                    return _failed(1, f"graph={graph.edge_list()} delta={delta} "
                                      f"count={report.count} dim={report.dim}: {report.witness}")
    checks = 0
    for graph in graphs:
        for _ in range(200):
            degree = rng.randint(2, 5)
            _, raw = random_homogeneous_raw(rng, 4, degree)
            engine_zero = raw_to_element(raw, graph, order).is_zero()
            oracle_zero = oracle.ideal_member(raw, graph)
            checks += 1
            if engine_zero != oracle_zero:
                return _failed(1, f"graph={graph.edge_list()} raw={raw} engine={engine_zero} oracle={oracle_zero}")
    return _passed(1, f"graphs=64 slices={slices} random_checks={checks}")


def criterion_2(seed: int = 0) -> CriterionResult:
    """Anticommutativity, Jacobi, and the abelian-derived identity
    normalize to zero on random elements of cycles."""
    rng = random.Random(seed)
    trials = 500
    for t in range(trials):
        n = 4 + t % 4
        graph = cycle_graph(n)
        order = GeneratorOrder.ascending(n)
        a = random_element(graph, order, rng, max_degree=4)
        b = random_element(graph, order, rng, max_degree=4)
        c = random_element(graph, order, rng, max_degree=4)
        d = random_element(graph, order, rng, max_degree=4)
        if not (bracket(a, b) + bracket(b, a)).is_zero():
            return _failed(2, f"anticommutativity trial={t}")
        jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
        if not jac.is_zero():
            return _failed(2, f"jacobi trial={t}")
        if not bracket(bracket(a, b), bracket(c, d)).is_zero():
            return _failed(2, f"metabelian trial={t}")
    return _passed(2, f"trials={trials} cycles=4..7")


def criterion_3(seed: int = 0) -> CriterionResult:
    """Centralizer structure on cycles: adjacent pairs and all triples
    give nothing; distant pairs give exactly the predicted module."""
    bound = 6
    for n in range(4, 8):
        graph = cycle_graph(n)
        order = GeneratorOrder.ascending(n)
        for i in range(n):
            g = LieElement.from_linear(graph, order, {i: 1, (i + 1) % n: 1})
            if not derived_centralizer(g, bound).is_empty():
                return _failed(3, f"part=a n={n} i={i}")
        for i, j in combinations(range(n), 2):
            if (j - i) % n in (1, n - 1):
                continue
            report = classify_cycle_centralizer(n, i, j, bound)
            if not (report.support_ok and report.form_ok and report.homogeneous_ok):
                return _failed(3, f"part=b n={n} pair=({i},{j}) support={report.support_ok} form={report.form_ok}")
            if bound >= n - 2 and report.count == 0:
                return _failed(3, f"part=b n={n} pair=({i},{j}) unexpectedly empty")
        for i, j, k in combinations(range(n), 3):
            g = LieElement.from_linear(graph, order, {i: 1, j: 1, k: 1})
            if not derived_centralizer(g, bound).is_empty():
                return _failed(3, f"part=c n={n} triple=({i},{j},{k})")
    return _passed(3, "n=4..7 bound=6")


def criterion_4(seed: int = 0) -> CriterionResult:
    """Centralizer of a combination equals the intersection of the
    generators' centralizers on random instances.

    Each instance compares the two sides once per support of two or
    more letters off supp g (`check_intersection_theorem`): the closed
    form of the kernel of ad g, which the solve returns, against one
    elimination of the generators' normal-form images.  Both sides are
    0 on every other multidegree by the proof in `pcml.centralizer`.
    An instance with fewer than two letters off supp g compares no
    support, so it only checks that the call is accepted; the detail
    counts instances, not comparisons."""
    rng = random.Random(seed)
    bound = 5
    for t in range(50):
        n = rng.randint(3, 5)
        graph = random_graph(rng, n)
        m = rng.randint(2, min(3, n))
        indices = rng.sample(range(n), m)
        coefficients = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in indices]
        if not check_intersection_theorem(indices, coefficients, graph, bound):
            return _failed(4, f"trial={t} graph={graph.edge_list()} indices={indices} coeffs={coefficients}")
    return _passed(4, "instances=50 bound=5")


def criterion_5(seed: int = 0) -> CriterionResult:
    """Cycle separation: the sentence holds on the matching cycle,
    exhausts on shorter ones, and the abelian sentence settles n=3."""
    for m in range(4, 11):
        if not _theta_identity(m, certify=True):
            return _failed(5, f"identity fails m={m}")
    searched = []
    for n in range(4, 10):
        for m in range(n + 1, 11):
            report = search_theta_witness(n, m, mode="generator-assignments")
            if not report.exhausted:
                return _failed(5, f"unexpected witness n={n} m={m}: {report.witness}")
            searched.append(f"{n}<{m}:{report.checked}")
    for m in range(4, 8):
        if not distinguish_cycles(3, m).separated:
            return _failed(5, f"psi check fails m={m}")
    return _passed(5, "identity m=4..10; " + " ".join(searched))


def criterion_6(seed: int = 0) -> CriterionResult:
    """Compaction: the 7-vertex example collapses onto the spider, and
    the neighborhood-class invariants hold on random graphs."""
    rng = random.Random(seed)
    result = compaction(example_graph())
    if result.graph != spider_graph():
        return _failed(6, "example compaction is not the spider")
    for t in range(200):
        n = rng.randint(1, 8)
        graph = random_graph(rng, n, p=rng.choice([0.2, 0.4, 0.6, 0.8]))
        classes = perp_classes(graph)
        result = compaction(graph)
        if result.graph.n != len(classes):
            return _failed(6, f"trial={t} size != class count")
        again = compaction(result.graph)
        if again.graph != result.graph or len(again.kept) != result.graph.n:
            return _failed(6, f"trial={t} not idempotent")
        for block in classes:
            members = sorted(block)
            for a, b in combinations(members, 2):
                if not graph.adjacent(a, b):
                    return _failed(6, f"trial={t} class not complete")
            outside = [y for y in range(n) if y not in block]
            for y in outside:
                flags = {graph.adjacent(y, v) for v in members}
                if len(flags) > 1:
                    return _failed(6, f"trial={t} external neighbor differs")
        # removing one twin preserves component structure of subgraphs
        big = [b for b in classes if len(b) >= 2]
        if big and n >= 2:
            block = big[0]
            x, y = sorted(block)[:2]
            rest = [v for v in range(n) if v != y]
            sub = [v for v in rest if rng.random() < 0.7] + [x]
            sub = sorted(set(sub))
            with_y = sub + [y]
            before = components_within(graph, with_y)
            after = components_within(graph, sub)
            if len(before) != len(after):
                return _failed(6, f"trial={t} component count changed")
            comp_of_before = {v: k for k, blk in enumerate(before) for v in blk}
            comp_of_after = {v: k for k, blk in enumerate(after) for v in blk}
            for a, b in combinations(sub, 2):
                same_before = comp_of_before[a] == comp_of_before[b]
                same_after = comp_of_after[a] == comp_of_after[b]
                if same_before != same_after:
                    return _failed(6, f"trial={t} co-component flips")
    return _passed(6, "example 7->5 spider; 200 random graphs")


def criterion_7(seed: int = 0) -> CriterionResult:
    """Merge homomorphism: multiplicativity, the component scaling law,
    nonvanishing beyond the threshold, and finite-set witnesses."""
    rng = random.Random(seed)
    for t in range(200):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom = build_phi_hom(graph, rng.randint(1, 3))
        a = random_element(graph, hom.source_order, rng, max_degree=3)
        b = random_element(graph, hom.source_order, rng, max_degree=3)
        if phi_lambda(hom, a + b) != phi_lambda(hom, a) + phi_lambda(hom, b):
            return _failed(7, f"additivity trial={t}")
        if phi_lambda(hom, bracket(a, b)) != bracket(phi_lambda(hom, a), phi_lambda(hom, b)):
            return _failed(7, f"multiplicativity trial={t}")
    scaling_checks = 0
    for t in range(100):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom1 = build_phi_hom(graph, 1)
        g = random_element(graph, hom1.source_order, rng, max_degree=4)
        if g.is_zero():
            continue
        parts = LieElement._trusted(g.algebra, {}, {})
        for sc in merge_scaling_components(g, hom1):
            if sc.label[0] != "glued":
                continue
            scaling_checks += 1
            if sc.base is None:
                return _failed(7, f"missing base monomial trial={t}")
            parts = parts + sc.part
            for lam in (1, 2, 3):
                hom_l = build_phi_hom(graph, lam)
                scale = sum(c * lam ** k for k, c in enumerate(sc.coeffs))
                expected = LieElement.from_monomial(hom_l.target_graph, hom_l.target_order, sc.base, scale)
                if phi_lambda(hom_l, sc.part) != expected:
                    return _failed(7, f"scaling law trial={t}")
        if parts != LieElement._trusted(g.algebra, {}, g.derived):
            return _failed(7, f"parts do not sum to the derived part trial={t}")
        threshold = lambda_zero(g, hom1)
        for lam in range(threshold, threshold + 4):
            if phi_lambda(build_phi_hom(graph, lam), g).is_zero():
                return _failed(7, f"vanishes at {lam} >= {threshold}")
    for _ in range(20):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        order = GeneratorOrder.ascending(n)
        # a witness that fails verification raises CertificationError
        compaction_witness(graph, [random_element(graph, order, rng, max_degree=3) for _ in range(3)])
    return _passed(7, f"hom_pairs=200 scaling_components={scaling_checks} thresholds=100 witnesses=20")


CRITERIA: Sequence[Callable[[int], CriterionResult]] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6, criterion_7,
)


def run_suite(seed: int = 0, emit: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    results = []
    for check in CRITERIA:
        result = check(seed)
        results.append(result)
        if emit:
            emit(result.line())
        if not result.ok:
            break
    return results

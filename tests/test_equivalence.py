import random

import pytest

from pcml.core import (
    GeneratorOrder,
    LieElement,
    bracket,
    glued_decomposition,
    substitute,
    word_element,
)
from pcml.equivalence import (
    Atom,
    ThetaInstance,
    _constrained_sequences,
    build_phi_hom,
    compaction_witness,
    distinguish_cycles,
    eval_theta,
    gamma_closure,
    lambda_zero,
    merge_relabeling,
    merge_scaling_components,
    phi_lambda,
    positive_integer_roots,
    search_theta_witness,
    theta_identity_holds,
)
from pcml.errors import AlgebraError, GraphError
from pcml.graphs import Graph, circ_dist, cycle_graph
from pcml.sampling import random_element, random_graph, random_graph_with_merged_pair

# four vertices, 2 and 3 neighborhood-equivalent, 0 isolated
MERGE4 = Graph(4, [(2, 3), (1, 2), (1, 3)])


def test_theta_identity_small_cycles():
    for m in range(4, 7):
        assert theta_identity_holds(m)


def test_theta_all_zero_assignment_fails():
    c5 = cycle_graph(5)
    o5 = GeneratorOrder.ascending(5)
    inst = ThetaInstance(5, c5, o5)
    zeros = [LieElement.zero(c5, o5)] * 5
    result = eval_theta(inst, zeros)
    assert not result.holds
    assert result.failing_atom.family == "distant-nonzero"


def test_theta_wrapped_generator_assignment_fails():
    c5 = cycle_graph(5)
    o5 = GeneratorOrder.ascending(5)
    inst = ThetaInstance(6, c5, o5)
    assignment = [LieElement.generator(c5, o5, i) for i in (0, 1, 2, 3, 4, 0)]
    result = eval_theta(inst, assignment)
    assert not result.holds
    assert result.failing_atom == Atom("distant-nonzero", 0, 4)


def test_theta_scaling_invariance():
    rng = random.Random(3)
    c5 = cycle_graph(5)
    o5 = GeneratorOrder.ascending(5)
    inst = ThetaInstance(5, c5, o5)
    base = [LieElement.generator(c5, o5, i) for i in range(5)]
    assert eval_theta(inst, base).holds
    for _ in range(5):
        scaled = [g * rng.choice([-3, -2, -1, 1, 2, 3]) for g in base]
        assert eval_theta(inst, scaled).holds


def test_theta_validation():
    c5 = cycle_graph(5)
    o5 = GeneratorOrder.ascending(5)
    with pytest.raises(AlgebraError):
        ThetaInstance(3, c5, o5)
    inst = ThetaInstance(5, c5, o5)
    with pytest.raises(AlgebraError):
        eval_theta(inst, [LieElement.zero(c5, o5)] * 4)


def test_search_witness_same_length():
    report = search_theta_witness(5, 5)
    assert report.witness is not None
    assert not report.exhausted


def test_search_exhausts_on_shorter_cycle():
    report = search_theta_witness(4, 5)
    assert report.witness is None and report.exhausted
    assert report.space == 4 ** 5


def test_search_j_sequences_mode():
    report = search_theta_witness(4, 5, mode="j-sequences")
    assert report.exhausted and not report.no_repeat_sequences
    report = search_theta_witness(5, 5, mode="j-sequences")
    assert not report.exhausted
    assert all(len(set(seq)) == 5 for seq in report.no_repeat_sequences)


def test_search_validation():
    with pytest.raises(AlgebraError):
        search_theta_witness(3, 5)
    with pytest.raises(AlgebraError):
        search_theta_witness(5, 4)
    with pytest.raises(AlgebraError):
        search_theta_witness(5, 6, mode="nope")


def _naive_eval_theta(inst, assignment):
    """Reference: every atom in order, every bracket recomputed."""
    z, m = list(assignment), inst.m
    atoms = [Atom("adjacent-zero", i, (i + 1) % m) for i in range(m)]
    atoms += [Atom("distant-nonzero", i, j) for i in range(m) for j in range(i + 1, m)
              if circ_dist(m, i, j) > 1]
    atoms += [Atom("triple-nonzero", i, j) for i in range(m) for j in range(m)
              if circ_dist(m, i, j) * circ_dist(m, (i + 2) % m, j) != 1]
    for atom in atoms:
        if atom.family == "adjacent-zero":
            ok = bracket(z[atom.i], z[atom.j]).is_zero()
        elif atom.family == "distant-nonzero":
            ok = not bracket(z[atom.i], z[atom.j]).is_zero()
        else:
            inner = bracket(z[atom.i], z[(atom.i + 2) % m])
            ok = not bracket(inner, z[atom.j]).is_zero()
        if not ok:
            return False, atom
    return True, None


def _reference_search(n, m):
    """Reference: evaluate the sentence on every constrained sequence."""
    graph, order = cycle_graph(n), GeneratorOrder.ascending(n)
    inst = ThetaInstance(m, graph, order)
    gens = [LieElement.generator(graph, order, i) for i in range(n)]
    checked = 0
    for seq in _constrained_sequences(n, m):
        checked += 1
        if eval_theta(inst, [gens[j] for j in seq]).holds:
            return seq, checked, False
    return None, checked, True


@pytest.mark.parametrize("m", range(5, 9))
def test_pruned_search_matches_full_evaluation(m):
    for n in range(4, m + 1):
        report = search_theta_witness(n, m)
        assert (report.witness, report.checked, report.exhausted) == _reference_search(n, m)


def _theta_instance(rng, kind):
    """A random instance and a mix of scaled generators, zeros, repeats
    and random elements with derived parts.  The "derived" kind joins a
    vertex w = m to j - 1 and j + 1 on the cycle and puts [x_j, x_w] at
    position j, so that a triple atom can be the first to fail."""
    m = rng.randint(4, 7)
    if kind == "random":
        graph = random_graph(rng, rng.randint(3, 5), p=rng.choice([0.3, 0.6]))
    elif kind == "cycle":
        graph = cycle_graph(m)
    else:
        j = rng.randrange(m)
        edges = [(k, (k + 1) % m) for k in range(m)] + [(m, (j - 1) % m), (m, (j + 1) % m)]
        graph = Graph(m + 1, edges)
    perm = list(range(graph.n))
    rng.shuffle(perm)
    order = GeneratorOrder(perm)
    z = [LieElement.generator(graph, order, k % graph.n) * rng.choice((-2, 1, 3))
         for k in range(m)]
    if kind == "derived":
        z[j] = word_element(graph, order, (j, m)) * rng.choice((-1, 2))
    pool = [LieElement.zero(graph, order)]
    pool += [random_element(graph, order, rng, max_degree=3) for _ in range(3)]
    for k in rng.sample(range(m), rng.randint(0, 2)):
        choice = rng.randrange(3)
        if choice == 0:
            z[k] = rng.choice(pool)
        elif choice == 1:
            z[k] = z[rng.randrange(m)]
        else:
            z[k] = z[k] + rng.choice(pool[1:])
    return ThetaInstance(m, graph, order), z


def test_eval_theta_matches_naive_atom_loop():
    rng = random.Random(23)
    seen = set()
    for trial in range(300):
        inst, z = _theta_instance(rng, ("random", "cycle", "derived")[trial % 3])
        result = eval_theta(inst, z)
        assert (result.holds, result.failing_atom) == _naive_eval_theta(inst, z)
        seen.add(result.failing_atom.family if result.failing_atom else "holds")
    assert seen == {"adjacent-zero", "distant-nonzero", "triple-nonzero", "holds"}


def _closed_walks(n, m):
    """trace(A^m) for the circulant A with ones on and next to the
    diagonal: the number of constrained sequences, by integer matrix power."""
    a = [[int(circ_dist(n, i, j) <= 1) for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(m):
        power = [[sum(row[k] * a[k][j] for k in range(n)) for j in range(n)] for row in power]
    return sum(power[i][i] for i in range(n))


def test_long_search_is_exhausted_and_counts_every_sequence():
    n, m = 30, 40
    report = search_theta_witness(n, m)
    assert report.exhausted and report.witness is None
    assert report.checked == _closed_walks(n, m)
    assert search_theta_witness(4, 5).checked == 244


@pytest.mark.parametrize("m", range(5, 9))
def test_j_sequences_match_full_enumeration(m):
    for n in range(4, m + 2):
        report = search_theta_witness(n, m, mode="j-sequences")
        sequences = list(_constrained_sequences(n, m))
        no_repeat = tuple(seq for seq in sequences if len(set(seq)) == m)
        assert report.checked == len(sequences)
        assert report.no_repeat_sequences == no_repeat
        assert report.exhausted == (not no_repeat)


def test_long_j_sequence_search_counts_every_sequence():
    n, m = 30, 40
    report = search_theta_witness(n, m, mode="j-sequences")
    assert report.exhausted and not report.no_repeat_sequences
    assert report.checked == _closed_walks(n, m)

def test_distinguish_equal_lengths():
    verdict = distinguish_cycles(5, 5)
    assert verdict.equivalent and verdict.sentence == "isomorphic"


def test_distinguish_triangle():
    verdict = distinguish_cycles(3, 4)
    assert not verdict.equivalent and verdict.separated
    assert verdict.sentence == "Psi"
    assert verdict.detail["counterexample"] == "[x1,x3]"
    assert verdict.detail["counterexample_nonzero"]


def test_distinguish_four_five():
    verdict = distinguish_cycles(4, 5)
    assert verdict.separated and verdict.sentence == "Phi(5)"
    assert verdict.detail["search"].exhausted


def test_distinguish_order_of_arguments():
    verdict = distinguish_cycles(6, 5)
    assert verdict.separated and verdict.sentence == "Phi(6)"
    with pytest.raises(GraphError):
        distinguish_cycles(2, 5)


def test_phi_on_generators():
    hom = build_phi_hom(MERGE4, 3)
    x3 = LieElement.generator(MERGE4, hom.source_order, 3)
    image = phi_lambda(hom, x3)
    assert image.linear == {2: 3} and not image.derived
    x0 = LieElement.generator(MERGE4, hom.source_order, 0)
    assert phi_lambda(hom, x0).linear == {0: 1}


def test_phi_difference_example():
    hom1 = build_phi_hom(MERGE4, 1)
    so = hom1.source_order
    g = word_element(MERGE4, so, (2, 0)) - word_element(MERGE4, so, (3, 0))
    assert phi_lambda(hom1, g).is_zero()
    hom2 = build_phi_hom(MERGE4, 2)
    assert not phi_lambda(hom2, g).is_zero()
    assert lambda_zero(g, hom1) == 2


def test_phi_monomial_scaling_law():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        for lam in (1, 2, 3):
            hom = build_phi_hom(graph, lam)
            g = random_element(graph, hom.source_order, rng, max_degree=4)
            derived = LieElement(graph, hom.source_order, {}, g.derived)
            if derived.is_zero():
                continue
            for sc in merge_scaling_components(derived, hom):
                if sc.label[0] != "glued":
                    continue
                scale = sum(c * lam ** k for k, c in enumerate(sc.coeffs))
                assert sc.base is not None
                expected = LieElement.from_monomial(hom.target_graph, hom.target_order, sc.base, scale)
                component = next(
                    comp for comp in glued_decomposition(derived)
                    if (comp.glued, comp.start) == sc.label[1:]
                )
                assert phi_lambda(hom, component.element) == expected


def test_phi_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom = build_phi_hom(graph, rng.randint(1, 4))
        a = random_element(graph, hom.source_order, rng, max_degree=3)
        b = random_element(graph, hom.source_order, rng, max_degree=3)
        assert phi_lambda(hom, a + b) == phi_lambda(hom, a) + phi_lambda(hom, b)
        assert phi_lambda(hom, bracket(a, b)) == bracket(phi_lambda(hom, a), phi_lambda(hom, b))


def test_phi_rejects_bad_merge_pair():
    with pytest.raises(GraphError):
        build_phi_hom(cycle_graph(5), 2)
    with pytest.raises(AlgebraError):
        build_phi_hom(MERGE4, 0)


def test_positive_integer_roots():
    assert positive_integer_roots((1, -1)) == [1]
    assert positive_integer_roots((0, -2, 1)) == [2]
    assert positive_integer_roots((5,)) == []
    assert positive_integer_roots((0, 0, 7)) == []
    assert positive_integer_roots((6, -5, 1)) == [2, 3]
    assert positive_integer_roots(()) == []


def test_lambda_zero_examples():
    hom = build_phi_hom(MERGE4, 1)
    so = hom.source_order
    g = word_element(MERGE4, so, (2, 0))
    assert lambda_zero(g, hom) == 1  # no occurrence of the merged vertex
    poly = word_element(MERGE4, so, (2, 0)) * -2 + word_element(MERGE4, so, (3, 0)) * 1
    # coefficients (-2, 1): root 2, threshold 3
    assert lambda_zero(poly, hom) == 3
    with pytest.raises(AlgebraError):
        lambda_zero(LieElement.zero(MERGE4, so), hom)


def test_lambda_zero_linear_parts():
    hom = build_phi_hom(MERGE4, 1)
    so = hom.source_order
    g = LieElement.from_linear(MERGE4, so, {2: -3, 3: 1})
    # image coefficient on x2 is -3 + lam, vanishing at lam = 3
    assert lambda_zero(g, hom) == 4
    assert phi_lambda(build_phi_hom(MERGE4, 3), g).is_zero()
    assert not phi_lambda(build_phi_hom(MERGE4, 4), g).is_zero()
    h = LieElement.from_linear(MERGE4, so, {0: 5, 3: 1})
    assert lambda_zero(h, hom) == 1


def test_lambda_zero_threshold_property():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom1 = build_phi_hom(graph, 1)
        g = random_element(graph, hom1.source_order, rng, max_degree=4)
        if g.is_zero():
            continue
        threshold = lambda_zero(g, hom1)
        for lam in range(threshold, threshold + 4):
            assert not phi_lambda(build_phi_hom(graph, lam), g).is_zero()


def test_gamma_closure_counts():
    o = GeneratorOrder.ascending(4)
    x = [LieElement.generator(MERGE4, o, i) for i in range(3)]
    closure = gamma_closure(x)
    keys = {e.canonical_key() for e in closure}
    assert len(keys) == len(closure)
    for gi in x:
        for gj in x:
            assert (gi - gj).canonical_key() in keys
    # 3 originals + at most 9 differences + at most 2 * 27 triples
    assert len(closure) <= 3 + 9 + 2 * 27


def test_merge_relabeling_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        perm, new_graph = merge_relabeling(graph, n - 2, n - 1)
        assert perm == {v: v for v in range(n)}
        assert new_graph == graph
        order = GeneratorOrder.ascending(n)
        hom = build_phi_hom(graph, 1)
        e = random_element(graph, order, rng)
        moved = substitute(e, [(1, perm[v]) for v in range(n)], new_graph, hom.source_order)
        assert moved.is_zero() == e.is_zero()


def test_compaction_witness_single_generator():
    order = GeneratorOrder.ascending(4)
    report = compaction_witness(MERGE4, [LieElement.generator(MERGE4, order, 0)])
    assert report.ok and report.lam == 1
    assert report.removed_vertex == 3 and report.kept_vertex == 2


def test_compaction_witness_difference_pair():
    order = GeneratorOrder.ascending(4)
    gamma = [
        word_element(MERGE4, order, (2, 0)),
        word_element(MERGE4, order, (3, 0)),
    ]
    report = compaction_witness(MERGE4, gamma)
    assert report.ok
    assert report.lam >= 2
    assert report.images_distinct and report.bracket_faithful


def test_compaction_witness_rejects_elements_of_another_algebra():
    # [x3,x1] is nonzero over the 4-cycle but would vanish over MERGE4
    c4 = cycle_graph(4)
    with pytest.raises(AlgebraError):
        compaction_witness(MERGE4, [word_element(c4, GeneratorOrder.ascending(4), (3, 1))])
    c5 = cycle_graph(5)
    with pytest.raises(AlgebraError):
        compaction_witness(MERGE4, [word_element(c5, GeneratorOrder.ascending(5), (4, 1))])
    # no edge to violate: only the graph itself tells the algebras apart
    free4 = Graph(4, [])
    with pytest.raises(AlgebraError):
        compaction_witness(MERGE4, [word_element(free4, GeneratorOrder.ascending(4), (2, 1))])


def test_compaction_witness_requires_mergeable_class():
    with pytest.raises(GraphError):
        compaction_witness(cycle_graph(5), [])


def test_compaction_witness_random():
    rng = random.Random(19)
    for _ in range(5):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        order = GeneratorOrder.ascending(n)
        gamma = [random_element(graph, order, rng, max_degree=3) for _ in range(3)]
        report = compaction_witness(graph, gamma)
        assert report.ok and report.closure_size <= 3 + 9 + 2 * 27

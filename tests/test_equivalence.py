import random
from itertools import chain, combinations, product
from math import comb

import pytest

from pcml import core, equivalence, oracle, suite
from pcml.core import (
    GeneratorOrder,
    LieElement,
    basis_monomial_with_start,
    bracket,
    cycle_generators,
    substitute,
    word_element,
)
from pcml.equivalence import (
    Atom,
    ThetaInstance,
    _steps,
    build_phi_hom,
    compaction_witness,
    distinguish_cycles,
    eval_theta,
    gamma_closure,
    lambda_zero,
    merge_order,
    merge_relabeling,
    merge_scaling_components,
    phi_lambda,
    positive_integer_roots,
    search_theta_witness,
    theta_identity_holds,
)
from pcml.errors import AlgebraError, CertificationError, GraphError
from pcml.graphs import Graph, circ_dist, cycle_graph
from pcml.sampling import random_element, random_graph, random_graph_with_merged_pair, random_word
from pcml.textio import parse_element
import reference
from reference import compaction_witness_by_element, completion_counts_table, glued_decomposition, theta_identity_by_evaluation, theta_witness_walk

# four vertices, 2 and 3 neighborhood-equivalent, 0 isolated
MERGE4 = Graph(4, [(2, 3), (1, 2), (1, 3)])


def _constrained_sequences(n, m):
    """Every map Z_m -> Z_n whose consecutive images (cyclically) are at
    cyclic distance <= 1, one by one in lexicographic order: the
    unpruned reference for the witness searches."""
    seq = [0] * m

    def extend(pos):
        if pos == m:
            if circ_dist(n, seq[m - 1], seq[0]) <= 1:
                yield tuple(seq)
            return
        for step in _steps(n, seq[pos - 1]):
            seq[pos] = step
            yield from extend(pos + 1)

    for start in range(n):
        seq[0] = start
        yield from extend(1)


def test_theta_identity_small_cycles():
    for m in range(4, 7):
        assert theta_identity_holds(m)


def test_theta_identity_matches_the_full_evaluation():
    for m in range(4, 41):
        assert theta_identity_holds(m) == theta_identity_by_evaluation(m), m


def test_the_orbit_atoms_are_the_atoms_with_i_zero():
    for m in range(4, 41):
        atoms = equivalence._atoms(m, (0,))
        assert atoms == tuple(atom for atom in equivalence.theta_atoms(m) if atom.i == 0), m
        assert len(atoms) == (4 if m == 4 else 2 * m - 3)


def test_theta_atoms_are_every_atom_in_evaluation_order():
    for m in range(4, 41):
        assert equivalence.theta_atoms(m) == tuple(_naive_atoms(m)), m


def test_theta_identity_holds_brackets_each_pair_of_the_orbit_atoms_once(monkeypatch):
    # [x0, xj] for 1 <= j <= m - 2; the triple atoms reuse [x0, x2]
    brackets = []
    engine_bracket = equivalence.bracket

    def counted_bracket(a, b):
        brackets.append((a, b))
        return engine_bracket(a, b)

    monkeypatch.setattr(equivalence, "bracket", counted_bracket)
    for m in range(4, 12):
        brackets.clear()
        assert theta_identity_holds(m)
        assert len(brackets) == m - 2, m


def _laps(n):
    """The 2n laps z_k = x_{(s +- k) mod n} of the cycle's generators."""
    x = cycle_generators(n)
    return [[x[(start + direction * k) % n] for k in range(n)] for start in range(n) for direction in (1, -1)]


@pytest.mark.parametrize("n", range(5, 9))
def test_every_atom_holds_on_every_lap_and_the_oracle_agrees_with_each(monkeypatch, n):
    asked = []
    oracle_member = equivalence.ideal_member

    def counted_member(raw, graph):
        asked.append(raw)
        return oracle_member(raw, graph)

    monkeypatch.setattr(equivalence, "ideal_member", counted_member)
    atoms = equivalence.theta_atoms(n)
    for lap in _laps(n):
        letters = [next(iter(z.linear)) for z in lap]
        asked.clear()
        assert equivalence._first_failing(atoms, lap, certify=True) is None
        assert asked == [[(1, (letters[i], letters[(i + 2) % n], letters[j]) if family == "triple-nonzero"
                           else (letters[i], letters[j]))] for family, i, j in atoms]


@pytest.mark.parametrize("word", [(0, 2), (0, 2, 3)])
def test_the_oracle_catches_an_engine_case_that_flips_an_atom_of_a_lap(monkeypatch, word):
    n = 7
    algebra = cycle_generators(n)[0].algebra
    atoms = equivalence.theta_atoms(n)
    engine_cases = core._nf_cases

    def flipped(alg, a, b, tail):
        if alg is algebra and sorted((a, b) + tail) == sorted(word):
            return ()
        return engine_cases(alg, a, b, tail)

    monkeypatch.setattr(algebra, "_nf", {})  # keeps cached normal forms out of play
    monkeypatch.setattr(core, "_nf_cases", flipped)
    for lap in _laps(n):
        # the engine alone now fails an atom of every lap, the oracle does not
        assert equivalence._first_failing(atoms, lap, certify=False) is not None
        with pytest.raises(CertificationError, match=r"disagree on the atom (distant|triple)-nonzero\(\d+,\d+\) of Theta\(7\)"):
            equivalence._first_failing(atoms, lap, certify=True)


@pytest.mark.parametrize("word", [(0, 2), (0, 2, 3)])
def test_the_oracle_catches_an_engine_case_that_flips_an_orbit_atom(monkeypatch, word):
    m = 10
    x = cycle_generators(m)
    algebra = x[0].algebra
    assert theta_identity_holds(m)
    engine_cases = core._nf_cases

    def flipped(alg, a, b, tail):
        if alg is algebra and sorted((a, b) + tail) == sorted(word):
            return ()
        return engine_cases(alg, a, b, tail)

    monkeypatch.setattr(algebra, "_nf", {})  # keeps cached normal forms out of play
    monkeypatch.setattr(core, "_nf_cases", flipped)
    # the engine alone now refutes Theta(10), the oracle does not
    assert theta_identity_by_evaluation(m) is False and theta_identity_holds(m) is False
    for certified in (lambda: distinguish_cycles(5, m), lambda: search_theta_witness(m, m),
                      suite.criterion_5):
        with pytest.raises(CertificationError, match=r"disagree on the atom (distant|triple)-nonzero\(0,"):
            certified()


def test_the_oracle_catches_an_engine_case_that_flips_psis_counterexample(monkeypatch):
    m = 5
    x = cycle_generators(m)
    algebra = x[0].algebra
    assert distinguish_cycles(3, m).separated
    engine_cases = core._nf_cases

    def flipped(alg, a, b, tail):
        if alg is algebra and sorted((a, b) + tail) == [1, 3]:
            return ()
        return engine_cases(alg, a, b, tail)

    monkeypatch.setattr(algebra, "_nf", {})  # keeps cached normal forms out of play
    monkeypatch.setattr(core, "_nf_cases", flipped)
    # the engine alone now says [x1,x3] vanishes on C_5, the oracle does not
    assert bracket(x[1], x[3]).is_zero()
    for certified in (lambda: distinguish_cycles(3, m), suite.criterion_5):
        with pytest.raises(CertificationError, match=r"disagree on Psi's counterexample on C_5: .*\[x1,x3\] is zero"):
            certified()


def test_theta_identity_holds_eliminates_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("an elimination")

    monkeypatch.setattr(oracle.linalg, "rref", refuse)
    for m in range(4, 12):
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
    # m is checked before the order is
    with pytest.raises(AlgebraError, match="at least 4 variables"):
        ThetaInstance(3, c5, GeneratorOrder.ascending(4))
    inst = ThetaInstance(5, c5, o5)
    with pytest.raises(AlgebraError):
        eval_theta(inst, [LieElement.zero(c5, o5)] * 4)
    with pytest.raises(AlgebraError):
        ThetaInstance(5, c5, GeneratorOrder.ascending(4))
    reordered = GeneratorOrder([1, 0, 2, 3, 4])
    with pytest.raises(AlgebraError):
        eval_theta(inst, [LieElement.generator(c5, reordered, i) for i in range(5)])
    # equal but distinct graph and order objects name the same algebra
    same = [LieElement.generator(cycle_graph(5), GeneratorOrder.ascending(5), i) for i in range(5)]
    assert eval_theta(inst, same).holds


def test_theta_instances_are_equal_on_m_graph_and_order():
    inst = ThetaInstance(5, cycle_graph(5), GeneratorOrder.ascending(5))
    same = ThetaInstance(5, cycle_graph(5), GeneratorOrder.ascending(5))
    assert inst == same and hash(inst) == hash(same)
    assert inst.algebra is same.algebra
    assert inst != ThetaInstance(6, cycle_graph(5), GeneratorOrder.ascending(5))
    assert inst != ThetaInstance(5, cycle_graph(5), GeneratorOrder([1, 0, 2, 3, 4]))
    assert inst != (5, inst.graph, inst.order)
    assert len({inst, same}) == 1
    assert repr(inst) == (
        "ThetaInstance(m=5, graph=Graph(n=5, edges=[(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]), "
        "order=GeneratorOrder([0, 1, 2, 3, 4]))"
    )


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


def _naive_atoms(m):
    """Reference: every atom of Theta(m) in evaluation order."""
    atoms = [Atom("adjacent-zero", i, (i + 1) % m) for i in range(m)]
    atoms += [Atom("distant-nonzero", i, j) for i in range(m) for j in range(i + 1, m)
              if circ_dist(m, i, j) > 1]
    atoms += [Atom("triple-nonzero", i, j) for i in range(m) for j in range(m)
              if circ_dist(m, i, j) * circ_dist(m, (i + 2) % m, j) != 1]
    return atoms


def _naive_eval_theta(inst, assignment):
    """Reference: every atom in order, every bracket recomputed."""
    z, m = list(assignment), inst.m
    for atom in _naive_atoms(m):
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


# [[z1, z3], z0] = 0 only by cancellation: [z1, z3] has two derived
# terms, each of which x0 sends to the same nonzero multiple of one
# basis monomial, with opposite signs
CANCELLING = (
    Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4)]),
    GeneratorOrder([4, 3, 0, 2, 1, 5]),
    ["3*x0", "-2*[x5,x1]", "-2*x2", "3*x3", "x4"],
)


def test_the_pinned_triple_atom_vanishes_only_by_cancellation():
    graph, order, texts = CANCELLING
    z = [parse_element(t, graph, order) for t in texts]
    pair = bracket(z[1], z[3])
    parts = [word_element(graph, order, m.head + m.tail + (0,)) * (c * 3) for m, c in pair.derived.items()]
    assert len(parts) == 2 and all(not part.is_zero() for part in parts)
    assert (parts[0] + parts[1]).is_zero() and bracket(pair, z[0]).is_zero()


def test_eval_theta_matches_naive_atom_loop():
    graph, order, texts = CANCELLING
    cases = [(ThetaInstance(len(texts), graph, order), [parse_element(t, graph, order) for t in texts])]
    rng = random.Random(23)
    cases += [_theta_instance(rng, ("random", "cycle", "derived")[trial % 3]) for trial in range(300)]
    seen = set()
    for inst, z in cases:
        result = eval_theta(inst, z)
        assert (result.holds, result.failing_atom) == _naive_eval_theta(inst, z)
        seen.add(result.failing_atom.family if result.failing_atom else "holds")
    assert eval_theta(*cases[0]).failing_atom == Atom("triple-nonzero", 1, 0)
    assert seen == {"adjacent-zero", "distant-nonzero", "triple-nonzero", "holds"}


def _atom_calls(m, z, failing):
    """The `bracket` and `_add_nf` calls Theta(m) needs up to and
    including ``failing`` (all atoms if None): one bracket per distinct
    pair (i, j) the atoms read, the inner pair (i, i + 2) of a triple
    atom included, and per triple atom one `_add_nf` for each pair of a
    derived term of [z_i, z_{i+2}] and a linear term of z_j."""
    pairs, adds = set(), 0
    for atom in equivalence.theta_atoms(m):
        if atom.family == "triple-nonzero":
            k = (atom.i + 2) % m
            pairs.add((atom.i, k))
            adds += len(bracket(z[atom.i], z[k]).derived) * len(z[atom.j].linear)
        else:
            pairs.add((atom.i, atom.j))
        if atom == failing:
            break
    return len(pairs), adds


def test_eval_theta_brackets_each_pair_once(monkeypatch):
    brackets, adds = [], []
    engine_bracket, engine_add_nf = equivalence.bracket, equivalence._add_nf

    def counted_bracket(a, b):
        brackets.append((a, b))
        return engine_bracket(a, b)

    def counted_add_nf(*args):
        adds.append(args)
        engine_add_nf(*args)

    monkeypatch.setattr(equivalence, "bracket", counted_bracket)
    monkeypatch.setattr(equivalence, "_add_nf", counted_add_nf)
    cases = []
    for m in range(5, 10):
        x = cycle_generators(m)
        cases.append((ThetaInstance(m, x[0].graph, x[0].order), x))
    x = cycle_generators(5)
    for seq in ((0, 1, 2, 3, 0), (0, 1, 2, 3, 4, 0)):
        cases.append((ThetaInstance(len(seq), x[0].graph, x[0].order), [x[k] for k in seq]))
    rng = random.Random(29)
    cases += [_theta_instance(rng, ("random", "cycle", "derived")[trial % 3]) for trial in range(60)]
    failures = []
    for inst, z in cases:
        brackets.clear()
        adds.clear()
        result = eval_theta(inst, z)
        assert (len(brackets), len(adds)) == _atom_calls(inst.m, z, result.failing_atom), (inst.m, result)
        failures.append(result.failing_atom)
    assert failures[:5] == [None] * 5
    assert failures[5:7] == [Atom("adjacent-zero", 3, 4), Atom("distant-nonzero", 0, 4)]
    assert "triple-nonzero" in {atom.family for atom in failures[7:] if atom}
    # some triple atom adds more than one term
    assert any(len(bracket(z[i], z[(i + 2) % inst.m]).derived) * len(z[j].linear) > 1
               for inst, z in cases for family, i, j in equivalence.theta_atoms(inst.m)
               if family == "triple-nonzero")


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


def test_completion_counts_are_the_rows_of_the_full_table():
    # counts[r][v][s] depends only on (s - v) mod n
    for n in range(4, 10):
        for m in range(1, 12):
            rows = equivalence._completion_counts(n, m)
            full = [[[row[(s - v) % n] for s in range(n)] for v in range(n)] for row in rows]
            assert full == completion_counts_table(n, m), (n, m)


def test_long_j_sequence_search_counts_every_sequence():
    n, m = 30, 40
    report = search_theta_witness(n, m, mode="j-sequences")
    assert report.exhausted and not report.no_repeat_sequences
    assert report.checked == _closed_walks(n, m)


@pytest.mark.parametrize("n", range(4, 12))
def test_generators_commute_iff_at_cyclic_distance_at_most_one(n):
    # the engine premise of the closed-walk lemma
    x = cycle_generators(n)
    for a in range(n):
        for b in range(n):
            assert bracket(x[a], x[b]).is_zero() == (circ_dist(n, a, b) <= 1), (a, b)


@pytest.mark.parametrize("n", range(5, 10))
def test_theta_holds_on_every_rotation_and_reflection_of_the_generators(n):
    x = cycle_generators(n)
    inst = ThetaInstance(n, x[0].graph, x[0].order)
    for start in range(n):
        for direction in (1, -1):
            lap = [x[(start + direction * k) % n] for k in range(n)]
            assert eval_theta(inst, lap).holds, (start, direction)


@pytest.mark.parametrize("mode", ["generator-assignments", "j-sequences"])
def test_closed_walk_lemma_matches_the_reference_walk(mode):
    for n in range(4, 12):
        for m in range(5, 12):
            assert search_theta_witness(n, m, mode) == theta_witness_walk(n, m, mode), (n, m)


def _closed_walks_by_steps(n, m):
    """The closed walks of length m on C_n with loops, by their steps:
    n * the sum of m!/(a! b! (m-a-b)!) over a steps up and b steps down
    with a = b (mod n)."""
    return n * sum(comb(m, a) * comb(m - a, b)
                   for a in range(m + 1) for b in range(m - a + 1) if (a - b) % n == 0)


@pytest.mark.parametrize("n, m, mode", [
    (4, 5, "generator-assignments"),
    (30, 40, "generator-assignments"),
    (60, 64, "generator-assignments"),
    (250, 256, "generator-assignments"),
    (250, 250, "j-sequences"),
])
def test_checked_is_the_multinomial_count_of_closed_walks(n, m, mode):
    report = search_theta_witness(n, m, mode)
    assert report.exhausted == (n != m)
    assert report.checked == _closed_walks_by_steps(n, m)


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
                assert phi_lambda(hom, sc.part) == expected


def test_criterion_7_sees_a_part_that_loses_a_term(monkeypatch):
    # a glued part that drops a term, with that term's coefficient, still
    # obeys the scaling law; only the parts' sum shows the loss
    def lossy(g, hom):
        comps = merge_scaling_components(g, hom)
        k, sc = next((k, sc) for k, sc in enumerate(comps) if sc.part is not None)
        (m, _), *rest = sc.part.derived.items()
        coeffs = list(sc.coeffs)
        coeffs[m.letters().count(hom.graph.n - 1)] = 0
        comps[k] = sc._replace(coeffs=tuple(coeffs), part=LieElement._trusted(sc.part.algebra, {}, dict(rest)))
        return comps

    assert suite.criterion_7().ok
    monkeypatch.setattr(suite, "merge_scaling_components", lossy)
    result = suite.criterion_7()
    assert not result.ok and result.detail.startswith("parts do not sum to the derived part"), result


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


def _oracle_image_vanishes(hom, g):
    """Does phi_lambda(g) vanish, asked of the oracle alone: each engine
    term c.[x_a,x_b].tail is read as the left-normed word (a, b, tail),
    x_{n-1} becomes x_{n-2} letter by letter with coefficient
    c.lambda^(occurrences of n-1), and the words go to ideal membership
    over the target graph."""
    n = hom.graph.n
    words = [(c, (i,)) for i, c in g.linear.items()] + [(c, m.letters()) for m, c in g.derived.items()]
    raw = [(c * hom.lam ** word.count(n - 1), tuple(n - 2 if v == n - 1 else v for v in word)) for c, word in words]
    return oracle.ideal_member(raw, hom.target_graph)


def _phi_replay_cases():
    """(hom, g) on seeded twin graphs: random elements at lambda in
    {1, 2, 3, lambda_0 - 1, lambda_0}, and k.[[x_a,x_{n-2}],w] -
    [[x_a,x_{n-1}],w], whose image vanishes exactly at lambda = k unless
    its monomial does, at lambda = 1..4."""
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom1 = build_phi_hom(graph, 1)
        order = hom1.source_order
        g = random_element(graph, order, rng, max_degree=4)
        if not g.is_zero():
            threshold = lambda_zero(g, hom1)
            for lam in sorted({1, 2, 3, max(1, threshold - 1), threshold}):
                yield build_phi_hom(graph, lam), g
        a = rng.randrange(n - 2)
        w = random_word(rng, n, rng.randint(0, 3))
        k = rng.randint(1, 4)
        h = word_element(graph, order, (a, n - 2) + w) * k - word_element(graph, order, (a, n - 1) + w)
        for lam in range(1, 5):
            yield build_phi_hom(graph, lam), h


def _phi_replay_disagreements():
    seen = {True: 0, False: 0}
    disagreements = 0
    for hom, g in _phi_replay_cases():
        vanishes = _oracle_image_vanishes(hom, g)
        seen[vanishes] += 1
        disagreements += vanishes != phi_lambda(hom, g).is_zero()
    return disagreements, seen


def test_phi_lambda_replayed_in_the_oracle():
    disagreements, seen = _phi_replay_disagreements()
    assert disagreements == 0
    assert seen[True] >= 100 and seen[False] >= 150, seen


def test_the_oracle_replay_sees_a_merge_that_drops_the_scale(monkeypatch):
    def powerless(g, images, target):
        return core._substituted(g, [(1, j) for _, j in images], target)

    monkeypatch.setattr(equivalence, "_substituted", powerless)
    disagreements, _ = _phi_replay_disagreements()
    assert disagreements > 0


def test_merge_algebras_are_built_once_per_graph(monkeypatch):
    first = build_phi_hom(Graph(4, [(2, 3), (1, 2), (1, 3)]), 2)
    graph = Graph(4, [(1, 3), (2, 3), (1, 2)])
    built = []

    def counted(init):
        def wrapper(self, *args):
            built.append(type(self).__name__)
            init(self, *args)
        return wrapper

    for cls in (Graph, GeneratorOrder):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    second = build_phi_hom(graph, 3)
    monkeypatch.undo()
    assert built == []
    assert second.target_graph is first.target_graph
    assert second.target_order is first.target_order
    assert second.source is first.source and second.graph is first.graph
    rng = random.Random(5)
    for hom in (first, second):
        for _ in range(20):
            g = random_element(graph, hom.source_order, rng, max_degree=4)
            checked = substitute(g, hom.images, hom.target_graph, hom.target_order)
            assert phi_lambda(hom, g) == checked
    with pytest.raises(AlgebraError):
        phi_lambda(first, LieElement.generator(graph, GeneratorOrder.ascending(4), 0))
    with pytest.raises(AlgebraError):
        lambda_zero(LieElement.generator(graph, GeneratorOrder.ascending(4), 0), first)


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
    # one derivative per degree: chains longer than the recursion limit
    assert positive_integer_roots([-1] + [0] * 999 + [1]) == [1]
    assert positive_integer_roots([-1] + [0] * 1999 + [1]) == [1]
    assert positive_integer_roots([1] + [0] * 999 + [1]) == []
    assert positive_integer_roots(_from_roots(1, range(1, 61))) == list(range(1, 61))


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


def test_lambda_zero_is_not_the_least_nonvanishing_scale():
    # x1 survives every scale, so phi_lambda(g) != 0 for all lambda >= 1;
    # the scale polynomial 5 - lambda of [x0,x2] and [x0,x3] vanishes at
    # 5, and lambda_zero is one past that root
    graph = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    g = parse_element("x1 + 5*[x0,x2] - [x0,x3]", graph, merge_order(4))
    assert lambda_zero(g, build_phi_hom(graph, 1)) == 6
    images = [phi_lambda(build_phi_hom(graph, lam), g) for lam in range(1, 8)]
    assert not any(image.is_zero() for image in images)
    assert not images[4].derived and images[5].derived


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
    assert all(a != b for a, b in combinations(closure, 2))
    for gi in x:
        for gj in x:
            assert gi - gj in closure
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
    assert repr(report) == (
        "CompactionWitnessReport(lam=1, gamma_size=1, closure_size=3, nonzero_in_closure=2, "
        "removed_vertex=3, kept_vertex=2, ok=True)"
    )


def test_compaction_witness_difference_pair():
    order = GeneratorOrder.ascending(4)
    gamma = [
        word_element(MERGE4, order, (2, 0)),
        word_element(MERGE4, order, (3, 0)),
    ]
    report = compaction_witness(MERGE4, gamma)
    assert report.ok
    assert report.lam >= 2


def test_compaction_witness_raises_on_a_failed_verification(monkeypatch):
    # every image x0: distinct elements meet, and brackets of images vanish
    monkeypatch.setattr(
        equivalence, "phi_lambda",
        lambda hom, g: LieElement.generator(hom.target_graph, hom.target_order, 0),
    )
    order = GeneratorOrder.ascending(4)
    gamma = [word_element(MERGE4, order, (2, 0)), LieElement.generator(MERGE4, order, 0)]
    with pytest.raises(CertificationError, match="merge witness verification failed"):
        compaction_witness(MERGE4, gamma)


def test_compaction_witness_raises_when_the_scale_kills_a_closure_element(monkeypatch):
    # with no roots found the scale stays 1, and phi_1 sends [x2,x0] - [x3,x0] to 0
    monkeypatch.setattr(equivalence, "positive_integer_roots", lambda coeffs: [])
    order = GeneratorOrder.ascending(4)
    gamma = [word_element(MERGE4, order, (2, 0)) - word_element(MERGE4, order, (3, 0))]
    with pytest.raises(CertificationError, match="phi with scale 1 kills a nonzero closure element"):
        compaction_witness(MERGE4, gamma)


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


# ---------------------------------------------------------------------------
# the merge witness path against its earlier, slower forms
# ---------------------------------------------------------------------------

def _scan_positive_integer_roots(coeffs):
    """The earlier root finder: test every divisor of the trailing
    nonzero coefficient (time linear in its value)."""
    first = next((k for k, c in enumerate(coeffs) if c), None)
    if first is None:
        return []
    if all(c == 0 for c in coeffs[first + 1:]):
        return []
    trailing = abs(coeffs[first])
    roots = []
    for r in range(1, trailing + 1):
        if trailing % r:
            continue
        if sum(c * r ** k for k, c in enumerate(coeffs)) == 0:
            roots.append(r)
    return roots


def _from_roots(lead, roots):
    """Coefficients, constant first, of lead * prod (t - r)."""
    coeffs = [lead]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [shifted[k] - r * (coeffs[k] if k < len(coeffs) else 0) for k in range(len(shifted))]
    return coeffs


def _with_root(rng, degree, root, bound=30):
    """A random polynomial of the given degree with every |c| <= bound
    and the integer root `root`, or None when the draw fails.

    It is (t - root) q(t) with q integral: each c_k is drawn among the
    values congruent to q_{k-1} modulo root, which fixes q_k."""
    q = rng.randint(-(bound // root), bound // root)
    coeffs = [-root * q]
    for _ in range(degree - 1):
        c = rng.choice([c for c in range(-bound, bound + 1) if (c - q) % root == 0])
        coeffs.append(c)
        q = (q - c) // root
    if not q or abs(q) > bound:
        return None
    return coeffs + [q]


def _root_cases():
    """Every polynomial of degree <= 4 over a coefficient box that
    shrinks with the degree (|c| <= 30, 12, 5, 3), seeded random ones
    with |c| <= 30, ones of degree 3 and 4 with |c| <= 30 and a root
    up to 30, and products of linear factors, so roots and repeated
    roots occur often."""
    for degree, bound in ((1, 30), (2, 12), (3, 5), (4, 3)):
        yield from product(range(-bound, bound + 1), repeat=degree + 1)
    rng = random.Random(31)
    for _ in range(4000):
        yield [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
    for _ in range(2000):
        roots = [rng.randint(-9, 30) for _ in range(rng.randint(1, 4))]
        yield [0] * rng.randint(0, 1) + _from_roots(rng.choice([-3, -2, -1, 1, 2, 3]), roots)
    made = 0
    while made < 4000:
        coeffs = _with_root(rng, rng.choice([3, 4]), rng.randint(1, 30))
        if coeffs is not None:
            made += 1
            yield coeffs


def test_positive_integer_roots_match_the_divisor_scan():
    count = 0
    for coeffs in _root_cases():
        assert positive_integer_roots(coeffs) == _scan_positive_integer_roots(coeffs), coeffs
        count += 1
    assert count == 61 ** 2 + 25 ** 3 + 11 ** 4 + 7 ** 5 + 10000


def test_positive_integer_roots_with_huge_coefficients():
    big = 10 ** 30
    assert positive_integer_roots(_from_roots(1, [big, 3, -7])) == [3, big]
    assert positive_integer_roots(_from_roots(-2, [10 ** 15, 10 ** 15])) == [10 ** 15]
    assert positive_integer_roots(_from_roots(5, [big + 7, big + 9, big + 7, -big])) == [big + 7, big + 9]
    assert positive_integer_roots([0, 0] + _from_roots(1, [big, big - 1])) == [big - 1, big]
    assert positive_integer_roots([-(big + 1), 0, 1]) == []  # irrational roots only
    assert positive_integer_roots([big, 0, 1]) == []  # no real root
    assert positive_integer_roots([-big * (big + 1), 1, 0, 1]) == []  # a root between two huge integers
    assert positive_integer_roots([-big, 1]) == [big]
    # (t - 2^100)^3 (t - 2^100 - 1): a triple root next to a simple one
    r = 2 ** 100
    assert positive_integer_roots(_from_roots(1, [r, r, r, r + 1])) == [r, r + 1]


def _naive_gamma_closure(gamma):
    """The earlier closure: one bracket per (i, j, l), k^3 in all."""
    out = []

    def push(e):
        if e not in out:
            out.append(e)

    for g in gamma:
        push(g)
    k = len(gamma)
    for i in range(k):
        for j in range(k):
            push(gamma[i] - gamma[j])
    for i in range(k):
        for j in range(k):
            for l in range(k):
                push(gamma[i] + gamma[j] - gamma[l])
                push(bracket(gamma[i], gamma[j]) - gamma[l])
    return out


def test_gamma_closure_matches_the_closure_by_element():
    # element for element and in order, against the closure that built
    # every candidate by LieElement.__sub__
    order = GeneratorOrder.ascending(4)
    x = [LieElement.generator(MERGE4, order, i) for i in range(4)]
    zero, derived = LieElement.zero(MERGE4, order), bracket(x[1], x[0]) * 2
    gammas = [gamma for _, gamma in _merge_shaped_cases(5, 12)]
    gammas += [[], [zero], [derived], [x[0], x[1], x[0]], [x[1], zero, x[2] + derived],
               [derived, zero, derived, x[3] - x[2]], [x[2] - x[3] + derived, x[0], x[2] - x[3] + derived, zero]]
    for gamma in gammas:
        closure = gamma_closure(gamma)
        assert closure == reference.gamma_closure(gamma)
        assert all(a is b for a, b in zip(closure, gamma[:1]))


def test_gamma_closure_refuses_elements_over_different_algebras():
    order = GeneratorOrder.ascending(4)
    x = [LieElement.generator(MERGE4, order, i) for i in range(2)]
    other = LieElement.generator(MERGE4, GeneratorOrder((1, 0, 2, 3)), 0)
    for gamma in ([x[0], other], [other, x[0], x[1]], [x[0], x[1], x[0], other]):
        for closure in (gamma_closure, reference.gamma_closure):
            with pytest.raises(AlgebraError, match="different graphs or orders"):
                closure(gamma)
    assert gamma_closure([other]) == reference.gamma_closure([other])


def _twin_element(rng, graph, order, max_degree=4):
    """Random words; each word holding x_{n-2} gets a companion with one
    x_{n-2} renamed to its twin x_{n-1}, so thresholds above 1 occur."""
    n = graph.n
    out = LieElement.zero(graph, order)
    for _ in range(rng.randint(1, 3)):
        word = random_word(rng, n, rng.randint(1, max_degree))
        out = out + word_element(graph, order, word) * rng.choice([-3, -2, -1, 1, 2, 3])
        if n - 2 in word:
            k = word.index(n - 2)
            twin = word[:k] + (n - 1,) + word[k + 1:]
            out = out + word_element(graph, order, twin) * rng.choice([-3, -2, -1, 1, 2, 3])
    return out


def test_gamma_closure_matches_the_cubic_bracket_version():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        order = GeneratorOrder(rng.sample(range(n), n))
        gamma = [_twin_element(rng, graph, order, 3) for _ in range(rng.randint(0, 4))]
        if gamma and rng.random() < 0.3:
            gamma.append(gamma[0])  # a repeated element
        closure = gamma_closure(gamma)
        naive = _naive_gamma_closure(gamma)
        assert closure == naive


def _glued_scaling_components(g, hom):
    """The merge_scaling_components of g, its glued parts grouped by
    `reference.glued_decomposition`."""
    n = hom.graph.n
    last, kept = n - 1, n - 2
    out = [(("linear", i), (c,), None, None) for i, c in sorted(g.linear.items()) if i not in (kept, last)]
    pair = (g.linear.get(kept, 0), g.linear.get(last, 0))
    if pair != (0, 0):
        out.append((("linear-pair",), pair, None, None))
    for glued, start, part in glued_decomposition(g):
        coeffs = [0] * (glued[-1] + 1)
        for m, c in part.derived.items():
            coeffs[m.letters().count(last)] = c
        base = basis_monomial_with_start(glued, start, hom.target_graph, hom.target_order)
        out.append((("glued", glued, start), tuple(coeffs), base, part))
    return out


def test_lambda_zero_is_one_past_the_largest_scale_root():
    rng = random.Random(41)
    thresholds = []
    for _ in range(300):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        hom = build_phi_hom(graph, 1)
        g = _twin_element(rng, graph, hom.source_order)
        if rng.random() < 0.3:
            g = g + _twin_element(rng, graph, hom.source_order, 1)  # linear parts
        if g.is_zero():
            continue
        components = merge_scaling_components(g, hom)
        assert [tuple(sc) for sc in components] == _glued_scaling_components(g, hom)
        roots = [r for sc in components for r in _scan_positive_integer_roots(sc.coeffs)]
        thresholds.append(lambda_zero(g, hom))
        assert thresholds[-1] == 1 + max(roots, default=0)
    assert len(thresholds) > 200
    assert sum(t > 1 for t in thresholds) > 20


def _witness_cases(seed, count):
    """Twin graphs with their vertices shuffled, and gamma sets over them."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        graph = random_graph_with_merged_pair(rng, n)
        order = GeneratorOrder.ascending(n)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = Graph(n, [(perm[i], perm[j]) for i, j in graph.edges])
        images = [(1, perm[v]) for v in range(n)]
        gamma = [substitute(_twin_element(rng, graph, order, 3), images, moved, order)
                 for _ in range(rng.randint(1, 4))]
        yield moved, gamma


# (lam, gamma_size, closure_size, nonzero_in_closure, removed_vertex,
# kept_vertex), as computed by the closure with one bracket per (i, j, l)
# and the threshold read through the earlier glued decomposition
RECORDED_WITNESSES = [
    (2, 1, 3, 2, 2, 0), (1, 3, 40, 39, 2, 0), (1, 1, 3, 2, 1, 0), (1, 4, 52, 51, 3, 0),
    (1, 3, 4, 3, 2, 1), (1, 1, 1, 0, 3, 2), (7, 2, 9, 8, 3, 2), (3, 2, 9, 8, 5, 0),
    (1, 1, 3, 2, 4, 0), (1, 3, 40, 39, 1, 0), (1, 3, 28, 27, 2, 1), (1, 1, 3, 2, 4, 3),
    (1, 4, 4, 3, 3, 1), (1, 1, 3, 2, 3, 0), (4, 2, 9, 8, 3, 2), (2, 3, 22, 21, 5, 4),
]


def test_compaction_witness_reports_match_recorded_values():
    cases = list(_witness_cases(22, len(RECORDED_WITNESSES)))
    for (graph, gamma), expected in zip(cases, RECORDED_WITNESSES):
        report = compaction_witness(graph, gamma)
        assert report.ok
        got = (report.lam, report.gamma_size, report.closure_size, report.nonzero_in_closure,
               report.removed_vertex, report.kept_vertex)
        assert got == expected


def _merge_shaped_cases(seed, count):
    """Twin graphs on 5..8 vertices with their vertices shuffled, and six
    elements over each, each a generator term plus a word of length 4,
    the shape of the merge benchmark's gamma sets."""
    rng = random.Random(seed)
    for k in range(count):
        n = 5 + k % 4
        graph = random_graph_with_merged_pair(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = Graph(n, [(perm[i], perm[j]) for i, j in graph.edges])
        order = GeneratorOrder.ascending(n)
        gamma = [LieElement.generator(moved, order, rng.randrange(n)) * rng.choice([-3, -2, -1, 1, 2, 3])
                 + word_element(moved, order, random_word(rng, n, 4)) * rng.choice([-3, -2, -1, 1, 2, 3])
                 for _ in range(6)]
        yield moved, gamma


def test_witness_matches_the_per_element_path():
    # the scale from the distinct scale polynomials is the largest
    # lambda_zero, and at that scale and each one below it the kill check
    # reports the first nonzero closure element whose phi_lambda, taken
    # one element at a time, vanishes, or none
    scaled = killed_below = 0
    for graph, gamma in chain(_witness_cases(22, 16), _merge_shaped_cases(5, 12)):
        hom, nonzero, images = compaction_witness_by_element(graph, gamma)
        assert list(reference.images_by_key(hom, nonzero)) == images
        assert compaction_witness(graph, gamma).lam == hom.lam
        assert equivalence._first_killed(hom, nonzero) is None
        for lam in range(1, hom.lam):
            below = build_phi_hom(hom.graph, lam)
            killed = next((g for g in nonzero if phi_lambda(below, g).is_zero()), None)
            assert equivalence._first_killed(below, nonzero) is killed
            killed_below += killed is not None
        scaled += hom.lam > 1
    assert scaled >= 8
    assert killed_below >= 3


def test_witness_kill_check_replayed_in_the_oracle():
    # at the witness's scale the oracle finds no nonzero closure element
    # whose image vanishes; one below it, some case has one, so the
    # replay can fail
    below_vanishes = 0
    for graph, gamma in chain(_witness_cases(22, 16), _merge_shaped_cases(5, 12)):
        hom, nonzero, _ = compaction_witness_by_element(graph, gamma)
        assert not any(_oracle_image_vanishes(hom, g) for g in nonzero)
        if hom.lam > 1:
            below = build_phi_hom(hom.graph, hom.lam - 1)
            below_vanishes += any(_oracle_image_vanishes(below, g) for g in nonzero)
    assert below_vanishes >= 1


def test_the_kill_check_reports_an_element_whose_linear_image_vanishes(monkeypatch):
    # with no root the scale is 1, and phi_1 sends the closure element
    # x2 - x3 of {x2, x3} to 0; it has no derived part
    monkeypatch.setattr(equivalence, "positive_integer_roots", lambda coeffs: [])
    order = GeneratorOrder.ascending(4)
    gamma = [LieElement.generator(MERGE4, order, 2), LieElement.generator(MERGE4, order, 3)]
    with pytest.raises(CertificationError, match=r"^phi with scale 1 kills a nonzero closure element$"):
        compaction_witness(MERGE4, gamma)


def test_the_kill_check_passes_an_element_whose_derived_image_survives(monkeypatch):
    # phi_1 kills the linear part of x2 - x3 + [x1,x0] but not its derived part
    monkeypatch.setattr(equivalence, "positive_integer_roots", lambda coeffs: [])
    order = GeneratorOrder.ascending(4)
    g = parse_element("x2 - x3 + [x1,x0]", MERGE4, order)
    report = compaction_witness(MERGE4, [g])
    assert (report.lam, report.closure_size, report.nonzero_in_closure) == (1, 3, 2)


def test_the_kill_check_agrees_with_phi_lambda_per_element_at_and_below_the_scale(monkeypatch):
    # the witness run at its scale and each one below it raises the kill error
    # exactly when phi_lambda of some nonzero closure element, one at a
    # time, vanishes; the cases hold elements whose linear image vanishes
    # while their derived image does not
    threshold, forced = equivalence._threshold, []
    monkeypatch.setattr(equivalence, "_threshold", lambda polys: forced.pop() if forced else threshold(polys))
    raised = derived_only = 0
    for graph, gamma in chain(_witness_cases(22, 16), _merge_shaped_cases(5, 12)):
        hom, nonzero, _ = compaction_witness_by_element(graph, gamma)
        for lam in range(1, hom.lam + 1):
            images = [phi_lambda(build_phi_hom(hom.graph, lam), g) for g in nonzero]
            derived_only += sum(bool(g.linear and not image.linear and image.derived) for g, image in zip(nonzero, images))
            forced[:] = [lam]  # the witness's one threshold call
            if any(image.is_zero() for image in images):
                raised += 1
                with pytest.raises(CertificationError, match=rf"^phi with scale {lam} kills a nonzero closure element$"):
                    compaction_witness(graph, gamma)
            else:
                assert compaction_witness(graph, gamma).lam == lam
            assert not forced
    assert raised >= 3
    assert derived_only >= 10


def test_witness_solves_each_scale_polynomial_and_substitutes_each_key_once(monkeypatch):
    # in one witness: one root isolation per distinct scale polynomial of
    # the nonzero closure, and at most one substitution per distinct
    # generator or monomial of it, plus k + k(k - 1)/2 for gamma and the
    # brackets of its unordered pairs
    closures, solved, substituted = [], [], []
    closure, roots, substitute_ = equivalence.gamma_closure, equivalence.positive_integer_roots, equivalence._substituted

    def counted_closure(gamma):
        closures.append(closure(gamma))
        return closures[-1]

    def counted_roots(coeffs):
        solved.append(tuple(coeffs))
        return roots(coeffs)

    def counted_substituted(g, images, target):
        substituted.append(g)
        return substitute_(g, images, target)

    monkeypatch.setattr(equivalence, "gamma_closure", counted_closure)
    monkeypatch.setattr(equivalence, "positive_integer_roots", counted_roots)
    monkeypatch.setattr(equivalence, "_substituted", counted_substituted)
    repeated = 0
    for graph, gamma in chain(_witness_cases(22, 16), _merge_shaped_cases(5, 4)):
        closures.clear()
        solved.clear()
        substituted.clear()
        compaction_witness(graph, gamma)
        nonzero = [g for g in closures[0] if not g.is_zero()]
        hom1 = build_phi_hom(nonzero[0].graph, 1) if nonzero else None
        polys = [coeffs for comps in equivalence._scale_polynomials(nonzero, hom1) for coeffs in comps.values()] if nonzero else []
        assert sorted(solved) == sorted(set(polys))
        keys = {key for g in nonzero for key in chain(g.linear, g.derived)}
        k = len(gamma)
        assert len(substituted) <= len(keys) + k + k * (k - 1) // 2
        repeated += len(polys) > len(set(polys))
    assert repeated >= 10

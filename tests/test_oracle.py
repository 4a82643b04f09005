import random
import time
from collections import Counter
from itertools import combinations, islice, permutations

import pytest

from pcml import linalg, oracle, suite
from pcml.core import GeneratorOrder, basis_monomials_of_multidegree, multidegrees
from pcml.errors import AlgebraError
from pcml.graphs import Graph, complete_graph, cycle_graph
from pcml.sampling import random_graph, random_homogeneous_raw, raw_to_element
import reference


def test_graded_dimension_examples():
    assert oracle.graded_dimension(Graph(2, []), (1, 1)) == 1
    assert oracle.graded_dimension(Graph(2, [(0, 1)]), (1, 1)) == 0
    assert oracle.graded_dimension(Graph(3, []), (1, 1, 1)) == 2


def test_graded_dimension_degenerate_degrees():
    g = Graph(3, [])
    assert oracle.graded_dimension(g, (0, 0, 0)) == 0
    assert oracle.graded_dimension(g, (0, 1, 0)) == 1
    with pytest.raises(AlgebraError):
        oracle.graded_dimension(g, (1, 1))


def test_c3_slices_vanish():
    c3 = cycle_graph(3)
    for degree in range(2, 6):
        for delta in multidegrees(3, degree):
            assert oracle.graded_dimension(c3, delta) == 0


def test_multidegrees_of_a_wrong_length_or_with_a_negative_entry_are_refused():
    g, order = cycle_graph(4), GeneratorOrder.ascending(4)
    for delta in ((1, 1, 1, 1, 1), (1, 1, 1), (0, -1, 1, 2), (-1, 3, 0, 0), (-1, 1, 0, 0)):
        with pytest.raises(AlgebraError, match="is not a multidegree on 4 generators"):
            oracle.graded_dimension(g, delta)
        with pytest.raises(AlgebraError, match="is not a multidegree on 4 generators"):
            oracle.certify_basis(g, delta, order)
        with pytest.raises(AlgebraError, match="is not a multidegree on 4 generators"):
            basis_monomials_of_multidegree(g, order, delta)


def test_ideal_member_examples():
    g = Graph(3, [(0, 1)])
    assert oracle.ideal_member([], g)
    assert oracle.ideal_member([(1, (0, 1, 2))], g)
    assert not oracle.ideal_member([(1, (2, 0, 1))], g)
    assert not oracle.ideal_member([(1, (0,))], g)
    c4 = cycle_graph(4)
    assert oracle.ideal_member([(1, (0, 2, 1))], c4)


def test_ideal_member_range_checks_one_letter_words():
    # as the letters of a longer word are checked, whatever the sum
    c4 = cycle_graph(4)
    for letter in (9, 4, -1):
        for raw in ([(1, (letter,))], [(1, (letter,)), (-1, (letter,))], [(1, (letter, 0))], [(1, (0, 1, 2)), (2, (letter,))]):
            with pytest.raises(AlgebraError, match=f"^letter x{letter} out of range$"):
                oracle.ideal_member(raw, c4)
    assert oracle.ideal_member([(1, (3,)), (-1, (3,))], c4)
    assert not oracle.ideal_member([(1, (3,))], c4)


def test_certify_examples():
    order = GeneratorOrder.ascending(3)
    rep = oracle.certify_basis(cycle_graph(3), (1, 1, 1), order)
    assert rep.ok and rep.dim == 0
    rep = oracle.certify_basis(Graph(2, []), (1, 1), GeneratorOrder.ascending(2))
    assert rep.ok and rep.count == 1 and rep.dim == 1
    rep = oracle.certify_basis(cycle_graph(5), (0, 1, 0, 1, 1), GeneratorOrder.ascending(5))
    assert rep.ok and rep.count == 1


def only_heads(*heads):
    """A stand-in for the literal basis check that accepts these heads."""
    return lambda head, tail, graph, order: head in heads


def test_certify_reports_a_dependent_basis_claim(monkeypatch):
    # [x0,x1].x2 = -[x1,x0].x2: two candidates, as many as the dimension,
    # spanning one line modulo the (zero) ideal
    monkeypatch.setattr(oracle, "is_basis_monomial", only_heads((1, 0), (0, 1)))
    rep = oracle.certify_basis(Graph(3, []), (1, 1, 1), GeneratorOrder.ascending(3))
    assert rep == oracle.CertifyReport(False, (1, 1, 1), 2, 2, "dependent modulo the relation ideal")


def test_certify_reports_a_wrong_count(monkeypatch):
    monkeypatch.setattr(oracle, "is_basis_monomial", only_heads((2, 0)))
    rep = oracle.certify_basis(Graph(3, []), (1, 1, 1), GeneratorOrder.ascending(3))
    assert rep == oracle.CertifyReport(False, (1, 1, 1), 1, 2, "count != dim")


def test_criterion_1_failure_says_why(monkeypatch):
    monkeypatch.setattr(oracle, "is_basis_monomial", only_heads())
    result = suite.criterion_1()
    assert not result.ok
    assert result.detail.endswith("count=0 dim=1: count != dim")


def multiplicity_reading(literal):
    """A stand-in for the literal basis check that reads multiplicity:
    literal on a multidegree with no repeated letter, which a sweep by
    degree meets first in each support, but on one that repeats a letter
    it claims the last head swapped for the reverse of the first, as many
    heads and dependent, or with fewer than two heads one head more.
    `touched` tells the multidegrees whose claim it changes."""
    claims = {}

    def heads(graph, order, letters):
        key = graph, order, tuple(sorted(letters))
        if key not in claims:
            ranked = sorted(letters, key=order.rank.__getitem__)
            supp = sorted(set(letters))
            pairs = [(a, b) for a in supp for b in supp if a != b]
            found = [p for p in pairs if literal(p, oracle._without(ranked, *p), graph, order)]
            if len(set(letters)) == len(letters) or not pairs:
                claims[key] = found
            elif len(found) >= 2:
                claims[key] = found[:-1] + [found[0][::-1]]
            else:
                claims[key] = found + [next(p for p in pairs if p not in found)]
        return claims[key]

    def mutant(head, tail, graph, order):
        return head in heads(graph, order, head + tail)

    mutant.touched = lambda delta: max(delta) > 1 and sum(1 for d in delta if d) > 1
    return mutant


def test_a_claim_of_other_heads_in_a_checked_support_is_checked_afresh(monkeypatch):
    # the independence verdict is kept per support and claimed heads: a
    # multidegree that claims other heads than e_S of its support did,
    # dependent or too many, fails exactly there
    mutant = multiplicity_reading(oracle.is_basis_monomial)
    for module in (oracle, reference):
        monkeypatch.setattr(module, "is_basis_monomial", mutant)
    oracle._ideal_slice.cache_clear()
    oracle._independent.cache_clear()
    rng = random.Random(43)
    outcomes = Counter()
    for n in range(2, 6):
        for _ in range(3):
            graph = random_graph(rng, n)
            order = GeneratorOrder(rng.sample(range(n), n))
            for degree in range(7):
                for delta in multidegrees(n, degree):
                    rep = oracle.certify_basis(graph, delta, order)
                    assert rep == reference.certify_basis_by_stacked_rank(graph, delta, order)
                    assert rep.ok != mutant.touched(delta), (graph.edge_list(), order, delta)
                    outcomes[rep.witness] += 1
    assert min(outcomes.values()) > 100 and len(outcomes) == 3, outcomes


def test_certify_offers_every_ordered_head_pair_with_the_rest_in_rank_order(monkeypatch):
    # conditions 1 and 2 are part of the claim under test: every ordered
    # pair a != b of the support is asked about, not only b = mu
    calls = []
    literal = oracle.is_basis_monomial

    def record(head, tail, graph, order):
        calls.append((head, tail, graph, order))
        return literal(head, tail, graph, order)

    monkeypatch.setattr(oracle, "is_basis_monomial", record)
    rng = random.Random(37)
    offered = 0
    for n in range(1, 7):
        for _ in range(2):
            graph = random_graph(rng, n)
            order = GeneratorOrder(rng.sample(range(n), n))
            for degree in range(6):
                for delta in multidegrees(n, degree):
                    calls.clear()
                    assert oracle.certify_basis(graph, delta, order).ok
                    ranked = [v for v in order.perm for _ in range(delta[v])]
                    supp = [v for v, d in enumerate(delta) if d]
                    expected = [((a, b), oracle._without(ranked, a, b), graph, order)
                                for a in supp for b in supp if a != b] if degree >= 2 else []
                    assert calls == expected, (graph.edge_list(), order, delta)
                    offered += len(calls)
    assert offered > 8000


def test_certify_matches_the_stacked_rank_check(monkeypatch):
    # under the literal basis check, and again with as many heads as the
    # dimension accepted at random, so the claims are dependent or not
    rng = random.Random(71)
    outcomes = Counter()
    for n in range(2, 7):
        for _ in range(2):
            graph = random_graph(rng, n)
            order = GeneratorOrder(rng.sample(range(n), n))
            for degree in range(6):
                for delta in multidegrees(n, degree):
                    rep = oracle.certify_basis(graph, delta, order)
                    assert rep.ok and rep == reference.certify_basis_by_stacked_rank(graph, delta, order)
                    supp = [i for i, d in enumerate(delta) if d]
                    pairs = [(a, b) for a in supp for b in supp if a != b]
                    heads = rng.sample(pairs, rep.dim) if degree >= 2 else []
                    with monkeypatch.context() as patch:
                        for module in (oracle, reference):
                            patch.setattr(module, "is_basis_monomial", only_heads(*heads))
                        rep = oracle.certify_basis(graph, delta, order)
                        assert rep == reference.certify_basis_by_stacked_rank(graph, delta, order)
                    outcomes[rep.witness] += 1
    assert outcomes[None] > 300 and outcomes["dependent modulo the relation ideal"] > 50, outcomes


def test_dimension_monotone_in_edges():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 4)
        all_edges = list(combinations(range(n), 2))
        rng.shuffle(all_edges)
        cut = rng.randint(0, len(all_edges))
        smaller = Graph(n, all_edges[:cut])
        extra = all_edges[cut:]
        if not extra:
            continue
        bigger = Graph(n, all_edges[: cut + 1])
        for degree in (2, 3, 4):
            for delta in multidegrees(n, degree):
                assert oracle.graded_dimension(bigger, delta) <= oracle.graded_dimension(smaller, delta)


def test_engine_agrees_with_oracle_sample():
    rng = random.Random(13)
    order = GeneratorOrder.ascending(4)
    for _ in range(25):
        edges = [e for e in combinations(range(4), 2) if rng.random() < 0.5]
        graph = Graph(4, edges)
        for _ in range(40):
            _, raw = random_homogeneous_raw(rng, 4, rng.randint(2, 5))
            assert raw_to_element(raw, graph, order).is_zero() == oracle.ideal_member(raw, graph)


def test_expand_word_rejects_short_words():
    with pytest.raises(AlgebraError):
        oracle.expand_word((0,))


def test_ideal_slice_cache_is_bounded():
    # a fixed bound above the distinct slices of one certification run:
    # criterion 1 reads 960 slices, the 15 supports of each of its 64
    # graphs, and evicts none of them
    oracle._ideal_slice.cache_clear()
    oracle._independent.cache_clear()
    assert suite.criterion_1().ok
    info = oracle._ideal_slice.cache_info()
    assert info.maxsize == oracle.SLICE_CACHE_SIZE
    assert info.misses == info.currsize == 960 < info.maxsize
    # and one verdict per support of two or more letters, 11 a graph
    verdicts = oracle._independent.cache_info()
    assert verdicts.maxsize == oracle.SLICE_CACHE_SIZE
    assert verdicts.misses == verdicts.currsize == 704


def test_a_certify_sweep_builds_one_slice_per_support(monkeypatch):
    # and ranks the literal heads of each support of two or more letters
    # once, not once per multidegree; one letter offers no pair
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(rows) or rank(rows))
    rng = random.Random(5)
    for n in (5, 6):
        graph = random_graph(rng, n)
        order = GeneratorOrder(rng.sample(range(n), n))
        oracle._ideal_slice.cache_clear()
        oracle._independent.cache_clear()
        ranks.clear()
        supports = set()
        for degree in range(2, 6):
            for delta in multidegrees(n, degree):
                assert oracle.certify_basis(graph, delta, order).ok
                supports.add(tuple(i for i, d in enumerate(delta) if d))
        assert oracle._ideal_slice.cache_info().misses == len(supports)
        assert len(ranks) == sum(1 for s in supports if len(s) > 1)
        verdicts = oracle._independent.cache_info()
        assert verdicts.misses == verdicts.currsize == len(ranks)
        assert verdicts.maxsize == oracle.SLICE_CACHE_SIZE


def test_a_slice_reads_the_edges_of_its_own_letters():
    # a two-letter slice of complete:256 has one edge row, read off the
    # adjacency of its letters and not found among the graph's 32,640 edges
    graph = complete_graph(256)
    supports = list(islice(combinations(range(256), 2), 1000))
    oracle._ideal_slice.cache_clear()
    oracle._independent.cache_clear()
    start = time.perf_counter()
    slices = [oracle._ideal_slice(graph, support) for support in supports]
    assert time.perf_counter() - start < 0.5
    assert all(len(red) == 1 for _, red, _ in slices)


def test_the_support_slice_is_the_slice_of_every_multidegree_of_its_support():
    # the module docstring's lemma: in columns indexed by first head
    # letter, the ideal rows and every candidate's expansion at delta
    # depend on delta only through its support
    rng = random.Random(29)
    checked = 0
    for n in range(2, 7):
        for _ in range(3):
            graph = random_graph(rng, n)
            for degree in range(2, 7):
                for delta in multidegrees(n, degree):
                    basis, _, red, pivots = reference.ideal_slice_by_multidegree(graph, delta)
                    supp = tuple(i for i, d in enumerate(delta) if d)
                    index, slice_red, slice_pivots = oracle._ideal_slice(graph, supp)
                    assert (slice_red, slice_pivots) == (red, pivots), (graph.edge_list(), delta)
                    letters = [v for v, d in enumerate(delta) for _ in range(d)]
                    for a, b in permutations(supp, 2):
                        combo = oracle._free_expand(a, b, oracle._without(letters, a, b))
                        row = [0] * len(basis)
                        for m, c in combo.items():
                            row[basis.index(m)] = c
                        assert oracle._coordinates(index, combo) == row
                    checked += 1
    assert checked > 4000

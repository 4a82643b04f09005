import inspect
import random
from collections import Counter
from itertools import combinations, groupby
from math import comb

import pytest

from pcml import centralizer, linalg, suite
from pcml.centralizer import (
    CentralizerSlice,
    check_intersection_theorem,
    classify_cycle_centralizer,
    derived_centralizer,
    slice_size,
    spread,
    support_count,
    support_walk,
)
from pcml.core import (
    GeneratorOrder,
    LieElement,
    _basis,
    basis_monomials_of_degree,
    bracket,
    cycle_generators,
    format_element,
    mdeg,
    word_element,
)
from pcml.errors import AlgebraError, CertificationError
from pcml.graphs import Graph, cycle_graph
from pcml.sampling import random_graph
from reference import good_rows_by_joins, kernel_blocks


def linear(graph, order, coeffs):
    return LieElement.from_linear(graph, order, coeffs)


C5 = cycle_graph(5)
O5 = GeneratorOrder.ascending(5)


def test_adjacent_pair_centralizer_is_empty():
    g = linear(C5, O5, {0: 1, 1: 1})
    assert derived_centralizer(g, 6).is_empty()


def test_distant_pair_centralizer_degree_3():
    g = linear(C5, O5, {0: 1, 2: 1})
    slice_ = derived_centralizer(g, 3)
    assert len(slice_.elements) == 1
    assert slice_.elements[0] == word_element(C5, O5, (4, 1, 3))
    assert format_element(slice_.elements[0]) == "[x4,x1;x3]"


def test_a_cut_slice_owns_a_fresh_empty_list(monkeypatch):
    # an adjacent pair on C5 is ruled out by a cut, before any support
    def no_strata(*args):
        raise AssertionError("the cut path walked the supports")

    monkeypatch.setattr(centralizer, "_strata", no_strata)
    g = linear(C5, O5, {0: 1, 1: 1})
    first, second = derived_centralizer(g, 6), derived_centralizer(g, 6)
    assert first.is_empty() and first.elements == []
    assert first.elements is not second.elements
    first.elements.append(g)
    assert second.is_empty()


def test_three_generator_centralizer_is_empty():
    g = linear(C5, O5, {0: 1, 2: 1, 4: 1})
    assert derived_centralizer(g, 6).is_empty()


def test_centralizer_rejects_bad_input():
    with pytest.raises(AlgebraError):
        derived_centralizer(word_element(C5, O5, (2, 0)), 4)
    with pytest.raises(AlgebraError):
        derived_centralizer(LieElement.zero(C5, O5), 4)
    with pytest.raises(AlgebraError):
        derived_centralizer(linear(C5, O5, {0: 1}), 1)


def test_centralizer_elements_commute():
    g = linear(C5, O5, {0: 2, 2: 3})
    for h in derived_centralizer(g, 5).elements:
        assert bracket(h, g).is_zero()


def test_generator_centralizer_avoids_its_index():
    # a nonzero monomial commuting with x_i never contains x_i
    for i in range(5):
        g = linear(C5, O5, {i: 1})
        for h in derived_centralizer(g, 5).elements:
            for m in h.derived:
                assert mdeg(m, 5)[i] == 0


def test_intersection_theorem_trivial_single_index():
    assert check_intersection_theorem([1], [5], C5, 4)


def test_intersection_theorem_c5_example():
    assert check_intersection_theorem([0, 2], [2, 3], C5, 4)


def test_intersection_theorem_random():
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(3, 5)
        graph = random_graph(rng, n)
        m = rng.randint(2, min(3, n))
        indices = rng.sample(range(n), m)
        coeffs = [rng.choice([-2, -1, 1, 2]) for _ in indices]
        assert check_intersection_theorem(indices, coeffs, graph, 4)


def _losing_a_common_row(kernel_rows):
    """``kernel_rows`` that drops the last row of every common kernel of
    two or more forms: of the generators', never of g's."""

    def lossy(algebra, forms, columns):
        rows = kernel_rows(algebra, forms, columns)
        return rows[:-1] if len(forms) > 1 else rows

    return lossy


def test_intersection_check_sees_a_lost_intersection_row(monkeypatch):
    monkeypatch.setattr(centralizer, "_kernel_rows", _losing_a_common_row(centralizer._kernel_rows))
    assert not check_intersection_theorem([0, 2], [1, 1], C5, 4)


def _zassenhaus_kernel(algebra, forms, columns, part):
    """Reference for the common kernel of ``forms`` on the span of
    ``columns``: one-form kernels on each run of columns with equal
    ``part``, folded by Zassenhaus intersections and padded back to the
    columns."""
    rows = []
    before = 0
    for _, group in groupby(columns, key=part):
        mons = list(group)
        after = len(columns) - before - len(mons)
        current = centralizer._kernel_rows(algebra, forms[:1], mons)
        for form in forms[1:]:
            current = linalg.intersect_rowspans(current, centralizer._kernel_rows(algebra, [form], mons))
        rows += [(0,) * before + tuple(row) + (0,) * after for row in current]
        before += len(mons)
    return rows


def test_common_kernel_matches_the_per_multidegree_intersection():
    # generators: the old per-multidegree intersection of criterion 4;
    # two random combinations, whose common kernel is not that of their
    # sum: one intersection over the whole block
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(3, 5)
        graph = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        order = GeneratorOrder(perm)
        indices = rng.sample(range(n), rng.randint(2, n))
        g = linear(graph, order, {i: rng.choice([-2, -1, 1, 2]) for i in indices})
        generators = [{i: 1} for i in indices]
        combinations = [{i: rng.choice([-2, -1, 1, 2]) for i in indices} for _ in range(2)]
        for columns, _ in kernel_blocks(g, rng.randint(2, 4)):
            common = centralizer._kernel_rows(g.algebra, generators, columns)
            reference = _zassenhaus_kernel(g.algebra, generators, columns, lambda m: mdeg(m, n))
            assert linalg.same_rowspan(common, reference)
            common = centralizer._kernel_rows(g.algebra, combinations, columns)
            reference = _zassenhaus_kernel(g.algebra, combinations, columns, lambda m: 0)
            assert linalg.same_rowspan(common, reference)


def test_stratum_solve_matches_the_full_blocks():
    # the lemma: no block whose multidegrees meet supp g has a kernel; so
    # the solve over the multidegrees off supp g, one kernel per support,
    # returns the full-block elements in their order
    rng = random.Random(13)
    meeting = nonempty = 0
    for _ in range(250):
        n = rng.randint(3, 7)
        graph = random_graph(rng, n, rng.uniform(0.4, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        order = GeneratorOrder(perm)
        supp = rng.sample(range(n), rng.randint(1, min(4, n - 2)))
        g = linear(graph, order, {i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in supp})
        bound = rng.randint(2, 6)
        full = []
        for columns, rows in kernel_blocks(g, bound):
            if any(mdeg(columns[0], n)[i] for i in supp):
                assert not rows
                meeting += 1
            full += [LieElement._trusted(g.algebra, {}, {m: v for m, v in zip(columns, row) if v}) for row in rows]
        assert derived_centralizer(g, bound).elements == full
        nonempty += bool(full)
    assert meeting > 5000 and nonempty > 40, (meeting, nonempty)


def test_intersection_strata_match_the_full_blocks(monkeypatch):
    # the check skips every block that meets supp g: there the
    # generators' common kernel is empty too, as x_i is injective on
    # M_delta for i in supp delta; a block off supp g is one multidegree,
    # whose two kernels are those of its support mask; so the strata
    # verdict is the full-block one, also with the last row of each
    # common kernel of two or more generators lost
    kernel_rows = centralizer._kernel_rows
    lossy = _losing_a_common_row(kernel_rows)
    rng = random.Random(29)
    meeting = off = nonempty = lost = 0
    for k in range(150):
        n = rng.randint(3, 6)
        graph = cycle_graph(n) if k % 2 else random_graph(rng, n, rng.uniform(0.4, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        order = GeneratorOrder(perm)
        supp = rng.sample(range(n), min(rng.choice([1, 2, 2, 3]), n - 2))
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in supp]
        g = linear(graph, order, dict(zip(supp, coeffs)))
        generators = [{i: 1} for i in supp]
        bound = rng.randint(2, 5)
        holds = holds_lossy = True
        for columns, rows in kernel_blocks(g, bound):
            common = kernel_rows(g.algebra, generators, columns)
            delta = mdeg(columns[0], n)
            if any(delta[i] for i in supp):
                assert not rows and not common
                meeting += 1
            else:
                stratum = _basis(g.algebra, [v for v in perm if delta[v]])
                assert [m.head for m in stratum] == [m.head for m in columns]
                assert linalg.same_rowspan(rows, kernel_rows(g.algebra, [g.linear], stratum))
                assert linalg.same_rowspan(common, kernel_rows(g.algebra, generators, stratum))
                off += 1
                nonempty += bool(common)
            holds = holds and linalg.same_rowspan(rows, common)
            holds_lossy = holds_lossy and linalg.same_rowspan(rows, lossy(g.algebra, generators, columns))
        assert check_intersection_theorem(supp, coeffs, graph, bound, order) == holds
        with monkeypatch.context() as patch:
            patch.setattr(centralizer, "_kernel_rows", lossy)
            assert check_intersection_theorem(supp, coeffs, graph, bound, order) == holds_lossy
        lost += not holds_lossy
    assert meeting > 1500 and off > 1000 and nonempty > 300 and lost > 10, (meeting, off, nonempty, lost)


def test_intersection_check_eliminates_once_per_support(monkeypatch):
    # one elimination per support `_strata` yields with a nonempty basis,
    # for the generators' side; g's side is the closed form, however
    # many blocks the degrees have
    kernel_rows = centralizer._kernel_rows
    calls = []

    def counted(algebra, forms, columns):
        calls.append(len(columns))
        return kernel_rows(algebra, forms, columns)

    monkeypatch.setattr(centralizer, "_kernel_rows", counted)
    cases = [(cycle_graph(8), GeneratorOrder.ascending(8), [0, 4], [1, -2], 8)]
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(3, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        supp = rng.sample(range(n), rng.randint(1, n))
        cases.append((random_graph(rng, n), GeneratorOrder(perm), supp, [rng.choice([-2, -1, 1, 2]) for _ in supp], rng.randint(2, 7)))
    total = 0
    for graph, order, supp, coeffs, bound in cases:
        calls.clear()
        assert check_intersection_theorem(supp, coeffs, graph, bound, order)
        g = linear(graph, order, dict(zip(supp, coeffs)))
        assert len(calls) == sum(1 for letters in centralizer._strata(g, bound) if _basis(g.algebra, list(letters)))
        assert 0 not in calls
        total += len(calls)
    assert total > 60, total


def test_centralizer_solves_once_per_support(monkeypatch):
    # no elimination, and one `_basis` per multidegree of the slice, each
    # of which returns an element: none on a support whose closed-form
    # rows are empty, so none at all when a cut rules out every support
    basis, kernel_rows = centralizer._basis, centralizer._kernel_rows
    bases, eliminations = [], []

    def counted_basis(algebra, ranked):
        bases.append(tuple(Counter(ranked).get(v, 0) for v in range(algebra.graph.n)))
        return basis(algebra, ranked)

    def counted_rows(algebra, forms, columns):
        eliminations.append(len(columns))
        return kernel_rows(algebra, forms, columns)

    monkeypatch.setattr(centralizer, "_basis", counted_basis)
    monkeypatch.setattr(centralizer, "_kernel_rows", counted_rows)
    c9, o9 = cycle_graph(9), GeneratorOrder.ascending(9)
    cases = [(c9, o9, {0: 1, 1: 1}, 12), (c9, o9, {0: 1, 4: -2}, 7)]
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(3, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        supp = rng.sample(range(n), rng.randint(1, 2))
        cases.append((random_graph(rng, n, rng.uniform(0.3, 0.8)), GeneratorOrder(perm), {i: rng.choice([-2, -1, 1, 2]) for i in supp}, rng.randint(2, 7)))
    cut = walked_empty = nonempty = 0
    for graph, order, lin, bound in cases:
        bases.clear()
        eliminations.clear()
        slice_ = derived_centralizer(linear(graph, order, lin), bound)
        m = graph.n - len(lin)
        supports = sum(comb(m, s) for s in range(2, min(bound, m) + 1))
        assert len(eliminations) == 0
        multidegrees = {mdeg(next(iter(h.derived)), graph.n) for h in slice_.elements}
        assert len(bases) == len(set(bases)) and set(bases) == multidegrees
        if centralizer._provably_empty(graph, lin, bound):
            assert slice_.is_empty()
            cut += supports > 0
        else:
            walked_empty += slice_.is_empty() and supports > 0
        nonempty += not slice_.is_empty()
    assert cut > 10 and walked_empty > 5 and nonempty > 10, (cut, walked_empty, nonempty)


def test_centralizer_rejects_a_kernel_vector_that_does_not_commute(monkeypatch):
    # every unit vector, where some column's bracket with g is nonzero
    def every_unit(algebra, lin, letters):
        k = len(_basis(algebra, list(letters)))
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]

    monkeypatch.setattr(centralizer, "_good_rows", every_unit)
    with pytest.raises(CertificationError, match="fails the bracket check"):
        derived_centralizer(linear(C5, O5, {0: 1, 2: 1}), 3)


def _random_case(rng, max_n):
    """A random graph on 3..max_n vertices under a random order, and a
    combination of 1..3 of its generators with coefficients in +-1..+-3,
    leaving two or more letters off its support."""
    n = rng.randint(3, max_n)
    graph = random_graph(rng, n, rng.uniform(0.2, 0.8))
    perm = list(range(n))
    rng.shuffle(perm)
    supp = rng.sample(range(n), rng.randint(1, min(3, n - 2)))
    return linear(graph, GeneratorOrder(perm), {i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in supp})


def _good_components(graph, support, supp):
    """How many components of the subgraph induced on ``support`` have
    a neighbour of every vertex of ``supp``, by a plain search."""
    todo, good = set(support), 0
    while todo:
        stack = [todo.pop()]
        block = set(stack)
        while stack:
            for w in graph.adj[stack.pop()] & todo:
                todo.remove(w)
                block.add(w)
                stack.append(w)
        good += all(graph.adj[i] & block for i in supp)
    return good


def test_closed_form_matches_the_elimination():
    # the kernel of ad g over each support off supp g, written down from
    # the good components, is the one elimination of the normal-form
    # images finds, row for row
    rng = random.Random(71)
    supports = nonempty = 0
    for _ in range(600):
        g = _random_case(rng, 9)
        for letters in centralizer._strata(g, 9):
            columns = _basis(g.algebra, list(letters))
            rows = centralizer._good_rows(g.algebra, g.linear, letters)
            assert rows == centralizer._kernel_rows(g.algebra, [g.linear], columns)
            supports += bool(columns)
            nonempty += bool(rows)
    assert supports >= 5000 and nonempty > 1000, (supports, nonempty)


def test_good_components_by_adjacency_match_the_joins():
    # a component of S is adjacent to i exactly when i joins it in
    # S + {i}, so reading goodness off the neighbours of supp g gives
    # the rows the component searches of each S + {i} gave
    rng = random.Random(83)
    supports = nonempty = 0
    for _ in range(300):
        g = _random_case(rng, 8)
        for letters in centralizer._strata(g, 8):
            columns = _basis(g.algebra, list(letters))
            rows = centralizer._good_rows(g.algebra, g.linear, letters)
            assert rows == good_rows_by_joins(g.algebra, g.linear, letters, columns)
            supports += bool(columns)
            nonempty += bool(rows)
    assert supports >= 2000 and nonempty > 400, (supports, nonempty)


def test_support_count_is_the_supports_the_walk_visits():
    # the estimate `pcml centralizer` refuses by: the supports `_strata`
    # yields, and 0 where a cut answers before the walk
    rng = random.Random(97)
    cut = walked = 0
    for _ in range(300):
        g, bound = _random_case(rng, 8), rng.randint(2, 8)
        visited = sum(1 for _ in centralizer._strata(g, bound))
        if centralizer._provably_empty(g.graph, g.linear, bound):
            assert support_count(g, bound) == 0
            cut += bool(visited)
        else:
            assert support_count(g, bound) == visited
            walked += 1
    assert cut > 50 and walked > 20, (cut, walked)
    for n, far, bound, count in ((24, 12, 22, 4194281), (20, 10, 20, 262125), (18, 9, 18, 65519), (24, 12, 12, 0)):
        g = linear(cycle_graph(n), GeneratorOrder.ascending(n), {0: 1, far: 1})
        assert support_count(g, bound) == count
    with pytest.raises(AlgebraError, match="at least 2"):
        support_count(linear(C5, O5, {0: 1}), 1)


def test_the_slice_size_is_the_count_of_the_elements_the_walk_spreads():
    # the up-front count `pcml centralizer` refuses by, read off the walk
    # it then spreads; 0, with no walk, where a cut answers
    rng = random.Random(101)
    cut = empty = nonempty = 0
    for _ in range(300):
        g, bound = _random_case(rng, 8), rng.randint(2, 8)
        supports = support_count(g, bound)
        walk = support_walk(g, bound) if supports else []
        size = slice_size(walk, bound)
        assert size == len(spread(g, bound, walk).elements) == len(derived_centralizer(g, bound).elements)
        cut += not supports and any(True for _ in centralizer._strata(g, bound))
        empty += bool(supports) and not size
        nonempty += size > 0
    assert cut > 50 and empty > 5 and nonempty > 20, (cut, empty, nonempty)


def test_cuts_fire_only_where_no_block_has_a_kernel():
    # whenever `_provably_empty` holds, the kernel of ad g is 0 on every
    # block of every degree up to the bound; random cases mostly meet
    # the first two cuts, so the third gets its own: on C_8 the arcs
    # between x0 and x4 hold 3 letters each and fit only from d = 6 on,
    # and on two disjoint stars no connected set meets both N(0), N(3)
    stars = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    c8, o8 = cycle_graph(8), GeneratorOrder([5, 2, 7, 0, 3, 6, 1, 4])
    third = [(linear(c8, o8, {0: 1, 4: -1}), 5), (linear(stars, GeneratorOrder.ascending(6), {0: 1, 3: 2}), 6)]
    assert not centralizer._provably_empty(c8, {0: 1, 4: -1}, 6)
    assert not derived_centralizer(linear(c8, o8, {0: 1, 4: -1}), 6).is_empty()
    rng = random.Random(89)
    fired = spared = 0
    for k in range(300):
        g, bound = third[k] if k < len(third) else (_random_case(rng, 7), rng.randint(2, 6))
        if centralizer._provably_empty(g.graph, g.linear, bound):
            assert not any(rows for _, rows in kernel_blocks(g, bound))
            fired += 1
        else:
            assert k >= len(third)
            spared += not derived_centralizer(g, bound).is_empty()
    assert fired > 100 and spared > 20, (fired, spared)


def test_centralizer_count_is_the_closed_form_count():
    # sum over the supports S off supp g of max(0, k - 1) C(d, |S|), k
    # the good components of S and C(d, |S|) the multidegrees on S of
    # total at most d
    rng = random.Random(73)
    nonempty = 0
    for _ in range(200):
        g, bound = _random_case(rng, 9), rng.randint(2, 7)
        graph, supp = g.graph, list(g.linear)
        free = [v for v in range(graph.n) if v not in g.linear]
        expected = sum(
            max(0, _good_components(graph, support, supp) - 1) * comb(bound, size)
            for size in range(2, len(free) + 1)
            for support in combinations(free, size)
        )
        assert len(derived_centralizer(g, bound).elements) == expected
        nonempty += expected > 0
    assert nonempty > 40, nonempty


def test_cycle_centralizer_counts():
    # x_0 + x_j on C_n: a good component holds a whole arc between 0 and
    # j, so only the complement of {0, j} has two, its arcs, and only
    # when 0 and j are distant; the slice then has one element per
    # multidegree on the other n - 2 letters
    for n in range(4, 15):
        x = cycle_generators(n)
        for degree in (n - 2, n, n + 1):
            expected = sum(comb(n - 3 + e, e) for e in range(degree - n + 3))
            for j in range(1, n):
                count = len(derived_centralizer(x[0] + x[j], degree).elements)
                assert count == (0 if j in (1, n - 1) else expected), (n, j, degree)


def test_centralizer_calls_no_linalg(monkeypatch):
    def refuse(*args):
        raise AssertionError("derived_centralizer called linalg")

    for name, value in vars(linalg).copy().items():
        if inspect.isfunction(value) and value.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, refuse)
    rng = random.Random(79)
    nonempty = 0
    for _ in range(60):
        nonempty += not derived_centralizer(_random_case(rng, 8), rng.randint(2, 7)).is_empty()
    assert not derived_centralizer(linear(C5, O5, {0: 1, 2: 1}), 5).is_empty()
    assert nonempty > 5, nonempty


def test_criterion_4_sees_a_lost_closed_form_row(monkeypatch):
    # criterion 4 compares the closed form for g with one elimination
    # for the generators, so a closed form that loses a row fails it
    good_rows = centralizer._good_rows
    monkeypatch.setattr(centralizer, "_good_rows", lambda *args: good_rows(*args)[:-1])
    assert not check_intersection_theorem([0, 2], [1, 1], C5, 4)
    result = suite.criterion_4()
    assert not result.ok and result.detail.startswith("trial=2 "), result


def test_intersection_theorem_validation():
    with pytest.raises(AlgebraError):
        check_intersection_theorem([0, 0], [1, 1], C5, 4)
    with pytest.raises(AlgebraError):
        check_intersection_theorem([0, 2], [1, 0], C5, 4)
    for bound in (1, -3):
        with pytest.raises(AlgebraError, match="degree bound must be at least 2"):
            check_intersection_theorem([0, 2], [1, 1], C5, bound)


def test_classify_c5_distant():
    report = classify_cycle_centralizer(5, 0, 2, 3)
    assert report.kind == "distant"
    assert report.count == 1
    assert report.support_ok and report.form_ok and report.homogeneous_ok
    assert report.counts_by_multidegree == {(0, 1, 0, 1, 1): 1}


def test_classify_c6_distant():
    report = classify_cycle_centralizer(6, 0, 3, 4)
    assert report.kind == "distant"
    assert report.support_ok and report.form_ok and report.homogeneous_ok
    assert report.count == 1  # support {1,2,4,5} first appears at degree 4


def test_classify_adjacent_reports_empty():
    report = classify_cycle_centralizer(5, 0, 1, 4)
    assert report.kind == "adjacent"
    assert report.count == 0


def test_classify_flags_an_element_off_the_expected_support(monkeypatch):
    # [x_{i-1}, x_{i+1}] itself has the predicted form and one multidegree,
    # but from n = 5 on it misses letters of the complement of {i, j}
    def base_only(g, bound):
        n, i = g.graph.n, min(g.linear)
        x = cycle_generators(n)
        return CentralizerSlice(g, bound, [bracket(x[(i - 1) % n], x[(i + 1) % n])])

    monkeypatch.setattr(centralizer, "derived_centralizer", base_only)
    report = classify_cycle_centralizer(6, 0, 3, 4)
    assert not report.support_ok and report.form_ok and report.homogeneous_ok
    result = suite.criterion_3()
    assert not result.ok and result.detail == "part=b n=5 pair=(0,2) support=False form=True", result


def test_classify_judges_an_adjacent_pair_like_a_distant_one(monkeypatch):
    # an adjacent slice is empty, so an element in it is a defect to flag
    def planted(g, bound):
        x = cycle_generators(g.graph.n)
        return CentralizerSlice(g, bound, [bracket(x[2], x[4])])

    monkeypatch.setattr(centralizer, "derived_centralizer", planted)
    for j, kind in ((1, "adjacent"), (3, "distant")):
        report = classify_cycle_centralizer(6, 0, j, 4)
        assert report.kind == kind and report.count == 1
        assert not report.support_ok and not report.form_ok and report.homogeneous_ok


def test_classify_flags_an_element_over_two_multidegrees(monkeypatch):
    found = centralizer.derived_centralizer

    def summed(g, bound):
        elements = found(g, bound).elements
        return CentralizerSlice(g, bound, [elements[0] + elements[-1]])

    monkeypatch.setattr(centralizer, "derived_centralizer", summed)
    report = classify_cycle_centralizer(6, 0, 3, 5)
    assert report.support_ok and report.form_ok and not report.homogeneous_ok


def test_classify_flags_a_zero_image(monkeypatch):
    # a zero image is proportional to no slice element
    monkeypatch.setattr(centralizer, "act", lambda element, poly: LieElement.zero(element.graph, element.order))
    report = classify_cycle_centralizer(6, 0, 3, 5)
    assert report.count == 5
    assert report.support_ok and not report.form_ok and report.homogeneous_ok


def test_classify_validation():
    with pytest.raises(AlgebraError):
        classify_cycle_centralizer(3, 0, 1, 4)
    with pytest.raises(AlgebraError):
        classify_cycle_centralizer(5, 2, 2, 4)


def test_centralizer_dimension_counts_match_support_slices():
    # for distant i, j on a cycle the slice at degree k has one basis
    # vector per multidegree supported exactly on the complement
    report = classify_cycle_centralizer(6, 0, 2, 5)
    for delta, count in report.counts_by_multidegree.items():
        assert count == 1
        assert {v for v, d in enumerate(delta) if d} == {1, 3, 4, 5}


def test_slice_elements_live_in_basis_span():
    g = linear(C5, O5, {0: 1, 2: 1})
    slice_ = derived_centralizer(g, 4)
    universe = set(basis_monomials_of_degree(C5, O5, 3)) | set(basis_monomials_of_degree(C5, O5, 4))
    for h in slice_.elements:
        assert set(h.derived) <= universe

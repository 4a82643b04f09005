import random
from itertools import groupby
from math import comb

import pytest

from pcml import centralizer, linalg
from pcml.centralizer import (
    check_intersection_theorem,
    classify_cycle_centralizer,
    derived_centralizer,
)
from pcml.core import (
    GeneratorOrder,
    LieElement,
    _basis,
    basis_monomials_of_degree,
    bracket,
    format_element,
    mdeg,
    word_element,
)
from pcml.errors import AlgebraError, CertificationError
from pcml.graphs import cycle_graph
from pcml.sampling import random_graph
from reference import kernel_blocks


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


def test_intersection_check_eliminates_twice_per_support(monkeypatch):
    # at most two kernels per support of 2..min(d, m) letters off supp g,
    # m = n - |supp g|, however many blocks the degrees have
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
        m = graph.n - len(supp)
        assert len(calls) <= 2 * sum(comb(m, s) for s in range(2, min(bound, m) + 1))
        total += len(calls)
    assert total > 100, total


def test_centralizer_solves_once_per_support(monkeypatch):
    # one `_basis` and at most one elimination per support of 2..min(d, m)
    # letters off supp g, m = n - |supp g|; beyond that one `_basis` per
    # multidegree of the slice, each of which returns an element
    basis, kernel_rows = centralizer._basis, centralizer._kernel_rows
    bases, eliminations = [], []

    def counted_basis(algebra, ranked):
        bases.append(len(ranked))
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
    empty = nonempty = 0
    for graph, order, lin, bound in cases:
        bases.clear()
        eliminations.clear()
        slice_ = derived_centralizer(linear(graph, order, lin), bound)
        m = graph.n - len(lin)
        supports = sum(comb(m, s) for s in range(2, min(bound, m) + 1))
        assert len(eliminations) <= supports
        multidegrees = {mdeg(next(iter(h.derived)), graph.n) for h in slice_.elements}
        assert len(bases) == supports + len(multidegrees)
        empty += slice_.is_empty() and supports > 0
        nonempty += not slice_.is_empty()
    assert empty > 10 and nonempty > 10, (empty, nonempty)


def test_centralizer_rejects_a_kernel_vector_that_does_not_commute(monkeypatch):
    # every unit vector, where some column's bracket with g is nonzero
    monkeypatch.setattr(
        linalg, "kernel_basis",
        lambda rows, ncols: [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)],
    )
    with pytest.raises(CertificationError, match="fails the bracket check"):
        derived_centralizer(linear(C5, O5, {0: 1, 2: 1}), 3)


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

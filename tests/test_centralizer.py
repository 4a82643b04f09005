import random

import pytest

from pcml import linalg
from pcml.centralizer import (
    check_intersection_theorem,
    classify_cycle_centralizer,
    derived_centralizer,
)
from pcml.core import (
    GeneratorOrder,
    LieElement,
    basis_monomials_of_degree,
    bracket,
    format_element,
    mdeg,
    word_element,
)
from pcml.errors import AlgebraError, CertificationError
from pcml.graphs import cycle_graph
from pcml.sampling import random_graph


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


def test_intersection_check_sees_a_lost_intersection_row(monkeypatch):
    intersect = linalg.intersect_rowspans
    monkeypatch.setattr(linalg, "intersect_rowspans", lambda a, b: intersect(a, b)[:-1])
    assert not check_intersection_theorem([0, 2], [1, 1], C5, 4)


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

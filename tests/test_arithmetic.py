"""Property tests of element arithmetic over random graphs and random
generator orders: `+`, `-`, scalars, `bracket`, `substitute` and the
module action `act`, and sums in a derived centralizer slice."""

from itertools import combinations, cycle

import pytest

from pcml.centralizer import derived_centralizer
from pcml.core import AssocPoly, GeneratorOrder, LieElement, act, bracket, substitute, word_element
from pcml.graphs import Graph

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def algebras(draw, min_n=1):
    n = draw(st.integers(min_n, 5))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    return Graph(n, edges), GeneratorOrder(draw(st.permutations(range(n))))


def _element(draw, graph, order):
    """A random sum of scaled left-normed words of length 1 to 4."""
    words = st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=4)
    out = LieElement.zero(graph, order)
    for coeff, word in draw(st.lists(st.tuples(st.integers(-3, 3), words), max_size=4)):
        out = out + word_element(graph, order, word) * coeff
    return out


@st.composite
def triples(draw):
    """Three elements of one random algebra; b is sometimes a multiple
    of a, so that differences and sums cancel."""
    graph, order = draw(algebras())
    a = _element(draw, graph, order)
    b = a * draw(st.integers(-2, 2)) if draw(st.booleans()) else _element(draw, graph, order)
    return a, b, _element(draw, graph, order)


def _no_stored_zero(e):
    return all(e.linear.values()) and all(e.derived.values())


@SETTINGS
@given(triples())
def test_subtraction_is_adding_the_negative(case):
    a, b, _ = case
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert (a - a).is_zero()


@SETTINGS
@given(triples(), st.integers(-3, 3))
def test_results_store_no_zero_coefficient(case, scalar):
    a, b, _ = case
    results = [a + b, a - b, b - a, a * scalar, scalar * b, a * 0, -a, bracket(a, b), bracket(a, a)]
    n = a.graph.n
    # every pair commutes in the complete graph, so any images are allowed and much cancels
    complete = Graph(n, combinations(range(n), 2))
    results.append(substitute(a, [(scalar, (i + 1) % n) for i in range(n)], complete, GeneratorOrder.ascending(n)))
    results.append(substitute(a, [(1, i) for i in range(n)], a.graph, GeneratorOrder(reversed(range(n)))))
    for e in results:
        assert _no_stored_zero(e)
    assert (a * 0).is_zero() and (a * 0) == LieElement.zero(a.graph, a.order)


@SETTINGS
@given(triples())
def test_bracket_is_anticommutative_and_satisfies_jacobi(case):
    a, b, c = case
    assert bracket(a, b) == -bracket(b, a)
    assert bracket(a, a).is_zero()
    jacobi = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
    assert jacobi.is_zero()


@SETTINGS
@given(triples(), st.integers(-3, 3))
def test_scalars_distribute(case, scalar):
    a, b, _ = case
    assert (a + b) * scalar == a * scalar + b * scalar
    assert bracket(a * scalar, b) == bracket(a, b) * scalar


def _derived(e):
    return LieElement(e.graph, e.order, {}, e.derived)


def _poly(draw, n):
    """A random polynomial: up to 3 terms of exponents at most 2."""
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return AssocPoly(n, dict(draw(st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=3))))


@st.composite
def modules(draw):
    """Two derived elements and three polynomials over one random algebra."""
    a, b, _ = draw(triples())
    n = a.graph.n
    return _derived(a), _derived(b), _poly(draw, n), _poly(draw, n), _poly(draw, n)


@SETTINGS
@given(modules(), st.integers(-3, 3))
def test_act_is_linear_and_a_module_action(case, scalar):
    u, v, f, g, h = case
    assert act(u + v, f) == act(u, f) + act(v, f)
    assert act(u * scalar, f) == act(u, f) * scalar
    assert act(u, f + g) == act(u, f) + act(u, g)
    assert act(u, f - g) == act(u, f) - act(u, g)
    assert act(act(u, f), h) == act(u, f * h)


@st.composite
def centralizer_cases(draw):
    """A generator x_i of a random algebra in which i has two
    non-adjacent neighbours, so that its slice is not empty, a degree
    bound, and integer weights for the slice's elements."""
    n = draw(st.integers(3, 6))
    i, a, b = draw(st.permutations(range(n)))[:3]
    edges = {e for e in combinations(range(n), 2) if draw(st.booleans())}
    edges = (edges | {tuple(sorted((i, a))), tuple(sorted((i, b)))}) - {tuple(sorted((a, b)))}
    order = GeneratorOrder(draw(st.permutations(range(n))))
    g = LieElement.generator(Graph(n, edges), order, i) * draw(st.sampled_from((-2, -1, 1, 3)))
    return g, draw(st.integers(2, 5)), draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))


@SETTINGS
@given(centralizer_cases())
def test_a_derived_centralizer_slice_is_closed_under_sums(case):
    g, bound, weights = case
    elements = derived_centralizer(g, bound).elements
    assert elements
    for h, k in zip(elements, elements[1:]):
        assert bracket(h + k, g).is_zero()
    total = LieElement.zero(g.graph, g.order)
    for h, w in zip(elements, cycle(weights)):
        total = total + h * w
    assert bracket(total, g).is_zero()

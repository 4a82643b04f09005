"""Property tests of `substitute`, the homomorphism x_i -> c_i * x_{j_i}."""

from itertools import combinations

import pytest

from pcml.core import GeneratorOrder, LieElement, bracket, format_element, substitute, word_element
from pcml.errors import AlgebraError
from pcml.graphs import Graph
from pcml.textio import parse_element

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

SETTINGS = settings(max_examples=80, deadline=None)


def _graph(draw, n, required=()):
    """A random graph on n vertices containing the required edges."""
    required = {tuple(sorted(e)) for e in required if e[0] != e[1]}
    extra = {e for e in combinations(range(n), 2) if draw(st.booleans())}
    return Graph(n, required | extra)


def _order(draw, n):
    return GeneratorOrder(draw(st.permutations(range(n))))


def _element(draw, graph, order):
    """A random sum of scaled left-normed words of length 1 to 4."""
    words = st.lists(st.integers(0, graph.n - 1), min_size=1, max_size=4)
    out = LieElement.zero(graph, order)
    for coeff, word in draw(st.lists(st.tuples(st.integers(-3, 3), words), max_size=4)):
        out = out + word_element(graph, order, word) * coeff
    return out


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 5))
    return _graph(draw, n), _order(draw, n)


@st.composite
def homomorphisms(draw):
    """A source algebra, two of its elements, and random images onto a
    target graph that contains the image of every source edge."""
    graph, order = draw(algebras())
    k = draw(st.integers(1, 5))
    images = [(draw(st.integers(-2, 2)), draw(st.integers(0, k - 1))) for _ in range(graph.n)]
    target = _graph(draw, k, [(images[a][1], images[b][1]) for a, b in graph.edges])
    a, b = _element(draw, graph, order), _element(draw, graph, order)
    return a, b, images, target, _order(draw, k)


@SETTINGS
@given(homomorphisms())
def test_substitute_is_additive_and_commutes_with_bracket(case):
    a, b, images, target, order = case

    def image(g):
        return substitute(g, images, target, order)

    assert image(a + b) == image(a) + image(b)
    assert image(a * 3) == image(a) * 3
    assert image(bracket(a, b)) == bracket(image(a), image(b))


@SETTINGS
@given(st.data())
def test_order_change_round_trip(data):
    graph, order = data.draw(algebras())
    other = _order(data.draw, graph.n)
    g = _element(data.draw, graph, order)
    identity = [(1, i) for i in range(graph.n)]
    moved = substitute(g, identity, graph, other)
    assert moved.order == other
    assert moved == parse_element(format_element(g), graph, other)
    assert substitute(moved, identity, graph, order) == g


@SETTINGS
@given(st.data())
def test_relabeling_round_trip(data):
    graph, order = data.draw(algebras())
    perm = data.draw(st.permutations(range(graph.n)))
    relabeled = Graph(graph.n, [(perm[i], perm[j]) for i, j in graph.edges])
    new_order = _order(data.draw, graph.n)
    g = _element(data.draw, graph, order)
    moved = substitute(g, [(1, perm[i]) for i in range(graph.n)], relabeled, new_order)
    assert moved.is_zero() == g.is_zero()
    inverse = [(1, perm.index(i)) for i in range(graph.n)]
    assert substitute(moved, inverse, graph, order) == g


@SETTINGS
@given(st.data())
def test_edge_sent_to_a_non_commuting_pair_raises(data):
    graph, order = data.draw(algebras())
    if not graph.edges:
        graph = Graph(max(graph.n, 2), [(0, 1)])
        order = GeneratorOrder.ascending(graph.n)
    a, b = data.draw(st.sampled_from(sorted(graph.edges)))
    target = Graph(graph.n, graph.edges - {(a, b)})
    scales = [data.draw(st.sampled_from((-2, -1, 1, 2))) for _ in range(graph.n)]
    g = _element(data.draw, graph, order)
    with pytest.raises(AlgebraError):
        substitute(g, [(c, i) for i, c in enumerate(scales)], target, order)
    # a zero coefficient at either end makes the pair commute again
    scales[a] = 0
    substitute(g, [(c, i) for i, c in enumerate(scales)], target, order)


def test_substitute_validates_images():
    graph = Graph(3, [(0, 1)])
    order = GeneratorOrder.ascending(3)
    g = LieElement.generator(graph, order, 2)
    with pytest.raises(AlgebraError):
        substitute(g, [(1, 0), (1, 1)], graph, order)
    with pytest.raises(AlgebraError):
        substitute(g, [(1, 0), (1, 1), (1, 3)], graph, order)
    assert substitute(g, [(1, 0), (1, 0), (5, 0)], Graph(1, []), GeneratorOrder.ascending(1)).linear == {0: 5}

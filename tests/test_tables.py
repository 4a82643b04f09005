"""Differential tests of the engine's tables on random graphs with up to
7 vertices under random generator orders: each graph's components table
against a plain search kept here, and each algebra's basis table
against per-multidegree enumeration and the oracle's dimensions."""

from itertools import combinations

import pytest

from pcml.core import Algebra, GeneratorOrder, basis_monomials_of_degree, basis_monomials_of_multidegree, multidegrees
from pcml.graphs import Graph, components_within
from pcml.oracle import graded_dimension

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 7))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    return Graph(n, edges), GeneratorOrder(draw(st.permutations(range(n))))


def plain_components(graph, vertices):
    """Components by search from each least unvisited vertex, no table."""
    todo = set(vertices)
    blocks = []
    while todo:
        seen, stack = {min(todo)}, [min(todo)]
        while stack:
            for w in graph.adj[stack.pop()]:
                if w in todo and w not in seen:
                    seen.add(w)
                    stack.append(w)
        todo -= seen
        blocks.append(frozenset(seen))
    return tuple(sorted(blocks, key=min))


@SETTINGS
@given(algebras(), st.data())
def test_components_table_matches_a_plain_search(algebra, data):
    graph, _ = algebra
    supports = data.draw(st.lists(st.sets(st.integers(0, graph.n - 1)), min_size=1, max_size=6))
    for support in supports:
        expected = plain_components(graph, support)
        least = {v: min(block) for block in expected for v in block}
        labels = tuple(least.get(v, -1) for v in range(graph.n))
        mask = sum(1 << v for v in support)
        fresh = Graph(graph.n, graph.edges)
        for _ in ("cold", "warm"):
            assert components_within(fresh, support) == expected
            assert fresh.component_labels(mask) == labels
        assert components_within(graph, support) == expected


@SETTINGS
@given(algebras())
def test_basis_table_matches_enumeration_and_the_oracle(algebra):
    graph, order = algebra
    table_owner = Algebra.of(graph, order)
    for degree in range(2, 6):
        table = table_owner.bases(degree)
        assert table_owner.bases(degree) is table
        assert list(table) == sorted(table)
        expected = {}
        for delta in multidegrees(graph.n, degree):
            mons = basis_monomials_of_multidegree(graph, order, delta)
            if mons:
                expected[delta] = tuple(mons)
            assert len(mons) == graded_dimension(graph, delta)
        assert table == expected
        assert basis_monomials_of_degree(graph, order, degree) == [m for mons in expected.values() for m in mons]

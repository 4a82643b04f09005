"""Differential tests of the engine's tables on random graphs with up to
7 vertices under random generator orders: the graph's component search,
each algebra's tops table and the literal basis check against a plain
search kept here, the oracle's basis certificate with every engine
components path made to raise, the bases of each degree, found per
multiset of letters, against per-multidegree enumeration,
`basis_monomials_of_degree` and the oracle's dimensions, and the
centralizer layer's head-coordinate images and kernels against the
normal-form table they stand in for."""

import random
from itertools import combinations

import pytest

from pcml import linalg
from pcml.centralizer import _head_image, _kernel_rows
from pcml.core import (
    Algebra,
    GeneratorOrder,
    LieElement,
    _add_nf,
    _monomial_nf,
    basis_monomials_of_degree,
    basis_monomials_of_multidegree,
    is_basis_monomial,
    mdeg,
    multidegrees,
)
from pcml.graphs import Graph, components_within, cycle_graph, path_graph
from pcml.oracle import certify_basis, graded_dimension
from pcml.sampling import random_graph
from pcml.suite import EXAMPLE_GRAPH_EDGES
from reference import bases, kernel_blocks

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def algebras(draw, max_n=7):
    n = draw(st.integers(1, max_n))
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
    graph, order = algebra
    supports = data.draw(st.lists(st.sets(st.integers(0, graph.n - 1)), min_size=1, max_size=6))
    for support in supports:
        expected = plain_components(graph, support)
        least = {v: min(block) for block in expected for v in block}
        labels = tuple(least.get(v, -1) for v in range(graph.n))
        greatest = {v: max(block, key=order.rank.__getitem__) for block in expected for v in block}
        tops = tuple(greatest.get(v, -1) for v in range(graph.n))
        mask = sum(1 << v for v in support)
        owner = Algebra.of(graph, order)
        assert components_within(graph, support) == expected
        assert graph.component_labels(mask, range(graph.n)) == labels
        assert graph.component_labels(mask, reversed(order.perm)) == tops
        for _ in ("cold", "warm"):
            assert owner.tops(mask) == tops


@SETTINGS
@given(algebras(), st.data())
def test_basis_check_matches_the_four_conditions_on_a_plain_search(algebra, data):
    graph, order = algebra
    rank = order.rank
    for _ in range(data.draw(st.integers(1, 4))):
        letters = data.draw(st.lists(st.integers(0, graph.n - 1), min_size=2, max_size=6))
        blocks = plain_components(graph, set(letters))
        block = {v: k for k, b in enumerate(blocks) for v in b}
        for a, b in {(letters[i], letters[j]) for i in range(len(letters)) for j in range(len(letters)) if i != j}:
            rest = list(letters)
            rest.remove(a)
            rest.remove(b)
            tail = tuple(sorted(rest, key=rank.__getitem__))
            expected = (
                rank[b] < rank[a]
                and all(rank[b] <= rank[t] for t in tail)
                and block[a] != block[b]
                and all(rank[v] <= rank[a] for v in blocks[block[a]])
            )
            assert is_basis_monomial((a, b), tail, graph, order) == expected
            if len(set(tail)) > 1:
                assert not is_basis_monomial((a, b), tail[::-1], graph, order)


def test_the_oracle_certifies_bases_without_the_engine_components(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle read an engine components path")

    monkeypatch.setattr(Graph, "component_labels", refuse)
    monkeypatch.setattr(Algebra, "tops", refuse)
    monkeypatch.setattr(Algebra, "of", refuse)
    rng = random.Random(61)
    graphs = [cycle_graph(5), path_graph(4), Graph(7, EXAMPLE_GRAPH_EDGES)]
    graphs += [random_graph(rng, n) for n in (4, 5, 6)]
    nonzero = 0
    for graph in graphs:
        order = GeneratorOrder(rng.sample(range(graph.n), graph.n))
        for degree in range(5):
            for delta in multidegrees(graph.n, degree):
                report = certify_basis(graph, delta, order)
                assert report.ok, report
                nonzero += report.count > 0
    assert nonzero > 100, nonzero


@SETTINGS
@given(algebras())
def test_basis_table_matches_enumeration_and_the_oracle(algebra):
    graph, order = algebra
    table_owner = Algebra.of(graph, order)
    for degree in range(2, 6):
        table = bases(table_owner, degree)
        assert list(table) == sorted(table)
        expected = {}
        for delta in multidegrees(graph.n, degree):
            mons = basis_monomials_of_multidegree(graph, order, delta)
            if mons:
                expected[delta] = tuple(mons)
            assert len(mons) == graded_dimension(graph, delta)
        assert table == expected
        assert basis_monomials_of_degree(graph, order, degree) == [m for mons in expected.values() for m in mons]


@settings(max_examples=40, deadline=None)
@given(algebras(max_n=6))
def test_head_images_are_the_normal_forms_in_head_coordinates(algebra):
    # the action fact the centralizer kernels rest on: x_i maps the basis
    # monomial m of delta to the normal form of m.x_i, whose monomials are
    # fixed by (multidegree, first letter); for i in supp delta that is m
    # with x_i added to its tail, coefficient 1
    graph, order = algebra
    owner = Algebra.of(graph, order)
    n = graph.n
    for degree in range(2, 6):
        for delta, mons in bases(owner, degree).items():
            for m in mons:
                (a, b), tail = m
                for i in range(n):
                    image = _head_image(owner, m, {i: 1})
                    nf = _monomial_nf(owner, a, b, tuple(sorted(tail + (i,), key=order.rank.__getitem__)))
                    assert image == {(mdeg(w, n), w.head[0]): c for w, c in nf}
                    if delta[i]:
                        up = delta[:i] + (delta[i] + 1,) + delta[i + 1:]
                        assert image == {(up, a): 1}


def _nf_kernel_rows(algebra, forms, columns, drop=False):
    """The common kernel of ``forms`` on the span of ``columns`` from
    image rows over normal-form monomials, built through `_add_nf`;
    ``drop`` leaves out one term of the first nonzero image."""
    matrix = []
    for lin in forms:
        images = []
        for (a, b), tail in columns:
            image = {}
            for i, alpha in lin.items():
                _add_nf(image, algebra, a, b, tail + (i,), alpha)
            if drop and image:
                del image[next(iter(image))]
                drop = False
            images.append(image)
        matrix += [[image.get(m, 0) for image in images] for m in set().union(*images)]
    return linalg.kernel_basis(matrix, len(columns))


def test_kernel_rows_match_the_normal_form_matrix():
    # random graphs, where most kernels are empty, and forms on two
    # distant vertices of a cycle, whose kernels are not
    rng = random.Random(53)
    blocks = nonempty = lossy_differs = 0
    for k in range(40):
        if k % 2:
            n = rng.randint(3, 6)
            graph = random_graph(rng, n)
            indices = rng.sample(range(n), rng.randint(1, n))
            bound = rng.randint(2, 5)
        else:
            n = rng.randint(5, 7)
            graph = cycle_graph(n)
            i = rng.randrange(n)
            indices = [i, (i + rng.randint(2, n - 2)) % n]
            bound = rng.randint(4, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        order = GeneratorOrder(perm)
        g = LieElement.from_linear(graph, order, {i: rng.choice([-2, -1, 1, 2]) for i in indices})
        forms = [{i: rng.choice([-2, -1, 1, 2]) for i in indices} for _ in range(rng.randint(1, 3))]
        for columns, rows in kernel_blocks(g, bound):
            assert rows == _nf_kernel_rows(g.algebra, [g.linear], columns)
            common = _kernel_rows(g.algebra, forms, columns)
            assert linalg.same_rowspan(common, _nf_kernel_rows(g.algebra, forms, columns))
            blocks += 1
            nonempty += bool(rows) + bool(common)
            lossy_differs += not linalg.same_rowspan(common, _nf_kernel_rows(g.algebra, forms, columns, drop=True))
    # nonempty kernels are compared, and a single lost term of an image is seen
    assert nonempty > 100 and lossy_differs > blocks // 10, (blocks, nonempty, lossy_differs)

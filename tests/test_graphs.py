import random
from itertools import combinations

import pytest

from pcml.errors import GraphError
from pcml.graphs import (
    Graph,
    circ_dist,
    closed_neighborhood,
    compaction,
    complete_graph,
    components_within,
    cycle_graph,
    path_graph,
    perp_classes,
)
from pcml.suite import example_graph, spider_graph, _is_isomorphic_small
from pcml.textio import graph_from_json, parse_graph_spec


def blocks(partition):
    return [sorted(b) for b in partition]


def test_build_graph_triangle():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3 and len(g.edges) == 3
    assert g == cycle_graph(3)


def test_build_graph_rejects_loops():
    with pytest.raises(GraphError):
        Graph(4, [(0, 0)])


def test_build_graph_rejects_duplicates_and_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def test_example_graph_builds():
    g = example_graph()
    assert g.n == 7 and len(g.edges) == 11


def test_cycle_graph():
    assert cycle_graph(3) == complete_graph(3)
    c4 = cycle_graph(4)
    assert not c4.adjacent(0, 2)
    assert len(cycle_graph(5).edges) == 5
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_connected_components():
    assert len(components_within(cycle_graph(5), range(5))) == 1
    assert blocks(components_within(cycle_graph(5), {0, 2, 3})) == [[0], [2, 3]]
    assert len(components_within(Graph(3, []), range(3))) == 3
    with pytest.raises(GraphError):
        components_within(cycle_graph(5), {0, 9})
    # out-of-range vertices raise before any bitmask is formed, whether
    # the graph's components table is cold or already holds the support
    for bad in ({-1, 0}, {0, 5}):
        with pytest.raises(GraphError):
            components_within(cycle_graph(5), bad)
        warm = cycle_graph(5)
        assert components_within(warm, {0}) == (frozenset({0}),)
        assert components_within(warm, range(5)) == (frozenset(range(5)),)
        with pytest.raises(GraphError):
            components_within(warm, bad)


def test_closed_neighborhood():
    assert closed_neighborhood(cycle_graph(5), 0) == {4, 0, 1}
    assert closed_neighborhood(complete_graph(4), 2) == {0, 1, 2, 3}
    assert closed_neighborhood(example_graph(), 1) == {0, 1, 2, 3, 4}
    with pytest.raises(GraphError):
        closed_neighborhood(cycle_graph(5), 5)


def test_perp_classes():
    assert blocks(perp_classes(complete_graph(4))) == [[0, 1, 2, 3]]
    assert blocks(perp_classes(cycle_graph(5))) == [[0], [1], [2], [3], [4]]
    assert blocks(perp_classes(example_graph())) == [[0], [1, 2, 3], [4], [5], [6]]


def test_compaction_examples():
    assert compaction(complete_graph(4)).graph.n == 1
    res = compaction(example_graph())
    assert res.graph.n == 5
    assert res.kept == (0, 1, 4, 5, 6)
    assert _is_isomorphic_small(res.graph, spider_graph())
    c4 = compaction(cycle_graph(4))
    assert c4.graph == cycle_graph(4)


def test_compaction_vertex_map():
    res = compaction(example_graph())
    # all of 1,2,3 collapse onto the new index of vertex 1
    assert res.vertex_map[1] == res.vertex_map[2] == res.vertex_map[3]
    assert res.kept[res.vertex_map[2]] == 1


def test_compaction_idempotent_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        once = compaction(g)
        twice = compaction(once.graph)
        assert twice.graph == once.graph
        assert len(perp_classes(g)) == once.graph.n


def _prufer_tree(seq, k):
    # standard decode: k vertices, sequence length k-2
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)[:2]
    edges.append((u, w))
    return Graph(k, edges)


def test_trees_are_compaction_fixed_points():
    from itertools import product

    # the single edge is the one tree that is not a fixed point: its
    # endpoints have equal closed neighborhoods and get merged
    assert compaction(Graph(2, [(0, 1)])).graph.n == 1
    assert compaction(Graph(1, [])).graph.n == 1
    for k in range(3, 8):
        for seq in product(range(k), repeat=k - 2):
            tree = _prufer_tree(seq, k)
            assert compaction(tree).graph == tree


def test_twin_removal_preserves_components():
    rng = random.Random(11)
    trials = 0
    while trials < 60:
        n = rng.randint(3, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph(n, edges)
        big = [b for b in perp_classes(g) if len(b) >= 2]
        if not big:
            continue
        trials += 1
        x, y = sorted(big[0])[:2]
        sub = sorted({v for v in range(n) if v != y and rng.random() < 0.7} | {x})
        with_y = sub + [y]
        before = components_within(g, with_y)
        after = components_within(g, sub)
        assert len(before) == len(after)
        belongs = lambda comps, v: next(k for k, b in enumerate(comps) if v in b)
        for a, b in combinations(sub, 2):
            assert (belongs(before, a) == belongs(before, b)) == (
                belongs(after, a) == belongs(after, b)
            )


def test_circ_distance():
    assert circ_dist(6, 0, 4) == 2
    assert circ_dist(5, 1, 1) == 0
    assert circ_dist(4, 0, 2) == 2
    assert circ_dist(7, 6, 0) == 1


def test_graph_json_round_trip(tmp_path):
    g = example_graph()
    obj = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    assert graph_from_json(obj) == g
    path = tmp_path / "g.json"
    import json

    path.write_text(json.dumps(obj))
    assert parse_graph_spec(str(path)) == g


def test_parse_graph_spec_names():
    assert parse_graph_spec("cycle:5") == cycle_graph(5)
    assert parse_graph_spec("complete:4") == complete_graph(4)
    assert parse_graph_spec("path:3") == path_graph(3)
    with pytest.raises(GraphError):
        parse_graph_spec("cycle:x")
    with pytest.raises(GraphError):
        parse_graph_spec("no-such-file.json")

"""Finite simple graphs and the graph-side operations of the engine.

Vertices are the integers 0..n-1 and stand for the generators x_0..x_{n-1}
of the algebra defined by the graph.  Graphs are immutable values that
keep no tables: `Graph.components` searches the components of an
induced vertex set each time it is asked, and the caches that need them
belong to the callers (`pcml.core.Algebra.tops`).  Everything else is a
pure function, and nothing here reads text or files: graph specs and
JSON graph files are read by `pcml.textio`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from .errors import GraphError

VertexSet = FrozenSet[int]


class Graph:
    """Undirected graph without loops or multi-edges on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for e in edges:
            i, j = e
            if i == j:
                raise GraphError(f"loop edge ({i},{j}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge ({i},{j}) references a vertex >= {n}")
            key = (i, j) if i < j else (j, i)
            if key in normalized:
                raise GraphError(f"duplicate edge {key}")
            normalized.add(key)
        self.n = n
        self.edges = frozenset(normalized)
        adj: List[set] = [set() for _ in range(n)]
        for i, j in normalized:
            adj[i].add(j)
            adj[j].add(i)
        self.adj = tuple(frozenset(s) for s in adj)
        self._hash = hash((n, self.edges))

    def components(self, mask: int) -> List[List[int]]:
        """Components induced on the vertex bitmask ``mask``, uncached: one
        search over its set bits, each block started at the least vertex
        not yet reached, so the blocks come in order of their least vertex."""
        blocks = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            block = [low.bit_length() - 1]
            for v in block:  # grows while it is read: a breadth-first search
                for w in self.adj[v]:
                    if rest >> w & 1:
                        rest ^= 1 << w
                        block.append(w)
            blocks.append(block)
        return blocks

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def edge_list(self) -> List[Tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_list()})"


def circ_dist(n: int, r: int, s: int) -> int:
    """Cyclic distance in Z_n: the lesser of r-s and s-r mod n."""
    d = (r - s) % n
    return min(d, n - d)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"a path needs at least 1 vertex, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def components_within(graph: Graph, vertices: Iterable[int]) -> Tuple[FrozenSet[int], ...]:
    """Connected components of the subgraph induced on ``vertices``.

    Vertices keep their original labels.  Blocks come back sorted by
    their least element, as `Graph.components` finds them.
    """
    mask = 0
    for v in vertices:
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    return tuple(frozenset(b) for b in graph.components(mask))


def closed_neighborhood(graph: Graph, x: int) -> VertexSet:
    """x itself plus all vertices adjacent to x."""
    if not 0 <= x < graph.n:
        raise GraphError(f"vertex {x} out of range")
    return graph.adj[x] | {x}


def perp_classes(graph: Graph) -> Tuple[VertexSet, ...]:
    """The vertices grouped by equality of closed neighborhoods, as
    blocks ordered by their least vertex."""
    by_nbhd: Dict[VertexSet, List[int]] = {}
    for v in range(graph.n):
        by_nbhd.setdefault(closed_neighborhood(graph, v), []).append(v)
    return tuple(frozenset(b) for b in by_nbhd.values())


class CompactionResult(NamedTuple):
    """Compacted graph, the retained old vertices, and the index map.

    ``kept[k]`` is the old label of new vertex k; ``vertex_map`` sends
    every old vertex to the new index of its class representative.
    """

    graph: Graph
    kept: Tuple[int, ...]
    vertex_map: Dict[int, int]


def compaction(graph: Graph) -> CompactionResult:
    """Keep the smallest-index representative of each neighborhood class."""
    classes = perp_classes(graph)
    kept = tuple(min(b) for b in classes)
    vertex_map = {v: k for k, b in enumerate(classes) for v in b}
    edges = [(vertex_map[i], vertex_map[j]) for (i, j) in graph.edges if i in kept and j in kept]
    return CompactionResult(Graph(len(kept), edges), kept, vertex_map)

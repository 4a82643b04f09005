"""Finite simple graphs and the graph-side operations of the engine.

Vertices are the integers 0..n-1 and stand for the generators x_0..x_{n-1}
of the algebra defined by the graph.  Graphs are immutable values, save
for one lazily filled table of integer tuples that each graph owns: the
components of each induced vertex set asked for, keyed by its bitmask
(`Graph.component_labels`).  Everything else is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .errors import GraphError

VertexSet = FrozenSet[int]


class Graph:
    """Undirected graph without loops or multi-edges on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_hash", "_labels")

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
        self._labels: Dict[int, Tuple[int, ...]] = {}

    def component_labels(self, mask: int) -> Tuple[int, ...]:
        """Components induced on the vertex bitmask ``mask``, once per mask:
        per vertex the least vertex of its component, -1 outside ``mask``."""
        labels = self._labels.get(mask)
        if labels is None:
            out = [-1] * self.n
            for v in range(self.n):
                if mask >> v & 1 and out[v] < 0:
                    out[v] = v
                    stack = [v]
                    while stack:
                        for w in self.adj[stack.pop()]:
                            if mask >> w & 1 and out[w] < 0:
                                out[w] = v
                                stack.append(w)
            labels = self._labels[mask] = tuple(out)
        return labels

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


class Partition:
    """Disjoint nonempty vertex blocks covering a ground set."""

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        raw = [frozenset(b) for b in blocks]
        if any(not b for b in raw):
            raise GraphError("empty block in partition")
        blks = tuple(sorted(raw, key=min))
        seen: Dict[int, FrozenSet[int]] = {}
        for b in blks:
            for v in b:
                if v in seen:
                    raise GraphError(f"vertex {v} appears in two blocks")
                seen[v] = b
        self.blocks = blks
        self._block_of = seen

    def block_of(self, v: int) -> FrozenSet[int]:
        return self._block_of[v]

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __repr__(self) -> str:
        return f"Partition({[sorted(b) for b in self.blocks]})"


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
    their least element; a view of `Graph.component_labels`.
    """
    mask = 0
    for v in vertices:
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    blocks: Dict[int, List[int]] = {}
    for v, label in enumerate(graph.component_labels(mask)):
        if label >= 0:
            blocks.setdefault(label, []).append(v)
    return tuple(frozenset(b) for b in blocks.values())


def closed_neighborhood(graph: Graph, x: int) -> VertexSet:
    """x itself plus all vertices adjacent to x."""
    if not 0 <= x < graph.n:
        raise GraphError(f"vertex {x} out of range")
    return graph.adj[x] | {x}


def perp_classes(graph: Graph) -> Partition:
    """Partition of the vertices by equality of closed neighborhoods."""
    by_nbhd: Dict[FrozenSet[int], List[int]] = {}
    for v in range(graph.n):
        by_nbhd.setdefault(closed_neighborhood(graph, v), []).append(v)
    return Partition(by_nbhd.values())


@dataclass(frozen=True)
class CompactionResult:
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
    kept = tuple(sorted(min(b) for b in classes))
    new_index = {v: k for k, v in enumerate(kept)}
    vertex_map = {
        v: new_index[min(classes.block_of(v))] for v in range(graph.n)
    }
    edges = [
        (new_index[i], new_index[j])
        for (i, j) in graph.edges
        if i in new_index and j in new_index
    ]
    return CompactionResult(Graph(len(kept), edges), kept, vertex_map)


def graph_from_json(obj: dict) -> Graph:
    try:
        n = obj["n"]
        edges = [tuple(e) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}")
    return Graph(n, edges)


def parse_graph_spec(text: str) -> Graph:
    """Build a graph from ``cycle:<n>``, ``complete:<n>``, ``path:<n>``,
    or the path of a JSON file ``{"n": ..., "edges": [[i,j], ...]}``."""
    name, sep, arg = text.partition(":")
    if sep and name in ("cycle", "complete", "path"):
        try:
            k = int(arg)
        except ValueError:
            raise GraphError(f"bad vertex count in graph spec {text!r}")
        return {"cycle": cycle_graph, "complete": complete_graph, "path": path_graph}[name](k)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return graph_from_json(json.load(fh))
    except OSError as exc:
        raise GraphError(f"cannot read graph spec {text!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON in {text!r}: {exc}")

"""Seeded random data for property checks and the acceptance suite."""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Sequence, Tuple

from .core import GeneratorOrder, LieElement, Multidegree, word_element
from .graphs import Graph

MAX_TERMS = 3
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_graph_with_merged_pair(rng: random.Random, n: int) -> Graph:
    """Random graph on n vertices in which x_{n-1} and x_{n-2} have
    equal closed neighborhoods: x_{n-1} duplicates x_{n-2}."""
    if n < 3:
        raise ValueError("need n >= 3 to duplicate a vertex")
    base = random_graph(rng, n - 1)
    twin = n - 1
    anchor = n - 2
    edges = list(base.edges) + [(anchor, twin)]
    edges += [(v, twin) for v in base.adj[anchor]]
    return Graph(n, edges)


def random_word(rng: random.Random, n: int, length: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(length))


def random_element(graph: Graph, order: GeneratorOrder, rng: random.Random, max_degree: int = 4) -> LieElement:
    """Random combination of left-normed words, in normal form."""
    raw = []
    for _ in range(rng.randint(1, MAX_TERMS)):
        length = rng.randint(1, max_degree)
        coeff = rng.choice(COEFFICIENTS)
        raw.append((coeff, random_word(rng, graph.n, length)))
    return raw_to_element(raw, graph, order)


def random_homogeneous_raw(rng: random.Random, n: int, degree: int) -> Tuple[Multidegree, List[Tuple[int, Tuple[int, ...]]]]:
    """Random homogeneous combination given as raw left-normed words."""
    delta = [0] * n
    for _ in range(degree):
        delta[rng.randrange(n)] += 1
    letters: List[int] = []
    for i, d in enumerate(delta):
        letters.extend([i] * d)
    raw = []
    for _ in range(rng.randint(1, MAX_TERMS)):
        word = letters[:]
        rng.shuffle(word)
        coeff = rng.choice(COEFFICIENTS)
        raw.append((coeff, tuple(word)))
    return tuple(delta), raw


def raw_to_element(raw: Sequence[Tuple[int, Tuple[int, ...]]], graph: Graph, order: GeneratorOrder) -> LieElement:
    out = LieElement.zero(graph, order)
    for coeff, word in raw:
        out = out + word_element(graph, order, word) * coeff
    return out

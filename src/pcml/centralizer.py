"""Bounded-degree derived centralizers of linear combinations.

For a combination g of generators, the derived centralizer is the set
of elements of the derived subalgebra commuting with g.  Bracketing a
degree-k element with g lands in degree k+1, so the kernel splits by
total degree and is found degree by degree with exact elimination.
Within one degree the constraint matrix further splits into blocks of
multidegrees linked by moves e_a - e_b over the support of g, which
keeps the matrices small.  Kernels stay as `linalg.kernel_basis` rows
over a block's basis monomials.  Both the kernel and the intersection
of the generators' kernels (taken per multidegree) are direct sums over
the blocks, so `check_intersection_theorem` compares them per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from . import linalg
from .core import (
    Algebra,
    AssocPoly,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    Multidegree,
    _add_nf,
    act,
    bracket,
    cycle_generators,
    homogeneous_components,
)
from .errors import AlgebraError, CertificationError
from .graphs import Graph, circ_dist


def _check_linear(g: LieElement) -> Dict[int, int]:
    if g.derived:
        raise AlgebraError("centralizer argument must be a combination of generators")
    if not g.linear:
        raise AlgebraError("centralizer argument must be nonzero")
    return g.linear


def _blocks(deltas: List[Tuple[int, ...]], supp: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    """Group multidegrees linked by delta -> delta + e_a - e_b."""
    present = set(deltas)
    seen = set()
    blocks = []
    for start in deltas:
        if start in seen:
            continue
        block = [start]
        seen.add(start)
        stack = [start]
        while stack:
            delta = stack.pop()
            for a in supp:
                for b in supp:
                    if a == b or delta[b] == 0:
                        continue
                    nxt = list(delta)
                    nxt[a] += 1
                    nxt[b] -= 1
                    key = tuple(nxt)
                    if key in present and key not in seen:
                        seen.add(key)
                        block.append(key)
                        stack.append(key)
        blocks.append(block)
    return blocks


def _kernel_rows(algebra: Algebra, lin: Dict[int, int], columns: Sequence[BasisMonomial]) -> List[Tuple[int, ...]]:
    """Kernel of h -> [h, g] on the span of ``columns``, for
    g = sum lin[i] x_i, as `linalg.kernel_basis` rows over the columns."""
    images: List[Dict[BasisMonomial, int]] = []
    for (a, b), tail in columns:
        image: Dict[BasisMonomial, int] = {}
        for i, alpha in lin.items():
            _add_nf(image, algebra, a, b, tail + (i,), alpha)
        images.append(image)
    matrix = [[image.get(m, 0) for image in images] for m in set().union(*images)]
    return linalg.kernel_basis(matrix, len(columns))


def _kernel_blocks(g: LieElement, degree_bound: int) -> Iterator[Tuple[int, List[Multidegree], List[BasisMonomial], List[Tuple[int, ...]]]]:
    """(degree, multidegrees, columns, kernel rows) of every block of
    every degree 2..degree_bound, in ascending degree and block order."""
    lin = _check_linear(g)
    supp = sorted(lin)
    for k in range(2, degree_bound + 1):
        bases = g.algebra.bases(k)
        for block in _blocks(list(bases), supp):
            deltas = sorted(block)
            columns = [m for delta in deltas for m in bases[delta]]
            yield k, deltas, columns, _kernel_rows(g.algebra, lin, columns)


@dataclass
class CentralizerSlice:
    """Basis of {h in M' : [h, g] = 0, total degree <= bound}."""

    g: LieElement
    degree_bound: int
    elements: List[LieElement] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.elements


def derived_centralizer(g: LieElement, degree_bound: int) -> CentralizerSlice:
    """Exact basis of the derived centralizer up to a total degree."""
    if degree_bound < 2:
        raise AlgebraError("degree bound must be at least 2")
    elements = []
    for _, _, columns, rows in _kernel_blocks(g, degree_bound):
        for row in rows:
            h = LieElement._trusted(g.algebra, {}, {m: v for m, v in zip(columns, row) if v})
            if not bracket(h, g).is_zero():
                raise CertificationError("kernel vector fails the bracket check")
            elements.append(h)
    return CentralizerSlice(g, degree_bound, elements)


def check_intersection_theorem(indices: Sequence[int], coefficients: Sequence[int], graph: Graph, degree_bound: int, order: GeneratorOrder = None) -> bool:
    """Compare the centralizer of a combination with the intersection
    of the generators' centralizers, as subspaces per block."""
    if len(indices) != len(coefficients) or len(set(indices)) != len(indices):
        raise AlgebraError("indices must be distinct and match the coefficients")
    if any(c == 0 for c in coefficients):
        raise AlgebraError("coefficients must be nonzero")
    order = order or GeneratorOrder.ascending(graph.n)
    g = LieElement.from_linear(graph, order, dict(zip(indices, coefficients)))
    for k, deltas, columns, rows in _kernel_blocks(g, degree_bound):
        # intersection of the single-generator kernels, multidegree-wise,
        # each padded from its multidegree's columns to the block's
        bases = g.algebra.bases(k)
        intersection: List[Tuple[int, ...]] = []
        before = 0
        for delta in deltas:
            mons = bases[delta]
            after = len(columns) - before - len(mons)
            current = None
            for i in indices:
                kernel = _kernel_rows(g.algebra, {i: 1}, mons)
                current = kernel if current is None else linalg.intersect_rowspans(current, kernel)
                if not current:
                    break
            intersection.extend((0,) * before + tuple(row) + (0,) * after for row in current)
            before += len(mons)
        if not linalg.same_rowspan(rows, intersection):
            return False
    return True


@dataclass
class CycleCentralizerReport:
    """Structure report for the centralizer of x_i + x_j on a cycle."""

    n: int
    i: int
    j: int
    degree_bound: int
    kind: str                      # "adjacent" or "distant"
    count: int
    counts_by_multidegree: Dict[Tuple[int, ...], int]
    support_ok: bool
    form_ok: bool
    homogeneous_ok: bool


def classify_cycle_centralizer(n: int, i: int, j: int, degree_bound: int) -> CycleCentralizerReport:
    """Instance check of the cycle centralizer structure.

    For non-adjacent i, j every slice element must be supported on all
    vertices except x_i and x_j and must be the action of an
    associative polynomial on [x_{i-1}, x_{i+1}]; homogeneous parts of
    slice elements must themselves centralize.
    """
    if n < 4:
        raise AlgebraError("cycle centralizer classification needs n >= 4")
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise AlgebraError("need two distinct vertices of the cycle")
    x = cycle_generators(n)
    g = x[i] + x[j]
    slice_ = derived_centralizer(g, degree_bound)
    kind = "adjacent" if circ_dist(n, i, j) <= 1 else "distant"
    expected_support = frozenset(range(n)) - {i, j}
    support_ok = form_ok = homogeneous_ok = True
    counts: Dict[Tuple[int, ...], int] = {}
    base = bracket(x[(i - 1) % n], x[(i + 1) % n])
    for h in slice_.elements:
        for m in h.derived:
            if frozenset(m.letters()) != expected_support:
                support_ok = False
        for delta, part in homogeneous_components(h):
            if not bracket(part, g).is_zero():
                homogeneous_ok = False
                continue
            counts[delta] = counts.get(delta, 0) + 1
            # the unique completing monomial w with [x_{i-1},x_{i+1}].w
            # of multidegree delta; proportionality decides the form
            exps = list(delta)
            exps[(i - 1) % n] -= 1
            exps[(i + 1) % n] -= 1
            if min(exps) < 0:
                form_ok = False
                continue
            image = act(base, AssocPoly(n, {tuple(exps): 1}))
            if not _proportional(part, image):
                form_ok = False
    if kind == "adjacent":
        form_ok = support_ok = True
    return CycleCentralizerReport(
        n, i, j, degree_bound, kind, len(slice_.elements), counts,
        support_ok, form_ok, homogeneous_ok,
    )


def _proportional(a: LieElement, b: LieElement) -> bool:
    """a = (p/q) b for some rational p/q, with b nonzero."""
    if b.is_zero():
        return a.is_zero()
    if a.is_zero():
        return True
    if set(a.derived) != set(b.derived) or a.linear or b.linear:
        return False
    items = iter(a.derived.items())
    m0, ca = next(items)
    cb = b.derived[m0]
    return all(c * cb == ca * b.derived[m] for m, c in a.derived.items())

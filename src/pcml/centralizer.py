"""Bounded-degree derived centralizers of linear combinations.

For a combination g = sum alpha_i x_i of generators, the derived
centralizer is the set of elements of the derived subalgebra M'
commuting with g.  Bracketing a degree-k element with g lands in degree
k+1, so the kernel splits by total degree.

The derived subalgebra is abelian, so M' is a module over the
polynomial ring Q[x_0..x_{n-1}] by h.x_i = [h, x_i], and [h, g] = h.l
with l = sum alpha_i x_i.  Group M' by support: M'_S is the sum of the
M_delta with supp delta = S, and x_i maps M'_S into M'_{S+{i}}.  For
i in S, x_i sends each basis monomial of delta to the basis monomial of
delta + e_i with the same head, coefficient 1: the four basis
conditions read only the head and the support, and the bases of both
multidegrees are indexed by the same heads.  So M'_S is a free
Q[x_S]-module.

Lemma.  If [h, g] = 0, every inclusion-minimal support S among the
multidegrees of h avoids supp g.  Proof: the S-part of h.l collects the
h_T.x_i with T + {i} = S, and h_T != 0 forces T = S by minimality; so
it is h_S.l_S with l_S = sum over i in S of alpha_i x_i.  When S meets
supp g, l_S is a nonzero polynomial in the letters of S, and
multiplying a free Q[x_S]-module by it is injective; so h_S.l_S != 0
and [h, g] != 0.

Within one degree the constraint matrix of ad g splits into blocks of
multidegrees linked by moves e_a - e_b with a, b in supp g.  Every block
fixes two things that ad g preserves: delta off supp g, and the total t
of delta on supp g (raised by one in every image).  Two facts follow.
A block with t >= 1 has no kernel: every multidegree in it meets
supp g, so by the lemma a kernel vector has no minimal support and is
0.  A block with t = 0 is the single multidegree delta, and its matrix
stacks the maps x_i : M_delta -> M_{delta+e_i} for i in supp g.  In
head coordinates (below) such a map reads only the tops of
supp delta + {i}, its least letter and the ranks, so the stack and its
kernel rows over the basis columns, sorted by head, depend only on the
support mask of delta.

So `derived_centralizer` enumerates only the multidegrees on the
m = n - |supp g| letters off supp g, sum over k = 2..d of C(m+k-1, k)
of them up to degree d, and eliminates once per support: at most
2^m - m - 1 kernels, reused for every multidegree of that support.
It cross-checks every vector it returns with `bracket`, which goes
through the normal-form table.

Image rows are built in head coordinates: [x_a,x_b].tail.x_i is written
as (multidegree, first letter) -> coefficient, read from the algebra's
tops table by the four cases of `core._monomial_nf`, without building a
monomial or filling the normal-form table.  The keys fix the
normal-form monomials one to one, so the kernels are those of the
normal-form images.

The intersection theorem, C(sum alpha_i x_i) = intersection of the
C(x_i) over i in supp g, compares two common kernels: of the one form g
on the left, of the forms x_i on the right.  The left side is a direct
sum over the blocks of ad g, and by the two facts above it is 0 on
every multidegree that meets supp g.  Each ad x_i keeps multidegrees
apart, so the right side is a direct sum over the multidegrees.  For i
in supp delta, x_i maps the basis of M_delta one to one onto that of
M_{delta+e_i}, so ad x_i is injective on M_delta, and the right side is
0 on every multidegree that meets supp g as well.  On a multidegree off
supp g its stack of the maps x_i, i in supp g, is the one the left side
combines, and depends only on the support mask in the same way.  So
both sides agree up to degree d iff they agree on one multidegree per
support S off supp g with 2 <= |S| <= min(d, m), and
`check_intersection_theorem` compares them on the multidegree with
exponent 1 on each letter of S: at most 2^m - m - 1 supports and
2 (2^m - m - 1) eliminations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Dict, Iterator, List, Sequence, Tuple

from . import linalg
from .core import (
    Algebra,
    AssocPoly,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    _basis,
    _bump,
    _support_mask,
    act,
    bracket,
    cycle_generators,
    homogeneous_components,
    mdeg,
)
from .errors import AlgebraError, CertificationError
from .graphs import Graph, circ_dist


def _check_linear(g: LieElement) -> Dict[int, int]:
    if g.derived:
        raise AlgebraError("centralizer argument must be a combination of generators")
    if not g.linear:
        raise AlgebraError("centralizer argument must be nonzero")
    return g.linear


def _free_letters(algebra: Algebra, lin: Dict[int, int]) -> List[int]:
    """The letters off supp g, in rank order: the strata of both solves
    are the supports on these letters."""
    return [v for v in algebra.order.perm if v not in lin]


HeadKey = Tuple[Tuple[int, ...], int]  # (multidegree, first letter)


def _head_image(algebra: Algebra, column: BasisMonomial, lin: Dict[int, int]) -> Dict[HeadKey, int]:
    """[h, g] for the basis monomial h = ``column`` and g = sum lin[i] x_i,
    in head coordinates.

    [x_a,x_b].tail.x_i has multidegree delta + e_i, and its least letter
    is b (the least letter of a basis monomial's support) unless x_i
    precedes it.  With the tops of that support, the cases of
    `core._monomial_nf` give first letters and signs: zero when a and b
    share a top, +top(a) unless the least letter shares it, -top(b)
    unless the least letter shares that.
    """
    (a, b), tail = column
    rank = algebra.order.rank
    delta = [0] * algebra.graph.n
    mask = 0
    for v in (a, b) + tail:
        delta[v] += 1
        mask |= 1 << v
    image: Dict[HeadKey, int] = {}
    for i, alpha in lin.items():
        top = algebra.tops(mask | 1 << i)
        ta, tb = top[a], top[b]
        if ta == tb:
            continue
        tmu = top[b if rank[b] < rank[i] else i]
        delta[i] += 1
        up = tuple(delta)
        delta[i] -= 1
        if tmu != ta:
            _bump(image, (up, ta), alpha)
        if tmu != tb:
            _bump(image, (up, tb), -alpha)
    return image


def _kernel_rows(algebra: Algebra, forms: Sequence[Dict[int, int]], columns: Sequence[BasisMonomial]) -> List[Tuple[int, ...]]:
    """Common kernel on the span of the basis monomials ``columns`` of
    h -> [h, g] for every g = sum lin[i] x_i with lin in ``forms``, by one
    `linalg.kernel_basis` call on the stacked image rows in head
    coordinates; rows over the columns."""
    matrix: List[List[int]] = []
    for lin in forms:
        images = [_head_image(algebra, column, lin) for column in columns]
        matrix += [[image.get(key, 0) for image in images] for key in set().union(*images)]
    return linalg.kernel_basis(matrix, len(columns))


def _stratum_kernels(g: LieElement, degree_bound: int) -> Iterator[Tuple[List[BasisMonomial], List[Tuple[int, ...]]]]:
    """(columns, kernel rows of ad g) of every multidegree of degree
    2..degree_bound that avoids supp g, in ascending degree and
    multidegree order; one elimination per support mask."""
    lin = _check_linear(g)
    algebra = g.algebra
    free = _free_letters(algebra, lin)
    by_support: Dict[int, List[Tuple[int, ...]]] = {}
    for k in range(2, degree_bound + 1):
        found = {}
        for ranked in combinations_with_replacement(free, k):
            columns = _basis(algebra, list(ranked))
            if columns:
                found[mdeg(columns[0], algebra.graph.n)] = (_support_mask(ranked), columns)
        for _, (mask, columns) in sorted(found.items()):
            rows = by_support.get(mask)
            if rows is None:
                rows = by_support[mask] = _kernel_rows(algebra, [lin], columns)
            yield columns, rows


@dataclass
class CentralizerSlice:
    """Basis of {h in M' : [h, g] = 0, total degree <= bound}."""

    g: LieElement
    degree_bound: int
    elements: List[LieElement] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.elements


def derived_centralizer(g: LieElement, degree_bound: int) -> CentralizerSlice:
    """Exact basis of the derived centralizer up to a total degree, solved
    over the multidegrees that avoid supp g (see the module docstring)."""
    if degree_bound < 2:
        raise AlgebraError("degree bound must be at least 2")
    elements = []
    for columns, rows in _stratum_kernels(g, degree_bound):
        for row in rows:
            h = LieElement._trusted(g.algebra, {}, {m: v for m, v in zip(columns, row) if v})
            if not bracket(h, g).is_zero():
                raise CertificationError("kernel vector fails the bracket check")
            elements.append(h)
    return CentralizerSlice(g, degree_bound, elements)


def check_intersection_theorem(indices: Sequence[int], coefficients: Sequence[int], graph: Graph, degree_bound: int, order: GeneratorOrder = None) -> bool:
    """Compare the centralizer of a combination with the intersection
    of the generators' centralizers, as subspaces on one multidegree per
    support off supp g (see the module docstring)."""
    if len(indices) != len(coefficients) or len(set(indices)) != len(indices):
        raise AlgebraError("indices must be distinct and match the coefficients")
    if any(c == 0 for c in coefficients):
        raise AlgebraError("coefficients must be nonzero")
    if degree_bound < 2:
        raise AlgebraError("degree bound must be at least 2")
    order = order or GeneratorOrder.ascending(graph.n)
    g = LieElement.from_linear(graph, order, dict(zip(indices, coefficients)))
    lin = _check_linear(g)
    free = _free_letters(g.algebra, lin)
    forms = [{i: 1} for i in indices]
    strata = (
        _basis(g.algebra, list(letters))
        for size in range(2, min(degree_bound, len(free)) + 1)
        for letters in combinations(free, size)
    )
    return all(
        linalg.same_rowspan(_kernel_rows(g.algebra, [lin], columns), _kernel_rows(g.algebra, forms, columns))
        for columns in strata
        if columns
    )


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

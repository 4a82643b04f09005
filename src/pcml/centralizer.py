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

So both solves enumerate one unit, `_strata`: the supports S of
2..min(d, m) of the m = n - |supp g| letters off supp g, sum over
s = 2..min(d, m) of C(m, s) of them, each with one `_basis`, of the
multidegree with exponent 1 on each letter of S.  `derived_centralizer`
eliminates at most once per support.  Only where that kernel is nonzero
does it visit the multidegrees on S up to degree d, one `_basis` each,
and reuse the kernel rows over them: their columns have the same heads
in the same order.  Each such multidegree returns at least one element,
so that part of the work is bounded by the output.  It cross-checks
every vector it returns with `bracket`, which goes through the
normal-form table.

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
`check_intersection_theorem` compares them on the columns `_strata`
yields: at most two eliminations per support.
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


def _strata(g: LieElement, degree_bound: int) -> Iterator[Tuple[Tuple[int, ...], List[BasisMonomial]]]:
    """(letters in rank order, columns) of every support S of 2..min(d, m)
    of the m letters off supp g whose basis is nonempty, the columns
    being the basis of the multidegree with exponent 1 on each letter of
    S: the one unit both solves enumerate."""
    lin = _check_linear(g)
    algebra = g.algebra
    free = [v for v in algebra.order.perm if v not in lin]
    for size in range(2, min(degree_bound, len(free)) + 1):
        for letters in combinations(free, size):
            columns = _basis(algebra, list(letters))
            if columns:
                yield letters, columns


@dataclass
class CentralizerSlice:
    """Basis of {h in M' : [h, g] = 0, total degree <= bound}."""

    g: LieElement
    degree_bound: int
    elements: List[LieElement] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.elements


def derived_centralizer(g: LieElement, degree_bound: int) -> CentralizerSlice:
    """Exact basis of the derived centralizer up to a total degree: one
    kernel per support off supp g, spread over the multidegrees of the
    supports where it is nonzero (see the module docstring)."""
    if degree_bound < 2:
        raise AlgebraError("degree bound must be at least 2")
    algebra = g.algebra
    rank = algebra.order.rank.__getitem__
    found = []
    for letters, columns in _strata(g, degree_bound):
        rows = _kernel_rows(algebra, [g.linear], columns)
        if not rows:
            continue
        for extra in range(degree_bound - len(letters) + 1):
            for more in combinations_with_replacement(letters, extra):
                mons = _basis(algebra, sorted(letters + more, key=rank))
                found.append((mons[0].degree, mdeg(mons[0], algebra.graph.n), mons, rows))
    elements = []
    for _, _, mons, rows in sorted(found, key=lambda item: item[:2]):
        for row in rows:
            h = LieElement._trusted(algebra, {}, {m: v for m, v in zip(mons, row) if v})
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
    forms = [{i: 1} for i in indices]
    return all(
        linalg.same_rowspan(_kernel_rows(g.algebra, [g.linear], columns), _kernel_rows(g.algebra, forms, columns))
        for _, columns in _strata(g, degree_bound)
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

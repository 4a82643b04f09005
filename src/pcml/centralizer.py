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
of delta on supp g (raised by one in every image).  A block with t >= 1
has no kernel: every multidegree in it meets supp g, so by the lemma a
kernel vector has no minimal support and is 0.  A block with t = 0 is
the single multidegree delta, and ad g maps it by the x_i, i in supp g,
into the distinct multidegrees delta + e_i; so its kernel there is the
common kernel of those x_i.

Closed form.  Let S = supp delta avoid supp g, with |S| >= 2, least
letter mu and components pi_0(S) in the subgraph induced on S; call one
good if every i in supp g has a neighbour in it.  Then ker ad g on
M_delta is the zero-sum vectors on the k good components, of dimension
max(0, k - 1), whatever the coefficients of g.  Proof:

  1. The basis of M_delta has one monomial m_C = [x_top(C), x_mu].tail
     per component C other than C(mu), top(C) its greatest vertex.
     Sending m_C to e_C - e_C(mu) identifies M_delta with the zero-sum
     vectors of Q^pi_0(S).
  2. For i outside S, let D(C) be the component of S + {i} holding C:
     C itself if i has no neighbour in C, that of i otherwise.  With
     mu' the least letter of S + {i}, the cases of `core._monomial_nf`
     give m_C.x_i = 0 if D(C) = D(C(mu)); +m'(D(C)) if mu' lies in
     D(C(mu)); -m'(D(C(mu))) if it lies in D(C); and
     m'(D(C)) - m'(D(C(mu))) otherwise.  Each reads
     e_D(C) - e_D(C(mu)) in the coordinates of step 1 on S + {i}: x_i
     is the pushforward along D.
  3. D is one to one off the components adjacent to i and sends those
     to one component, so on zero-sum vectors the kernel of x_i is the
     vectors vanishing off the components adjacent to i.  Over all i in
     supp g this leaves the zero-sum vectors on the good components.

Over the columns, the basis of M_delta sorted by head, a vector is read
off at the components other than C(mu).  If C(mu) is good, the kernel
rows are the unit vectors of the good columns; otherwise the good
entries sum to zero too, and the rows are e_f - e_j, for f the first
good column and j each later one: the rows `linalg.kernel_basis`
returns.  `_good_rows` writes them from the tops of S alone, keeping a
top when every i in supp g has a neighbour with that top, without a
basis, an elimination or the coefficients of g: the columns are the
tops other than C(mu)'s, by vertex, which every multidegree on S
shares as its heads.

So both solves enumerate one unit, `_strata`: the letters of each
support S of 2..min(d, m) of the m = n - |supp g| letters off supp g.
`derived_centralizer` is the spread of a walk.  The walk,
`support_walk`, keeps the letters and rows of each S whose rows are
nonzero.  The spread visits the C(d, |S|) multidegrees on S up to
degree d, one `_basis` each, and each row gives an element there, so
`slice_size` counts the elements before any is built.  It cross-checks
every vector with `bracket`, through the normal-form table.

Cuts.  Let F be the m letters off supp g and N(i) the neighbours of i
in F.  A support S gives elements only if it holds two good components
C and C'.  They are disjoint and no edge joins them; each is connected
in the subgraph induced on F and meets N(i) for every i in supp g; and
|S| <= min(d, m).  So the slice is empty, and `_provably_empty` says so
before `_strata` runs, when

  1. some i in supp g has fewer than two neighbours in F: C and C'
     need one each;
  2. the letters of F are pairwise adjacent: a letter of C and one of
     C' are not;
  3. 2 (1 + D) > min(d, m), D the greatest distance in the subgraph
     induced on F from N(i) to N(j) over i, j in supp g, infinite when
     N(j) cannot be reached from N(i): a path inside C joins a letter
     of N(i) to one of N(j), so |C| >= 1 + D, and so does |C'|.

`check_intersection_theorem` applies no cut, so it compares both sides
on every support.

The intersection theorem, C(sum alpha_i x_i) = intersection of the
C(x_i) over i in supp g, follows: on a multidegree that meets supp g
both sides are 0, the left by the facts above, the right as x_i is
injective on M_delta for i in supp delta; on one off supp g both are
the common kernel of the x_i.  `check_intersection_theorem` checks it
on each support `_strata` yields with a nonempty `_basis`: the closed
form on the left against one elimination of the normal-form images of
the x_i (`_kernel_rows`) over that basis on the right.  The two sides
share only the tops table.
"""

from __future__ import annotations

from itertools import chain, combinations, combinations_with_replacement
from math import comb
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import linalg
from .core import (
    Algebra,
    AssocPoly,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    _add_nf,
    _basis,
    _support_mask,
    act,
    bracket,
    cycle_generators,
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


def _good_rows(algebra: Algebra, lin: Dict[int, int], letters: Sequence[int]) -> List[Tuple[int, ...]]:
    """Kernel rows of h -> [h, g], g = sum lin[i] x_i, on the support
    ``letters`` (in rank order) off supp g, in closed form from its tops
    alone: a component is good when every i in supp g has a neighbour in
    it, and the columns are the tops other than the least letter's, by
    vertex, the heads `_basis` returns (see the module docstring)."""
    top = algebra.tops(_support_mask(letters))
    good = set(top) - {-1}
    for i in lin:
        good &= {top[v] for v in algebra.graph.adj[i]}
        if len(good) < 2:
            return []
    heads = sorted(set(top) - {-1, top[letters[0]]})
    units = [tuple(int(h == t) for h in heads) for t in heads if t in good]
    if top[letters[0]] in good:
        return units
    return [tuple(a - b for a, b in zip(units[0], unit)) for unit in units[1:]]


def _provably_empty(graph: Graph, lin: Dict[int, int], degree_bound: int) -> bool:
    """Whether one of the three cuts of the module docstring shows that
    no support off supp g holds two good components.  Distances are
    symmetric, so one layered search from each N(j) but the first, until
    it meets every earlier N(i), covers every pair."""
    adj = graph.adj
    free = frozenset(range(graph.n)).difference(lin)
    m = len(free)
    near = [adj[i] & free for i in lin]
    if min(map(len, near)) < 2 or all(len(adj[v] & free) == m - 1 for v in free):
        return True
    span = 0
    for k, sources in enumerate(near[1:]):
        todo, seen, layer, depth = near[:k + 1], sources, sources, 0
        while True:
            todo = [t for t in todo if t.isdisjoint(layer)]
            if not todo:
                break
            layer = free.intersection(chain.from_iterable(adj[v] for v in layer)) - seen
            if not layer:
                return True
            seen, depth = seen | layer, depth + 1
        span = max(span, depth)
    return 2 * (1 + span) > min(degree_bound, m)


def _kernel_rows(algebra: Algebra, forms: Sequence[Dict[int, int]], columns: Sequence[BasisMonomial]) -> List[Tuple[int, ...]]:
    """Common kernel on the span of the basis monomials ``columns`` of
    h -> [h, g] for every g = sum lin[i] x_i with lin in ``forms``: one
    `linalg.kernel_basis` of the stacked normal-form images."""
    matrix: List[List[int]] = []
    for lin in forms:
        images = []
        for (a, b), tail in columns:
            image: Dict[BasisMonomial, int] = {}
            for i, alpha in lin.items():
                _add_nf(image, algebra, a, b, tail + (i,), alpha)
            images.append(image)
        matrix += [[image.get(m, 0) for image in images] for m in set().union(*images)]
    return linalg.kernel_basis(matrix, len(columns))


def _strata(g: LieElement, degree_bound: int) -> Iterator[Tuple[int, ...]]:
    """The letters, in rank order, of every support S of 2..min(d, m) of
    the m letters off supp g."""
    lin = _check_linear(g)
    free = [v for v in g.algebra.order.perm if v not in lin]
    for size in range(2, min(degree_bound, len(free)) + 1):
        yield from combinations(free, size)


def support_count(g: LieElement, degree_bound: int) -> int:
    """How many supports `derived_centralizer` walks: 0 when a cut rules
    out every one, else the sum of C(m, s) over s = 2..min(d, m), m the
    letters off supp g.  A bad degree bound or element raises here."""
    if degree_bound < 2:
        raise AlgebraError("degree bound must be at least 2")
    lin = _check_linear(g)
    graph = g.algebra.graph
    if _provably_empty(graph, lin, degree_bound):
        return 0
    m = graph.n - len(lin)
    return sum(comb(m, s) for s in range(2, min(degree_bound, m) + 1))


class CentralizerSlice(NamedTuple):
    """Basis of {h in M' : [h, g] = 0, total degree <= bound}."""

    g: LieElement
    degree_bound: int
    elements: List[LieElement]

    def is_empty(self) -> bool:
        return not self.elements


# (letters in rank order, closed-form kernel rows) of each support walked
Walk = List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]


def support_walk(g: LieElement, degree_bound: int) -> Walk:
    """(letters, closed-form kernel rows) of every support `_strata`
    yields whose rows are nonzero.  It applies no cut: a caller asks
    `support_count` first and walks only when it is nonzero."""
    algebra = g.algebra
    return [(letters, rows) for letters in _strata(g, degree_bound)
            if (rows := _good_rows(algebra, g.linear, letters))]


def slice_size(walk: Walk, degree_bound: int) -> int:
    """How many elements `spread` builds from a walk: its rows on each
    of the C(d, |S|) multidegrees on S up to degree d."""
    return sum(len(rows) * comb(degree_bound, len(letters)) for letters, rows in walk)


def spread(g: LieElement, degree_bound: int, walk: Walk) -> CentralizerSlice:
    """The slice a walk gives: each support's rows on every multidegree
    on it up to the degree bound, one `_basis` each, sorted by degree
    and multidegree, every element checked with `bracket`."""
    algebra = g.algebra
    rank = algebra.order.rank.__getitem__
    found = []
    for letters, rows in walk:
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


def derived_centralizer(g: LieElement, degree_bound: int) -> CentralizerSlice:
    """Exact basis of the derived centralizer up to a total degree: none
    when a cut rules out every support, else the spread of the walk, one
    closed-form kernel per support off supp g spread over its
    multidegrees where it is nonzero (see the module docstring)."""
    walk = support_walk(g, degree_bound) if support_count(g, degree_bound) else []
    return spread(g, degree_bound, walk)


def check_intersection_theorem(indices: Sequence[int], coefficients: Sequence[int], graph: Graph, degree_bound: int, order: GeneratorOrder = None) -> bool:
    """Compare the centralizer of a combination with the intersection
    of the generators' centralizers on one multidegree per support off
    supp g: closed form against elimination (see the module docstring)."""
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
        linalg.same_rowspan(_good_rows(g.algebra, g.linear, letters), _kernel_rows(g.algebra, forms, columns))
        for letters in _strata(g, degree_bound)
        if (columns := _basis(g.algebra, list(letters)))
    )


class CycleCentralizerReport(NamedTuple):
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

    Every slice element must be supported on all vertices except x_i
    and x_j, must be the action of an associative polynomial on
    [x_{i-1}, x_{i+1}] and must lie on one multidegree
    (`derived_centralizer` has checked that it commutes with g).  The
    checks are the same for adjacent i, j, whose slice is empty.
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
        deltas = {mdeg(m, n) for m in h.derived}
        if len(deltas) != 1:
            homogeneous_ok = False
            continue
        [delta] = deltas
        counts[delta] = counts.get(delta, 0) + 1
        # the unique completing monomial w with [x_{i-1},x_{i+1}].w of
        # multidegree delta; proportionality decides the form
        exps = list(delta)
        exps[(i - 1) % n] -= 1
        exps[(i + 1) % n] -= 1
        if min(exps) < 0:
            form_ok = False
            continue
        image = act(base, AssocPoly(n, {tuple(exps): 1}))
        m0 = next(iter(image.derived), None)
        if m0 is None or h * image.derived[m0] != image * h.derived.get(m0, 0):
            form_ok = False
    return CycleCentralizerReport(
        n, i, j, degree_bound, kind, len(slice_.elements), counts,
        support_ok, form_ok, homogeneous_ok,
    )

"""Exact normal-form arithmetic in the metabelian algebra of a graph.

The algebra M(X;G) is generated by x_0..x_{n-1} with [x_i,x_j] = 0 for
every edge {i,j} of G, inside the variety where the derived subalgebra
is abelian.  Its elements decompose uniquely over a basis consisting of
the generators and of left-normed monomials [x_a,x_b].x_t1...x_tk that
satisfy four conditions relative to a total order on the generators:

  1. the second head letter precedes the first;
  2. the second head letter precedes every tail letter, tail sorted;
  3. the two head letters lie in different connected components of the
     subgraph induced on the monomial's support;
  4. the first head letter is the greatest vertex of its component.

Normal forms are computed by a closed case analysis rather than by an
iterative rewrite loop.  The rules that justify it are: tails commute;
the Jacobi identity [[a,b],c] = [[a,c],b] + [[c,b],a] moves a tail
letter into the head; a monomial whose head pair is an edge is zero;
and exchanging two letters that lie in the same component of the
support subgraph never changes the value (for head-head exchanges this
forces the monomial to vanish).  Chasing these rules shows that any
monomial equals 0, one basis monomial up to sign, or a difference of
two basis monomials; `monomial_normal_form` emits that answer directly.
Correctness is certified against the independent oracle module rather
than assumed, see `pcml.oracle`.

Every element carries one `Algebra`: the interned value of its graph
and generator order, one object per equal pair, so two elements share a
context exactly when their algebras are the same object.  The engine's
two tables live in the algebra and die with it: the greatest vertex in
its order of each component of each support (`Algebra.tops`, the one
components cache) and its normal forms (`_monomial_nf`), each cleared
at `NF_CACHE_SIZE` entries.  Bases are built on demand from the tops.
No table refers back to an algebra, so an algebra is dropped with its
last element; `is_basis_monomial` reads none of them.  The case
analysis reads only the head pair, the tops of the support and its
least letter; the centralizer layer writes its kernels from the tops
and the neighbours of supp g, by a closed form proved from these cases
(`pcml.centralizer`).

Outside data is checked once, where it enters: the `LieElement`
constructor checks generators and basis monomials, the parsers their
text, `monomial_normal_form` the letters of a word.  Letters the engine
builds itself (products, actions, substitutions, centralizer images) go
through one unchecked step, `_add_nf`.  Every map between algebras (a
vertex merge, a relabeling, a change of generator order) sends each
generator to a scaled generator; `substitute` applies any such map that
respects the edge relations.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import namedtuple
from itertools import combinations
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import AlgebraError
from .graphs import Graph, cycle_graph

Multidegree = Tuple[int, ...]
AssocMonomial = Tuple[int, ...]


class GeneratorOrder:
    """Total order on the generators, given as an ascending listing.

    ``perm[k]`` is the generator of rank k; ``rank[i]`` is the rank of
    generator i (so smaller rank means smaller generator).
    """

    __slots__ = ("n", "perm", "rank", "_hash")

    def __init__(self, perm: Iterable[int]):
        p = tuple(perm)
        n = len(p)
        if sorted(p) != list(range(n)):
            raise AlgebraError(f"{p} is not a permutation of 0..{n - 1}")
        rank = [0] * n
        for k, v in enumerate(p):
            rank[v] = k
        self.n = n
        self.perm = p
        self.rank = tuple(rank)
        self._hash = hash(p)

    @classmethod
    def ascending(cls, n: int) -> "GeneratorOrder":
        return cls(range(n))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, GeneratorOrder) and self.perm == other.perm)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GeneratorOrder({list(self.perm)})"


class Algebra:
    """M(X;G) under one generator order, immutable by convention.

    `Algebra.of` returns one object per equal (graph, order) pair, so
    elements share a context exactly when their algebras are identical.
    """

    __slots__ = ("graph", "order", "_nf", "_tops", "__weakref__")

    @classmethod
    def of(cls, graph: Graph, order: GeneratorOrder) -> "Algebra":
        key = (graph.n, graph.edges, order.perm)
        out = _ALGEBRAS.get(key)
        if out is None:
            _check_fits(graph, order)
            with _INTERNING:
                out = _ALGEBRAS.get(key)
                if out is None:
                    out = _ALGEBRAS[key] = object.__new__(cls)
                    out.graph, out.order = graph, order
                    out._nf, out._tops = {}, {}
        return out

    def tops(self, mask: int) -> Tuple[int, ...]:
        """Components induced on the vertex bitmask ``mask``, once per mask:
        per vertex the greatest vertex of its component in this order, -1
        outside ``mask``: one search started at the vertices in descending
        order, so the first start met in each component is its top.  The
        table is cleared at `NF_CACHE_SIZE` entries, as the normal forms are."""
        out = self._tops.get(mask)
        if out is None:
            if len(self._tops) >= NF_CACHE_SIZE:
                self._tops.clear()
            out = self._tops[mask] = self.graph.component_labels(mask, reversed(self.order.perm))
        return out


# the live algebras, keyed by the values of their graph and order; an
# algebra is dropped once no element or homomorphism refers to it.  A
# miss looks again under the lock, so threads never intern a key twice.
_ALGEBRAS: "weakref.WeakValueDictionary[tuple, Algebra]" = weakref.WeakValueDictionary()
_INTERNING = threading.Lock()


def _check_fits(graph: Graph, order: GeneratorOrder) -> None:
    if order.n != graph.n:
        raise AlgebraError(f"order on {order.n} generators does not fit a graph on {graph.n}")


# entries one algebra keeps in each of its tables, normal forms and tops;
# far above the distinct entries of any workload
NF_CACHE_SIZE = 1 << 16


class BasisMonomial(NamedTuple):
    """Left-normed monomial: head pair, then the sorted action tail."""

    head: Tuple[int, int]
    tail: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return 2 + len(self.tail)

    def letters(self) -> Tuple[int, ...]:
        return self.head + self.tail


def mdeg(m: BasisMonomial, n: int) -> Multidegree:
    """Occurrence counts of each generator in the monomial."""
    out = [0] * n
    for v in m.letters():
        out[v] += 1
    return tuple(out)


def _support_mask(letters: Iterable[int]) -> int:
    mask = 0
    for v in letters:
        mask |= 1 << v
    return mask


def is_basis_monomial(head: Tuple[int, int], tail: Tuple[int, ...], graph: Graph, order: GeneratorOrder) -> bool:
    """Check the four basis conditions literally, reading no graph or
    algebra table: conditions 3 and 4 by a search of its own from a
    inside the support, which fails on reaching b or a vertex ranked
    above a."""
    _check_fits(graph, order)
    a, b = head
    letters = (a, b) + tuple(tail)
    if a == b or min(letters) < 0 or max(letters) >= graph.n:
        return False
    rank = order.rank
    if rank[b] > rank[a]:
        return False
    prev = b
    for t in tail:
        if rank[t] < rank[prev]:
            return False
        prev = t
    todo, stack, top = _support_mask(letters) & ~(1 << a), [a], rank[a]
    while stack:
        for w in graph.adj[stack.pop()]:
            if todo >> w & 1:
                if w == b or rank[w] > top:
                    return False
                todo ^= 1 << w
                stack.append(w)
    return True


def _headed(first: int, ranked: List[int]) -> BasisMonomial:
    """The monomial [x_first, x_mu] followed by the rest of ``ranked``
    (the whole support, with multiplicity, sorted by rank; mu = ranked[0])."""
    rest = ranked[1:]
    rest.remove(first)
    return BasisMonomial((first, ranked[0]), tuple(rest))


# hits and misses of every algebra's normal-form table since start-up
_nf_counts = [0, 0]
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _monomial_nf(algebra: Algebra, a: int, b: int, tail: Tuple[int, ...]) -> Tuple[Tuple[BasisMonomial, int], ...]:
    """Normal form of [x_a,x_b].tail as ((basis monomial, coeff), ...),
    looked up in, or else computed into, the algebra's table.

    Case analysis (mu is the least letter of the support, C_v the
    component of v in the support subgraph):

      * a == b, or C_a == C_b: zero;
      * mu in C_b: +m(C_a);
      * mu in C_a: -m(C_b), by anticommuting the head;
      * otherwise: m(C_a) - m(C_b), by one Jacobi step on mu;

    where m(C) heads the monomial with the greatest vertex of C, puts
    mu second, and sorts the rest into the tail.
    """
    table = algebra._nf
    key = (a, b, tail)
    out = table.get(key)
    if out is not None:
        _nf_counts[0] += 1
        return out
    _nf_counts[1] += 1
    if len(table) >= NF_CACHE_SIZE:
        table.clear()
    out = table[key] = _nf_cases(algebra, a, b, tail)
    return out


# counts as `functools.lru_cache` reports them: the bound is per algebra,
# the size summed over the live algebras
_monomial_nf.cache_info = lambda: CacheInfo(
    *_nf_counts, NF_CACHE_SIZE, sum(len(a._nf) for a in list(_ALGEBRAS.values())))


def _nf_cases(algebra: Algebra, a: int, b: int, tail: Tuple[int, ...]) -> Tuple[Tuple[BasisMonomial, int], ...]:
    if a == b:
        return ()
    mask = 1 << a | 1 << b
    for v in tail:
        mask |= 1 << v
    top = algebra._tops.get(mask) or algebra.tops(mask)  # inline hit: once per NF miss
    ta, tb = top[a], top[b]
    if ta == tb:
        return ()
    ranked = sorted((a, b) + tail, key=algebra.order.rank.__getitem__)
    tmu = top[ranked[0]]
    if tmu == tb:
        return ((_headed(ta, ranked), 1),)
    if tmu == ta:
        return ((_headed(tb, ranked), -1),)
    return ((_headed(ta, ranked), 1), (_headed(tb, ranked), -1))


def monomial_normal_form(algebra: Algebra, head: Tuple[int, int], tail: Iterable[int]) -> Tuple[Tuple[BasisMonomial, int], ...]:
    """Normal form of [x_a,x_b].tail for letters from outside the
    engine: the tail in any order, every letter checked."""
    a, b = head
    tail_sorted = tuple(sorted(tail, key=algebra.order.rank.__getitem__))
    n = algebra.graph.n
    for v in (a, b) + tail_sorted:
        if not 0 <= v < n:
            raise AlgebraError(f"unknown generator x{v} for a graph on {n} vertices")
    return _monomial_nf(algebra, a, b, tail_sorted)


def _strip(mapping: Dict) -> Dict:
    return {k: v for k, v in mapping.items() if v}


def _bump(acc: Dict, key, value) -> None:
    new = acc.get(key, 0) + value
    if new:
        acc[key] = new
    elif key in acc:
        del acc[key]


def _accumulate(acc: Dict, terms: Iterable[Tuple[object, int]], coeff: int) -> None:
    """acc += coeff * terms, for terms such as a monomial normal form or
    the items of an element's dicts."""
    for m, c in terms:
        _bump(acc, m, coeff * c)


def _add_nf(acc: Dict, algebra: Algebra, a: int, b: int, tail: Iterable[int], coeff: int) -> None:
    """acc += coeff * NF([x_a,x_b].tail), for letters the engine built
    itself (so in range), the tail in any order."""
    _accumulate(acc, _monomial_nf(algebra, a, b, tuple(sorted(tail, key=algebra.order.rank.__getitem__))), coeff)


class LieElement:
    """Element of M(X;G), over its `algebra`, stored in normal form.

    ``linear`` maps generator index -> coefficient, ``derived`` maps
    BasisMonomial -> coefficient; zero coefficients are never stored.
    Instances are immutable by convention and all operations are pure.
    """

    __slots__ = ("algebra", "linear", "derived")

    def __init__(self, graph: Graph, order: GeneratorOrder, linear: Dict[int, int], derived: Dict[BasisMonomial, int]):
        self.algebra = Algebra.of(graph, order)
        for i in linear:
            if not 0 <= i < graph.n:
                raise AlgebraError(f"unknown generator x{i}")
        for m in derived:
            if not is_basis_monomial(m.head, m.tail, graph, order):
                raise AlgebraError(f"{format_monomial(m)} is not a basis monomial over this graph and order")
        self.linear = _strip(linear)
        self.derived = _strip(derived)

    @classmethod
    def _trusted(cls, algebra: Algebra, linear: Dict[int, int], derived: Dict[BasisMonomial, int]) -> "LieElement":
        """An element of ``algebra`` from dicts that hold no zero (such
        as those filled by `_bump`), stored as given."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.linear = linear
        self.derived = derived
        return self

    graph = property(attrgetter("algebra.graph"))
    order = property(attrgetter("algebra.order"))

    @classmethod
    def zero(cls, graph: Graph, order: GeneratorOrder) -> "LieElement":
        return cls(graph, order, {}, {})

    @classmethod
    def generator(cls, graph: Graph, order: GeneratorOrder, i: int) -> "LieElement":
        return cls(graph, order, {i: 1}, {})

    @classmethod
    def from_linear(cls, graph: Graph, order: GeneratorOrder, coeffs: Dict[int, int]) -> "LieElement":
        return cls(graph, order, coeffs, {})

    @classmethod
    def from_monomial(cls, graph: Graph, order: GeneratorOrder, m: BasisMonomial, coeff: int = 1) -> "LieElement":
        return cls(graph, order, {}, {m: coeff})

    def is_zero(self) -> bool:
        return not self.linear and not self.derived

    def _add_scaled(self, other: "LieElement", sign: int) -> "LieElement":
        _check_context(self, other)
        lin = dict(self.linear)
        der = dict(self.derived)
        _accumulate(lin, other.linear.items(), sign)
        _accumulate(der, other.derived.items(), sign)
        return LieElement._trusted(self.algebra, lin, der)

    def __add__(self, other: "LieElement") -> "LieElement":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self._add_scaled(other, -1)

    def __neg__(self) -> "LieElement":
        return self * -1

    def __mul__(self, scalar: int) -> "LieElement":
        if not isinstance(scalar, int):
            return NotImplemented
        if not scalar:
            return LieElement._trusted(self.algebra, {}, {})
        return LieElement._trusted(
            self.algebra,
            {i: c * scalar for i, c in self.linear.items()},
            {m: c * scalar for m, c in self.derived.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.linear == other.linear
            and self.derived == other.derived
        )

    def __repr__(self) -> str:
        return f"LieElement({format_element(self)!r})"


def _check_context(a: LieElement, b: LieElement) -> None:
    if a.algebra is not b.algebra:
        raise AlgebraError("elements live over different graphs or orders")


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie product in normal form; derived x derived vanishes."""
    _check_context(a, b)
    algebra = a.algebra
    acc: Dict[BasisMonomial, int] = {}
    for i, ci in a.linear.items():
        for j, cj in b.linear.items():
            _accumulate(acc, _monomial_nf(algebra, i, j, ()), ci * cj)
    for ((p, q), tail), c1 in a.derived.items():
        for j, cj in b.linear.items():
            _add_nf(acc, algebra, p, q, tail + (j,), c1 * cj)
    for ((p, q), tail), c2 in b.derived.items():
        for i, ci in a.linear.items():
            _add_nf(acc, algebra, p, q, tail + (i,), -c2 * ci)
    return LieElement._trusted(algebra, {}, acc)


class AssocPoly:
    """Commutative polynomial acting on the derived subalgebra.

    Terms map exponent vectors (length n) to integer coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[AssocMonomial, int]):
        for exps in terms:
            if len(exps) != n or any(e < 0 for e in exps):
                raise AlgebraError(f"bad exponent vector {exps} for {n} generators")
        self.n = n
        self.terms = _strip(terms)

    @classmethod
    def variable(cls, n: int, i: int) -> "AssocPoly":
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        if self.n != other.n:
            raise AlgebraError("polynomials over different generator sets")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _bump(terms, e, c)
        return AssocPoly(self.n, terms)

    def __neg__(self) -> "AssocPoly":
        return AssocPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        return self + (-other)

    def __mul__(self, other: "AssocPoly") -> "AssocPoly":
        if self.n != other.n:
            raise AlgebraError("polynomials over different generator sets")
        terms: Dict[AssocMonomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _bump(terms, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return AssocPoly(self.n, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, AssocPoly) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"AssocPoly(n={self.n}, terms={self.terms})"


def _exps_to_letters(exps: AssocMonomial) -> Tuple[int, ...]:
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def act(u: LieElement, f: AssocPoly) -> LieElement:
    """Module action u.f of a polynomial on a derived element."""
    if u.linear:
        raise AlgebraError("module action is defined on the derived subalgebra only")
    if f.n != u.graph.n:
        raise AlgebraError("polynomial does not fit the element's generator set")
    acc: Dict[BasisMonomial, int] = {}
    for exps, cf in f.terms.items():
        letters = _exps_to_letters(exps)
        for ((a, b), tail), cm in u.derived.items():
            _add_nf(acc, u.algebra, a, b, tail + letters, cm * cf)
    return LieElement._trusted(u.algebra, {}, acc)


def substitute(g: LieElement, images: Sequence[Tuple[int, int]], graph: Graph, order: GeneratorOrder) -> LieElement:
    """Image of g under x_i -> c_i * x_{j_i}, where ``images[i]`` is
    (c_i, j_i), in normal form over ``graph`` and ``order``.

    M(X;G) is defined by the commutators of its edges, so this map is a
    homomorphism exactly when every edge of g's graph goes to a
    commuting pair: a zero coefficient, one generator twice, or an edge
    of ``graph``; any other images raise.  Vertex merges, relabelings
    and changes of generator order are all such maps.
    """
    if len(images) != g.graph.n:
        raise AlgebraError(f"{len(images)} images for {g.graph.n} generators")
    target = Algebra.of(graph, order)
    for _, j in images:
        if not 0 <= j < graph.n:
            raise AlgebraError(f"unknown generator x{j} for a graph on {graph.n} vertices")
    adj = graph.adj
    for a, b in g.graph.edges:
        (ca, ja), (cb, jb) = images[a], images[b]
        if ca and cb and ja != jb and jb not in adj[ja]:
            raise AlgebraError(f"edge ({a},{b}) goes to x{ja}, x{jb}, which do not commute")
    return _substituted(g, images, target)


def _substituted(g: LieElement, images: Sequence[Tuple[int, int]], target: Algebra) -> LieElement:
    """The body of `substitute`, for images already known to respect
    the edges of g's graph."""
    coeffs, targets = zip(*images) if images else ((), ())
    linear: Dict[int, int] = {}
    for i, c in g.linear.items():
        _bump(linear, targets[i], c * coeffs[i])
    derived: Dict[BasisMonomial, int] = {}
    for m, c in g.derived.items():
        (a, b), tail = m
        for v in m.letters():
            c *= coeffs[v]
        if c:
            _add_nf(derived, target, targets[a], targets[b], [targets[t] for t in tail], c)
    return LieElement._trusted(target, linear, derived)


def cycle_generators(n: int) -> List[LieElement]:
    """x_0..x_{n-1} in the algebra of the n-cycle, ascending order."""
    graph, order = cycle_graph(n), GeneratorOrder.ascending(n)
    return [LieElement.generator(graph, order, i) for i in range(n)]


def word_element(graph: Graph, order: GeneratorOrder, letters: Iterable[int]) -> LieElement:
    """Normal form of the left-normed word [x_l1, x_l2, x_l3, ...]."""
    seq = tuple(letters)
    if not seq:
        raise AlgebraError("empty word")
    if len(seq) == 1:
        return LieElement.generator(graph, order, seq[0])
    algebra = Algebra.of(graph, order)
    nf = monomial_normal_form(algebra, (seq[0], seq[1]), seq[2:])
    return LieElement._trusted(algebra, {}, dict(nf))


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def homogeneous_components(g: LieElement) -> List[Tuple[Multidegree, LieElement]]:
    """Split g into its nonzero multidegree-homogeneous parts."""
    n = g.graph.n
    buckets: Dict[Multidegree, Tuple[Dict[int, int], Dict[BasisMonomial, int]]] = {}
    for i, c in g.linear.items():
        d = [0] * n
        d[i] = 1
        buckets.setdefault(tuple(d), ({}, {}))[0][i] = c
    for m, c in g.derived.items():
        buckets.setdefault(mdeg(m, n), ({}, {}))[1][m] = c
    return [
        (delta, LieElement._trusted(g.algebra, lin, der))
        for delta, (lin, der) in sorted(buckets.items())
    ]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def multidegrees(n: int, total: int) -> Iterator[Multidegree]:
    """All length-n vectors of nonnegative integers summing to total, in
    ascending order: the gaps between n-1 bars among total+n-1 places;
    for n = 0 only the empty vector, of total 0."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for bars in combinations(range(total + n - 1), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (total + n - 1,)))


def basis_monomials_of_multidegree(graph: Graph, order: GeneratorOrder, delta: Multidegree) -> List[BasisMonomial]:
    """All basis monomials of one multidegree.

    There is exactly one per connected component of the support
    subgraph that avoids the least support letter, headed by that
    component's greatest vertex.  So dim M_delta = c(supp delta) - 1
    when supp delta has two or more vertices, where c counts the
    components of the subgraph induced on the support, and 0 otherwise.
    """
    algebra = Algebra.of(graph, order)
    if len(delta) != graph.n or min(delta, default=0) < 0:
        raise AlgebraError(f"{delta} is not a multidegree on {graph.n} generators")
    return _basis(algebra, sorted(_exps_to_letters(delta), key=order.rank.__getitem__))


def _basis(algebra: Algebra, ranked: List[int]) -> List[BasisMonomial]:
    """The basis monomials on the letters ``ranked``, sorted by rank: one
    per top of the support other than the least letter's."""
    if len(ranked) < 2:
        return []
    top = algebra.tops(_support_mask(ranked))
    return sorted(_headed(v, ranked) for v in set(top) - {-1, top[ranked[0]]})


def basis_monomials_of_degree(graph: Graph, order: GeneratorOrder, degree: int) -> List[BasisMonomial]:
    """All basis monomials of one total degree, by ascending multidegree."""
    return [m for delta in multidegrees(graph.n, degree) for m in basis_monomials_of_multidegree(graph, order, delta)]


def basis_monomial_with_start(delta: Multidegree, start: int, graph: Graph, order: GeneratorOrder) -> Optional[BasisMonomial]:
    """The unique basis monomial of a multidegree with a given first
    letter, or None when no such monomial is valid."""
    _check_fits(graph, order)
    if len(delta) != graph.n or any(d < 0 for d in delta):
        return None
    return next((m for m in basis_monomials_of_multidegree(graph, order, delta) if m.head[0] == start), None)


# ---------------------------------------------------------------------------
# canonical text
# ---------------------------------------------------------------------------

def _term_sort_key(item):
    m, _ = item
    return (m.degree, tuple(sorted(m.letters())), m.head, m.tail)


def format_monomial(m: BasisMonomial) -> str:
    head = f"x{m.head[0]},x{m.head[1]}"
    if m.tail:
        return "[" + head + ";" + ",".join(f"x{t}" for t in m.tail) + "]"
    return "[" + head + "]"


def format_element(g: LieElement) -> str:
    """Canonical text: linear terms by index, then monomials by degree."""
    chunks: List[Tuple[int, str]] = []
    for i, c in sorted(g.linear.items()):
        chunks.append((c, f"x{i}"))
    for m, c in sorted(g.derived.items(), key=_term_sort_key):
        chunks.append((c, format_monomial(m)))
    if not chunks:
        return "0"
    parts: List[str] = []
    for k, (c, body) in enumerate(chunks):
        mag = abs(c)
        try:
            text = body if mag == 1 else f"{mag}*{body}"
        except ValueError:  # longer than str()'s digit limit
            digits = round(mag.bit_length() * 0.30103)  # log10(2)
            raise AlgebraError(
                f"coefficient of about {digits} digits is over the "
                f"{sys.get_int_max_str_digits()}-digit limit for printing"
            ) from None
        if k == 0:
            parts.append(("-" if c < 0 else "") + text)
        else:
            parts.append(("- " if c < 0 else "+ ") + text)
    return " ".join(parts)

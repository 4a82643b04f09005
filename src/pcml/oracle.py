"""Brute-force certifier by graded linear algebra over the free algebra.

This module never calls the rewriting engine.  It works in the free
metabelian algebra on n generators, where the classical straightening
(second head letter minimal, tail sorted, plain Jacobi expansion) gives
a standard monomial basis of each multidegree delta: with mu the least
letter of S = supp delta, the monomials [x_a,x_mu].(x^delta/x_a x_mu),
one for each first head letter a in S - {mu}.  The relation ideal of a
graph is spanned, degree by degree, by every edge bracket acted on by
the one completing associative monomial, so dimensions and membership
questions reduce to exact integer rank computations.

One slice serves every multidegree of a support.  Index each standard
monomial of delta by its first head letter.  The tail acts through a
commutative polynomial ring, and the Jacobi identity of a metabelian
algebra reads [x_a,x_b].x_mu = [x_a,x_mu].x_b - [x_b,x_mu].x_a.  So for
a != b in S and w the monomial completing delta, [x_a,x_b].w is

* the monomial of column a when b = mu;
* minus the monomial of column b when a = mu;
* otherwise, since x_mu then divides w,
  [x_a,x_mu].(w x_b/x_mu) - [x_b,x_mu].(w x_a/x_mu): column a minus
  column b.

These are the cases `_free_expand` reaches, and in each the
coordinates depend on a, b and mu alone.  Match the monomials of delta
with those of the square-free multidegree e_S that have the same first
head letter.  This bijection carries the expansion of [x_a,x_b].w at
delta onto that of [x_a,x_b].(x^S/x_a x_b) at e_S, so it carries the
spanning rows of the ideal at delta (one for each edge {i,j} in S) onto
those at e_S, edge by edge.  Hence the two slices have the same
echelon rows in these columns, and a candidate's expansion has the
same coordinates at both.  The slice is eliminated once per support,
at e_S, and cached; `_coordinates` reads a combination of one
multidegree's monomials onto its columns.  Membership reduces one
vector per multidegree modulo the cached echelon rows.  A basis claim
is asked of the engine at every delta: its heads are scanned and
counted against the dimension there.  Whether a given set of heads is
independent modulo the ideal is then a question about the support
alone, so it is decided once per support and head set, from the
expansions at e_S, and reused; a claim of other heads at another
multidegree of the support is checked afresh.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .core import GeneratorOrder, Multidegree, _check_fits, is_basis_monomial
from .errors import AlgebraError
from .graphs import Graph

# standard monomial key: ((first, second), sorted tail)
FreeMonomial = Tuple[Tuple[int, int], Tuple[int, ...]]
RawMonomial = Tuple[int, Tuple[int, ...]]  # (coefficient, left-normed letters)


def _merge(into: Dict[FreeMonomial, int], other: Dict[FreeMonomial, int], scale: int = 1) -> None:
    for k, v in other.items():
        new = into.get(k, 0) + scale * v
        if new:
            into[k] = new
        elif k in into:
            del into[k]


def _with_inserted(tail: Tuple[int, ...], letter: int) -> Tuple[int, ...]:
    out = list(tail)
    insort(out, letter)
    return tuple(out)


def _free_expand(a: int, b: int, tail: Tuple[int, ...]) -> Dict[FreeMonomial, int]:
    """Expand [x_a,x_b].tail over the standard monomials of the free
    metabelian algebra (tail must be sorted ascending)."""
    if a == b:
        return {}
    if a < b:
        return {k: -v for k, v in _free_expand(b, a, tail).items()}
    if tail and tail[0] < b:
        t, rest = tail[0], tail[1:]
        out: Dict[FreeMonomial, int] = {}
        _merge(out, _free_expand(a, t, _with_inserted(rest, b)))
        _merge(out, _free_expand(t, b, _with_inserted(rest, a)))
        return out
    return {((a, b), tail): 1}


def expand_word(letters: Sequence[int]) -> Dict[FreeMonomial, int]:
    """Standard-basis expansion of a left-normed word of length >= 2."""
    if len(letters) < 2:
        raise AlgebraError("a bracket word needs at least two letters")
    a, b = letters[0], letters[1]
    return _free_expand(a, b, tuple(sorted(letters[2:])))


def _without(letters: Sequence[int], a: int, b: int) -> Tuple[int, ...]:
    """The letters less one a and one b, in their given order."""
    out = list(letters)
    out.remove(a)
    out.remove(b)
    return tuple(out)


def _coordinates(index: Dict[int, int], combo: Dict[FreeMonomial, int]) -> List[int]:
    """A combination of one multidegree's standard monomials as a row
    over its support slice's columns, which its first head letters index."""
    row = [0] * len(index)
    for ((first, _), _), c in combo.items():
        row[index[first]] = c
    return row


def _word_mdeg(n: int, letters: Sequence[int]) -> Multidegree:
    out = [0] * n
    for v in letters:
        if not 0 <= v < n:
            raise AlgebraError(f"letter x{v} out of range")
        out[v] += 1
    return tuple(out)


def _support(delta: Multidegree) -> Tuple[int, ...]:
    return tuple(v for v, d in enumerate(delta) if d)


# ideal slices kept, one per (graph, support), and independence verdicts,
# one per (graph, support, heads); above the distinct slices of one
# certification run (960 in criterion 1), so a run evicts nothing
SLICE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _ideal_slice(graph: Graph, support: Tuple[int, ...]):
    """Canonical integer RREF of the relation ideal at every multidegree
    of one support, over columns indexed by first head letter.

    It is eliminated at the square-free multidegree of the support,
    whose spanning rows are the expansions of [x_i,x_j].w for every
    edge {i,j} in the support and the one associative monomial w
    completing it; that enumeration is exact, not sampled.  The module
    docstring proves that every multidegree of the support has the same
    rows in these columns.
    """
    index = {first: k for k, first in enumerate(support[1:])}
    members = set(support)
    rows = [_coordinates(index, _free_expand(j, i, _without(support, i, j)))
            for i in support for j in graph.adj[i] & members if i < j]
    red, pivots = linalg.rref(rows)
    return index, [tuple(row) for row in red], pivots


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _independent(graph: Graph, support: Tuple[int, ...], heads: Tuple[Tuple[int, int], ...]) -> bool:
    """Are the monomials with these heads independent modulo the ideal
    at every multidegree of the support?  Their residues modulo the
    slice's echelon rows have full rank exactly when they are, and the
    module docstring proves the residues the same at e_S as at any
    multidegree of the support."""
    index, red, pivots = _ideal_slice(graph, support)
    residues = [linalg.residue(red, pivots, _coordinates(index, _free_expand(a, b, _without(support, a, b))))
                for a, b in heads]
    return linalg.rank(residues) == len(heads)


def _sliced(graph: Graph, delta: Multidegree):
    """The support of a multidegree and its dimension, read off its
    ideal slice from degree 2 on (below it the dimension is the total
    degree): the oracle's own check of a multidegree from outside,
    before any work."""
    if len(delta) != graph.n or min(delta, default=0) < 0:
        raise AlgebraError(f"{tuple(delta)} is not a multidegree on {graph.n} generators")
    supp = _support(delta)
    total = sum(delta)
    if total < 2:
        return supp, total
    index, red, _ = _ideal_slice(graph, supp)
    return supp, len(index) - len(red)


def graded_dimension(graph: Graph, delta: Multidegree) -> int:
    """dim of the multidegree slice of the graph algebra."""
    return _sliced(graph, delta)[1]


def ideal_member(raw: Sequence[RawMonomial], graph: Graph) -> bool:
    """Does the combination of left-normed words vanish in the graph
    algebra, i.e. lie in the relation ideal of the free algebra?"""
    linear: Dict[int, int] = {}
    by_delta: Dict[Multidegree, Dict[FreeMonomial, int]] = {}
    for coeff, letters in raw:
        delta = _word_mdeg(graph.n, letters)
        if len(letters) == 1:
            v = letters[0]
            linear[v] = linear.get(v, 0) + coeff
            continue
        _merge(by_delta.setdefault(delta, {}), expand_word(letters), coeff)
    if any(linear.values()):
        return False
    for delta, combo in by_delta.items():
        if not combo:
            continue
        index, red, pivots = _ideal_slice(graph, _support(delta))
        if not linalg.in_rowspan(red, pivots, _coordinates(index, combo)):
            return False
    return True


class CertifyReport(NamedTuple):
    ok: bool
    delta: Multidegree
    count: int
    dim: int
    witness: Optional[str]


def certify_basis(graph: Graph, delta: Multidegree, order: GeneratorOrder) -> CertifyReport:
    """Check the engine's basis claim at one multidegree.

    Candidate monomials are enumerated by brute force over head pairs
    and filtered through the literal four conditions, then compared in
    number with the oracle dimension.  Every ordered pair a != b of the
    support is offered, with the other letters in rank order as its
    tail, although conditions 1 and 2 admit only b = mu, the rank-least
    letter: those conditions are part of the claim under test, not
    assumed.  The scan and the count run at every multidegree of two or
    more letters; one letter offers no pair, and the report gives the
    dimension as the count.  Independence of the claimed heads modulo
    the ideal is a property of the support and the heads alone (module
    docstring), so it is decided once per support and head set and
    reused: a multidegree whose scan claims other heads than an earlier
    one of its support is checked afresh.  The multidegree is checked
    first, as `graded_dimension` checks it.
    """
    _check_fits(graph, order)
    supp, dim = _sliced(graph, delta)
    if len(supp) < 2:
        return CertifyReport(True, delta, dim, dim, None)
    ranked = sorted((v for v in supp for _ in range(delta[v])), key=order.rank.__getitem__)
    heads = []
    for a in supp:
        rest = ranked.copy()
        rest.remove(a)
        for b in supp:
            if b != a:
                tail = rest.copy()
                tail.remove(b)
                if is_basis_monomial((a, b), tuple(tail), graph, order):
                    heads.append((a, b))
    count = len(heads)
    if count != dim:
        return CertifyReport(False, delta, count, dim, "count != dim")
    if _independent(graph, supp, tuple(heads)):
        return CertifyReport(True, delta, count, dim, None)
    return CertifyReport(False, delta, count, dim, "dependent modulo the relation ideal")

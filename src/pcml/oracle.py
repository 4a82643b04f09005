"""Brute-force certifier by graded linear algebra over the free algebra.

This module never calls the rewriting engine.  It works in the free
metabelian algebra on n generators, where the classical straightening
(second head letter minimal, tail sorted, plain Jacobi expansion) gives
a standard monomial basis of each multidegree.  The relation ideal of a
graph is spanned, degree by degree, by every edge bracket acted on by
the one completing associative monomial, so dimensions and membership
questions reduce to exact integer rank computations.  Each slice is
eliminated once and cached; a basis claim is then checked by reducing
the expansions of the claimed monomials modulo the cached echelon rows,
and membership by reducing one vector.
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


def _letters(delta: Multidegree) -> List[int]:
    """The letters of a multidegree, ascending."""
    return [v for v, d in enumerate(delta) for _ in range(d)]


def _without(letters: Sequence[int], a: int, b: int) -> Tuple[int, ...]:
    """The letters less one a and one b, in their given order."""
    out = list(letters)
    out.remove(a)
    out.remove(b)
    return tuple(out)


def _coordinates(index: Dict[FreeMonomial, int], combo: Dict[FreeMonomial, int]) -> List[int]:
    """A combination of standard monomials as a row over a slice's basis."""
    row = [0] * len(index)
    for m, c in combo.items():
        row[index[m]] = c
    return row


def free_standard_monomials(letters: Sequence[int]) -> Tuple[FreeMonomial, ...]:
    """Standard monomials of the multidegree whose letters, ascending,
    are given; sorted, since the first head letter ascends."""
    supp = sorted(set(letters))
    return tuple(((first, supp[0]), _without(letters, first, supp[0])) for first in supp[1:])


def _word_mdeg(n: int, letters: Sequence[int]) -> Multidegree:
    out = [0] * n
    for v in letters:
        if not 0 <= v < n:
            raise AlgebraError(f"letter x{v} out of range")
        out[v] += 1
    return tuple(out)


# ideal slices kept; above the distinct slices of one certification run
# (7,744 in criterion 1), so a run evicts nothing
SLICE_CACHE_SIZE = 1 << 14


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _ideal_slice(graph: Graph, delta: Multidegree):
    """Canonical integer RREF of the relation ideal at one multidegree.

    Spanning rows are the expansions of [x_i,x_j].w for every edge
    {i,j} and the single associative monomial w completing delta; that
    enumeration is exact, not sampled.
    """
    letters = _letters(delta)
    basis = free_standard_monomials(letters)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for i, j in graph.edges:
        if delta[i] < 1 or delta[j] < 1:
            continue
        rows.append(_coordinates(index, _free_expand(j, i, _without(letters, i, j))))
    red, pivots = linalg.rref(rows)
    return basis, index, [tuple(row) for row in red], pivots


def graded_dimension(graph: Graph, delta: Multidegree) -> int:
    """dim of the multidegree slice of the graph algebra; the oracle's own
    check of a multidegree from outside, before any work."""
    if len(delta) != graph.n or min(delta, default=0) < 0:
        raise AlgebraError(f"{tuple(delta)} is not a multidegree on {graph.n} generators")
    total = sum(delta)
    if total == 0:
        return 0
    if total == 1:
        return 1
    basis, _, red, _ = _ideal_slice(graph, delta)
    return len(basis) - len(red)


def ideal_member(raw: Sequence[RawMonomial], graph: Graph) -> bool:
    """Does the combination of left-normed words vanish in the graph
    algebra, i.e. lie in the relation ideal of the free algebra?"""
    linear: Dict[int, int] = {}
    by_delta: Dict[Multidegree, Dict[FreeMonomial, int]] = {}
    for coeff, letters in raw:
        if len(letters) == 1:
            v = letters[0]
            linear[v] = linear.get(v, 0) + coeff
            continue
        delta = _word_mdeg(graph.n, letters)
        _merge(by_delta.setdefault(delta, {}), expand_word(letters), coeff)
    if any(linear.values()):
        return False
    for delta, combo in by_delta.items():
        if not combo:
            continue
        _, index, red, pivots = _ideal_slice(graph, delta)
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
    number with the oracle dimension.  Independence modulo the ideal
    slice is checked by reducing each candidate's expansion modulo the
    slice's cached echelon rows: the candidates are independent modulo
    the ideal exactly when those residues have full rank.  The
    multidegree is checked first, by `graded_dimension`.
    """
    _check_fits(graph, order)
    dim = graded_dimension(graph, delta)
    total = sum(delta)
    if total < 2:
        count = 1 if total == 1 else 0
        return CertifyReport(count == dim, delta, count, dim, None)
    ascending = _letters(delta)
    ranked = [v for v in order.perm for _ in range(delta[v])]
    supp = sorted(set(ascending))
    heads = [(a, b) for a in supp for b in supp
             if a != b and is_basis_monomial((a, b), _without(ranked, a, b), graph, order)]
    count = len(heads)
    if count != dim:
        return CertifyReport(False, delta, count, dim, "count != dim")
    _, index, red, pivots = _ideal_slice(graph, delta)
    residues = [linalg.residue(red, pivots, _coordinates(index, _free_expand(a, b, _without(ascending, a, b))))
                for a, b in heads]
    if linalg.rank(residues) == count:
        return CertifyReport(True, delta, count, dim, None)
    return CertifyReport(False, delta, count, dim, "dependent modulo the relation ideal")

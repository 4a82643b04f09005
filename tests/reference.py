"""Full-block reference for the centralizer layer.

The engine solves derived centralizers and checks the intersection
theorem only on the multidegrees off supp g, one kernel per support
mask.  This module keeps the computation those shortcuts replace: the
kernel of ad g on every block of every degree of `bases`, where a block
groups the multidegrees of one degree linked by moves
e_a - e_b with a, b in supp g, the pieces the constraint matrix of ad g
splits into.  The tests compare the engine with it."""

from itertools import combinations_with_replacement
from typing import Dict, Iterator, List, Sequence, Tuple

from pcml.centralizer import _kernel_rows
from pcml.core import Algebra, BasisMonomial, LieElement, _basis, mdeg


def bases(algebra: Algebra, degree: int) -> Dict[Tuple[int, ...], Tuple[BasisMonomial, ...]]:
    """The nonempty bases of the multidegrees of one total degree, by
    ascending multidegree, each sorted: one `_basis` per multiset of
    letters, in rank order."""
    found = {}
    for ranked in combinations_with_replacement(algebra.order.perm, degree):
        mons = _basis(algebra, list(ranked))
        if mons:
            found[mdeg(mons[0], algebra.graph.n)] = tuple(mons)
    return dict(sorted(found.items()))


def blocks(deltas: List[Tuple[int, ...]], supp: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    """Group multidegrees linked by delta -> delta + e_a - e_b."""
    present = set(deltas)
    seen = set()
    found = []
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
        found.append(block)
    return found


def kernel_blocks(g: LieElement, degree_bound: int) -> Iterator[Tuple[List[BasisMonomial], List[Tuple[int, ...]]]]:
    """(columns, kernel rows of ad g) of every block of every degree
    2..degree_bound, in ascending degree and block order."""
    supp = sorted(g.linear)
    for k in range(2, degree_bound + 1):
        table = bases(g.algebra, k)
        for block in blocks(list(table), supp):
            columns = [m for delta in sorted(block) for m in table[delta]]
            yield columns, _kernel_rows(g.algebra, [g.linear], columns)

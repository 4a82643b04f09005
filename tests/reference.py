"""Full-block reference for the centralizer layer.

The engine solves derived centralizers and checks the intersection
theorem only on the multidegrees off supp g, one kernel per support
mask.  This module keeps the computation those shortcuts replace: the
kernel of ad g on every block of every degree of `bases`, where a block
groups the multidegrees of one degree linked by moves
e_a - e_b with a, b in supp g, the pieces the constraint matrix of ad g
splits into.  The tests compare the engine with it.  It also keeps
the rule the closed form first read goodness by: a component of S is
good when it shares its top with i in S + {i}, for every i in supp g.
For the oracle it keeps the first independence check of a basis claim:
one elimination of the ideal slice's rows stacked with the candidates'
expansions, where the oracle now reduces the candidates modulo the
cached slice.  For merge witnesses it keeps the scale and the kill
check computed one closure element at a time, where the witness now
solves each distinct scale polynomial once and substitutes each
distinct monomial once, and the grouping of an element's derived terms
by glued multidegree and first letter, read off `mdeg`, that the
merge's scaling components now label by `equivalence._glued_key`."""

from itertools import combinations_with_replacement
from typing import Dict, Iterator, List, Sequence, Tuple

from pcml import linalg
from pcml.centralizer import _kernel_rows
from pcml.core import Algebra, BasisMonomial, GeneratorOrder, LieElement, _basis, _support_mask, is_basis_monomial, mdeg, substitute
from pcml.equivalence import PhiHom, build_phi_hom, gamma_closure, lambda_zero, merge_relabeling, phi_lambda
from pcml.graphs import Graph, perp_classes
from pcml.oracle import CertifyReport, _free_expand, _ideal_slice, graded_dimension


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


def good_rows_by_joins(algebra: Algebra, lin: Dict[int, int], letters: Sequence[int], columns: Sequence[BasisMonomial]) -> List[Tuple[int, ...]]:
    """The rows of `centralizer._good_rows`, a component C of S counted
    good when C and i share their top in S + {i} for every i in supp g:
    one component search of S + {i} per i."""
    mask = _support_mask(letters)
    top = algebra.tops(mask)
    good = set(top) - {-1}
    for i in lin:
        joined = algebra.tops(mask | 1 << i)
        good = {t for t in good if joined[t] == joined[i]}
    if len(good) < 2:
        return []
    units = [tuple(int(k == j) for k in range(len(columns))) for j, m in enumerate(columns) if m.head[0] in good]
    if top[letters[0]] in good:
        return units
    return [tuple(a - b for a, b in zip(units[0], unit)) for unit in units[1:]]


def certify_basis_by_stacked_rank(graph: Graph, delta: Tuple[int, ...], order: GeneratorOrder) -> CertifyReport:
    """`oracle.certify_basis` with independence read off the rank of the
    slice's echelon rows stacked with the candidates' expansions."""
    dim = graded_dimension(graph, delta)
    total = sum(delta)
    if total < 2:
        count = 1 if total == 1 else 0
        return CertifyReport(count == dim, delta, count, dim, None)
    supp = sorted(i for i, d in enumerate(delta) if d)
    candidates = []
    for a in supp:
        for b in supp:
            if a == b:
                continue
            tail = []
            for i, d in enumerate(delta):
                tail.extend([i] * (d - (i == a) - (i == b)))
            tail = tuple(sorted(tail, key=order.rank.__getitem__))
            if is_basis_monomial((a, b), tail, graph, order):
                candidates.append(((a, b), tail))
    count = len(candidates)
    if count != dim:
        return CertifyReport(False, delta, count, dim, "count != dim")
    basis, index, red, _ = _ideal_slice(graph, delta)
    stacked = [list(row) for row in red]
    for head, tail in candidates:
        row = [0] * len(basis)
        for m, c in _free_expand(head[0], head[1], tuple(sorted(tail))).items():
            row[index[m]] = c
        stacked.append(row)
    independent = linalg.rank(stacked) == len(red) + count
    witness = None if independent else "dependent modulo the relation ideal"
    return CertifyReport(independent, delta, count, dim, witness)


def compaction_witness_by_element(graph: Graph, gamma: Sequence[LieElement]) -> Tuple[PhiHom, List[LieElement], List[LieElement]]:
    """The merge of `equivalence.compaction_witness` at its scale, the
    nonzero closure elements and their images, one element at a time:
    the scale is the largest `lambda_zero` of the nonzero closure
    elements, and each image is `phi_lambda` of its element."""
    block = next(b for b in perp_classes(graph) if len(b) >= 2)
    remove = max(block)
    perm, new_graph = merge_relabeling(graph, max(block - {remove}), remove)
    hom1 = build_phi_hom(new_graph, 1)
    moved = [substitute(g, [(1, perm[v]) for v in range(graph.n)], new_graph, hom1.source_order) for g in gamma]
    nonzero = [g for g in gamma_closure(moved) if not g.is_zero()]
    hom = build_phi_hom(new_graph, max([1] + [lambda_zero(g, hom1) for g in nonzero]))
    return hom, nonzero, [phi_lambda(hom, g) for g in nonzero]


def glued_decomposition(g: LieElement) -> List[Tuple[Tuple[int, ...], int, LieElement]]:
    """(glued multidegree, first letter, part) of each group of g's
    derived terms sharing both, ascending: the glued multidegree is
    `mdeg` with its last two coordinates summed."""
    n = g.graph.n
    buckets: Dict[Tuple[Tuple[int, ...], int], Dict[BasisMonomial, int]] = {}
    for m, c in g.derived.items():
        d = mdeg(m, n)
        buckets.setdefault((d[: n - 2] + (d[n - 2] + d[n - 1],), m.head[0]), {})[m] = c
    return [(glued, start, LieElement(g.graph, g.order, {}, part)) for (glued, start), part in sorted(buckets.items())]

"""Small dense exact linear algebra over the integers.

Everything works on lists of rows of ints; no rational arithmetic is
done anywhere.  Elimination is fraction-free: a row is reduced by an
integer combination with the pivot row and then divided by the gcd of
its entries, so entries stay small.  Every echelon row is kept
primitive (its entries have gcd 1) with a positive pivot, which makes
the reduced echelon form of a row space canonical.  Sizes here are
desk scale (a few hundred rows at most), so plain Gauss-Jordan
elimination is enough.  `residue` reduces a vector modulo an echelon
form computed once, so later vectors are checked against it without a
new elimination.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Sequence, Tuple


def _primitive(row: List[int]) -> List[int]:
    """row divided by the gcd of its entries; a zero row is returned as is."""
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def _eliminate(row: Sequence[int], prow: Sequence[int], c: int) -> List[int]:
    """The combination a*row - b*prow with coprime a, b that is 0 in
    column c; a has the sign of prow[c], which must be nonzero."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    return [a * x - b * y for x, y in zip(row, prow)]


def rref(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Canonical integer reduced row echelon form.

    Returns (nonzero rows, pivot columns).  Each row is primitive with a
    positive entry at its pivot column and 0 at every other row's pivot
    column, so two inputs span the same space exactly when the returned
    rows are equal.
    """
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        prow = _primitive(mat[pivot])
        if prow[c] < 0:
            prow = [-x for x in prow]
        mat[pivot] = mat[r]
        mat[r] = prow
        for i, row in enumerate(mat):
            if row[c] and i != r:
                mat[i] = _primitive(_eliminate(row, prow, c))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    return len(rref(rows)[0])


def residue(rref_rows: Sequence[Sequence[int]], pivots: Sequence[int], vector: Sequence[int]) -> List[int]:
    """vector reduced modulo a precomputed reduced echelon form: a
    nonzero multiple of vector minus a combination of the rows, 0 at
    every pivot column.  It is 0 exactly when vector lies in their span,
    and rank([R; C]) = rank R + rank of the residues of the rows of C."""
    v = list(vector)
    for row, c in zip(rref_rows, pivots):
        if v[c]:
            v = _primitive(_eliminate(v, row, c))
    return v


def in_rowspan(rref_rows: Sequence[Sequence[int]], pivots: Sequence[int], vector: Sequence[int]) -> bool:
    """Membership test against a precomputed reduced echelon form."""
    return not any(residue(rref_rows, pivots, vector))


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """Integer-cleared basis of {x : A x = 0} for A given by rows."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        used = [(row, pc) for row, pc in zip(red, pivots) if row[fc]]
        scale = lcm(*(row[pc] for row, pc in used))
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in used:
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(integer_clear(vec))
    return basis


def integer_clear(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries and make its
    first nonzero entry positive; the zero vector is returned as is."""
    g = gcd(*vec)
    if g == 0:
        return tuple(vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def same_rowspan(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> bool:
    return rref(rows_a)[0] == rref(rows_b)[0]


def intersect_rowspans(rows_a: Sequence[Sequence[int]], rows_b: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Basis of span(rows_a) & span(rows_b), in canonical reduced form.

    Zassenhaus: in the echelon form of the rows (a | a) and (b | 0), the
    rows whose left half is zero carry a basis of the intersection in
    their right half, already reduced and primitive.  Only tests and
    `perfbench/tracer.py` call it.
    """
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    zero = [0] * n
    red, pivots = rref([list(a) + list(a) for a in rows_a] + [list(b) + zero for b in rows_b])
    return [tuple(row[n:]) for row, c in zip(red, pivots) if c >= n]

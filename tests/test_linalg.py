import random
from math import gcd, lcm

import pytest

from pcml import linalg

sympy = pytest.importorskip("sympy")

SEEDS = range(40)


def random_matrix(rng, nrows, ncols, bound=50):
    """Dense, sparse or low-rank integer matrix with entries in +-bound."""
    density = rng.choice([0.2, 0.6, 1.0])
    if rng.random() < 0.5:
        return [[rng.randint(-bound, bound) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
    k = rng.randint(0, min(nrows, ncols))
    basis = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(k)]
    return [combination(rng, basis, ncols) for _ in range(nrows)]


def combination(rng, rows, ncols):
    coeffs = [rng.randint(-3, 3) for _ in rows]
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]


def sympy_rank(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [x for row in rows for x in row]).rank() if rows else 0


def cleared(vector):
    """A rational sympy vector scaled to integers."""
    scale = lcm(*(sympy.fraction(x)[1] for x in vector))
    return [int(x * scale) for x in vector]


def shape(rng):
    return rng.randint(0, 12), rng.randint(1, 12)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    nrows, ncols = shape(rng)
    rows = random_matrix(rng, nrows, ncols)
    assert linalg.rank(rows) == sympy_rank(rows, ncols)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_sympy_nullspace(seed):
    rng = random.Random(seed)
    nrows, ncols = shape(rng)
    rows = random_matrix(rng, nrows, ncols)
    kernel = linalg.kernel_basis(rows, ncols)
    expected = sympy.Matrix(nrows, ncols, [x for row in rows for x in row]).nullspace()
    assert len(kernel) == len(expected)
    for vec in kernel:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert linalg.rank(kernel) == len(kernel)
    red, pivots = linalg.rref(kernel)
    for vec in expected:
        assert linalg.in_rowspan(red, pivots, cleared(vec))


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_is_canonical(seed):
    rng = random.Random(seed)
    nrows, ncols = shape(rng)
    rows = random_matrix(rng, nrows, ncols)
    red, pivots = linalg.rref(rows)
    assert len(red) == len(pivots) == sympy_rank(rows, ncols)
    assert pivots == sorted(pivots)
    for row, c in zip(red, pivots):
        assert all(isinstance(x, int) for x in row)
        assert gcd(*row) == 1 and row[c] > 0 and not any(row[:c])
        assert all(other[c] == 0 for other in red if other is not row)
    # the same span, given by other generators
    mixed = [combination(rng, rows, ncols) for _ in range(nrows)] + [[3 * x for x in row] for row in rows]
    rng.shuffle(mixed)
    assert linalg.rref(mixed)[0] == red
    assert linalg.same_rowspan(mixed, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_intersection_dimension(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 12)
    a = random_matrix(rng, rng.randint(1, 12), ncols)
    b = random_matrix(rng, rng.randint(1, 12), ncols)
    if rng.random() < 0.5:
        b += [combination(rng, a, ncols) for _ in range(rng.randint(1, 4))]
    inter = linalg.intersect_rowspans(a, b)
    assert len(inter) == linalg.rank(a) + linalg.rank(b) - linalg.rank(a + b)
    assert linalg.rank(inter) == len(inter)
    for rows in (a, b):
        red, pivots = linalg.rref(rows)
        assert all(linalg.in_rowspan(red, pivots, vec) for vec in inter)


@pytest.mark.parametrize("seed", SEEDS)
def test_in_rowspan(seed):
    rng = random.Random(seed)
    nrows, ncols = shape(rng)
    rows = random_matrix(rng, nrows, ncols)
    red, pivots = linalg.rref(rows)
    for _ in range(5):
        assert linalg.in_rowspan(red, pivots, combination(rng, rows, ncols))
        vec = [rng.randint(-50, 50) for _ in range(ncols)]
        expected = sympy_rank(rows + [vec], ncols) == sympy_rank(rows, ncols)
        assert linalg.in_rowspan(red, pivots, vec) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_residues_add_their_rank_to_the_echelon_rows(seed):
    rng = random.Random(seed)
    nrows, ncols = shape(rng)
    rows = random_matrix(rng, nrows, ncols)
    red, pivots = linalg.rref(rows)
    more = random_matrix(rng, rng.randint(0, 6), ncols)
    more += [combination(rng, rows, ncols) for _ in range(rng.randint(0, 2))]
    residues = [linalg.residue(red, pivots, vec) for vec in more]
    for vec, res in zip(more, residues):
        assert all(res[c] == 0 for c in pivots)
        assert sympy_rank(rows + [vec], ncols) == sympy_rank(rows + [res], ncols)
    assert len(red) + linalg.rank(residues) == sympy_rank(rows + more, ncols)


def test_no_rows():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.in_rowspan([], [], [0, 0, 0])
    assert not linalg.in_rowspan([], [], [0, 1, 0])
    assert linalg.same_rowspan([], [[0, 0]])
    assert linalg.intersect_rowspans([], [[1, 0]]) == []
    assert linalg.intersect_rowspans([[1, 0]], []) == []


def test_kernel_of_empty_matrix_is_everything():
    assert linalg.kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert linalg.kernel_basis([], 0) == []


def test_all_zero_rows():
    zero = [[0, 0, 0], [0, 0, 0]]
    assert linalg.rref(zero) == ([], [])
    assert linalg.rank(zero) == 0
    assert linalg.kernel_basis(zero, 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert linalg.intersect_rowspans(zero, [[1, 2, 3]]) == []
    assert linalg.same_rowspan(zero, [])


def test_single_column():
    assert linalg.rref([[0], [-6], [4]]) == ([[1]], [0])
    assert linalg.kernel_basis([[0], [-6]], 1) == []
    assert linalg.kernel_basis([[0]], 1) == [(1,)]
    assert linalg.intersect_rowspans([[-2]], [[5]]) == [(1,)]


def test_integer_clear():
    assert linalg.integer_clear([0, -4, 6, 0]) == (0, 2, -3, 0)
    assert linalg.integer_clear([0, 0]) == (0, 0)
    assert linalg.integer_clear([]) == ()

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
For the oracle it keeps the ideal slice of one multidegree, over that
multidegree's own standard monomials (`free_standard_monomials`),
where the oracle now keeps one slice per support, over the first head
letters alone, and the first independence check of a basis claim:
one elimination of that slice's rows stacked with the candidates'
expansions, where the oracle now reduces the candidates modulo the
cached slice.  For the literal basis check it keeps the body that
built the tuple of all the letters, their min, their max and their
support mask before its checks, where `is_basis_monomial` now checks
the tail's range and rank order and builds the mask in one pass.  For
merge witnesses it keeps the scale and the kill
check computed one closure element at a time, where the witness now
solves each distinct scale polynomial once and substitutes each
distinct monomial once, and the grouping of an element's derived terms
by glued multidegree and first letter, read off `mdeg`, that the
merge's scaling components now label by `equivalence._glued_key`.
It keeps the closure that built an element for every candidate by
`LieElement.__sub__` and bracketed every ordered pair, where
`equivalence.gamma_closure` now sums each candidate's term dicts and
brackets each unordered pair once, and the images of every closure
element summed from the once-substituted keys, where the kill check
now stops at the first nonzero part of each image.
For the witness search it keeps the full transfer-matrix table of
completion counts, one entry per (steps left, previous image, start),
where the search now keeps one circulant row per number of steps, and
the prefix-pruned walk over the constrained sequences, which evaluated
each atom of the sentence as soon as its variables were assigned, where
the search now reads its report off the closed-walk lemma, with the
bracket table that walk shares across sequences, a memo of every pair
and triple bracket read through an index list, where `eval_theta` now
keeps one dict of pair brackets per call, and the evaluation of every
atom of Theta(m) under z_k = x_k, where `_theta_identity` now
decides one atom per rotation orbit, in the engine and, certified, in
the oracle.
For `pcml.textio` it keeps
the per-character scanner and the five readers built on it, where
whitespace was skipped again on every look at the next character and
an error's offset was wherever that last look had left the scanner:
the readers now go through a cursor that rests on the next token."""

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from pcml import linalg
from pcml.centralizer import _kernel_rows
from pcml.core import Algebra, AssocPoly, BasisMonomial, GeneratorOrder, LieElement, _accumulate, _add_nf, _basis, _bump, _check_fits, _substituted, _support_mask, bracket, cycle_generators, is_basis_monomial, mdeg, substitute
from pcml.equivalence import (
    Atom,
    PhiHom,
    ThetaInstance,
    WitnessSearchReport,
    _completion_counts,
    _steps,
    build_phi_hom,
    eval_theta,
    lambda_zero,
    merge_relabeling,
    phi_lambda,
    theta_atoms,
)
from pcml.errors import ParseError
from pcml.graphs import Graph, circ_dist, perp_classes
from pcml.oracle import CertifyReport, FreeMonomial, _free_expand, _without
from pcml.textio import _DIGITS, MAX_TERM_DEGREE


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


def free_standard_monomials(letters: Sequence[int]) -> Tuple[FreeMonomial, ...]:
    """Standard monomials of the multidegree whose letters, ascending,
    are given; sorted, since the first head letter ascends."""
    supp = sorted(set(letters))
    return tuple(((first, supp[0]), _without(letters, first, supp[0])) for first in supp[1:])


@lru_cache(maxsize=None)
def ideal_slice_by_multidegree(graph: Graph, delta: Tuple[int, ...]) -> Tuple[Tuple[FreeMonomial, ...], Dict[FreeMonomial, int], List[Tuple[int, ...]], List[int]]:
    """(basis, index, echelon rows, pivots) of the relation ideal at one
    multidegree, over its own standard monomials: the expansions of
    [x_i,x_j].w for every edge {i,j} in supp delta and the associative
    monomial w completing delta."""
    letters = [v for v, d in enumerate(delta) for _ in range(d)]
    basis = free_standard_monomials(letters)
    index = {m: k for k, m in enumerate(basis)}
    rows = []
    for i, j in graph.edges:
        if delta[i] < 1 or delta[j] < 1:
            continue
        row = [0] * len(basis)
        for m, c in _free_expand(j, i, _without(letters, i, j)).items():
            row[index[m]] = c
        rows.append(row)
    red, pivots = linalg.rref(rows)
    return basis, index, [tuple(row) for row in red], pivots


def certify_basis_by_stacked_rank(graph: Graph, delta: Tuple[int, ...], order: GeneratorOrder) -> CertifyReport:
    """`oracle.certify_basis` from the slice of delta itself, with
    independence read off the rank of the slice's echelon rows stacked
    with the candidates' expansions."""
    total = sum(delta)
    if total < 2:
        count = dim = total
        return CertifyReport(count == dim, delta, count, dim, None)
    basis, index, red, _ = ideal_slice_by_multidegree(graph, tuple(delta))
    dim = len(basis) - len(red)
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
    stacked = [list(row) for row in red]
    for head, tail in candidates:
        row = [0] * len(basis)
        for m, c in _free_expand(head[0], head[1], tuple(sorted(tail))).items():
            row[index[m]] = c
        stacked.append(row)
    independent = linalg.rank(stacked) == len(red) + count
    witness = None if independent else "dependent modulo the relation ideal"
    return CertifyReport(independent, delta, count, dim, witness)


def is_basis_monomial_by_letters(head: Tuple[int, int], tail: Tuple[int, ...], graph: Graph, order: GeneratorOrder) -> bool:
    """`core.is_basis_monomial` from the tuple of all its letters: range
    first, then head and tail rank order, then the search from a."""
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


def gamma_closure(gamma: Sequence[LieElement]) -> List[LieElement]:
    """Close a finite set under g_i - g_j, g_i + g_j - g_k, and
    [g_i, g_j] - g_k, deduplicating structurally by the sets of terms."""
    out: List[LieElement] = []
    seen = set()

    def push(e: LieElement) -> None:
        key = (frozenset(e.linear.items()), frozenset(e.derived.items()))
        if key not in seen:
            seen.add(key)
            out.append(e)

    for g in gamma:
        push(g)
    k = len(gamma)
    for i in range(k):
        for j in range(k):
            push(gamma[i] - gamma[j])
    for i in range(k):
        for j in range(k):
            total = gamma[i] + gamma[j]
            product = bracket(gamma[i], gamma[j])
            for l in range(k):
                push(total - gamma[l])
                push(product - gamma[l])
    return out


def images_by_key(hom: PhiHom, elements: Sequence[LieElement]) -> Iterator[LieElement]:
    """phi_lambda(hom, g) for each g of elements, in order, substituting
    each distinct generator and monomial of the elements once.

    `_substituted` maps an element term by term, so the image of g is
    the sum of c * phi_lambda(key) over the terms c * key of g, where a
    key is a generator or a basis monomial; the per-key images are kept
    only for the call.
    """
    table: Dict[object, Tuple] = {}  # key -> terms of its image
    for g in elements:
        linear: Dict[int, int] = {}
        derived: Dict[BasisMonomial, int] = {}
        for part, (terms, acc) in enumerate(((g.linear, linear), (g.derived, derived))):
            for key, c in terms.items():
                image = table.get(key)
                if image is None:
                    unit = ({}, {})
                    unit[part][key] = 1
                    found = _substituted(LieElement._trusted(hom.source, *unit), hom.images, hom.target)
                    image = table[key] = tuple((found.linear, found.derived)[part].items())
                _accumulate(acc, image, c)
        yield LieElement._trusted(hom.target, linear, derived)


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


def completion_counts_table(n: int, m: int) -> List[List[List[int]]]:
    """``counts[r][v][s]``: the number of ways to fill the last r
    positions of a constrained sequence that starts at s and has v just
    before them, one entry per (r, v, s): counts[r] = A^(r+1) for the
    circulant A with ones on and next to the diagonal."""
    counts = [[[int(circ_dist(n, v, s) <= 1) for s in range(n)] for v in range(n)]]
    for _ in range(1, m):
        prev = counts[-1]
        counts.append([
            [sum(prev[w][s] for w in _steps(n, v)) for s in range(n)]
            for v in range(n)
        ])
    return counts


class _BracketTable:
    """Brackets [e_a, e_b] and zero tests of [[e_a, e_c], e_b] over a
    fixed list of elements, each computed by the engine on first use."""

    def __init__(self, elements: Sequence[LieElement]):
        self.elements = elements
        self.pairs: Dict[Tuple[int, int], LieElement] = {}
        self.triples: Dict[Tuple[int, int, int], bool] = {}

    def pair(self, a: int, b: int) -> LieElement:
        out = self.pairs.get((a, b))
        if out is None:
            out = self.pairs[a, b] = bracket(self.elements[a], self.elements[b])
        return out

    def triple_is_zero(self, a: int, c: int, b: int) -> bool:
        out = self.triples.get((a, c, b))
        if out is None:
            out = self.triples[a, c, b] = bracket(self.pair(a, c), self.elements[b]).is_zero()
        return out


def _atom_holds(atom: Atom, m: int, table: _BracketTable, index: Sequence[int]) -> bool:
    """Evaluate one atom under z_k = table.elements[index[k]]."""
    if atom.family == "triple-nonzero":
        return not table.triple_is_zero(index[atom.i], index[(atom.i + 2) % m], index[atom.j])
    vanishes = table.pair(index[atom.i], index[atom.j]).is_zero()
    return vanishes == (atom.family == "adjacent-zero")


def _atom_positions(atom: Atom, m: int) -> Tuple[int, ...]:
    """The variables an atom reads."""
    if atom.family == "triple-nonzero":
        return (atom.i, (atom.i + 2) % m, atom.j)
    return (atom.i, atom.j)


def _walk(n: int, m: int, fails: Callable[[List[int], int], bool], first_only: bool) -> Tuple[List[Tuple[int, ...]], int]:
    """Depth-first walk, in lexicographic order, over the constrained
    sequences: the maps Z_m -> Z_n whose consecutive images (cyclically)
    are at cyclic distance <= 1.  A prefix for which ``fails(seq, pos)``
    holds (asked once seq[pos] is set, pos >= 1) is skipped whole, and
    its constrained completions are counted from the transfer-matrix
    table.  Returns the full sequences no prefix of which fails and the
    number of constrained sequences accounted for: all of them, or with
    ``first_only`` those up to the first sequence found, where the walk
    stops."""
    completions = _completion_counts(n, m)
    seq = [0] * m
    found: List[Tuple[int, ...]] = []
    checked = 0

    def extend(pos: int) -> bool:
        nonlocal checked
        for step in _steps(n, seq[pos - 1]):
            count = completions[m - 1 - pos][(seq[0] - step) % n]
            if not count:
                continue
            seq[pos] = step
            if fails(seq, pos):
                checked += count
            elif pos == m - 1:
                checked += 1
                found.append(tuple(seq))
                if first_only:
                    return True
            elif extend(pos + 1):
                return True
        return False

    for start in range(n):
        seq[0] = start
        if extend(1):
            break
    return found, checked


def theta_identity_by_evaluation(m: int) -> bool:
    """`equivalence.theta_identity_holds` by evaluating every atom of
    Theta(m) on the cycle of length m under z_k = x_k."""
    x = cycle_generators(m)
    return eval_theta(ThetaInstance(m, x[0].graph, x[0].order), x).holds


def theta_witness_walk(n: int, m: int, mode: str) -> WitnessSearchReport:
    """`equivalence.search_theta_witness` by the prefix-pruned walk:
    in generator-assignments mode each atom of Theta(m) is checked,
    with generator brackets from one lazily filled table, as soon as
    its variables are assigned, and a failing prefix skips its subtree;
    in j-sequences mode a prefix that repeats an index is skipped.
    ``checked`` counts every constrained sequence up to the first
    witness, or all of them, pruned ones by their completions."""
    space = n ** m
    if mode == "generator-assignments":
        table = _BracketTable(cycle_generators(n))
        checks: List[List[Atom]] = [[] for _ in range(m)]
        for atom in theta_atoms(m):
            checks[max(_atom_positions(atom, m))].append(atom)
        # every atom reads two distinct positions, so none is grouped at position 0
        found, checked = _walk(
            n, m,
            lambda seq, pos: not all(_atom_holds(atom, m, table, seq) for atom in checks[pos]),
            first_only=True,
        )
        witness = found[0] if found else None
        return WitnessSearchReport(mode, n, m, witness, checked, space, witness is None)
    no_repeat, checked = _walk(n, m, lambda seq, pos: seq[pos] in seq[:pos], first_only=False)
    return WitnessSearchReport(
        mode, n, m, None, checked, space,
        exhausted=not no_repeat, no_repeat_sequences=tuple(no_repeat),
    )


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def try_take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than int()'s digit limit
            raise ParseError(f"integer of {self.pos - start} digits is too long", start) from None

    def generator(self) -> int:
        if self.peek() != "x":
            raise ParseError("expected a generator like x0", self.pos)
        self.pos += 1
        return self.integer()

    def done(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)


def _parse_monomial(sc: _Scanner) -> Tuple[Tuple[int, int], Tuple[int, ...]]:
    sc.take("[")
    a = sc.generator()
    sc.take(",")
    b = sc.generator()
    tail: List[int] = []
    if sc.try_take(";"):
        tail.append(sc.generator())
        while sc.try_take(","):
            tail.append(sc.generator())
    sc.take("]")
    return (a, b), tuple(tail)


def _read_element(sc: _Scanner, algebra: Algebra, ends: Tuple[str, ...]) -> LieElement:
    """Read one element's terms up to a character in ``ends``, where ""
    stands for the end of the text."""
    n = algebra.graph.n
    start = sc.pos
    if sc.peek() in ends:
        raise ParseError("empty element", start)
    linear = {}
    derived = {}
    first = True
    while sc.peek() not in ends:
        sign = -1 if sc.try_take("-") else 1
        if sign == 1 and not sc.try_take("+") and not first:
            raise ParseError("expected + or - between terms", sc.pos)
        first = False
        ch = sc.peek()
        coeff = 1
        if ch in _DIGITS:
            coeff = sc.integer()
            if sc.try_take("*"):
                ch = sc.peek()
            else:
                # bare integer: only "0" stands for the zero element
                if coeff == 0:
                    continue
                raise ParseError("a constant term needs a generator or monomial", sc.pos)
        if ch == "x":
            i = sc.generator()
            if not 0 <= i < n:
                raise ParseError(f"unknown generator x{i}", sc.pos)
            _bump(linear, i, sign * coeff)
        elif ch == "[":
            head, tail = _parse_monomial(sc)
            for v in head + tail:
                if not 0 <= v < n:
                    raise ParseError(f"unknown generator x{v}", sc.pos)
            _add_nf(derived, algebra, *head, tail, sign * coeff)
        else:
            raise ParseError("expected a generator or a bracket monomial", sc.pos)
    return LieElement._trusted(algebra, linear, derived)


def parse_element(text: str, graph: Graph, order: GeneratorOrder) -> LieElement:
    """Parse element text and return its normal form."""
    return _read_element(_Scanner(text), Algebra.of(graph, order), ("",))


def parse_elements(text: str, graph: Graph, order: GeneratorOrder) -> List[LieElement]:
    """Parse comma-separated elements, as in ``x0, [x2,x1;x3], x1``.
    Commas inside brackets belong to the monomial; an empty entry is an
    error, and offsets count from the start of ``text``."""
    algebra = Algebra.of(graph, order)
    sc = _Scanner(text)
    elements = [_read_element(sc, algebra, ("", ","))]
    while sc.try_take(","):
        elements.append(_read_element(sc, algebra, ("", ",")))
    return elements


def parse_assoc_poly(text: str, n: int) -> AssocPoly:
    """Parse ``3*x0^2*x1 - x2 + 4`` style polynomial text; a term of total
    degree over `MAX_TERM_DEGREE` raises where its last exponent begins."""
    sc = _Scanner(text)
    if sc.done():
        raise ParseError("empty polynomial", 0)
    terms = {}
    first = True
    while not sc.done():
        sign = -1 if sc.try_take("-") else 1
        if sign == 1 and not sc.try_take("+") and not first:
            raise ParseError("expected + or - between terms", sc.pos)
        first = False
        have_coeff = sc.peek() in _DIGITS
        coeff = sc.integer() if have_coeff else 1
        exps = [0] * n
        degree = 0
        have_var = False
        while True:
            if (have_coeff or have_var) and not sc.try_take("*"):
                break
            if sc.peek() != "x":
                if have_var or have_coeff:
                    raise ParseError("expected a variable after *", sc.pos)
                break
            i = sc.generator()
            if not 0 <= i < n:
                raise ParseError(f"unknown variable x{i}", sc.pos)
            at = sc.pos
            power = sc.integer() if sc.try_take("^") else 1
            if (degree := degree + power) > MAX_TERM_DEGREE:
                raise ParseError(f"a term of degree {degree} is over the limit of {MAX_TERM_DEGREE}", at)
            exps[i] += power
            have_var = True
        if not have_var and not have_coeff:
            raise ParseError("expected a term", sc.pos)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return AssocPoly(n, terms)


def parse_integers(text: str) -> List[int]:
    """Parse comma-separated nonnegative integers, as in ``--order 2,0,1``."""
    sc = _Scanner(text)
    values = [sc.integer()]
    while sc.try_take(","):
        values.append(sc.integer())
    if not sc.done():
        raise ParseError("expected a comma", sc.pos)
    return values


def parse_integer(text: str) -> int:
    """Parse one integer with an optional minus sign: the type of every
    integer option on the command line."""
    sc = _Scanner(text)
    value = -sc.integer() if sc.try_take("-") else sc.integer()
    if not sc.done():
        raise ParseError("expected the end of the integer", sc.pos)
    return value

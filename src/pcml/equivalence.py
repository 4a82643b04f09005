"""Universal-equivalence toolkit: the cycle sentence, witness search,
the vertex-merge homomorphism, and the finite-set witness construction.

The existential sentence Theta(z_0..z_{m-1}) (m >= 4) asserts, over the
cyclic index set Z_m: consecutive brackets vanish, distant pairs have
nonvanishing brackets, and triple brackets [[z_i,z_{i+2}],z_j] do not
vanish unless j sits directly between i and i+2.  On a cycle of the
same length the generators witness it; on a shorter cycle the search
over generator assignments exhausts without a witness, which is the
computational half of the cycle separation theorem.  The search is
prefix-pruned: it reads generator brackets from a table the engine
fills once, checks each atom as soon as its variables are assigned and
skips the subtree of a failing prefix, while its ``checked`` count
still includes every pruned sequence exactly.  The j-sequences mode
walks the same sequences and skips every prefix that repeats an index.

The merge homomorphism phi_lambda sends x_{n-1} to lambda*x_{n-2} when
those two vertices have equal closed neighborhoods, fixing all other
generators; it and the relabeling that puts a mergeable pair last are
both `pcml.core.substitute`.  For any nonzero element there is a
threshold lambda_0 beyond which the image stays nonzero: each piece of
the element maps to a multiple of one target monomial, with a
polynomial in lambda as the multiple, and lambda_0 is one past the
largest positive integer root of these polynomials, found by exact
isolation.  Taking the maximum over a closed finite set Gamma-bar gives
an embedding-style witness that merging a neighborhood-equivalent vertex
preserves the universal theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Algebra,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    _accumulate,
    _substituted,
    basis_monomial_with_start,
    bracket,
    cycle_generators,
    substitute,
)
from .errors import AlgebraError, CertificationError, GraphError
from .graphs import Graph, circ_dist, closed_neighborhood, perp_classes


# ---------------------------------------------------------------------------
# the sentence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaInstance:
    """The quantifier-free core of the cycle sentence with m variables."""

    m: int
    graph: Graph
    order: GeneratorOrder
    algebra: Algebra = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 4:
            raise AlgebraError("the sentence needs at least 4 variables")
        object.__setattr__(self, "algebra", Algebra.of(self.graph, self.order))


class Atom(NamedTuple):
    family: str  # "adjacent-zero", "distant-nonzero", "triple-nonzero"
    i: int
    j: int


class ThetaResult(NamedTuple):
    holds: bool
    failing_atom: Optional[Atom]


@lru_cache(maxsize=None)
def theta_atoms(m: int) -> Tuple[Atom, ...]:
    """The atoms of Theta(m) in evaluation order, built once per m."""
    adjacent = [Atom("adjacent-zero", i, (i + 1) % m) for i in range(m)]
    distant = [
        Atom("distant-nonzero", i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if circ_dist(m, i, j) > 1
    ]
    triple = [
        Atom("triple-nonzero", i, j)
        for i in range(m)
        for j in range(m)
        if circ_dist(m, i, j) * circ_dist(m, (i + 2) % m, j) != 1
    ]
    return tuple(adjacent + distant + triple)


def _atom_positions(atom: Atom, m: int) -> Tuple[int, ...]:
    """The variables an atom reads."""
    if atom.family == "triple-nonzero":
        return (atom.i, (atom.i + 2) % m, atom.j)
    return (atom.i, atom.j)


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


def eval_theta(inst: ThetaInstance, assignment: Sequence[LieElement]) -> ThetaResult:
    """Evaluate all atoms; report the first violated one, if any."""
    if len(assignment) != inst.m:
        raise AlgebraError(f"assignment length {len(assignment)} != m = {inst.m}")
    if any(z.algebra is not inst.algebra for z in assignment):
        raise AlgebraError("assignment element over the wrong algebra")
    m = inst.m
    table = _BracketTable(list(assignment))
    positions = range(m)
    for atom in theta_atoms(m):
        if not _atom_holds(atom, m, table, positions):
            return ThetaResult(False, atom)
    return ThetaResult(True, None)


def theta_identity_holds(m: int) -> bool:
    """Theta on the cycle of length m under z_i = x_i."""
    assignment = cycle_generators(m)
    return eval_theta(ThetaInstance(m, assignment[0].graph, assignment[0].order), assignment).holds


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

class WitnessSearchReport(NamedTuple):
    mode: str
    n: int
    m: int
    witness: Optional[Tuple[int, ...]]
    checked: int
    space: int
    exhausted: bool
    no_repeat_sequences: Tuple[Tuple[int, ...], ...] = ()


def _steps(n: int, v: int) -> List[int]:
    """The images allowed next to v: cyclic distance <= 1, ascending."""
    return sorted({(v - 1) % n, v, (v + 1) % n})


def _completion_counts(n: int, m: int) -> List[List[List[int]]]:
    """``counts[r][v][s]``: the number of ways to fill the last r
    positions of a constrained sequence that starts at s and has v just
    before them (a transfer-matrix count: counts[r] = A^(r+1) for the
    circulant A with ones on and next to the diagonal)."""
    counts = [[[int(circ_dist(n, v, s) <= 1) for s in range(n)] for v in range(n)]]
    for _ in range(1, m):
        prev = counts[-1]
        counts.append([
            [sum(prev[w][s] for w in _steps(n, v)) for s in range(n)]
            for v in range(n)
        ])
    return counts


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
            count = completions[m - 1 - pos][step][seq[0]]
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


def search_theta_witness(n: int, m: int, mode: str = "generator-assignments") -> WitnessSearchReport:
    """Search Theta(m) over generator assignments in the cycle algebra
    on n vertices.

    In generator-assignments mode the search is exhaustive over all n^m
    maps (pruned by the sound adjacency constraint) and returns either
    a witness or an exhaustion report.  It is prefix-pruned: brackets of
    generators come from one table filled lazily by the engine, each
    atom is checked as soon as its variables are assigned, and a failing
    prefix skips its subtree.  ``checked`` still counts every
    constrained sequence up to the witness (or all of them), pruned
    ones exactly, by a transfer-matrix count of their completions.  In
    j-sequences mode only the constrained index sequences are examined,
    for a repeated index, the combinatorial core of the refutation: a
    sequence with a repeat cannot witness the sentence.  The same walk
    skips each prefix that repeats an index, counting its completions,
    so ``checked`` is again the number of all constrained sequences.
    """
    if n < 4 or m < 5:
        raise AlgebraError(
            "witness search assumes n >= 4 and m >= 5; shorter cases are "
            "handled by distinguish_cycles directly"
        )
    if mode not in ("generator-assignments", "j-sequences"):
        raise AlgebraError(f"unknown search mode {mode!r}")
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


@dataclass
class DistinguishReport:
    n: int
    m: int
    equivalent: bool
    sentence: str                    # "isomorphic", "Psi", or "Phi(k)"
    separated: bool
    detail: Dict[str, object]


def distinguish_cycles(n: int, m: int) -> DistinguishReport:
    """Decide and certify whether the cycle algebras of lengths n and m
    have the same universal theory at the searched fragment."""
    if n < 3 or m < 3:
        raise GraphError("cycles need at least 3 vertices")
    if n == m:
        return DistinguishReport(n, m, True, "isomorphic", False, {})
    small, large = min(n, m), max(n, m)
    if small == 3:
        abelian = all(bracket(a, b).is_zero() for a, b in combinations(cycle_generators(3), 2))
        x = cycle_generators(large)
        counter = bracket(x[1], x[3])
        detail = {
            "abelian_small": abelian,
            "counterexample": "[x1,x3]",
            "counterexample_nonzero": not counter.is_zero(),
            "counterexample_value": counter,
        }
        separated = abelian and not counter.is_zero()
        return DistinguishReport(n, m, False, "Psi", separated, detail)
    holds_large = theta_identity_holds(large)
    search = search_theta_witness(small, large, mode="generator-assignments")
    detail = {
        "theta_holds_in_large": holds_large,
        "search": search,
    }
    separated = holds_large and search.exhausted
    return DistinguishReport(n, m, False, f"Phi({large})", separated, detail)


# ---------------------------------------------------------------------------
# the merge homomorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiHom:
    """Merge x_{n-1} onto lambda * x_{n-2}.

    Requires the two merged vertices to have equal closed neighborhoods
    in the source graph.  The source order puts x_{n-2} < x_{n-1}
    below everything else; the target order drops x_{n-1}.  ``images``
    sends x_i to (coefficient, target generator).
    """

    source: Algebra
    target: Algebra
    lam: int
    images: Tuple[Tuple[int, int], ...]

    graph = property(attrgetter("source.graph"))
    source_order = property(attrgetter("source.order"))
    target_graph = property(attrgetter("target.graph"))
    target_order = property(attrgetter("target.order"))


def merge_order(n: int) -> GeneratorOrder:
    return GeneratorOrder((n - 2, n - 1) + tuple(range(n - 2)))


# bounded: callers build all the homomorphisms of one graph in a row
@lru_cache(maxsize=64)
def _merge_algebras(graph: Graph) -> Tuple[Algebra, Algebra]:
    """Source and target algebra of the merges of a graph's last two
    vertices, after checking that they are twins."""
    n = graph.n
    if closed_neighborhood(graph, n - 1) != closed_neighborhood(graph, n - 2):
        raise GraphError(
            f"vertices {n - 2} and {n - 1} do not have equal closed neighborhoods"
        )
    target_edges = [(i, j) for (i, j) in graph.edges if i != n - 1 and j != n - 1]
    target_order = GeneratorOrder((n - 2,) + tuple(range(n - 2)))
    return Algebra.of(graph, merge_order(n)), Algebra.of(Graph(n - 1, target_edges), target_order)


def build_phi_hom(graph: Graph, lam: int) -> PhiHom:
    n = graph.n
    if n < 2:
        raise GraphError("merging needs at least two vertices")
    if lam < 1:
        raise AlgebraError(f"the scale must be a positive integer, got {lam}")
    source, target = _merge_algebras(graph)
    return PhiHom(source, target, lam, tuple((1, i) for i in range(n - 1)) + ((lam, n - 2),))


def phi_lambda(hom: PhiHom, g: LieElement) -> LieElement:
    """Image of g under the merge homomorphism, in normal form.

    Unlike `substitute`, this checks no edge: the twin check in
    `build_phi_hom` already implies that every edge goes to a commuting
    pair, since an edge (a, n-1) goes to (a, n-2), an edge or one
    generator twice, and every other edge is kept."""
    if g.algebra is not hom.source:
        raise AlgebraError("element is not over the homomorphism's source algebra")
    return _substituted(g, hom.images, hom.target)


# ---------------------------------------------------------------------------
# vanishing thresholds
# ---------------------------------------------------------------------------

def _horner(coeffs: Sequence[int], t: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _bracket_root(coeffs: Sequence[int], u: int, v: int) -> Tuple[int, ...]:
    """For a polynomial strictly monotone on [u, v]: its root there as
    (r,) if r is an integer, else the integers (t, t + 1) around it, or
    () when it has no root in the open interval (u, v)."""
    su, sv = _sign(_horner(coeffs, u)), _sign(_horner(coeffs, v))
    if su * sv >= 0:
        return ()
    while v - u > 1:
        mid = (u + v) // 2
        s = _sign(_horner(coeffs, mid))
        if not s:
            return (mid,)
        if s == su:
            u = mid
        else:
            v = mid
    return (u, v)


def _cuts(coeffs: Sequence[int], lo: int, hi: int) -> List[int]:
    """Sorted integers from lo to hi (lo <= hi), both included, among
    them every integer root of a nonzero polynomial in that range and
    the two integers on either side of each of its other real roots.

    The cuts of the derivative come first.  Between two of them more
    than 1 apart the derivative has no root, so the polynomial is
    strictly monotone there and integer bisection brackets its one
    root; a root between two cuts 1 apart is bracketed by them.
    """
    if len(coeffs) == 1:
        return [lo, hi]
    inner = _cuts([k * c for k, c in enumerate(coeffs)][1:], lo, hi)
    out = set(inner)
    for u, v in zip(inner, inner[1:]):
        if v - u > 1:
            out.update(_bracket_root(coeffs, u, v))
    return sorted(out)


def positive_integer_roots(coeffs: Sequence[int]) -> List[int]:
    """Positive integer roots of sum_j coeffs[j] * t^j, ascending.

    Exact, in time polynomial in the bit length of the coefficients:
    after dividing out the power of t, every positive integer root
    divides the trailing coefficient and is at most Cauchy's bound
    1 + max|c_j| / |c_top|.  A linear polynomial is solved by one
    division; otherwise `_cuts` isolates the real roots to integer
    precision through the sequence of derivatives, with integer
    bisection on the intervals where each is monotone.  This needs
    neither a squarefree part nor Descartes' rule of signs (the
    isolation of Collins & Akritas 1976): a repeated root is a root of
    the derivative and is found there.
    """
    first = next((k for k, c in enumerate(coeffs) if c), None)
    if first is None:
        return []
    poly = list(coeffs[first:])
    while not poly[-1]:
        poly.pop()
    if len(poly) == 1:
        return []
    if len(poly) == 2:
        root, rest = divmod(-poly[0], poly[1])
        return [root] if root > 0 and not rest else []
    hi = min(abs(poly[0]), 1 + max(abs(c) for c in poly[:-1]) // abs(poly[-1]))
    return [t for t in _cuts(poly, 1, hi) if not _horner(poly, t)]


class ScalingComponent(NamedTuple):
    """One scaling component of an element with its scale polynomial
    coefficients.

    ``coeffs[j]`` multiplies lambda^j; for glued components j counts
    the occurrences of x_{n-1}, for the linear pair it is the
    coefficient of x_{n-1} itself.  A glued component also carries the
    target basis monomial its part maps onto (``base``) and the part:
    the element's terms under its glued label, an element of the
    source algebra.  Both are None for linear components.
    """

    label: Tuple
    coeffs: Tuple[int, ...]
    base: Optional[BasisMonomial]
    part: Optional[LieElement]


def _glued_key(m: BasisMonomial, n: int) -> Tuple[Tuple, int]:
    """The glued label of a monomial over n vertices, ("glued", its
    multidegree with the last two coordinates summed, its first
    letter), with its number of x_{n-1}."""
    last, kept = n - 1, n - 2
    glued = [0] * (n - 1)
    power = 0
    for v in m.letters():
        if v == last:
            power += 1
            glued[kept] += 1
        else:
            glued[v] += 1
    return ("glued", tuple(glued), m.head[0]), power


def _scale_polynomials(elements: Sequence[LieElement], hom: PhiHom) -> Tuple[Dict[BasisMonomial, Tuple[Tuple, int]], List[List[Tuple[Tuple, Tuple[int, ...]]]]]:
    """The glued label and power of each distinct monomial of the
    elements, from one `_glued_key` call each, and for each element the
    (label, coeffs) of every scaling component, in the order of
    `merge_scaling_components`.

    A derived term is keyed by its glued label; within one label the
    number of x_{n-1} fixes the multidegree and so the term, and is its
    power of lambda.
    """
    n = hom.graph.n
    last, kept = n - 1, n - 2
    glued: Dict[BasisMonomial, Tuple[Tuple, int]] = {}
    out: List[List[Tuple[Tuple, Tuple[int, ...]]]] = []
    for g in elements:
        if g.algebra is not hom.source:
            raise AlgebraError("element is not over the homomorphism's source algebra")
        comps = [(("linear", i), (g.linear[i],)) for i in sorted(g.linear) if i != kept and i != last]
        pair = (g.linear.get(kept, 0), g.linear.get(last, 0))
        if pair != (0, 0):
            comps.append((("linear-pair",), pair))
        polys: Dict[Tuple, List[int]] = {}
        for m, c in g.derived.items():
            if m not in glued:
                glued[m] = _glued_key(m, n)
            label, power = glued[m]
            coeffs = polys.get(label)
            if coeffs is None:
                coeffs = polys[label] = [0] * (label[1][kept] + 1)
            coeffs[power] = c
        comps.extend((label, tuple(coeffs)) for label, coeffs in sorted(polys.items()))
        out.append(comps)
    return glued, out


def merge_scaling_components(g: LieElement, hom: PhiHom) -> List[ScalingComponent]:
    """Scale polynomials governing when phi_lambda kills each piece of g,
    each glued one with its part of g and the basis monomial that part
    maps onto."""
    glued, (comps,) = _scale_polynomials([g], hom)
    parts: Dict[Tuple, Dict[BasisMonomial, int]] = {}
    for m, c in g.derived.items():
        parts.setdefault(glued[m][0], {})[m] = c
    out: List[ScalingComponent] = []
    for label, coeffs in comps:
        base = part = None
        if label[0] == "glued":
            base = basis_monomial_with_start(label[1], label[2], hom.target_graph, hom.target_order)
            part = LieElement._trusted(hom.source, {}, parts[label])
        out.append(ScalingComponent(label, coeffs, base, part))
    return out


def lambda_zero(g: LieElement, hom: PhiHom) -> int:
    """One past the largest positive integer root of any scale polynomial
    of g (1 when there is none): from this scale on no scaling component
    of g vanishes, so phi_lambda(g) != 0.  It need not be the least such
    scale, as phi_lambda(g) != 0 already when one component survives."""
    if g.is_zero():
        raise AlgebraError("the zero element has no nonvanishing threshold")
    _, (comps,) = _scale_polynomials([g], hom)
    return _threshold(coeffs for _, coeffs in comps)


def _threshold(polys: Iterable[Sequence[int]]) -> int:
    """One past the largest positive integer root of the polynomials,
    1 when none has one."""
    return 1 + max((r for coeffs in polys for r in positive_integer_roots(coeffs)), default=0)


# ---------------------------------------------------------------------------
# finite-set witnesses
# ---------------------------------------------------------------------------

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


def merge_relabeling(graph: Graph, keep: int, remove: int) -> Tuple[Dict[int, int], Graph]:
    """Permutation placing keep at n-2 and remove at n-1, other
    vertices packed in ascending original order."""
    n = graph.n
    others = [v for v in range(n) if v not in (keep, remove)]
    perm = {v: k for k, v in enumerate(others)}
    perm[keep] = n - 2
    perm[remove] = n - 1
    new_graph = Graph(n, [(perm[i], perm[j]) for (i, j) in graph.edges])
    return perm, new_graph


@dataclass
class CompactionWitnessReport:
    """A verified merge witness.  ``ok`` is always True: a witness that
    fails verification raises `CertificationError` instead."""

    lam: int
    gamma_size: int
    closure_size: int
    nonzero_in_closure: int
    removed_vertex: int
    kept_vertex: int
    ok: bool = True


def _images(hom: PhiHom, elements: Sequence[LieElement]) -> Iterator[LieElement]:
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


def compaction_witness(graph: Graph, gamma: Sequence[LieElement], order: GeneratorOrder = None) -> CompactionWitnessReport:
    """Produce and verify a scale for which the merge homomorphism is
    injective on the closure of a finite set.

    The merged pair is chosen deterministically: in the neighborhood
    class with the smallest minimum that has at least two vertices, the
    two largest vertices are merged (largest removed).  Elements of
    gamma must lie over ``graph`` but may be given over any order on it;
    they are relabeled and reordered internally.  ``order`` is not read
    and stays only because callers pass it positionally.

    The scale is one past the largest positive integer root over the
    set of scale polynomials of the nonzero closure elements, each
    distinct polynomial solved once; it is the largest `lambda_zero` of
    those elements.  Three checks then run, each raising
    `CertificationError` when it fails:

    - kill: phi_lambda sends no nonzero closure element to 0.  The
      images come from `_images`, which substitutes each distinct
      generator and monomial of the closure once and sums c * image
      over each element's terms; the substitution is linear term by
      term, so each sum is phi_lambda of its element;
    - distinct: distinct elements of gamma have distinct images;
    - faithful: phi_lambda([a, b]) = [phi_lambda(a), phi_lambda(b)] for
      all a, b in gamma.
    """
    if any(g.graph.n != graph.n or g.algebra is not Algebra.of(graph, g.order) for g in gamma):
        raise AlgebraError("an element of gamma is not over the witness graph")
    block = next((b for b in perp_classes(graph) if len(b) >= 2), None)
    if block is None:
        raise GraphError("no neighborhood class with two or more vertices")
    remove = max(block)
    keep = max(block - {remove})
    perm, new_graph = merge_relabeling(graph, keep, remove)
    hom1 = build_phi_hom(new_graph, 1)
    images = [(1, perm[v]) for v in range(graph.n)]
    moved = [substitute(g, images, new_graph, hom1.source_order) for g in gamma]
    closure = gamma_closure(moved)
    nonzero = [g for g in closure if not g.is_zero()]
    _, comps = _scale_polynomials(nonzero, hom1)
    lam = _threshold({coeffs for per in comps for _, coeffs in per})
    hom = build_phi_hom(new_graph, lam)
    if any(image.is_zero() for image in _images(hom, nonzero)):
        raise CertificationError(f"phi with scale {lam} kills a nonzero closure element")
    pairs = list(zip(moved, [phi_lambda(hom, g) for g in moved]))
    distinct = all(a == b or pa != pb for (a, pa), (b, pb) in combinations(pairs, 2))
    faithful = all(phi_lambda(hom, bracket(a, b)) == bracket(pa, pb) for a, pa in pairs for b, pb in pairs)
    if not (distinct and faithful):
        raise CertificationError("merge witness verification failed")
    return CompactionWitnessReport(lam, len(gamma), len(closure), len(nonzero), remove, keep)

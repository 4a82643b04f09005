"""Universal-equivalence toolkit: the cycle sentence, witness search,
the vertex-merge homomorphism, and the finite-set witness construction.

The existential sentence Theta(z_0..z_{m-1}) (m >= 4) asserts, over the
cyclic index set Z_m: consecutive brackets vanish, distant pairs have
nonvanishing brackets, and triple brackets [[z_i,z_{i+2}],z_j] do not
vanish unless j sits directly between i and i+2.  On a cycle of the
same length the generators witness it; on a shorter cycle the search
over generator assignments exhausts without a witness, which is the
computational half of the cycle separation theorem.  Over generator
assignments that half is a lemma, with no search.  On a cycle of n >= 4
vertices [x_a, x_b] = 0 exactly when circ_dist(a, b) <= 1, so under
z_k = x_sigma(k) the adjacent-zero atoms make sigma a closed walk with
steps in {-1, 0, +1}.  A repeat sigma(k) = sigma(l) with
circ_dist(k, l) > 1 fails the distant atom (k, l); a repeat
sigma(k) = sigma(k+1) fails the distant atom (k-1, k+1), as
[z_{k-1}, z_{k+1}] = [z_{k-1}, z_k] = 0.  So a witness is injective
with steps +-1, hence monotone (a step back revisits), and closes only
when n divides m <= n: only when m = n, and then only the 2n rotations
and reflections of (0, 1, ..., n-1) are candidates.  The search reports
its counts from the closed walks of length m on the cycle with loops.

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

from functools import lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Algebra,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    _accumulate,
    _add_nf,
    _substituted,
    basis_monomial_with_start,
    bracket,
    cycle_generators,
    substitute,
    word_element,
)
from .errors import AlgebraError, CertificationError, GraphError
from .graphs import Graph, circ_dist, closed_neighborhood, cycle_graph, perp_classes
from .oracle import ideal_member


# ---------------------------------------------------------------------------
# the sentence
# ---------------------------------------------------------------------------

class ThetaInstance:
    """The quantifier-free core of the cycle sentence with m variables,
    immutable by convention.  Equality, hash and repr read (m, graph,
    order); ``algebra`` is derived from the last two."""

    __slots__ = ("m", "graph", "order", "algebra")

    def __init__(self, m: int, graph: Graph, order: GeneratorOrder):
        if m < 4:
            raise AlgebraError("the sentence needs at least 4 variables")
        self.m, self.graph, self.order = m, graph, order
        self.algebra = Algebra.of(graph, order)

    def _key(self) -> Tuple[int, Graph, GeneratorOrder]:
        return self.m, self.graph, self.order

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ThetaInstance(m={self.m!r}, graph={self.graph!r}, order={self.order!r})"


class Atom(NamedTuple):
    family: str  # "adjacent-zero", "distant-nonzero", "triple-nonzero"
    i: int
    j: int


class ThetaResult(NamedTuple):
    holds: bool
    failing_atom: Optional[Atom]


def _atoms(m: int, firsts: Sequence[int]) -> Tuple[Atom, ...]:
    """The atoms of Theta(m) with i in ``firsts``, in evaluation order."""
    return tuple(
        [Atom("adjacent-zero", i, (i + 1) % m) for i in firsts]
        + [Atom("distant-nonzero", i, j) for i in firsts for j in range(i + 1, m) if circ_dist(m, i, j) > 1]
        + [Atom("triple-nonzero", i, j) for i in firsts for j in range(m)
           if circ_dist(m, i, j) * circ_dist(m, (i + 2) % m, j) != 1]
    )


@lru_cache(maxsize=None)
def theta_atoms(m: int) -> Tuple[Atom, ...]:
    """The atoms of Theta(m) in evaluation order, built once per m."""
    return _atoms(m, range(m))


def eval_theta(inst: ThetaInstance, assignment: Sequence[LieElement]) -> ThetaResult:
    """Evaluate the atoms in order; report the first violated one, if any
    (`_first_failing`, in the engine alone)."""
    m = inst.m
    if len(assignment) != m:
        raise AlgebraError(f"assignment length {len(assignment)} != m = {m}")
    algebra = inst.algebra
    if any(z.algebra is not algebra for z in assignment):
        raise AlgebraError("assignment element over the wrong algebra")
    atom = _first_failing(theta_atoms(m), assignment, certify=False)
    return ThetaResult(atom is None, atom)


def _first_failing(atoms: Sequence[Atom], z: Sequence[LieElement], certify: bool) -> Optional[Atom]:
    """The first of ``atoms`` that the assignment z_0..z_{m-1} violates,
    or None.

    Each pair bracket [z_i, z_j] an atom reads is computed once per
    call, so the inner [z_i, z_{i+2}] of the triple atoms is bracketed
    once per i.  A triple atom [[z_i, z_{i+2}], z_j] is then decided
    without building its element: a `bracket` has no linear part, and
    two derived elements commute, so it is the action of the linear
    part of z_j on the pair's derived terms, summed by `_add_nf` into
    one dict per atom; the atom holds iff that dict is not empty.

    With ``certify`` each z_k must be a nonzero multiple of one
    generator.  Each atom then asks whether one left-normed word in
    those generators' letters vanishes, and `_certified` has
    `oracle.ideal_member` answer it too before the atom is judged, so
    a disagreement raises `CertificationError`."""
    m, algebra = len(z), z[0].algebra
    pairs: Dict[Tuple[int, int], LieElement] = {}
    for atom in atoms:
        family, i, j = atom
        triple = family == "triple-nonzero"
        k = (i + 2) % m if triple else j
        pair = pairs.get((i, k))
        if pair is None:
            pair = pairs[i, k] = bracket(z[i], z[k])
        if triple:
            acc: Dict[BasisMonomial, int] = {}
            linear = z[j].linear
            for ((p, q), tail), c in pair.derived.items():
                for v, cv in linear.items():
                    _add_nf(acc, algebra, p, q, tail + (v,), c * cv)
            holds = bool(acc)
        else:
            holds = pair.is_zero() == (family == "adjacent-zero")
        if certify:
            word = tuple(next(iter(z[v].linear)) for v in ((i, k, j) if triple else (i, j)))
            zero = holds == (family == "adjacent-zero")
            _certified(zero, word, algebra.graph, f"the atom {family}({i},{j}) of Theta({m})")
        if not holds:
            return atom
    return None


def theta_identity_holds(m: int) -> bool:
    """Theta on the cycle of length m under z_i = x_i, decided by the
    engine alone on one atom per rotation orbit (`_theta_identity`)."""
    return _theta_identity(m, certify=False)


def _theta_identity(m: int, certify: bool) -> bool:
    """Theta on the cycle of length m under z_i = x_i, by rotation orbits.

    Lemma: x_k -> x_{k+1} (indices mod m) maps the edges of C_m onto
    themselves, so it is an automorphism of M(C_m), and it preserves
    whether a bracket vanishes.  It sends each atom (i, j) of the
    identity assignment to the atom (i + 1, j + 1) of the same family
    (a distant pair may come out as (j + 1, i + 1), the same atom), and
    each atom's orbit meets i = 0.  So Theta(m) holds iff the atoms with
    i = 0 do: 2m - 3 of them for m >= 5, 4 for m = 4.  The generator
    order does not enter, since vanishing is basis-free.

    `_first_failing` decides them, with the m - 2 brackets [x_0, x_j],
    1 <= j <= m - 2.  With ``certify`` the oracle decides each atom too.
    The verdicts of `distinguish_cycles`, `search_theta_witness` and the
    suite's criterion 5 are certified; `theta_identity_holds` is not,
    and so, like `eval_theta`, it eliminates no matrix.
    """
    return _first_failing(_atoms(m, (0,)), cycle_generators(m), certify) is None


def _certified(engine: bool, word: Tuple[int, ...], graph: Graph, what: str) -> bool:
    """The engine's answer to whether a left-normed word vanishes, once
    `oracle.ideal_member` has given the same answer; a disagreement
    raises `CertificationError`, naming ``what`` the word is."""
    if engine != ideal_member([(1, word)], graph):
        raise CertificationError(
            f"engine and oracle disagree on {what}: "
            f"the engine says [{','.join(f'x{v}' for v in word)}] {'is' if engine else 'is not'} zero")
    return engine


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


def _completion_counts(n: int, m: int) -> List[List[int]]:
    """``counts[r][d]``: the number of ways to fill the last r positions
    of a constrained sequence that starts at s and has v just before
    them, where d = (s - v) mod n (a transfer-matrix count: counts[r]
    is row 0 of A^(r+1) for the circulant A with ones on and next to the
    diagonal; A is circulant, so its powers are, and row 0 gives every
    entry)."""
    counts = [[int(circ_dist(n, 0, d) <= 1) for d in range(n)]]
    moves = _steps(n, 0)
    for _ in range(1, m):
        prev = counts[-1]
        counts.append([sum(prev[(d - w) % n] for w in moves) for d in range(n)])
    return counts


def search_theta_witness(n: int, m: int, mode: str = "generator-assignments") -> WitnessSearchReport:
    """Search Theta(m) over generator assignments in the cycle algebra
    on n vertices, settled by the closed-walk lemma.

    The search space is the constrained sequences: the maps
    sigma: Z_m -> Z_n whose consecutive images (cyclically) are at
    cyclic distance <= 1, in lexicographic order; z_k = x_sigma(k).

    Lemma: a witness is a rotation or reflection of (0, 1, ..., n-1),
    so there is none unless m = n.  Proof.  In the cycle algebra on
    n >= 4 vertices, [x_a, x_b] = 0 iff circ_dist(a, b) <= 1 (the
    engine premise the tests check), so the adjacent-zero atoms hold
    exactly on constrained sequences and the distant atom (k, l) holds
    iff circ_dist(sigma(k), sigma(l)) > 1.  Suppose sigma repeats.
    - If sigma(k) = sigma(l) with circ_dist(k, l) > 1, the distant atom
      (k, l) fails, since [x_a, x_a] = 0.
    - If sigma(k) = sigma(k+1), then either the adjacent-zero atom
      (k-1, k) fails, or circ_dist(sigma(k-1), sigma(k+1)) =
      circ_dist(sigma(k-1), sigma(k)) <= 1 and the distant atom
      (k-1, k+1) fails (m >= 5, so k-1 and k+1 are not adjacent).
    So a witness is injective, with every step +1 or -1.  A step +1
    followed by -1 (or the reverse) gives sigma(k+2) = sigma(k), so the
    steps, cyclically, all have one sign, and the walk closes only if
    n divides m.  Injectivity gives m <= n, so m = n, and sigma is one
    of the 2n laps sigma(k) = s +- k.  The laps are the images of the
    identity (0, 1, ..., n-1) under the dihedral automorphisms of C_n,
    so they all hold or all fail, as `theta_identity_holds(n)` says
    (certified here in the oracle).

    The report is the one an exhaustive walk in lexicographic order
    would give.  ``checked`` counts the constrained sequences up to the
    first witness, or all of them: these are the closed walks of length
    m on C_n with loops, trace(A^m) = n * (A^m)[0][0] for the circulant
    A with ones on and next to the diagonal, read off
    `_completion_counts`.  The first lap in that order is (0, 1, ...,
    n-1); before it come, for each position pos >= 1, the completions
    of the steps from pos - 1 that are smaller than pos, none of them
    a lap.  In
    generator-assignments mode ``witness`` is that lap when m = n and
    the identity holds, else None with ``exhausted``.  In j-sequences
    mode, the combinatorial core of the refutation, the sequences
    without a repeated index are reported: the 2n laps, in order, when
    m = n, and none otherwise; ``checked`` is always the total.
    """
    if n < 4 or m < 5:
        raise AlgebraError(
            "witness search assumes n >= 4 and m >= 5; shorter cases are "
            "handled by distinguish_cycles directly"
        )
    if mode not in ("generator-assignments", "j-sequences"):
        raise AlgebraError(f"unknown search mode {mode!r}")
    space = n ** m
    counts = _completion_counts(n, m)
    total = n * counts[m - 1][0]
    if mode == "j-sequences":
        laps = ()
        if m == n:
            laps = tuple(sorted(tuple((s + d * k) % n for k in range(n)) for s in range(n) for d in (1, -1)))
        return WitnessSearchReport(mode, n, m, None, total, space, exhausted=not laps, no_repeat_sequences=laps)
    if m != n or not _theta_identity(n, certify=True):
        return WitnessSearchReport(mode, n, m, None, total, space, True)
    before = sum(counts[m - 1 - pos][-step % n] for pos in range(1, m) for step in _steps(n, pos - 1) if step < pos)
    return WitnessSearchReport(mode, n, m, tuple(range(n)), before + 1, space, False)


class DistinguishReport(NamedTuple):
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
        # Psi: the three brackets of C_3 vanish and [x1,x3] on the larger
        # cycle does not; the oracle is asked all four
        x = cycle_generators(3)
        abelian = all([_certified(bracket(x[a], x[b]).is_zero(), (a, b), x[0].graph, "Psi's premise on C_3")
                       for a, b in combinations(range(3), 2)])
        graph = cycle_graph(large)
        counter = word_element(graph, GeneratorOrder.ascending(large), (1, 3))
        _certified(counter.is_zero(), (1, 3), graph, f"Psi's counterexample on C_{large}")
        detail = {
            "abelian_small": abelian,
            "counterexample": "[x1,x3]",
            "counterexample_nonzero": not counter.is_zero(),
            "counterexample_value": counter,
        }
        separated = abelian and not counter.is_zero()
        return DistinguishReport(n, m, False, "Psi", separated, detail)
    holds_large = _theta_identity(large, certify=True)
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

class PhiHom(NamedTuple):
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


def _scale_polynomials(elements: Sequence[LieElement], hom: PhiHom) -> Tuple[Dict[BasisMonomial, Tuple[Tuple, int]], List[Dict[Tuple, Tuple[int, ...]]]]:
    """The glued label and power of each distinct monomial of the
    elements, from one `_glued_key` call each, and for each element the
    coeffs of each scaling component keyed by its label, linear ones
    first (only `merge_scaling_components` sorts them).  Within one glued
    label the number of x_{n-1} fixes the multidegree and so the term,
    and is its power of lambda."""
    n = hom.graph.n
    last, kept = n - 1, n - 2
    glued: Dict[BasisMonomial, Tuple[Tuple, int]] = {}
    out: List[Dict[Tuple, Tuple[int, ...]]] = []
    for g in elements:
        if g.algebra is not hom.source:
            raise AlgebraError("element is not over the homomorphism's source algebra")
        comps = {("linear", i): (c,) for i, c in g.linear.items() if i < kept}  # neither merged vertex
        if kept in g.linear or last in g.linear:  # no zero is stored
            comps[("linear-pair",)] = (g.linear.get(kept, 0), g.linear.get(last, 0))
        polys: Dict[Tuple, List[int]] = {}
        for m, c in g.derived.items():
            if m not in glued:
                glued[m] = _glued_key(m, n)
            label, power = glued[m]
            coeffs = polys.get(label)
            if coeffs is None:
                coeffs = polys[label] = [0] * (label[1][kept] + 1)
            coeffs[power] = c
        for label, coeffs in polys.items():
            comps[label] = tuple(coeffs)
        out.append(comps)
    return glued, out


def merge_scaling_components(g: LieElement, hom: PhiHom) -> List[ScalingComponent]:
    """Scale polynomials governing when phi_lambda kills each piece of g,
    linear ones first, each glued one with its part of g and the basis
    monomial that part maps onto."""
    glued, (comps,) = _scale_polynomials([g], hom)
    parts: Dict[Tuple, Dict[BasisMonomial, int]] = {}
    for m, c in g.derived.items():
        parts.setdefault(glued[m][0], {})[m] = c
    out: List[ScalingComponent] = []
    for label, coeffs in sorted(comps.items(), key=lambda item: (item[0][0] == "glued", item[0])):
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
    return _threshold(_scale_polynomials([g], hom)[1][0].values())


def _threshold(polys: Iterable[Sequence[int]]) -> int:
    """One past the largest positive integer root of the polynomials,
    1 when none has one."""
    return 1 + max((r for coeffs in polys for r in positive_integer_roots(coeffs)), default=0)


# ---------------------------------------------------------------------------
# finite-set witnesses
# ---------------------------------------------------------------------------

def gamma_closure(gamma: Sequence[LieElement]) -> List[LieElement]:
    """Close a finite set under g_i - g_j, g_i + g_j - g_l, and
    [g_i, g_j] - g_l, deduplicating structurally by the sets of terms.
    Each candidate's two term dicts are summed by `_accumulate`, an
    element is built only for a new key, and [g_j, g_i] = -[g_i, g_j]."""
    # one bracket per unordered pair, which also checks that all share one algebra
    products = {(i, j): bracket(a, gamma[j]).derived for i, a in enumerate(gamma) for j in range(i + 1, len(gamma))}
    seen: Dict[Tuple, LieElement] = {}  # key -> element, in push order
    for g in gamma:
        seen.setdefault((frozenset(g.linear.items()), frozenset(g.derived.items())), g)

    def push(linear: Dict[int, int], derived: Dict[BasisMonomial, int], g: LieElement) -> None:
        linear, derived = dict(linear), dict(derived)  # the candidate (linear, derived) - g
        _accumulate(linear, g.linear.items(), -1)
        _accumulate(derived, g.derived.items(), -1)
        key = (frozenset(linear.items()), frozenset(derived.items()))
        if key not in seen:
            seen[key] = LieElement._trusted(g.algebra, linear, derived)

    for a in gamma:
        for g in gamma:
            push(a.linear, a.derived, g)
    for i, a in enumerate(gamma):
        for j, b in enumerate(gamma):
            total = a + b
            product = products[i, j] if i < j else {m: -c for m, c in products.get((j, i), {}).items()}
            for g in gamma:
                push(total.linear, total.derived, g)
                push({}, product, g)
    return list(seen.values())


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


class CompactionWitnessReport(NamedTuple):
    """A verified merge witness.  ``ok`` is always True: a witness that
    fails verification raises `CertificationError` instead."""

    lam: int
    gamma_size: int
    closure_size: int
    nonzero_in_closure: int
    removed_vertex: int
    kept_vertex: int
    ok: bool = True


def _first_killed(hom: PhiHom, elements: Sequence[LieElement]) -> Optional[LieElement]:
    """The first of ``elements`` that phi_lambda sends to 0, or None.
    `_substituted` maps term by term, generators to generators, so each
    part of an image sums c * phi_lambda(key) over that part's terms
    c * key; a distinct key is substituted once per call, and a derived
    part is summed only when the linear one is 0."""
    table: Dict[object, Tuple] = {}  # key -> terms of its image
    for g in elements:
        for part, terms in enumerate((g.linear, g.derived)):
            acc: Dict = {}
            for key, c in terms.items():
                image = table.get(key)
                if image is None:
                    unit = ({}, {})
                    unit[part][key] = 1
                    found = _substituted(LieElement._trusted(hom.source, *unit), hom.images, hom.target)
                    image = table[key] = tuple((found.linear, found.derived)[part].items())
                _accumulate(acc, image, c)
            if acc:
                break
        else:
            return g
    return None


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

    - kill: phi_lambda sends no nonzero closure element to 0
      (`_first_killed`: one substitution per distinct generator or
      monomial; a derived image is summed only when the linear one is 0);
    - distinct: distinct elements of gamma have distinct images;
    - faithful: phi_lambda([a, b]) = [phi_lambda(a), phi_lambda(b)] for
      all a, b in gamma.

    Both run over the unordered pairs of gamma in one loop: [a, a] = 0
    and [b, a] = -[a, b] on both sides, and phi_lambda is linear.
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
    lam = _threshold({coeffs for per in comps for coeffs in per.values()})
    hom = build_phi_hom(new_graph, lam)
    if _first_killed(hom, nonzero) is not None:
        raise CertificationError(f"phi with scale {lam} kills a nonzero closure element")
    pairs = list(zip(moved, [phi_lambda(hom, g) for g in moved]))
    for (a, pa), (b, pb) in combinations(pairs, 2):
        if (a != b and pa == pb) or phi_lambda(hom, bracket(a, b)) != bracket(pa, pb):
            raise CertificationError("merge witness verification failed")
    return CompactionWitnessReport(lam, len(gamma), len(closure), len(nonzero), remove, keep)

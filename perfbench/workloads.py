"""The four benchmark workloads: seeded inputs, jobs and their checks.

Every input (graphs, generator orders, coefficients, element text, job
order) comes from the benchmark's own ``random.Random(seed)``; pcml
receives only the generated inputs.  Vertex counts cycle through their
range instead of being drawn, random graphs have a fixed edge count and
generated elements a fixed shape, so the amount of work varies little
from seed to seed.  Building the jobs calls no normal-form code, so
every cache is still cold when the first job runs.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Dict, List, Sequence, Tuple

from harness import Job

COEFFS = (-3, -2, -1, 1, 2, 3)

# (cycle length, degree bound) for the every-pair-and-triple centralizer jobs
CENTRALIZER_CYCLES = ((4, 6), (5, 5), (6, 4))
INTERSECTION_JOBS = 35
INTERSECTION_BOUND = 4

CERTIFY_GRAPHS = 6
CERTIFY_MAX_DEGREE = 5
MEMBERSHIP_PER_GRAPH = 150

THETA_SEARCH_MAX_M = 7
THETA_IDENTITY_M = range(4, 10)
THETA_EVALS = 600

MERGE_GRAPHS = 48  # a compaction witness on every other one
MERGE_GAMMA = 6
MERGE_QUERIES_PER_GRAPH = 8
# term degrees of the generated elements
GAMMA_SHAPE = (1, 4)
THRESHOLD_SHAPE = (2, 3, 4, 5)
HOM_SHAPES = ((1, 2, 4), (1, 3, 4))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_edges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Half of all vertex pairs, chosen at random: a fixed edge count keeps
    the work per graph closer from seed to seed than independent coins."""
    pairs = list(combinations(range(n), 2))
    return sorted(rng.sample(pairs, len(pairs) // 2))


def random_perm(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def signed_sum(terms: Sequence[Tuple[int, str]]) -> str:
    """Element text of a sum of (coefficient, term) pairs."""
    parts = []
    for k, (c, body) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if k else "")
        parts.append(f"{sign}{abs(c)}*{body}")
    return " ".join(parts)


def linear_text(coeffs: Dict[int, int]) -> str:
    return signed_sum([(c, f"x{i}") for i, c in sorted(coeffs.items())])


def word_text(letters: Sequence[int]) -> str:
    head = f"[x{letters[0]},x{letters[1]}"
    tail = ",".join(f"x{v}" for v in letters[2:])
    return head + (";" + tail if tail else "") + "]"


def element_text(rng: random.Random, n: int, edges, degrees: Sequence[int], twin: int = -1) -> str:
    """Sum of scaled terms over x0..x{n-1}, one per entry of ``degrees``:
    a generator for degree 1, else a bracket word of that length.

    The fixed shape keeps the work per element close from seed to seed.
    Word heads avoid the graph's edges where they can, so that few
    elements vanish.  When ``twin`` is a vertex, a word containing it gets
    a companion term with one occurrence renamed to the twin ``n-1``, so
    merge thresholds above 1 occur.
    """
    terms: List[Tuple[int, str]] = []
    for degree in degrees:
        c = rng.choice(COEFFS)
        if degree == 1:
            terms.append((c, f"x{rng.randrange(n)}"))
            continue
        for _ in range(5):
            a, b = rng.sample(range(n), 2)
            if (min(a, b), max(a, b)) not in edges:
                break
        letters = [a, b] + [rng.randrange(n) for _ in range(degree - 2)]
        terms.append((c, word_text(letters)))
        if twin in letters:
            k = letters.index(twin)
            renamed = letters[:k] + [n - 1] + letters[k + 1:]
            if renamed[0] != renamed[1]:
                terms.append((rng.choice(COEFFS), word_text(renamed)))
    return signed_sum(terms)


def multidegrees(n: int, degree: int) -> List[Tuple[int, ...]]:
    out = []
    for letters in combinations_with_replacement(range(n), degree):
        delta = [0] * n
        for v in letters:
            delta[v] += 1
        out.append(tuple(delta))
    return out


def graph_replay(n: int, edges) -> Dict:
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


def int_rank(rows: List[List[int]]) -> int:
    """Rank over Q by integer elimination with gcd-reduced rows."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c]
            if f:
                row = [p[c] * x - f * y for x, y in zip(mat[i], p)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                mat[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# centralizer: linalg kernels and subspace intersections
# ---------------------------------------------------------------------------

def _centralizer_job(pcml, n, edges, perm, coeffs, bound, expect_empty) -> Job:
    graph = pcml.Graph(n, edges)
    g = pcml.LieElement.from_linear(graph, pcml.GeneratorOrder(perm), coeffs)

    def check(slice_) -> bool:
        elements = slice_.elements
        if any(h.linear or not pcml.bracket(h, g).is_zero() for h in elements):
            return False
        columns = sorted({m for h in elements for m in h.derived})
        rows = [[h.derived.get(m, 0) for m in columns] for h in elements]
        if int_rank(rows) != len(elements):
            return False
        return not elements if expect_empty else bool(elements)

    replay = {"graph": graph_replay(n, edges), "order": perm,
              "element": linear_text(coeffs), "degree_bound": bound,
              "expect_empty": expect_empty}
    return Job("derived_centralizer", replay, lambda: pcml.derived_centralizer(g, bound), check)


def _classify_job(pcml, n, i, j, bound) -> Job:
    def check(report) -> bool:
        return (report.kind == "distant" and report.count > 0
                and report.support_ok and report.form_ok and report.homogeneous_ok)

    return Job("classify_cycle_centralizer", {"n": n, "i": i, "j": j, "degree_bound": bound},
               lambda: pcml.classify_cycle_centralizer(n, i, j, bound), check)


def _intersection_job(pcml, n, edges, perm, indices, coeffs) -> Job:
    graph = pcml.Graph(n, edges)
    order = pcml.GeneratorOrder(perm)
    replay = {"graph": graph_replay(n, edges), "order": perm, "indices": indices,
              "coefficients": coeffs, "degree_bound": INTERSECTION_BOUND}
    return Job(
        "check_intersection_theorem", replay,
        lambda: pcml.check_intersection_theorem(indices, coeffs, graph, INTERSECTION_BOUND, order),
        lambda ok: ok is True,
    )


def build_centralizer(pcml, rng: random.Random) -> List[Job]:
    jobs = []
    for n, bound in CENTRALIZER_CYCLES:
        edges = [(i, (i + 1) % n) for i in range(n)]
        for size in (2, 3):
            for subset in combinations(range(n), size):
                adjacent = size == 2 and (subset[1] - subset[0]) % n in (1, n - 1)
                coeffs = {i: rng.choice(COEFFS) for i in subset}
                jobs.append(_centralizer_job(
                    pcml, n, edges, random_perm(rng, n), coeffs, bound,
                    expect_empty=size == 3 or adjacent,
                ))
        # one distant pair per distance, at a seeded rotation; the only
        # jobs that reach core.act
        for distance in range(2, n // 2 + 1):
            i = rng.randrange(n)
            jobs.append(_classify_job(pcml, n, i, (i + distance) % n, bound))
    for k in range(INTERSECTION_JOBS):
        n = 3 + k % 3
        indices = rng.sample(range(n), rng.randint(2, min(3, n)))
        coeffs = [rng.choice(COEFFS) for _ in indices]
        jobs.append(_intersection_job(pcml, n, random_edges(rng, n), random_perm(rng, n), indices, coeffs))
    return jobs


# ---------------------------------------------------------------------------
# certify: oracle slices built, then read by membership queries
# ---------------------------------------------------------------------------

def _certify_job(pcml, graph, order, replay, delta) -> Job:
    return Job("certify_basis", dict(replay, delta=list(delta)),
               lambda: pcml.certify_basis(graph, delta, order),
               lambda report: report.ok)


def _membership_job(pcml, graph, order, replay, raw) -> Job:
    def run():
        engine = pcml.LieElement.zero(graph, order)
        for c, word in raw:
            engine = engine + pcml.word_element(graph, order, word) * c
        return engine.is_zero(), pcml.ideal_member(raw, graph)

    return Job("ideal_member", dict(replay, raw=[[c, list(w)] for c, w in raw]),
               run, lambda pair: pair[0] == pair[1])


def random_raw(rng: random.Random, n: int, edges, degree: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """A combination of left-normed words: random, or one that vanishes
    by antisymmetry or by an edge relation."""
    letters = [rng.randrange(n) for _ in range(degree)]
    kind = rng.randrange(3)
    if kind == 1 and letters[0] != letters[1]:
        c = rng.choice(COEFFS)
        swapped = [letters[1], letters[0]] + letters[2:]
        return [(c, tuple(letters)), (c, tuple(swapped))]
    if kind == 2 and edges:
        i, j = rng.choice(edges)
        return [(rng.choice(COEFFS), (i, j) + tuple(letters[2:]))]
    raw = []
    for _ in range(rng.randint(1, 3)):
        rng.shuffle(letters)
        raw.append((rng.choice(COEFFS), tuple(letters)))
    return raw


def build_certify(pcml, rng: random.Random) -> List[Job]:
    jobs = []
    for k in range(CERTIFY_GRAPHS):
        n = 6 + k % 3
        edges = random_edges(rng, n)
        perm = random_perm(rng, n)
        graph = pcml.Graph(n, edges)
        order = pcml.GeneratorOrder(perm)
        replay = {"graph": graph_replay(n, edges), "order": perm}
        for degree in range(2, CERTIFY_MAX_DEGREE + 1):
            for delta in multidegrees(n, degree):
                jobs.append(_certify_job(pcml, graph, order, replay, delta))
        for _ in range(MEMBERSHIP_PER_GRAPH):
            raw = random_raw(rng, n, edges, rng.randint(2, CERTIFY_MAX_DEGREE))
            jobs.append(_membership_job(pcml, graph, order, replay, raw))
    return jobs


# ---------------------------------------------------------------------------
# theta: brackets of generators only, no elimination
# ---------------------------------------------------------------------------

def _search_job(pcml, n, m) -> Job:
    return Job("search_theta_witness", {"n": n, "m": m},
               lambda: pcml.search_theta_witness(n, m),
               lambda report: report.exhausted and report.witness is None)


def _identity_job(pcml, m) -> Job:
    return Job("theta_identity_holds", {"m": m},
               lambda: pcml.theta_identity_holds(m), lambda ok: ok is True)


def _eval_job(pcml, m, images, scales) -> Job:
    graph = pcml.cycle_graph(m)
    order = pcml.GeneratorOrder.ascending(m)
    inst = pcml.ThetaInstance(m, graph, order)
    assignment = [pcml.LieElement.generator(graph, order, v) * c for v, c in zip(images, scales)]
    replay = {"m": m, "assignment": [f"{c}*x{v}" for v, c in zip(images, scales)]}
    return Job("eval_theta", replay, lambda: pcml.eval_theta(inst, assignment),
               lambda result: result.holds)


def build_theta(pcml, rng: random.Random) -> List[Job]:
    jobs = [_search_job(pcml, n, m) for n in range(4, THETA_SEARCH_MAX_M)
            for m in range(n + 1, THETA_SEARCH_MAX_M + 1)]
    jobs += [_identity_job(pcml, m) for m in THETA_IDENTITY_M]
    for k in range(THETA_EVALS):
        # a scaled rotation or reflection of the cycle is an automorphism
        m = THETA_IDENTITY_M[k % len(THETA_IDENTITY_M)]
        shift, sign = rng.randrange(m), rng.choice((1, -1))
        images = [(sign * i + shift) % m for i in range(m)]
        jobs.append(_eval_job(pcml, m, images, [rng.choice(COEFFS) for _ in range(m)]))
    return jobs


# ---------------------------------------------------------------------------
# merge: the merge homomorphism, thresholds, closures and text I/O
# ---------------------------------------------------------------------------

def twin_graph_edges(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Random graph in which x{n-1} is a twin of x{n-2}: equal closed
    neighbourhoods."""
    base = random_edges(rng, n - 1)
    anchor, twin = n - 2, n - 1
    neighbours = [i if j == anchor else j for i, j in base if anchor in (i, j)]
    return base + [(anchor, twin)] + [(v, twin) for v in neighbours]


def _witness_job(pcml, n, edges, texts) -> Job:
    graph = pcml.Graph(n, edges)
    order = pcml.GeneratorOrder.ascending(n)

    def run():
        gamma = [pcml.parse_element(t, graph, order) for t in texts]
        return pcml.compaction_witness(graph, gamma, order)

    replay = {"graph": graph_replay(n, edges), "gamma": texts}
    return Job("compaction_witness", replay, run, lambda report: report.ok)


def _threshold_job(pcml, n, edges, text) -> Job:
    graph = pcml.Graph(n, edges)
    order = pcml.equivalence.merge_order(n)

    def parse():
        return pcml.parse_element(text, graph, order)

    def run():
        g = parse()
        if g.is_zero():
            return None
        lam0 = pcml.lambda_zero(g, pcml.build_phi_hom(graph, 1))
        images = [pcml.format_element(pcml.phi_lambda(pcml.build_phi_hom(graph, lam), g))
                  for lam in range(lam0, lam0 + 4)]
        return lam0, images

    def check(out) -> bool:
        if out is None:
            return parse().is_zero()
        lam0, images = out
        return lam0 >= 1 and all(t != "0" for t in images)

    replay = {"graph": graph_replay(n, edges), "order": list(order.perm), "element": text}
    return Job("lambda_zero", replay, run, check)


def _hom_job(pcml, n, edges, lam, text_a, text_b) -> Job:
    graph = pcml.Graph(n, edges)
    order = pcml.equivalence.merge_order(n)

    def run():
        a = pcml.parse_element(text_a, graph, order)
        b = pcml.parse_element(text_b, graph, order)
        hom = pcml.build_phi_hom(graph, lam)
        images = (pcml.phi_lambda(hom, a), pcml.phi_lambda(hom, b),
                  pcml.phi_lambda(hom, a + b), pcml.phi_lambda(hom, pcml.bracket(a, b)))
        return [pcml.format_element(x) for x in images]

    def check(texts) -> bool:
        hom = pcml.build_phi_hom(graph, lam)
        pa, pb, psum, pbr = (pcml.parse_element(t, hom.target_graph, hom.target_order) for t in texts)
        return psum == pa + pb and pbr == pcml.bracket(pa, pb)

    replay = {"graph": graph_replay(n, edges), "order": list(order.perm), "lambda": lam,
              "elements": [text_a, text_b]}
    return Job("phi_lambda", replay, run, check)


def build_merge(pcml, rng: random.Random) -> List[Job]:
    jobs = []
    for k in range(MERGE_GRAPHS):
        n = 5 + k % 4
        edges = twin_graph_edges(rng, n)
        if k % 2 == 0:
            # the witness sees the twins at seeded positions, so it relabels
            perm = random_perm(rng, n)
            moved = [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]
            gamma = [element_text(rng, n, moved, GAMMA_SHAPE) for _ in range(MERGE_GAMMA)]
            jobs.append(_witness_job(pcml, n, moved, gamma))
        for _ in range(MERGE_QUERIES_PER_GRAPH):
            jobs.append(_threshold_job(pcml, n, edges, element_text(rng, n, edges, THRESHOLD_SHAPE, twin=n - 2)))
            jobs.append(_hom_job(pcml, n, edges, rng.randint(1, 3),
                                 element_text(rng, n, edges, HOM_SHAPES[0], twin=n - 2),
                                 element_text(rng, n, edges, HOM_SHAPES[1], twin=n - 2)))
    return jobs


WORKLOADS = {
    "centralizer": build_centralizer,
    "certify": build_certify,
    "theta": build_theta,
    "merge": build_merge,
}


def build(name: str, pcml, seed: int) -> List[Job]:
    """The jobs of one workload, in seeded order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[name](pcml, rng)
    rng.shuffle(jobs)
    return jobs

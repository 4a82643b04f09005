import operator
import random
import sys
import threading
import weakref
from itertools import combinations, permutations

import pytest

from pcml import core, oracle
from pcml.centralizer import derived_centralizer
from pcml.core import (
    Algebra,
    AssocPoly,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    _monomial_nf,
    act,
    basis_monomial_with_start,
    basis_monomials_of_degree,
    basis_monomials_of_multidegree,
    bracket,
    format_element,
    homogeneous_components,
    is_basis_monomial,
    mdeg,
    multidegrees,
    substitute,
    word_element,
)
from pcml.equivalence import _glued_key, build_phi_hom, merge_scaling_components
from pcml.errors import AlgebraError
from pcml.graphs import Graph, cycle_graph
from pcml.sampling import random_element, random_graph


FREE3 = Graph(3, [])
ASC3 = GeneratorOrder.ascending(3)


def gens(graph, order):
    return [LieElement.generator(graph, order, i) for i in range(graph.n)]


def _multidegree(e):
    """The multidegree of a nonzero homogeneous element."""
    [(delta, _)] = homogeneous_components(e)
    return delta


def test_generator_order_validation():
    with pytest.raises(AlgebraError):
        GeneratorOrder([0, 0, 1])
    o = GeneratorOrder([2, 0, 1])
    assert o.rank == (1, 2, 0)


def test_self_bracket_is_zero():
    x = gens(FREE3, ASC3)
    assert bracket(x[1], x[1]).is_zero()


def test_edge_bracket_is_zero():
    c4 = cycle_graph(4)
    o = GeneratorOrder.ascending(4)
    x = gens(c4, o)
    assert bracket(x[0], x[1]).is_zero()
    assert not bracket(x[0], x[2]).is_zero()


def test_jacobi_straightening_free():
    e = word_element(FREE3, ASC3, (1, 2, 0))
    expected = word_element(FREE3, ASC3, (1, 0, 2)) - word_element(FREE3, ASC3, (2, 0, 1))
    assert e == expected


def test_cycle5_triple_products():
    c5 = cycle_graph(5)
    o = GeneratorOrder.ascending(5)
    assert word_element(c5, o, (0, 2, 1)).is_zero()
    assert not word_element(c5, o, (0, 2, 3)).is_zero()


def test_c3_is_abelian():
    c3 = cycle_graph(3)
    x = gens(c3, ASC3)
    for i, j in combinations(range(3), 2):
        assert bracket(x[i], x[j]).is_zero()


def test_metabelian_identity():
    x = gens(FREE3, ASC3)
    inner1 = bracket(x[1], x[0])
    inner2 = bracket(x[2], x[0])
    assert bracket(inner1, inner2).is_zero()


def test_act_definition_and_symmetry():
    u = word_element(FREE3, ASC3, (1, 0))
    via_act = act(u, AssocPoly.variable(3, 2))
    via_word = word_element(FREE3, ASC3, (1, 0, 2))
    assert via_act == via_word
    f1 = AssocPoly.variable(4, 2) * AssocPoly.variable(4, 3)
    g4 = Graph(4, [])
    o4 = GeneratorOrder.ascending(4)
    u = word_element(g4, o4, (1, 0))
    assert act(u, f1) == act(act(u, AssocPoly.variable(4, 3)), AssocPoly.variable(4, 2))


def test_act_in_c4_kills_connector():
    c4 = cycle_graph(4)
    o = GeneratorOrder.ascending(4)
    u = word_element(c4, o, (2, 0))
    assert act(u, AssocPoly.variable(4, 1)).is_zero()


def test_act_rejects_linear_part():
    x = gens(FREE3, ASC3)
    with pytest.raises(AlgebraError):
        act(x[0], AssocPoly.variable(3, 1))


def test_act_additive_and_multiplicative():
    rng = random.Random(3)
    g = random_graph(rng, 4)
    o = GeneratorOrder.ascending(4)
    u = LieElement(g, o, {}, random_element(g, o, rng, max_degree=3).derived)
    f = AssocPoly(4, {(1, 0, 2, 0): 2, (0, 1, 0, 0): -1})
    h = AssocPoly(4, {(0, 0, 1, 1): 3, (0, 0, 0, 0): 1})
    assert act(u, f + h) == act(u, f) + act(u, h)
    assert act(u, f * h) == act(act(u, f), h)
    assert act(act(u, f), h) == act(act(u, h), f)


def test_mdeg_and_glued():
    # the glued label sums the last two coordinates; the power counts x_{n-1}
    m = BasisMonomial((1, 0), (1,))
    assert mdeg(m, 3) == (1, 2, 0)
    assert _glued_key(m, 3) == (("glued", (1, 2), 1), 0)
    m = BasisMonomial((2, 0), (3,))
    assert mdeg(m, 4) == (1, 0, 1, 1)
    assert _glued_key(m, 4) == (("glued", (1, 0, 2), 2), 1)
    m2 = BasisMonomial((3, 0), (2,))
    assert _glued_key(m2, 4) == (("glued", (1, 0, 2), 3), 1)
    assert set(m.letters()) == {0, 2, 3}


def test_homogeneous_components():
    x = gens(FREE3, ASC3)
    g = x[0] + bracket(x[1], x[0])
    comps = homogeneous_components(g)
    assert [delta for delta, _ in comps] == [(1, 0, 0), (1, 1, 0)]
    assert sum((part for _, part in comps), LieElement.zero(FREE3, ASC3)) == g
    h = bracket(x[1], x[0])
    assert len(homogeneous_components(h)) == 1
    assert homogeneous_components(LieElement.zero(FREE3, ASC3)) == []


def test_glued_decomposition():
    # x2 and x3 are twins, so the merge glues their coordinates
    g4 = Graph(4, [(2, 3)])
    hom = build_phi_hom(g4, 1)
    so = hom.source_order
    m1 = word_element(g4, so, (0, 2, 3))
    m2 = word_element(g4, so, (0, 2, 2))
    comps = merge_scaling_components(2 * m1 + 3 * m2, hom)
    # gluing identifies (1,0,1,1) and (1,0,2,0): one component, two slots
    assert len(comps) == 1
    assert comps[0].label == ("glued", (1, 0, 2), 0)
    assert comps[0].part == 2 * m1 + 3 * m2
    # same glued degree but different start letters -> two components
    g = word_element(g4, so, (1, 0, 2))
    comps = merge_scaling_components(g, hom)
    assert [sc.label for sc in comps] == [("glued", (1, 1, 1), 0), ("glued", (1, 1, 1), 1)]
    assert comps[0].part + comps[1].part == g
    # a generator is a linear component, with neither part nor base
    (sc,) = merge_scaling_components(LieElement.generator(g4, so, 0), hom)
    assert sc.label == ("linear", 0) and sc.part is None and sc.base is None


def test_is_basis_monomial_conditions():
    assert is_basis_monomial((2, 0), (1,), FREE3, ASC3)
    c4 = cycle_graph(4)
    o4 = GeneratorOrder.ascending(4)
    assert not is_basis_monomial((2, 0), (1,), c4, o4)  # support becomes connected
    assert not is_basis_monomial((0, 2), (), FREE3, ASC3)  # head order
    assert not is_basis_monomial((2, 0), (1, 0), FREE3, ASC3)  # unsorted tail
    assert not is_basis_monomial((1, 1), (), FREE3, ASC3)


def test_equal_and_is_zero():
    x = gens(FREE3, ASC3)
    a = bracket(x[1], x[0])
    assert a == a and not a.is_zero()
    assert (a - a).is_zero()
    other = LieElement.generator(Graph(3, [(0, 1)]), ASC3, 0)
    reordered = LieElement.generator(FREE3, GeneratorOrder([2, 1, 0]), 0)
    for y in (other, reordered):
        assert x[0] != y and x[0].linear == y.linear
        for op in (operator.add, operator.sub, bracket):
            with pytest.raises(AlgebraError):
                op(x[0], y)


def test_equal_graphs_and_orders_share_one_algebra():
    g1, g2 = Graph(3, [(0, 1)]), Graph(3, [(1, 0)])
    o1, o2 = GeneratorOrder([1, 0, 2]), GeneratorOrder([1, 0, 2])
    assert g1 is not g2 and o1 is not o2
    a = LieElement.generator(g1, o1, 0) + LieElement.generator(g1, o1, 2)
    b = LieElement.generator(g2, o2, 2)
    assert a.algebra is b.algebra is Algebra.of(g2, o1)
    assert a - b == LieElement.generator(g2, o2, 0)
    assert bracket(a, b) == word_element(g2, o2, (0, 2)) == word_element(g1, o1, (0, 2))
    assert not bracket(a, b).is_zero()


def test_an_algebra_checks_its_order_once_and_is_dropped_when_unused():
    with pytest.raises(AlgebraError):
        Algebra.of(cycle_graph(5), GeneratorOrder.ascending(4))
    with pytest.raises(AlgebraError):
        LieElement.zero(cycle_graph(5), GeneratorOrder.ascending(4))
    # a graph no other test builds, so no live element keeps it alive
    ref = weakref.ref(Algebra.of(Graph(9, [(3, 7)]), GeneratorOrder.ascending(9)))
    assert ref() is None
    # filled normal-form and tops tables keep no algebra alive; the
    # tops table, the only components cache, is freed with its algebra,
    # and the graph, which outlives it, keeps no table at all
    graph = Graph(7, [(2, 5), (0, 6)])
    x = gens(graph, GeneratorOrder.ascending(7))
    ref = weakref.ref(x[0].algebra)
    assert not bracket(x[1], x[0]).is_zero()
    derived_centralizer(x[0] + x[3], 3)
    basis_monomials_of_degree(graph, GeneratorOrder.ascending(7), 3)
    assert ref()._nf and ref()._tops
    tops = ref()._tops
    del x
    assert ref() is None
    assert sys.getrefcount(tops) == 2  # this name and the call's argument
    assert not any(isinstance(getattr(graph, slot), dict) for slot in Graph.__slots__)


def test_normal_form_cache_is_bounded(monkeypatch):
    # each algebra's table holds at most NF_CACHE_SIZE entries, and
    # _monomial_nf.cache_info() counts as functools.lru_cache does
    monkeypatch.setattr(core, "NF_CACHE_SIZE", 5)
    x = gens(Graph(6, [(0, 1)]), GeneratorOrder.ascending(6))
    table = x[0].algebra._nf
    before = _monomial_nf.cache_info()
    for i, j in combinations(range(6), 2):
        bracket(x[j], x[i])
        assert len(table) <= 5
    bracket(x[5], x[4])
    after = _monomial_nf.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 15)
    assert after.maxsize == 5 and len(table) == 5
    assert after.currsize == sum(len(a._nf) for a in list(core._ALGEBRAS.values()))


def test_tops_table_is_bounded(monkeypatch):
    # each algebra's tops table is cleared at NF_CACHE_SIZE entries too,
    # and a mask searched again after a clear gets the same tops
    monkeypatch.setattr(core, "NF_CACHE_SIZE", 5)
    algebra = Algebra.of(cycle_graph(6), GeneratorOrder([3, 0, 5, 1, 4, 2]))
    first = {}
    for mask in range(1, 1 << 6):
        first[mask] = algebra.tops(mask)
        assert len(algebra._tops) <= 5
    assert all(algebra.tops(mask) == tops for mask, tops in first.items())
    assert len(algebra._tops) <= 5


def test_normal_form_idempotent():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 5))
        o = GeneratorOrder.ascending(g.n)
        e = random_element(g, o, rng)
        again = substitute(e, [(1, i) for i in range(g.n)], g, o)
        assert again == e


def test_is_zero_agrees_across_orders():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        o1, o2 = GeneratorOrder.ascending(n), GeneratorOrder(perm)
        e1 = random_element(g, o1, rng)
        identity = [(1, i) for i in range(n)]
        e2 = substitute(e1, identity, g, o2)
        assert e1.is_zero() == e2.is_zero()
        back = substitute(e2, identity, g, o1)
        assert back == e1


def test_homogeneous_mdeg_is_order_independent():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        o1, o2 = GeneratorOrder.ascending(n), GeneratorOrder(perm)
        letters = [rng.randrange(n) for _ in range(rng.randint(2, 4))]
        e1 = word_element(g, o1, letters)
        e2 = word_element(g, o2, letters)
        if not e1.is_zero() and not e2.is_zero():
            assert _multidegree(e1) == _multidegree(e2)


def test_same_component_swap_invariance():
    rng = random.Random(31)
    done = 0
    while done < 60:
        n = rng.randint(3, 6)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        letters = [rng.randrange(n) for _ in range(rng.randint(2, 5))]
        e = word_element(g, o, letters)
        if e.is_zero():
            continue
        from pcml.graphs import components_within

        comps = components_within(g, set(letters))
        pairs = [
            (i, j)
            for i, j in combinations(range(len(letters)), 2)
            if letters[i] != letters[j]
            and any(letters[i] in b and letters[j] in b for b in comps)
        ]
        if not pairs:
            continue
        done += 1
        i, j = rng.choice(pairs)
        swapped = letters[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        e2 = word_element(g, o, swapped)
        # exchanging both head letters flips by anticommutativity
        if {i, j} == {0, 1}:
            e2 = -e2
        assert e == e2


def test_mdeg_additivity_of_bracket():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        wa = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        wb = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        a, b = word_element(g, o, wa), word_element(g, o, wb)
        c = bracket(a, b)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        da, db, dc = (_multidegree(e) for e in (a, b, c))
        assert tuple(x + y for x, y in zip(da, db)) == dc


def test_homogeneous_sum_zero_iff_parts_zero():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        e = random_element(g, o, rng)
        parts = homogeneous_components(e)
        assert e.is_zero() == (not parts)
        for _, part in parts:
            assert not part.is_zero()


def test_enumeration_matches_predicate():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        o = GeneratorOrder(perm)
        for degree in (2, 3, 4):
            for delta in multidegrees(n, degree):
                fast = set(basis_monomials_of_multidegree(g, o, delta))
                slow = set()
                supp = [i for i, d in enumerate(delta) if d]
                for a in supp:
                    for b in supp:
                        if a == b:
                            continue
                        tail = []
                        for i, d in enumerate(delta):
                            tail.extend([i] * (d - (i == a) - (i == b)))
                        tail.sort(key=o.rank.__getitem__)
                        if is_basis_monomial((a, b), tuple(tail), g, o):
                            slow.add(BasisMonomial((a, b), tuple(tail)))
                assert fast == slow


def test_the_empty_graph_has_one_multidegree_and_no_basis():
    # the empty vector is the one multidegree of total 0 on no letters
    assert list(multidegrees(0, 0)) == [()]
    empty, order = Graph(0, []), GeneratorOrder.ascending(0)
    for total in range(1, 5):
        assert list(multidegrees(0, total)) == []
    for degree in range(5):
        assert basis_monomials_of_degree(empty, order, degree) == []
    assert basis_monomials_of_multidegree(empty, order, ()) == []


def test_basis_monomial_with_start():
    g4 = Graph(4, [])
    o4 = GeneratorOrder.ascending(4)
    m = basis_monomial_with_start((1, 0, 1, 1), 2, g4, o4)
    assert m == BasisMonomial((2, 0), (3,))
    assert basis_monomial_with_start((1, 0, 1, 1), 0, g4, o4) is None
    c4 = cycle_graph(4)
    assert basis_monomial_with_start((1, 1, 1, 0), 2, c4, o4) is None


def test_linear_and_derived_products():
    # products with derived parts keep only the mixed terms
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 5)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        a = random_element(g, o, rng, max_degree=3)
        b = random_element(g, o, rng, max_degree=3)
        a_lin = LieElement(g, o, a.linear, {})
        a_der = LieElement(g, o, {}, a.derived)
        b_lin = LieElement(g, o, b.linear, {})
        b_der = LieElement(g, o, {}, b.derived)
        lhs = bracket(a, b)
        rhs = (
            bracket(a_lin, b_lin)
            - bracket(b_der, a_lin)
            + bracket(a_der, b_lin)
        )
        assert lhs == rhs
        triple = bracket(bracket(a, b), b)
        assert triple == bracket(bracket(a, b), b_lin)


def test_scalar_arithmetic():
    x = gens(FREE3, ASC3)
    e = 2 * x[0] - x[1] * 3
    assert e.linear == {0: 2, 1: -3}
    assert (e - e).is_zero()
    assert (-e) + e == LieElement.zero(FREE3, ASC3)


def test_basis_monomial_count_is_components_minus_one():
    rng = random.Random(53)
    from pcml.graphs import components_within

    for _ in range(50):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        o = GeneratorOrder.ascending(n)
        delta = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(delta) < 2:
            continue
        supp = {i for i, d in enumerate(delta) if d}
        expected = max(len(components_within(g, supp)) - 1, 0) if len(supp) > 1 else 0
        assert len(basis_monomials_of_multidegree(g, o, delta)) == expected


def test_from_monomial_accepts_only_basis_monomials():
    from pcml.textio import parse_element

    c4 = cycle_graph(4)
    o4 = GeneratorOrder.ascending(4)
    # [x1,x3] is -[x3,x1]; storing it as given would make a second,
    # unequal representation of that element
    with pytest.raises(AlgebraError):
        LieElement.from_monomial(c4, o4, BasisMonomial((1, 3), ()))
    with pytest.raises(AlgebraError):
        LieElement.from_monomial(c4, o4, BasisMonomial((9, 0), ()))
    # an edge head, an unsorted tail, and a head that is not the greatest of its component
    for bad in (BasisMonomial((1, 0), ()), BasisMonomial((3, 0), (2, 1)), BasisMonomial((2, 0), (3,))):
        with pytest.raises(AlgebraError):
            LieElement.from_monomial(c4, o4, bad)
    good = LieElement.from_monomial(c4, o4, BasisMonomial((3, 1), ()), -2)
    assert good == parse_element("-2*[x3,x1]", c4, o4) == parse_element("2*[x1,x3]", c4, o4)
    assert LieElement.from_monomial(c4, o4, BasisMonomial((3, 1), ()), 0).is_zero()
    for delta in multidegrees(4, 4):
        for m in basis_monomials_of_multidegree(c4, o4, delta):
            assert LieElement.from_monomial(c4, o4, m).derived == {m: 1}


def test_the_constructor_checks_outside_terms():
    c4, o4 = cycle_graph(4), GeneratorOrder.ascending(4)
    # stored as given, x9 would break a later bracket, and the non-basis
    # [x1,x3] would compare unequal to the equal -[x3,x1]
    with pytest.raises(AlgebraError, match="unknown generator x9"):
        LieElement(c4, o4, {9: 1}, {})
    with pytest.raises(AlgebraError, match=r"\[x1,x3\] is not a basis monomial"):
        LieElement(c4, o4, {}, {BasisMonomial((1, 3), ()): 1})
    for bad in (-1, 4):
        with pytest.raises(AlgebraError):
            LieElement.generator(c4, o4, bad)
        with pytest.raises(AlgebraError):
            LieElement.from_linear(c4, o4, {0: 1, bad: 2})
    u = LieElement(c4, o4, {2: 3}, {BasisMonomial((3, 1), ()): -2})
    assert u == LieElement.generator(c4, o4, 2) * 3 + LieElement.from_monomial(c4, o4, BasisMonomial((3, 1), ()), -2)
    # a constant polynomial acts as a scalar
    v = LieElement(c4, o4, {}, u.derived)
    assert act(v, AssocPoly(4, {(0, 0, 0, 0): 5})) == v * 5


@pytest.mark.parametrize("n", [3, 5])
def test_basis_functions_reject_an_order_that_does_not_fit(n):
    c4, order = cycle_graph(4), GeneratorOrder.ascending(n)
    # letters and multidegrees inside the shorter order, so that without
    # the check the shorter order gives an answer
    message = f"order on {n} generators does not fit a graph on 4"
    with pytest.raises(AlgebraError, match=message):
        is_basis_monomial((2, 0), (), c4, order)
    with pytest.raises(AlgebraError, match=message):
        basis_monomials_of_multidegree(c4, order, (1, 1, 1, 0))
    with pytest.raises(AlgebraError, match=message):
        basis_monomial_with_start((1, 1, 1, 0), 2, c4, order)
    with pytest.raises(AlgebraError, match=message):
        oracle.certify_basis(c4, (1, 0, 1, 0), order)


def test_two_threads_that_both_miss_intern_one_algebra(monkeypatch):
    # each thread's first lookup waits for the other's, so both miss
    # before either stores
    barrier = threading.Barrier(2, timeout=10)
    first = set()

    class Racing(weakref.WeakValueDictionary):
        def get(self, key, default=None):
            out = super().get(key, default)
            if threading.get_ident() not in first:
                first.add(threading.get_ident())
                barrier.wait()
            return out

    monkeypatch.setattr(core, "_ALGEBRAS", Racing())
    graph, order = Graph(6, [(1, 4)]), GeneratorOrder([5, 0, 4, 1, 3, 2])
    found = [None, None]

    def intern(k):
        found[k] = Algebra.of(graph, order)

    threads = [threading.Thread(target=intern, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert found[0] is not None and found[0] is found[1]


def test_threads_interning_fresh_pairs_share_one_algebra_per_pair():
    # more threads than cores, switching every microsecond; every result
    # is kept, so no algebra is dropped and interned again
    graph = Graph(6, [(0, 3), (2, 5)])
    orders = [GeneratorOrder(p) for p in permutations(range(6))]
    found = [[] for _ in range(4)]

    def intern(k):
        step = 1 if k % 2 else -1
        found[k] = [Algebra.of(graph, order) for order in orders[::step]][::step]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for per_order in zip(*found):
        assert len(per_order) == 4 and all(a is per_order[0] for a in per_order)
    assert len(found[0]) == 720


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit")
def test_format_element_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    c4, order = cycle_graph(4), GeneratorOrder.ascending(4)
    big = int("7" * (limit // 2 + 50))
    left = LieElement.generator(c4, order, 0) * big
    right = LieElement.generator(c4, order, 2) * big
    assert format_element(left).startswith("7" * 100)
    with pytest.raises(AlgebraError, match=f"coefficient of about .* digits is over the {limit}-digit limit"):
        format_element(bracket(left, right))

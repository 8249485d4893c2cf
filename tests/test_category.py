import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from brauercat import category
from brauercat.category import (Morphism, check_eq_ch, compose_by_orbits, compose_diagrams,
                                closure_loops, e_rec, e_sum, generator_s,
                                generator_u, r_element, tensor_diagrams)
from brauercat.cli import _is_idempotent
from brauercat.expr import parse_morphism
from brauercat.matchings import Diagram, PerfectMatching, enumerate_matchings, unbend
from brauercat.pfaffian import PfGenerator, find_violation, normal_form, pfaffian, rewrite_step
from brauercat.scalars import DeltaPoly, as_scalar, loop_factor
from oracles import (check_eq_ch_by_definition, closure_loops_by_union_find,
                     compose_by_definition, glue_by_union_find)

D = DeltaPoly.delta()


def diagrams(r, s):
    return [Diagram(r, s, pm) for pm in enumerate_matchings(r + s)]


def as_m(d, delta=None):
    return Morphism.from_diagram(d, delta)


def test_compose_generators():
    u = as_m(generator_u(1, 2))
    s = as_m(generator_s(1, 2))
    ident = Morphism.identity(2)
    assert u * u == u.scaled(D)
    assert s * s == ident
    assert s * u == u
    assert u * s == u


def test_compose_shape_mismatch():
    with pytest.raises(ValueError, match="compose"):
        as_m(Diagram.identity(2)) * as_m(Diagram.identity(3))


def test_compose_matches_union_find_gluing():
    # every composable pair with r+s <= 6 and s+t <= 6, including s, r or t = 0
    pairs = 0
    for s in range(7):
        for r, t in product(range(s % 2, 7 - s, 2), repeat=2):
            for x, y in product(diagrams(r, s), diagrams(s, t)):
                loops, glued = compose_diagrams(x, y)
                assert (glued.r, glued.s) == (r, t)
                assert (loops, glued.matching.pairs) == glue_by_union_find(
                    x.matching.pairs, y.matching.pairs, r, s, t), (x, y)
                pairs += 1
    assert pairs == 2220


def test_associativity_small_shapes():
    # every triple of composable diagrams whose shapes sum to at most 8 points
    shapes = []
    for r, s, t, u in product(range(5), repeat=4):
        if (r + s) % 2 == 0 and (s + t) % 2 == 0 and (t + u) % 2 == 0 \
                and 0 < (r + s) + (s + t) + (t + u) <= 8:
            shapes.append((r, s, t, u))
    for r, s, t, u in shapes:
        for dx in diagrams(r, s):
            for dy in diagrams(s, t):
                for dz in diagrams(t, u):
                    x, y, z = as_m(dx), as_m(dy), as_m(dz)
                    assert (x * y) * z == x * (y * z)


def test_tensor_examples():
    id1 = Morphism.identity(1)
    assert id1 @ id1 == Morphism.identity(2)
    u = generator_u(1, 2)
    shifted = tensor_diagrams(u, Diagram.identity(1))
    assert shifted == generator_u(1, 3)


def test_interchange_law():
    pool = diagrams(1, 1) + diagrams(2, 2)
    for dx, dy in product(pool, repeat=2):
        for dx2 in diagrams(dx.s, dx.s):
            for dy2 in diagrams(dy.s, dy.s):
                lhs = (as_m(dx) @ as_m(dy)) * (as_m(dx2) @ as_m(dy2))
                rhs = (as_m(dx) * as_m(dx2)) @ (as_m(dy) * as_m(dy2))
                assert lhs == rhs


def test_trace_examples():
    for m in range(1, 4):
        assert Morphism.identity(m).trace() == D ** m
    assert as_m(generator_s(1, 2)).trace() == D
    assert as_m(generator_u(1, 2)).trace() == D
    with pytest.raises(ValueError, match="square"):
        as_m(diagrams(0, 2)[0]).trace()


def test_trace_identities():
    # closures against padding, swap and cap insertions, at most 3 strands
    for n in (1, 2):
        for da in diagrams(n, n):
            a = as_m(da)
            assert (a @ Morphism.identity(1)).trace() == D * a.trace()
            for db in diagrams(n, n):
                b = as_m(db)
                pad_a = a @ Morphism.identity(1)
                pad_b = b @ Morphism.identity(1)
                s_n = as_m(generator_s(n, n + 1))
                u_n = as_m(generator_u(n, n + 1))
                assert (pad_a * s_n * pad_b).trace() == (a * b).trace()
                assert (pad_a * u_n * pad_b).trace() == (a * b).trace()


def test_generator_shapes():
    assert generator_u(1, 2).matching == PerfectMatching(((1, 2), (3, 4)))
    assert generator_s(1, 2).matching == PerfectMatching(((1, 4), (2, 3)))
    for m in range(2, 5):
        assert generator_s(1, m).propagating_number == m
        assert generator_u(1, m).propagating_number == m - 2
    with pytest.raises(ValueError):
        generator_u(3, 3)


def test_r_element():
    for m in (2, 3):
        assert r_element(1, 0, m, Fraction(-2)) == Morphism.identity(m, Fraction(-2))
    for n in (1, 2, 3):
        delta = Fraction(-2 * n)
        got = r_element(n, n, n + 1, delta)
        coeff = Fraction(1, n + 1)
        want = Morphism(n + 1, n + 1, {
            Diagram.identity(n + 1): coeff,
            generator_s(n, n + 1): coeff * n,
            generator_u(n, n + 1): coeff * n,
        }, delta)
        assert got == want
    with pytest.raises(ValueError, match="pole"):
        r_element(1, 2, 3, Fraction(-2))
    with pytest.raises(ValueError, match="specialization"):
        r_element(1, 1, 2, None)


def yang_baxter_holds(i, h, k, m, delta) -> bool:
    lhs = r_element(i, h, m, delta) * r_element(i + 1, h + k, m, delta) \
        * r_element(i, k, m, delta)
    rhs = r_element(i + 1, k, m, delta) * r_element(i, h + k, m, delta) \
        * r_element(i + 1, h, m, delta)
    return lhs == rhs


def test_yang_baxter_specializations():
    deltas = [Fraction(x) for x in range(-20, -13)]
    for m, i in [(3, 1), (4, 1), (4, 2)]:
        for h, k in product(range(0, 3), repeat=2):
            for delta in deltas:
                assert yang_baxter_holds(i, h, k, m, delta)


def test_far_commutation():
    deltas = [Fraction(x) for x in range(-20, -13)]
    for h, k in product(range(0, 3), repeat=2):
        for delta in deltas:
            lhs = r_element(1, h, 4, delta) * r_element(3, k, 4, delta)
            rhs = r_element(3, k, 4, delta) * r_element(1, h, 4, delta)
            assert lhs == rhs


def test_e_sum_small():
    e = e_sum(1)
    third = Fraction(1, 2)
    assert e.terms == {
        Diagram.identity(2): third,
        generator_s(1, 2): third,
        generator_u(1, 2): third,
    }
    assert e * e == e
    assert as_m(generator_u(1, 2), Fraction(-2)) * e == Morphism.zero(2, 2, Fraction(-2))


def test_e_rec_matches_sum():
    for n in range(1, 6):
        assert e_rec(n) == e_sum(n), n


def test_e_rec_builds_each_deformation_element_once(monkeypatch):
    calls, products = [], []

    def counted(i, k, m, delta):
        calls.append((i, k, m))
        return r_element(i, k, m, delta)

    def counting(name):
        original = getattr(Morphism, name)

        def wrapper(self, other):
            products.append(name)
            return original(self, other)
        return wrapper
    monkeypatch.setattr(category, "r_element", counted)
    for name in ("__mul__", "__matmul__"):
        monkeypatch.setattr(Morphism, name, counting(name))
    # delta = -4 = 2 - 2k is a pole of R_3(3): it raises before any product
    with pytest.raises(ValueError, match="pole"):
        e_rec(3, Fraction(-4))
    assert calls == [(1, 1, 2), (2, 2, 3), (3, 3, 4)] and products == []
    for n in range(1, 5):
        calls.clear()
        e_rec(n)
        assert calls == [(k, k, k + 1) for k in range(1, n + 1)], n


def test_eq_ch():
    assert check_eq_ch(e_sum(1), 1).passed
    assert check_eq_ch(e_sum(2), 2).passed
    bad = check_eq_ch(e_sum(1, Fraction(-4)), 1)
    assert not bad.passed
    assert bad.witness == generator_u(1, 2)


def test_rank_below_one_is_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        e_sum(0)
    with pytest.raises(ValueError, match="at least 1"):
        e_rec(0)
    with pytest.raises(ValueError, match="at least 1"):
        check_eq_ch(Morphism.identity(1, Fraction(0)), 0)


def test_multi_term_coefficients_print_in_parentheses():
    u = as_m(generator_u(1, 2))
    s = as_m(generator_s(1, 2))
    assert str(u - u * u) == "(1 - d)*2|2:(1,2)(3,4)"
    assert str(u * u * u) == "d^2*2|2:(1,2)(3,4)"
    assert str(s - u * u) == "-d*2|2:(1,2)(3,4) + 1*2|2:(1,3)(2,4)"
    assert str((D - 2) * u + s * 3) == "(-2 + d)*2|2:(1,2)(3,4) + 3*2|2:(1,3)(2,4)"
    assert str(e_sum(1) - e_sum(1).scaled(3)) == \
        "-1*2|2:(1,2)(3,4) - 1*2|2:(1,3)(2,4) - 1*2|2:(1,4)(2,3)"


@pytest.mark.parametrize("delta", (Fraction(-6), Fraction(7, 3), Fraction(-1, 2), None), ids=str)
def test_trace_is_the_sum_over_terms(delta):
    # the integer-weighted trace against coeff * delta^loops summed term by term,
    # loops counted by union-find
    rng = random.Random(f"trace {delta}")
    for m in range(5):
        pool = diagrams(m, m)
        for _ in range(6):
            x = Morphism(m, m, {d: _random_coeff(rng, delta)
                                for d in rng.sample(pool, rng.randint(0, min(8, len(pool))))},
                         delta)
            want = as_scalar(0, delta)
            for d, c in x.terms.items():
                want = want + c * loop_factor(closure_loops_by_union_find(d.matching.pairs, m),
                                              delta)
            got = x.trace()
            assert got == want and type(got) is type(want), x


def test_trace_of_e():
    formal = e_sum(1, None).trace()
    assert formal == (D * (D + 2)) * Fraction(1, 2)
    assert e_sum(1).trace() == 0
    assert e_sum(2).trace() == 0


def specialize(m, delta0):
    """The formal morphism m with its loop parameter evaluated at delta0."""
    return Morphism(m.r, m.s, {d: c.evaluate(delta0) for d, c in m.terms.items()}, delta0)


def test_specialize_commutes_with_composition():
    delta0 = Fraction(-3, 2)
    for dx in diagrams(2, 2):
        for dy in diagrams(2, 2):
            x, y = as_m(dx), as_m(dy)
            spec_then = specialize(x, delta0) * specialize(y, delta0)
            then_spec = specialize(x * y, delta0)
            assert spec_then == then_spec


def test_closure_loops():
    assert closure_loops(Diagram.identity(3)) == 3
    assert closure_loops(generator_s(1, 2)) == 1
    assert closure_loops(generator_u(1, 2)) == 1


def test_closure_loops_match_union_find():
    for m in range(6):
        for d in diagrams(m, m):
            assert closure_loops(d) == closure_loops_by_union_find(d.matching.pairs, m), d


# (m, i): the pairs of u_i and of s_i on m strands, top 1..m, bottom m+1..2m
GENERATOR_PAIRS = {
    (2, 1): ("(1,2)(3,4)", "(1,4)(2,3)"),
    (3, 1): ("(1,2)(3,6)(4,5)", "(1,5)(2,4)(3,6)"),
    (3, 2): ("(1,4)(2,3)(5,6)", "(1,4)(2,6)(3,5)"),
    (4, 1): ("(1,2)(3,7)(4,8)(5,6)", "(1,6)(2,5)(3,7)(4,8)"),
    (4, 2): ("(1,5)(2,3)(4,8)(6,7)", "(1,5)(2,7)(3,6)(4,8)"),
    (4, 3): ("(1,5)(2,6)(3,4)(7,8)", "(1,5)(2,6)(3,8)(4,7)"),
    (5, 1): ("(1,2)(3,8)(4,9)(5,10)(6,7)", "(1,7)(2,6)(3,8)(4,9)(5,10)"),
    (5, 2): ("(1,6)(2,3)(4,9)(5,10)(7,8)", "(1,6)(2,8)(3,7)(4,9)(5,10)"),
    (5, 3): ("(1,6)(2,7)(3,4)(5,10)(8,9)", "(1,6)(2,7)(3,9)(4,8)(5,10)"),
    (5, 4): ("(1,6)(2,7)(3,8)(4,5)(9,10)", "(1,6)(2,7)(3,8)(4,10)(5,9)"),
}


def test_generators_match_explicit_pairs():
    for m in range(1, 6):
        for i in range(-1, m + 1):
            if (m, i) in GENERATOR_PAIRS:
                for gen, want in zip((generator_u, generator_s), GENERATOR_PAIRS[m, i]):
                    d = gen(i, m)
                    assert (d.r, d.s, str(d.matching)) == (m, m, want), (gen, i, m)
                continue
            for gen in (generator_u, generator_s):
                with pytest.raises(ValueError, match=f"index {i} out of range for {m} strands"):
                    gen(i, m)


def test_morphism_ring_guard():
    formal = Morphism.identity(2)
    special = Morphism.identity(2, Fraction(-2))
    with pytest.raises(ValueError, match="mixed"):
        formal * special


PRODUCT_DELTAS = (None, Fraction(-2), Fraction(-4), Fraction(0), Fraction(7, 3),
                  Fraction(-19, 5))


def _random_coeff(rng, delta):
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
    if delta is None:
        return DeltaPoly((c, Fraction(rng.randint(-5, 5), rng.randint(1, 7))))
    return c


def _random_morphism(rng, r, s, delta):
    pool = diagrams(r, s)
    chosen = rng.sample(pool, rng.randint(1, min(6, len(pool))))
    return Morphism(r, s, {d: _random_coeff(rng, delta) for d in chosen}, delta)


def _product_shapes():
    # every (r, s, t) with r+s and s+t at most 8 points: s = 0, odd s, s up to 6
    for s in range(7):
        for r, t in product(range(s % 2, 9 - s, 2), repeat=2):
            yield r, s, t


@pytest.mark.parametrize("delta", PRODUCT_DELTAS, ids=str)
def test_product_matches_termwise_oracle(delta):
    rng = random.Random(f"product {delta}")
    for r, s, t in _product_shapes():
        x = _random_morphism(rng, r, s, delta)
        y = _random_morphism(rng, s, t, delta)
        assert x * y == compose_by_definition(x, y), (x, y)
        zero_x, zero_y = Morphism.zero(r, s, delta), Morphism.zero(s, t, delta)
        assert x * zero_y == zero_x * y == zero_x * zero_y == Morphism.zero(r, t, delta)


@pytest.mark.parametrize("delta", PRODUCT_DELTAS, ids=str)
def test_product_terms_cancel_to_zero(delta):
    # dx * (c * delta^l2 * dy1 - c * delta^l1 * dy2) = 0 when dx glues dy1 and dy2
    # to the same diagram with l1 and l2 loops
    rng = random.Random(f"cancel {delta}")
    cancelled = 0
    for r, s, t in _product_shapes():
        dx = rng.choice(diagrams(r, s))
        by_glued = {}
        for dy in diagrams(s, t):
            loops, glued = compose_diagrams(dx, dy)
            by_glued.setdefault(glued, []).append((loops, dy))
        groups = [g for g in by_glued.values() if len(g) > 1]
        if not groups:
            continue
        (l1, dy1), (l2, dy2) = rng.sample(rng.choice(groups), 2)
        c = _random_coeff(rng, delta)
        x = Morphism.from_diagram(dx, delta, _random_coeff(rng, delta))
        y = Morphism(s, t, {dy1: c * loop_factor(l2, delta),
                            dy2: -c * loop_factor(l1, delta)}, delta)
        assert x * y == compose_by_definition(x, y) == Morphism.zero(r, t, delta), (x, y)
        cancelled += 1
    assert cancelled >= 20


@pytest.mark.parametrize("n", (1, 2, 3))
def test_e_times_e_is_e(n):
    e = e_sum(n)
    assert e * e == e
    if n < 3:
        assert e * e == compose_by_definition(e, e)
        formal = e_sum(n, None)
        assert formal * formal == compose_by_definition(formal, formal)


@pytest.mark.parametrize("n, delta", [(1, Fraction(-2)), (2, Fraction(-4)),
                                      (1, Fraction(-4)), (1, Fraction(7, 3))], ids=str)
def test_eq_ch_matches_definition_on_e(n, delta):
    report = check_eq_ch(e_sum(n, delta), n)
    assert report == check_eq_ch_by_definition(e_sum(n, delta), n)
    assert report.passed == (delta == -2 * n)


@pytest.mark.parametrize("m", (2, 3))
def test_eq_ch_matches_definition_on_random_morphisms(m):
    rng = random.Random(f"eq_ch {m}")
    for _ in range(20):
        e = _random_morphism(rng, m, m, rng.choice(PRODUCT_DELTAS[1:]))
        report = check_eq_ch(e, m - 1)
        assert report == check_eq_ch_by_definition(e, m - 1), e
        assert not report.passed and report.witness is not None


def _changed(e: Morphism) -> Morphism:
    """e with the coefficient of its identity term changed: no transposition of
    two top points, or of two bottom points, preserves it."""
    return Morphism(e.r, e.s, {**e.terms, Diagram.identity(e.r): Fraction(5)}, e.delta)


def _flipped(e: Morphism) -> Morphism:
    """e turned upside down: top point p and bottom point m + p trade places."""
    m = e.r
    flip = {p: p + m if p <= m else p - m for p in range(1, 2 * m + 1)}
    return Morphism(m, m, {Diagram(m, m, PerfectMatching(tuple((flip[a], flip[b])
                                                               for a, b in d.matching.pairs))): c
                           for d, c in e.terms.items()}, e.delta)


def _one_sided() -> Morphism:
    """On 4 strands at delta = -4, with flat labels (top points 4..1 as 1..4,
    bottom points 5..8): the flat matchings with the strand (6, 8) and not
    (5, 7), minus those with (5, 7) and not (6, 8).  Every generator
    relation but e s_i = e holds, so its top points alone form a block, and
    the u_1 products alone would pass it."""
    terms = {unbend(pm, 4, 4): 1 if (6, 8) in pm.pairs else -1
             for pm in enumerate_matchings(8) if ((6, 8) in pm.pairs) != ((5, 7) in pm.pairs)}
    return Morphism(4, 4, terms, Fraction(-4))


def test_one_sided_case_is_one_sided():
    e, delta = _one_sided(), Fraction(-4)
    for i in (1, 2, 3):
        s, u = as_m(generator_s(i, 4), delta), as_m(generator_u(i, 4), delta)
        assert s * e == e and (u * e).is_zero() and (e * u).is_zero()
    assert e * as_m(generator_s(1, 4), delta) != e
    block = category._blocks(e)
    assert len(set(block[1:5])) == 1 and len(set(block[5:])) > 1


def _orbit(x: Diagram, groups) -> frozenset:
    """The images of x under every permutation of the points within each group."""
    images = set()
    for perms in product(*(permutations(g) for g in groups)):
        to = {a: b for g, perm in zip(groups, perms) for a, b in zip(g, perm)}
        images.add(PerfectMatching(tuple((to.get(a, a), to.get(b, b))
                                         for a, b in x.matching.pairs)).pairs)
    return frozenset(images)


def test_witness_scan_forms_one_product_per_orbit(monkeypatch):
    # x*e depends only on the orbit of x's bottom points under e's top blocks, and
    # e*x on that of x's top points under e's bottom blocks: the scan forms one
    # product per orbit met, up to its witness
    e = _one_sided()
    cases = [(e, [(5, 6, 7, 8)], [(1, 3), (2, 4)]), (_flipped(e), [(5, 7), (6, 8)], [(1, 2, 3, 4)])]
    assert category._blocks(e) == [0, 1, 1, 1, 1, 5, 6, 5, 6]
    for e, below_e, above_e in cases:
        mul, products = Morphism.__mul__, []
        monkeypatch.setattr(Morphism, "__mul__", lambda a, b: products.append(
            "x*e" if b is e else "e*x") or mul(a, b))
        report = check_eq_ch(e, 3)
        monkeypatch.undo()
        seen = {"x*e": set(), "e*x": set()}
        for pm in enumerate_matchings(8):
            x = Diagram(4, 4, pm)
            seen["x*e"].add(_orbit(x, below_e))
            if x == report.witness and report.detail.startswith("x*e"):
                break
            seen["e*x"].add(_orbit(x, above_e))
            if x == report.witness:
                break
        assert products.count("x*e") == len(seen["x*e"])
        assert products.count("e*x") == len(seen["e*x"])


def _certificate_cases():
    yield pytest.param(3, _one_sided(), id="one-sided")
    yield pytest.param(3, _flipped(_one_sided()), id="one-sided flipped")
    for n in (1, 2, 3):
        for delta in dict.fromkeys((Fraction(-2 * n), Fraction(7, 3), Fraction(-2 * n - 2),
                                    Fraction(-4))):
            yield pytest.param(n, e_sum(n, delta), id=f"e_sum({n}, {delta})")
        yield pytest.param(n, _changed(e_sum(n)), id=f"changed e_sum({n})")
        yield pytest.param(n, Morphism.zero(n + 1, n + 1, Fraction(-2 * n)), id=f"zero({n})")
        yield pytest.param(n, e_sum(n).scaled(2), id=f"2*e_sum({n})")  # central, not idempotent
        yield pytest.param(n, e_sum(n, None), id=f"e_sum({n}, None)")


@pytest.mark.parametrize("n, e", _certificate_cases())
def test_generator_certificate_matches_definition(n, e):
    report = check_eq_ch(e, n)
    assert report == check_eq_ch_by_definition(e, n)
    assert _is_idempotent(e, report.passed) == (e * e == e)


def test_generator_certificate_glues_4n_products(monkeypatch):
    e = e_sum(3)
    glue = category._glue
    glued = []

    def counting_glue(*args):
        glued.append(1)
        return glue(*args)

    monkeypatch.setattr(category, "_glue", counting_glue)
    assert check_eq_ch(e, 3).passed
    assert len(glued) <= 4 * 3 * 105  # 4n generator products with the 105 terms of e


def _counting_glue(monkeypatch) -> list:
    """Patch ``_glue`` to count its calls into the returned list."""
    glue, glued = category._glue, []
    monkeypatch.setattr(category, "_glue", lambda *args: glued.append(1) or glue(*args))
    return glued


def test_central_certificate_reads_the_blocks_and_glues_two_products(monkeypatch):
    # s_i * e = e = e * s_i is read off the point blocks, and u_1 * e = 0 = e * u_1
    # settles every u_i: 2N pairs for the N terms of a central e
    for n in (1, 2, 3, 4):
        e = e_sum(n)
        glued = _counting_glue(monkeypatch)
        assert check_eq_ch(e, n).passed
        assert len(glued) == 2 * len(e.terms), n
        monkeypatch.undo()
        # a changed coefficient puts no two top points, and no two bottom points,
        # in one block
        block = category._blocks(_changed(e))
        assert len(set(block[1:n + 2])) == len(set(block[n + 2:])) == n + 1


@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_compose_by_orbits_matches_plain_products(monkeypatch, j):
    # left factors with several terms per orbit of their bottom points, against
    # e_sum(j) (x) id, which the permutations of its first j + 1 top points
    # preserve, and against the same with one coefficient changed, which no
    # transposition of two top points preserves
    rng = random.Random(f"orbits {j}")
    m = j + 2
    pool = diagrams(m, m)
    for delta in (Fraction(-2 * j), Fraction(7, 3)):
        y = e_sum(j, delta) @ Morphism.identity(1, delta)
        top = category._blocks(y)[1:m + 1]
        assert len(set(top[:-1])) == 1 and top[-1] not in top[:-1], top
        changed = _changed(y)
        assert len(set(category._blocks(changed)[1:m + 1])) == m
        # symmetric on its bottom points, not on its top points
        below = _random_morphism(rng, m, m, delta) * y
        for _ in range(3):
            terms = {}
            for d in rng.sample(pool, 4):
                for _ in range(3):  # d with its first m - 1 bottom points permuted
                    perm = rng.sample(range(m + 1, 2 * m), m - 1) + [2 * m]
                    to = {m + g: p for g, p in enumerate(perm, 1)}
                    moved = PerfectMatching(tuple((to.get(a, a), to.get(b, b))
                                                  for a, b in d.matching.pairs))
                    terms[Diagram(m, m, moved)] = _random_coeff(rng, delta)
            x = Morphism(m, m, terms, delta)
            for right in (y, changed, below):
                want = x * right
                glued = _counting_glue(monkeypatch)
                assert compose_by_orbits(x, right) == want, x
                monkeypatch.undo()
                if right is y:
                    assert len(glued) < len(x.terms) * len(y.terms)
                elif right is changed:  # no two terms of x share an orbit
                    assert len(glued) == len(x.terms) * len(changed.terms)


def test_accumulate_is_one_signed_sum():
    rng = random.Random(18)
    pool = diagrams(2, 2)
    delta = Fraction(-2)
    ms = [Morphism(2, 2, {d: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for d in rng.sample(pool, 2)}, delta) for _ in range(6)]
    signs = [rng.choice((1, -1)) for _ in ms]
    want = {}
    for sign, m in zip(signs, ms):
        for d, c in m.terms.items():
            want[d] = want.get(d, 0) + sign * c
    got = ms[0].scaled(signs[0]).accumulate(zip(signs[1:], ms[1:]))
    assert got == Morphism(2, 2, want, delta)
    assert ms[0] - ms[1] == ms[0] + ms[1].scaled(-1) == ms[0].accumulate([(-1, ms[1])])
    # the two-term operators keep their ring and shape checks
    with pytest.raises(ValueError, match=r"mixed coefficient rings: delta=-2 vs delta=None"):
        ms[0] - as_m(generator_u(1, 2))
    with pytest.raises(ValueError, match=r"cannot add shapes \(2,2\) and \(1,1\)"):
        ms[0] + Morphism.identity(1, delta)


def _coefficients_in_ring(m):
    """Every coefficient is a nonzero Fraction (specialized) or DeltaPoly (formal)."""
    ring = DeltaPoly if m.delta is None else Fraction
    return all(type(c) is ring and c for c in m.terms.values())


@pytest.mark.parametrize("delta", PRODUCT_DELTAS, ids=str)
def test_arithmetic_results_keep_coefficients_in_the_ring(delta):
    # results of arithmetic skip the constructor's coercion, so an int or a zero
    # left in them would show here; integer coefficients make integer products
    rng = random.Random(f"ring {delta}")
    whole = Morphism(2, 2, {d: rng.choice((1, -2, 3)) for d in diagrams(2, 2)}, delta)
    results = [whole * whole, whole.scaled(2), whole.scaled(0), whole.scaled(Fraction(1, 3)),
               whole - whole, whole.accumulate([(1, whole), (-1, whole.scaled(2))]),
               whole @ whole, whole @ Morphism.identity(1, delta)]
    for r, s, t in _product_shapes():
        x, y = _random_morphism(rng, r, s, delta), _random_morphism(rng, s, t, delta)
        results += [x * y, x.scaled(-3), x.accumulate([(-1, x), (1, x.scaled(2))]), x @ y]
    flat = Morphism(0, 6, {d: rng.choice((1, -1)) for d in diagrams(0, 6)}, delta)
    results += [normal_form(flat, 1), normal_form(whole, 1)]
    crossing = Diagram(0, 6, PerfectMatching(((1, 4), (2, 5), (3, 6))))
    results += [pfaffian(PfGenerator(1, 6, (1, 2, 4, 5), ((3, 6),)), delta),
                pfaffian(PfGenerator(2, 6, tuple(range(1, 7)), ()), delta),
                rewrite_step(crossing, find_violation(crossing, 1), delta),
                rewrite_step(crossing, find_violation(crossing, 2), delta)]
    if delta is not None:
        results.append(parse_morphism(str(flat.scaled(Fraction(-5, 7))), delta))
    else:
        results.append(parse_morphism("2*(1,2)(3,4) - 1/2*(1,4)(2,3) + 0*(1,3)(2,4)"))
    assert all(_coefficients_in_ring(m) for m in results)
    assert any(m.terms for m in results) and whole.scaled(0).is_zero()

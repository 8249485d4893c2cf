import random
from fractions import Fraction
from itertools import product

import pytest

from brauercat import category
from brauercat.category import (Morphism, check_eq_ch, compose_diagrams,
                                closure_loops, e_rec, e_sum, generator_s,
                                generator_u, r_element, tensor_diagrams)
from brauercat.cli import _is_idempotent
from brauercat.matchings import Diagram, PerfectMatching, enumerate_matchings
from brauercat.scalars import DeltaPoly, loop_factor
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
    for n in (1, 2):
        assert e_rec(n) == e_sum(n)


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


def test_negative_power_is_rejected():
    u = as_m(generator_u(1, 2))
    assert u ** 0 == Morphism.identity(2)
    assert u ** 2 == u * u
    with pytest.raises(ValueError, match="negative"):
        u ** -1


def test_multi_term_coefficients_print_in_parentheses():
    u = as_m(generator_u(1, 2))
    s = as_m(generator_s(1, 2))
    assert str(u - u * u) == "(1 - d)*2|2:(1,2)(3,4)"
    assert str(u * u * u) == "d^2*2|2:(1,2)(3,4)"
    assert str(s - u * u) == "-d*2|2:(1,2)(3,4) + 1*2|2:(1,3)(2,4)"
    assert str((D - 2) * u + s * 3) == "(-2 + d)*2|2:(1,2)(3,4) + 3*2|2:(1,3)(2,4)"
    assert str(e_sum(1) - e_sum(1).scaled(3)) == \
        "-1*2|2:(1,2)(3,4) - 1*2|2:(1,3)(2,4) - 1*2|2:(1,4)(2,3)"


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


def _certificate_cases():
    for n in (1, 2, 3):
        for delta in (Fraction(-2 * n), Fraction(7, 3), Fraction(-2 * n - 2)):
            yield pytest.param(n, e_sum(n, delta), id=f"e_sum({n}, {delta})")
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

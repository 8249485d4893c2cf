import random
import sys
from fractions import Fraction

import pytest

from brauercat.category import Morphism, e_sum
from brauercat.matchings import (Diagram, PerfectMatching, bend, crossing_pairs,
                                 enumerate_matchings, enumerate_X,
                                 find_mutually_crossing, unbend)
from brauercat.pfaffian import (PfGenerator, _rewrite_pairs, find_violation,
                                normal_form, pfaffian, rewrite_step)
from brauercat.scalars import DeltaPoly
from oracles import (all_matchings, crossing_count_by_definition, double_factorial,
                     enumerate_pf_generators, first_k_mutual_crossing,
                     normal_form_rescan, orbit_by_moves, rewrite_by_definition)

PFAFFIAN = sys.modules["brauercat.pfaffian"]  # the package exports a function of that name

PM = PerfectMatching


def flat(pairs):
    pm = PM(pairs)
    return Diagram(0, pm.n_points, pm)


def test_generator_validation():
    with pytest.raises(ValueError, match="subset"):
        PfGenerator(1, 6, (1, 2, 3), ((4, 5),))
    with pytest.raises(ValueError, match="partition"):
        PfGenerator(1, 6, (1, 2, 3, 4), ((4, 5),))


@pytest.mark.parametrize("n", [1, 2])
def test_pfaffian_term_count(n):
    points = 2 * (n + 1)
    g = PfGenerator(n, points, tuple(range(1, points + 1)), ())
    pf = pfaffian(g)
    assert len(pf.terms) == double_factorial(2 * n + 1)
    assert all(c == 1 for c in pf.terms.values())


def test_pfaffian_is_bent_idempotent_sum():
    # the all-diagram average on n+1 strands equals the empty-rest generator
    # after flattening, up to the (n+1)! normalization
    for n in (1, 2):
        e = e_sum(n)
        flattened = Morphism(0, 2 * (n + 1),
                             {bend(d): c for d, c in e.terms.items()})
        g = PfGenerator(n, 2 * (n + 1), tuple(range(1, 2 * (n + 1) + 1)), ())
        import math
        assert pfaffian(g).scaled(Fraction(1, math.factorial(n + 1))) == flattened


def test_enumerate_generators():
    gens = list(enumerate_pf_generators(1, 6))
    assert len(gens) == 15  # C(6,4) subsets times the single matching of 2 points
    assert len(set(gens)) == 15
    assert list(enumerate_pf_generators(2, 4)) == []


def test_find_violation():
    assert find_violation(flat(((1, 2), (3, 4))), 1) is None
    assert find_violation(flat(((1, 3), (2, 4))), 1) == ((1, 3), (2, 4))
    assert find_violation(flat(((1, 4), (2, 5), (3, 6))), 2) == ((1, 4), (2, 5), (3, 6))


def test_rewrite_step_example():
    d = flat(((1, 3), (2, 4)))
    out = rewrite_step(d, ((1, 3), (2, 4)))
    assert out == Morphism(0, 4, {flat(((1, 2), (3, 4))): -1,
                                  flat(((1, 4), (2, 3))): -1})


def test_rewrite_step_term_count_and_measure():
    for n, points in ((1, 6), (1, 8), (2, 8)):
        for pm in enumerate_matchings(points):
            d = Diagram(0, points, pm)
            v = find_violation(d, n)
            if v is None:
                continue
            out = rewrite_step(d, v)  # internally asserts the crossing decrease
            assert len(out.terms) == double_factorial(2 * n + 1) - 1


@pytest.mark.parametrize("n", [1, 2])
def test_rewrite_kernel_matches_definition(n):
    # the first violation of every matching of up to 10 points
    for points in range(2 * (n + 1), 11, 2):
        for pairs in all_matchings(points):
            violation = first_k_mutual_crossing(pairs, n + 1)
            if violation is None:
                continue
            want = rewrite_by_definition(pairs, violation)
            got = list(_rewrite_pairs(pairs, violation, crossing_count_by_definition(pairs)))
            assert len(got) == len(want) and dict(got) == want, pairs
            assert rewrite_step(flat(pairs), violation) == \
                Morphism(0, points, {flat(e): -1 for e in want}), pairs


def test_rewrite_step_rejects_noncrossing_subset():
    d = flat(((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="cross"):
        rewrite_step(d, ((1, 2), (3, 4)))


def test_normal_form_fixed_point():
    for r, n in [(2, 1), (3, 1), (3, 2)]:
        for pm in enumerate_X(r, n):
            m = Morphism.from_diagram(Diagram(0, 2 * r, pm))
            assert normal_form(m, n) == m


def test_normal_form_single_step():
    m = Morphism.from_diagram(flat(((1, 3), (2, 4))))
    assert normal_form(m, 1) == Morphism(
        0, 4, {flat(((1, 2), (3, 4))): -1, flat(((1, 4), (2, 3))): -1})


def test_normal_form_support_is_noncrossing():
    for n, points in ((1, 6), (2, 8)):
        for pm in enumerate_matchings(points):
            m = Morphism.from_diagram(Diagram(0, points, pm))
            reduced = normal_form(m, n)
            for d in reduced.terms:
                assert find_mutually_crossing(d.matching, n + 1) is None


def test_normal_form_idempotent_and_linear():
    for pm_a, pm_b in [(((1, 3), (2, 4)), ((1, 2), (3, 4))),
                       (((1, 4), (2, 6), (3, 5)), ((1, 5), (2, 4), (3, 6)))]:
        a = Morphism.from_diagram(flat(pm_a))
        b = Morphism.from_diagram(flat(pm_b))
        combo = a.scaled(3) + b.scaled(Fraction(-1, 2))
        nf = normal_form(combo, 1)
        assert normal_form(nf, 1) == nf
        assert nf == normal_form(a, 1).scaled(3) + normal_form(b, 1).scaled(Fraction(-1, 2))


def test_normal_form_bends_other_shapes():
    from brauercat.category import generator_s, generator_u
    s = Morphism.from_diagram(generator_s(1, 2))
    reduced = normal_form(s, 1)
    assert (reduced.r, reduced.s) == (2, 2)
    # the crossing strand pattern rewrites into the two flat diagrams
    u = Morphism.from_diagram(generator_u(1, 2))
    ident = Morphism.identity(2)
    assert reduced == (u + ident).scaled(-1)
    assert normal_form(u, 1) == u


def test_trace_hook():
    for n, pm in ((1, ((1, 4), (2, 5), (3, 6))), (2, ((1, 6), (2, 7), (3, 8), (4, 9), (5, 10)))):
        steps = []
        normal_form(Morphism.from_diagram(flat(pm)), n, steps)
        assert steps and all(isinstance(d, Diagram) for d in steps)
        assert len(set(steps)) == len(steps)
        assert all(find_violation(d, n) is not None for d in steps)
        counts = [crossing_pairs(d.matching) for d in steps]
        assert counts == sorted(counts, reverse=True)


def test_cancelled_diagram_is_not_rewritten():
    # (1,4)(2,5)(3,6) rewrites to -(1,5)(2,4)(3,6) among others, which cancels
    # the second input term before its bucket is reached
    first = flat(((1, 4), (2, 5), (3, 6)))
    m = Morphism(0, 6, {first: 1, flat(((1, 5), (2, 4), (3, 6))): 1})
    steps = []
    reduced = normal_form(m, 1, steps)
    assert steps == [first]
    assert reduced == normal_form_rescan(m, 1)
    assert reduced == Morphism(0, 6, {flat(((1, 2), (3, 6), (4, 5))): -1})


@pytest.mark.parametrize("n", [0, -1])
def test_normal_form_rejects_rank_below_one(n):
    m = Morphism.from_diagram(flat(((1, 3), (2, 4))))
    with pytest.raises(ValueError, match=f"n = {n}$"):
        normal_form(m, n)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("formal", [False, True])
def test_normal_form_matches_rescan_oracle(n, formal):
    delta = None if formal else Fraction(-2 * n)
    for i, pm in enumerate(enumerate_matchings(8)):
        coeff = DeltaPoly((i % 3 - 1, 1)) if formal else Fraction(i + 1, 3)
        m = Morphism.from_diagram(Diagram(0, 8, pm), delta, coeff)
        assert normal_form(m, n) == normal_form_rescan(m, n), pm


@pytest.mark.parametrize("r, s", [(2, 6), (4, 4)])
def test_bent_normal_form_matches_rescan_oracle(r, s):
    for n in (1, 2):
        for pm in enumerate_matchings(r + s):
            d = Diagram(r, s, pm)
            m = Morphism.from_diagram(d, Fraction(-2 * n), 3)
            flat_nf = normal_form_rescan(Morphism.from_diagram(bend(d), Fraction(-2 * n), 3), n)
            want = Morphism(r, s, {unbend(e, r, s): c for e, c in flat_nf.terms.items()},
                            Fraction(-2 * n))
            assert normal_form(m, n) == want, d


def test_wide_normal_form_matches_rescan_oracle():
    rng = random.Random(2)
    chosen = rng.sample(list(enumerate_matchings(10)), 30)
    m = Morphism(0, 10, {Diagram(0, 10, pm): rng.choice((1, -1)) * rng.randint(1, 9)
                         for pm in chosen}, Fraction(-4))
    assert normal_form(m, 2) == normal_form_rescan(m, 2)


def _rotated(m):
    return Morphism(0, m.s, {Diagram(0, m.s, d.matching.rotate()): c
                             for d, c in m.terms.items()}, m.delta)


def _reflected(m):
    end = m.s + 1
    return Morphism(0, m.s, {flat(tuple((end - a, end - b) for a, b in d.matching.pairs)): c
                             for d, c in m.terms.items()}, m.delta)


def _check_commutes(move, points, n, formal):
    # rotation and reflection permute the Pfaffian generators and the
    # (n+1)-noncrossing diagrams, and the normal form is unique, so
    # nf(g m) = g nf(m)
    rng = random.Random(points * 10 + n)
    delta = None if formal else Fraction(-2 * n)
    inputs = []
    for _ in range(12):
        ends = rng.sample(range(1, points + 1), points)
        inputs.append(PM(tuple(zip(ends[::2], ends[1::2]))))
    if points == 10:  # fully crossing, so the move fixes it and must fix its normal form
        inputs.append(PM(tuple((i, i + 5) for i in range(1, 6))))
    for i, pm in enumerate(inputs):
        coeff = DeltaPoly((i - 2, 1)) if formal else Fraction(i + 1, 3)
        m = Morphism.from_diagram(Diagram(0, points, pm), delta, coeff)
        assert normal_form(move(m), n) == move(normal_form(m, n)), pm


@pytest.mark.parametrize("formal", [False, True])
@pytest.mark.parametrize("points, n", [(8, 1), (10, 2), (12, 2)])
def test_normal_form_commutes_with_rotation(points, n, formal):
    _check_commutes(_rotated, points, n, formal)


@pytest.mark.parametrize("formal", [False, True])
@pytest.mark.parametrize("points, n", [(8, 1), (10, 2), (12, 2)])
def test_normal_form_commutes_with_reflection(points, n, formal):
    _check_commutes(_reflected, points, n, formal)


def _orbit_sum(points, seed, count, dihedral, delta=Fraction(-4)):
    """The sum over ``count`` seeded orbits of matchings of ``points`` points,
    a distinct coefficient per orbit (formal ones when delta is None)."""
    rng = random.Random(seed)
    pool = list(enumerate_matchings(points))
    terms, i = {}, 0
    while i < count:
        orbit = orbit_by_moves(rng.choice(pool), dihedral)
        if not dihedral and orbit_by_moves(next(iter(orbit)), True) == orbit:
            continue  # a rotation-only input needs orbits that reflection moves
        if any(flat(x.pairs) in terms for x in orbit):
            continue
        i += 1
        coeff = DeltaPoly((i, -1)) if delta is None else Fraction(i, 3)
        terms.update({flat(x.pairs): coeff for x in orbit})
    return Morphism(0, points, terms, delta)


def _symmetry_of(m):
    return PFAFFIAN._symmetry({bend(d).matching.pairs: c for d, c in m.terms.items()})


@pytest.mark.parametrize("points, n, seed, count, dihedral, delta", [
    (8, 1, 1, 3, True, Fraction(-2)), (8, 2, 2, 4, True, Fraction(-4)),
    (8, 1, 3, 2, False, Fraction(-2)), (8, 2, 4, 2, False, Fraction(-4)),
    (8, 2, 5, 3, True, None), (8, 1, 6, 2, False, None)])
def test_orbit_route_matches_plain_route_and_rescan(points, n, seed, count, dihedral, delta):
    m = _orbit_sum(points, seed, count, dihedral, delta)
    assert _symmetry_of(m) is dihedral
    reduced = normal_form(m, n)
    assert reduced == normal_form(m, n, []) == normal_form_rescan(m, n)
    # one coefficient changed breaks the symmetry, so the plain route is taken
    d = min(m.terms)
    changed = m + Morphism.from_diagram(d, delta, 1)
    assert _symmetry_of(changed) is None
    assert normal_form(changed, n) == normal_form_rescan(changed, n)


def test_orbit_route_on_ten_points_matches_plain_route():
    for seed, dihedral in ((7, True), (8, False)):
        m = _orbit_sum(10, seed, 4, dihedral)
        assert _symmetry_of(m) is dihedral
        assert normal_form(m, 2) == normal_form(m, 2, [])


def test_bent_orbit_route_matches_rescan_oracle():
    m = _orbit_sum(8, 9, 3, True, Fraction(-4))
    want = normal_form_rescan(m, 2)
    r, s = 3, 5
    bent = Morphism(r, s, {unbend(d, r, s): c for d, c in m.terms.items()}, m.delta)
    assert _symmetry_of(bent) is True
    assert normal_form(bent, 2) == Morphism(r, s, {unbend(d, r, s): c
                                                   for d, c in want.terms.items()}, m.delta)


def test_orbit_route_rewrites_one_representative_per_orbit(monkeypatch):
    rewrites = []
    rewrite = PFAFFIAN._rewrite_pairs
    monkeypatch.setattr(PFAFFIAN, "_rewrite_pairs",
                        lambda pairs, *rest: rewrites.append(pairs) or rewrite(pairs, *rest))
    m = Morphism.from_diagram(flat(tuple((i, i + 5) for i in range(1, 6))), Fraction(-4))
    steps = []
    plain = normal_form(m, 2, steps)
    assert len(steps) == len(rewrites) == 150
    rewrites.clear()
    assert normal_form(m, 2) == plain
    assert 0 < len(rewrites) <= 30

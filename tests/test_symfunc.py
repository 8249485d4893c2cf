import random
import warnings
from fractions import Fraction

import pytest

from brauercat.matchings import enumerate_X, enumerate_X_blocked
from brauercat.partitions import partitions, sign_of_type, z_order
from brauercat.qpoly import QPolynomial
from brauercat.symfunc import (SymFuncP, _bead_mask, _bead_syt_count,
                               _even_column_schur_sum,
                               _schur_sum_to_p, adjoint_character_full,
                               adjoint_invariant_character, cauchy_pairing,
                               dimension, e_in_p, fake_degree,
                               fake_degree_matchings, h_in_p,
                               h_series, invariant_character_fundamental,
                               invariant_character_matchings,
                               invariant_character_sym_power, kronecker,
                               littlewood_check, mn_character,
                               partition_category_character,
                               partition_category_character_multiset,
                               plethysm, regular_graph_character,
                               schur_expand, schur_to_p)
from oracles import (adjoint_by_kronecker, bell, cauchy_pairing_by_definition,
                     fake_degree_by_syt, fundamental_by_sums, multiset_partition_count,
                     p_to_schur_coeff, plethysm_by_products, plethysm_p,
                     regular_multigraph_count, scalar_product,
                     schur_expand_by_definition, schur_sum_by_mn,
                     set_partition_count, syt_count)

F = Fraction


def test_mn_character_trivial_and_sign():
    for mu in partitions(6):
        assert mn_character((6,), mu) == 1
        assert mn_character((1,) * 6, mu) == sign_of_type(mu)
    with pytest.raises(ValueError, match="sizes"):
        mn_character((2,), (1, 1, 1))


def test_mn_column_orthogonality():
    for r in range(1, 9):
        for mu in partitions(r):
            assert sum(mn_character(lam, mu) ** 2 for lam in partitions(r)) == z_order(mu)


def test_mn_row_orthogonality():
    for r in range(1, 8):
        for lam in partitions(r):
            for nu in partitions(r):
                total = sum(F(mn_character(lam, mu) * mn_character(nu, mu), z_order(mu))
                            for mu in partitions(r))
                assert total == (1 if lam == nu else 0)


def test_schur_examples():
    assert schur_to_p((1,)) == SymFuncP.p((1,))
    assert schur_to_p((2,)) == SymFuncP({(1, 1): F(1, 2), (2,): F(1, 2)})


def test_schur_orthonormality():
    for r in range(1, 9):
        for lam in partitions(r):
            s_lam = schur_to_p(lam)
            for mu in partitions(r):
                want = 1 if lam == mu else 0
                assert scalar_product(s_lam, schur_to_p(mu)) == want


def test_p_scalar_product():
    for r in range(1, 7):
        for lam in partitions(r):
            for mu in partitions(r):
                got = scalar_product(SymFuncP.p(lam), SymFuncP.p(mu))
                assert got == (z_order(lam) if lam == mu else 0)


def test_conversions_inverse():
    for r in list(range(1, 10)) + [12]:
        lams = partitions(r) if r < 10 else [(6, 4, 2), (5, 4, 2, 1), (12,)]
        for lam in lams:
            expansion = schur_expand(schur_to_p(lam))
            assert expansion == {lam: 1}
            assert p_to_schur_coeff(schur_to_p(lam), lam) == 1


def test_invariant_character_matchings():
    assert schur_expand(invariant_character_matchings(2, 2)) == {(4,): 1, (2, 2): 1}
    assert schur_expand(invariant_character_matchings(2, 1)) == {(2, 2): 1}
    for r in range(1, 5):
        for n in range(1, 4):
            f = invariant_character_matchings(r, n)
            assert dimension(f) == len(enumerate_X(r, n))


def _assert_read_only(f: SymFuncP):
    want = dict(f.coeffs)
    with pytest.raises(AttributeError):
        f.coeffs.clear()
    with pytest.raises(TypeError):
        f.coeffs[(1,)] = F(7)
    assert dict(f.coeffs) == want


def test_matchings_character_is_not_the_shared_memo_entry():
    f = invariant_character_matchings(3, 1)
    want = dict(f.coeffs)
    _assert_read_only(f)
    assert invariant_character_matchings(3, 1).coeffs == want
    assert invariant_character_sym_power(6, 1, 1).coeffs == want


def test_memoized_tables_are_read_only():
    for table, arg in [(schur_to_p, (2, 1)), (h_in_p, 3), (e_in_p, 3)]:
        want = dict(table(arg).coeffs)
        _assert_read_only(table(arg))
        assert table(arg).coeffs == want, table


def test_character_builders_are_memoized_and_read_only():
    for builder, args in [(invariant_character_sym_power, (4, 2, 1)),
                          (invariant_character_fundamental, (4, 2, 1))]:
        f = builder(*args)
        assert builder(*args) is f, builder
        _assert_read_only(f)


def test_character_builders_reject_ranks_outside_the_domain():
    # sym-power and fundamental take (r, k, n), partition-multiset (r, n, k)
    bad = [(invariant_character_sym_power, (-1, 2, 1), "r=-1, n=1, k=2"),
           (invariant_character_sym_power, (2, 0, None), "r=2, n=None, k=0"),
           (invariant_character_sym_power, (2, 2, 0), "r=2, n=0, k=2"),
           (invariant_character_fundamental, (2, 2, 0), "r=2, n=0, k=2"),
           (invariant_character_fundamental, (-1, 2, None), "r=-1, n=None, k=2"),
           (invariant_character_fundamental, (2, 0, 1), "r=2, n=1, k=0"),
           (partition_category_character_multiset, (2, 0, 1), "r=2, n=0, k=1"),
           (partition_category_character_multiset, (-1, 2, 1), "r=-1, n=2, k=1"),
           (partition_category_character_multiset, (2, 1, 0), "r=2, n=1, k=0")]
    for builder, args, got in bad:
        with pytest.raises(ValueError, match=f"need r >= 0, n >= 1 and k >= 1, got {got}$"):
            builder(*args)
    # rank 0 and the stable range n=None stay in the domain
    assert invariant_character_sym_power(0, 2, 1) == SymFuncP.one()
    assert invariant_character_fundamental(2, 2) == invariant_character_fundamental(2, 2, None)


def test_sym_power_reduces_at_k1():
    # X(2m, n, 1) lives on 2m points, so the k=1 character is the matchings one
    for m in (1, 2):
        for n in (1, 2):
            assert invariant_character_sym_power(2 * m, 1, n) \
                == invariant_character_matchings(m, n)


def test_sym_power_dimensions_count_blocked_sets():
    for (r, k) in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        for n in (1, 2, 3):
            f = invariant_character_sym_power(r, k, n)
            dim = dimension(f) if not f.is_zero() else 0
            assert dim == len(enumerate_X_blocked(r, n, k)), (r, k, n)


# Frozen power-sum expansions for k=2, r=6.  The invariant-tensor one has
# coefficient 0 on p[4,2]: a reference table gives 36/72 there, but that
# version is not Schur-integral and an independent trace computation in the
# diagram algebra at delta=-12 gives character value 0 on the (4,2) class.
INVARIANT_62 = SymFuncP({
    (1, 1, 1, 1, 1, 1): F(13, 72), (2, 1, 1, 1, 1): F(12, 72),
    (2, 2, 1, 1): F(63, 72), (2, 2, 2): F(54, 72), (3, 1, 1, 1): F(4, 72),
    (3, 2, 1): F(-12, 72), (3, 3): F(28, 72), (4, 1, 1): F(18, 72),
    (6,): F(36, 72)})
REGULAR_62 = SymFuncP({
    (1, 1, 1, 1, 1, 1): F(13, 72), (2, 1, 1, 1, 1): F(24, 72),
    (2, 2, 1, 1): F(63, 72), (2, 2, 2): F(54, 72), (3, 1, 1, 1): F(4, 72),
    (3, 2, 1): F(12, 72), (3, 3): F(28, 72), (4, 1, 1): F(18, 72),
    (4, 2): F(36, 72), (6,): F(36, 72)})


def test_exdiff_displays():
    from brauercat.symfunc import regular_graph_character
    inv = invariant_character_sym_power(6, 2)
    reg = regular_graph_character(6, 2)
    assert reg == REGULAR_62
    assert inv == INVARIANT_62
    assert dimension(inv) == 130
    assert dimension(reg) == 130
    diff = reg - inv
    assert set(diff.coeffs) == {(2, 1, 1, 1, 1), (3, 2, 1), (4, 2)}
    # both must be genuine characters
    for f in (inv, reg):
        for lam, c in schur_expand(f).items():
            assert c.denominator == 1 and c > 0 or c == 0


def test_regular_graph_dimension_is_multigraph_count():
    from brauercat.symfunc import regular_graph_character
    assert regular_multigraph_count(6, 2) == 130
    assert dimension(regular_graph_character(6, 2)) == 130
    assert fake_degree(regular_graph_character(6, 2)).evaluate(1) == 130
    # the stable blocked set realizes the same count
    assert len(enumerate_X_blocked(6, 13, 2)) == 130


def test_fundamental_character():
    f = invariant_character_fundamental(2, 3, 1)
    assert schur_expand(f) == {(1, 1): 1}
    assert fake_degree(f) == QPolynomial((0, 1))
    for m in (1, 2):
        for n in (1, 2):
            assert invariant_character_fundamental(2 * m, 1, n) \
                == invariant_character_matchings(m, n)


def test_littlewood():
    for r in range(1, 5):
        assert littlewood_check(r)
    assert plethysm(h_in_p(1), h_in_p(2)) == schur_to_p((2,))


def test_plethysm_p_basics():
    assert plethysm_p(1, h_in_p(3)) == h_in_p(3)
    assert plethysm_p(2, SymFuncP.p((2, 1))) == SymFuncP.p((4, 2))
    assert plethysm_p(3, SymFuncP.one()) == SymFuncP.one()
    assert e_in_p(1) == h_in_p(1) == SymFuncP.p((1,))


def test_plethysm_p_rejects_m_below_one():
    # p_0 and p_-1 would give keys with zero or negative parts
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"plethysm_p needs m >= 1, got m={m}$"):
            plethysm_p(m, SymFuncP.p((2, 1)))


def test_plethysm_matches_products_on_random_rationals():
    rng = random.Random(271)
    cases = [(_random_p_combination(rng, 4), _random_p_combination(rng, 3)) for _ in range(20)]
    f, g = cases[0]
    # zero on either side, constants on either side, and an f holding p_() beside
    # terms of two lengths, so each length needs its own power of g's denominator
    cases += [(SymFuncP.zero(), g), (f, SymFuncP.zero()),
              (SymFuncP.one().scaled(F(3, 7)), g), (f, SymFuncP.one().scaled(F(5, 2))),
              (SymFuncP({(): F(2, 3), (2, 1): F(-1, 4), (1,): F(5, 6)}),
               SymFuncP({(): F(1, 2), (1,): F(1, 3), (2,): F(-3, 4)}))]
    assert any(() in f.coeffs for f, _ in cases[:20])
    for f, g in cases:
        for cap in (None, 0, 2, 5, 8):
            got = plethysm(f, g, cap)
            assert got == plethysm_by_products(f, g, cap), (f, g, cap)
            assert all(isinstance(c, Fraction) and c for c in got.coeffs.values())


def test_kronecker():
    for r in range(1, 6):
        assert adjoint_character_full(r) == adjoint_invariant_character(r, r)
    for r in range(2, 6):
        for lam in partitions(r):
            assert kronecker(schur_to_p(lam), schur_to_p((r,))) == schur_to_p(lam)
    # truncation is vacuous once the row bound passes the degree
    assert adjoint_invariant_character(4, 4) == adjoint_invariant_character(4, 9)
    assert adjoint_invariant_character(3, 1) == kronecker(schur_to_p((3,)), schur_to_p((3,)))
    with pytest.raises(ValueError, match="degree"):
        kronecker(SymFuncP.p((1,)), SymFuncP.p((2,)))


def test_adjoint_character_is_the_kronecker_sum():
    for r in range(1, 9):
        for n in range(1, r + 1):
            assert adjoint_invariant_character(r, n) == adjoint_by_kronecker(r, n), (r, n)
    assert adjoint_invariant_character(0, 1) == SymFuncP.one()


def test_fundamental_partner_union_is_the_sum():
    # the partner's sizes have distinct degrees: uniting their keys is the sum
    for r in range(9):
        for n in (1, 2, 3, None):
            for k in (1, 2, 3):
                got, want = invariant_character_fundamental(r, k, n), fundamental_by_sums(r, k, n)
                assert got == want and str(got) == str(want), (r, n, k)


def test_partition_category_characters():
    assert dimension(partition_category_character(4, 2)) == 8
    assert dimension(partition_category_character(3, 3)) == bell(3)
    for r in range(1, 6):
        for n in range(1, 5):
            f = partition_category_character(r, n)
            assert dimension(f) == set_partition_count(r, n)
            assert f == partition_category_character_multiset(r, n, 1)


def test_capped_plethysm_matches_the_uncapped_component():
    for r in range(7):
        for n in range(1, 5):
            full = plethysm(h_in_p(n), h_series(r))
            want = full.homogeneous_component(r)
            assert partition_category_character(r, n) == want, ("partition", r, n)
            capped = sum((full.homogeneous_component(d) for d in range(r + 1)), SymFuncP.zero())
            assert plethysm(h_in_p(n), h_series(r), r) == capped, ("capped", r, n)
    for r in range(5):
        for n in range(1, 4):
            for k in (1, 2):
                full = plethysm(h_in_p(n), h_series(k * r)).homogeneous_component(k * r)
                want = cauchy_pairing(r, h_in_p(k), full)
                got = partition_category_character_multiset(r, n, k)
                assert got == want, ("partition-multiset", r, n, k)


def test_multiset_partition_dimension():
    for (r, k) in [(2, 2), (3, 2), (2, 3)]:
        for n in range(1, 5):
            f = partition_category_character_multiset(r, n, k)
            dim = dimension(f) if not f.is_zero() else 0
            assert dim == multiset_partition_count(r, k, n), (r, k, n)


def test_fake_degree_linear_and_p_at_one():
    a = invariant_character_matchings(2, 1)
    b = invariant_character_matchings(2, 2)
    assert fake_degree(a) + fake_degree(b) == fake_degree(a + b)
    for r in range(1, 5):
        for n in range(1, 4):
            p = fake_degree(invariant_character_matchings(r, n))
            assert p.evaluate(1) == len(enumerate_X(r, n))


def test_fake_degree_worked_polynomials():
    assert fake_degree(invariant_character_matchings(2, 1)) == QPolynomial((0, 0, 1, 0, 1))
    assert fake_degree(invariant_character_matchings(2, 2)) == QPolynomial((1, 0, 1, 0, 1))


def test_fake_degree_matchings_is_the_round_trip():
    # the slow route takes the doubled shapes to the p basis and back to Schur
    for r in range(9):
        for n in range(1, 5):
            want = fake_degree(invariant_character_matchings(r, n))
            assert fake_degree_matchings(r, n) == want, (r, n)
    for r, n in [(-1, 1), (2, 0)]:
        with pytest.raises(ValueError, match=f"need r >= 0 and n >= 1, got r={r}, n={n}$"):
            fake_degree_matchings(r, n)


def test_fake_degree_warns_on_non_integer():
    f = schur_to_p((2,)).scaled(F(1, 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fake_degree(f)
    assert any("non-integer" in str(w.message) for w in caught)
    assert out == QPolynomial((F(1, 2),))


def test_fake_degree_matches_tableau_route_on_invariant_characters():
    for r in range(1, 5):
        for k in (2, 3):
            f = regular_graph_character(r, k)
            assert fake_degree(f) == fake_degree_by_syt(f), ("regular-graph", r, k)
        for n in range(1, 4):
            cases = {"matchings": invariant_character_matchings(r, n),
                     "sym-power k=2": invariant_character_sym_power(r, 2, n),
                     "sym-power k=3": invariant_character_sym_power(r, 3, n),
                     "fundamental k=2": invariant_character_fundamental(r, 2, n),
                     "adjoint": adjoint_invariant_character(r, n)}
            for kind, f in cases.items():
                assert fake_degree(f) == fake_degree_by_syt(f), (kind, r, n)
            want = fake_degree_by_syt(cases["matchings"])
            assert fake_degree_matchings(r, n) == want, ("matchings closed form", r, n)


def _random_schur_combination(rng: random.Random, terms: int) -> SymFuncP:
    f = SymFuncP.zero()
    for _ in range(terms):
        lam = rng.choice(partitions(rng.randrange(0, 9)))
        c = F(rng.randrange(-6, 7), rng.choice((1, 1, 2, 3)))
        f = f + schur_to_p(lam).scaled(c)
    return f


def test_fake_degree_matches_tableau_route_on_random_schur_combinations():
    rng = random.Random(20151)
    seen_fraction = False
    cases = [_random_schur_combination(rng, rng.randrange(1, 6)) for _ in range(40)]
    # the zero function, and one denominator shared across two degrees
    cases += [SymFuncP.zero(), schur_to_p((2,)) + schur_to_p((1, 1, 1)).scaled(F(1, 2))]
    for f in cases:
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = fake_degree(f)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = fake_degree_by_syt(f)
        assert got == want, f
        assert [str(w.message) for w in got_warnings] \
            == [str(w.message) for w in want_warnings]
        seen_fraction = seen_fraction or bool(got_warnings)
    assert seen_fraction


def test_schur_expand_matches_per_partition_coefficients():
    rng = random.Random(7)
    cases = [SymFuncP.zero(), SymFuncP.one()]
    for _ in range(30):
        cases.append(SymFuncP({rng.choice(partitions(rng.randrange(0, 9))):
                               F(rng.randrange(-9, 10), rng.randrange(1, 13))
                               for _ in range(rng.randrange(1, 8))}))
    for f in cases:
        assert list(schur_expand(f).items()) == list(schur_expand_by_definition(f).items()), f
    assert schur_expand(SymFuncP.one()) == {(): 1}


def test_schur_expand_of_power_sums_is_the_character_column():
    for d in range(11):
        for mu in partitions(d):
            want = [(lam, c) for lam in partitions(d) if (c := mn_character(lam, mu))]
            assert list(schur_expand(SymFuncP.p(mu)).items()) == want, mu


def test_schur_expand_matches_oracle_on_invariant_and_cancelling_inputs():
    cases = [invariant_character_matchings(7, n) for n in (1, 2, 3)]
    # in degree 2 the s[1,1] parts of p[2] and p[1,1] cancel; in degree 4 the
    # five terms of h_4 cancel on every shape but (4,)
    mixed = (SymFuncP.one().scaled(2) + SymFuncP.p((2,)) + SymFuncP.p((1, 1))
             + h_in_p(4).scaled(3) - schur_to_p((3, 1, 1)))
    assert mixed.degrees() == [0, 2, 4, 5]
    assert len(mixed.homogeneous_component(4).coeffs) == 5
    assert schur_expand(mixed) == {(): 2, (2,): 2, (4,): 3, (3, 1, 1): -1}
    cases.append(mixed)
    for f in cases:
        got = schur_expand(f)
        assert list(got.items()) == list(schur_expand_by_definition(f).items())
        order = [(sum(lam), partitions(sum(lam)).index(lam)) for lam in got]
        assert order == sorted(order)


def test_schur_expand_builds_no_character_table():
    f = invariant_character_matchings(6, 2) + SymFuncP.p((5, 3, 2, 1, 1))
    before = mn_character.cache_info().misses
    expansion = schur_expand(f)
    assert mn_character.cache_info().misses == before
    assert expansion == schur_expand_by_definition(f)


def test_arithmetic_results_are_validated_symmetric_functions():
    with pytest.raises(ValueError, match="partition"):
        SymFuncP({(1, 2): 1})
    rng = random.Random(3)
    f = _random_schur_combination(rng, 4) + SymFuncP.p((3, 1))
    g = _random_schur_combination(rng, 4) - h_in_p(2)
    results = [f + g, f - g, -f, f * g, f.scaled(F(-2, 3)), f.scaled(0), 3 * f,
               plethysm_p(2, f), plethysm_p(3, g), f.homogeneous_component(4),
               schur_to_p((3, 2, 1)), kronecker(schur_to_p((2, 1)), h_in_p(3)),
               cauchy_pairing(2, h_in_p(2), h_series(4))]
    for x in results:
        rebuilt = SymFuncP(dict(x.coeffs))
        assert x == rebuilt
        assert all(isinstance(c, Fraction) and c for c in x.coeffs.values())


def test_cauchy_pairing_degenerate():
    # pairing against the constant function picks out the empty partition only
    assert cauchy_pairing(2, h_in_p(2), SymFuncP.one()).is_zero()
    got = cauchy_pairing(1, SymFuncP.p((1,)), SymFuncP.p((1,)))
    assert got == SymFuncP.p((1,))


def test_h_series():
    h = h_series(3)
    assert h.homogeneous_component(0) == SymFuncP.one()
    assert h.homogeneous_component(2) == h_in_p(2)
    assert h.degrees() == [0, 1, 2, 3]


def _even_row_shapes(size: int, bound: int | None) -> list:
    """Even-row partitions of size with at most bound columns: the transposes
    of the even-column shapes with at most bound rows."""
    return [lam for lam in partitions(size) if all(p % 2 == 0 for p in lam)
            and (bound is None or not lam or lam[0] <= bound)]


def test_even_column_schur_sum_matches_mn_columns():
    cases = [(size, bound) for size in range(15) for bound in (None, 1, 2, 3, 4, 5, 6)]
    cases += [(16, 4), (16, 1), (16, 3), (16, 5)]
    for size, bound in cases:
        want = schur_sum_by_mn(_even_row_shapes(size, bound))
        assert _even_column_schur_sum(size, bound) == want, (size, bound)
    assert _even_column_schur_sum(0, 2) == SymFuncP.one()
    assert _even_column_schur_sum(7, None).is_zero()


def test_schur_to_p_matches_mn_column():
    for d in range(13):
        for lam in partitions(d):
            assert _schur_sum_to_p([lam], d) == schur_sum_by_mn([lam]), lam
    assert schur_to_p((3, 2, 1)) == schur_sum_by_mn([(3, 2, 1)])


def test_bead_syt_count_is_the_tableau_count():
    # the all-ones tail of the ribbon walk reads f^lam off any bead count
    for size in range(15):
        for lam in partitions(size):
            want = syt_count(lam)
            for beads in sorted({len(lam), len(lam) + 1, len(lam) + 4, size + 2}):
                assert _bead_syt_count(_bead_mask(lam, beads)) == want, (lam, beads)


def test_schur_sum_kernel_builds_no_character_table():
    shapes = [(6, 4, 2), (6, 4, 2), (5, 5, 1, 1), (12,), (1,) * 12]
    before = mn_character.cache_info().misses
    got = _schur_sum_to_p(shapes, 12)
    assert mn_character.cache_info().misses == before
    assert got == schur_sum_by_mn(shapes)  # a repeated shape counts twice
    assert _schur_sum_to_p([], 5).is_zero()


def test_cauchy_pairing_matches_definition_through_the_builders():
    for r in range(1, 6):
        for k in (2, 3):
            for n in (1, 2, None):
                bound = None if n is None else 2 * n
                partner = schur_sum_by_mn(_even_row_shapes(k * r, bound))
                want = cauchy_pairing_by_definition(r, e_in_p(k), partner)
                assert invariant_character_sym_power(r, k, n) == want, ("sym-power", r, k, n)
                partner = schur_sum_by_mn(
                    [lam for size in range(k * r + 1) for lam in _even_row_shapes(size, bound)])
                want = cauchy_pairing_by_definition(r, h_in_p(k) - h_in_p(k - 2), partner)
                assert invariant_character_fundamental(r, k, n) == want, ("fundamental", r, k, n)
        for k, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]:
            if k * r * n <= 20:
                want = cauchy_pairing_by_definition(r, h_in_p(k),
                                                    plethysm(h_in_p(n), h_series(k * r)))
                got = partition_category_character_multiset(r, n, k)
                assert got == want, ("partition-multiset", r, n, k)
    # the regular-graph partner sum_j h_j[h_2] by plethysm, where the builder
    # reads the even-row Schur sums (Littlewood)
    for r in range(1, 7):
        for k in (1, 2, 3):
            if k * r <= 12:  # the partner plethysm, not the pairing, grows fast
                want = cauchy_pairing_by_definition(r, h_in_p(k) - h_in_p(k - 2),
                                                    plethysm(h_series(k * r), h_in_p(2)))
                assert regular_graph_character(r, k) == want, ("regular-graph", r, k)


def _random_p_combination(rng: random.Random, max_degree: int) -> SymFuncP:
    return SymFuncP({rng.choice(partitions(rng.randrange(0, max_degree + 1))):
                     F(rng.randrange(-9, 10), rng.randrange(1, 13))
                     for _ in range(rng.randrange(1, 7))})


def test_cauchy_pairing_matches_definition_on_random_pairs():
    rng = random.Random(13)
    pairs = [(_random_p_combination(rng, 3), _random_p_combination(rng, 8)) for _ in range(24)]
    g, partner = pairs[0]
    # zero on either side; and in degree 1 the p[1] and p[2] terms of g pair
    # to 1 * 1 * z_(1) + 1 * (-1/2) * z_(2) = 0 against this partner
    cancelling = SymFuncP({(1,): 1, (2,): 1}), SymFuncP({(1,): 1, (2,): F(-1, 2), (2, 2): 3})
    pairs += [(SymFuncP.zero(), partner), (g, SymFuncP.zero()), cancelling,
              (h_in_p(2) - h_in_p(2), partner), (e_in_p(2), h_in_p(4) - h_in_p(4)),
              (SymFuncP.one(), SymFuncP.one())]
    assert len(pairs) == 30
    assert cauchy_pairing(1, *cancelling).is_zero()
    assert not cauchy_pairing(2, *cancelling).is_zero()
    for g, partner in pairs:
        for r in range(5):
            got = cauchy_pairing(r, g, partner)
            assert got == cauchy_pairing_by_definition(r, g, partner), (r, g, partner)
            assert all(isinstance(c, Fraction) and c for c in got.coeffs.values())

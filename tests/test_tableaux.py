import pytest

from brauercat.matchings import enumerate_X
from brauercat.partitions import (cells_added, conjugate, hooks, partitions,
                                  z_order)
from brauercat.qpoly import QPolynomial
from brauercat.tableaux import (OscillatingTableau, count_oscillating,
                                enumerate_oscillating, enumerate_SYT,
                                fake_degree_schur, fake_degree_schur_hook, maj)
from oracles import (cells_added_by_filter, double_factorial, q_factorial, q_int,
                     syt_count)


def test_partition_basics():
    assert conjugate((4, 2, 2)) == (3, 3, 1, 1)
    assert conjugate(conjugate((5, 3, 2, 2))) == (5, 3, 2, 2)
    assert z_order((2, 1, 1)) == 4
    assert z_order((3, 3)) == 18
    assert sorted(hooks((2, 2))) == [1, 2, 2, 3]
    assert len(partitions(12)) == 77


def test_cells_added_matches_filter():
    for m in range(11):
        for lam in partitions(m):
            assert list(cells_added(lam)) == cells_added_by_filter(lam), lam
    assert list(cells_added((2, 2, 1))) == [(3, 2, 1), (2, 2, 2), (2, 2, 1, 1)]


@pytest.mark.parametrize("shape,count", [((2, 2), 2), ((5,), 1), ((2, 1), 2)])
def test_syt_counts(shape, count):
    assert syt_count(shape) == count
    assert len(list(enumerate_SYT(shape))) == count


def test_syt_enumeration_matches_hook_formula():
    for m in range(1, 9):
        for shape in partitions(m):
            assert len(list(enumerate_SYT(shape))) == syt_count(shape)


def test_maj_examples():
    assert maj(((1, 2), (3, 4))) == 2
    assert maj(((1, 3), (2, 4))) == 4
    assert maj(((1, 2, 3, 4, 5),)) == 0


def test_fake_degree_examples():
    assert fake_degree_schur((2, 2)) == QPolynomial((0, 0, 1, 0, 1))
    assert str(fake_degree_schur((2, 2))) == "q^2 + q^4"
    assert fake_degree_schur((4,)) == QPolynomial((1,))


def test_fake_degree_routes_agree():
    for m in range(1, 9):
        for shape in partitions(m):
            assert fake_degree_schur(shape) == fake_degree_schur_hook(shape), shape


def test_fake_degree_at_one_counts_tableaux():
    for m in range(1, 17):
        for shape in partitions(m):
            assert fake_degree_schur_hook(shape).evaluate(1) == syt_count(shape)


def test_fake_degree_hook_matches_rational_division():
    # the q-hook formula as a quotient of q-integers, by long division
    for m in range(0, 11):
        for shape in partitions(m):
            shift = sum(i * part for i, part in enumerate(shape))
            want = QPolynomial.monomial(shift) * q_factorial(m)
            for h in hooks(shape):
                want = want.divexact(q_int(h))
            got = fake_degree_schur_hook(shape)
            assert got == want, shape
            assert all(type(c) is int for c in got.coeffs)
    assert fake_degree_schur_hook(()) == QPolynomial((1,))


def test_oscillating_examples():
    assert count_oscillating(4, 1) == 2
    assert count_oscillating(4, 2) == 3
    assert count_oscillating(4, 5) == 3
    walks = list(enumerate_oscillating(4, 2))
    assert len(walks) == 3
    middles = {w.steps[2] for w in walks}
    assert middles == {(), (2,), (1, 1)}


def test_oscillating_counts_match_matchings():
    for r in range(1, 5):
        for n in range(1, 4):
            assert count_oscillating(2 * r, n) == len(enumerate_X(r, n))
            assert len(list(enumerate_oscillating(2 * r, n))) == count_oscillating(2 * r, n)


def test_oscillating_unbounded_is_double_factorial():
    for r in range(1, 5):
        assert count_oscillating(2 * r, r) == double_factorial(2 * r - 1)


def test_even_part_tableaux_count_noncrossing():
    for r in range(1, 6):
        for n in range(1, 4):
            total = sum(syt_count(mu) for mu in partitions(2 * r)
                        if all(p % 2 == 0 for p in mu) and mu[0] <= 2 * n)
            assert total == len(enumerate_X(r, n))


def test_oscillating_validation_and_text():
    walk = OscillatingTableau(((), (1,), (2,), (1,), ()))
    assert walk.length == 4
    assert str(walk) == "[];[1];[2];[1];[]"
    with pytest.raises(ValueError, match="one cell"):
        OscillatingTableau(((), (2,), ()))
    with pytest.raises(ValueError, match="empty shape"):
        OscillatingTableau(((1,), (1, 1)))
    assert max(map(len, walk.steps)) == 1

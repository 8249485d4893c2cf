"""DeltaPoly against QPolynomial: the same arithmetic, a separate type."""

import random
from fractions import Fraction

import pytest

from brauercat.qpoly import QPolynomial
from brauercat.scalars import DeltaPoly, as_scalar
from oracles import evaluate, loop_factor


def _coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _coeff_tuples(seed, count=40):
    rng = random.Random(seed)
    return [tuple(_coeff(rng) for _ in range(rng.randint(0, 4))) for _ in range(count)]


def _scalars(seed, count=10):
    rng = random.Random(seed)
    return [_coeff(rng) for _ in range(count)]


def _same(d, q):
    """A DeltaPoly and a QPolynomial with the same coefficients."""
    return isinstance(d, DeltaPoly) and isinstance(q, QPolynomial) and d.poly.coeffs == q.coeffs


def test_binary_operators_match_qpolynomial():
    cases = _coeff_tuples(1)
    for a, b in zip(cases, reversed(cases)):
        da, db, qa, qb = DeltaPoly(a), DeltaPoly(b), QPolynomial(a), QPolynomial(b)
        assert _same(da + db, qa + qb)
        assert _same(da - db, qa - qb)
        assert _same(db - da, qb - qa)
        assert _same(da * db, qa * qb)
        assert _same(-da, -qa)
        assert (da == db) == (qa == qb)
        assert da == DeltaPoly(a) and not da != DeltaPoly(a)


def test_scalar_operands_in_both_orders():
    for a, k in zip(_coeff_tuples(2, 10), _scalars(3)):
        d, q = DeltaPoly(a), QPolynomial(a)
        assert _same(d + k, q + k) and _same(k + d, k + q)
        assert _same(d - k, q - k) and _same(k - d, k - q)
        assert _same(d * k, q * k) and _same(k * d, k * q)
        assert (d == k) == (q == k)


def test_powers_match_qpolynomial():
    for a in _coeff_tuples(4, 10):
        for exp in range(4):
            assert _same(DeltaPoly(a) ** exp, QPolynomial(a) ** exp)
    with pytest.raises(ValueError, match="negative"):
        DeltaPoly.delta() ** -1
    with pytest.raises(ValueError, match="negative"):
        QPolynomial((0, 1)) ** -1


def test_str_is_qpolynomial_format_in_d():
    for a in _coeff_tuples(5):
        assert str(DeltaPoly(a)) == QPolynomial(a).format("d")
        assert str(QPolynomial(a)) == QPolynomial(a).format("q")
    assert str(DeltaPoly((1, -1))) == "1 - d"
    assert str(DeltaPoly((Fraction(1, 2), 0, -2))) == "1/2 - 2*d^2"


def test_integral_fractions_normalize_and_hash_alike():
    for a in _coeff_tuples(6):
        as_fractions = tuple(Fraction(c) for c in a)
        as_ints = tuple(int(c) if Fraction(c).denominator == 1 else c for c in a)
        assert DeltaPoly(as_fractions) == DeltaPoly(as_ints)
        assert hash(DeltaPoly(as_fractions)) == hash(DeltaPoly(as_ints))
    assert hash(DeltaPoly((Fraction(2), 1))) == hash(DeltaPoly((2, 1)))
    assert DeltaPoly.const(Fraction(4, 2)).poly.coeffs == (2,)
    assert type(DeltaPoly.const(Fraction(4, 2)).poly.coeffs[0]) is int


def test_constants_hash_as_the_number_they_equal():
    assert len({DeltaPoly.const(2), 2}) == 1
    assert len({QPolynomial((2,)), 2}) == 1
    assert len({QPolynomial((Fraction(1, 2),)), Fraction(1, 2)}) == 1
    assert len({DeltaPoly(), 0}) == len({QPolynomial(), 0, Fraction(0)}) == 1
    for a in _coeff_tuples(9):
        for x in (DeltaPoly(a), QPolynomial(a)):
            for c in (0, 1, -2, Fraction(1, 3)):
                if x == c:
                    assert hash(x) == hash(c)


def test_evaluate_is_a_ring_homomorphism():
    cases = _coeff_tuples(7, 20)
    points = _scalars(8, 5)
    for a, b in zip(cases, reversed(cases)):
        da, db = DeltaPoly(a), DeltaPoly(b)
        for x in points:
            assert evaluate(da + db, x) == evaluate(da, x) + evaluate(db, x)
            assert evaluate(da * db, x) == evaluate(da, x) * evaluate(db, x)
            assert evaluate(da - db, x) == evaluate(da, x) - evaluate(db, x)
            assert isinstance(evaluate(da, x), Fraction)
    assert evaluate(DeltaPoly.const(5), 3) == 5
    assert evaluate(DeltaPoly.delta(2), Fraction(-1, 2)) == Fraction(1, 4)


def test_mixing_with_qpolynomial_raises_type_error():
    d, q = DeltaPoly((1, 2)), QPolynomial((1, 2))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(d, q)
        with pytest.raises(TypeError):
            op(q, d)
    assert d != q


def test_as_scalar_and_loop_factor():
    assert as_scalar(2, None) == DeltaPoly.const(2)
    half = Fraction(1, 2)
    assert as_scalar(half, Fraction(-2)) is half  # a Fraction is returned unchanged
    assert type(as_scalar(3, Fraction(-2))) is Fraction
    with pytest.raises(TypeError, match="formal"):
        as_scalar(DeltaPoly.delta(), Fraction(-2))
    for loops in range(4):
        assert loop_factor(loops, None) == DeltaPoly.delta() ** loops
        assert loop_factor(loops, Fraction(-4)) == Fraction(-4) ** loops

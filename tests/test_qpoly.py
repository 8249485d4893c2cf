from fractions import Fraction

import pytest

from brauercat.qpoly import QPolynomial, _norm, cyclotomic, polynomial_mod
from oracles import evaluate, q_factorial, q_int


def test_normalization_and_str():
    assert QPolynomial((1, 0, 2, 0)).coeffs == (1, 0, 2)
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial((0, 1))) == "q"
    assert str(QPolynomial((1, -1, 3))) == "1 - q + 3*q^2"
    assert str(QPolynomial.monomial(4)) == "q^4"


def test_coefficients_keep_their_values_and_types():
    cases = [(3, 3, int), (-7, -7, int), (Fraction(6, 3), 2, int),
             (Fraction(-1, 3), Fraction(-1, 3), Fraction), (True, 1, int), (False, 0, int)]
    for value, want, kind in cases:
        got = _norm(value)
        assert got == want and type(got) is kind, value
    coeffs = QPolynomial((True, Fraction(4, 2), Fraction(1, 2), 5)).coeffs
    assert coeffs == (1, 2, Fraction(1, 2), 5)
    assert [type(c) for c in coeffs] == [int, int, Fraction, int]


def test_arithmetic():
    p = QPolynomial((1, 2))
    q = QPolynomial((0, 1, 1))
    assert p + q == QPolynomial((1, 3, 1))
    assert p - p == QPolynomial()
    assert p * q == QPolynomial((0, 1, 3, 2))
    assert 2 * p == QPolynomial((2, 4))
    assert evaluate(p, 3) == 7
    assert evaluate(p, Fraction(1, 2)) == 2


def test_reduce_mod_cyclic():
    p = QPolynomial((0, 0, 1, 0, 1))  # q^2 + q^4
    assert p.reduce_mod_cyclic(4) == QPolynomial((1, 0, 1))
    assert QPolynomial((5,)).reduce_mod_cyclic(3) == QPolynomial((5,))


def test_divexact():
    num = q_int(2) * q_int(3)
    assert num.divexact(q_int(3)) == q_int(2)
    with pytest.raises(ValueError, match="divisible"):
        QPolynomial((1, 1, 1)).divexact(QPolynomial((1, 1)))


def test_q_factorial():
    assert q_factorial(3) == QPolynomial((1, 2, 2, 1))
    assert evaluate(q_factorial(4), 1) == 24


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclotomic_product(n):
    prod = QPolynomial((1,))
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == QPolynomial.monomial(n) - 1


def test_cyclotomic_small():
    assert cyclotomic(1) == QPolynomial((-1, 1))
    assert cyclotomic(2) == QPolynomial((1, 1))
    assert cyclotomic(4) == QPolynomial((1, 0, 1))
    assert cyclotomic(6) == QPolynomial((1, -1, 1))


def test_polynomial_mod():
    p = QPolynomial((0, 0, 0, 1))  # q^3
    assert polynomial_mod(p, cyclotomic(3)) == QPolynomial((1,))
    assert polynomial_mod(QPolynomial((2,)), cyclotomic(5)) == QPolynomial((2,))


def test_polynomial_mod_and_divexact_agree():
    quotient = QPolynomial((1, Fraction(-2, 3), 0, 5))
    for divisor in (cyclotomic(4), QPolynomial((1, 2)), QPolynomial((Fraction(1, 2), 0, -3))):
        for rem in (QPolynomial(), QPolynomial((2,)), QPolynomial((Fraction(-1, 7),))):
            p = quotient * divisor + rem
            assert polynomial_mod(p, divisor) == rem
            assert (p - rem).divexact(divisor) == quotient
    for divide in (lambda p, d: p.divexact(d), polynomial_mod):
        with pytest.raises(ZeroDivisionError):
            divide(QPolynomial((1, 1)), QPolynomial())

"""Polynomials in q with exact coefficients, with reduction mod q^N - 1."""

from __future__ import annotations

from fractions import Fraction
from functools import cache


def _norm(value):
    """An exact coefficient as an int when it is integral, else a Fraction
    (a bool becomes an int)."""
    if type(value) is int:
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


class QPolynomial:
    """Coefficient list, lowest degree first, normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> QPolynomial:
        return cls((0,) * exponent + (coeff,))

    @classmethod
    def from_dict(cls, d: dict[int, object]) -> QPolynomial:
        if not d:
            return cls()
        top = max(d)
        return cls(tuple(d.get(i, 0) for i in range(top + 1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_nonnegative_integer(self) -> bool:
        return all(isinstance(c, int) and c >= 0 for c in self.coeffs)

    def coefficient(self, exponent: int):
        return self.coeffs[exponent] if 0 <= exponent < len(self.coeffs) else 0

    def reduce_mod_cyclic(self, n: int) -> QPolynomial:
        """Remainder modulo q^n - 1: fold exponents mod n."""
        if n < 1:
            raise ValueError("modulus exponent must be positive")
        out = [0] * n
        for e, c in enumerate(self.coeffs):
            out[e % n] += c
        return QPolynomial(out)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(tuple(self.coefficient(i) + other.coefficient(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative powers are not polynomials")
        acc = QPolynomial((1,))
        for _ in range(exp):
            acc = acc * self
        return acc

    def divexact(self, other: QPolynomial) -> QPolynomial:
        """Exact polynomial division; raises if the remainder is nonzero."""
        quotient, rem = _long_division(self, other)
        if any(c != 0 for c in rem):
            raise ValueError(f"{self} is not divisible by {other}")
        return QPolynomial(quotient)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes as one
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(("QPolynomial", self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QPolynomial({self})"

    def __str__(self):
        return self.format("q")

    def format(self, var: str) -> str:
        """Lowest degree first, like ``1 - 2*q + q^3``, in the variable ``var``."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                power = var if e == 1 else f"{var}^{e}"
                if c == 1:
                    parts.append(power)
                elif c == -1:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value):
    if isinstance(value, QPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return QPolynomial((value,))
    return None


@cache
def cyclotomic(n: int) -> QPolynomial:
    """The n-th cyclotomic polynomial, by exact division of q^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    quotient = QPolynomial.monomial(n) - 1
    for d in range(1, n):
        if n % d == 0:
            quotient = quotient.divexact(cyclotomic(d))
    return quotient


def _long_division(num: QPolynomial, den: QPolynomial) -> tuple[list, list]:
    """Quotient and remainder coefficient lists of num / den, lowest degree first."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(num.coeffs)
    lead = den.coeffs[-1]
    dq = len(den.coeffs) - 1
    quotient = [0] * max(0, len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = Fraction(rem[i], 1) / lead
        quotient[i - dq] = c
        for j, b in enumerate(den.coeffs):
            rem[i - dq + j] -= c * b
    return quotient, rem


def polynomial_mod(p: QPolynomial, modulus: QPolynomial) -> QPolynomial:
    """Remainder of p modulo the given monic-up-to-scalar polynomial."""
    return QPolynomial(_long_division(p, modulus)[1])

"""Exact coefficient scalars: polynomials in the loop parameter d.

Morphism coefficients are either DeltaPoly (formal loop parameter) or
plain Fraction (after specializing d to a rational number).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qpoly import QPolynomial


class DeltaPoly:
    """Polynomial in the formal loop parameter, rational coefficients, exact.

    The arithmetic is QPolynomial's.  DeltaPoly stays a type of its own, so
    that a polynomial in q is never taken for a morphism coefficient and a
    formal coefficient is never taken for a rational one (see ``as_scalar``).
    """

    __slots__ = ("poly",)

    def __init__(self, coeffs=()):
        self.poly = coeffs if isinstance(coeffs, QPolynomial) else QPolynomial(coeffs)

    @classmethod
    def const(cls, value) -> DeltaPoly:
        return cls((value,))

    @classmethod
    def delta(cls, power: int = 1) -> DeltaPoly:
        return cls(QPolynomial.monomial(power))

    def _apply(self, op, other):
        """DeltaPoly(op(self.poly, other)) for a DeltaPoly, int or Fraction other."""
        if isinstance(other, DeltaPoly):
            other = other.poly
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return DeltaPoly(op(self.poly, other))

    def __add__(self, other):
        return self._apply(QPolynomial.__add__, other)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly(-self.poly)

    def __sub__(self, other):
        return self._apply(QPolynomial.__sub__, other)

    def __rsub__(self, other):
        return self._apply(QPolynomial.__rsub__, other)

    def __mul__(self, other):
        return self._apply(QPolynomial.__mul__, other)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        return DeltaPoly(self.poly ** exp)

    def __eq__(self, other):
        if isinstance(other, DeltaPoly):
            return self.poly == other.poly
        if isinstance(other, (int, Fraction)):
            return self.poly == other
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __bool__(self):
        return bool(self.poly)

    def __repr__(self):
        return f"DeltaPoly({self})"

    def __str__(self):
        return self.poly.format("d")


def as_scalar(value, delta: Fraction | None):
    """Coerce a coefficient into the ring selected by ``delta``.

    delta=None means the formal ring (DeltaPoly); otherwise exact rationals.
    """
    if delta is None:
        return value if isinstance(value, DeltaPoly) else DeltaPoly.const(value)
    if isinstance(value, DeltaPoly):
        raise TypeError("formal coefficient in a specialized morphism")
    return value if isinstance(value, Fraction) else Fraction(value)


def integer_terms(coeffs) -> tuple[list, int]:
    """A map's rational values over the lcm of their denominators: ([(key, numerator)], lcm)."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return [(key, c.numerator * (den // c.denominator)) for key, c in coeffs.items()], den

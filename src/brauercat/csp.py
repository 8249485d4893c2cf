"""Cyclic sieving certificates by exact integer arithmetic.

A triple (X, rotation, P) sieves when P evaluated at powers of a primitive
N-th root of unity counts fixed points.  That is decided here through the
equivalent congruence of P with the orbit polynomial modulo q^N - 1, so no
irrational arithmetic is involved; an independent evaluation at exact
cyclotomic points is available as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .matchings import orbits
from .qpoly import QPolynomial, cyclotomic, polynomial_mod


@dataclass(frozen=True)
class CspInstance:
    """Finite set with a rotation of the stated order and a candidate polynomial."""

    elements: tuple
    step: int
    order: int
    poly: QPolynomial

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("rotation order must be positive")


@dataclass(frozen=True)
class CspCertificate:
    passed: bool
    size: int
    order: int
    orbit_sizes: tuple[int, ...]
    poly: QPolynomial
    poly_reduced: QPolynomial
    orbit_poly: QPolynomial
    fixed_counts: tuple[int, ...]
    failure_divisor: int | None = None
    message: str = ""

    def lines(self) -> list[str]:
        out = [
            f"result: {'PASS' if self.passed else 'FAIL'}",
            f"size: {self.size}",
            f"order: {self.order}",
            f"orbits: {list(self.orbit_sizes)}",
            f"P: {self.poly}",
            f"P mod q^{self.order}-1: {self.poly_reduced}",
            f"orbit polynomial: {self.orbit_poly}",
            f"fixed points by divisor: {list(self.fixed_counts)}",
        ]
        if self.failure_divisor is not None:
            out.append(f"first failing divisor: {self.failure_divisor}")
        if self.message:
            out.append(f"note: {self.message}")
        return out


def fixed_points(elements, step: int, d: int) -> int:
    """Elements fixed by the d-th power of the rotation, by direct application."""
    count = 0
    for x in elements:
        y = x
        for _ in range(d):
            y = y.rotate(step)
        if y == x:
            count += 1
    return count


def orbit_polynomial(orbit_sizes, order: int) -> QPolynomial:
    """Sum over orbits O of 1 + q^(N/|O|) + ... + q^((|O|-1)N/|O|)."""
    coeffs: dict[int, int] = {}
    for size in orbit_sizes:
        if order % size != 0:
            raise ValueError(f"orbit size {size} does not divide the order {order}")
        for j in range(size):
            e = j * order // size
            coeffs[e] = coeffs.get(e, 0) + 1
    return QPolynomial.from_dict(coeffs)


def evaluate_at_root_of_unity(p: QPolynomial, order: int, d: int) -> int | None:
    """Exact value of p at the d-th power of a primitive root of unity.

    Returns None when the value is not a rational integer.
    """
    folded: dict[int, object] = {}
    for e, c in enumerate(p.coeffs):
        j = (e * d) % order
        folded[j] = folded.get(j, 0) + c
    b = QPolynomial.from_dict(folded)
    rem = polynomial_mod(b, cyclotomic(order))
    if rem.degree > 0:
        return None
    value = rem.coefficient(0)
    return value if isinstance(value, int) else None


def verify_csp(inst: CspInstance) -> CspCertificate:
    """Decide the sieving congruence and assemble a diagnosable certificate."""
    if not inst.poly.is_nonnegative_integer():
        raise ValueError(f"malformed instance: P = {inst.poly} has negative or "
                         "non-integer coefficients")
    sizes = tuple(orbits(inst.elements, inst.step))
    n = inst.order
    reduced = inst.poly.reduce_mod_cyclic(n)
    orbit_poly = orbit_polynomial(sizes, n)
    fixed = tuple(fixed_points(inst.elements, inst.step, d) for d in range(n))
    passed = reduced == orbit_poly
    failure = None
    message = ""
    if not passed:
        for d in range(n):
            value = evaluate_at_root_of_unity(inst.poly, n, d)
            if value != fixed[d]:
                failure = d
                got = "non-integer" if value is None else str(value)
                message = f"P at divisor {d} gives {got}, fixed points {fixed[d]}"
                break
    return CspCertificate(passed, len(inst.elements), n, sizes, inst.poly,
                          reduced, orbit_poly, fixed, failure, message)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def orbit_multiplicities(p: QPolynomial, order: int) -> dict[int, object] | None:
    """Orbit-size multiplicities any sieving set for p would need.

    Returns None when the reduction of p is not constant on gcd classes;
    otherwise a map orbit size -> multiplicity (possibly negative or
    fractional, which disqualifies p as a sieving polynomial).
    """
    reduced = p.reduce_mod_cyclic(order)
    by_class: dict[int, object] = {}
    for e in range(order):
        c = gcd(e, order) if e else order
        value = reduced.coefficient(e)
        if c in by_class and by_class[c] != value:
            return None
        by_class.setdefault(c, value)
    mult = {}
    for c in _divisors(order):
        b = sum(_moebius(c // cc) * by_class[cc] for cc in _divisors(c))
        if b:
            mult[order // c] = b
    return mult


def is_cyclic_sieving_polynomial(p: QPolynomial, order: int) -> bool:
    """Whether some set with a free-enough rotation could realize p."""
    if not p.is_nonnegative_integer():
        return False
    mult = orbit_multiplicities(p, order)
    if mult is None:
        return False
    return all(isinstance(m, int) and m >= 0 for m in mult.values())

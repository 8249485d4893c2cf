"""Cyclic sieving certificates by exact integer arithmetic.

A triple (X, rotation, P) sieves when P evaluated at powers of a primitive
N-th root of unity counts fixed points.  That is decided here through the
equivalent congruence of P with the orbit polynomial modulo q^N - 1, so no
irrational arithmetic is involved; an independent evaluation at exact
cyclotomic points is available as a cross-check.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .matchings import count_fixed_X, count_X, orbits
from .qpoly import QPolynomial, cyclotomic, polynomial_mod
from .record import Record


class CspInstance(Record):
    """Finite set with a rotation of the stated order and a candidate polynomial."""

    __slots__ = __match_args__ = ("elements", "step", "order", "poly")

    def __init__(self, elements: tuple, step: int, order: int, poly: QPolynomial):
        super().__init__(elements, step, order, poly)
        if order < 1:
            raise ValueError("rotation order must be positive")


class CspCertificate(Record):
    # orbit_counts maps orbit size to the number of orbits, sizes descending
    __slots__ = __match_args__ = ("passed", "size", "order", "orbit_counts", "poly", "poly_reduced",
                                  "orbit_poly", "fixed_counts", "failure_divisor", "message")
    _defaults = (None, "")

    def lines(self) -> list[str]:
        out = [
            f"result: {'PASS' if self.passed else 'FAIL'}",
            f"size: {self.size}",
            f"order: {self.order}",
            f"orbits: {self.orbit_counts}",
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
    """Sum over orbits O of 1 + q^(N/|O|) + ... + q^((|O|-1)N/|O|).

    ``orbit_sizes`` lists the orbit sizes, or maps each size to its number of orbits.
    """
    coeffs: dict[int, int] = {}
    for size, count in Counter(orbit_sizes).items():
        if order % size != 0:
            raise ValueError(f"orbit size {size} does not divide the order {order}")
        for j in range(size):
            e = j * order // size
            coeffs[e] = coeffs.get(e, 0) + count
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
    """Decide the sieving congruence from the orbits of the listed elements."""
    sizes = orbits(inst.elements, inst.step)
    return _certificate(inst.poly, inst.order, {
        s: sum(size for size in sizes if s % size == 0) for s in divisors(inst.order)})


def verify_csp_X(r: int, n: int, k: int | None, poly: QPolynomial) -> CspCertificate:
    """Decide the sieving congruence for X(r, n) under rotation by one point
    (k None or 1), or for X(r, n, k) under rotation by k points, without
    listing X: |X|, the certificate's ``size``, is ``count_X`` (for blocked X
    the strip-walk count of ``tableaux.count_strip_walks``), and each proper
    divisor power of the rotation gets its fixed matchings counted by
    ``count_fixed_X``."""
    size = count_X(r, n, k)
    if k is None or k == 1:
        order, r, k = 2 * r, 2 * r, 1  # X(r, n) is X(2r, n, 1)
    else:
        order = r
    counts = {s: count_fixed_X(r, n, k, s) for s in divisors(order)[:-1]}
    counts[order] = size
    return _certificate(poly, order, counts)


def _certificate(poly: QPolynomial, order: int, class_counts: dict[int, int]) -> CspCertificate:
    """Decide the sieving congruence and assemble a diagnosable certificate.

    ``class_counts`` maps each divisor s of the order to the number of
    elements the s-th power of the rotation fixes; s = order gives |X|.  The
    j-th power fixes what the gcd(j, order)-th does, and the elements in
    orbits of size t are those fixed by c^t but by no c^t' for a proper
    divisor t' of t.
    """
    if order < 1:
        raise ValueError("rotation order must be positive")
    if not poly.is_nonnegative_integer():
        raise ValueError(f"malformed instance: P = {poly} has negative or "
                         "non-integer coefficients")
    counts = {}
    for t, elements in sorted(_peel(class_counts).items(), reverse=True):
        if elements < 0 or elements % t != 0:
            raise ValueError(f"fixed-point counts {class_counts} are not those of a "
                             f"rotation of order {order}")
        if elements:
            counts[t] = elements // t
    reduced = poly.reduce_mod_cyclic(order)
    orbit_poly = orbit_polynomial(counts, order)
    fixed = tuple(class_counts[gcd(d, order)] for d in range(order))
    passed = reduced == orbit_poly
    failure = None
    message = ""
    if not passed:
        for d in range(order):
            value = evaluate_at_root_of_unity(poly, order, d)
            if value != fixed[d]:
                failure = d
                got = "non-integer" if value is None else str(value)
                message = f"P at divisor {d} gives {got}, fixed points {fixed[d]}"
                break
    return CspCertificate(passed, class_counts[order], order, counts, poly, reduced,
                          orbit_poly, fixed, failure, message)


def divisors(order: int) -> list[int]:
    """The divisors of ``order``, ascending."""
    return [s for s in range(1, order + 1) if order % s == 0]


def _peel(totals: dict[int, object]) -> dict[int, object]:
    """Invert divisor sums: given totals[c] = sum of parts[c'] over the divisors
    c' of c, for every divisor c of some N, return parts; smallest c first."""
    parts: dict[int, object] = {}
    for c in sorted(totals):
        parts[c] = totals[c] - sum(v for cc, v in parts.items() if c % cc == 0)
    return parts

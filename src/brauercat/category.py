"""Linear algebra of diagram morphisms: formal sums of Brauer diagrams.

Composition glues the bottom of x to the top of y and multiplies by the loop
parameter once per closed loop; the tensor product places diagrams side by
side.  Morphisms live over the formal loop parameter (delta=None) or over
exact rationals at a fixed specialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matchings import Diagram, PerfectMatching, enumerate_matchings, orbit_key, point_blocks
from .scalars import DeltaPoly, as_scalar, integer_terms


def compose_diagrams(x: Diagram, y: Diagram) -> tuple[int, Diagram]:
    """Glue x (shape (r, s)) on top of y (shape (s, t)).

    Returns (number of closed loops removed, composite diagram of shape (r, t)):
    ``_glue`` on the two mate lists, wrapped in one ``Diagram``.
    """
    if x.s != y.r:
        raise ValueError(f"cannot compose shapes ({x.r},{x.s}) and ({y.r},{y.s})")
    loops, pairs = _glue(x.matching.involution(), y.matching.involution(), x.r, x.s, y.s)
    return loops, Diagram(x.r, y.s, PerfectMatching._from_canonical(pairs))


def _glue(mx: list[int], my: list[int], r: int, s: int, t: int):
    """Glue the mate list mx of r+s points on top of my of s+t points.

    Returns (closed loops, canonical pairs of the composite on r+t points).
    Glue point j is x-point r+j and y-point j.  A walk from each external
    point alternates between the two matchings until it leaves the glue,
    marking the glue points it passes; every glue cycle left unmarked is a
    closed loop.
    """
    glued = [False] * (s + 1)
    paired = [False] * (r + t + 1)   # composite labels: x top 1..r, y bottom r+1..r+t
    pairs = []
    for start in range(1, r + t + 1):
        if paired[start]:
            continue
        in_x = start <= r
        p = mx[start] if in_x else my[start - r + s]
        while True:
            if in_x:
                if p <= r:
                    end = p
                    break
                p -= r
                glued[p] = True
                p, in_x = my[p], False
            else:
                if p > s:
                    end = p - s + r
                    break
                glued[p] = True
                p, in_x = mx[p + r], True
        paired[start] = paired[end] = True
        pairs.append((start, end))
    loops = 0
    for j in range(1, s + 1):
        if glued[j]:
            continue
        loops += 1
        p = j
        while not glued[p]:
            glued[p] = True
            p = mx[p + r] - r
            glued[p] = True
            p = my[p]
    # canonical already: starts ascend, and each end is a later, unpaired point
    return loops, tuple(pairs)


def tensor_diagrams(x: Diagram, y: Diagram) -> Diagram:
    """Place x and y side by side: shape (r1 + r2, s1 + s2).  Both relabellings
    increase, so each pair keeps a < b and one sort makes the pairs canonical."""
    r1, s1, r2, s2 = x.r, x.s, y.r, y.s

    def map_x(p):
        return p if p <= r1 else p + r2

    def map_y(p):
        return p + r1 if p <= r2 else p + r1 + s1

    pairs = [(map_x(a), map_x(b)) for a, b in x.matching.pairs]
    pairs += [(map_y(a), map_y(b)) for a, b in y.matching.pairs]
    return Diagram(r1 + r2, s1 + s2, PerfectMatching._from_canonical(tuple(sorted(pairs))))


def closure_loops(d: Diagram) -> int:
    """Loops formed by closing top point i onto bottom point i: the closing
    matching (i, r+i) glued on top of d."""
    if d.r != d.s:
        raise ValueError(f"trace needs a square shape, got ({d.r},{d.s})")
    r = d.r
    close = [0, *range(r + 1, 2 * r + 1), *range(1, r + 1)]
    return _glue(close, d.matching.involution(), 0, 2 * r, 0)[0]


class Morphism:
    """A finite formal linear combination of same-shape diagrams.  The constructor
    checks shapes and coerces each coefficient into delta's ring (``as_scalar``);
    arithmetic builds its results, already in the ring, by ``_normalized``."""

    __slots__ = ("r", "s", "delta", "terms")

    def __init__(self, r: int, s: int, terms, delta: Fraction | None = None):
        self.r = r
        self.s = s
        self.delta = None if delta is None else Fraction(delta)
        self.terms = {}
        for d, c in dict(terms).items():
            if d.r != r or d.s != s:
                raise ValueError(f"diagram of shape ({d.r},{d.s}) in a ({r},{s}) morphism")
            coeff = as_scalar(c, self.delta)
            if coeff:
                self.terms[d] = coeff

    @classmethod
    def _normalized(cls, r: int, s: int, terms: dict, delta: Fraction | None) -> Morphism:
        """A morphism of coefficients already in delta's ring: zeros dropped, none coerced."""
        out = cls.__new__(cls)
        out.r, out.s, out.delta, out.terms = r, s, delta, {d: c for d, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, r: int, s: int, delta=None) -> Morphism:
        return cls(r, s, {}, delta)

    @classmethod
    def identity(cls, m: int, delta=None) -> Morphism:
        return cls(m, m, {Diagram.identity(m): 1}, delta)

    @classmethod
    def from_diagram(cls, d: Diagram, delta=None, coeff=1) -> Morphism:
        return cls(d.r, d.s, {d: coeff}, delta)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_ring(self, other: Morphism):
        if self.delta != other.delta:
            raise ValueError(f"mixed coefficient rings: delta={self.delta} vs delta={other.delta}")

    def accumulate(self, signed) -> Morphism:
        """self + sign_1*m_1 + sign_2*m_2 + ... for (sign, m) pairs with sign
        +1 or -1: every coefficient is added into one dict, and one Morphism
        is built at the end."""
        terms = dict(self.terms)
        for sign, other in signed:
            self._check_ring(other)
            if (self.r, self.s) != (other.r, other.s):
                raise ValueError(
                    f"cannot add shapes ({self.r},{self.s}) and ({other.r},{other.s})")
            for d, c in other.terms.items():
                terms[d] = terms.get(d, 0) + (c if sign > 0 else -c)
        return Morphism._normalized(self.r, self.s, terms, self.delta)

    def __add__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.accumulate([(1, other)])

    def __sub__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.accumulate([(-1, other)])

    def scaled(self, scalar) -> Morphism:
        k = as_scalar(scalar, self.delta)
        return Morphism._normalized(self.r, self.s, {d: c * k for d, c in self.terms.items()},
                                    self.delta)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return self.scaled(other)
        return NotImplemented

    def __mul__(self, other):
        """Composition (self on top of other), or scaling by a scalar.

        Rational coefficients are taken as integers over their lcm denominator and
        delta = p/q as the weight p^k * q^(h-k) of k loops (h = s // 2), so a pair
        adds an integer and each output term is one Fraction, sum / (lx * ly * q^h),
        not three Fraction operations per pair.  Formal weights are d^k.  Each
        operand term's mate list is taken once per product, each pair is glued by
        ``_glue`` into a canonical pairs tuple that keys the sums, and one Diagram
        is built per output term."""
        if isinstance(other, (int, Fraction, DeltaPoly)):
            return self.scaled(other)
        if not isinstance(other, Morphism):
            return NotImplemented
        self._check_ring(other)
        if self.s != other.r:
            raise ValueError(
                f"cannot compose shapes ({self.r},{self.s}) and ({other.r},{other.s})")
        (xs, lx), (ys, ly) = self._integer_terms(), other._integer_terms()
        r, s, t = self.r, self.s, other.s
        weights, qh = self._loop_weights(s // 2)  # a closed loop passes two glue points or more
        ys = [(dy.matching.involution(), cy) for dy, cy in ys]
        acc: dict[tuple, object] = {}
        for dx, cx in xs:
            mx = dx.matching.involution()
            for my, cy in ys:
                loops, pairs = _glue(mx, my, r, s, t)
                acc[pairs] = acc.get(pairs, 0) + cx * cy * weights[loops]
        den = lx * ly * qh
        return Morphism._normalized(r, t, {Diagram(r, t, PerfectMatching._from_canonical(pairs)):
                                           a if self.delta is None else Fraction(a, den)
                                           for pairs, a in acc.items()}, self.delta)

    def _integer_terms(self):
        """The terms as (diagram, numerator) over the lcm of the denominators;
        formal coefficients as they are, over 1."""
        if self.delta is None:
            return self.terms.items(), 1
        return integer_terms(self.terms)

    def _loop_weights(self, h: int):
        """(weights, q^h) for up to h closed loops: k loops weigh d^k over 1 when
        formal, and p^k * q^(h-k) over q^h at delta = p/q."""
        if self.delta is None:
            return [DeltaPoly.delta(k) for k in range(h + 1)], 1
        p, q = self.delta.as_integer_ratio()
        return [p ** k * q ** (h - k) for k in range(h + 1)], q ** h

    def __matmul__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        self._check_ring(other)
        terms: dict[Diagram, object] = {}
        for dx, cx in self.terms.items():
            for dy, cy in other.terms.items():
                d = tensor_diagrams(dx, dy)
                terms[d] = terms.get(d, 0) + cx * cy
        return Morphism._normalized(self.r + other.r, self.s + other.s, terms, self.delta)

    def trace(self):
        """Diagrammatic closure: sum of coeff * delta^loops over the terms, in
        integers and loop weights as in ``__mul__``."""
        if self.r != self.s:
            raise ValueError(f"trace needs a square shape, got ({self.r},{self.s})")
        (terms, den), (weights, qh) = self._integer_terms(), self._loop_weights(self.r)
        total = sum(c * weights[closure_loops(d)] for d, c in terms)  # r loops at most
        return as_scalar(total, None) if self.delta is None else Fraction(total, den * qh)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.r, self.s, self.delta) == (other.r, other.s, other.delta) \
            and self.terms == other.terms

    def __repr__(self):
        return f"Morphism({self.r},{self.s}; {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for text, c in sorted(((str(d), c) for d, c in self.terms.items()), key=lambda t: t[0]):
            coeff = str(c)
            if " " in coeff:  # a coefficient of two or more terms, like 1 - d
                coeff = f"({coeff})"
            parts.append(f"{coeff}*{text}")
        return " + ".join(parts).replace("+ -", "- ")


def _blocks(m: Morphism) -> list[int]:
    """``point_blocks`` of m's diagrams (points 1..r top, r+1..r+s bottom)."""
    return point_blocks({tuple(d.matching.involution()): c for d, c in m.terms.items()}, m.r + m.s)


def compose_by_orbits(x: Morphism, y: Morphism) -> Morphism:
    """x * y by one representative per orbit: a permutation sigma of y's top
    points that preserves y gives (x sigma) * y = x * y, so x's terms are
    summed over the orbits of their bottom points under y's ``point_blocks``,
    and each orbit's first term, with the orbit's sum, is glued to y."""
    block = _blocks(y)
    labels = [*range(x.r + 1), *(-block[g] for g in range(1, x.s + 1))]
    orbits: dict[tuple, tuple] = {}
    for d, c in x.terms.items():
        rep, total = orbits.get(key := orbit_key(d.matching.pairs, labels), (d, 0))
        orbits[key] = rep, total + c
    return Morphism._normalized(x.r, x.s, dict(orbits.values()), x.delta) * y


def _generator(i: int, m: int, first, second) -> Diagram:
    """The (m, m) diagram joining strands i, i+1 by the pairs first and second,
    the rest vertical."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"generator index {i} out of range for {m} strands")
    pairs = [first, second] + [(a, m + a) for a in range(1, m + 1) if a not in (i, i + 1)]
    return Diagram(m, m, PerfectMatching(tuple(pairs)))


def generator_u(i: int, m: int) -> Diagram:
    """Cap-cup diagram: pairs (i, i+1) on top and on the bottom, rest vertical."""
    return _generator(i, m, (i, i + 1), (m + i, m + i + 1))


def generator_s(i: int, m: int) -> Diagram:
    """Simple transposition: strand i to bottom i+1 and vice versa."""
    return _generator(i, m, (i, m + i + 1), (i + 1, m + i))


def r_element(i: int, k: int, m: int, delta) -> Morphism:
    """The deformation 1/(k+1) * (1 + k*s_i - 2k/(delta+2k-2) * u_i).

    Needs a rational specialization; delta = 2 - 2k is a pole.
    """
    if delta is None:
        raise ValueError("r_element needs a rational specialization of the loop parameter")
    delta = Fraction(delta)
    if delta + 2 * k - 2 == 0:
        raise ValueError(f"pole: delta = {delta} equals 2 - 2k for k = {k}")
    inv = Fraction(1, k + 1)
    terms = {
        Diagram.identity(m): inv,
        generator_s(i, m): inv * k,
        generator_u(i, m): -inv * Fraction(2 * k, 1) / (delta + 2 * k - 2),
    }
    return Morphism(m, m, terms, delta)


def _check_rank(n: int):
    if n < 1:
        raise ValueError(f"the rank n must be at least 1, got {n}")


def _default_delta(n: int, delta):
    if delta == "auto":
        return Fraction(-2 * n)
    return delta


def e_sum(n: int, delta="auto") -> Morphism:
    """Average of all diagrams on n+1 strands; idempotent at delta = -2n."""
    _check_rank(n)
    m = n + 1
    delta = _default_delta(n, delta)
    coeff = Fraction(1, math.factorial(m))
    terms = {Diagram(m, m, pm): coeff for pm in enumerate_matchings(2 * m)}
    return Morphism(m, m, terms, delta)


def e_rec(n: int, delta="auto") -> Morphism:
    """The same idempotent built recursively from the deformation elements:
    E on j strands is E' R_{j-1}(j-1) E', where E' is E on j - 1 strands
    padded by an identity strand; (E' R) E' is ``compose_by_orbits``."""
    _check_rank(n)
    delta = _default_delta(n, delta)
    if delta is None:
        raise ValueError("recursive construction needs a rational specialization")
    # every R_k(k) first, so that a pole of any of them raises before a product
    rs = [r_element(k, k, k + 1, delta) for k in range(1, n + 1)]
    e = Morphism.identity(1, delta)
    for rk in rs:
        prev = e @ Morphism.identity(1, delta)
        e = compose_by_orbits(prev * rk, prev)
    return e


@dataclass(frozen=True)
class CentralityReport:
    passed: bool
    witness: Diagram | None = None
    detail: str = ""


def check_eq_ch(e: Morphism, n: int) -> CentralityReport:
    """Verify x*e == [pr(x) = m]*e == e*x for every diagram x on m = n+1 strands.

    Every (m, m) diagram is a loop-free word in s_i and u_i (i < m), and
    rho(x) = [pr(x) = m] is multiplicative on such words, so the relations
    hold for every x once s_i*e = e = e*s_i and u_i*e = 0 = e*u_i.  s_i*e is
    e with top points i, i+1 swapped, so the s_i relations hold when
    ``point_blocks`` joins points 1..m and m+1..2m; then u_i = pi u_1 pi^-1
    with pi^-1 e = e = e pi, and u_1*e = 0 = e*u_1 settles every u_i.
    Otherwise a scan names the first failing x in ``enumerate_matchings``
    order, with one product per orbit of x's bottom (top) points under e's
    blocks for x*e (e*x), as in ``compose_by_orbits``.
    """
    _check_rank(n)
    m = n + 1
    if (e.r, e.s) != (m, m):
        raise ValueError(f"expected a ({m},{m}) morphism, got ({e.r},{e.s})")
    zero = Morphism.zero(m, m, e.delta)
    block = _blocks(e)
    if len(set(block[1:m + 1])) == 1 and len(set(block[m + 1:])) == 1:
        u = Morphism.from_diagram(generator_u(1, m), e.delta)
        if (u * e).is_zero() and (e * u).is_zero():
            return CentralityReport(True)
    above = [*range(m + 1), *(-block[g] for g in range(1, m + 1))]  # x on top of e
    below = [0, *(-block[m + g] for g in range(1, m + 1)), *range(m + 1, 2 * m + 1)]
    sides = [(above, lambda xm: xm * e, "x*e != rho(x)*e", {}),  # {} is orbit key -> verdict
             (below, lambda xm: e * xm, "e*x != rho(x)*e", {})]
    for pm in enumerate_matchings(2 * m):
        x = Diagram(m, m, pm)
        want = e if x.propagating_number == m else zero
        for labels, product, failure, verdicts in sides:
            if (key := orbit_key(pm.pairs, labels)) not in verdicts:
                verdicts[key] = product(Morphism.from_diagram(x, e.delta)) == want
            if not verdicts[key]:
                return CentralityReport(False, x, failure)
    return CentralityReport(True)

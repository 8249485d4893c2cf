"""Exact symmetric functions in the power-sum basis.

Everything is stored as a map from partitions to rational coefficients of
p_lambda; Schur and complete/elementary functions exist only at conversion
boundaries.  Both directions are integer walks on bead masks by the
Murnaghan-Nakayama rule: ``_schur_sum_to_p`` removes ribbons to take a sum
of Schur functions to the p basis, ``_add_ribbons`` adds them to expand back.
``mn_character`` is the one-value character route the tests compare with.
Plethysm is the power-sum substitution p_j -> p_{jm}, which covers every
composition used here.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from types import MappingProxyType

from .partitions import (all_columns_even, all_rows_even, check_partition,
                         conjugate, partitions, sign_of_type, z_order)
from .qpoly import QPolynomial
from .tableaux import fake_degree_schur_hook


@cache
def mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible symmetric group character chi^lam at cycle type mu.

    Border strips are removed through the beta-set of first-column hooks.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"sizes differ: |{lam}| != |{mu}|")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


@cache
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    t, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b < t or b - t in beta_set:
            continue
        height = sum(1 for x in beta if b - t < x < b)
        new_beta = sorted((beta_set - {b}) | {b - t}, reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


class SymFuncP:
    """A symmetric function as a finite rational combination of p_lambda.

    ``coeffs`` is a read-only mapping, so a memoized value can be shared."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        clean = {}
        for lam, c in dict(coeffs).items():
            lam = check_partition(lam)
            c = Fraction(c)
            if c:
                clean[lam] = clean.get(lam, Fraction(0)) + c
        self.coeffs = MappingProxyType({lam: c for lam, c in clean.items() if c})

    @classmethod
    def _from_partitions(cls, coeffs: dict) -> SymFuncP:
        """Wrap a map whose keys are partitions already and whose values are
        Fractions, dropping the zeros; the arithmetic builds through this."""
        out = cls.__new__(cls)
        out.coeffs = MappingProxyType({lam: c for lam, c in coeffs.items() if c})
        return out

    @classmethod
    def zero(cls) -> SymFuncP:
        return cls()

    @classmethod
    def one(cls) -> SymFuncP:
        return cls({(): Fraction(1)})

    @classmethod
    def p(cls, lam) -> SymFuncP:
        return cls({check_partition(lam): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> list[int]:
        return sorted({sum(lam) for lam in self.coeffs})

    def homogeneous_component(self, degree: int) -> SymFuncP:
        return SymFuncP._from_partitions(
            {lam: c for lam, c in self.coeffs.items() if sum(lam) == degree})

    def coefficient(self, lam) -> Fraction:
        return self.coeffs.get(check_partition(lam), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFuncP._from_partitions(out)

    def __neg__(self):
        return SymFuncP._from_partitions({lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar) -> SymFuncP:
        scalar = Fraction(scalar)
        return SymFuncP._from_partitions({lam: c * scalar for lam, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scaled(scalar)
        return NotImplemented

    def __mul__(self, other):
        """Ring product: p_lam * p_mu concatenates the parts."""
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, SymFuncP):
            return NotImplemented
        out: dict = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                key = tuple(sorted(lam + mu, reverse=True))
                out[key] = out.get(key, Fraction(0)) + a * b
        return SymFuncP._from_partitions(out)

    def __eq__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"SymFuncP({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for lam in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[lam]
            parts.append(f"{c}*p[{','.join(map(str, lam))}]")
        return " + ".join(parts).replace("+ -", "- ")


def _integer_coeffs(f: SymFuncP) -> tuple[dict, int]:
    """f's coefficients as integers over their lcm denominator, and that denominator."""
    den = lcm(*(c.denominator for c in f.coeffs.values()))
    return {lam: c.numerator * (den // c.denominator) for lam, c in f.coeffs.items()}, den


def scalar_product(f: SymFuncP, g: SymFuncP) -> Fraction:
    """Hall inner product: <p_lam, p_mu> = z_lam [lam = mu]."""
    small, big = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    total = Fraction(0)
    for lam, c in small.coeffs.items():
        d = big.coeffs.get(lam)
        if d:
            total += c * d * z_order(lam)
    return total


def kronecker(f: SymFuncP, g: SymFuncP) -> SymFuncP:
    """Inner product of representations: p_lam * p_lam -> z_lam p_lam."""
    degs_f, degs_g = f.degrees(), g.degrees()
    if f.is_zero() or g.is_zero():
        return SymFuncP.zero()
    if degs_f != degs_g or len(degs_f) != 1:
        raise ValueError(f"kronecker needs equal homogeneous degrees, got {degs_f} and {degs_g}")
    out = {}
    for lam, a in f.coeffs.items():
        b = g.coeffs.get(lam)
        if b:
            out[lam] = a * b * z_order(lam)
    return SymFuncP._from_partitions(out)


@cache
def h_in_p(k: int) -> SymFuncP:
    """Complete homogeneous function: sum of p_mu / z_mu."""
    if k < 0:
        return SymFuncP.zero()
    return SymFuncP({mu: Fraction(1, z_order(mu)) for mu in partitions(k)})


@cache
def e_in_p(k: int) -> SymFuncP:
    """Elementary function: signed sum of p_mu / z_mu."""
    if k < 0:
        return SymFuncP.zero()
    return SymFuncP({mu: Fraction(sign_of_type(mu), z_order(mu)) for mu in partitions(k)})


@cache
def schur_to_p(lam: tuple[int, ...]) -> SymFuncP:
    """s_lam = sum over mu of chi^lam(mu) p_mu / z_mu."""
    lam = check_partition(lam)
    return _schur_sum_to_p((lam,), sum(lam))


def _bead_mask(lam: tuple[int, ...], beads: int) -> int:
    """Bead i (from 1) at lam_i + beads - i, with lam_i = 0 past the last part."""
    mask = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + beads - 1 - i)
    return mask


def _schur_sum_to_p(shapes, d: int) -> SymFuncP:
    """Sum of s_lam over the shapes (partitions of d, with repeats) in the p basis.

    The coefficient of p_mu is sum over lam of chi^lam(mu) / z_mu.  The walk
    runs over ``partitions(d)`` order, removing the parts t of mu largest
    first from a ``dict[mask, int]`` on d-bead masks: each bead at b with
    b - t free moves down to b - t with sign (-1)^(beads strictly between)
    (Murnaghan-Nakayama).  Partitions sharing a prefix share its removals;
    mu's total is the weight left on the empty shape.
    """
    start: dict[int, int] = {}
    for lam in shapes:
        mask = _bead_mask(lam, d)
        start[mask] = start.get(mask, 0) + 1
    out = {}

    def walk(state: dict[int, int], remaining: int, largest: int, mu: tuple[int, ...]):
        if not remaining:
            out[mu] = Fraction(state[(1 << d) - 1], z_order(mu))
            return
        for t in range(min(largest, remaining), 0, -1):
            between = (1 << (t - 1)) - 1
            nxt: dict[int, int] = {}
            for mask, c in state.items():
                movable = mask >> t & ~mask
                while movable:
                    low = movable & -movable
                    movable ^= low
                    new = mask ^ low ^ (low << t)
                    odd = (mask >> low.bit_length() & between).bit_count() & 1
                    nxt[new] = nxt.get(new, 0) + (-c if odd else c)
            nxt = {mask: c for mask, c in nxt.items() if c}
            if nxt:
                walk(nxt, remaining - t, t, mu + (t,))

    if start:
        walk(start, d, d, ())
    return SymFuncP._from_partitions(out)


def _add_ribbons(terms: list, beads: int) -> dict[int, int]:
    """Schur expansion of sum c * p_mu over (mu, c) in terms, keyed by bead mask.

    Bead i (from 1) sits at lam_i + beads - i, with lam_i = 0 past the last part.
    f = sum over t of p_t * f_t, t the largest part: f_t is expanded first, then
    p_t * s_nu adds every t-ribbon to nu (Murnaghan-Nakayama), moving a bead
    from b to a free b + t with sign (-1)^(beads strictly between).
    """
    out: dict[int, int] = {}
    by_first: dict[int, list] = {}
    for mu, c in terms:
        if mu:
            by_first.setdefault(mu[0], []).append((mu[1:], c))
        else:
            out[(1 << beads) - 1] = c
    for t, rest in by_first.items():
        between = (1 << (t - 1)) - 1
        for mask, c in _add_ribbons(rest, beads).items():
            movable = mask & ~(mask >> t)
            while movable:
                low = movable & -movable
                movable ^= low
                new = mask ^ low ^ (low << t)
                odd = (mask >> low.bit_length() & between).bit_count() & 1
                out[new] = out.get(new, 0) + (-c if odd else c)
    return out


def schur_expand(f: SymFuncP) -> dict[tuple[int, ...], Fraction]:
    """Schur coefficients of every homogeneous component, by ascending degree
    and then in ``partitions(d)`` order.

    The coefficients of f are scaled once to integers over their common
    denominator; each degree d is expanded by ``_add_ribbons`` on d-bead
    masks, which builds no character table.
    """
    if f.is_zero():
        return {}
    scaled, den = _integer_coeffs(f)
    by_degree: dict[int, list] = {}
    for mu, c in scaled.items():
        by_degree.setdefault(sum(mu), []).append((mu, c))
    out = {}
    for d in sorted(by_degree):
        by_mask = _add_ribbons(by_degree[d], d)
        for lam in partitions(d):
            total = by_mask.get(_bead_mask(lam, d))
            if total:
                out[lam] = Fraction(total, den)
    return out


def plethysm_p(m: int, g: SymFuncP) -> SymFuncP:
    """p_m composed with g: substitute p_j -> p_{jm} in g."""
    out = {}
    for lam, c in g.coeffs.items():
        key = tuple(sorted((j * m for j in lam), reverse=True))
        out[key] = out.get(key, Fraction(0)) + c
    return SymFuncP._from_partitions(out)


def plethysm(f: SymFuncP, g: SymFuncP) -> SymFuncP:
    """f composed with g, through the p-expansion of f."""
    total = SymFuncP.zero()
    for lam, c in f.coeffs.items():
        term = SymFuncP.one()
        for part in lam:
            term = term * plethysm_p(part, g)
        total = total + term.scaled(c)
    return total


def h_series(max_degree: int) -> SymFuncP:
    """1 + h_1 + h_2 + ... truncated at the given degree."""
    total = SymFuncP.one()
    for k in range(1, max_degree + 1):
        total = total + h_in_p(k)
    return total


def cauchy_pairing(r: int, g: SymFuncP, partner: SymFuncP) -> SymFuncP:
    """<h_r(X * g(Y)), partner(Y)>_Y as a degree-r function of X.

    Uses h_r(XZ) = sum over nu of p_nu(X) p_nu[Z](Y) / z_nu with Z = g(Y).
    g and partner are scaled once to integers (z_lam folded into the
    partner), each product of the p_t[g] is built along a walk over
    ``partitions(r)`` that shares common prefixes, and each nu gets one
    ``Fraction``.
    """
    g_int, g_den = _integer_coeffs(g)
    partner_int, partner_den = _integer_coeffs(partner)
    weight = {lam: c * z_order(lam) for lam, c in partner_int.items()}
    # p_t[g]: scaling the parts of a partition keeps it sorted and distinct
    pleth = {t: [(tuple(t * j for j in lam), c) for lam, c in g_int.items()]
             for t in range(1, r + 1)}
    out = {}

    def walk(term: dict, remaining: int, largest: int, nu: tuple[int, ...]):
        if not remaining:
            total = sum(c * weight[lam] for lam, c in term.items() if lam in weight)
            if total:
                out[nu] = Fraction(total, g_den ** len(nu) * partner_den * z_order(nu))
            return
        for t in range(min(largest, remaining), 0, -1):
            nxt: dict = {}
            for lam, a in term.items():
                for mu, b in pleth[t]:
                    key = tuple(sorted(lam + mu, reverse=True))
                    nxt[key] = nxt.get(key, 0) + a * b
            nxt = {lam: c for lam, c in nxt.items() if c}
            if nxt:
                walk(nxt, remaining - t, t, nu + (t,))

    walk({(): 1}, r, r, ())
    return SymFuncP._from_partitions(out)


@cache
def _even_column_schur_sum(size: int, max_length: int | None) -> SymFuncP:
    """Sum of s over transposed partitions of size with even columns and at
    most max_length rows (no bound for None)."""
    return _schur_sum_to_p(
        [conjugate(lam) for lam in partitions(size)
         if all_columns_even(lam) and (max_length is None or len(lam) <= max_length)],
        size)


def invariant_character_matchings(r: int, n: int) -> SymFuncP:
    """Frobenius character of the invariants in the 2r-th tensor power.

    Sum of s over transposed partitions of 2r with even columns and at most
    2n rows; its dimension is the noncrossing matching count.
    """
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return _even_column_schur_sum(2 * r, 2 * n)


@cache
def invariant_character_sym_power(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th symmetric power.

    n=None drops the row bound (the stable range)."""
    partner = _even_column_schur_sum(k * r, None if n is None else 2 * n)
    return cauchy_pairing(r, e_in_p(k), partner)


@cache
def invariant_character_fundamental(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th fundamental
    representation; the pairing partner ranges over all sizes up to kr."""
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = None if n is None else 2 * n
    # the sizes are the degrees, so their terms never share a partition
    partner = SymFuncP._from_partitions(
        {lam: c for size in range(k * r + 1)
         for lam, c in _even_column_schur_sum(size, bound).coeffs.items()})
    g = h_in_p(k) - h_in_p(k - 2)
    return cauchy_pairing(r, g, partner)


def regular_graph_character(r: int, k: int) -> SymFuncP:
    """Character of the permutation action on loopless k-regular multigraphs:
    the pairing partner is sum_j h_j[h_2], and by Littlewood's identity
    h_j[h_2] is the even-row Schur sum of degree 2j, so this is the stable
    fundamental character."""
    return invariant_character_fundamental(r, k)


def littlewood_check(r: int) -> bool:
    """h_r composed with h_2 equals the even-row Schur sum in degree 2r."""
    lhs = plethysm(h_in_p(r), h_in_p(2))
    rhs = _schur_sum_to_p([lam for lam in partitions(2 * r) if all_rows_even(lam)], 2 * r)
    return lhs == rhs


def partition_category_character(r: int, n: int) -> SymFuncP:
    """Character of set partitions into at most n blocks: the degree-r part
    of h_n composed with 1 + h_1 + h_2 + ..."""
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return plethysm(h_in_p(n), h_series(r)).homogeneous_component(r)


def partition_category_character_multiset(r: int, n: int, k: int) -> SymFuncP:
    """Character of multiset partitions, each label k times, at most n blocks."""
    partner = plethysm(h_in_p(n), h_series(k * r))
    return cauchy_pairing(r, h_in_p(k), partner)


def adjoint_character_full(r: int) -> SymFuncP:
    """Sum of all p_lam of degree r (conjugation action on permutations)."""
    return SymFuncP({lam: Fraction(1) for lam in partitions(r)})


def adjoint_invariant_character(r: int, n: int) -> SymFuncP:
    """Kronecker squares of Schur functions with at most n rows."""
    total = SymFuncP.zero()
    for lam in partitions(r):
        if len(lam) <= n:
            s = schur_to_p(lam)
            total = total + kronecker(s, s)
    return total


def dimension(f: SymFuncP) -> Fraction:
    """Dimension of the representation a homogeneous character describes."""
    if f.is_zero():
        return Fraction(0)
    degs = f.degrees()
    if len(degs) != 1:
        raise ValueError("dimension needs a homogeneous character")
    r = degs[0]
    return f.coefficient((1,) * r) * factorial(r)


def fake_degree(f: SymFuncP) -> QPolynomial:
    """Linear extension of the maj generating polynomial over Schur terms.

    The Schur terms come from ``schur_expand`` (ribbons added on bead masks);
    each term's polynomial from the q-hook length formula
    (``fake_degree_schur_hook``); the walk over standard tableaux,
    ``fake_degree_schur``, is the by-definition route the tests compare with.
    Non-integer Schur coefficients are reported with a warning; the
    polynomial is returned regardless.
    """
    total: list = []
    for lam, c in sorted(schur_expand(f).items()):
        if c.denominator != 1:
            warnings.warn(f"non-integer Schur coefficient {c} at {lam}")
        poly = fake_degree_schur_hook(lam).coeffs
        total += [0] * (len(poly) - len(total))
        for i, x in enumerate(poly):
            total[i] += x * c
    return QPolynomial(total)

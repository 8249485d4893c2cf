"""Exact symmetric functions in the power-sum basis.

Everything is stored as a map from partitions to rational coefficients of
p_lambda; Schur and complete/elementary functions exist only at conversion
boundaries, through symmetric group characters.  Plethysm is the power-sum
substitution p_j -> p_{jm}, which covers every composition used here.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import (all_columns_even, all_rows_even, check_partition,
                         conjugate, partitions, sign_of_type, z_order)
from .qpoly import QPolynomial
from .tableaux import fake_degree_schur


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
    """A symmetric function as a finite rational combination of p_lambda."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        clean = {}
        for lam, c in dict(coeffs).items():
            lam = check_partition(lam)
            c = Fraction(c)
            if c:
                clean[lam] = clean.get(lam, Fraction(0)) + c
        self.coeffs = {lam: c for lam, c in clean.items() if c}

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
        return SymFuncP({lam: c for lam, c in self.coeffs.items() if sum(lam) == degree})

    def coefficient(self, lam) -> Fraction:
        return self.coeffs.get(check_partition(lam), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFuncP(out)

    def __neg__(self):
        return SymFuncP({lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, SymFuncP):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar) -> SymFuncP:
        return SymFuncP({lam: c * Fraction(scalar) for lam, c in self.coeffs.items()})

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
        return SymFuncP(out)

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
    return SymFuncP(out)


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
    out = {}
    for mu in partitions(sum(lam)):
        chi = mn_character(lam, mu)
        if chi:
            out[mu] = Fraction(chi, z_order(mu))
    return SymFuncP(out)


def p_to_schur_coeff(f: SymFuncP, lam) -> Fraction:
    """<f, s_lam> = sum over mu of f_mu chi^lam(mu)."""
    lam = check_partition(lam)
    size = sum(lam)
    total = Fraction(0)
    for mu, c in f.coeffs.items():
        if sum(mu) == size:
            total += c * mn_character(lam, mu)
    return total


def schur_expand(f: SymFuncP) -> dict[tuple[int, ...], Fraction]:
    """Schur coefficients of every homogeneous component."""
    out = {}
    for d in f.degrees():
        for lam in partitions(d):
            c = p_to_schur_coeff(f, lam)
            if c:
                out[lam] = c
    return out


def plethysm_p(m: int, g: SymFuncP) -> SymFuncP:
    """p_m composed with g: substitute p_j -> p_{jm} in g."""
    out = {}
    for lam, c in g.coeffs.items():
        key = tuple(sorted((j * m for j in lam), reverse=True))
        out[key] = out.get(key, Fraction(0)) + c
    return SymFuncP(out)


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
    """
    out = {}
    for nu in partitions(r):
        term = SymFuncP.one()
        for part in nu:
            term = term * plethysm_p(part, g)
        c = scalar_product(term, partner)
        if c:
            out[nu] = c / z_order(nu)
    return SymFuncP(out)


def _even_column_schur_sum(size: int, max_length: int | None) -> SymFuncP:
    total = SymFuncP.zero()
    for lam in partitions(size):
        if not all_columns_even(lam):
            continue
        if max_length is not None and len(lam) > max_length:
            continue
        total = total + schur_to_p(conjugate(lam))
    return total


def invariant_character_matchings(r: int, n: int) -> SymFuncP:
    """Frobenius character of the invariants in the 2r-th tensor power.

    Sum of s over transposed partitions of 2r with even columns and at most
    2n rows; its dimension is the noncrossing matching count.
    """
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return _even_column_schur_sum(2 * r, 2 * n)


def invariant_character_sym_power(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th symmetric power.

    n=None drops the row bound (the stable range)."""
    partner = _even_column_schur_sum(k * r, None if n is None else 2 * n)
    return cauchy_pairing(r, e_in_p(k), partner)


def invariant_character_fundamental(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th fundamental
    representation; the pairing partner ranges over all sizes up to kr."""
    if k < 1:
        raise ValueError("k must be at least 1")
    partner = SymFuncP.zero()
    for size in range(k * r + 1):
        partner = partner + _even_column_schur_sum(size, None if n is None else 2 * n)
    g = h_in_p(k) - h_in_p(k - 2)
    return cauchy_pairing(r, g, partner)


def regular_graph_character(r: int, k: int) -> SymFuncP:
    """Character of the permutation action on loopless k-regular multigraphs."""
    if k < 1:
        raise ValueError("k must be at least 1")
    g = h_in_p(k) - h_in_p(k - 2)
    partner = plethysm(h_series(k * r), h_in_p(2))
    return cauchy_pairing(r, g, partner)


def littlewood_check(r: int) -> bool:
    """h_r composed with h_2 equals the even-row Schur sum in degree 2r."""
    lhs = plethysm(h_in_p(r), h_in_p(2))
    rhs = SymFuncP.zero()
    for lam in partitions(2 * r):
        if all_rows_even(lam):
            rhs = rhs + schur_to_p(lam)
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

    Non-integer Schur coefficients are reported with a warning; the
    polynomial is returned regardless.
    """
    total = QPolynomial()
    for lam, c in sorted(schur_expand(f).items()):
        if c.denominator != 1:
            warnings.warn(f"non-integer Schur coefficient {c} at {lam}")
        total = total + QPolynomial(tuple(x * c for x in fake_degree_schur(lam).coeffs))
    return total

"""Exact symmetric functions in the power-sum basis.

Everything is stored as a map from partitions to rational coefficients of
p_lambda; Schur and complete/elementary functions exist only at conversion
boundaries.  Both directions are integer walks on bead masks by the
Murnaghan-Nakayama rule: ``_schur_sum_to_p`` removes ribbons of length >= 2
to take a sum of Schur functions to the p basis and closes each all-ones tail
by the hook length formula; ``_add_ribbons`` adds ribbons to expand back.
``mn_character`` is the one-value character route the tests compare with.
Plethysm and the Cauchy pairing share one integer walk, ``_power_products``,
over products of the substitutions p_t[g] (p_j -> p_{jt}) with shared
prefixes; a degree cap drops the terms no caller reads.
Fake degrees sum q-hook polynomials in integers: ``fake_degree`` over the
Schur expansion of any function, ``fake_degree_matchings`` over the doubled
shapes 2mu of the invariant character directly, with no expansion at all.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from math import factorial, inf, prod
from types import MappingProxyType

from .partitions import check_partition, partitions, sign_of_type, z_order
from .qpoly import QPolynomial
from .scalars import integer_terms
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


@cache
def _bead_syt_count(mask: int) -> int:
    """f^lam, the number of standard tableaux of the shape with this bead mask
    (any bead count): |lam|! * prod (b - c) / prod b! over the bead positions
    b > c, the hook length formula on the beads (Frobenius).  The beads packed
    at the bottom are dropped first: shifting the rest down keeps the shape."""
    mask >>= ((mask + 1) & ~mask).bit_length() - 1
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    num = factorial(sum(beads) - len(beads) * (len(beads) - 1) // 2)
    num *= prod(b - c for i, b in enumerate(beads) for c in beads[:i])
    return num // prod(factorial(b) for b in beads)


def _schur_sum_to_p(shapes, d: int) -> SymFuncP:
    """Sum of s_lam over the shapes (partitions of d, with repeats) in the p basis.

    The coefficient of p_mu is sum over lam of chi^lam(mu) / z_mu.  The walk
    runs over the parts t >= 2 of mu, largest first, removing them from a
    ``dict[mask, int]`` on d-bead masks: each bead at b with b - t free moves
    down to b - t with sign (-1)^(beads strictly between) (Murnaghan-Nakayama).
    Partitions sharing a prefix share its removals.  Every node closes its
    all-ones tail at once, since chi^nu(1^m) = f^nu: p_(mu, 1^m) gets the sum
    of the weights times ``_bead_syt_count``, in ``partitions(d)`` order.
    """
    start: dict[int, int] = {}
    for lam in shapes:
        mask = _bead_mask(lam, d)
        start[mask] = start.get(mask, 0) + 1
    out = {}

    def walk(state: dict[int, int], remaining: int, largest: int, mu: tuple[int, ...]):
        for t in range(min(largest, remaining), 1, -1):
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
        total = sum(c * _bead_syt_count(mask) for mask, c in state.items())
        if total:
            out[mu + (1,) * remaining] = Fraction(total, z_order(mu) * factorial(remaining))

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
    scaled, den = integer_terms(f.coeffs)
    by_degree: dict[int, list] = {}
    for mu, c in scaled:
        by_degree.setdefault(sum(mu), []).append((mu, c))
    out = {}
    for d in sorted(by_degree):
        by_mask = _add_ribbons(by_degree[d], d)
        for lam in partitions(d):
            total = by_mask.get(_bead_mask(lam, d))
            if total:
                out[lam] = Fraction(total, den)
    return out


def _power_products(terms: list, g_int: list, max_degree: int | None):
    """Yield (lam, c, p_lam[G]) for each (lam, c) of terms, G = sum of b * p_mu
    over (mu, b) in g_int and p_lam[G], the product of the p_t[G] over the parts
    t of lam, an integer map {mu: coefficient}.  As in ``_add_ribbons`` terms are
    grouped by their next part, so a shared prefix shares its products.  With
    ``max_degree`` every product drops its terms of higher degree (degrees add
    up and none is negative); a product that vanishes ends its branch."""
    limit = inf if max_degree is None else max_degree
    pleth: dict[int, list] = {}

    def walk(group: list, product: dict, depth: int):
        by_part: dict[int, list] = {}
        for lam, c in group:
            if len(lam) == depth:
                yield lam, c, product
            else:
                by_part.setdefault(lam[depth], []).append((lam, c))
        for t, sub in by_part.items():
            if t not in pleth:  # p_t[G] by degree; scaled parts stay sorted and distinct
                pleth[t] = sorted((t * sum(mu), tuple(t * j for j in mu), b) for mu, b in g_int)
            nxt: dict = {}
            for lam, a in product.items():
                room = limit - sum(lam)
                for deg, mu, b in pleth[t]:
                    if deg > room:
                        break
                    key = tuple(sorted(lam + mu, reverse=True))
                    nxt[key] = nxt.get(key, 0) + a * b
            nxt = {lam: c for lam, c in nxt.items() if c}
            if nxt:
                yield from walk(sub, nxt, depth + 1)

    return walk(terms, {(): 1}, 0)


def plethysm(f: SymFuncP, g: SymFuncP, max_degree: int | None = None) -> SymFuncP:
    """f composed with g, through the p-expansion of f.

    f and g are scaled once to integers and ``_power_products`` forms each
    p_lam[g] on numerators; a term of length l is weighted by g's denominator
    to the power (longest l) - l, so each output term gets one ``Fraction``.
    With ``max_degree`` each product drops its terms of higher degree, and the
    result is exact up to the cap.
    """
    f_int, f_den = integer_terms(f.coeffs)
    g_int, g_den = integer_terms(g.coeffs)
    longest = max((len(lam) for lam, _ in f_int), default=0)
    total: dict = {}
    for lam, c, product in _power_products(f_int, g_int, max_degree):
        c *= g_den ** (longest - len(lam))
        for mu, b in product.items():
            total[mu] = total.get(mu, 0) + c * b
    den = f_den * g_den ** longest
    return SymFuncP._from_partitions({mu: Fraction(c, den) for mu, c in total.items() if c})


def h_series(max_degree: int) -> SymFuncP:
    """1 + h_1 + h_2 + ... truncated at the given degree."""
    return sum((h_in_p(k) for k in range(1, max_degree + 1)), SymFuncP.one())


def cauchy_pairing(r: int, g: SymFuncP, partner: SymFuncP) -> SymFuncP:
    """<h_r(X * g(Y)), partner(Y)>_Y as a degree-r function of X.

    Uses h_r(XZ) = sum over nu of p_nu(X) p_nu[Z](Y) / z_nu with Z = g(Y).
    g and partner are scaled once to integers (z_lam folded into the
    partner); the walk of ``plethysm``, ``_power_products``, builds each
    p_nu[g] over ``partitions(r)``, pairs it with the partner at its leaf,
    and each nu gets one ``Fraction``.
    """
    g_int, g_den = integer_terms(g.coeffs)
    partner_int, partner_den = integer_terms(partner.coeffs)
    weight = {lam: c * z_order(lam) for lam, c in partner_int}
    out = {}
    for nu, _, product in _power_products([(nu, 1) for nu in partitions(r)], g_int, None):
        total = sum(c * weight[lam] for lam, c in product.items() if lam in weight)
        if total:
            out[nu] = Fraction(total, g_den ** len(nu) * partner_den * z_order(nu))
    return SymFuncP._from_partitions(out)


@cache
def _even_column_schur_sum(size: int, max_length: int | None) -> SymFuncP:
    """Sum of s over the transposes of the even-column shapes of size with at most
    max_length rows (no bound for None): the s_2mu with mu_1 <= max_length // 2."""
    if size % 2:
        return SymFuncP.zero()
    half = partitions(size // 2, None if max_length is None else max_length // 2)
    return _schur_sum_to_p([tuple(2 * p for p in mu) for mu in half], size)


def invariant_character_matchings(r: int, n: int) -> SymFuncP:
    """Frobenius character of the invariants in the 2r-th tensor power.

    Sum of s_2mu over the partitions mu of r with mu_1 <= n; its dimension is
    the noncrossing matching count.
    """
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return _even_column_schur_sum(2 * r, 2 * n)


@cache
def invariant_character_sym_power(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th symmetric power.

    n=None drops the row bound (the stable range)."""
    if r < 0 or (n is not None and n < 1) or k < 1:
        raise ValueError(f"need r >= 0, n >= 1 and k >= 1, got r={r}, n={n}, k={k}")
    partner = _even_column_schur_sum(k * r, None if n is None else 2 * n)
    return cauchy_pairing(r, e_in_p(k), partner)


@cache
def invariant_character_fundamental(r: int, k: int, n: int | None = None) -> SymFuncP:
    """Character of the invariants in r-fold tensors of the k-th fundamental
    representation; the pairing partner ranges over all sizes up to kr."""
    if r < 0 or (n is not None and n < 1) or k < 1:
        raise ValueError(f"need r >= 0, n >= 1 and k >= 1, got r={r}, n={n}, k={k}")
    bound = None if n is None else 2 * n
    # each size has its own degree, so the sum is a union of disjoint keys
    partner = SymFuncP._from_partitions({lam: c for size in range(k * r + 1) for lam, c
                                         in _even_column_schur_sum(size, bound).coeffs.items()})
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
    return plethysm(h_in_p(r), h_in_p(2)) == _even_column_schur_sum(2 * r, None)


def partition_category_character(r: int, n: int) -> SymFuncP:
    """Character of set partitions into at most n blocks: the degree-r part
    of h_n composed with 1 + h_1 + h_2 + ..."""
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return plethysm(h_in_p(n), h_series(r), r).homogeneous_component(r)


def partition_category_character_multiset(r: int, n: int, k: int) -> SymFuncP:
    """Character of multiset partitions, each label k times, at most n blocks."""
    if r < 0 or n < 1 or k < 1:
        raise ValueError(f"need r >= 0, n >= 1 and k >= 1, got r={r}, n={n}, k={k}")
    partner = plethysm(h_in_p(n), h_series(k * r), k * r)  # the pairing reads degree kr
    return cauchy_pairing(r, h_in_p(k), partner)


def adjoint_character_full(r: int) -> SymFuncP:
    """Sum of all p_lam of degree r (conjugation action on permutations)."""
    return SymFuncP({lam: Fraction(1) for lam in partitions(r)})


def adjoint_invariant_character(r: int, n: int) -> SymFuncP:
    """Kronecker squares of Schur functions with at most n rows: p_mu gets
    the sum of the integers chi^lam(mu)^2 over those lam, over z_mu."""
    z = {mu: z_order(mu) for mu in partitions(r)}
    squares = dict.fromkeys(z, 0)
    for lam in partitions(r):
        if len(lam) <= n:
            for mu, c in schur_to_p(lam).coeffs.items():
                chi = c.numerator * (z[mu] // c.denominator)
                squares[mu] += chi * chi
    return SymFuncP._from_partitions({mu: Fraction(sq, z[mu]) for mu, sq in squares.items()})


def dimension(f: SymFuncP) -> Fraction:
    """Dimension of the representation a homogeneous character describes."""
    if f.is_zero():
        return Fraction(0)
    degs = f.degrees()
    if len(degs) != 1:
        raise ValueError("dimension needs a homogeneous character")
    r = degs[0]
    return f.coefficient((1,) * r) * factorial(r)


def _hook_sum(terms) -> list[int]:
    """Coefficient list of sum c * f^lam(q) over integer (lam, c) terms, each
    f^lam from the q-hook length formula (``fake_degree_schur_hook``)."""
    total: list[int] = []
    for lam, c in terms:
        poly = fake_degree_schur_hook(lam).coeffs
        total += [0] * (len(poly) - len(total))
        for i, x in enumerate(poly):
            total[i] += x * c
    return total


def fake_degree(f: SymFuncP) -> QPolynomial:
    """Linear extension of the maj generating polynomial over Schur terms.

    The Schur terms come from ``schur_expand`` (ribbons added on bead masks)
    and are scaled once to integers over their common denominator; the
    q-hook polynomials (``fake_degree_schur_hook``) are summed in integers
    and each output coefficient is divided once.  The walk over standard
    tableaux, ``fake_degree_schur``, is the by-definition route the tests
    compare with.  Non-integer Schur coefficients are reported with a
    warning; the polynomial is returned regardless.
    """
    coeffs = schur_expand(f)
    for lam, c in sorted(coeffs.items()):
        if c.denominator != 1:
            warnings.warn(f"non-integer Schur coefficient {c} at {lam}")
    scaled, den = integer_terms(coeffs)
    return QPolynomial([Fraction(x, den) for x in _hook_sum(scaled)])


def fake_degree_matchings(r: int, n: int) -> QPolynomial:
    """Fake degree of ``invariant_character_matchings(r, n)`` in closed form.

    That character is the sum of s_2mu over mu |- r with mu_1 <= n, so its
    fake degree is the sum of the q-hook polynomials f^2mu(q) (Stanley, EC2
    Cor. 7.21.5), summed in integers with no p- or Schur expansion.
    """
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return QPolynomial(_hook_sum((tuple(2 * p for p in mu), 1) for mu in partitions(r, n)))

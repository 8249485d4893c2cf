"""Evaluation of diagrams as exact equivariant tensors over symplectic space.

The defining 2n-dimensional space carries the skew form <e_i, f_j> = d_ij in
the basis e_1..e_n, f_1..f_n.  ``ev_diagram`` writes the tensor of a diagram
down in closed form: a crossing-parity sign times one symplectic pairing per
strand; the generator tensors are its values on the cup, cap and crossing
diagrams.

Tensors are sparse, index tuples to exact values ((2n)^m nonzero on 2m points);
``ev_morphism`` sums on integer-coded keys and decodes only the survivors.
Where it costs fewer steps, it first takes the Gram norm of the sum in
integers (``_ev_norm``): bending preserves dot products, and over Q a zero
norm is a zero tensor, so a kernel element such as a Pfaffian generator or
the idempotent's E is settled with no tensor.  A point permutation sigma
acts by P_sigma ev(d) = sgn(sigma) ev(sigma d), the crossing sign being the
Pfaffian sign, so the Gram is invariant under it, and the norm is summed
over the classes of the point transpositions that preserve the
coefficients: T loop walks for E or a Pfaffian generator of T terms, and
the T (T + 1) / 2 of all pairs when no transposition does.

Exact ranks are integer-only, all from one left-looking LDL^T kernel,
``_gram_rank``, that asks a positive semidefinite Gram matrix only for its k
pivot columns, and for each only on the rows still live.  ``ev_gram_rank``
takes those of the flat-diagram tensors in closed form, one signed factor of
2n per loop of the two matchings, so it builds no tensor and no full Gram;
``rank_of_span`` takes them from arbitrary tensors by index key, and
``exact_rank`` from a matrix's rows.  ``ev_rank``, the rank behind
``ev-rank``, certifies it as |X(r, n)| instead: the Gram of X splits into
rotation blocks over GF(p) (``_block_rank``), and the Pfaffian check bounds
it from above; ``ev_gram_rank`` is its fallback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import itemgetter, mul

from .category import Morphism
from .matchings import (Diagram, PerfectMatching, count_X, crossing_pairs, enumerate_matchings,
                        enumerate_X, orbit_key, point_blocks, rotation_cycles, _bent_matching)
from .pfaffian import PfGenerator, pfaffian
from .scalars import integer_terms


class Tensor:
    """Sparse exact multi-dimensional array; immutable by convention."""

    __slots__ = ("dims", "data")

    def __init__(self, dims: tuple[int, ...], data: dict | None = None):
        self.dims = tuple(dims)
        self.data = {k: v for k, v in (data or {}).items() if v}

    @classmethod
    def _from_nonzero(cls, dims: tuple[int, ...], data: dict) -> Tensor:
        """Wrap a dict that holds no zero value, unchecked and uncopied;
        ``ev_diagram`` builds its tensors through this."""
        out = cls.__new__(cls)
        out.dims, out.data = dims, data
        return out

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.dims == other.dims and self.data == other.data

    def contract(self, other: Tensor, self_axes: tuple[int, ...],
                 other_axes: tuple[int, ...]) -> Tensor:
        """Sum over paired axes; result keeps self's remaining axes then other's."""
        if len(self_axes) != len(other_axes):
            raise ValueError("axis lists differ in length")
        for a, b in zip(self_axes, other_axes):
            if self.dims[a] != other.dims[b]:
                raise ValueError(f"contracted axes disagree: {self.dims[a]} vs {other.dims[b]}")
        self_keep = [i for i in range(self.ndim) if i not in self_axes]
        other_keep = [i for i in range(other.ndim) if i not in other_axes]
        buckets: dict[tuple, list] = {}
        for k, v in other.data.items():
            key = tuple(k[a] for a in other_axes)
            buckets.setdefault(key, []).append((tuple(k[i] for i in other_keep), v))
        data: dict[tuple, object] = {}
        for k, v in self.data.items():
            key = tuple(k[a] for a in self_axes)
            hits = buckets.get(key)
            if not hits:
                continue
            left = tuple(k[i] for i in self_keep)
            for right, w in hits:
                full = left + right
                data[full] = data.get(full, 0) + v * w
        return Tensor(tuple(self.dims[i] for i in self_keep)
                      + tuple(other.dims[i] for i in other_keep), data)


def _closed_form(d: Diagram, n: int) -> tuple[int, list]:
    """The sign and strand tables of ``ev_diagram``, in the order of the pairs."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    sign = -1 if crossing_pairs(_bent_matching(d)) % 2 else 1
    ident, cap, cup = _strand_tables(n)
    return sign, [ident if a <= d.r < b else cap if b <= d.r else cup for a, b in d.matching.pairs]


@cache
def _strand_tables(n: int) -> tuple[list, list, list]:
    """The identity, cap and cup tables of ``_closed_form`` at rank n."""
    cap = [((i, n + i), 1) for i in range(n)] + [((n + i, i), -1) for i in range(n)]
    return [((i, i), 1) for i in range(2 * n)], cap, [(ij, -v) for ij, v in cap]


def ev_diagram(d: Diagram, n: int) -> Tensor:
    """Tensor of a diagram: slots are the r top points then the s bottom points.

    Closed form: the sign (-1)^(crossings of the flattened diagram) times one
    factor per strand (a, b), a < b, on the indices (i_a, i_b).  With e_i at
    index i and f_i at index n + i, the factor of a cap is the form
    <e_i, f_i> = 1, <f_i, e_i> = -1; a cup takes its negative and a through
    strand the identity.  ``_closed_form`` holds the sign and the tables.
    """
    sign, factors = _closed_form(d, n)
    entries = [((), sign)]  # keys in pair order: i_a1, i_b1, i_a2, i_b2, ...
    for table in factors:
        entries = [(key + ij, x * v) for key, x in entries for ij, v in table]
    points = d.r + d.s
    if not points:
        return Tensor._from_nonzero((), dict(entries))
    slot = [0] * points  # slot p - 1 reads position slot[p - 1] of a pair-order key
    for pos, p in enumerate(p for pair in d.matching.pairs for p in pair):
        slot[p - 1] = pos
    reorder = itemgetter(*slot)
    return Tensor._from_nonzero((2 * n,) * points, {reorder(key): x for key, x in entries})


def ev_morphism(m: Morphism, n: int) -> Tensor:
    """Linear extension of the diagram evaluation, with Fraction values.

    The terms are lcm-scaled to integers.  When the Gram norm of the sum costs
    no more loop steps than its expansion has entries, at most about
    (T + 1) P / 4 (with no symmetry to sum over) against (2n)^(P/2) per term
    for T terms on P points, ``_ev_norm`` is taken first: a zero norm is a
    zero tensor.  Otherwise, and for a nonzero norm,
    the closed forms are summed with no tensor on integer keys (slot p of P
    weighs (2n)^(P-p)); only survivors are decoded.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if m.delta is None:
        raise ValueError("evaluation needs coefficients specialized at delta = -2n")
    if m.delta != Fraction(-2 * n):
        raise ValueError(f"morphism specialized at delta={m.delta}, expected {-2 * n}")
    points = m.r + m.s
    terms, scale = integer_terms(m.terms)
    if (len(terms) + 1) * points <= 4 * (2 * n) ** (points // 2) and not _ev_norm(terms, n):
        return Tensor((2 * n,) * points)
    weights = [(2 * n) ** p for p in range(points - 1, -1, -1)]
    data: dict[int, int] = {}
    for d, c in terms:
        sign, factors = _closed_form(d, n)
        entries = [(0, sign * c)]
        for (a, b), table in zip(d.matching.pairs, factors):
            offsets = [(i * weights[a - 1] + j * weights[b - 1], v) for (i, j), v in table]
            entries = [(k + o, x * v) for k, x in entries for o, v in offsets]
        for k, x in entries:  # cancelled entries leave, so a vanishing sum stays small
            if x := x + data.pop(k, 0):
                data[k] = x
    return Tensor((2 * n,) * points, {tuple(k // w % (2 * n) for w in weights):
                                      Fraction(x, scale) for k, x in data.items()})


def _ev_norm(terms: list, n: int) -> int:
    """The squared length sum_k v_k^2 of the tensor v = sum_i c_i ev(d_i), for
    integer terms (d_i, c_i), by the loop rule of ``_flat_gram``, summed over
    classes of a point symmetry of the terms.

    Bending contracts each top slot with a cup, whose table is a signed
    permutation of the 2n indices.  That map is the same for every diagram of
    one shape (r, s) and preserves dot products, so the norm is that of the
    flat sum of c_i ev(bend(d_i)), and <ev(a), ev(b)> = G(a, b) is a flat
    Gram entry.  Over Q the dot product is anisotropic, so the norm is 0
    exactly when the tensor is.

    A point permutation sigma moves the slots: P_sigma ev(d) =
    sgn(sigma) ev(sigma d), since the crossing sign (-1)^crossings is the
    Pfaffian sign of d and a strand turned around flips its antisymmetric
    factor.  So G(sigma a, sigma b) = G(a, b).  ``matchings.point_blocks``
    finds the point transpositions that preserve the map from flat matching
    to coefficient (one swapped mate tuple per term, looked up); they
    generate a product H of symmetric groups on point blocks, and the terms
    are a union of H-orbits, each with one coefficient c_O.  The orbit of a
    matching is its multiset of strand block pairs (``orbit_key``), and for
    orbits O, O', with x_O in O, sum over x in O and y in O' of G(x, y) is
    |O| sum_(y in O') G(x_O, y).  So the norm is the sum over orbits O of
    |O| c_O sum_y c_y G(x_O, y), y running over O and, counted twice, the
    orbits after O: one loop walk per term y for each orbit up to y's own.
    With no symmetry that is the T (T + 1) / 2 walks of every pair i <= j of
    T terms, and for one orbit it is T walks.  The crossing signs go into
    the coefficients, and the loop products are taken directly:
    ``_flat_gram``'s entry function would double the cost.
    """
    coeff, signed = {}, []  # flat mate tuple -> coefficient; terms with the crossing sign
    for d, c in terms:
        pm = _bent_matching(d)
        mate = tuple(pm.involution())
        coeff[mate] = c
        signed.append((pm.pairs, mate, -c if crossing_pairs(pm) % 2 else c))
    block = point_blocks(coeff, len(next(iter(coeff), (0,))) - 1)
    orbits: dict[tuple, list] = {}
    for pairs, mate, x in signed:
        orbits.setdefault(orbit_key(pairs, block), []).append((mate, x))
    classes = list(orbits.values())
    total = 0
    for o, members in enumerate(classes):
        a, x = members[0]
        own = sum(y * _loop_product(a, b, 2 * n) for b, y in members)
        cross = sum(y * _loop_product(a, b, 2 * n) for later in classes[o + 1:] for b, y in later)
        total += len(members) * x * (own + 2 * cross)
    return total


def _gram_rank(diag: list[int], column) -> int:
    """Rank of a positive semidefinite integer Gram matrix G from its diagonal;
    ``column(p, rows)`` is called only at the k pivots p, for G[rows, p] on the
    increasing list ``rows`` of live rows, which holds p and shrinks from call
    to call.

    Left-looking LDL^T: the Schur complement is S = G - sum_j beta_j w_j w_j^T,
    each w_j a primitive integer vector and beta_j rational.  The next pivot p
    has the smallest positive diagonal entry of S, and its column of S,
    G[:, p] - sum_j beta_j w_j[p] w_j, is h w with w primitive: beta = h / w[p].
    The diagonal d_i -= beta w_i^2 is kept as integers over one gcd-reduced
    common denominator.  S stays positive semidefinite, where a zero diagonal
    entry s_ii forces its whole row to vanish (s_ii s_jj >= s_ij^2), so a row
    whose diagonal reaches 0 is dead, and so is a pivot's row once eliminated.
    A column of S is formed and updated on the live rows only (w_j is 0 off
    the rows live at step j): at most sum_t t (N - t), about
    N k^2 / 2 - k^3 / 3, small-integer operations for k pivots, where forming
    and updating whole columns would take N k^2 / 2.  The rank is the number
    of pivots.
    """
    num, den = list(diag), 1  # the diagonal of S is num / den
    live = [i for i, x in enumerate(num) if x]
    terms, scale = [], 1  # (w_j, beta_j) and the lcm of the beta_j denominators
    while live:
        p = min(live, key=num.__getitem__)
        col = [scale * x for x in column(p, live)]  # scale * (column p of S) on the live rows
        for w, beta in terms:
            if f := beta.numerator * (scale // beta.denominator) * w[p]:
                col = [x - f * w[i] for x, i in zip(col, live)]
        h = gcd(*col)
        w = [0] * len(num)
        for i, x in zip(live, col):
            w[i] = x // h
        beta = Fraction(h, scale * w[p])
        terms.append((w, beta))
        scale = lcm(scale, beta.denominator)
        common = lcm(den, beta.denominator)
        u, v = common // den, beta.numerator * (common // beta.denominator)
        for i in live:
            num[i] = u * num[i] - v * w[i] * w[i]
        live = [i for i in live if num[i]]
        g = gcd(common, *(num[i] for i in live))
        den = common // g
        for i in live:
            num[i] //= g
    return len(terms)


def exact_rank(rows: list[list]) -> int:
    """Rank of an exact rational matrix A: ``rank_of_span`` of its rows, that is
    the rank of A A^T, which over Q is the same."""
    if len(lengths := {len(row) for row in rows}) > 1:
        raise ValueError(f"ragged rows: lengths {sorted(lengths)}")
    return rank_of_span([Tensor((len(row),), dict(enumerate(row))) for row in rows])


def rank_of_span(tensors: list[Tensor]) -> int:
    """Exact rank of the span: the rank of the Gram matrix of the flattened
    tensors, as over Q the dot product is anisotropic.  Each tensor is scaled
    to integers, and only the pivot columns of the Gram are formed, by index
    key: column p adds, for each key of tensor p, the products with every
    tensor that has an entry there.
    """
    scaled = []
    for t in tensors:
        if t.dims != tensors[0].dims:
            raise ValueError(f"shape mismatch: {t.dims} vs {tensors[0].dims}")
        scaled.append(integer_terms(t.data)[0])
    by_key: dict[tuple, list] = {}
    for i, data in enumerate(scaled):
        for key, v in data:
            by_key.setdefault(key, []).append((i, v))

    def column(p, rows):
        col = [0] * len(scaled)
        for key, w in scaled[p]:
            for i, v in by_key[key]:
                col[i] += v * w
        return [col[i] for i in rows]
    return _gram_rank([sum(v * v for _, v in data) for data in scaled], column)


def ev_gram_rank(matchings: list[PerfectMatching], n: int) -> int:
    """Rank of the Gram matrix of the flat diagrams ``matchings`` (``_flat_gram``);
    only its pivot columns are formed."""
    size, entry = _flat_gram(matchings, n)
    return _gram_rank([entry(i, i) for i in range(size)],
                      lambda p, rows: [entry(i, p) for i in rows])


def ev_rank(r: int, n: int) -> int:
    """Exact rank of span{ev(d)} over all perfect matchings d of 2r points.

    The rank is certified to be k = |X(r, n)| in two halves:

    - rank >= k: the Gram matrix of X has rank k modulo the fixed prime
      p = ``_P`` (``_block_rank``), and the rank over Q is at least the rank
      mod p.  GF(p) holds the roots of unity of order 2r for every r <= 18.
    - rank <= k: every diagram rewrites to span X through the Pfaffian
      relations (``pfaffian.normal_form``), and each relation is the Pfaffian
      of all 2n + 2 points with its subset relabelled, times a sign, with the
      fixed strands' forms attached: the crossing parity against a fixed
      strand is the parity of the subset points it encloses.  So one check,
      ev(Pf) = 0 on 2n + 2 points through the Gram norm, puts the relations in
      ker ev.  For n >= r, X holds every matching and the check is skipped.

    If either half fails (an unlucky prime, no root of order 2r mod p, or a
    true mismatch), the rank is ``ev_gram_rank`` of all N = (2r-1)!!
    matchings, about N k^2 / 2 steps.
    """
    k = count_X(r, n)
    if _block_rank(enumerate_X(r, n), n) == k and (n >= r or _pfaffian_vanishes(n)):
        return k
    return ev_gram_rank(list(enumerate_matchings(2 * r)), n)


def _pfaffian_vanishes(n: int) -> bool:
    """ev of the Pfaffian of all 2n + 2 points is 0 (a Gram-norm check)."""
    points = 2 * n + 2
    g = PfGenerator(n, points, tuple(range(1, points + 1)), ())
    return ev_morphism(pfaffian(g, Fraction(-2 * n)), n).is_zero()


# The field of ``_block_rank``: p = 37 * 2 * lcm(1..18) + 1 is prime, so GF(p)
# holds a root of unity of order 2r for every r <= 18, and G = 58 is its least
# primitive root.  Residues below 2^30 are one CPython digit.
_P, _G = 906_665_761, 58


def _block_rank(xs: list[PerfectMatching], n: int) -> int:
    """Rank modulo the prime p = ``_P`` of the Gram matrix of a rotation-closed
    set xs of matchings of 2r points, summed over rotation blocks; 0, which
    bounds nothing, when 2r does not divide p - 1 (first at r = 19).

    Rotation keeps crossings and turns exactly one strand, the one through
    point 2r, from (a, 2r) into (1, a + 1): its cup factor C[i_a, i_2r] becomes
    C[i_1, i_(a+1)], and C is antisymmetric.  So ev(rot d) = -P ev(d), P the
    cyclic shift of the slots, and since P preserves dot products
    G(rot a, rot b) = G(a, b) exactly.  G then commutes with the rotation R.
    Since R^(2r) = 1 and p does not divide 2r, R is diagonal over GF(p) with
    the eigenvalues omega^j, omega = ``_G``^((p-1)/2r) of exact order 2r
    (``_G`` generates the units mod p).  G is block-diagonal on the
    eigenspaces, and its rank is the sum of the block ranks.  Eigenspace j
    has the basis v_O = sum_t omega^(jt) rot^t x_O over the orbits O with
    omega^(j|O|) = 1, x_O the first element of O in xs, and block j is
    M_j(O, O') = sum_(t < |O'|) omega^(jt) G(x_O, rot^t x_O').

    f(t) = G(x_O, rot^t x_O') has period g = gcd(|O|, |O'|), and
    G(x_O', rot^t x_O) = f(-t), so one pair of orbits costs g loop walks and
    M_j(O, O') = (|O'| / g) sum_(t < g) omega^(jt) f(t).  The same relation
    gives M_(-j)(O', O) = (|O| / |O'|) M_j(O, O'): block -j is the transpose
    of block j up to a diagonal scaling, so only j = 0..r are eliminated.
    On no points the rotation is the identity, of order 1.
    """
    order, p = xs[0].n_points or 1, _P
    if (p - 1) % order:
        return 0
    omega = pow(_G, (p - 1) // order, p)
    cycles = rotation_cycles([x.pairs for x in xs])
    _, entry = _flat_gram(xs, n)
    sizes = [len(c) for c in cycles]
    forms = {}  # (o, o2) -> f(t) for t < gcd of the two orbit sizes
    for o, c in enumerate(cycles):
        for o2 in range(o, len(cycles)):
            f = [entry(c[0], i) for i in cycles[o2][:gcd(sizes[o], sizes[o2])]]
            forms[o2, o], forms[o, o2] = f[:1] + f[:0:-1], f
    rank = 0
    for j in range(order // 2 + 1):
        wave = [pow(omega, j * t % order, p) for t in range(order)]  # map(mul) stops at len(f)
        idx = [o for o in range(len(cycles)) if j * sizes[o] % order == 0]
        block = [[sum(map(mul, wave, forms[o, o2])) * (sizes[o2] // len(forms[o, o2])) % p
                  for o2 in idx] for o in idx]
        rank += _rank_mod_p(block, p) * (1 if 2 * j % order == 0 else 2)
    return rank


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of a matrix over GF(p) by row elimination, one column at a time:
    a row with a nonzero entry there clears the column from the others and
    leaves, and the column is dropped."""
    rank = 0
    while rows and rows[0]:
        pivot = next((row for row in rows if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        rank += 1
        inv = pow(pivot[0], -1, p)
        tail = [y * inv % p for y in pivot[1:]]
        rows = [[(x - f * y) % p for x, y in zip(row[1:], tail)] if (f := row[0]) else row[1:]
                for row in rows if row is not pivot]
    return rank


def _flat_gram(matchings: list[PerfectMatching], n: int):
    """The size of the Gram matrix G of the tensors of the flat diagrams
    ``matchings``, in closed form, and its entry function (i, j) -> G[i][j].

    For matchings a and b the entry is s(a) s(b) times one factor +-2n per
    loop of a and b together, s = (-1)^crossings.  A loop walked from its
    smallest point, an a-strand step then a b-strand step, with l a-steps
    and f steps from a smaller to a larger point, gives +2n when f + l is
    even and -2n otherwise: each strand contributes the cup matrix C = -J or
    its transpose -C, and C^2 = -1 on the 2n-dimensional space.
    """
    mates, signs = [], []
    for m in matchings:
        if m.n_points != matchings[0].n_points:
            raise ValueError(f"point count mismatch: {m.n_points} vs {matchings[0].n_points}")
        mates.append(m.involution())
        signs.append(-1 if crossing_pairs(m) % 2 else 1)
    return len(mates), lambda i, j: signs[i] * signs[j] * _loop_product(mates[i], mates[j], 2 * n)


def _loop_product(a: list[int], b: list[int], dim: int) -> int:
    """Product over the loops of the mate arrays a and b of +-dim (see ``_flat_gram``)."""
    seen = [False] * len(a)
    value = 1
    for start in range(1, len(a)):
        if seen[start]:
            continue
        parity = 0  # f + l mod 2
        p = start
        while True:
            q = a[p]
            seen[p] = seen[q] = True
            parity ^= q < p  # an a-step adds 1 to l and, going up, 1 to f
            p = b[q]
            parity ^= p > q
            if p == start:
                break
        value *= -dim if parity else dim
    return value

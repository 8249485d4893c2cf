"""Independent oracles the tests freeze expected values from.

Everything here is deliberately separate from the package internals: direct
definitions, classical recurrences, and brute-force enumeration only.  The
exceptions are ``normal_form_rescan``, which drives the package's own
rewrite step by a different strategy than ``normal_form`` (both share the
rewrite kernel, which ``rewrite_by_definition`` checks),
``fake_degree_by_syt``, which sums the package's tableau-walk fake degrees
where ``fake_degree`` uses the q-hook formula, ``p_to_schur_coeff``, which
sums the package's ``mn_character`` values where ``schur_expand`` adds
ribbons, ``orbits_by_rotate`` and ``orbit_by_moves``,
which walk orbits with ``PerfectMatching.rotate`` where ``orbits`` reads
them off one index permutation and ``chord_key`` reads them off chord
lengths, ``gram_by_dot``, which takes dot
products of the package's tensors where ``_flat_gram`` counts loops,
``pairwise_ev_norm``, which walks the package's loop products for every
pair of terms where ``_ev_norm`` walks one matching per symmetry class, and
``compose_by_definition``, which multiplies the package's scalars pair by
pair where ``Morphism.__mul__`` sums integer numerators,
``check_eq_ch_by_definition``, which builds ``e.scaled(rho)`` per diagram
and multiplies through ``compose_by_definition``, ``schur_sum_by_mn``, which
sums the package's ``mn_character`` columns where ``_schur_sum_to_p``
removes ribbons, ``cauchy_pairing_by_definition``, which multiplies and
pairs the package's ``SymFuncP`` values where ``cauchy_pairing`` walks
integer numerators, ``plethysm_by_products`` and ``adjoint_by_kronecker``,
which multiply and add the package's ``SymFuncP`` values where ``plethysm``
and ``adjoint_invariant_character`` sum integer numerators,
``fundamental_by_sums``, which adds the package's ``SymFuncP`` partners where
``invariant_character_fundamental`` unites their keys, and
``orbit_multiplicities_by_moebius``, which inverts
the package's reduction mod q^N - 1 by the Moebius function where
``orbit_multiplicities`` peels divisor classes.

The reference routes that tests compare the package against, but that no
command runs, also live here and use the package's types:

- ``ev_sliced`` cuts a diagram into elementary layers (one cup, cap or
  crossing each) and contracts the generator tensors in sequence with
  ``Tensor.contract``, where ``ev_diagram`` writes the tensor down in closed
  form; two slicings agree with each other and with the closed form
  (criterion 3).  ``outer``, ``transpose``, ``compose_maps``,
  ``tensor_maps``, ``ev_generator``, ``identity_tensor`` and
  ``symplectic_sample`` are its contraction layer, and ``tensor_sum`` forms
  the linear combinations that tests expect.
- ``enumerate_pf_generators`` lists every kernel generator on a boundary
  (criterion 4).
- ``loop_factor``, the scalar d^k or delta^k of k closed loops, which
  ``compose_by_definition`` and the trace tests multiply by where
  ``Morphism`` weighs loops by one integer table, and ``evaluate``, a
  ``QPolynomial`` or ``DeltaPoly`` at a rational point (the specialization
  of the loop parameter, a ring homomorphism).
- ``orbit_multiplicities``, which runs the package's ``csp._peel`` that
  ``verify_csp`` uses, and ``is_cyclic_sieving_polynomial`` (criterion 8b).
- ``strip_moves_by_definition``, one step of the strip walk by filtering
  partitions, where ``tableaux._strip_moves`` recurses down the rows.
- ``syt_count`` (the hook length formula), ``q_int``, ``q_factorial``, the
  Hall inner product ``scalar_product``, ``plethysm_p``, and the ``SymFuncP``
  ring product ``product``, scalar multiple ``scaled`` and Kronecker product
  ``kronecker``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, gcd


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def catalan(r: int) -> int:
    return factorial(2 * r) // (factorial(r) * factorial(r + 1))


@cache
def stirling2(r: int, j: int) -> int:
    if r == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return stirling2(r - 1, j - 1) + j * stirling2(r - 1, j)


def set_partition_count(r: int, n: int) -> int:
    return sum(stirling2(r, j) for j in range(0, n + 1)) if r else 1


def bell(r: int) -> int:
    return set_partition_count(r, r)


def crossing_count_by_definition(pairs) -> int:
    """Pairwise check of the interleaving pattern, straight from the definition."""
    count = 0
    for (a1, b1), (a2, b2) in combinations(sorted((min(p), max(p)) for p in pairs), 2):
        if a1 < a2 < b1 < b2:
            count += 1
    return count


def first_k_mutual_crossing(pairs, k: int):
    """First subset of k sorted strands, in ``combinations`` order, whose
    strands cross mutually (their 2k endpoints read a_1..a_k b_1..b_k), or None."""
    canon = sorted((min(p), max(p)) for p in pairs)
    for subset in combinations(canon, k):
        points = sorted(x for pair in subset for x in pair)
        if tuple(zip(points[:k], points[k:])) == subset:
            return subset
    return None


def has_k_mutual_crossing(pairs, k: int) -> bool:
    """Brute force over all strand subsets of size k."""
    return first_k_mutual_crossing(pairs, k) is not None


def all_matchings(points: int):
    """Every perfect matching of 1..points as sorted pairs, the smallest free
    point matched first and its partner tried in increasing order."""
    def grow(free):
        if not free:
            yield ()
            return
        for i in range(1, len(free)):
            for rest in grow(free[1:i] + free[i + 1:]):
                yield ((free[0], free[i]),) + rest
    if points % 2 == 0:
        yield from grow(tuple(range(1, points + 1)))


def enumerate_X_by_filter(r: int, n: int) -> list:
    """X(r, n) by filtering: every matching of 2r points, in ``all_matchings``
    order, kept when no n+1 of its strands cross mutually."""
    return [pairs for pairs in all_matchings(2 * r)
            if not has_k_mutual_crossing(pairs, n + 1)]


def blocked_by_definition(r: int, n: int, k: int) -> list:
    """X(r, n, k) from its definition: matchings of the kr points, split into
    r blocks of k consecutive points, with no n+1 mutually crossing strands,
    no pair inside one block, and any two crossing pairs in four blocks."""
    block = lambda p: (p - 1) // k

    def obeys_blocks(pairs):
        if any(block(a) == block(b) for a, b in pairs):
            return False
        return all(len({block(a1), block(b1), block(a2), block(b2)}) == 4
                   for (a1, b1), (a2, b2) in combinations(pairs, 2) if a1 < a2 < b1 < b2)

    return [pairs for pairs in all_matchings(r * k)
            if obeys_blocks(pairs) and not has_k_mutual_crossing(pairs, n + 1)]


def regular_multigraph_count(vertices: int, degree: int) -> int:
    """Loopless multigraphs with every vertex of the given degree, by filling
    the upper triangle of the adjacency matrix."""

    def fill(row: int, col: int, remaining: tuple[int, ...]) -> int:
        if row == vertices:
            return 1 if all(x == 0 for x in remaining) else 0
        if col == vertices:
            return fill(row + 1, row + 2, remaining) if remaining[row] == 0 else 0
        total = 0
        top = min(remaining[row], remaining[col])
        for mult in range(top + 1):
            nxt = list(remaining)
            nxt[row] -= mult
            nxt[col] -= mult
            total += fill(row, col + 1, tuple(nxt))
        return total

    return fill(0, 1, (degree,) * vertices)


def multiset_partition_count(r: int, k: int, n: int) -> int:
    """Partitions of the multiset {1^k, ..., r^k} into at most n blocks."""
    mult = tuple(sorted(list(range(1, r + 1)) * k))

    def rec(remaining):
        if not remaining:
            return {()}
        out = set()
        first, rest = remaining[0], remaining[1:]
        for mask in range(2 ** len(rest)):
            block = [first] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
            others = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            for sub in rec(others):
                out.add(tuple(sorted((tuple(sorted(block)),) + sub)))
        return out

    return sum(1 for p in rec(mult) if len(p) <= n)


def strand_factor_tensor(pairs, n: int):
    """Closed-form tensor of a flat diagram: product of one cup factor per
    strand, signed by the parity of the crossing count.  The cup sends basis
    vector i to the pair (i, dual(i)) with the dual's sign."""
    sign = (-1) ** crossing_count_by_definition(pairs)
    canon = sorted((min(p), max(p)) for p in pairs)
    points = 2 * len(canon)
    entries = {(): Fraction(sign)}
    for a, b in canon:
        new = {}
        for key, val in entries.items():
            for i in range(2 * n):
                j, s = (i + n, -1) if i < n else (i - n, 1)
                new[key + (a, i) + (b, j)] = val * s
        entries = new
    out = {}
    for key, val in entries.items():
        flat = [0] * points
        for idx in range(0, len(key), 2):
            flat[key[idx] - 1] = key[idx + 1]
        out[tuple(flat)] = val
    return out


def symplectic_form(i: int, j: int, n: int) -> int:
    """<basis_i, basis_j> in the basis e_1..e_n, f_1..f_n (indices 0..2n-1)."""
    if j == i + n:
        return 1
    if i == j + n:
        return -1
    return 0


def generator_tensor_by_form(kind: str, n: int) -> dict:
    """Entries of the cup, cap, crossing or identity tensor, from the form:
    the cap is <i, j>, the cup pairs i with its dual (i + n with sign -1 for
    i < n, i - n with sign +1 after), the crossing is -1 on (i, j, j, i)."""
    d = 2 * n
    if kind == "cup":
        return {(i, i + n if i < n else i - n): -1 if i < n else 1 for i in range(d)}
    if kind == "cap":
        return {(i, j): symplectic_form(i, j, n) for i in range(d) for j in range(d)
                if symplectic_form(i, j, n)}
    if kind == "crossing":
        return {(i, j, j, i): -1 for i in range(d) for j in range(d)}
    if kind == "identity":
        return {(i, i): 1 for i in range(d)}
    raise ValueError(f"unknown generator kind {kind!r}")


def glue_by_union_find(x_pairs, y_pairs, r: int, s: int, t: int):
    """Compose matchings of r+s and s+t points by identifying x-point r+j with
    y-point j and merging strands.  Returns (closed loops, composite pairs),
    the composite labelled 1..r (x top) then r+1..r+t (y bottom)."""
    # node labels: x-point p is node p; y-point q is node r+q
    parent = list(range(r + s + t + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in x_pairs:
        parent[find(a)] = find(b)
    for a, b in y_pairs:
        parent[find(r + a)] = find(r + b)
    ends = {}
    for node in list(range(1, r + 1)) + list(range(r + s + 1, r + s + t + 1)):
        ends.setdefault(find(node), []).append(node if node <= r else node - s)
    loops = len({find(node) for node in range(r + 1, r + s + 1)} - set(ends))
    return loops, tuple(sorted(tuple(sorted(pair)) for pair in ends.values()))


def closure_loops_by_union_find(pairs, m: int) -> int:
    """Loops of the (m, m) diagram with these pairs once top point i is joined
    to bottom point m+i: the connected components of the merged strands."""
    parent = list(range(2 * m + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in list(pairs) + [(i, m + i) for i in range(1, m + 1)]:
        parent[find(a)] = find(b)
    return len({find(p) for p in range(1, 2 * m + 1)})


def loop_factor(loops: int, delta):
    """The scalar of ``loops`` closed loops: d^loops when formal (delta None),
    else delta^loops."""
    from brauercat.scalars import DeltaPoly

    return DeltaPoly.delta(loops) if delta is None else delta ** loops


def evaluate(p, x) -> Fraction:
    """A QPolynomial in q, or a DeltaPoly in the loop parameter, at x by
    Horner's rule: the specialization of the loop parameter, or q = x."""
    from brauercat.scalars import DeltaPoly

    acc = Fraction(0)
    for c in reversed((p.poly if isinstance(p, DeltaPoly) else p).coeffs):
        acc = acc * x + c
    return acc


def compose_by_definition(x, y):
    """The product x * y term by term: the sum over all pairs of
    cx * cy * loop_factor(loops), in Fraction or DeltaPoly arithmetic, each
    pair glued by ``glue_by_union_find``."""
    from brauercat.category import Morphism
    from brauercat.matchings import Diagram, PerfectMatching

    terms = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            loops, pairs = glue_by_union_find(dx.matching.pairs, dy.matching.pairs,
                                              x.r, x.s, y.s)
            glued = Diagram(x.r, y.s, PerfectMatching(pairs))
            terms[glued] = terms.get(glued, 0) + cx * cy * loop_factor(loops, x.delta)
    return Morphism(x.r, y.s, terms, x.delta)


def rewrite_by_definition(pairs, violation) -> dict:
    """The rewrite of a violation, k mutually crossing strands of the matching
    ``pairs``, from its definition: every matching of the 2k endpoints but the
    fully crossing one (the one whose k(k-1)/2 strand pairs all cross), each
    completed by the other strands through the package's validating
    ``PerfectMatching``, as {canonical pairs: crossing count}."""
    from brauercat.matchings import PerfectMatching

    k = len(violation)
    ends = sorted(p for pair in violation for p in pair)
    rest = tuple(p for p in pairs if p not in set(violation))
    out = {}
    for s in all_matchings(2 * k):
        if crossing_count_by_definition(s) == k * (k - 1) // 2:
            continue
        pm = PerfectMatching(tuple((ends[a - 1], ends[b - 1]) for a, b in s) + rest)
        out[pm.pairs] = crossing_count_by_definition(pm.pairs)
    return out


def normal_form_rescan(m, n: int, trace: list | None = None):
    """Reference normal form on flat morphisms: rewrite the lexicographically
    first diagram with a violation, rebuild the sum, rescan, until none is left."""
    from brauercat.category import Morphism
    from brauercat.pfaffian import find_violation, rewrite_step

    current = m
    while True:
        for d in sorted(current.terms):
            violation = find_violation(d, n)
            if violation is not None:
                break
        else:
            return current
        coeff = current.terms[d]
        replacement = rewrite_step(d, violation, m.delta).scaled(coeff)
        current = (current - Morphism.from_diagram(d, m.delta, coeff)) + replacement
        if trace is not None:
            trace.append(d)


def fake_degree_by_syt(f):
    """Fake degree of f with each Schur term's polynomial read off its
    standard tableaux (the maj generating function), warning on a
    non-integer Schur coefficient like ``fake_degree`` does."""
    import warnings

    from brauercat.qpoly import QPolynomial
    from brauercat.symfunc import schur_expand
    from brauercat.tableaux import fake_degree_schur

    total = QPolynomial()
    for lam, c in sorted(schur_expand(f).items()):
        if c.denominator != 1:
            warnings.warn(f"non-integer Schur coefficient {c} at {lam}")
        total = total + QPolynomial(tuple(x * c for x in fake_degree_schur(lam).coeffs))
    return total


def p_to_schur_coeff(f, lam) -> Fraction:
    """By-definition Schur coefficient <f, s_lam> = sum over mu of f_mu chi^lam(mu),
    one ``mn_character`` value per term of f of the size of lam."""
    from brauercat.symfunc import mn_character

    size = sum(lam)
    total = Fraction(0)
    for mu, c in f.coeffs.items():
        if sum(mu) == size:
            total += c * mn_character(lam, mu)
    return total


def schur_expand_by_definition(f) -> dict:
    """Every nonzero ``p_to_schur_coeff``, by ascending degree and, within a
    degree d, in ``partitions(d)`` order."""
    from brauercat.partitions import partitions

    out = {}
    for d in f.degrees():
        for lam in partitions(d):
            c = p_to_schur_coeff(f, lam)
            if c:
                out[lam] = c
    return out


def schur_sum_by_mn(shapes):
    """Sum of s_lam over the shapes in the p basis, one ``mn_character`` column
    chi^lam(mu) / z_mu per shape, added as ``SymFuncP`` values."""
    from brauercat.partitions import partitions, z_order
    from brauercat.symfunc import SymFuncP, mn_character

    total = SymFuncP.zero()
    for lam in shapes:
        total = total + SymFuncP({mu: Fraction(mn_character(lam, mu), z_order(mu))
                                  for mu in partitions(sum(lam))})
    return total


def cauchy_pairing_by_definition(r: int, g, partner):
    """<h_r(X * g(Y)), partner(Y)>_Y: for each nu of r the product of the
    plethysms p_t[g] over the parts t of nu, Hall-paired with partner, over z_nu."""
    from brauercat.partitions import partitions, z_order
    from brauercat.symfunc import SymFuncP

    out = {}
    for nu in partitions(r):
        term = SymFuncP.one()
        for part in nu:
            term = product(term, plethysm_p(part, g))
        c = scalar_product(term, partner)
        if c:
            out[nu] = c / z_order(nu)
    return SymFuncP(out)


def plethysm_by_products(f, g, max_degree=None):
    """f composed with g as a sum of ``SymFuncP`` products: each p_lam of f
    becomes the product of the ``plethysm_p(t, g)`` over the parts t of lam,
    every factor and partial product cut to degree ``max_degree`` (None: no cut)."""
    from brauercat.symfunc import SymFuncP

    def capped(h):
        if max_degree is None:
            return h
        return SymFuncP({lam: c for lam, c in h.coeffs.items() if sum(lam) <= max_degree})

    total = SymFuncP.zero()
    for lam, c in f.coeffs.items():
        term = SymFuncP.one()
        for part in lam:
            term = capped(product(term, capped(plethysm_p(part, g))))
        total = total + scaled(term, c)
    return total


def fundamental_by_sums(r: int, k: int, n):
    """The fundamental invariant character with its pairing partner summed as
    ``SymFuncP`` values, size by size, where ``invariant_character_fundamental``
    takes the union of the disjoint degrees."""
    from brauercat.symfunc import (SymFuncP, _even_column_schur_sum, cauchy_pairing,
                                   h_in_p)

    bound = None if n is None else 2 * n
    partner = sum((_even_column_schur_sum(size, bound) for size in range(k * r + 1)),
                  SymFuncP.zero())
    return cauchy_pairing(r, h_in_p(k) - h_in_p(k - 2), partner)


def adjoint_by_kronecker(r: int, n: int):
    """Sum of the Kronecker squares kronecker(s_lam, s_lam) over lam of r with
    at most n rows, added as ``SymFuncP`` values."""
    from brauercat.partitions import partitions
    from brauercat.symfunc import SymFuncP, schur_to_p

    total = SymFuncP.zero()
    for lam in partitions(r):
        if len(lam) <= n:
            total = total + kronecker(schur_to_p(lam), schur_to_p(lam))
    return total


def orbits_by_rotate(elements, step: int = 1) -> list:
    """Orbit sizes under rotation by ``step``, sorted descending, by walking
    each orbit with ``rotate``; raises ValueError naming an element whose
    orbit leaves the set."""
    pool = set(elements)
    sizes = []
    seen = set()
    for x in sorted(pool):
        if x in seen:
            continue
        size = 0
        y = x
        while True:
            seen.add(y)
            size += 1
            y = y.rotate(step)
            if y == x:
                break
            if y not in pool:
                raise ValueError(f"set not closed under rotation: {x} reaches {y}")
            if y in seen:
                break
        sizes.append(size)
    return sorted(sizes, reverse=True)


def orbit_by_moves(pm, reflect: bool = False) -> set:
    """The orbit of a matching under rotation and, if ``reflect``, the
    reflection i -> N + 1 - i: the set closed under ``rotate`` and the
    reflected pairs, built through the validating ``PerfectMatching``."""
    from brauercat.matchings import PerfectMatching

    end = pm.n_points + 1
    seen, todo = {pm}, [pm]
    while todo:
        x = todo.pop()
        moves = [x.rotate()]
        if reflect:
            moves.append(PerfectMatching(tuple((end - a, end - b) for a, b in x.pairs)))
        for y in moves:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


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


def orbit_multiplicities_by_moebius(p, order: int):
    """Orbit-size multiplicities by Moebius inversion over the divisor lattice:
    b_c = sum over c' | c of mu(c / c') * (the coefficient on gcd class c').
    None when the reduction of p mod q^order - 1 is not constant on gcd classes."""
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


def cells_added_by_filter(lam) -> list:
    """Every one-cell increment of lam, row 0 to a new last row, kept when
    the rows still weakly decrease."""
    out = []
    for i in range(len(lam) + 1):
        new = list(lam) + [0]
        new[i] += 1
        new = tuple(p for p in new if p)
        if all(a >= b for a, b in zip(new, new[1:])):
            out.append(new)
    return out


def strip_moves_by_definition(shape, k: int, n: int) -> dict:
    """The ends of one strip-walk step from ``shape``, each with the number of
    intermediate shapes reaching it, by filtering all partitions: an
    intermediate mu with shape/mu a horizontal strip of a <= k cells, then an
    end nu of at most n rows with nu/mu a horizontal strip of k - a cells."""
    from brauercat.partitions import partitions

    def horizontal_strip(big, small) -> bool:
        # big_1 >= small_1 >= big_2 >= small_2 >= ..., small no longer than big
        if len(small) > len(big):
            return False
        big, small = big + (0,), small + (0,) * (len(big) - len(small))
        return all(big[i] >= small[i] >= big[i + 1] for i in range(len(small)))

    out = {}
    size = sum(shape)
    for a in range(min(k, size) + 1):
        for mu in partitions(size - a):
            if horizontal_strip(shape, mu):
                for nu in partitions(size - a + k - a):
                    if len(nu) <= n and horizontal_strip(nu, mu):
                        out[nu] = out.get(nu, 0) + 1
    return out


def exact_rank_bareiss(rows) -> int:
    """Rank of an exact rational matrix by Bareiss fraction-free elimination:
    rows scaled to integers, every update divided exactly by the previous pivot."""
    if not rows:
        return 0
    mat = []
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        mat.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                mat[i][j] = (mat[rank][col] * mat[i][j] - mat[i][col] * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = mat[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def gram_by_dot(tensors) -> list:
    """Gram matrix of sparse tensors, one dict-probe dot product per pair."""
    gram = []
    for a in tensors:
        row = []
        for b in tensors:
            small, big = (a.data, b.data) if len(a.data) <= len(b.data) else (b.data, a.data)
            row.append(sum(v * big.get(k, 0) for k, v in small.items()))
        gram.append(row)
    return gram


def pairwise_ev_norm(terms, n: int) -> int:
    """The squared length of sum_i c_i ev(d_i) for integer terms (d_i, c_i),
    one loop walk per pair i <= j, the off-diagonal pairs counted twice: the
    package's ``_loop_product`` of the bent matchings, each coefficient signed
    by its matching's crossing parity."""
    from brauercat.matchings import bend, crossing_pairs
    from brauercat.tensors import _loop_product

    flat = []
    for d, c in terms:
        pm = bend(d).matching
        flat.append((pm.involution(), -c if crossing_pairs(pm) % 2 else c))
    total = 0
    for i, (a, x) in enumerate(flat):
        cross = sum(y * _loop_product(a, b, 2 * n) for b, y in flat[i + 1:])
        total += x * (x * _loop_product(a, a, 2 * n) + 2 * cross)
    return total


def check_eq_ch_by_definition(e, n: int):
    """``check_eq_ch`` as defined: for every diagram x on n+1 strands, in
    ``enumerate_matchings`` order, x*e and e*x by ``compose_by_definition``
    against ``e.scaled(rho)``, rho = 1 when all n+1 strands propagate."""
    from brauercat.category import CentralityReport, Morphism
    from brauercat.matchings import Diagram, enumerate_matchings

    m = n + 1
    for pm in enumerate_matchings(2 * m):
        x = Diagram(m, m, pm)
        rho = 1 if sum(1 for a, b in pm.pairs if a <= m < b) == m else 0
        xm = Morphism.from_diagram(x, e.delta)
        want = e.scaled(rho)
        if compose_by_definition(xm, e) != want:
            return CentralityReport(False, x, "x*e != rho(x)*e")
        if compose_by_definition(e, xm) != want:
            return CentralityReport(False, x, "e*x != rho(x)*e")
    return CentralityReport(True)


def outer(t, u):
    """Outer product of two package ``Tensor``s: t's axes, then u's."""
    from brauercat.tensors import Tensor

    data = {}
    for k1, v1 in t.data.items():
        for k2, v2 in u.data.items():
            data[k1 + k2] = v1 * v2
    return Tensor(t.dims + u.dims, data)


def tensor_sum(dims: tuple[int, ...], terms):
    """The package ``Tensor`` of shape ``dims`` summing c * t over ``terms``,
    pairs (t, c) of a tensor of that shape and a coefficient."""
    from brauercat.tensors import Tensor
    data = {}
    for t, c in terms:
        assert t.dims == dims, f"shape mismatch: {t.dims} vs {dims}"
        for k, v in t.data.items():
            data[k] = data.get(k, 0) + c * v
    return Tensor(dims, data)


def transpose(t, perm: tuple[int, ...]):
    """The package ``Tensor`` t with its axes permuted: axis i of the result is perm[i] of t."""
    from brauercat.tensors import Tensor

    if sorted(perm) != list(range(t.ndim)):
        raise ValueError(f"bad axis permutation {perm}")
    dims = tuple(t.dims[p] for p in perm)
    data = {tuple(k[p] for p in perm): v for k, v in t.data.items()}
    return Tensor(dims, data)


def ev_generator(kind: str, n: int):
    """Tensor of an elementary generator: "cup", "cap" or "crossing", from
    the package's closed form.

    Cup has two output slots, cap two input slots, crossing inputs then outputs.
    """
    from brauercat.matchings import Diagram, PerfectMatching
    from brauercat.tensors import ev_diagram

    shapes = {"cup": (0, 2, ((1, 2),)), "cap": (2, 0, ((1, 2),)),
              "crossing": (2, 2, ((1, 4), (2, 3)))}
    if kind not in shapes:
        raise ValueError(f"unknown generator kind {kind!r}")
    r, s, pairs = shapes[kind]
    return ev_diagram(Diagram(r, s, PerfectMatching(pairs)), n)


def identity_tensor(n: int):
    from brauercat.matchings import Diagram
    from brauercat.tensors import ev_diagram

    return ev_diagram(Diagram.identity(1), n)


def ev_sliced(d, n: int, strategy: str):
    """Tensor of a diagram contracted layer by layer from the generators with
    the package's ``Tensor.contract``, where ``ev_diagram`` writes it down in
    closed form.

    The diagram is sliced into layers of one cup, cap or crossing each; the
    "left" and "right" strategies use different layer orders, so comparing
    them with each other and with ev_diagram checks slicing independence.
    """
    from brauercat.tensors import Tensor

    if strategy not in ("left", "right"):
        raise ValueError(f"unknown slicing strategy {strategy!r}")
    left = strategy == "left"
    r = d.r
    wires = list(range(1, r + 1))  # the top point, later the bottom point, of each wire
    layers = []  # (generator kind, position of its left wire)

    def cross(p):
        layers.append(("crossing", p))
        wires[p:p + 2] = wires[p + 1], wires[p]

    caps = sorted((ab for ab in d.matching.pairs if ab[1] <= r),
                  key=lambda ab: ab[0] if left else -ab[1])
    for a, b in caps:
        pa, pb = wires.index(a), wires.index(b)
        if left:  # bring b leftwards next to a
            for p in range(pb - 1, pa, -1):
                cross(p)
        else:  # bring a rightwards next to b
            for p in range(pa, pb - 1):
                cross(p)
            pa = pb - 1
        layers.append(("cap", pa))
        del wires[pa:pa + 2]
    through = {a: b for a, b in d.matching.pairs if a <= r < b}
    wires[:] = [through[w] for w in wires]
    cups = sorted(ab for ab in d.matching.pairs if ab[0] > r)
    for a, b in (cups if left else reversed(cups)):
        p = len(wires) if left else 0
        layers.append(("cup", p))
        wires[p:p] = [a, b]
    passes = range(len(wires) - 1) if left else range(len(wires) - 2, -1, -1)
    unsorted = True
    while unsorted:  # bubble passes sort the wires by destination
        unsorted = False
        for p in passes:
            if wires[p] > wires[p + 1]:
                cross(p)
                unsorted = True

    # Axes: the r top slots, then one per open wire from left to right.
    t = Tensor((), {(): 1})
    for _ in range(r):
        t = outer(t, identity_tensor(n))
    t = transpose(t, tuple(range(0, 2 * r, 2)) + tuple(range(1, 2 * r, 2)))
    generators = {kind: ev_generator(kind, n) for kind in ("cup", "cap", "crossing")}
    for kind, p in layers:
        if kind == "cup":
            t = outer(t, generators[kind])
        else:
            t = t.contract(generators[kind], (r + p, r + p + 1), (0, 1))
        if kind != "cap":  # move the two new output axes to wires p, p + 1
            rest = tuple(range(t.ndim - 2))
            t = transpose(t, rest[:r + p] + (t.ndim - 2, t.ndim - 1) + rest[r + p:])
    return t


def compose_maps(tx, ty, mid: int):
    """Compose map tensors: contract tx's last ``mid`` slots with ty's first."""
    axes_x = tuple(range(tx.ndim - mid, tx.ndim))
    axes_y = tuple(range(mid))
    return tx.contract(ty, axes_x, axes_y)


def tensor_maps(tx, shape_x: tuple[int, int], ty, shape_y: tuple[int, int]):
    """Side-by-side product of map tensors, with slots interleaved correctly."""
    r1, s1 = shape_x
    r2, s2 = shape_y
    perm = tuple(range(r1)) + tuple(r1 + s1 + i for i in range(r2)) \
        + tuple(r1 + i for i in range(s1)) + tuple(r1 + s1 + r2 + i for i in range(s2))
    return transpose(outer(tx, ty), perm)


def symplectic_sample(n: int) -> list[dict[int, tuple[int, int]]]:
    """A few exact form-preserving monomial maps, as col -> (row, sign)."""
    d = 2 * n
    maps = []
    maps.append({j: (j, -1) for j in range(d)})  # -identity
    rot = {}
    for i in range(n):
        rot[i] = (i + n, 1)      # e_i -> f_i
        rot[i + n] = (i, -1)     # f_i -> -e_i
    maps.append(rot)
    if n >= 2:
        swap = {j: (j, 1) for j in range(d)}
        swap[0], swap[1] = (1, 1), (0, 1)
        swap[n], swap[n + 1] = (n + 1, 1), (n, 1)
        maps.append(swap)
    return maps


def enumerate_pf_generators(n: int, points: int):
    """All kernel generators (the package's ``PfGenerator``) on the given
    boundary, in a deterministic order."""
    from brauercat.matchings import _matchings_of
    from brauercat.pfaffian import PfGenerator

    size = 2 * (n + 1)
    if points < size or points % 2 != 0:
        return
    all_points = tuple(range(1, points + 1))
    for subset in combinations(all_points, size):
        rest_points = tuple(p for p in all_points if p not in subset)
        for f in _matchings_of(rest_points):
            yield PfGenerator(n, points, subset, f)


def orbit_multiplicities(p, order: int):
    """Orbit-size multiplicities any sieving set for p would need, by the
    package's peeling of divisor classes (``csp._peel``, which
    ``verify_csp`` runs).

    Returns None when the reduction of p is not constant on gcd classes;
    otherwise a map orbit size -> multiplicity (possibly negative or
    fractional, which disqualifies p as a sieving polynomial).
    """
    from brauercat.csp import _peel

    reduced = p.reduce_mod_cyclic(order)
    by_class: dict[int, object] = {}
    for e in range(order):
        c = gcd(e, order) if e else order
        value = reduced.coefficient(e)
        if c in by_class and by_class[c] != value:
            return None
        by_class.setdefault(c, value)
    # by_class[c] counts the orbits of each size N/c' with c' dividing c
    return {order // c: v for c, v in _peel(by_class).items() if v}


def is_cyclic_sieving_polynomial(p, order: int) -> bool:
    """Whether some set with a free-enough rotation could realize p."""
    if not p.is_nonnegative_integer():
        return False
    mult = orbit_multiplicities(p, order)
    if mult is None:
        return False
    return all(isinstance(m, int) and m >= 0 for m in mult.values())


def syt_count(shape) -> int:
    """Hook length formula."""
    from brauercat.partitions import check_partition, hooks

    shape = check_partition(shape)
    m = sum(shape)
    prod = 1
    for h in hooks(shape):
        prod *= h
    return factorial(m) // prod


def q_int(m: int):
    """1 + q + ... + q^(m-1)."""
    from brauercat.qpoly import QPolynomial

    if m < 0:
        raise ValueError("q-integer of a negative number")
    return QPolynomial((1,) * m)


def q_factorial(m: int):
    from brauercat.qpoly import QPolynomial

    acc = QPolynomial((1,))
    for i in range(1, m + 1):
        acc = acc * q_int(i)
    return acc


def scalar_product(f, g) -> Fraction:
    """Hall inner product of two ``SymFuncP``: <p_lam, p_mu> = z_lam [lam = mu]."""
    from brauercat.partitions import z_order

    small, big = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    total = Fraction(0)
    for lam, c in small.coeffs.items():
        d = big.coeffs.get(lam)
        if d:
            total += c * d * z_order(lam)
    return total


def plethysm_p(m: int, g):
    """p_m composed with the ``SymFuncP`` g: substitute p_j -> p_{jm} in g, for m >= 1."""
    from brauercat.symfunc import SymFuncP

    if m < 1:
        raise ValueError(f"plethysm_p needs m >= 1, got m={m}")
    out = {}
    for lam, c in g.coeffs.items():
        key = tuple(sorted((j * m for j in lam), reverse=True))
        out[key] = out.get(key, Fraction(0)) + c
    return SymFuncP._from_partitions(out)


def product(f, g):
    """Ring product of two ``SymFuncP``: p_lam * p_mu concatenates the parts."""
    from brauercat.symfunc import SymFuncP

    out = {}
    for lam, a in f.coeffs.items():
        for mu, b in g.coeffs.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, Fraction(0)) + a * b
    return SymFuncP._from_partitions(out)


def scaled(f, c):
    """The ``SymFuncP`` f times the rational c."""
    from brauercat.symfunc import SymFuncP

    return SymFuncP._from_partitions({lam: a * Fraction(c) for lam, a in f.coeffs.items()})


def kronecker(f, g):
    """Kronecker (inner) product of two ``SymFuncP`` of one degree:
    p_lam * p_lam -> z_lam p_lam, other pairs 0."""
    from brauercat.partitions import z_order
    from brauercat.symfunc import SymFuncP

    if f.is_zero() or g.is_zero():
        return SymFuncP.zero()
    if f.degrees() != g.degrees() or len(f.degrees()) != 1:
        raise ValueError(f"kronecker needs equal homogeneous degrees, "
                         f"got {f.degrees()} and {g.degrees()}")
    return SymFuncP._from_partitions({lam: a * g.coeffs.get(lam, 0) * z_order(lam)
                                      for lam, a in f.coeffs.items()})

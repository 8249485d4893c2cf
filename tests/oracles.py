"""Independent oracles the tests freeze expected values from.

Everything here is deliberately separate from the package internals: direct
definitions, classical recurrences, and brute-force enumeration only.  The
exceptions are ``normal_form_rescan``, which drives the package's own
rewrite step by a different strategy than ``normal_form``,
``fake_degree_by_syt``, which sums the package's tableau-walk fake degrees
where ``fake_degree`` uses the q-hook formula, ``p_to_schur_coeff``, which
sums the package's ``mn_character`` values where ``schur_expand`` adds
ribbons, ``orbits_by_rotate``,
which walks orbits with ``PerfectMatching.rotate`` where ``orbits`` reads
them off one index permutation, ``gram_by_dot``, which takes dot
products of the package's tensors where ``ev_gram`` counts loops, and
``compose_by_definition``, which multiplies the package's scalars pair by
pair where ``Morphism.__mul__`` sums integer numerators,
``check_eq_ch_by_definition``, which builds ``e.scaled(rho)`` per diagram
and multiplies through ``compose_by_definition``, ``schur_sum_by_mn``, which
sums the package's ``mn_character`` columns where ``_schur_sum_to_p``
removes ribbons, and ``cauchy_pairing_by_definition``, which multiplies and
pairs the package's ``SymFuncP`` values where ``cauchy_pairing`` walks
integer numerators.
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


def compose_by_definition(x, y):
    """The product x * y term by term: the sum over all pairs of
    cx * cy * loop_factor(loops), in Fraction or DeltaPoly arithmetic, each
    pair glued by ``glue_by_union_find``."""
    from brauercat.category import Morphism
    from brauercat.matchings import Diagram, PerfectMatching
    from brauercat.scalars import loop_factor

    terms = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            loops, pairs = glue_by_union_find(dx.matching.pairs, dy.matching.pairs,
                                              x.r, x.s, y.s)
            glued = Diagram(x.r, y.s, PerfectMatching(pairs))
            terms[glued] = terms.get(glued, 0) + cx * cy * loop_factor(loops, x.delta)
    return Morphism(x.r, y.s, terms, x.delta)


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
    from brauercat.symfunc import SymFuncP, plethysm_p, scalar_product

    out = {}
    for nu in partitions(r):
        term = SymFuncP.one()
        for part in nu:
            term = term * plethysm_p(part, g)
        c = scalar_product(term, partner)
        if c:
            out[nu] = c / z_order(nu)
    return SymFuncP(out)


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

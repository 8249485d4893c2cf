import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from brauercat.category import (Morphism, compose_diagrams, e_sum,
                                generator_s, generator_u, tensor_diagrams)
from brauercat.matchings import (Diagram, PerfectMatching, count_X, enumerate_matchings,
                                 enumerate_X, unbend)
from brauercat.pfaffian import PfGenerator, normal_form, pfaffian
from brauercat.scalars import integer_terms
from brauercat.tensors import (Tensor, _block_rank, _ev_norm, _flat_gram, _gram_rank,
                               _is_prime, _rank_mod_p, _root_of_unity, ev_diagram,
                               ev_gram_rank, ev_morphism, ev_rank, exact_rank,
                               rank_of_span)
from oracles import (compose_maps, ev_generator, ev_sliced, exact_rank_bareiss,
                     generator_tensor_by_form, gram_by_dot, identity_tensor,
                     strand_factor_tensor, symplectic_form, symplectic_sample,
                     tensor_maps)


def diagrams(r, s):
    return [Diagram(r, s, pm) for pm in enumerate_matchings(r + s)]


def flat_gram(matchings, n):
    """The full Gram matrix from ``_flat_gram``'s closed-form entry function."""
    size, entry = _flat_gram(matchings, n)
    return [[entry(i, j) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_tensors_match_the_form(n):
    # the closed form defines the generators; the form-based tables anchor it
    for kind, slots in (("cup", 2), ("cap", 2), ("crossing", 4), ("identity", 2)):
        got = identity_tensor(n) if kind == "identity" else ev_generator(kind, n)
        assert got == Tensor((2 * n,) * slots, generator_tensor_by_form(kind, n)), kind


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_cup_scalar(n):
    cup = ev_generator("cup", n)
    cap = ev_generator("cap", n)
    assert compose_maps(cup, cap, 2) == Tensor.scalar(-2 * n)


@pytest.mark.parametrize("n", [1, 2])
def test_crossing_squares_to_identity(n):
    x = ev_generator("crossing", n)
    id2 = tensor_maps(identity_tensor(n), (1, 1), identity_tensor(n), (1, 1))
    assert compose_maps(x, x, 2) == id2


@pytest.mark.parametrize("n", [1, 2])
def test_zigzags(n):
    cup, cap, ident = (ev_generator("cup", n), ev_generator("cap", n),
                       identity_tensor(n))
    zig1 = compose_maps(tensor_maps(ident, (1, 1), cup, (0, 2)),
                        tensor_maps(cap, (2, 0), ident, (1, 1)), 3)
    zig2 = compose_maps(tensor_maps(cup, (0, 2), ident, (1, 1)),
                        tensor_maps(ident, (1, 1), cap, (2, 0)), 3)
    assert zig1 == ident
    assert zig2 == ident


def test_ev_identity_and_u_square():
    for n in (1, 2):
        ident = identity_tensor(n)
        assert ev_diagram(Diagram.identity(1), n) == ident
        tu = ev_diagram(generator_u(1, 2), n)
        assert compose_maps(tu, tu, 2) == tu.scaled(-2 * n)


def test_ev_against_strand_factor_oracle():
    # closed-form with a parity sign, on flat diagrams only
    for n in (1, 2):
        for points in (2, 4, 6):
            for pm in enumerate_matchings(points):
                want = strand_factor_tensor(pm.pairs, n)
                got = ev_diagram(Diagram(0, points, pm), n)
                assert got.data == {k: v for k, v in want.items() if v}


def test_slicing_independence():
    for n in (1, 2):
        for r in range(0, 7):
            for s in range(0, 7):
                if (r + s) % 2 or not 0 < r + s <= 6:
                    continue
                for d in diagrams(r, s):
                    left = ev_sliced(d, n, "left")
                    right = ev_sliced(d, n, "right")
                    assert left == right == ev_diagram(d, n), d


def test_closed_form_matches_slicing_at_eight_points():
    cases = [(d, n) for n in (1, 2) for d in diagrams(4, 4)]
    cases += [(d, 3) for d in random.Random(4).sample(diagrams(4, 4), 12)]
    for d, n in cases:
        want = ev_sliced(d, n, "left")
        assert ev_diagram(d, n) == want, (d, n)
        assert ev_sliced(d, n, "right") == want, (d, n)


def test_ev_sliced_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        ev_sliced(Diagram.identity(1), 1, "middle")


def test_functoriality_sample():
    for n in (1, 2):
        for dx in diagrams(2, 2):
            for dy in diagrams(2, 2):
                loops, glued = compose_diagrams(dx, dy)
                lhs = compose_maps(ev_diagram(dx, n), ev_diagram(dy, n), 2)
                assert lhs == ev_diagram(glued, n).scaled((-2 * n) ** loops)
        # degenerate middle object: pure juxtaposition
        for dx in diagrams(4, 0):
            for dy in diagrams(0, 4):
                loops, glued = compose_diagrams(dx, dy)
                assert loops == 0
                lhs = compose_maps(ev_diagram(dx, n), ev_diagram(dy, n), 0)
                assert lhs == ev_diagram(glued, n)


def test_ev_respects_tensor():
    for n in (1, 2):
        pool = diagrams(1, 1) + diagrams(2, 0) + diagrams(0, 2) + diagrams(2, 2)
        for dx, dy in product(pool, repeat=2):
            want = tensor_maps(ev_diagram(dx, n), (dx.r, dx.s),
                               ev_diagram(dy, n), (dy.r, dy.s))
            assert ev_diagram(tensor_diagrams(dx, dy), n) == want


def test_ev_morphism_guards():
    formal = Morphism.identity(2)
    with pytest.raises(ValueError, match="specialized"):
        ev_morphism(formal, 1)
    wrong = Morphism.identity(2, Fraction(-4))
    with pytest.raises(ValueError, match="expected"):
        ev_morphism(wrong, 1)


def test_ev_morphism_is_sum_of_scaled_terms():
    rng = random.Random(5)
    for n in (1, 2):
        pool = diagrams(2, 4)
        terms = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for d in rng.sample(pool, 8)}
        primes = {d: Fraction(rng.randint(-9, 9) or 1, rng.choice((3, 5, 7, 11)))
                  for d in rng.sample(pool, 8)}
        for m in (Morphism(2, 4, terms, Fraction(-2 * n)), e_sum(n),
                  Morphism(2, 4, primes, Fraction(-2 * n))):
            want = Tensor((2 * n,) * (m.r + m.s))
            for d, c in m.terms.items():
                want = want + ev_diagram(d, n).scaled(c)
            got = ev_morphism(m, n)
            assert got == want
            assert all(type(v) is Fraction for v in got.data.values())


def test_ev_morphism_matches_scaled_terms_for_every_shape():
    # the integer-keyed sum against the tensor sum of scaled ev_diagram terms
    rng = random.Random(19)
    for n in (1, 2, 3):
        for points in (0, 2, 4, 6, 8):
            for r in range(points + 1):
                pool = diagrams(r, points - r)
                picked = rng.sample(pool, min(len(pool), 4 if n == 3 else 7))
                terms = {d: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                         for d in picked}
                m = Morphism(r, points - r, terms, Fraction(-2 * n))
                want = Tensor((2 * n,) * points)
                for d, c in m.terms.items():
                    want = want + ev_diagram(d, n).scaled(c)
                got = ev_morphism(m, n)
                assert got == want, (r, points - r, n)
                assert all(type(v) is Fraction for v in got.data.values())


def test_ev_morphism_of_cancelling_and_empty_morphisms():
    rng = random.Random(20)
    for n in (1, 2):
        for r, s in ((0, 0), (1, 1), (2, 4), (3, 3)):
            pool = diagrams(r, s)
            terms = {d: Fraction(rng.randint(1, 9), rng.randint(1, 5))
                     for d in rng.sample(pool, min(len(pool), 5))}
            m = Morphism(r, s, terms, Fraction(-2 * n))
            empty = Tensor((2 * n,) * (r + s))
            assert ev_morphism(m - m, n) == empty
            assert ev_morphism(Morphism.zero(r, s, Fraction(-2 * n)), n) == empty
    assert ev_morphism(Morphism.identity(0, Fraction(-2)), 1) == Tensor.scalar(1)


def test_ev_morphism_builds_no_term_tensor(monkeypatch):
    import brauercat.tensors as tensors

    def refuse(d, n):
        raise AssertionError("ev_morphism built a per-term tensor")

    identity3 = ev_diagram(Diagram.identity(3), 2)
    monkeypatch.setattr(tensors, "ev_diagram", refuse)
    assert ev_morphism(e_sum(3), 3).is_zero()
    # the Gram norm settles e_sum(3) = 0: no term's closed form is expanded
    closed_form = tensors._closed_form
    monkeypatch.setattr(tensors, "_closed_form", refuse)
    assert ev_morphism(e_sum(3), 3).is_zero()
    # a nonzero norm falls through to the expansion, one closed form per term
    expanded = []
    monkeypatch.setattr(tensors, "_closed_form",
                        lambda d, n: expanded.append(d) or closed_form(d, n))
    m = e_sum(2) + Morphism.identity(3, Fraction(-4))
    assert ev_morphism(m, 2) == identity3  # ev(e_sum(2)) = 0
    assert len(expanded) == len(set(expanded)) == len(m.terms) and set(expanded) == set(m.terms)


def _expanded(terms, n) -> dict:
    """The sum of the ``ev_diagram`` tensors of integer terms (d, c), scaled by c."""
    data = {}
    for d, c in terms:
        for key, v in ev_diagram(d, n).data.items():
            data[key] = data.get(key, 0) + c * v
    return {key: v for key, v in data.items() if v}


def _norm_side(m, n):
    """Whether ``ev_morphism`` takes the Gram norm first: (T + 1) P <= 4 (2n)^(P/2)."""
    points = m.r + m.s
    return (len(m.terms) + 1) * points <= 4 * (2 * n) ** (points // 2)


def test_ev_norm_is_the_squared_length_of_the_expansion():
    rng = random.Random(26)
    cases = []  # (morphism, n, whether it is a kernel element with terms)
    for n in (1, 2, 3):
        for points in (0, 2, 4, 6, 8):
            for r in range(points + 1):
                pool = diagrams(r, points - r)
                for _ in range(2):
                    picked = rng.sample(pool, rng.randint(1, min(len(pool), 5 if n == 3 else 9)))
                    terms = {d: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                             for d in picked}
                    cases.append((Morphism(r, points - r, terms, Fraction(-2 * n)), n, False))
        delta = Fraction(-2 * n)
        cases.append((e_sum(n), n, True))
        points = 2 * (n + 1) + 2 * (n < 3)
        subset = tuple(sorted(rng.sample(range(1, points + 1), 2 * (n + 1))))
        rest = [p for p in range(1, points + 1) if p not in subset]
        cases.append((pfaffian(PfGenerator(n, points, subset, (tuple(rest),) if rest else ()), delta),
                      n, True))
        for r in (0, 2, 4):  # the fully crossing 8-point diagram, bent to (r, 8 - r)
            m = Morphism.from_diagram(unbend(PerfectMatching(((1, 5), (2, 6), (3, 7), (4, 8))),
                                             r, 8 - r), delta)
            cases.append((m - normal_form(m, n), n, True))
    # the expansion side of the rule: n = 1 on 10 points with 60 terms
    picked = rng.sample(diagrams(4, 6), 60)
    big = Morphism(4, 6, {d: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for d in picked},
                   Fraction(-2))
    cases.append((big, 1, False))
    assert not _norm_side(big, 1)
    nonzero_norm_side = 0
    for m, n, kernel in cases:
        terms, scale = integer_terms(m.terms)
        want = _expanded(terms, n)  # scale times the tensor of m
        assert _ev_norm(terms, n) == sum(v * v for v in want.values()), (m, n)
        assert not kernel or (len(terms) > 1 and not want), (m, n)
        assert ev_morphism(m, n) == Tensor((2 * n,) * (m.r + m.s),
                                           {k: Fraction(v, scale) for k, v in want.items()})
        nonzero_norm_side += bool(want) and _norm_side(m, n)
    assert nonzero_norm_side > 100


def test_ev_morphism_rejects_rank_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            ev_morphism(Morphism.zero(1, 1, Fraction(-2 * n)), n)
        with pytest.raises(ValueError, match="rank must be at least 1"):
            ev_morphism(Morphism.identity(1, Fraction(-2 * n)), n)


def test_exact_rank_rejects_ragged_rows():
    with pytest.raises(ValueError, match=r"ragged rows: lengths \[1, 2\]"):
        exact_rank([[1], [2, 5]])
    with pytest.raises(ValueError, match=r"lengths \[0, 3\]"):
        exact_rank([[1, 2, 3], []])
    assert exact_rank([[]]) == exact_rank([[], []]) == 0


def test_ev_kills_idempotent():
    for n in (1, 2):
        assert ev_morphism(e_sum(n), n).is_zero()


def test_equivariance_spot_check():
    for n in (1, 2):
        d = 2 * n
        for g in symplectic_sample(n):
            # check the map preserves the form
            for i in range(d):
                for j in range(d):
                    ri, si = g[i]
                    rj, sj = g[j]
                    assert si * sj * symplectic_form(ri, rj, n) == symplectic_form(i, j, n)
            # conjugating a monomial map hits every slot with the same
            # signed permutation (the +-1 scalings are self-inverse)
            for shape in [(1, 1), (0, 2), (2, 2), (0, 4)]:
                for diag in diagrams(*shape):
                    t = ev_diagram(diag, n)
                    data = {}
                    for key, val in t.data.items():
                        sign = 1
                        new_key = []
                        for idx in key:
                            r_idx, s_idx = g[idx]
                            new_key.append(r_idx)
                            sign *= s_idx
                        data[tuple(new_key)] = val * sign
                    assert Tensor(t.dims, data) == t, (diag, n)


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0, 2], [0, 1, 1], [1, 1, 3]]) == 2
    assert exact_rank([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == 2
    assert exact_rank([[0]]) == exact_rank([[]]) == exact_rank([[], []]) == 0
    assert exact_rank([[-7]]) == exact_rank([[Fraction(2, 9)]]) == 1


def known_rank_matrix(rng, rows, cols, rank, fractions):
    """A shuffled rows x cols product of a rows x rank and a rank x cols factor,
    each holding an identity block, so its rank is exactly ``rank``."""
    entry = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))) if fractions \
        else (lambda: rng.randint(-9, 9))
    left = [[int(i == j) for j in range(rank)] if i < rank else [entry() for _ in range(rank)]
            for i in range(rows)]
    right = [[int(i == j) if j < rank else entry() for j in range(cols)] for i in range(rank)]
    mat = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(cols)]
           for row in left]
    rng.shuffle(mat)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in mat]


def test_exact_rank_against_bareiss():
    rng, moves = random.Random(8), random.Random(9)
    for case in range(240):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(0, min(rows, cols))
        mat = known_rank_matrix(rng, rows, cols, rank, fractions=case % 2 == 1)
        if case % 3 == 0:  # a zero column and a zero row
            spot = rng.randint(0, cols)
            mat = [row[:spot] + [0] + row[spot:] for row in mat]
            mat.insert(rng.randint(0, rows), [0] * (cols + 1))
        assert exact_rank(mat) == exact_rank_bareiss(mat) == rank, mat
        # permuting the rows and scaling each by a nonzero rational keeps the rank
        scales = [Fraction(moves.choice([-3, -1, 2, 5]), moves.randint(1, 4)) for _ in mat]
        shuffled = [[c * x for x in row] for c, row in zip(scales, moves.sample(mat, len(mat)))]
        assert exact_rank(shuffled) == rank, shuffled


def _kernel_rank(gram) -> tuple[int, int]:
    """``_gram_rank`` of a rational Gram matrix scaled to integers, and the
    number of columns it asked for.  Each call's rows hold the pivot, increase,
    and are a subset of the previous call's."""
    scale = lcm(*(Fraction(x).denominator for row in gram for x in row))
    mat = [[int(x * scale) for x in row] for row in gram]
    asked = [range(len(mat))]

    def column(p, rows):
        assert p in rows and list(rows) == sorted(set(rows)), (p, rows)
        assert set(rows) <= set(asked[-1]), (rows, asked[-1])
        asked.append(rows)
        return [mat[i][p] for i in rows]
    return _gram_rank([mat[i][i] for i in range(len(mat))], column), len(asked) - 1


def test_gram_rank_against_bareiss():
    rng = random.Random(21)
    for case in range(160):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        rank = rng.randint(0, min(rows, cols))
        mat = known_rank_matrix(rng, rows, cols, rank, fractions=case % 2 == 1)
        if case % 4 == 0:  # a zero row
            mat.insert(rng.randint(0, rows), [0] * cols)
        if case % 4 == 1:  # duplicated rows, one of them negated
            row = rng.choice(mat)
            mat += [list(row), [-x for x in row]]
        gram = [[sum(x * y for x, y in zip(a, b)) for b in mat] for a in mat]
        got, asked = _kernel_rank(gram)
        assert got == asked == exact_rank_bareiss(gram) == rank, mat
        # a symmetric permutation of the Gram is the Gram of the permuted rows
        order = rng.sample(range(len(mat)), len(mat))
        assert _kernel_rank([[gram[i][j] for j in order] for i in order])[0] == rank, mat
    assert _gram_rank([], None) == _gram_rank([0, 0], None) == 0


def test_ev_gram_matches_dot_products():
    for n in (1, 2, 3):
        for points in (2, 4, 6, 8):
            pool = list(enumerate_matchings(points))
            want = gram_by_dot([ev_diagram(Diagram(0, points, pm), n) for pm in pool])
            assert flat_gram(pool, n) == want, (points, n)
    sample = random.Random(10).sample(list(enumerate_matchings(10)), 60)
    for n in (1, 2):
        want = gram_by_dot([ev_diagram(Diagram(0, 10, pm), n) for pm in sample])
        assert flat_gram(sample, n) == want, n


@pytest.mark.parametrize("r,n,expect", [
    (2, 1, 2), (3, 1, 5), (2, 2, 3), (1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 3), (3, 2, 14),
    (3, 3, 15), (4, 1, 14), (4, 2, 84), (4, 3, 104)])
def test_rank_examples(r, n, expect):
    tensors = [ev_diagram(d, n) for d in diagrams(0, 2 * r)]
    assert rank_of_span(tensors) == expect
    pool = list(enumerate_matchings(2 * r))
    gram = flat_gram(pool, n)
    assert ev_gram_rank(pool, n) == exact_rank(gram) == exact_rank_bareiss(gram) == expect
    assert expect == len(enumerate_X(r, n))


def test_rank_of_span_gram_matches_dot_products():
    # rank_of_span's keyed Gram against the dot products, on a rank-deficient sum
    rng = random.Random(12)
    pool = [ev_diagram(d, 1) for d in rng.sample(diagrams(0, 8), 20)]
    pool.append(pool[0].scaled(Fraction(-3, 7)) + pool[1])
    assert rank_of_span(pool) == exact_rank_bareiss(gram_by_dot(pool))


def test_tensor_shape_guard():
    with pytest.raises(ValueError, match="shape"):
        rank_of_span([identity_tensor(1), ev_generator("cup", 2)])
    with pytest.raises(ValueError, match="point count"):
        flat_gram(list(enumerate_matchings(2)) + list(enumerate_matchings(4)), 1)
    with pytest.raises(ValueError, match="point count"):
        ev_gram_rank(list(enumerate_matchings(4)) + list(enumerate_matchings(2)), 1)


def test_ev_rank_matches_the_exact_gram_rank():
    for r in range(1, 5):
        for n in range(1, 5):
            pool = list(enumerate_matchings(2 * r))
            assert ev_rank(r, n) == ev_gram_rank(pool, n) == count_X(r, n), (r, n)
            # the block certificate on its own, also where ev_rank takes the exact route
            assert _block_rank(enumerate_X(r, n), n) == count_X(r, n), (r, n)


@pytest.mark.parametrize("r,n", [(5, 1), (5, 2), (5, 3), (6, 1)])
def test_ev_rank_counts_noncrossing_matchings(r, n):
    assert ev_rank(r, n) == count_X(r, n)


def _with_crossing_orbit(r, n):
    """X(r, n) and the rotation orbit of an (n+1)-crossing matching of 2r points."""
    xs = enumerate_X(r, n)
    pm = PerfectMatching(tuple((i, i + n + 1) for i in range(1, n + 2))
                         + tuple((i, i + 1) for i in range(2 * n + 3, 2 * r, 2)))
    return xs + list(dict.fromkeys(pm.rotate(t) for t in range(2 * r)))


def test_block_rank_sees_a_rank_deficit():
    # on a rank-deficient rotation-closed pool every block must lose the right
    # rank: a root of the wrong order keeps the block sizes but not the ranks
    for r in range(2, 5):
        for n in range(1, r):
            assert _block_rank(list(enumerate_matchings(2 * r)), n) == count_X(r, n), (r, n)
    for r, n in [(5, 1), (5, 2), (5, 3), (6, 1)]:
        pool = _with_crossing_orbit(r, n)
        assert len(pool) > count_X(r, n) and _block_rank(pool, n) == count_X(r, n), (r, n)


@pytest.mark.parametrize("n", [1, 2])
def test_rotation_is_minus_the_slot_shift(n):
    # ev(rot d)[i_1 .. i_P] = -ev(d)[i_2 .. i_P, i_1]: only the strand through point P turns
    for points in (2, 4, 6, 8):
        for pm in enumerate_matchings(points):
            before = ev_diagram(Diagram(0, points, pm), n)
            after = ev_diagram(Diagram(0, points, pm.rotate()), n)
            shifted = {k[-1:] + k[:-1]: -v for k, v in before.data.items()}
            assert after.data == shifted, (pm, n)


@pytest.mark.parametrize("n", [1, 2])
def test_gram_is_rotation_invariant(n):
    for r in range(1, 5):
        pool = list(enumerate_matchings(2 * r))
        assert flat_gram([pm.rotate() for pm in pool], n) == flat_gram(pool, n), (r, n)


def test_miller_rabin_is_exact():
    sieve = [True] * 200_000
    sieve[0] = sieve[1] = False
    for i in range(2, 448):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, 200_000, i))
    assert [p for p in range(200_000) if _is_prime(p)] == [p for p, ok in enumerate(sieve) if ok]
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    assert not any(map(_is_prime, carmichael))
    # strong pseudoprime to the bases 2, 3, 5 and 7, caught by 11
    assert not _is_prime(3215031751)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1) and not _is_prime(2 ** 61 + 1)
    with pytest.raises(ValueError, match="Miller-Rabin"):
        _is_prime(10 ** 25)


def test_root_of_unity_has_exact_order():
    for order in range(1, 25):
        p, omega = _root_of_unity(order)
        assert _is_prime(p) and (p - 1) % order == 0 and 2 ** 29 < p < 2 ** 30
        powers = [pow(omega, e, p) for e in range(1, order + 1)]
        assert powers[-1] == 1 and 1 not in powers[:-1], order


def test_rank_mod_p_on_products():
    # B C with B m x k and C k x l has rank k over GF(p) for these seeds, and
    # zero columns in front exercise the columns with no pivot
    p = _root_of_unity(10)[0]
    rng = random.Random(28)
    for m, k, l in [(1, 1, 1), (5, 3, 7), (7, 7, 7), (12, 4, 9), (9, 6, 3)]:
        b = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        c = [[0] * 2 + [rng.randrange(p) for _ in range(l)] for _ in range(k)]
        rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*c)] for row in b]
        assert _rank_mod_p(rows, p) == min(k, l), (m, k, l)
    assert _rank_mod_p([[0, 0], [0, 0]], p) == 0 and _rank_mod_p([], p) == 0
    assert _rank_mod_p([[1, 2], [2, 4]], 7) == 1 and _rank_mod_p([[1, 2], [3, 4]], 2) == 1

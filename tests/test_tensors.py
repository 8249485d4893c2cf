import random
from fractions import Fraction
from itertools import product

import pytest

from brauercat.category import (Morphism, compose_diagrams, e_sum,
                                generator_s, generator_u, tensor_diagrams)
from brauercat.matchings import Diagram, enumerate_matchings, enumerate_X
from brauercat.tensors import (SymplecticSpace, Tensor, compose_maps,
                               ev_diagram, ev_generator, ev_morphism,
                               ev_sliced, exact_rank, identity_tensor,
                               rank_of_span, symplectic_sample, tensor_maps)
from oracles import strand_factor_tensor


def diagrams(r, s):
    return [Diagram(r, s, pm) for pm in enumerate_matchings(r + s)]


def test_space_form():
    sp = SymplecticSpace(2)
    J = sp.form_matrix()
    assert all(J[i][j] == -J[j][i] for i in range(4) for j in range(4))
    assert J[0][2] == 1 and J[2][0] == -1
    for i in range(4):
        j, sign = sp.dual(i)
        assert sp.form(j, i) * sign == 1


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
                assert lhs == ev_diagram(glued, n).scaled(Fraction(-2 * n) ** loops)
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
        for m in (Morphism(2, 4, terms, Fraction(-2 * n)), e_sum(n)):
            want = Tensor((2 * n,) * (m.r + m.s))
            for d, c in m.terms.items():
                want = want + ev_diagram(d, n).scaled(c)
            assert ev_morphism(m, n) == want


def test_ev_kills_idempotent():
    for n in (1, 2):
        assert ev_morphism(e_sum(n), n).is_zero()


def test_equivariance_spot_check():
    for n in (1, 2):
        d = 2 * n
        sp = SymplecticSpace(n)
        for g in symplectic_sample(n):
            # check the map preserves the form
            for i in range(d):
                for j in range(d):
                    ri, si = g[i]
                    rj, sj = g[j]
                    assert si * sj * sp.form(ri, rj) == sp.form(i, j)
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


@pytest.mark.parametrize("r,n,expect", [(2, 1, 2), (3, 1, 5), (2, 2, 3)])
def test_rank_examples(r, n, expect):
    tensors = [ev_diagram(d, n) for d in diagrams(0, 2 * r)]
    assert rank_of_span(tensors) == expect
    assert expect == len(enumerate_X(r, n))


def test_tensor_shape_guard():
    with pytest.raises(ValueError, match="shape"):
        rank_of_span([identity_tensor(1), ev_generator("cup", 2)])


def test_tensor_dump_and_dense():
    t = ev_generator("cup", 1)
    assert t.to_dense() == [[0, -1], [1, 0]]
    assert t.dump().splitlines() == ["0,1\t-1", "1,0\t1"]

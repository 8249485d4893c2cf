import pytest

from brauercat.matchings import (Diagram, PerfectMatching, bend,
                                 count_set_partitions, crossing_pairs,
                                 enumerate_matchings, enumerate_X,
                                 enumerate_X_blocked, find_mutually_crossing,
                                 iter_set_partitions, max_mutual_crossing,
                                 orbits, unbend)
from oracles import (bell, blocked_by_definition, catalan,
                     crossing_count_by_definition, double_factorial,
                     first_k_mutual_crossing, has_k_mutual_crossing,
                     set_partition_count)

PM = PerfectMatching


def test_canonical_storage():
    m = PM(((4, 1), (3, 2)))
    assert m.pairs == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        PM(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PM(((1, 2), (4, 5)))


def test_crossing_pairs_examples():
    assert crossing_pairs(PM(((1, 2), (3, 4)))) == 0
    assert crossing_pairs(PM(((1, 3), (2, 4)))) == 1
    for m in range(2, 6):
        full = PM(tuple((i, i + m) for i in range(1, m + 1)))
        assert crossing_pairs(full) == m * (m - 1) // 2


def test_crossing_pairs_matches_definition():
    for pm in enumerate_matchings(8):
        assert crossing_pairs(pm) == crossing_count_by_definition(pm.pairs)


def test_max_mutual_crossing_examples():
    assert max_mutual_crossing(PM(((1, 2), (3, 4)))) == 1
    assert max_mutual_crossing(PM(((1, 3), (2, 4)))) == 2
    assert max_mutual_crossing(PM(((1, 4), (2, 5), (3, 6)))) == 3


def test_max_mutual_crossing_brute_force():
    for pm in enumerate_matchings(8):
        got = max_mutual_crossing(pm)
        assert has_k_mutual_crossing(pm.pairs, got)
        assert not has_k_mutual_crossing(pm.pairs, got + 1)


def test_find_mutually_crossing():
    assert find_mutually_crossing(PM(((1, 2), (3, 4))), 2) is None
    assert find_mutually_crossing(PM(((1, 3), (2, 4))), 2) == ((1, 3), (2, 4))
    triple = PM(((1, 4), (2, 5), (3, 6)))
    assert find_mutually_crossing(triple, 3) == ((1, 4), (2, 5), (3, 6))


def test_find_mutually_crossing_is_first_subset():
    for points in range(0, 11, 2):
        for pm in enumerate_matchings(points):
            for k in range(0, 6):
                assert find_mutually_crossing(pm, k) == first_k_mutual_crossing(pm.pairs, k), (pm, k)


@pytest.mark.parametrize("points,count", [(2, 1), (4, 3), (8, 105)])
def test_enumerate_matchings_counts(points, count):
    assert sum(1 for _ in enumerate_matchings(points)) == count


def test_enumerate_matchings_double_factorial():
    for m in range(0, 7):
        seen = list(enumerate_matchings(2 * m))
        assert len(seen) == double_factorial(2 * m - 1)
        assert len(set(seen)) == len(seen)


def test_enumerate_matchings_rejects_odd():
    with pytest.raises(ValueError):
        list(enumerate_matchings(3))


def test_enumerate_X():
    assert set(enumerate_X(2, 1)) == {PM(((1, 2), (3, 4))), PM(((1, 4), (2, 3)))}
    assert len(enumerate_X(3, 1)) == catalan(3)
    assert len(enumerate_X(2, 2)) == 3
    # n >= r: no constraint survives
    for r in range(1, 5):
        assert len(enumerate_X(r, r)) == double_factorial(2 * r - 1)


def test_rotate():
    assert PM(((1, 2), (3, 4))).rotate() == PM(((1, 4), (2, 3)))
    assert PM(((1, 3), (2, 4))).rotate() == PM(((1, 3), (2, 4)))
    for pm in enumerate_matchings(6):
        out = pm
        for _ in range(6):
            out = out.rotate()
        assert out == pm


def test_rotation_preserves_mutual_crossing():
    for points in (4, 6, 8):
        for pm in enumerate_matchings(points):
            assert max_mutual_crossing(pm.rotate()) == max_mutual_crossing(pm)


def test_X_closed_under_rotation():
    for r in range(1, 5):
        for n in range(1, 4):
            sizes = orbits(enumerate_X(r, n), 1)
            assert sum(sizes) == len(enumerate_X(r, n))
            assert all(2 * r % s == 0 for s in sizes)


def test_orbits_examples():
    assert orbits(enumerate_X(2, 1), 1) == [2]
    assert orbits(enumerate_X(2, 2), 1) == [2, 1]
    assert orbits([PM(((1, 3), (2, 4)))], 1) == [1]
    with pytest.raises(ValueError, match="not closed"):
        orbits([PM(((1, 2), (3, 4)))], 1)


def test_blocked_figure_instance():
    assert len(enumerate_X_blocked(4, 2, 2)) == 6


def test_blocked_k1_reduces_to_plain():
    # On kr points with k = 1 both block rules are vacuous.
    for r_half, n in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        blocked = enumerate_X_blocked(2 * r_half, n, 1)
        assert blocked == enumerate_X(r_half, n)


def test_blocked_two_blocks():
    # With r=2 every crossing pair sits in at most two blocks, so only the
    # nested inter-block matching survives.
    for n in (1, 2, 3):
        out = enumerate_X_blocked(2, n, 2)
        assert out == [PM(((1, 4), (2, 3)))]


def test_blocked_matches_definition():
    for k in range(1, 5):
        for r in range(1, 12 // k + 1):
            for n in range(1, 4):
                got = [m.pairs for m in enumerate_X_blocked(r, n, k)]
                assert got == blocked_by_definition(r, n, k), (r, n, k)


def test_blocked_rotation_closure():
    for (r, n, k) in [(4, 2, 2), (3, 1, 2), (2, 1, 3)]:
        xs = enumerate_X_blocked(r, n, k)
        if xs:
            sizes = orbits(xs, k)
            assert sum(sizes) == len(xs)
            assert all(r % s == 0 for s in sizes)


def test_propagating_number():
    for m in range(1, 5):
        assert Diagram.identity(m).propagating_number == m
    from brauercat.category import generator_u
    for m in range(2, 5):
        assert generator_u(1, m).propagating_number == m - 2
    for pm in enumerate_matchings(6):
        assert Diagram(0, 6, pm).propagating_number == 0


def test_bend_examples():
    assert bend(Diagram.identity(1)).matching == PM(((1, 2),))
    from brauercat.category import generator_u
    assert bend(generator_u(1, 2)).matching == PM(((1, 2), (3, 4)))


def test_bend_bijection():
    for r in range(0, 6):
        for s in range(0, 6):
            if (r + s) % 2 or r + s == 0 or r + s > 10:
                continue
            diagrams = [Diagram(r, s, pm) for pm in enumerate_matchings(r + s)]
            bent = {bend(d).matching for d in diagrams}
            assert len(bent) == len(diagrams)
            for d in diagrams:
                assert unbend(bend(d).matching, r, s) == d


@pytest.mark.parametrize("r,n,expect", [(4, 2, 8), (3, 3, 5), (3, 5, 5), (0, 2, 1)])
def test_set_partition_counts(r, n, expect):
    assert count_set_partitions(r, n) == expect


def test_set_partition_oracle_agreement():
    for r in range(0, 8):
        for n in range(1, 8):
            assert count_set_partitions(r, n) == set_partition_count(r, n)
    assert count_set_partitions(6, 6) == bell(6)


def test_iter_set_partitions():
    for r in range(0, 6):
        for n in range(1, 5):
            blocks = list(iter_set_partitions(r, n))
            assert len(blocks) == count_set_partitions(r, n)
            assert len(set(map(tuple, (tuple(sorted(p)) for p in blocks)))) == len(blocks)


def test_parse_format_round_trip():
    texts = ["(1,3)(2,4)", "(1,2)(3,4)", "( 1 , 6 )(2,5)( 3 , 4 )"]
    for t in texts:
        m = PM.parse(t)
        assert PM.parse(str(m)) == m
    d = Diagram.parse("2|2:(1,2)(3,4)")
    from brauercat.category import generator_u
    assert d == generator_u(1, 2)
    assert Diagram.parse(str(d)) == d
    flat = Diagram.parse("(1,3)(2,4)")
    assert (flat.r, flat.s) == (0, 4)
    empty = Diagram.identity(0)
    assert str(empty) == "id_0" and Diagram.parse(str(empty)) == empty

import random
import re
from fractions import Fraction

import pytest

from brauercat.matchings import (Diagram, PerfectMatching, bend, chord_key, chord_orbit,
                                 chord_pairs, count_fixed_X, count_X, crossing_pairs,
                                 enumerate_matchings, enumerate_X,
                                 enumerate_X_blocked, find_mutually_crossing,
                                 iter_set_partitions, orbit_key, orbits, point_blocks,
                                 rotation_cycles, unbend)
from brauercat.expr import parse_morphism
from brauercat.tableaux import count_oscillating, count_strip_walks
from oracles import (all_matchings, bell, blocked_by_definition, catalan,
                     crossing_count_by_definition, double_factorial,
                     enumerate_X_by_filter, first_k_mutual_crossing,
                     has_k_mutual_crossing, orbit_by_moves, orbits_by_rotate,
                     set_partition_count)

PM = PerfectMatching


def read_diagram(text: str) -> Diagram:
    """The one diagram of a diagram literal, read through the expression reader."""
    (d, c), = parse_morphism(text).terms.items()
    assert c == 1
    return d


def test_canonical_storage():
    m = PM(((4, 1), (3, 2)))
    assert m.pairs == ((1, 4), (2, 3))
    with pytest.raises(ValueError):
        PM(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PM(((1, 2), (4, 5)))


def test_involution_is_the_mate_list():
    for points in range(0, 10, 2):
        for pairs in all_matchings(points):
            mate = PM(pairs).involution()
            assert len(mate) == points + 1 and mate[0] == 0
            assert all(mate[a] == b and mate[b] == a for a, b in pairs)


def test_crossing_pairs_examples():
    assert crossing_pairs(PM(((1, 2), (3, 4)))) == 0
    assert crossing_pairs(PM(((1, 3), (2, 4)))) == 1
    for m in range(2, 6):
        full = PM(tuple((i, i + m) for i in range(1, m + 1)))
        assert crossing_pairs(full) == m * (m - 1) // 2


def test_crossing_pairs_matches_definition():
    # every matching of up to 10 points, so the scan's early stop meets every
    # nesting of a strand's right end among later left ends
    for points in range(0, 11, 2):
        for pairs in all_matchings(points):
            assert crossing_pairs(PM(pairs)) == crossing_count_by_definition(pairs), pairs


def max_mutual_crossing(m):
    """Largest j such that some j strands of m cross mutually."""
    size = 0
    while find_mutually_crossing(m, size + 1) is not None:
        size += 1
    return size


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
        assert all(pm == PM(pm.pairs) for pm in seen)  # built unchecked, so check canonical


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


def test_enumerate_X_matches_filter():
    for r in range(0, 7):
        for n in range(1, 5):
            generated = enumerate_X(r, n)
            assert [m.pairs for m in generated] == enumerate_X_by_filter(r, n), (r, n)
            assert all(m == PerfectMatching(m.pairs) for m in generated), (r, n)


def test_enumerate_X_counts_beyond_filter_reach():
    for n in (1, 2):
        assert len(enumerate_X(7, n)) == count_oscillating(14, n)


def test_enumerate_X_rejects_bad_arguments():
    for r, n in [(-1, 1), (2, 0)]:
        with pytest.raises(ValueError):
            enumerate_X(r, n)
    for r, n, k in [(0, 1, 2), (2, 1, 0), (2, 0, 2)]:
        with pytest.raises(ValueError):
            enumerate_X_blocked(r, n, k)


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


def test_orbits_match_rotate_walk():
    for r in range(1, 6):
        for n in range(1, 4):
            xs = enumerate_X(r, n)
            assert orbits(xs, 1) == orbits_by_rotate(xs, 1), (r, n)
    for k in (2, 3, 4, 5):
        for r in range(1, 10 // k + 1):
            for n in (1, 2, 3, r * k + 1):
                xs = enumerate_X_blocked(r, n, k)
                assert orbits(xs, k) == orbits_by_rotate(xs, k), (r, n, k)


def test_rotation_cycles_of_X():
    # each cycle lists its first element rotated by 0, 1, 2, ... points, and
    # its lengths are the orbit sizes of the rotate walk
    for r in range(1, 7):
        for n in range(1, 4):
            xs = enumerate_X(r, n)
            cycles = rotation_cycles([x.pairs for x in xs])
            assert sorted(map(len, cycles), reverse=True) == orbits_by_rotate(xs, 1), (r, n)
            assert sorted(i for c in cycles for i in c) == list(range(len(xs)))
            for c in cycles:
                assert c[0] == min(c)
                assert [xs[i] for i in c] == [xs[c[0]].rotate(t) for t in range(len(c))]


def test_rotation_cycles_count_by_burnside():
    # the number of orbits is the average number of fixed points over the 2r rotations
    for r in range(1, 7):
        for n in range(1, 4):
            fixed = sum(count_fixed_X(2 * r, n, 1, s) for s in range(2 * r))
            assert fixed % (2 * r) == 0
            assert len(rotation_cycles([x.pairs for x in enumerate_X(r, n)])) == fixed // (2 * r)


def test_orbits_name_a_witness_outside_the_set():
    for xs, step in [(enumerate_X(3, 1)[1:], 1), (enumerate_X(3, 2)[:-1], 1),
                     (enumerate_X_blocked(4, 2, 2)[1:], 2), ([PM(((1, 2), (3, 4)))], 1)]:
        with pytest.raises(ValueError, match="not closed") as exc:
            orbits(xs, step)
        inside, outside = re.search(r": (.*) reaches (.*)$", str(exc.value)).groups()
        inside, outside = read_diagram(inside).matching, read_diagram(outside).matching
        assert inside in xs and outside not in xs


@pytest.mark.parametrize("dihedral", [False, True])
def test_chord_key_names_one_orbit(dihedral):
    # the matchings sharing a key are exactly one orbit of the rotate (and
    # reflect) walk, the key decodes to a member, and the orbit lister names
    # each member once
    for points in range(2, 11, 2):
        pool = list(enumerate_matchings(points))
        classes: dict[tuple, set] = {}
        for pm in pool:
            classes.setdefault(chord_key(pm.pairs, dihedral), set()).add(pm)
        for key, members in classes.items():
            assert members == orbit_by_moves(next(iter(members)), dihedral), key
            assert PM(chord_pairs(key)).pairs == chord_pairs(key)
            assert PM(chord_pairs(key)) in members
            listed = [PM(pairs) for pairs in chord_orbit(key, dihedral)]
            assert len(listed) == len(members) and set(listed) == members
        if not dihedral:
            assert sorted(map(len, classes.values()), reverse=True) == orbits_by_rotate(pool)


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


def test_blocked_count_is_the_strip_walk_count():
    # csp-verify's size of X(r, n, k) against the listing search, 2 <= k <= 5,
    # rk <= 20, n <= 3; past 16 points the search counts without listing
    # (X(10, 3, 2) holds 441,513 matchings)
    for k in range(2, 6):
        for r in range(1, 20 // k + 1):
            for n in range(1, 4):
                listed = (len(enumerate_X_blocked(r, n, k)) if r * k <= 16
                          else count_fixed_X(r, n, k, 0))
                assert count_X(r, n, k) == count_strip_walks(r, k, n) == listed, (r, n, k)
                if r * k % 2:
                    assert listed == 0, (r, n, k)
    assert count_X(8, 2, 3) == 72784
    assert count_X(4, 2, 1) == count_X(4, 2) == count_oscillating(8, 2)
    for r, n, k in [(0, 1, 2), (2, 0, 2), (2, 1, 0)]:
        with pytest.raises(ValueError, match="need r, n, k >= 1"):
            count_X(r, n, k)


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
                assert bend(d).matching == PM(bend(d).matching.pairs)  # canonical pairs


@pytest.mark.parametrize("r,n,expect", [(4, 2, 8), (3, 3, 5), (3, 5, 5), (0, 2, 1)])
def test_set_partition_counts(r, n, expect):
    assert len(list(iter_set_partitions(r, n))) == expect


def test_set_partition_oracle_agreement():
    for r in range(0, 8):
        for n in range(1, 8):
            assert len(list(iter_set_partitions(r, n))) == set_partition_count(r, n)
    assert len(list(iter_set_partitions(6, 6))) == bell(6)


def test_iter_set_partitions():
    for r in range(0, 6):
        for n in range(1, 5):
            blocks = list(iter_set_partitions(r, n))
            assert len(blocks) == set_partition_count(r, n)
            assert len(set(map(tuple, (tuple(sorted(p)) for p in blocks)))) == len(blocks)


def test_parse_format_round_trip():
    texts = ["(1,3)(2,4)", "(1,2)(3,4)", "( 1 , 6 )(2,5)( 3 , 4 )"]
    for t in texts:
        m = read_diagram(t).matching
        assert read_diagram(str(m)).matching == m
    d = read_diagram("2|2:(1,2)(3,4)")
    from brauercat.category import generator_u
    assert d == generator_u(1, 2)
    assert read_diagram(str(d)) == d
    flat = read_diagram("(1,3)(2,4)")
    assert (flat.r, flat.s) == (0, 4)
    empty = Diagram.identity(0)
    assert str(empty) == "id_0" and read_diagram(str(empty)) == empty


def _transposed(pairs, i, j):
    """The matching ``pairs`` with points i and j swapped, canonical."""
    swap = {i: j, j: i}
    return PM(tuple((swap.get(a, a), swap.get(b, b)) for a, b in pairs)).pairs


def _mate_map(coeff, points):
    """A map from canonical pairs to coefficients as ``point_blocks`` reads it."""
    out = {}
    for pairs, c in coeff.items():
        mate = [0] * (points + 1)
        for a, b in pairs:
            mate[a], mate[b] = b, a
        out[tuple(mate)] = c
    return out


def test_point_blocks_match_every_transposition():
    # the blocks are the components of the graph of the transpositions that map
    # the coefficient map to itself, each tested on every matching
    rng = random.Random(38)
    tried = merged = 0
    for points in (2, 4, 6, 8):
        pool = [pm.pairs for pm in enumerate_matchings(points)]
        for _ in range(12):
            # a Young subgroup's orbits, one coefficient from a short list each, so
            # that some maps have more symmetry than the subgroup, and a few terms
            # dropped or changed, so that some have less
            label = [rng.randrange(3) for _ in range(points + 1)]
            coeff, value = {}, {}
            for pairs in pool:
                key = tuple(sorted(tuple(sorted((label[a], label[b]))) for a, b in pairs))
                coeff[pairs] = value.setdefault(key, rng.choice((0, 1, 2, Fraction(1, 2))))
            for pairs in rng.sample(pool, rng.randint(0, min(2, len(pool) - 1))):
                coeff[pairs] = rng.choice((0, 3))
            coeff = {pairs: c for pairs, c in coeff.items() if c}
            component = list(range(points + 1))
            for i in range(1, points + 1):
                for j in range(i + 1, points + 1):
                    if all(coeff.get(_transposed(pairs, i, j), 0) == c
                           for pairs, c in coeff.items()):
                        old = component[j]
                        component = [component[i] if x == old else x for x in component]
            block = point_blocks(_mate_map(coeff, points), points)
            for p in range(1, points + 1):
                for q in range(1, points + 1):
                    assert (block[p] == block[q]) == (component[p] == component[q]), coeff
            tried += 1
            merged += len(set(block[1:])) < points
            # the orbit key under the blocks: equal keys exactly when a chain of
            # transpositions inside the blocks joins the two matchings
            orbit = {}
            for start in pool:
                if start in orbit:
                    continue
                orbit[start], todo = start, [start]
                while todo:
                    pairs = todo.pop()
                    for i in range(1, points + 1):
                        for j in range(i + 1, points + 1):
                            image = _transposed(pairs, i, j)
                            if block[i] == block[j] and image not in orbit:
                                orbit[image] = start
                                todo.append(image)
            key = {pairs: orbit_key(pairs, block) for pairs in pool}
            for a in pool:
                for b in pool:
                    assert (key[a] == key[b]) == (orbit[a] == orbit[b]), (a, b, block)
    assert tried == 48 and 12 < merged < tried
    assert point_blocks({}, 4) == [0, 1, 1, 1, 1]  # the empty map: every transposition

import random
from fractions import Fraction
from math import gcd

import pytest

from brauercat.csp import (CspInstance, divisors, evaluate_at_root_of_unity,
                           fixed_points, is_cyclic_sieving_polynomial,
                           orbit_multiplicities, orbit_polynomial, verify_csp,
                           verify_csp_X)
from brauercat.matchings import (PerfectMatching, count_fixed_X, count_X,
                                 enumerate_X, enumerate_X_blocked)
from brauercat.qpoly import QPolynomial
from brauercat.symfunc import (fake_degree, invariant_character_matchings,
                               invariant_character_sym_power)
from oracles import (blocked_by_definition, enumerate_X_by_filter,
                     orbit_multiplicities_by_moebius)


def matchings_instance(r, n):
    poly = fake_degree(invariant_character_matchings(r, n))
    return CspInstance(tuple(enumerate_X(r, n)), 1, 2 * r, poly)


def blocked_instance(r, n, k):
    poly = fake_degree(invariant_character_sym_power(r, k, n))
    return CspInstance(tuple(enumerate_X_blocked(r, n, k)), k, r, poly)


def test_fixed_points():
    xs = tuple(enumerate_X(2, 1))
    assert fixed_points(xs, 1, 0) == 2
    assert fixed_points(xs, 1, 1) == 0
    assert fixed_points(xs, 1, 2) == 2
    crossing = tuple(enumerate_X(2, 2))
    assert fixed_points(crossing, 1, 1) == 1


def test_fixed_counts_from_orbit_sizes_match_direct_rotation():
    instances = [matchings_instance(r, n) for r in range(1, 6) for n in range(1, 4)]
    instances += [blocked_instance(r, n, k) for k in (2, 3, 4, 5)
                  for r in range(1, 11) if r * k <= 10 for n in (1, 2, 3, r * k + 1)]
    for inst in instances:
        cert = verify_csp(inst)
        direct = tuple(fixed_points(inst.elements, inst.step, d) for d in range(inst.order))
        assert cert.fixed_counts == direct, (inst.order, inst.step, len(inst.elements))


def test_orbit_polynomial():
    assert orbit_polynomial([2], 4) == QPolynomial((1, 0, 1))
    assert orbit_polynomial([2, 1], 4) == QPolynomial((2, 0, 1))
    assert orbit_polynomial([4], 4) == QPolynomial((1, 1, 1, 1))
    with pytest.raises(ValueError, match="divide"):
        orbit_polynomial([3], 4)


def test_worked_instance_r2_n1():
    cert = verify_csp(matchings_instance(2, 1))
    assert cert.passed
    assert cert.poly == QPolynomial((0, 0, 1, 0, 1))
    assert cert.poly_reduced == QPolynomial((1, 0, 1))
    assert cert.orbit_poly == QPolynomial((1, 0, 1))
    assert cert.orbit_counts == {2: 1}
    assert cert.fixed_counts == (2, 0, 2, 0)


def test_worked_instance_r2_n2():
    cert = verify_csp(matchings_instance(2, 2))
    assert cert.passed
    assert cert.poly == QPolynomial((1, 0, 1, 0, 1))
    assert cert.poly_reduced == QPolynomial((2, 0, 1))
    assert cert.orbit_counts == {2: 1, 1: 1}


def test_negative_control_fails_at_two():
    xs = tuple(enumerate_X(2, 1))
    cert = verify_csp(CspInstance(xs, 1, 4, QPolynomial((0, 1, 0, 1))))
    assert not cert.passed
    assert cert.failure_divisor == 2


def test_malformed_polynomial_rejected():
    xs = tuple(enumerate_X(2, 1))
    with pytest.raises(ValueError, match="malformed"):
        verify_csp(CspInstance(xs, 1, 4, QPolynomial((1, -1))))


def test_root_of_unity_evaluation_matches_fixed_counts():
    for r in range(1, 5):
        for n in range(1, r + 1):
            inst = matchings_instance(r, n)
            cert = verify_csp(inst)
            assert cert.passed
            for d in range(inst.order):
                value = evaluate_at_root_of_unity(inst.poly, inst.order, d)
                assert value == cert.fixed_counts[d], (r, n, d)


def test_root_of_unity_basics():
    p = QPolynomial((0, 1))  # q
    assert evaluate_at_root_of_unity(p, 2, 1) == -1
    assert evaluate_at_root_of_unity(p, 4, 1) is None  # the value is i
    assert evaluate_at_root_of_unity(p, 4, 0) == 1


def test_blocked_figure_instance():
    cert = verify_csp(blocked_instance(4, 2, 2))
    assert cert.passed
    assert cert.size == 6
    assert sum(t * m for t, m in cert.orbit_counts.items()) == 6


PLAIN_ROUTE_GRID = sorted({(r, n) for r in range(1, 6) for n in range(1, r + 1)}  # criterion 6
                          | {(r, n) for r in range(1, 7) for n in range(1, 4)})
BLOCKED_ROUTE_GRID = [(r, n, k) for k in (2, 3, 4, 5) for r in range(1, 11) if r * k <= 10
                      for n in (1, 2, 3, r * k + 1)]  # criterion 7


def _summary(cert):
    return (cert.passed, cert.size, cert.fixed_counts, list(cert.orbit_counts.items()),
            cert.orbit_poly, cert.poly_reduced, cert.failure_divisor, cert.message)


def test_counting_route_matches_orbit_route():
    for r, n in PLAIN_ROUTE_GRID:
        inst = matchings_instance(r, n)
        assert _summary(verify_csp_X(r, n, None, inst.poly)) == _summary(verify_csp(inst)), (r, n)
    for r, n, k in BLOCKED_ROUTE_GRID:
        inst = blocked_instance(r, n, k)
        assert _summary(verify_csp_X(r, n, k, inst.poly)) == _summary(verify_csp(inst)), (r, n, k)


def test_orbit_counts_list_sizes_descending():
    cert = verify_csp_X(4, 2, None, matchings_instance(4, 2).poly)
    assert list(cert.orbit_counts.items()) == [(8, 8), (4, 4), (2, 2)]
    assert cert.lines()[3] == "orbits: {8: 8, 4: 4, 2: 2}"
    empty = verify_csp_X(3, 1, 3, QPolynomial((0,)))  # 9 points: X(3, 1, 3) is empty
    assert empty.passed and empty.size == 0 and empty.orbit_counts == {}


def test_counting_search_matches_fixed_points():
    """Every instance on at most 12 points: all powers c^d up to 10 points, the
    divisor powers (those the counting route asks for) and the identity at 12.
    The sets come from the filter and definition oracles, not from the search
    under test, and the power c^d is applied directly, as one rotation by d*k
    points."""
    instances = [(2 * r, n, 1, enumerate_X_by_filter(r, n))
                 for r in range(1, 7) for n in range(1, 4)]
    instances += [(r, n, k, blocked_by_definition(r, n, k)) for k in range(2, 7)
                  for r in range(1, 13) if r * k <= 12 for n in (1, 2, 3, r * k + 1)]
    for r, n, k, pairs in instances:
        xs = [PerfectMatching(p) for p in pairs]
        order = r if k > 1 else 2 * r
        powers = range(order) if r * k <= 10 else [0] + divisors(order)
        for d in powers:
            assert count_fixed_X(r, n, k, d) == fixed_points(xs, d * k, 1), (r, n, k, d)


def test_count_X_matches_enumeration():
    for r in range(0, 7):
        for n in range(1, 4):
            assert count_X(r, n) == len(enumerate_X(r, n)), (r, n)


@pytest.mark.parametrize("call, message", [
    (lambda: count_fixed_X(0, 1, 1, 1), "need r, n, k >= 1"),
    (lambda: count_fixed_X(2, 0, 1, 1), "need r, n, k >= 1"),
    (lambda: count_fixed_X(2, 1, 0, 1), "need r, n, k >= 1"),
    (lambda: count_X(2, 0), "need r >= 0 and n >= 1"),
    (lambda: verify_csp_X(2, 0, None, QPolynomial((1,))), "need r >= 0 and n >= 1"),
    (lambda: verify_csp_X(2, 1, 0, QPolynomial((1,))), "need r, n, k >= 1"),
    (lambda: verify_csp_X(0, 1, None, QPolynomial((1,))), "order must be positive"),
])
def test_counting_route_rejects_bad_parameters(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_wrong_polynomial_fails_alike_through_both_routes():
    q = QPolynomial((0, 1))
    seen = set()
    for r, n, k in [(2, 1, None), (3, 2, None), (4, 2, None), (5, 3, None),
                    (4, 2, 2), (3, 1, 4), (2, 3, 3)]:
        inst = matchings_instance(r, n) if k is None else blocked_instance(r, n, k)
        for wrong in (inst.poly + q, inst.poly * q, inst.poly + inst.poly):
            by_orbits = verify_csp(CspInstance(inst.elements, inst.step, inst.order, wrong))
            by_counts = verify_csp_X(r, n, k, wrong)
            assert not by_counts.passed and by_counts.message, (r, n, k, wrong)
            assert _summary(by_counts) == _summary(by_orbits), (r, n, k, wrong)
            seen.add(by_counts.failure_divisor)
    assert len(seen) > 1
    from brauercat.symfunc import invariant_character_fundamental
    cert = verify_csp_X(2, 1, 3, fake_degree(invariant_character_fundamental(2, 3, 1)))
    assert not cert.passed and cert.failure_divisor == 1


def test_inconsistent_class_counts_are_refused():
    from brauercat.csp import _certificate
    with pytest.raises(ValueError, match="not those of a rotation"):
        _certificate(QPolynomial((1,)), 4, {1: 0, 2: 1, 4: 1})  # one element in an orbit of 2


def test_not_a_sieving_polynomial():
    q = QPolynomial((0, 1))
    assert not is_cyclic_sieving_polynomial(q, 2)
    assert orbit_multiplicities(q, 2) == {2: 1, 1: -1}
    assert is_cyclic_sieving_polynomial(orbit_polynomial([2, 1], 4), 4)
    assert is_cyclic_sieving_polynomial(QPolynomial((3,)), 5)
    assert not is_cyclic_sieving_polynomial(QPolynomial((1, -1)), 2)


def _typed(mult):
    """Items in order with their types, so 1 and Fraction(1) differ."""
    return None if mult is None else [(k, v, type(v)) for k, v in mult.items()]


def _random_poly(rng, order):
    """Coefficients constant on gcd classes mod q^order - 1 (sometimes not),
    integer, negative or fractional, spread over several periods."""
    kind = rng.choice(("int", "negative", "fraction", "arbitrary"))
    values = {}
    coeffs = [0] * (3 * order)
    for e in range(order):
        c = gcd(e, order) if e else order
        if kind == "arbitrary":
            values[c] = rng.randint(0, 3)
        elif c not in values:
            values[c] = {"int": rng.randint(0, 4), "negative": rng.randint(-3, 3),
                         "fraction": Fraction(rng.randint(-4, 4), rng.randint(1, 3))}[kind]
        part = Fraction(rng.randint(0, 2), 1)
        coeffs[e + order * rng.randint(1, 2)] += part
        coeffs[e] += values[c] - part
    return QPolynomial(coeffs)


def test_peeled_multiplicities_match_moebius_inversion():
    polys = [(fake_degree(invariant_character_matchings(r, n)), 2 * r)
             for r in range(1, 7) for n in range(1, 4)]
    polys += [(fake_degree(invariant_character_sym_power(r, k, n)), r)
              for k in (2, 3, 4, 5) for r in range(1, 11) if r * k <= 10
              for n in (1, 2, 3, r * k + 1)]
    rng = random.Random(20041)
    polys += [(_random_poly(rng, order), order)
              for order in (rng.randint(1, 36) for _ in range(500))]
    seen = set()
    for p, order in polys:
        got = orbit_multiplicities(p, order)
        assert _typed(got) == _typed(orbit_multiplicities_by_moebius(p, order)), (p, order)
        if got is None:
            seen.add("none")
        else:
            seen.update("negative" for v in got.values() if v < 0)
            seen.update("fraction" for v in got.values()
                        if isinstance(v, Fraction) and v.denominator > 1)
    assert seen == {"none", "negative", "fraction"}


def test_fundamental_fail_certificate():
    from brauercat.symfunc import invariant_character_fundamental
    poly = fake_degree(invariant_character_fundamental(2, 3, 1))
    xs = tuple(enumerate_X_blocked(2, 1, 3))
    assert len(xs) == 1
    cert = verify_csp(CspInstance(xs, 3, 2, poly))
    assert not cert.passed
    assert cert.failure_divisor == 1


def test_instance_validation():
    with pytest.raises(ValueError, match="order"):
        CspInstance((), 1, 0, QPolynomial((1,)))

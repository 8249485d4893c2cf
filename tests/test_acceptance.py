"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every tolerance is exact equality of integers, rationals, polynomials or
morphisms; nothing is approximate anywhere in this file.
"""

from fractions import Fraction
from itertools import product

from brauercat.category import (Morphism, check_eq_ch, compose_diagrams,
                                e_rec, e_sum, r_element)
from brauercat.csp import CspInstance, verify_csp
from brauercat.matchings import (Diagram, enumerate_matchings, enumerate_X,
                                 enumerate_X_blocked, iter_set_partitions,
                                 orbits)
from brauercat.partitions import partitions
from brauercat.pfaffian import normal_form, pfaffian
from brauercat.qpoly import QPolynomial
from brauercat.symfunc import (SymFuncP, adjoint_character_full,
                               adjoint_invariant_character, dimension,
                               fake_degree, invariant_character_fundamental,
                               invariant_character_matchings,
                               invariant_character_sym_power,
                               littlewood_check,
                               partition_category_character,
                               partition_category_character_multiset,
                               regular_graph_character, schur_expand)
from brauercat.tableaux import (count_oscillating, fake_degree_schur,
                                fake_degree_schur_hook)
from brauercat.tensors import ev_diagram, ev_morphism, rank_of_span
from oracles import (catalan, compose_maps, enumerate_pf_generators, ev_sliced, evaluate,
                     is_cyclic_sieving_polynomial, set_partition_count, tensor_sum)

F = Fraction


def finish(*, tag, failures):
    status = "PASS" if not failures else "FAIL"
    detail = f" [{failures[0]}]" if failures else ""
    print(f"ACCEPTANCE {tag}: {status}{detail}")
    assert not failures, failures[0]


def diagrams(r, s):
    return [Diagram(r, s, pm) for pm in enumerate_matchings(r + s)]


def test_criterion_1_idempotent_suite():
    failures = []
    for n in (1, 2, 3):
        e = e_sum(n)
        if not (e * e == e):
            failures.append(f"n={n}: not idempotent")
        report = check_eq_ch(e, n)
        if not report.passed:
            failures.append(f"n={n}: centrality fails at {report.witness}")
        if e.trace() != 0:
            failures.append(f"n={n}: trace is {e.trace()}")
        if e_rec(n) != e:
            failures.append(f"n={n}: recursive construction differs")
    finish(tag="1 idempotent suite (n=1,2,3)", failures=failures)


def test_criterion_2_yang_baxter():
    deltas = [F(x) for x in range(-20, -13)]
    assert len(deltas) == 7
    failures = []
    for m, i in [(3, 1), (4, 1), (4, 2)]:
        for h, k in product(range(0, 4), repeat=2):
            for delta in deltas:
                lhs = r_element(i, h, m, delta) * r_element(i + 1, h + k, m, delta) \
                    * r_element(i, k, m, delta)
                rhs = r_element(i + 1, k, m, delta) * r_element(i, h + k, m, delta) \
                    * r_element(i + 1, h, m, delta)
                if lhs != rhs:
                    failures.append(f"braid m={m} i={i} h={h} k={k} delta={delta}")
    for h, k in product(range(0, 4), repeat=2):
        for delta in deltas:
            a = r_element(1, h, 4, delta)
            b = r_element(3, k, 4, delta)
            if a * b != b * a:
                failures.append(f"far commutation h={h} k={k} delta={delta}")
    finish(tag="2 Yang-Baxter (m<=4, 7 specializations)", failures=failures)


def _composable_pairs(max_points):
    for s in range(0, max_points + 1):
        for r in range(0, max_points - s + 1):
            if (r + s) % 2:
                continue
            for t in range(0, max_points - s + 1):
                if (s + t) % 2:
                    continue
                yield r, s, t


def test_criterion_3_functoriality_and_slicing():
    failures = []
    for n in (1, 2):
        for r in range(0, 7):
            for s in range(0, 7 - r):
                if (r + s) % 2 or r + s == 0:
                    continue
                for d in diagrams(r, s):
                    left = ev_sliced(d, n, "left")
                    if not left == ev_sliced(d, n, "right") == ev_diagram(d, n):
                        failures.append(f"slicing n={n} {d}")
        for r, s, t in _composable_pairs(6):
            for dx in diagrams(r, s):
                for dy in diagrams(s, t):
                    loops, glued = compose_diagrams(dx, dy)
                    lhs = compose_maps(ev_diagram(dx, n), ev_diagram(dy, n), s)
                    rhs = tensor_sum((2 * n,) * (r + t),
                                     [(ev_diagram(glued, n), (-2 * n) ** loops)])
                    if lhs != rhs:
                        failures.append(f"functoriality n={n} {dx} . {dy}")
    finish(tag="3 functoriality + slicing independence (<=6 points, n=1,2)",
           failures=failures)


def test_criterion_4_second_fundamental_theorem():
    failures = []
    expected_rank_n1 = {1: 1, 2: 2, 3: catalan(3), 4: catalan(4)}
    for n in (1, 2):
        for r in (1, 2, 3, 4):
            points = 2 * r
            zero = Morphism.zero(0, points, F(-2 * n))
            for g in enumerate_pf_generators(n, points):
                pf = pfaffian(g, F(-2 * n))
                if not ev_morphism(pf, n).is_zero():
                    failures.append(f"ev(Pf) != 0 at n={n}, points={points}, {g.subset}")
                    break
            for pm in enumerate_matchings(points):
                d = Diagram(0, points, pm)
                m = Morphism.from_diagram(d, F(-2 * n))
                if not ev_morphism(m - normal_form(m, n), n).is_zero():
                    failures.append(f"normal form unsound at n={n}, {d}")
                    break
            rank = rank_of_span([ev_diagram(d, n) for d in diagrams(0, points)])
            count = len(enumerate_X(r, n))
            if rank != count:
                failures.append(f"rank {rank} != |X({r},{n})| = {count}")
            if n == 1 and rank != expected_rank_n1[r]:
                failures.append(f"rank {rank} != Catalan {expected_rank_n1[r]}")
    finish(tag="4 second fundamental theorem (n=1,2; 2r<=8)", failures=failures)


def test_criterion_5_dimension_bijection():
    failures = []
    for r in range(1, 7):
        for n in range(1, 4):
            osc = count_oscillating(2 * r, n)
            ncm = len(enumerate_X(r, n))
            if osc != ncm:
                failures.append(f"r={r} n={n}: oscillating {osc} != matchings {ncm}")
    finish(tag="5 oscillating tableaux vs noncrossing matchings (r<=6, n<=3)",
           failures=failures)


def test_criterion_6_csp_main_theorem():
    failures = []
    for r in range(1, 6):
        for n in range(1, r + 1):
            poly = fake_degree(invariant_character_matchings(r, n))
            inst = CspInstance(tuple(enumerate_X(r, n)), 1, 2 * r, poly)
            cert = verify_csp(inst)
            if not cert.passed:
                failures.append(f"CSP fails at r={r} n={n}, divisor {cert.failure_divisor}")
    worked1 = fake_degree(invariant_character_matchings(2, 1))
    if worked1 != QPolynomial((0, 0, 1, 0, 1)):
        failures.append(f"P(2,1) = {worked1}, expected q^2 + q^4")
    worked2 = fake_degree(invariant_character_matchings(2, 2))
    if worked2 != QPolynomial((1, 0, 1, 0, 1)):
        failures.append(f"P(2,2) = {worked2}, expected 1 + q^2 + q^4")
    finish(tag="6 CSP for noncrossing matchings (r<=5, n<=r)", failures=failures)


def test_criterion_7_csp_blocked():
    failures = []
    grids = [(r, k) for k in (2, 3, 4, 5) for r in range(1, 11) if r * k <= 10]
    for r, k in grids:
        for n in (1, 2, 3, r * k + 1):
            xs = tuple(enumerate_X_blocked(r, n, k))
            poly = fake_degree(invariant_character_sym_power(r, k, n))
            cert = verify_csp(CspInstance(xs, k, r, poly))
            if not cert.passed:
                failures.append(f"blocked CSP fails at r={r} n={n} k={k}, "
                                f"divisor {cert.failure_divisor}")
    fig = enumerate_X_blocked(4, 2, 2)
    if len(fig) != 6:
        failures.append(f"|X(4,2,2)| = {len(fig)}, expected 6")
    sizes = orbits(fig, 2)
    if sum(sizes) != 6 or any(4 % s for s in sizes):
        failures.append(f"X(4,2,2) orbit sizes {sizes} malformed")
    finish(tag="7 CSP for blocked sets (kr<=10)", failures=failures)


# Tabulated power-sum expansions for k = 2, r = 6.
TABULATED_INVARIANT_62 = SymFuncP({
    (1, 1, 1, 1, 1, 1): F(13, 72), (2, 1, 1, 1, 1): F(12, 72),
    (2, 2, 1, 1): F(63, 72), (2, 2, 2): F(54, 72), (3, 1, 1, 1): F(4, 72),
    (3, 2, 1): F(-12, 72), (3, 3): F(28, 72), (4, 1, 1): F(18, 72),
    (4, 2): F(36, 72), (6,): F(36, 72)})
TABULATED_REGULAR_62 = SymFuncP({
    (1, 1, 1, 1, 1, 1): F(13, 72), (2, 1, 1, 1, 1): F(24, 72),
    (2, 2, 1, 1): F(63, 72), (2, 2, 2): F(54, 72), (3, 1, 1, 1): F(4, 72),
    (3, 2, 1): F(12, 72), (3, 3): F(28, 72), (4, 1, 1): F(18, 72),
    (4, 2): F(36, 72), (6,): F(36, 72)})


def test_criterion_8a_tabulated_expansions_bit_exact():
    """Expected RED: the tabulated invariant-tensor expansion is bad at p[4,2].

    The computed expansion differs from the tabulated one in exactly that
    entry (0 instead of 36/72).  The tabulated version cannot be right: its
    Schur expansion is neither integral nor nonnegative, so it is not the
    character of any representation, and an independent trace computation in
    the diagram algebra at delta = -12 gives 0 on the (4,2) class.
    """
    failures = []
    reg = regular_graph_character(6, 2)
    if reg != TABULATED_REGULAR_62:
        failures.append("regular-graph expansion differs from the tabulated one")
    inv = invariant_character_sym_power(6, 2)
    diff = TABULATED_INVARIANT_62 - inv
    if not diff.is_zero():
        failures.append(
            f"invariant-tensor expansion differs from the tabulated one at "
            f"{sorted(diff.coeffs)}: the tabulated 1/2 on p[4,2] is not "
            f"Schur-integral, the computed 0 is confirmed by a trace oracle")
    finish(tag="8a tabulated power-sum expansions (k=2, r=6)", failures=failures)


def test_criterion_8b_fundamental_counterexample():
    failures = []
    f = invariant_character_fundamental(2, 3, 1)
    if schur_expand(f) != {(1, 1): 1}:
        failures.append(f"character is {schur_expand(f)}, expected s[1,1]")
    fd = fake_degree(f)
    if fd != QPolynomial((0, 1)):
        failures.append(f"fake degree is {fd}, expected q")
    if is_cyclic_sieving_polynomial(fd, 2):
        failures.append("q wrongly accepted as a sieving polynomial for N=2")
    xs = tuple(enumerate_X_blocked(2, 1, 3))
    cert = verify_csp(CspInstance(xs, 3, 2, fd))
    if cert.passed or cert.failure_divisor != 1:
        failures.append("expected a FAIL certificate at divisor 1")
    finish(tag="8b fundamental representation FAIL certificate", failures=failures)


def test_criterion_9_symmetric_function_identities():
    failures = []
    for r in range(1, 6):
        if not littlewood_check(r):
            failures.append(f"plethysm identity fails at r={r}")
    for r in range(1, 7):
        if adjoint_character_full(r) != adjoint_invariant_character(r, r):
            failures.append(f"power-sum/Kronecker identity fails at r={r}")
    for m in range(1, 13):
        for mu in partitions(m):
            if fake_degree_schur(mu) != fake_degree_schur_hook(mu):
                failures.append(f"fake degree routes disagree at {mu}")
                break
    for r in range(1, 6):
        for n in range(1, r + 1):
            p1 = evaluate(fake_degree(invariant_character_matchings(r, n)), 1)
            if p1 != len(enumerate_X(r, n)):
                failures.append(f"P(1) != |X({r},{n})|")
    finish(tag="9 symmetric function identities", failures=failures)


def test_criterion_10_partition_category_counts():
    failures = []
    for r in range(1, 7):
        for n in range(1, 5):
            f = partition_category_character(r, n)
            dim = dimension(f) if not f.is_zero() else 0
            want = set_partition_count(r, n)
            if dim != want or len(list(iter_set_partitions(r, n))) != want:
                failures.append(f"dimension at r={r} n={n} is {dim}, expected {want}")
    for r in range(1, 6):
        for n in range(1, 5):
            if partition_category_character(r, n) \
                    != partition_category_character_multiset(r, n, 1):
                failures.append(f"k=1 formulas disagree at r={r} n={n}")
    finish(tag="10 partition-category dimensions and k=1 agreement",
           failures=failures)

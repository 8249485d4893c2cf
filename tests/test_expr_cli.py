import random
import re
from fractions import Fraction

import pytest

from brauercat import category, cli, expr, tensors
from brauercat.category import Morphism, e_sum, generator_s, generator_u
from brauercat.cli import main
from brauercat.expr import (ExprError, evaluate, parse_expr, parse_morphism,
                            shape_of)
from brauercat.matchings import Diagram, PerfectMatching, enumerate_matchings
from brauercat.pfaffian import normal_form
from brauercat.tensors import ev_gram_rank


def run(expr, **kwargs):
    return evaluate(parse_expr(expr), **kwargs)


def test_idempotent_expression():
    got = run("E(2) * E(2)", delta=Fraction(-2))
    assert got == e_sum(1)


def test_diagram_literal():
    got = run("(1,3)(2,4)")
    assert got == Morphism.from_diagram(
        Diagram(0, 4, PerfectMatching(((1, 3), (2, 4)))))


def test_generator_relation():
    assert run("u_1 o s_1") == Morphism.from_diagram(generator_u(1, 2))
    assert run("s_1 o s_1") == Morphism.identity(2)
    assert run("u_1 o u_1", delta=Fraction(-2)) \
        == Morphism.from_diagram(generator_u(1, 2), Fraction(-2)).scaled(-2)


def test_precedence():
    # composition binds tighter than tensor: (u o u) x id, never u o (u x id)
    got = run("u_1 o u_1 x id_1", delta=Fraction(-2))
    want = (Morphism.from_diagram(generator_u(1, 2), Fraction(-2)).scaled(-2)
            @ Morphism.identity(1, Fraction(-2)))
    assert got == want
    assert run("1/2*(1,2)(3,4) + 1/2*(1,4)(2,3)").terms \
        == {Diagram(0, 4, PerfectMatching(((1, 2), (3, 4)))): Fraction(1, 2),
            Diagram(0, 4, PerfectMatching(((1, 4), (2, 3)))): Fraction(1, 2)}


def test_unicode_aliases():
    assert run("u_1 ∘ s_1") == run("u_1 o s_1")
    assert run("id_1 ⊗ id_1") == run("id_1 x id_1")


def test_scalars_and_negation():
    assert run("3/4 * 2") == Fraction(3, 2)
    got = run("-(1,2)(3,4) - (1,4)(2,3)")
    assert all(c == -1 for c in got.terms.values())


def test_shaped_literal_and_names():
    assert run("2|2:(1,2)(3,4)") == Morphism.from_diagram(generator_u(1, 2))
    assert run("R_1(0)", delta=Fraction(-2)) == Morphism.identity(2, Fraction(-2))
    pf = run("Pf()", n=1)
    assert len(pf.terms) == 3
    pf2 = run("Pf((5,6))", n=1)
    assert (pf2.r, pf2.s) == (0, 6) and len(pf2.terms) == 3


def test_pf_has_a_static_shape():
    node = parse_expr("Pf((5,6)) x (1,2)")
    assert shape_of(node, None, 1) == (0, 8)
    got = run("Pf((5,6)) x (1,2)", n=1)
    assert (got.r, got.s) == (0, 8) and len(got.terms) == 3
    with pytest.raises(ExprError, match=r"cannot add shapes \(0,6\) and \(0,2\)"):
        run("Pf((5,6)) + (1,2)", n=1)
    with pytest.raises(ExprError, match="rank flag"):
        shape_of(parse_expr("Pf()"), None)
    with pytest.raises(ExprError, match="free points"):
        shape_of(parse_expr("Pf((5,5))"), None, 1)


def test_syntax_errors_have_positions():
    with pytest.raises(ExprError, match="column"):
        parse_expr("(1,")
    with pytest.raises(ExprError, match="column 5"):
        parse_expr("u_1 %")
    with pytest.raises(ExprError, match="unknown name"):
        parse_expr("frob_1")
    with pytest.raises(ExprError, match=r"zero denominator in '3/0' \(at column 7\)"):
        parse_expr("u_1 * 3/0")
    with pytest.raises(ExprError, match=r"E\(1\) \(at column 7\)"):
        parse_expr("u_1 o E(1)")
    with pytest.raises(ExprError, match=r"E\(0\) \(at column 1\)"):
        parse_expr("E(0)")


@pytest.mark.parametrize("text, n, message", [
    ("(1,2)(3", None, "expected ',', found '' (at column 8)"),
    ("(1,2) (3", None, "expected ',', found '' (at column 9)"),
    ("(1,2)(3,4", None, "expected ')', found '' (at column 10)"),
    ("(1,2,3)", None, "expected ')', found ',' (at column 5)"),
    ("((1,2)", None, "expected ')', found '' (at column 7)"),
    ("2|2:(1,2)(3", None, "expected ',', found '' (at column 12)"),
    ("2|3:(1,2)(3,4)", None, "matching covers 4 points, shape needs 5 (at column 5)"),
    ("Pf((5,6)", 1, "expected ')', found '' (at column 9)"),
    ("(1,2)(3,4/3)", None, "diagram point must be an integer, found '4/3' (at column 9)"),
    ("u_1 (1,2)(3,4)", None, "trailing input '(' (at column 5)"),
    ("E((1,2))", None, "expected 'num', found '(' (at column 3)"),
])
def test_truncated_diagram_literals_keep_their_messages(text, n, message):
    with pytest.raises(ExprError) as err:
        run(text, n=n)
    assert str(err.value) == message


def test_long_truncated_run_is_read_once():
    # 5000 whole pairs, then a truncated one: read in linear time, the error at the end
    text = "".join(f"({2 * i + 1},{2 * i + 2})" for i in range(5000)) + " (1"
    with pytest.raises(ExprError, match=rf"^expected ',', found '' \(at column {len(text) + 1}\)$"):
        parse_expr(text)


def test_diagram_literals_allow_whitespace():
    want = run("(1,3)(2,4)")
    assert run("( 1 , 3 )( 2 , 4 )") == run(" (1,3) (2,4) ") == want
    assert run("2|2: (1,2) (3,4)") == Morphism.from_diagram(generator_u(1, 2))
    assert run("((1,3)(2,4)) - (1,3)(2,4)").is_zero()


def test_shape_errors_report_both_shapes():
    with pytest.raises(ExprError, match=r"\(2,2\) and \(0,4\)"):
        run("u_1 o (1,2)(3,4)")
    with pytest.raises(ExprError, match="add"):
        run("id_1 + id_2")
    with pytest.raises(ExprError, match="composition needs"):
        run("u_1 o 2")
    # an ambient strand count can also be forced explicitly
    assert run("u_1 o id_3").r == 3


def test_round_trip_is_idempotent():
    texts = [
        "1*(1,2)(3,4)",
        "1/2*2|2:(1,2)(3,4) + 1/2*2|2:(1,3)(2,4) + 1/2*2|2:(1,4)(2,3)",
        "-1*(1,2)(3,4) - 1*(1,4)(2,3)",
    ]
    for text in texts:
        m = parse_morphism(text)
        canonical = str(m)
        assert str(parse_morphism(canonical)) == canonical


def test_printed_morphism_parses_back():
    delta = Fraction(-3, 2)
    for points in range(0, 9, 2):
        for pm in enumerate_matchings(points):
            for r in range(points + 1):
                m = Morphism.from_diagram(Diagram(r, points - r, pm), delta, Fraction(-5, 7))
                assert parse_morphism(str(m), delta) == m, str(m)


@pytest.mark.parametrize("seed", range(12))
def test_random_morphisms_print_and_parse_back(seed):
    # negative and non-integer rational coefficients, flat and r|s literals,
    # 1 to 600 terms; the terms print in the order of their diagram text
    rng = random.Random(f"round trip {seed}")
    delta = rng.choice((Fraction(-4), Fraction(-3, 2), Fraction(5, 7)))
    points = rng.choice((2, 4, 6, 8, 10))
    r = rng.choice((0, 0, rng.randint(1, points)))
    pool = list(enumerate_matchings(points))
    size = rng.randint(1, min(600, len(pool))) if seed else min(600, len(pool))
    m = Morphism(r, points - r, {Diagram(r, points - r, pm): Fraction(
        rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9))
        for pm in rng.sample(pool, size)}, delta)
    text = str(m)
    back = parse_morphism(text, delta)
    assert back == m
    assert str(back) == text
    printed = re.findall(r"\*(\S+)", text)
    assert printed == sorted(printed) == sorted(str(d) for d in m.terms)


def test_literal_that_is_not_a_matching_is_an_expression_error(capsys):
    for text, message in (
            ("(1,2)(1,2)", "(1,2)(1,2) is not a perfect matching of 1..4 (at column 1)"),
            ("(1,1)", "(1,1) is not a perfect matching of 1..2 (at column 1)"),
            ("u_1 + 2|2:(3,1)(1,4)", "(3,1)(1,4) is not a perfect matching of 1..4 (at column 11)"),
            ("(1,2) + (2 , 3)(3,4)", "(2,3)(3,4) is not a perfect matching of 1..4 (at column 9)")):
        assert main(["compose", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_expressions_are_priced_before_they_are_built(monkeypatch, capsys):
    # E(m) and Pf stubs record what would be built; a refusal builds nothing
    built = []
    monkeypatch.setattr(expr, "e_sum", lambda n, delta: built.append(n + 1)
                        or Morphism.identity(n + 1, delta))
    monkeypatch.setattr(expr, "pfaffian", lambda g, delta: built.append("Pf")
                        or Morphism.zero(0, g.points, delta))
    for argv, terms in ((["E(9)"], 34459425), (["E(8)"], 2027025), (["E(6) o E(6)"], 10395 ** 2),
                        (["E(5) * E(5) + E(5) * E(5)"], 2 * 945 ** 2),
                        (["Pf()", "--n", "7"], 2027025)):
        assert main(["compose", *argv]) == 2
        assert capsys.readouterr().err == (f"error: the expression builds up to {terms} terms, "
                                           f"over the budget of 1000000\n")
    assert built == []
    for argv in (["E(7)"], ["E(5) * E(5)"], ["Pf() x Pf()", "--n", "4"], ["Pf()", "--n", "6"]):
        assert main(["compose", *argv]) == 0
    assert built == [7, 5, 5, "Pf", "Pf", "Pf"]
    assert expr._terms(parse_expr("R_1(1) * R_1(2) + -id_2 + 3"), None) == 9 + 1 + 1
    assert expr._terms(parse_expr("(1,2)(3,4) x E(3) o E(3)"), None) == 225


def test_parse_morphism_rejects_scalar():
    with pytest.raises(ExprError, match="scalar"):
        parse_morphism("3/4")


def test_long_operator_chains_evaluate():
    # a chain is one flat node, so its length does not nest the evaluation
    s1 = Morphism.from_diagram(generator_s(1, 2))
    assert run(" + ".join(["s_1"] * 5000)) == s1.scaled(5000)
    assert run(" - ".join(["s_1"] * 5000)) == s1.scaled(-4998)
    assert run(" * ".join(["s_1"] * 5000)) == Morphism.identity(2)
    assert run(" x ".join(["id_0"] * 2000)) == Morphism.identity(0)


def test_printed_normal_form_parses_back():
    delta = Fraction(-4)
    crossing = Diagram(0, 12, PerfectMatching(tuple((i, i + 6) for i in range(1, 7))))
    nf = normal_form(Morphism.from_diagram(crossing, delta), 2)
    assert len(nf.terms) == 3565
    assert parse_morphism(str(nf), delta) == nf


def test_minus_is_left_associative_and_unary_minus_scales():
    assert str(run("id_1 - id_1 - id_1")) == "-1*1|1:(1,2)"
    assert run("1 - 2 - 3") == -4
    s1 = Morphism.from_diagram(generator_s(1, 2))
    assert run("- - s_1") == s1
    assert run("2*-s_1") == s1.scaled(-2)
    assert run("-2 * s_1 - -s_1") == s1.scaled(-1)


def test_sum_shape_error_points_at_the_operator_before_the_bad_operand():
    with pytest.raises(ExprError, match=r"cannot add shapes \(1,1\) and \(2,2\) \(at column 13\)"):
        run("id_1 + id_1 + id_2")
    with pytest.raises(ExprError, match=r"composition needs two morphisms \(at column 11\)"):
        run("u_1 o s_1 o 2 o u_1")


# --- command line ---

def test_cli_csp_verify(capsys):
    assert main(["csp-verify", "--r", "2", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "P: q^2 + q^4" in out


def test_cli_csp_tsv_deterministic(capsys):
    assert main(["csp-verify", "--grid", "r<=3,n<=2", "--format", "tsv"]) == 0
    first = capsys.readouterr().out
    assert main(["csp-verify", "--grid", "r<=3,n<=2", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 6


def test_cli_csp_prints_orbit_counts_by_size(capsys):
    assert main(["csp-verify", "--r", "4", "--n", "2"]) == 0
    assert "  orbits: {8: 8, 4: 4, 2: 2}\n" in capsys.readouterr().out
    assert main(["csp-verify", "--r", "4", "--n", "2", "--format", "tsv"]) == 0
    assert capsys.readouterr().out.split("\t")[4] == "8:8,4:4,2:2"


def test_cli_enumerate_count_matches_listing(capsys):
    def enumerate_(*argv):
        assert main(["enumerate", *argv]) == 0
        return capsys.readouterr().out

    for r in range(1, 6):
        for n in range(1, 4):
            size = ("--r", str(r), "--n", str(n))
            for args in (("oscillating",), ("X",), ("X", "--k", "1"), ("X", "--k", "2"),
                         ("X", "--k", "3")):
                listed = len(enumerate_("--what", *args, *size).splitlines())
                assert enumerate_("--what", *args, *size, "--count") == f"{listed}\n", (args, r, n)
            # --k 1 names X(r, n) on 2r points, as in csp-verify
            for count in ((), ("--count",)):
                assert (enumerate_("--what", "X", "--k", "1", *size, *count)
                        == enumerate_("--what", "X", *size, *count)), (r, n, count)


def test_cli_ev_rank(capsys):
    assert main(["ev-rank", "--r", "3", "--n", "1"]) == 0
    assert capsys.readouterr().out == "rank=5 noncrossing=5 MATCH\n"


def test_cli_ev_rank_ten_points(capsys):
    # 945 matchings of rank 42, certified on the 42 noncrossing ones
    assert main(["ev-rank", "--r", "5", "--n", "1"]) == 0
    assert capsys.readouterr().out == "rank=42 noncrossing=42 MATCH\n"


@pytest.mark.parametrize("broken", ["short block rank", "nonzero Pfaffian"])
def test_cli_ev_rank_falls_back_on_the_exact_rank(monkeypatch, capsys, broken):
    # a failed half of the block certificate sends ev-rank to the exact Gram
    # rank; at r = 3 as at r = 4 that is the only way to reach it
    sizes = [(3, 14, 15), (4, 84, 105)]  # r, |X(r, 2)|, (2r - 1)!!
    exact = []
    monkeypatch.setattr(tensors, "ev_gram_rank",
                        lambda pool, n: exact.append(len(pool)) or ev_gram_rank(pool, n))

    def same_line_at_every_size():
        for r, k, _ in sizes:
            assert main(["ev-rank", "--r", str(r), "--n", "2"]) == 0
            assert capsys.readouterr().out == f"rank={k} noncrossing={k} MATCH\n"
    same_line_at_every_size()
    assert exact == []  # the certificate holds: no exact rank
    if broken == "short block rank":
        monkeypatch.setattr(tensors, "_block_rank", lambda xs, n: len(xs) - 1)
    else:
        nonzero = Morphism.from_diagram(Diagram(0, 6, PerfectMatching(((1, 2), (3, 4), (5, 6)))),
                                        Fraction(-4))
        monkeypatch.setattr(tensors, "pfaffian", lambda g, delta: nonzero)
    same_line_at_every_size()
    assert exact == [pool for _, _, pool in sizes]


def test_cli_enumerate_blocked_count(capsys):
    assert main(["enumerate", "--what", "X", "--r", "4", "--n", "2",
                 "--k", "2", "--count"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_cli_enumerate_lines(capsys):
    assert main(["enumerate", "--what", "matchings", "--r", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]


@pytest.mark.parametrize("text, message", [
    ("(1/2,3)(2,4)", "diagram point must be an integer, found '1/2' (at column 2)"),
    ("(1,2)(3,4/3)", "diagram point must be an integer, found '4/3' (at column 9)"),
    ("1/2|2:(1,2)(3,4)", "r in r|s must be an integer, found '1/2' (at column 1)"),
    ("2|3/2:(1,2)", "s in r|s must be an integer, found '3/2' (at column 3)"),
    ("id(1/2)", "k in id(k) must be an integer, found '1/2' (at column 4)"),
    ("E(3/2)", "m in E(m) must be an integer, found '3/2' (at column 3)"),
    ("R_1(1/2)", "k in R_i(k) must be an integer, found '1/2' (at column 5)"),
])
def test_cli_rational_in_integer_slot_is_a_usage_error(capsys, text, message):
    assert main(["compose", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_compose_and_errors(capsys):
    assert main(["compose", "E(2) * E(2)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1/2*")
    assert main(["compose", "u_1 o (1,2)(3,4)"]) == 2
    assert "(2,2) and (0,4)" in capsys.readouterr().err
    assert main(["compose", "u_1 - u_1 o u_1"]) == 0
    assert capsys.readouterr().out == "(1 - d)*2|2:(1,2)(3,4)\n"
    assert main(["compose", "u_1 o u_1 o u_1"]) == 0
    assert capsys.readouterr().out == "d^2*2|2:(1,2)(3,4)\n"


def test_e_atoms_specialize_the_whole_expression(capsys):
    assert main(["compose", "E(2) + id_2"]) == 0
    want = e_sum(1) + Morphism.identity(2, Fraction(-2))
    assert capsys.readouterr().out == f"{want}\n"
    assert main(["compose", "E(2) o u_1"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["compose", "E(3)*E(3) - E(3)"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["compose", "E(2) x E(3)"]) == 2
    assert capsys.readouterr().err == ("error: E(3) implies delta=-4, but E(2) implies "
                                       "delta=-2; pass --n or --delta (at column 8)\n")
    d = Fraction(7, 3)
    assert run("E(2) x E(3)", delta=d) == e_sum(1, d) @ e_sum(2, d)


def test_bare_id_takes_the_expression_strand_count(tmp_path, capsys):
    assert main(["compose", "u_1 + id"]) == 0
    assert main(["compose", "u_1 + id_2"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second == "1*2|2:(1,2)(3,4) + 1*2|2:(1,4)(2,3)"
    assert main(["compose", "id_0"]) == 0
    assert capsys.readouterr().out == "1*id_0\n"
    assert main(["compose", "id", "--strands", "2"]) == 0
    assert capsys.readouterr().out == "1*2|2:(1,4)(2,3)\n"
    f = tmp_path / "id.txt"
    f.write_text("id\n")
    assert main(["normal-form", str(f), "--n", "1"]) == 2
    assert capsys.readouterr().err \
        == "error: id needs a strand count (pass --strands, or write id_m) (at column 1)\n"


def test_generator_subscripts_are_checked_with_a_column(capsys):
    assert main(["compose", "u_0 + id", "--strands", "3"]) == 2
    assert capsys.readouterr().err \
        == "error: subscript of u_0 out of range for 3 strands (at column 1)\n"
    for text, strands in (("id_3 + s_3", 3), ("id_2 - R_2(1)", 2), ("id_1 + u_1", 1)):
        with pytest.raises(ExprError, match=r"out of range .* \(at column 8\)"):
            shape_of(parse_expr(text), strands)
    assert shape_of(parse_expr("u_2 + s_1"), 3) == (3, 3)
    with pytest.raises(ValueError, match="out of range"):  # the library check stays
        generator_u(0, 3)


def test_shapes_print_as_pairs_or_a_scalar(capsys):
    assert main(["compose", "id_1 + 2"]) == 2
    assert capsys.readouterr().err == "error: cannot add shapes (1,1) and a scalar (at column 6)\n"
    with pytest.raises(ExprError, match=r"cannot add shapes a scalar and \(2,2\)"):
        run("2 - u_1")
    assert run("2 * u_1") == run("u_1 * 2") == Morphism.from_diagram(generator_u(1, 2)).scaled(2)


def test_cli_normal_form(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("(1,3)(2,4)\n")
    assert main(["normal-form", str(f), "--n", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "-1*(1,2)(3,4) - 1*(1,4)(2,3)" in out
    assert "steps: 1" in out


def test_cli_idempotent_check(capsys):
    assert main(["idempotent-check", "--n", "1"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["idempotent-check", "--n", "1", "--delta", "-4"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_fake_degree(capsys):
    assert main(["fake-degree", "--shape", "2,2"]) == 0
    assert capsys.readouterr().out == "q^2 + q^4\n"
    assert main(["fake-degree", "--kind", "matchings", "--r", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "1 + q^2 + q^4\n"


def test_empty_shape_is_the_empty_partition(capsys):
    # --shape "" is the empty partition, as --shape "[]" is; it is not a missing flag
    for shape in ("", "[]"):
        assert main(["fake-degree", "--shape", shape, "--r", "3"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert main(["enumerate", "--what", "syt", "--shape", shape, "--count"]) == 0
        assert capsys.readouterr().out == "1\n"


def test_cli_frobenius(capsys):
    assert main(["frobenius", "--kind", "fundamental", "--r", "2", "--n", "1",
                 "--k", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1/2*p[1,1] - 1/2*p[2]"


def test_cli_checks(capsys):
    assert main(["littlewood-check", "--r", "3"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["kronecker-check", "--r", "4"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4


def test_idempotent_check_rejects_a_pole_before_any_product(monkeypatch, capsys):
    def no_product(*args):
        raise AssertionError("a product was taken before the pole was rejected")

    # _glue is the kernel that compose_diagrams and Morphism.__mul__ both run through.
    monkeypatch.setattr(category, "_glue", no_product)
    assert main(["idempotent-check", "--n", "3", "--delta", "-4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pole: delta = -4 equals 2 - 2k for k = 3\n"


def test_idempotent_check_size_preflight(monkeypatch, capsys):
    class Admitted(Exception):
        pass

    def admitted(n, delta):
        raise Admitted

    monkeypatch.setattr(cli, "e_rec", admitted)
    # orbit products: n = 5 prices 2620632 pairs, under the budget, 2370060 = 3 * 76 * 10395
    # of them the FAIL path's; n = 6 prices 102516582, 94053960 = 3 * 232 * 135135 of them
    for n in ("4", "5"):
        with pytest.raises(Admitted):
            main(["idempotent-check", "--n", n])
    assert main(["idempotent-check", "--n", "6"]) == 2
    assert "102516582 diagram pairs" in capsys.readouterr().err


def test_ev_rank_size_preflight(monkeypatch, capsys):
    admitted = []
    monkeypatch.setattr(cli, "ev_rank", lambda r, n: admitted.append(n))
    # every r <= 5 runs, n >= 5 the largest (945 * 945^2 / 2 steps), and so does (6, 1)
    for r, n in [(5, 1), (5, 2), (5, 5), (5, 9), (6, 1)]:
        assert main(["ev-rank", "--r", str(r), "--n", str(n)]) == 1  # the stub has no rank
    assert admitted == [1, 2, 5, 9, 1]
    capsys.readouterr()
    assert main(["ev-rank", "--r", "6", "--n", "2"]) == 2
    assert "115742924797 elimination steps" in capsys.readouterr().err
    assert admitted == [1, 2, 5, 9, 1]


def test_cli_runs_a_command_wrapper_set_after_the_parser_is_built(monkeypatch, capsys):
    args = ["frobenius", "--kind", "matchings", "--r", "2", "--n", "1"]
    assert main(args) == 0
    assert capsys.readouterr().out == str(cli.sf.invariant_character_matchings(2, 1)) + "\n"
    assert cli._parser("frobenius") is cli._parser("frobenius")  # built once per command
    seen = []

    def stub(parsed):
        seen.append((parsed.command, parsed.r, parsed.n))
        return 0

    monkeypatch.setattr(cli, "cmd_frobenius", stub)
    assert main(args) == 0
    assert seen == [("frobenius", 2, 1)]
    assert capsys.readouterr().out == ""


def test_one_command_parser_matches_the_full_parser(capsys):
    # main parses with a parser holding only the named command's subparser
    for name in cli._COMMANDS:
        assert cli._parser(name).format_usage() == f"usage: brauercat [-h] {{{name}}} ...\n"
        seen = []
        for parser in (cli._parser(name), cli._parser()):
            for argv in ([name, "-h"], [name, "--no-such-option"]):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                seen.append((exc.value.code, capsys.readouterr()))
        assert seen[:2] == seen[2:], name
        assert seen[0][0] == 0 and seen[0][1].out.startswith(f"usage: brauercat {name} [-h]")
        error = seen[1][1].err
        assert seen[1][0] == 2 and error.startswith("brauercat") and error.count("\n") == 1
        assert ": error: " in error, error


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compose", "u_0"],
    ["compose", "--delta", "1/0", "id_2"],
    ["csp-verify", "--r", "0", "--n", "1"],
    ["fake-degree", "--shape", "2,3"],
    ["ev-rank", "--r", "2", "--n", "0"],
    ["normal-form", "/nonexistent", "--n", "1"],
    ["idempotent-check", "--n", "0"],
    ["compose", "--delta", "abc", "id_2"],
    ["compose", "(" * 3000 + "id_1" + ")" * 3000],
    ["compose", "--", "-" * 3000 + "id_1"],
    ["frobenius", "--kind", "sym-power", "--r", "2"],
    ["fake-degree", "--kind", "fundamental", "--r", "2"],
    ["frobenius", "--kind", "regular-graph", "--r", "2"],
    ["frobenius", "--kind", "partition-multiset", "--r", "2", "--k", "-1"],
    ["fake-degree", "--kind", "sym-power", "--r", "2", "--k", "-2"],
    ["enumerate", "--what", "X", "--r", "2", "--k", "0"],
    ["csp-verify", "--r", "2", "--n", "1", "--k", "0"],
    ["littlewood-check", "--r", "-2"],
    ["kronecker-check", "--r", "0"],
    ["enumerate", "--what", "oscillating", "--r", "-1"],
    ["enumerate", "--what", "X", "--r", "0"],
    ["ev-rank", "--r", "0", "--n", "1"],
    ["ev-rank", "--r", "6", "--n", "2"],
    ["frobenius", "--kind", "adjoint", "--r", "-1"],
    ["fake-degree", "--r", "0"],
    ["csp-verify", "--r", "-2", "--n", "1"],
    ["csp-verify", "--grid", "r<=0,n<=1"],
    ["csp-verify", "--grid", "r<=2,n<=0"],
    ["csp-verify", "--grid", "r<=2,n<=1,k<=0"],
    ["csp-verify", "--grid", "r<=2,r<=3"],
    ["compose", "E(0)"],
    ["compose", "E(1)"],
    ["compose", "1/0"],
    ["compose", "u_1 - 2/0 * u_1"],
    ["enumerate", "--what", "syt"],
    ["csp-verify", "--n", "1"],
    ["csp-verify"],
    ["idempotent-check", "--n", "6"],
    ["compose", "id_2", "--strands", "-1"],
    ["compose", "u_1", "--strands", "-3"],
    ["fake-degree", "--shape", ","],
    ["enumerate", "--what", "syt", "--shape", "2,,1"],
    ["fake-degree", "--shape", "1,3"],
    ["compose", "Pf((5,6)) + 1", "--n", "1"],
    ["compose", "Pf((5,6)) o 2", "--n", "1"],
    ["compose", "id"],
    ["compose", "id x id"],
    ["compose", "2 o u_1"],
    ["compose", "2 o 3"],
])
def test_cli_bad_input_is_a_one_line_usage_error(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error: " in lines[0], captured.err
    assert "Traceback" not in captured.err
    r_value = argv[argv.index("--r") + 1] if "--r" in argv else "1"
    bad_r = not r_value.isdecimal() or int(r_value) < 1
    for flag in ("--delta", "--strands", "--shape"):
        if flag in argv:
            assert flag in lines[0]
    if argv[0] in ("frobenius", "fake-degree") and "--kind" in argv and not bad_r:
        assert "--k" in lines[0]
    if argv[0] in ("littlewood-check", "kronecker-check") or bad_r:
        assert "--r" in lines[0]
    if "--grid" in argv:  # the message names the offending clause
        assert any(repr(part) in lines[0] for part in argv[argv.index("--grid") + 1].split(","))

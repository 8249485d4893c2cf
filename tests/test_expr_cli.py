from fractions import Fraction

import pytest

from brauercat import category, cli
from brauercat.category import Morphism, e_sum, generator_s, generator_u
from brauercat.cli import main
from brauercat.expr import (ExprError, evaluate, parse_expr, parse_morphism,
                            shape_of)
from brauercat.matchings import Diagram, PerfectMatching, enumerate_matchings


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


def test_parse_morphism_rejects_scalar():
    with pytest.raises(ExprError, match="scalar"):
        parse_morphism("3/4")


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


def test_cli_ev_rank(capsys):
    assert main(["ev-rank", "--r", "3", "--n", "1"]) == 0
    assert capsys.readouterr().out == "rank=5 noncrossing=5 MATCH\n"


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
    with pytest.raises(Admitted):  # n = 4: 3 * 945^2 = 2679075 pairs, under the budget
        main(["idempotent-check", "--n", "4"])
    assert main(["idempotent-check", "--n", "5"]) == 2
    assert "324168075 diagram pairs" in capsys.readouterr().err


def test_cli_runs_a_command_wrapper_set_after_the_parser_is_built(monkeypatch, capsys):
    args = ["frobenius", "--kind", "matchings", "--r", "2", "--n", "1"]
    assert main(args) == 0
    assert capsys.readouterr().out == str(cli.sf.invariant_character_matchings(2, 1)) + "\n"
    assert cli._parser() is cli._parser()  # built once per process
    seen = []

    def stub(parsed):
        seen.append((parsed.command, parsed.r, parsed.n))
        return 0

    monkeypatch.setattr(cli, "cmd_frobenius", stub)
    assert main(args) == 0
    assert seen == [("frobenius", 2, 1)]
    assert capsys.readouterr().out == ""


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
    ["idempotent-check", "--n", "5"],
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

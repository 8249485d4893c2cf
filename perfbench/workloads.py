"""The benchmark workloads: seeded inputs, their operations and output checks.

An operation is either one ``brauercat.cli.main(argv)`` call or, where the
CLI cannot express it, a library call through the public API that prints
its result.  Every operation carries a check that runs after the timed
region and decides, by a route independent of the operation, whether its
captured output is right.  Inputs are built by the benchmark's own code
(matching enumeration and crossing counts included), so set-up time does
not move when the library's enumerators get faster.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

import brauercat as bc


@dataclass
class Op:
    label: str
    run: list[str] | Callable[[], None]   # CLI argv, or a library call printing its result
    check: Callable[[str, dict[str, str]], str | None]  # (stdout, all stdouts) -> failure or None


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _BUILDERS[workload](rng, size == "tiny", workdir)


# -- input helpers (independent of the library) --------------------------------

def _matchings_of(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for tail in _matchings_of(rest):
            yield ((a, points[i]),) + tail


def _crossings(pairs) -> int:
    return sum(1 for a1, b1 in pairs for a2, b2 in pairs if a1 < a2 < b1 < b2)


def _flat(pairs) -> str:
    return "".join(f"({a},{b})" for a, b in sorted(pairs))


def _morphism_text(terms: list[tuple[int, tuple]]) -> str:
    return " + ".join(f"{c}*{_flat(p)}" for c, p in terms).replace("+ -", "- ")


def _diagram(pairs):
    return bc.Diagram(0, 2 * len(pairs), bc.PerfectMatching(tuple(pairs)))


# -- output parsers used by the checks -----------------------------------------

def _field(text: str, name: str) -> str | None:
    m = re.search(rf"^\s*{name}: (.*)$", text, re.MULTILINE)
    return m.group(1) if m else None


def _p_terms(text: str) -> dict[tuple[int, ...], Fraction]:
    """Parse a printed power-sum expansion like ``1/2*p[2] - 1/2*p[1,1]``."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.strip().replace(" - ", " + -").split(" + "):
        coeff, part = term.split("*p[")
        out[tuple(int(x) for x in part.rstrip("]").split(",") if x)] = Fraction(coeff)
    return out


def _q_at_one(text: str) -> Fraction:
    """Value at q = 1 of a printed q-polynomial like ``q^6 + 2*q^4 - 3``."""
    total = Fraction(0)
    if text.strip() == "0":
        return total
    for term in text.strip().replace(" - ", " + -").split(" + "):
        coeff = term.split("q")[0].rstrip("*") if "q" in term else term
        total += Fraction({"": "1", "-": "-1"}.get(coeff, coeff))
    return total


def _dimension_from_frobenius(text: str) -> Fraction:
    """Coefficient of p[1^d] times d!: the dimension, read off the p-expansion."""
    terms = _p_terms(text)
    ones = [lam for lam in terms if lam and set(lam) == {1}]
    if not ones:
        return Fraction(0)
    lam = max(ones)
    return terms[lam] * factorial(len(lam))


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# -- sieve ------------------------------------------------------------------------

def _check_plain(r: int, n: int):
    def check(out, _):
        size = _field(out, "size")
        want = bc.count_oscillating(2 * r, n)
        return (_expect(_field(out, "result") == "PASS", "certificate is not PASS")
                or _expect(size == str(want), f"|X|={size}, oscillating DP count {want}"))
    return check


def _check_blocked(r: int, n: int, k: int):
    def check(out, _):
        size = _field(out, "size")
        want = bc.symfunc.dimension(bc.invariant_character_sym_power(r, k, n))
        return (_expect(_field(out, "result") == "PASS", "certificate is not PASS")
                or _expect(size == str(want), f"|X|={size}, character dimension {want}"))
    return check


def _sieve(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    if tiny:
        plain = [(r, n) for r in (1, 2, 3) for n in (1, 2)]
        blocked = [(2, 1, 2), (4, 1, 2), (2, 1, 3)]
    else:
        plain = [(r, n) for r in range(1, 6) for n in (1, 2, 3)] + [(6, 1), (6, 2)]
        blocked = [(r, n, k) for k, rs in ((2, range(2, 7)), (3, (2, 4)), (4, (2, 3)))
                   for r in rs for n in (1, 2)]
    ops = [Op(f"csp-verify X({r},{n})", ["csp-verify", "--r", str(r), "--n", str(n)],
              _check_plain(r, n)) for r, n in plain]
    ops += [Op(f"csp-verify X({r},{n},{k})",
               ["csp-verify", "--r", str(r), "--n", str(n), "--k", str(k)],
               _check_blocked(r, n, k)) for r, n, k in blocked]
    rng.shuffle(ops)
    return ops


# -- evrank -----------------------------------------------------------------------

def _check_rank(r: int, n: int):
    def check(out, _):
        want = bc.count_oscillating(2 * r, n)
        return _expect(out.strip() == f"rank={want} noncrossing={want} MATCH",
                       f"expected rank {want} MATCH")
    return check


def _check_zero(out, _):
    return _expect(out.strip() == "zero", "evaluation is not the zero tensor")


def _rank_op(sample: list[tuple], n: int, r: int) -> Op:
    def run():
        diagrams = [_diagram(p) for p in sample]
        print(bc.rank_of_span([bc.ev_diagram(d, n) for d in diagrams]))

    def check(out, _):
        want = bc.count_oscillating(2 * r, n)
        return _expect(out.strip() == str(want), f"rank {out.strip()}, expected {want}")
    return Op(f"rank_of_span r={r} n={n} rows={len(sample)}", run, check)


def _zero_op(label: str, make, n: int) -> Op:
    def run():
        print("zero" if bc.ev_morphism(make(), n).is_zero() else "nonzero")
    return Op(label, run, _check_zero)


def _pf_generator(rng: random.Random, n: int, points: int):
    subset = tuple(sorted(rng.sample(range(1, points + 1), 2 * (n + 1))))
    rest = [p for p in range(1, points + 1) if p not in subset]
    rng.shuffle(rest)
    pairs = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
    return bc.PfGenerator(n, points, subset, pairs)


def _evrank(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    ranks = [(2, 1), (3, 1)] if tiny else [(3, 1), (3, 2), (4, 1), (4, 2)]
    ops = [Op(f"ev-rank r={r} n={n}", ["ev-rank", "--r", str(r), "--n", str(n)],
              _check_rank(r, n)) for r, n in ranks]
    # Many small tensors: the noncrossing basis of 10 points at n=1 plus a seeded
    # sample of crossing diagrams.  The noncrossing ones are independent and span
    # the image, so the rank is the noncrossing count whatever the sample.
    r_sample, extra = (3, 6) if tiny else (5, 100)
    every = list(_matchings_of(tuple(range(1, 2 * r_sample + 1))))
    basis = [p for p in every if _crossings(p) == 0]
    crossing = [p for p in every if _crossings(p) > 0]
    sample = basis + rng.sample(crossing, extra)
    rng.shuffle(sample)
    ops.append(_rank_op(sample, 1, r_sample))
    # Multi-term morphisms in the kernel of the evaluation at delta = -2n.
    for n in ((1,) if tiny else (1, 2, 3)):
        ops.append(_zero_op(f"ev e_sum({n})", lambda n=n: bc.e_sum(n), n))
    for n, points, count in (((1, 6, 2),) if tiny else ((1, 10, 4), (2, 8, 6))):
        for _ in range(count):
            g = _pf_generator(rng, n, points)
            ops.append(_zero_op(f"ev Pf n={n} S={g.subset}",
                                lambda g=g, n=n: bc.pfaffian(g, Fraction(-2 * n)), n))
    return ops


# -- algebra ----------------------------------------------------------------------

def _check_normal_form(source: str, n: int):
    def check(out, _):
        delta = Fraction(-2 * n)
        before = bc.expr.parse_morphism(source, delta)
        after = bc.expr.parse_morphism(out.strip(), delta) if out.strip() != "0" \
            else bc.Morphism.zero(before.r, before.s, delta)
        bad = [d for d in after.terms if bc.find_violation(d, n) is not None]
        if bad:
            return f"output diagram {bad[0]} still has {n + 1} mutually crossing strands"
        return _expect(evaluation_vanishes(before - after, n, random.Random(source)),
                       "ev(m - nf(m)) is not the zero tensor")
    return check


def strand_pairing_value(pairs, n: int, vectors) -> int:
    """ev of a flat diagram, contracted with one vector per boundary point.

    The evaluation of a flat diagram has a closed form: the sign of its
    crossing parity times one symplectic pairing per strand (the same formula
    the test suite's oracle checks ``ev_diagram`` against), so the contraction
    is (-1)^crossings * prod over strands (a, b) of omega(v_a, v_b), with
    omega(x, y) = sum over i < n of x[i+n]*y[i] - x[i]*y[i+n].
    """
    value = -1 if _crossings(pairs) % 2 else 1
    for a, b in pairs:
        x, y = vectors[a - 1], vectors[b - 1]
        value *= sum(x[i + n] * y[i] - x[i] * y[i + n] for i in range(n))
    return value


def evaluation_vanishes(m, n: int, rng: random.Random, trials: int = 3) -> bool:
    """Whether ev(m, n) is the zero tensor, for a morphism of flat diagrams.

    ev(m) is a multilinear form of degree 2r in the boundary vectors, so it is
    zero exactly when it vanishes everywhere; a nonzero one vanishes at a
    random integer point from a range of size S with probability at most 2r/S
    (Schwartz-Zippel).  Three points from a range of 2^40 leave a chance below
    10^-30 of passing a nonzero form.  ``ev_morphism`` decides the same thing
    exactly, but on the few hundred 10-point diagrams of an n=2 normal form it
    takes longer than the whole workload.
    """
    points = m.r + m.s
    for _ in range(trials):
        vectors = [[rng.randint(-2 ** 39, 2 ** 39) for _ in range(2 * n)]
                   for _ in range(points)]
        total = sum(c * strand_pairing_value(d.matching.pairs, n, vectors)
                    for d, c in m.terms.items())
        if total != 0:
            return False
    return True


def _check_pass(out, _):
    lines = out.strip().splitlines()
    return _expect(bool(lines) and all(line.endswith("PASS") for line in lines),
                   "a certificate line is not PASS")


def _check_zero_relation(out, _):
    return _expect(out.strip() == "0", f"relation evaluates to {out.strip()[:60]!r}, not 0")


def _generator_word(rng: random.Random, strands: int, terms: int) -> str:
    parts = []
    for _ in range(terms):
        coeff = rng.choice((1, 2, 3, -1, -2))
        name = f"{rng.choice('us')}_{rng.randrange(1, strands)}"
        parts.append(f"{coeff}*{name}")
    return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _algebra(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    points = 8 if tiny else 10
    every = list(_matchings_of(tuple(range(1, points + 1))))
    by_crossings: dict[int, list] = {}
    for p in every:
        by_crossings.setdefault(_crossings(p), []).append(p)
    fully = by_crossings[max(by_crossings)]

    # Narrow inputs: single diagrams, so rewrite depth sets the work.  The fully
    # crossing diagram is the deepest; the others come from stated crossing ranges.
    narrow: list[tuple[int, tuple]] = [(2, fully[0])]
    for n, lo, hi, count in (((1, 3, 5, 2),) if tiny else ((2, 5, 6, 2), (1, 7, 9, 3))):
        pool = [p for c in range(lo, hi + 1) for p in by_crossings.get(c, [])]
        narrow += [(n, p) for p in rng.sample(pool, count)]
    inputs = [(f"narrow n={n} cr={_crossings(p)}", n, _morphism_text([(1, p)]))
              for n, p in narrow]
    # Wide inputs: random-coefficient sums over a seeded subset of diagrams, the
    # same number from each crossing count in a stated range, so the seed moves
    # the support but not the amount of rewriting.
    for n, lo, hi, per_count in (((1, 1, 3, 3),) if tiny else ((1, 1, 7, 8), (2, 3, 5, 10))):
        chosen = [p for c in range(lo, hi + 1) for p in rng.sample(by_crossings[c], per_count)]
        terms = [(rng.choice((1, -1)) * rng.randint(1, 9), p) for p in chosen]
        inputs.append((f"wide n={n} cr={lo}..{hi} terms={len(terms)}", n, _morphism_text(terms)))

    ops = []
    for i, (label, n, text) in enumerate(inputs):
        path = workdir / f"morphism-{i}.txt"
        path.write_text(text + "\n")
        ops.append(Op(f"normal-form {label}", ["normal-form", str(path), "--n", str(n)],
                      _check_normal_form(text, n)))
    for n in ((1, 2) if tiny else (1, 2, 3)):
        ops.append(Op(f"idempotent-check n={n}", ["idempotent-check", "--n", str(n)],
                      _check_pass))
    # Yang-Baxter relations at seeded non-integer delta (never a pole of R_i(k)).
    for _ in range(2 if tiny else 6):
        m = rng.choice((3, 4))
        i = rng.randrange(1, m - 1)
        h, k = rng.randrange(0, 4), rng.randrange(0, 4)
        q = rng.choice((3, 5, 7))
        delta = f"-{rng.choice([p for p in range(1, 40) if p % q])}/{q}"
        lhs = f"R_{i}({h})*R_{i + 1}({h + k})*R_{i}({k})"
        rhs = f"R_{i + 1}({k})*R_{i}({h + k})*R_{i + 1}({h})"
        ops.append(Op(f"compose YB m={m} i={i} h={h} k={k} delta={delta}",
                      ["compose", f"{lhs} - {rhs}", f"--delta={delta}", "--strands", str(m)],
                      _check_zero_relation))
    # Associativity of products over the formal loop parameter (DeltaPoly scalars).
    for _ in range(1 if tiny else 4):
        w = [_generator_word(rng, 5, 3) for _ in range(4)]
        expr = f"(({w[0]}*{w[1]})*{w[2]})*{w[3]} - {w[0]}*({w[1]}*({w[2]}*{w[3]}))"
        ops.append(Op(f"compose formal {expr}", ["compose", expr, "--strands", "5"],
                      _check_zero_relation))
    ops.append(Op("compose E(3)*E(3) - E(3)", ["compose", "E(3)*E(3) - E(3)"],
                  _check_zero_relation))
    rng.shuffle(ops)
    return ops


# -- characters -------------------------------------------------------------------

def _character(kind: str, r: int, n: int):
    if kind == "matchings":
        return bc.invariant_character_matchings(r, n)
    if kind == "sym-power":
        return bc.invariant_character_sym_power(r, 2, n)
    if kind == "fundamental":
        return bc.invariant_character_fundamental(r, 2, n)
    return bc.symfunc.adjoint_invariant_character(r, n)


def _check_frobenius(kind: str, r: int, n: int):
    def check(out, _):
        if kind != "matchings":
            return _expect(bool(_p_terms(out)) or out.strip() == "0", "unreadable character")
        dim = _dimension_from_frobenius(out)
        want = bc.count_oscillating(2 * r, n)
        return _expect(dim == want, f"dimension {dim} from p[1^{2 * r}], DP count {want}")
    return check


def _check_fake_degree(kind: str, r: int, n: int, frobenius_label: str):
    def check(out, outputs):
        for lam in bc.symfunc.schur_expand(_character(kind, r, n)):
            if bc.fake_degree_schur(lam) != bc.fake_degree_schur_hook(lam):
                return f"SYT fake degree of {lam} differs from the q-hook formula"
        at_one = _q_at_one(out)
        dim = _dimension_from_frobenius(outputs[frobenius_label])
        if at_one != dim:
            return f"fake degree at q=1 is {at_one}, character dimension {dim}"
        if kind == "matchings":
            want = bc.count_oscillating(2 * r, n)
            return _expect(at_one == want, f"fake degree at q=1 is {at_one}, DP count {want}")
        return None
    return check


def _characters(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    if tiny:
        chains = [("matchings", 3, (1, 2)), ("adjoint", 3, (1, 2))]
        checks = [("littlewood-check", 3), ("kronecker-check", 3)]
    else:
        chains = [("matchings", 7, (1, 2, 3)), ("matchings", 8, (1, 2))]
        chains += [(kind, r, (1, 2, 3)) for kind in ("sym-power", "fundamental", "adjoint")
                   for r in (7, 8)]
        checks = [("littlewood-check", 8), ("kronecker-check", 8)]
    groups = []
    for kind, r, ns in chains:
        group = []
        for n in ns:
            args = ["--kind", kind, "--r", str(r), "--n", str(n), "--k", "2"]
            frob = f"frobenius {kind} r={r} n={n}"
            group.append(Op(frob, ["frobenius", *args], _check_frobenius(kind, r, n)))
            group.append(Op(f"fake-degree {kind} r={r} n={n}", ["fake-degree", *args],
                            _check_fake_degree(kind, r, n, frob)))
        groups.append(group)
    groups += [[Op(f"{name} r<={r}", [name, "--r", str(r)], _check_pass)] for name, r in checks]
    # Operations share the memo caches, so each chain keeps n ascending.  The
    # matchings chains hold the largest operations and always run first, so
    # the cache state they meet does not depend on the seed; the seed permutes
    # the other chains.
    matchings_chains = sum(kind == "matchings" for kind, _, _ in chains)
    first, rest = groups[:matchings_chains], groups[matchings_chains:]
    rng.shuffle(rest)
    return [op for group in first + rest for op in group]


_BUILDERS = {"sieve": _sieve, "evrank": _evrank, "algebra": _algebra,
             "characters": _characters}

"""Command line surface.

Subcommands wire the library end to end: enumeration, morphism expressions,
normal forms, idempotent and rank certificates, Frobenius characters, fake
degrees, and cyclic sieving verification.  Exit status 0 means success or
PASS, 1 a mathematical FAIL, 2 a usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import matchings as mt
from . import symfunc as sf
from . import tableaux as tb
from .category import Morphism, check_eq_ch, compose_by_orbits, e_rec, e_sum
from .csp import CspCertificate, verify_csp_X
from .expr import evaluate, parse_expr, parse_morphism
from .matchings import enumerate_matchings
from .partitions import parse_partition
from .pfaffian import normal_form
from .tensors import ev_rank


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _delta_from(args) -> Fraction | None:
    if getattr(args, "delta", None) is not None:
        try:
            return Fraction(args.delta)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--delta must be a rational like -3/2, got {args.delta!r}") from None
    if getattr(args, "n", None) is not None:
        return Fraction(-2 * args.n)
    return None


def _shape_from(args) -> tuple[int, ...]:
    try:
        return parse_partition(args.shape)
    except ValueError as err:
        raise ValueError(f"--shape {err}") from None


def cmd_enumerate(args) -> int:
    what = args.what
    k = None if args.k == 1 else args.k  # --k 1 names X(r, n), as in csp-verify
    if args.count and what in ("X", "oscillating"):
        # counted without listing: X(r, n) through the oscillating tableaux of
        # length 2r with at most n rows, X(r, n, k) through the strip walks
        print(tb.count_oscillating(2 * args.r, args.n) if what == "oscillating"
              else mt.count_X(args.r, args.n, k))
        return 0
    if what == "matchings":
        items = [str(m) for m in enumerate_matchings(2 * args.r)]
    elif what == "X":
        if k is not None:
            items = [str(b) for b in mt.enumerate_X_blocked(args.r, args.n, k)]
        else:
            items = [str(m) for m in mt.enumerate_X(args.r, args.n)]
    elif what == "oscillating":
        items = [str(t) for t in tb.enumerate_oscillating(2 * args.r, args.n)]
    elif what == "syt":
        if args.shape is None:
            raise ValueError("enumerate --what syt needs --shape")
        items = ["/".join(",".join(map(str, row)) for row in t)
                 for t in tb.enumerate_SYT(_shape_from(args))]
    else:  # set-partitions
        items = ["|".join(",".join(map(str, b)) for b in p)
                 for p in mt.iter_set_partitions(args.r, args.n)]
    if args.count:
        print(len(items))
    else:
        for line in items:
            print(line)
    return 0


def cmd_compose(args) -> int:
    value = evaluate(parse_expr(args.expression), delta=_delta_from(args),
                     strands=args.strands, n=args.n)
    print(value)
    return 0


def cmd_normal_form(args) -> int:
    text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
    m = parse_morphism(text.strip(), delta=_delta_from(args))
    trace: list | None = [] if args.trace else None
    reduced = normal_form(m, args.n, trace)
    print(reduced)
    if args.trace:
        print(f"steps: {len(trace)}")
        for d in trace:
            print(f"  rewrote {d}")
    return 0


# Pairs glued by orbits, I(k) the involutions of k points: e_rec's step k glues the
# (2k-1)!! terms of E' to R and to at most I(k+2) - 1 orbits of E' R; a central E of
# N = (2n+1)!! terms takes 2N, for u_1 E and E u_1; the FAIL path's E * E and scans
# take I(n+1) N each.  n = 5 prices 2,620,632, and n = 6 102,516,582
_IDEMPOTENT_PAIR_BUDGET = 3 * 10 ** 6


def _idempotent_pairs(n: int) -> int:
    odd = lambda k: math.prod(range(1, 2 * k, 2))  # (2k-1)!!
    inv = lambda k: sum(math.comb(k, 2 * j) * odd(j) for j in range(k // 2 + 1))  # I(k)
    rec = sum((inv(k + 2) + 2) * odd(k) for k in range(1, n + 1))
    return rec + (2 + 3 * inv(n + 1)) * odd(n + 1)


def _is_idempotent(e: Morphism, central: bool) -> bool:
    """E * E == E.  A central E has E * E = sigma * E, sigma the sum of its
    coefficients on permutation diagrams, so no product is formed then."""
    if not central:
        return compose_by_orbits(e, e) == e
    sigma = sum(c for d, c in e.terms.items() if d.propagating_number == e.r)
    return e.is_zero() or sigma == 1


def cmd_idempotent_check(args) -> int:
    n = args.n
    delta = _delta_from(args)
    pairs = _idempotent_pairs(n)
    if pairs > _IDEMPOTENT_PAIR_BUDGET:
        raise ValueError(f"idempotent-check --n {n} composes {pairs} diagram pairs, "
                         f"over the budget of {_IDEMPOTENT_PAIR_BUDGET}")
    e_recursive = e_rec(n, delta)  # a pole of some R_k(k) fails here, before any product
    e = e_sum(n, delta)
    central = check_eq_ch(e, n).passed
    checks = {
        "idempotent": _is_idempotent(e, central),
        "central": central,
        "trace-zero": e.trace() == 0,
        "recursive-equal": e_recursive == e,
    }
    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    print(f"idempotent-check n={n} delta={delta}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ev-rank certifies the rank in rotation blocks, falling back on an exact
# elimination of at most about N k^2 / 2 steps, N = (2r-1)!! matchings of rank
# k = |X(r, n)| (dropping dead rows leaves about N k^2 / 2 - k^3 / 3); the
# preflight bounds that fallback:
# the bound at r = 5 is at most 421,954,312 (n >= 5), at (r, n) = (6, 1)
# 90,561,240 and at (6, 2) 115,742,924,797
_EV_RANK_BUDGET = 10 ** 9


def cmd_ev_rank(args) -> int:
    r, n = args.r, args.n
    noncrossing = mt.count_X(r, n)
    work = math.prod(range(1, 2 * r, 2)) * noncrossing ** 2 // 2
    if work > _EV_RANK_BUDGET:
        raise ValueError(f"ev-rank --r {r} --n {n} needs about {work} elimination steps, "
                         f"over the budget of {_EV_RANK_BUDGET}")
    rank = ev_rank(r, n)
    match = rank == noncrossing
    print(f"rank={rank} noncrossing={noncrossing} {'MATCH' if match else 'MISMATCH'}")
    return 0 if match else 1


_KINDS = ("matchings", "sym-power", "fundamental", "regular-graph",
          "partition-plethysm", "partition-multiset", "adjoint")
_KINDS_NEEDING_K = ("sym-power", "fundamental", "regular-graph")


def _character(args) -> sf.SymFuncP:
    kind = args.kind
    if kind in _KINDS_NEEDING_K and args.k is None:
        raise ValueError(f"--kind {kind} needs --k")
    if kind == "matchings":
        return sf.invariant_character_matchings(args.r, args.n)
    if kind == "sym-power":
        return sf.invariant_character_sym_power(args.r, args.k, args.n)
    if kind == "fundamental":
        return sf.invariant_character_fundamental(args.r, args.k, args.n)
    if kind == "regular-graph":
        return sf.regular_graph_character(args.r, args.k)
    if kind == "partition-plethysm":
        return sf.partition_category_character(args.r, args.n)
    if kind == "partition-multiset":
        return sf.partition_category_character_multiset(args.r, args.n, args.k or 1)
    return sf.adjoint_invariant_character(args.r, args.n)  # adjoint


def cmd_frobenius(args) -> int:
    print(_character(args))
    return 0


def cmd_fake_degree(args) -> int:
    if args.shape is not None:
        print(tb.fake_degree_schur_hook(_shape_from(args)))
        return 0
    if args.kind == "matchings":
        print(sf.fake_degree_matchings(args.r, args.n))
    else:
        print(sf.fake_degree(_character(args)))
    return 0


def _csp_certificate(r: int, n: int, k: int | None) -> CspCertificate:
    if k is None or k == 1:
        poly = sf.fake_degree_matchings(r, n)
    else:
        poly = sf.fake_degree(sf.invariant_character_sym_power(r, k, n))
    return verify_csp_X(r, n, k, poly)


def _print_certificate(tag: str, cert, fmt: str):
    if fmt == "tsv":
        fields = [tag, "PASS" if cert.passed else "FAIL", str(cert.size),
                  str(cert.order), ",".join(f"{t}:{m}" for t, m in cert.orbit_counts.items()),
                  str(cert.poly_reduced),
                  "" if cert.failure_divisor is None else str(cert.failure_divisor)]
        print("\t".join(fields))
    else:
        print(f"instance: {tag}")
        for line in cert.lines():
            print(f"  {line}")


def _parse_grid(text: str) -> dict[str, int]:
    out = {}
    for part in text.split(","):
        m = re.fullmatch(r"\s*([rnk])\s*<=\s*(\d+)\s*", part)
        if m is None:
            raise ValueError(f"bad grid clause {part!r}")
        if m.group(1) in out:
            raise ValueError(f"grid clause {part!r} repeats the bound on {m.group(1)}")
        if int(m.group(2)) < 1:
            raise ValueError(f"grid clause {part!r} needs a positive bound")
        out[m.group(1)] = int(m.group(2))
    return out


def cmd_csp_verify(args) -> int:
    fmt = args.format
    jobs = []
    if args.grid:
        bounds = _parse_grid(args.grid)
        for r in range(1, bounds.get("r", args.r or 1) + 1):
            for n in range(1, bounds.get("n", args.n or 1) + 1):
                if "k" in bounds:
                    for k in range(1, bounds["k"] + 1):
                        jobs.append((r, n, k))
                else:
                    jobs.append((r, n, args.k))
    else:
        if args.r is None or args.n is None:
            raise ValueError("csp-verify needs --r and --n (or --grid)")
        jobs.append((args.r, args.n, args.k))
    all_pass = True
    for r, n, k in jobs:
        cert = _csp_certificate(r, n, k)
        tag = f"X({r},{n})" if k in (None, 1) else f"X({r},{n},{k})"
        _print_certificate(tag, cert, fmt)
        all_pass = all_pass and cert.passed
    return 0 if all_pass else 1


def _check_each(label: str, check, r_max: int) -> int:
    ok = True
    for r in range(1, r_max + 1):
        passed = check(r)
        print(f"{label} r={r}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_littlewood_check(args) -> int:
    return _check_each("littlewood", sf.littlewood_check, args.r)


def cmd_kronecker_check(args) -> int:
    return _check_each("kronecker", lambda r: sf.adjoint_character_full(r)
                       == sf.adjoint_invariant_character(r, r), args.r)


_COMMANDS = {
    "enumerate": "list combinatorial sets",
    "compose": "evaluate a morphism expression",
    "normal-form": "reduce to noncrossing support",
    "idempotent-check": "idempotent, centrality, trace and recursion certificates",
    "ev-rank": "tensor rank against noncrossing count",
    "frobenius": "frobenius of an invariant character",
    "fake-degree": "fake degree of an invariant character",
    "csp-verify": "cyclic sieving certificate",
    "littlewood-check": "plethysm against the even-row Schur sum",
    "kronecker-check": "power sums against Kronecker squares",
}


def _add_arguments(p: argparse.ArgumentParser, name: str):
    if name == "enumerate":
        p.add_argument("--what", required=True,
                       choices=["matchings", "X", "oscillating", "syt", "set-partitions"])
        p.add_argument("--r", type=_positive_int, default=1)
        p.add_argument("--n", type=_positive_int, default=1)
        p.add_argument("--k", type=_positive_int)
        p.add_argument("--shape")
        p.add_argument("--count", action="store_true", help="print only the count")
    elif name == "compose":
        p.add_argument("expression")
        p.add_argument("--n", type=_positive_int, help="rank; sets delta = -2n")
        p.add_argument("--delta", help="explicit rational loop value, e.g. -3/2")
        p.add_argument("--strands", type=_positive_int, help="strand count for u_i/s_i/R_i")
    elif name == "normal-form":
        p.add_argument("file", help="morphism file, or - for stdin")
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--delta")
        p.add_argument("--trace", action="store_true")
    elif name == "idempotent-check":
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--delta")
    elif name == "ev-rank":
        p.add_argument("--r", type=_positive_int, required=True)
        p.add_argument("--n", type=_positive_int, required=True)
    elif name in ("frobenius", "fake-degree"):
        p.add_argument("--kind", choices=_KINDS, default="matchings")
        p.add_argument("--r", type=_positive_int, default=1)
        p.add_argument("--n", type=_positive_int, default=1)
        p.add_argument("--k", type=_positive_int)
        if name == "fake-degree":
            p.add_argument("--shape", help="partition like 2,2: fake degree of one Schur term")
    elif name == "csp-verify":
        p.add_argument("--r", type=_positive_int)
        p.add_argument("--n", type=_positive_int)
        p.add_argument("--k", type=_positive_int)
        p.add_argument("--format", choices=["text", "tsv"], default="text")
        p.add_argument("--grid", help="bounds like r<=5,n<=3")
    else:  # littlewood-check, kronecker-check
        p.add_argument("--r", type=_positive_int, default=5 if name == "littlewood-check" else 6)


@cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only the named command's subparser, or with all of
    them for None; a call parses with the one its first argument names."""
    parser = _Parser(
        prog="brauercat",
        description="Exact diagram algebra, symplectic tensor evaluation, "
                    "and cyclic sieving certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        _add_arguments(sub.add_parser(name, help=_COMMANDS[name]), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    # looked up per call, so a wrapper set on cli.cmd_* after the parser is built still runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

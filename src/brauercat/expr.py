"""A small expression language for morphisms.

Atoms are rational literals, diagram literals like ``(1,3)(2,4)`` or
``2|2:(1,2)(3,4)``, the named elements ``u_i``, ``s_i``, ``id_m``, ``R_i(k)``,
``E(m)`` and ``Pf(pairs)``; a bare ``id``, like ``u_i``, ``s_i`` and ``R_i(k)``,
takes the expression's strand count.  ``o`` composes two morphisms (tightest),
``x`` is the tensor product, ``+``/``-`` add; ``*`` composes or scales by
rationals.  Unicode spellings of the operators are accepted as aliases.
With no loop value given, an expression holding ``E(m)`` is evaluated at
delta = -2(m-1), where E(m) is idempotent; any other stays formal.
The AST has Num, Diag and Name leaves under flat ``Chain`` nodes, one per run
of same-level operators; unary minus is a product with -1.  So a tree nests
only as deep as its parentheses and unary minuses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .category import Morphism, e_sum, generator_s, generator_u, r_element
from .matchings import Diagram, PerfectMatching, unbend
from .pfaffian import PfGenerator, pfaffian


class ExprError(ValueError):
    """Syntax or shape error, annotated with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


# A run of pairs like (1,3)(2,4) is one token, shown as "(" in messages.  A run
# ends at its last whole pair, and a truncated rest is read per character, so its
# error keeps its message and column.
_PAIR = r"\(\s*\d+\s*,\s*\d+\s*\)"
_TOKEN_RE = re.compile(rf"""
    (?P<pairs>{_PAIR}(?:\s*{_PAIR})*)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<x>x(?![A-Za-z0-9_])|[⊗×])
  | (?P<o>o(?![A-Za-z0-9_])|∘)
  | (?P<name>[A-Za-z]+(?:_\d+)?)
  | (?P<op>[+\-*|:,()])
  | (?P<ws>\s+)
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "pos", "value")  # value: the pairs of a run

    def __init__(self, kind: str, text: str, pos: int, value=None):
        self.kind, self.text, self.pos, self.value = kind, text, pos, value


def tokenize(text: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "pairs":
            points = map(int, re.findall(r"\d+", m.group()))
            out.append(Token(kind, "(", pos, tuple(zip(points, points))))
        elif kind != "ws":
            out.append(Token(m.group() if kind == "op" else kind, m.group(), pos))
        pos = m.end()
    out.append(Token("end", "", len(text)))
    return out


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Diag:
    diagram: Diagram
    pos: int


@dataclass(frozen=True)
class Name:
    kind: str           # "u", "s", "id", "E", "R", "Pf"
    index: int | None   # subscript for u/s/R, strand count for id
    arg: object = None  # k for R(k), argument pairs for Pf
    pos: int = 0


@dataclass(frozen=True)
class Chain:
    """Operands joined by the operators of one precedence level, folded left
    to right: ``first`` then each (op, op position, operand) of ``rest``."""
    first: object
    rest: tuple


_LEVELS = (("+", "-"), ("x",), ("o", "*"))  # loosest first
_TERM_BUDGET = 10 ** 6  # terms an expression may build: E(7) has 135,135, E(8) 2,027,025


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def integer(self, slot: str) -> int:
        """The next number token, which must be an integer: it fills ``slot``."""
        tok = self.expect("num")
        if "/" in tok.text:
            raise ExprError(f"{slot} must be an integer, found {tok.text!r}", tok.pos)
        return int(tok.text)

    def parse(self):
        node = self.chain(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def chain(self, level: int):
        """Operands of the next tighter level joined by this level's operators."""
        if level == len(_LEVELS):
            return self.atom()
        first = self.chain(level + 1)
        rest = []
        while self.peek().kind in _LEVELS[level]:
            op = self.next()
            rest.append((op.kind, op.pos, self.chain(level + 1)))
        return Chain(first, tuple(rest)) if rest else first

    def atom(self):
        tok = self.peek()
        if tok.kind == "-":  # unary minus: a product with the literal -1
            self.next()
            return Chain(Num(Fraction(-1), tok.pos), (("*", tok.pos, self.atom()),))
        if tok.kind == "num":
            if self.peek(1).kind == "|":
                return self.shaped_diagram()
            self.next()
            try:
                return Num(Fraction(tok.text), tok.pos)
            except ZeroDivisionError:
                raise ExprError(f"zero denominator in {tok.text!r}", tok.pos) from None
        if tok.kind == "pairs" or (tok.kind == "(" and self.peek(1).kind == "num"
                                   and self.peek(2).kind == ","):  # a first pair not whole
            return self.diagram_literal(0, None)
        if tok.kind == "(":
            self.next()
            node = self.chain(0)
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.name()
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """A run token's pairs, then any read per character from a truncated rest."""
        pairs = list(self.next().value) if self.peek().kind == "pairs" else []
        while self.peek().kind == "(":
            self.next()
            a = self.integer("diagram point")
            self.expect(",")
            b = self.integer("diagram point")
            self.expect(")")
            pairs.append((a, b))
        return tuple(pairs)

    def diagram_literal(self, r: int, s: int | None):
        pos = self.peek().pos
        pairs = self.pairs()
        try:
            pm = PerfectMatching(pairs)
        except ValueError:
            raise ExprError(f"{''.join(f'({a},{b})' for a, b in pairs)} is not a perfect "
                            f"matching of 1..{2 * len(pairs)}", pos) from None
        if s is None:
            s = pm.n_points - r
        elif pm.n_points != r + s:
            raise ExprError(f"matching covers {pm.n_points} points, shape needs {r + s}", pos)
        return Diag(unbend(pm, r, s) if r else Diagram(0, s, pm), pos)

    def shaped_diagram(self):
        r = self.integer("r in r|s")
        self.expect("|")
        s = self.integer("s in r|s")
        self.expect(":")
        return self.diagram_literal(r, s)

    def name(self):
        tok = self.next()
        text = tok.text
        base, _, sub = text.partition("_")
        index = int(sub) if sub else None
        if base in ("u", "s"):
            if index is None:
                raise ExprError(f"{base} needs a subscript like {base}_1", tok.pos)
            return Name(base, index, pos=tok.pos)
        if base == "id":
            if index is None and self.peek().kind == "(":
                self.next()
                index = self.integer("k in id(k)")
                self.expect(")")
            return Name("id", index, pos=tok.pos)
        if base == "E":
            self.expect("(")
            m = self.integer("m in E(m)")
            self.expect(")")
            if m < 2:
                raise ExprError(f"E(m) needs m >= 2 strands, got E({m})", tok.pos)
            return Name("E", m, pos=tok.pos)
        if base == "R":
            if index is None:
                raise ExprError("R needs a subscript like R_1(0)", tok.pos)
            self.expect("(")
            k = self.integer("k in R_i(k)")
            self.expect(")")
            return Name("R", index, arg=k, pos=tok.pos)
        if base == "Pf":
            self.expect("(")
            pairs = self.pairs()
            self.expect(")")
            return Name("Pf", None, arg=pairs, pos=tok.pos)
        raise ExprError(f"unknown name {text!r}", tok.pos)


def parse_expr(text: str):
    """Parse to an AST; raises ExprError with a column on bad syntax."""
    return _Parser(tokenize(text)).parse()


def _names(node) -> Iterator[Name]:
    """The named atoms of an expression, left to right.  Chains are flat, so
    this nests only as deep as the parentheses and unary minuses."""
    if isinstance(node, Name):
        yield node
    elif isinstance(node, Chain):
        yield from _names(node.first)
        for *_, operand in node.rest:
            yield from _names(operand)


def infer_strands(node) -> int | None:
    """Smallest strand count accommodating every named generator."""
    return max((a.index + 1 if a.kind in ("u", "s", "R") else a.index
                for a in _names(node) if a.index is not None), default=None)


def _strands_of(node: Name, strands: int | None) -> int:
    """Strand count of a named generator: E(m) and id_m carry their own;
    u_i, s_i, R_i(k) and a bare id take the expression's."""
    if node.kind == "E" or (node.kind == "id" and node.index is not None):
        return node.index
    if strands is None:
        raise ExprError(f"{node.kind} needs a strand count (pass --strands, or write id_m)",
                        node.pos)
    return strands


def _shape_text(shape) -> str:
    return "a scalar" if shape is None else f"({shape[0]},{shape[1]})"


def shape_of(node, strands: int | None, n: int | None = None):
    """(shape, price) of an expression, in one walk that checks arities and the
    Pf literals against the rank n.  A scalar's shape is None; a morphism's is
    (r, s).  The price bounds the terms the expression builds: (2m-1)!! for E(m),
    (2n+1)!! for Pf, 3 for R_i(k), 1 for other atoms; a sum adds its operands'
    prices, a product multiplies them."""
    if isinstance(node, Num):
        return None, 1
    if isinstance(node, Diag):
        return (node.diagram.r, node.diagram.s), 1
    if isinstance(node, Name):
        if node.kind == "Pf":
            return (0, _pf_generator(node, n).points), math.prod(range(1, 2 * n + 2, 2))
        m = _strands_of(node, strands)
        if node.kind in ("u", "s", "R") and not 1 <= node.index <= m - 1:
            raise ExprError(f"subscript of {node.kind}_{node.index} out of range for {m} strands",
                            node.pos)
        price = {"E": math.prod(range(1, 2 * m, 2)), "R": 3}.get(node.kind, 1)
        return (m, m), price
    if isinstance(node, Chain):
        shape, price = shape_of(node.first, strands, n)
        prices = [price]
        for op, pos, operand in node.rest:
            right, price = shape_of(operand, strands, n)
            shape = _combine(op, shape, right, pos)
            prices.append(price)
        return shape, sum(prices) if node.rest[0][0] in ("+", "-") else math.prod(prices)
    raise ExprError("malformed expression", getattr(node, "pos", 0))


def _combine(op: str, ls, rs, pos: int):
    """The shape of ``ls op rs``; a mismatch is reported at the operator."""
    if op in ("+", "-"):
        if ls != rs:
            raise ExprError(f"cannot add shapes {_shape_text(ls)} and {_shape_text(rs)}", pos)
        return ls
    if ls is None or rs is None:
        if op == "*":  # scaling
            return rs if ls is None else ls
        what = "tensor product" if op == "x" else "composition"
        raise ExprError(f"{what} needs two morphisms", pos)
    if op == "x":
        return (ls[0] + rs[0], ls[1] + rs[1])
    if ls[1] != rs[0]:
        raise ExprError(f"cannot compose shapes {_shape_text(ls)} and {_shape_text(rs)}", pos)
    return (ls[0], rs[1])


def _pf_generator(node: Name, n: int | None) -> PfGenerator:
    """The kernel generator of a Pf literal: its pairs fixed, the rest the subset."""
    if n is None:
        raise ExprError("Pf needs the rank flag --n", node.pos)
    used = {p for pair in node.arg for p in pair}
    points = 2 * (n + 1) + 2 * len(node.arg)
    subset = tuple(p for p in range(1, points + 1) if p not in used)
    if len(subset) != 2 * (n + 1):
        raise ExprError("Pf pairs must leave exactly 2(n+1) free points", node.pos)
    return PfGenerator(n, points, subset, node.arg)


def evaluate(node, delta=None, strands: int | None = None, n: int | None = None):
    """Evaluate an AST to a Fraction or a Morphism.

    delta picks the coefficient ring; without it an expression holding E(m)
    atoms is specialized at delta = -2(m-1), and any other is formal.
    strands sizes the named generators (inferred when omitted); n sizes Pf
    literals.  Each Chain folds left to right, except that a ``+``/``-`` chain
    of morphisms is summed into one dict by ``Morphism.accumulate``.
    """
    if strands is None:
        strands = infer_strands(node)
    # arities, Pf literals and the price, all checked before any evaluation
    if (terms := shape_of(node, strands, n)[1]) > _TERM_BUDGET:
        raise ValueError(f"the expression builds up to {terms} terms, over the budget of "
                         f"{_TERM_BUDGET}")
    if delta is None:
        delta = _implied_delta(node)
    return _eval(node, delta, strands, n)


def _implied_delta(node) -> Fraction | None:
    """The delta = -2(m-1) at which the expression's E(m) atoms are idempotent,
    or None (the formal ring) when it has none."""
    atoms = [a for a in _names(node) if a.kind == "E"]
    if not atoms:
        return None
    first = atoms[0].index
    for atom in atoms[1:]:
        if atom.index != first:
            raise ExprError(f"E({atom.index}) implies delta={-2 * (atom.index - 1)}, but "
                            f"E({first}) implies delta={-2 * (first - 1)}; pass --n or --delta",
                            atom.pos)
    return Fraction(-2 * (first - 1))


def _eval(node, delta, strands, n):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Diag):
        return Morphism.from_diagram(node.diagram, delta)
    if isinstance(node, Name):
        if node.kind == "Pf":
            return pfaffian(_pf_generator(node, n), delta)
        m = _strands_of(node, strands)
        if node.kind == "id":
            return Morphism.identity(m, delta)
        if node.kind == "E":
            return e_sum(m - 1, delta)
        if node.kind == "R":
            if delta is None:
                raise ExprError("R needs a rational specialization (--n or --delta)",
                                node.pos)
            return r_element(node.index, node.arg, m, delta)
        gen = generator_u if node.kind == "u" else generator_s
        return Morphism.from_diagram(gen(node.index, m), delta)
    if isinstance(node, Chain):
        left = _eval(node.first, delta, strands, n)
        rights = ((op, _eval(operand, delta, strands, n)) for op, _, operand in node.rest)
        if node.rest[0][0] in ("+", "-"):  # a sum, accumulated once
            signed = ((-1 if op == "-" else 1, right) for op, right in rights)
            if isinstance(left, Morphism):
                return left.accumulate(signed)
            return left + sum(sign * right for sign, right in signed)
        for op, right in rights:  # "o", "*": Morphism.__mul__/__rmul__ scale by rationals
            left = left @ right if op == "x" else left * right
        return left
    raise ExprError("malformed expression", getattr(node, "pos", 0))


def parse_morphism(text: str, delta=None) -> Morphism:
    """Read a morphism in the linear-combination text format."""
    value = evaluate(parse_expr(text), delta=delta)
    if isinstance(value, Fraction):
        raise ExprError("expected a morphism, found a scalar", 0)
    return value

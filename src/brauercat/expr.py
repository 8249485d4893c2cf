"""A small expression language for morphisms.

Atoms are rational literals, diagram literals like ``(1,3)(2,4)`` or
``2|2:(1,2)(3,4)``, the named elements ``u_i``, ``s_i``, ``id_m``, ``R_i(k)``,
``E(m)`` and ``Pf(pairs)``.  ``o`` composes (tightest), ``x`` is the tensor
product, ``+``/``-`` add; ``*`` multiplies with type dispatch, so it scales by
rationals and composes morphisms.  Unicode spellings of the operators are
accepted as aliases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .category import Morphism, e_sum, generator_s, generator_u, r_element
from .matchings import Diagram, PerfectMatching, unbend
from .pfaffian import PfGenerator, pfaffian


class ExprError(ValueError):
    """Syntax or shape error, annotated with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)
  | (?P<tensor>x(?![A-Za-z0-9_])|[⊗×])
  | (?P<comp>o(?![A-Za-z0-9_])|∘)
  | (?P<name>[A-Za-z]+(?:_\d+)?)
  | (?P<op>[+\-*|:,()])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            if kind == "op":
                kind = m.group()
            elif kind == "tensor":
                kind = "x"
            elif kind == "comp":
                kind = "o"
            out.append(Token(kind, m.group(), pos))
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
class BinOp:
    op: str             # "+", "-", "*", "o", "x"
    left: object
    right: object
    pos: int


@dataclass(frozen=True)
class Neg:
    child: object
    pos: int


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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            node = BinOp(op.kind, node, self.term(), op.pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "x":
            op = self.next()
            node = BinOp("x", node, self.factor(), op.pos)
        return node

    def factor(self):
        node = self.atom()
        while self.peek().kind in ("o", "*"):
            op = self.next()
            node = BinOp(op.kind, node, self.atom(), op.pos)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg(self.atom(), tok.pos)
        if tok.kind == "num":
            if self.peek(1).kind == "|":
                return self.shaped_diagram()
            self.next()
            return Num(Fraction(tok.text), tok.pos)
        if tok.kind == "(":
            if self.peek(1).kind == "num" and self.peek(2).kind == ",":
                return self.diagram_literal(0, None)
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.name()
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = []
        while self.peek().kind == "(":
            self.next()
            a = int(self.expect("num").text)
            self.expect(",")
            b = int(self.expect("num").text)
            self.expect(")")
            pairs.append((a, b))
        return tuple(pairs)

    def diagram_literal(self, r: int, s: int | None):
        pos = self.peek().pos
        pairs = self.pairs()
        pm = PerfectMatching(pairs)
        if s is None:
            s = pm.n_points - r
        if r == 0:
            return Diag(Diagram(0, s, pm), pos)
        return Diag(unbend(pm, r, s), pos)

    def shaped_diagram(self):
        tok = self.next()
        r = int(tok.text)
        self.expect("|")
        s = int(self.expect("num").text)
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
                index = int(self.expect("num").text)
                self.expect(")")
            return Name("id", index, pos=tok.pos)
        if base == "E":
            self.expect("(")
            m = int(self.expect("num").text)
            self.expect(")")
            return Name("E", m, pos=tok.pos)
        if base == "R":
            if index is None:
                raise ExprError("R needs a subscript like R_1(0)", tok.pos)
            self.expect("(")
            k = int(self.expect("num").text)
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


def infer_strands(node) -> int | None:
    """Smallest strand count accommodating every named generator."""
    if isinstance(node, Name):
        if node.kind in ("u", "s"):
            return node.index + 1
        if node.kind == "R":
            return node.index + 1
        if node.kind in ("id", "E"):
            return node.index
        return None
    if isinstance(node, BinOp):
        values = [infer_strands(node.left), infer_strands(node.right)]
        values = [v for v in values if v is not None]
        return max(values) if values else None
    if isinstance(node, Neg):
        return infer_strands(node.child)
    return None


def shape_of(node, strands: int | None):
    """Scalar shape is None; morphisms carry (r, s).  Checks arities."""
    if isinstance(node, Num):
        return None
    if isinstance(node, Diag):
        return (node.diagram.r, node.diagram.s)
    if isinstance(node, Neg):
        return shape_of(node.child, strands)
    if isinstance(node, Name):
        if node.kind == "Pf":
            return None  # depends on the rank flag; resolved at evaluation
        m = strands if node.kind in ("u", "s", "R") else node.index
        if node.kind in ("u", "s", "R") and strands is None:
            m = node.index + 1
        return (m, m)
    if isinstance(node, BinOp):
        ls = shape_of(node.left, strands)
        rs = shape_of(node.right, strands)
        if node.op in ("+", "-"):
            if ls != rs:
                raise ExprError(f"cannot add shapes {ls} and {rs}", node.pos)
            return ls
        if node.op == "x":
            if ls is None or rs is None:
                raise ExprError("tensor product needs two morphisms", node.pos)
            return (ls[0] + rs[0], ls[1] + rs[1])
        # "*" or "o"
        if ls is None:
            return rs
        if rs is None:
            if node.op == "o":
                raise ExprError("composition needs two morphisms", node.pos)
            return ls
        if ls[1] != rs[0]:
            raise ExprError(
                f"cannot compose shapes ({ls[0]},{ls[1]}) and ({rs[0]},{rs[1]})", node.pos)
        return (ls[0], rs[1])
    raise ExprError("malformed expression", getattr(node, "pos", 0))


def evaluate(node, delta=None, strands: int | None = None, n: int | None = None):
    """Evaluate an AST to a Fraction or a Morphism.

    delta picks the coefficient ring; strands sizes the named generators
    (inferred when omitted); n sizes Pf literals.
    """
    if strands is None:
        strands = infer_strands(node)
    shape_of(node, strands)  # arity check before any evaluation
    return _eval(node, delta, strands, n)


def _eval(node, delta, strands, n):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Diag):
        return Morphism.from_diagram(node.diagram, delta)
    if isinstance(node, Neg):
        child = _eval(node.child, delta, strands, n)
        return -child
    if isinstance(node, Name):
        if node.kind in ("u", "s"):
            gen = generator_u if node.kind == "u" else generator_s
            return Morphism.from_diagram(gen(node.index, strands), delta)
        if node.kind == "id":
            m = node.index if node.index is not None else strands
            return Morphism.identity(m, delta)
        if node.kind == "E":
            d = delta if delta is not None else Fraction(-2 * (node.index - 1))
            return e_sum(node.index - 1, d)
        if node.kind == "R":
            if delta is None:
                raise ExprError("R needs a rational specialization (--n or --delta)",
                                node.pos)
            return r_element(node.index, node.arg, strands, delta)
        if node.kind == "Pf":
            if n is None:
                raise ExprError("Pf needs the rank flag --n", node.pos)
            used = {p for pair in node.arg for p in pair}
            points = 2 * (n + 1) + 2 * len(node.arg)
            subset = tuple(p for p in range(1, points + 1) if p not in used)
            if len(subset) != 2 * (n + 1):
                raise ExprError("Pf pairs must leave exactly 2(n+1) free points",
                                node.pos)
            return pfaffian(PfGenerator(n, points, subset, node.arg), delta)
    if isinstance(node, BinOp):
        left = _eval(node.left, delta, strands, n)
        right = _eval(node.right, delta, strands, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "x":
            return left @ right
        if node.op == "o":
            return left * right
        # "*": scale or compose by type
        if isinstance(left, Fraction) and isinstance(right, Fraction):
            return left * right
        if isinstance(left, Fraction):
            return right.scaled(left)
        if isinstance(right, Fraction):
            return left.scaled(right)
        return left * right
    raise ExprError("malformed expression", getattr(node, "pos", 0))


def parse_morphism(text: str, delta=None) -> Morphism:
    """Read a morphism in the linear-combination text format."""
    value = evaluate(parse_expr(text), delta=delta)
    if isinstance(value, Fraction):
        raise ExprError("expected a morphism, found a scalar", 0)
    return value

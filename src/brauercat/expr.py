"""A small expression language for morphisms.

Atoms are rational literals, diagram literals like ``(1,3)(2,4)`` or
``2|2:(1,2)(3,4)``, the named elements ``u_i``, ``s_i``, ``id_m``, ``R_i(k)``,
``E(m)`` and ``Pf(pairs)``; a bare ``id``, like ``u_i``, ``s_i`` and ``R_i(k)``,
takes the expression's strand count.  ``o`` composes two morphisms (tightest),
``x`` is the tensor product, ``+``/``-`` add; ``*`` composes or scales by
rationals.  Unicode spellings of the operators are accepted as aliases.
With no loop value given, an expression holding ``E(m)`` is evaluated at
delta = -2(m-1), where E(m) is idempotent; any other stays formal.
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

    def integer(self, slot: str) -> int:
        """The next number token, which must be an integer: it fills ``slot``."""
        tok = self.expect("num")
        if "/" in tok.text:
            raise ExprError(f"{slot} must be an integer, found {tok.text!r}", tok.pos)
        return int(tok.text)

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
            try:
                return Num(Fraction(tok.text), tok.pos)
            except ZeroDivisionError:
                raise ExprError(f"zero denominator in {tok.text!r}", tok.pos) from None
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
            a = self.integer("diagram point")
            self.expect(",")
            b = self.integer("diagram point")
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


def infer_strands(node) -> int | None:
    """Smallest strand count accommodating every named generator."""
    if isinstance(node, Name):
        if node.kind in ("u", "s", "R"):
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
    """Scalar shape is None; morphisms carry (r, s).  Checks arities, and
    the Pf literals against the rank n."""
    if isinstance(node, Num):
        return None
    if isinstance(node, Diag):
        return (node.diagram.r, node.diagram.s)
    if isinstance(node, Neg):
        return shape_of(node.child, strands, n)
    if isinstance(node, Name):
        if node.kind == "Pf":
            return (0, _pf_generator(node, n).points)
        m = _strands_of(node, strands)
        return (m, m)
    if isinstance(node, BinOp):
        ls = shape_of(node.left, strands, n)
        rs = shape_of(node.right, strands, n)
        if node.op in ("+", "-"):
            if ls != rs:
                raise ExprError(
                    f"cannot add shapes {_shape_text(ls)} and {_shape_text(rs)}", node.pos)
            return ls
        if ls is None or rs is None:
            if node.op == "*":  # scaling
                return rs if ls is None else ls
            what = "tensor product" if node.op == "x" else "composition"
            raise ExprError(f"{what} needs two morphisms", node.pos)
        if node.op == "x":
            return (ls[0] + rs[0], ls[1] + rs[1])
        if ls[1] != rs[0]:
            raise ExprError(
                f"cannot compose shapes {_shape_text(ls)} and {_shape_text(rs)}", node.pos)
        return (ls[0], rs[1])
    raise ExprError("malformed expression", getattr(node, "pos", 0))


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
    literals.
    """
    if strands is None:
        strands = infer_strands(node)
    shape_of(node, strands, n)  # arity and Pf checks before any evaluation
    if delta is None:
        delta = _implied_delta(node)
    return _eval(node, delta, strands, n)


def _e_atoms(node) -> list[Name]:
    """The E(m) atoms of an expression, left to right."""
    if isinstance(node, Name):
        return [node] if node.kind == "E" else []
    if isinstance(node, BinOp):
        return _e_atoms(node.left) + _e_atoms(node.right)
    if isinstance(node, Neg):
        return _e_atoms(node.child)
    return []


def _implied_delta(node) -> Fraction | None:
    """The delta = -2(m-1) at which the expression's E(m) atoms are idempotent,
    or None (the formal ring) when it has none."""
    atoms = _e_atoms(node)
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
    if isinstance(node, Neg):
        child = _eval(node.child, delta, strands, n)
        return -child
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
    if isinstance(node, BinOp):
        left = _eval(node.left, delta, strands, n)
        right = _eval(node.right, delta, strands, n)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "x":
            return left @ right
        return left * right  # "o" or "*": Morphism.__mul__/__rmul__ scale by rationals
    raise ExprError("malformed expression", getattr(node, "pos", 0))


def parse_morphism(text: str, delta=None) -> Morphism:
    """Read a morphism in the linear-combination text format."""
    value = evaluate(parse_expr(text), delta=delta)
    if isinstance(value, Fraction):
        raise ExprError("expected a morphism, found a scalar", 0)
    return value

"""Standard Young tableaux with the major index, and oscillating tableaux.

A standard tableau is stored as a tuple of row tuples filled bijectively with
1..m, increasing along rows and columns.  An oscillating tableau is a closed
walk on partitions, one cell added or removed per step, every shape with a
bounded number of rows.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Iterator

from .partitions import (cells_added, cells_removed, check_partition,
                         format_partition, hooks)
from .qpoly import QPolynomial
from .record import Record


def enumerate_SYT(shape) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of the shape, by backtracking on 1..m."""
    shape = check_partition(shape)
    m = sum(shape)
    rows = [[] for _ in shape]

    def place(value: int):
        if value > m:
            yield tuple(tuple(row) for row in rows)
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(row):
                continue
            row.append(value)
            yield from place(value + 1)
            row.pop()

    yield from place(1)


def maj(tableau: tuple[tuple[int, ...], ...]) -> int:
    """Sum of the descents: positions i with i+1 strictly lower than i."""
    row_of = {}
    for i, row in enumerate(tableau):
        for v in row:
            row_of[v] = i
    m = len(row_of)
    return sum(i for i in range(1, m) if row_of[i + 1] > row_of[i])


@cache
def fake_degree_schur(shape) -> QPolynomial:
    """Generating polynomial of maj over the standard tableaux of the shape."""
    shape = check_partition(shape)
    coeffs: dict[int, int] = {}
    for t in enumerate_SYT(shape):
        d = maj(t)
        coeffs[d] = coeffs.get(d, 0) + 1
    return QPolynomial.from_dict(coeffs)


@cache
def fake_degree_schur_hook(shape) -> QPolynomial:
    """Same polynomial through the q-analog of the hook length formula,

        q^n(shape) * prod_{i=1..m} (1 - q^i) / prod_{cells} (1 - q^h),

    in integers only: the factors i = 1..m first cancel against the hook
    lengths, the surviving numerator factors are multiplied out, and each
    surviving (1 - q^h) is divided out exactly by c_i += c_{i-h}.
    """
    shape = check_partition(shape)
    left = Counter(range(1, sum(shape) + 1))
    left.subtract(hooks(shape))
    coeffs = [1]
    for i, times in left.items():
        for _ in range(times):
            coeffs += [0] * i
            for j in range(len(coeffs) - 1, i - 1, -1):
                coeffs[j] -= coeffs[j - i]
    for h, times in left.items():
        for _ in range(-times):
            for j in range(h, len(coeffs)):
                coeffs[j] += coeffs[j - h]
            if any(coeffs[-h:]):
                raise ValueError(f"1 - q^{h} does not divide the q-hook numerator of {shape}")
            del coeffs[-h:]
    shift = sum(i * part for i, part in enumerate(shape))
    return QPolynomial([0] * shift + coeffs)


class OscillatingTableau(Record):
    """A closed partition walk: one cell changes per step, at most n rows."""

    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: tuple[tuple[int, ...], ...]):
        super().__init__(steps)
        if len(steps) < 1 or steps[0] != () or steps[-1] != ():
            raise ValueError("walk must start and end at the empty shape")
        for a, b in zip(steps, steps[1:]):
            if abs(sum(a) - sum(b)) != 1 or not (
                    b in set(cells_added(a)) or b in set(cells_removed(a))):
                raise ValueError(f"consecutive shapes {a} and {b} do not differ by one cell")

    def __str__(self) -> str:
        return ";".join(f"[{format_partition(s)}]" for s in self.steps)


def enumerate_oscillating(length: int, n: int) -> Iterator[OscillatingTableau]:
    """All closed walks of the given length with at most n rows, lexicographic."""
    if length % 2 != 0:
        raise ValueError(f"length must be even, got {length}")

    def walk(current: tuple[int, ...], remaining: int, trail: list):
        if remaining == 0:
            if current == ():
                yield OscillatingTableau(tuple(trail))
            return
        if sum(current) > remaining:
            return
        moves = sorted(cells_removed(current)) + sorted(
            s for s in cells_added(current) if len(s) <= n)
        for nxt in moves:
            trail.append(nxt)
            yield from walk(nxt, remaining - 1, trail)
            trail.pop()

    yield from walk((), length, [()])


def count_oscillating(length: int, n: int) -> int:
    """Number of closed walks: ``count_strip_walks`` with one-cell strips,
    since removing a strip of size a <= 1 and adding one of size 1 - a moves
    exactly one cell."""
    if length % 2 != 0:
        raise ValueError(f"length must be even, got {length}")
    return count_strip_walks(length, 1, n)


@cache
def count_strip_walks(steps: int, k: int, n: int) -> int:
    """Number of closed walks of ``steps`` steps from the empty shape, each
    step removing a horizontal strip of some size a (0 <= a <= k) and then
    adding one of size k - a, on shapes of at most n rows; a walk is the
    sequence of its intermediate and end shapes.

    This is the dimension of the Sp(2n) invariants in (Sym^k V)^{(x) steps}.
    Sym^k V is irreducible with the one-row highest weight (k), and the
    Newell-Littlewood rule with a one-row partner (Koike and Terada, J.
    Algebra 107, 1987) tensors a character with it by exactly this step.
    Adding a strip to a shape of at most n rows gives at most n + 1 rows,
    and a shape of exactly n + 1 rows has character 0 for Sp(2n) (King's
    modification rule, strip length 2(n + 1) - 2n - 2 = 0), so truncating
    the walk at n rows is exact.  Each step shrinks a shape by at most k
    cells, so a shape with more than k times the steps left is dropped.
    """
    if steps < 0 or k < 1 or n < 1:
        raise ValueError(f"need steps >= 0, k >= 1 and n >= 1, got {steps}, {k}, {n}")
    counts = {(): 1}
    for left in range(steps - 1, -1, -1):
        nxt: dict = {}
        for shape, ways in counts.items():
            for s, times in _strip_moves(shape, k, n):
                if sum(s) <= k * left:
                    nxt[s] = nxt.get(s, 0) + ways * times
        counts = nxt
    return counts.get((), 0)


@cache
def _strip_moves(shape: tuple[int, ...], k: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The ends of one step of ``count_strip_walks`` from the shape, each with
    the number of intermediate shapes that reach it.

    One recursion down the rows i = 1..n: the intermediate row m_i runs over
    [shape_{i+1}, shape_i] (a horizontal strip removed) and the end row e_i
    over [m_i, m_{i-1}], unbounded in row 1 (a horizontal strip added), the
    cells removed and added totalling k; rows past n stay empty."""
    rows = shape + (0,) * (n + 1 - len(shape))
    out: dict = {}
    end: list[int] = []

    def row(i: int, above: int, left: int):
        if i == n:
            if not left:
                e = tuple(p for p in end if p)
                out[e] = out.get(e, 0) + 1
            return
        for m in range(max(rows[i + 1], rows[i] - left), rows[i] + 1):
            spare = left - rows[i] + m
            for e in range(m, min(above, m + spare) + 1):
                end.append(e)
                row(i + 1, m, spare - e + m)
                end.pop()

    row(0, rows[0] + k, k)  # no end row 1 reaches past rows[0] + k
    return tuple(out.items())

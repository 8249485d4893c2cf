"""Standard Young tableaux with the major index, and oscillating tableaux.

A standard tableau is stored as a tuple of row tuples filled bijectively with
1..m, increasing along rows and columns.  An oscillating tableau is a closed
walk on partitions, one cell added or removed per step, every shape with a
bounded number of rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterator

from .partitions import (cells_added, cells_removed, check_partition,
                         format_partition, hooks)
from .qpoly import QPolynomial


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


def syt_count(shape) -> int:
    """Hook length formula."""
    shape = check_partition(shape)
    m = sum(shape)
    prod = 1
    for h in hooks(shape):
        prod *= h
    return factorial(m) // prod


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


@dataclass(frozen=True)
class OscillatingTableau:
    """A closed partition walk: one cell changes per step, at most n rows."""

    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.steps) < 1 or self.steps[0] != () or self.steps[-1] != ():
            raise ValueError("walk must start and end at the empty shape")
        for a, b in zip(self.steps, self.steps[1:]):
            if abs(sum(a) - sum(b)) != 1 or not (
                    b in set(cells_added(a)) or b in set(cells_removed(a))):
                raise ValueError(f"consecutive shapes {a} and {b} do not differ by one cell")

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def max_rows(self) -> int:
        return max((len(s) for s in self.steps), default=0)

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


@cache
def count_oscillating(length: int, n: int) -> int:
    """Number of closed walks, by dynamic programming over shapes."""
    if length % 2 != 0:
        raise ValueError(f"length must be even, got {length}")
    counts = {(): 1}
    for _ in range(length):
        nxt: dict = {}
        for shape, ways in counts.items():
            for s in cells_removed(shape):
                nxt[s] = nxt.get(s, 0) + ways
            for s in cells_added(shape):
                if len(s) <= n:
                    nxt[s] = nxt.get(s, 0) + ways
        counts = nxt
    return counts.get((), 0)

"""Perfect matchings, rectangular diagrams and their crossing combinatorics.

A perfect matching of {1, ..., 2m} is stored as a canonical tuple of pairs:
each pair (a, b) with a < b, pairs sorted by first element.  A diagram of
shape (r, s) is a matching of r + s points, points 1..r being the top edge
(left to right) and r+1..r+s the bottom edge (left to right).

Two strands (a1, b1), (a2, b2) cross when a1 < a2 < b1 < b2; a matching is
(n+1)-noncrossing if no n+1 strands cross mutually.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator


_PAIR_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


@dataclass(frozen=True, order=True)
class PerfectMatching:
    """A fixed-point-free involution of {1, ..., 2m}, canonically stored."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canonical = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", canonical)
        seen = [p for pair in canonical for p in pair]
        m = len(canonical)
        if sorted(seen) != list(range(1, 2 * m + 1)):
            raise ValueError(f"pairs do not form a perfect matching of 1..{2 * m}: {canonical}")

    @property
    def n_points(self) -> int:
        return 2 * len(self.pairs)

    def involution(self) -> dict[int, int]:
        inv = {}
        for a, b in self.pairs:
            inv[a] = b
            inv[b] = a
        return inv

    def rotate(self, step: int = 1) -> PerfectMatching:
        """Advance every point label by ``step`` cyclically (i -> i + step mod 2m)."""
        n = self.n_points
        shift = lambda p: (p - 1 + step) % n + 1
        return PerfectMatching(tuple((shift(a), shift(b)) for a, b in self.pairs))

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.pairs)

    @classmethod
    def parse(cls, text: str) -> PerfectMatching:
        stripped = re.sub(r"\s+", "", text)
        pairs = []
        pos = 0
        while pos < len(stripped):
            m = _PAIR_RE.match(stripped, pos)
            if m is None:
                raise ValueError(f"malformed matching {text!r} at offset {pos}")
            pairs.append((int(m.group(1)), int(m.group(2))))
            pos = m.end()
        return cls(tuple(pairs))


def crossing_pairs(m: PerfectMatching) -> int:
    """Number of unordered strand pairs that cross."""
    count = 0
    for (a1, b1), (a2, b2) in combinations(m.pairs, 2):
        if a1 < a2 < b1 < b2:
            count += 1
    return count


def find_mutually_crossing(m: PerfectMatching, size: int) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically first set of ``size`` mutually crossing strands, or None.

    A set of strands {(a_i, b_i)} crosses mutually iff, listed with the a_i
    increasing, the b_i increase as well and the last a is below the first b.
    The depth-first search below visits subsets in that order and stops at
    the first one of the wanted size.
    """
    if size <= 0:
        return ()
    strands = m.pairs  # already sorted by first endpoint
    chosen: list[tuple[int, int]] = []

    def extend(start: int) -> bool:
        if len(chosen) == size:
            return True
        # stop where too few strands remain to reach ``size``
        for idx in range(start, len(strands) - (size - len(chosen)) + 1):
            a, b = strands[idx]
            if chosen:
                if a >= chosen[0][1]:
                    break  # a's only grow past this point
                if b <= chosen[-1][1]:
                    continue
            chosen.append((a, b))
            if extend(idx + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


def max_mutual_crossing(m: PerfectMatching) -> int:
    """Largest j such that some j strands of m cross mutually."""
    size = 0
    while find_mutually_crossing(m, size + 1) is not None:
        size += 1
    return size


def enumerate_matchings(points: int) -> Iterator[PerfectMatching]:
    """All (points-1)!! perfect matchings of {1, ..., points}, smallest free point first."""
    if points % 2 != 0 or points < 0:
        raise ValueError(f"point count must be even and non-negative, got {points}")
    yield from (PerfectMatching(p) for p in _matchings_of(tuple(range(1, points + 1))))


def _matchings_of(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        b = points[i]
        rest = points[1:i] + points[i + 1:]
        for tail in _matchings_of(rest):
            yield ((a, b),) + tail


def enumerate_X(r: int, n: int) -> list[PerfectMatching]:
    """All (n+1)-noncrossing perfect matchings of {1, ..., 2r}, in enumeration order."""
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    return [m for m in enumerate_matchings(2 * r)
            if find_mutually_crossing(m, n + 1) is None]


def _obeys_block_rules(m: PerfectMatching, k: int) -> bool:
    """Split the points into blocks of k consecutive points: no pair lies inside
    one block, and the endpoints of any two crossing pairs occupy four blocks."""
    block = lambda p: (p - 1) // k
    if any(block(a) == block(b) for a, b in m.pairs):
        return False
    return all(len({block(a1), block(b1), block(a2), block(b2)}) == 4
               for (a1, b1), (a2, b2) in combinations(m.pairs, 2) if a1 < a2 < b1 < b2)


def enumerate_X_blocked(r: int, n: int, k: int) -> list[PerfectMatching]:
    """X(r, n, k): the matchings of X(kr/2, n) that obey both block rules for
    r blocks of k points, in enumeration order; empty when kr is odd."""
    if r < 1 or k < 1:
        raise ValueError(f"need r, k >= 1, got r={r}, k={k}")
    if (r * k) % 2 != 0:
        return []
    return [m for m in enumerate_X(r * k // 2, n) if _obeys_block_rules(m, k)]


def orbits(elements: Iterable, step: int = 1) -> list[int]:
    """Orbit sizes of the rotation-by-``step`` action, sorted descending.

    Raises ValueError with a witness if the set is not closed under the rotation.
    """
    pool = set(elements)
    sizes = []
    seen = set()
    for x in sorted(pool):
        if x in seen:
            continue
        size = 0
        y = x
        while True:
            seen.add(y)
            size += 1
            y = y.rotate(step)
            if y == x:
                break
            if y not in pool:
                raise ValueError(f"set not closed under rotation: {x} reaches {y}")
            if y in seen:
                break
        sizes.append(size)
    return sorted(sizes, reverse=True)


@dataclass(frozen=True, order=True)
class Diagram:
    """A Brauer diagram of shape (r, s): a matching of r top and s bottom points."""

    r: int
    s: int
    matching: PerfectMatching

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError(f"negative shape ({self.r}, {self.s})")
        if self.matching.n_points != self.r + self.s:
            raise ValueError(
                f"matching covers {self.matching.n_points} points, shape needs {self.r + self.s}")

    @classmethod
    def identity(cls, m: int) -> Diagram:
        return cls(m, m, PerfectMatching(tuple((i, m + i) for i in range(1, m + 1))))

    @property
    def propagating_number(self) -> int:
        return sum(1 for a, b in self.matching.pairs if a <= self.r < b)

    def __str__(self) -> str:
        if not self.matching.pairs:
            return "id_0"
        if self.r == 0:
            return str(self.matching)
        return f"{self.r}|{self.s}:{bend(self).matching}"

    @classmethod
    def parse(cls, text: str) -> Diagram:
        stripped = re.sub(r"\s+", "", text)
        if stripped == "id_0":
            return cls.identity(0)
        m = re.match(r"^(\d+)\|(\d+):", stripped)
        if m is None:
            pm = PerfectMatching.parse(stripped)
            return cls(0, pm.n_points, pm)
        r, s = int(m.group(1)), int(m.group(2))
        return unbend(PerfectMatching.parse(stripped[m.end():]), r, s)


def bend(d: Diagram) -> Diagram:
    """Flatten a diagram to shape (0, r+s).

    Top points are read right to left (top point i becomes boundary point
    r+1-i), bottom points keep their labels; this realizes Hom(r, s) = Hom(0, r+s).
    """
    relabel = lambda p: d.r + 1 - p if p <= d.r else p
    pm = PerfectMatching(tuple((relabel(a), relabel(b)) for a, b in d.matching.pairs))
    return Diagram(0, d.r + d.s, pm)


def unbend(m: PerfectMatching | Diagram, r: int, s: int) -> Diagram:
    """Inverse of :func:`bend` for the given target shape."""
    pm = m.matching if isinstance(m, Diagram) else m
    if pm.n_points != r + s:
        raise ValueError(f"matching covers {pm.n_points} points, shape needs {r + s}")
    relabel = lambda p: r + 1 - p if p <= r else p
    return Diagram(r, s, PerfectMatching(tuple((relabel(a), relabel(b)) for a, b in pm.pairs)))


def count_set_partitions(r: int, n: int) -> int:
    """Number of set partitions of {1..r} into at most n blocks."""
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")
    # Stirling numbers of the second kind, summed over block counts <= n.
    row = [1]  # S(0, 0)
    for m in range(1, r + 1):
        row = [0] + [row[j - 1] + j * row[j] if j < len(row) else row[j - 1]
                     for j in range(1, m + 1)]
    return sum(row[1:n + 1]) if r > 0 else 1


def iter_set_partitions(r: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of {1..r} with at most n blocks, as sorted block tuples."""
    if r == 0:
        yield ()
        return

    def grow(point: int, blocks: list[list[int]]):
        if point > r:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(point)
            yield from grow(point + 1, blocks)
            b.pop()
        if len(blocks) < n:
            blocks.append([point])
            yield from grow(point + 1, blocks)
            blocks.pop()

    yield from grow(1, [])

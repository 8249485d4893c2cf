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


def _crossing_chains(pairs: tuple[tuple[int, int], ...], want: int | None) -> tuple[int, tuple | None]:
    """Search mutually crossing strand subsets.

    A set of strands {(a_i, b_i)} crosses mutually iff, listed with the a_i
    increasing, the b_i increase as well and the last a is below the first b.
    Returns (largest size found, first subset of size ``want`` in
    lexicographic order or None).
    """
    strands = pairs  # already sorted by first endpoint
    best = 0
    found: tuple | None = None

    def extend(chosen: list, start: int, first_b: int):
        nonlocal best, found
        best = max(best, len(chosen))
        if want is not None and len(chosen) == want:
            if found is None:
                found = tuple(chosen)
            return
        for idx in range(start, len(strands)):
            if found is not None:
                return
            a, b = strands[idx]
            if chosen:
                la, lb = chosen[-1]
                if a >= first_b:
                    break  # a's only grow past this point
                if b <= lb:
                    continue
                extend(chosen + [(a, b)], idx + 1, first_b)
            else:
                extend(chosen + [(a, b)], idx + 1, b)

    extend([], 0, 0)
    return best, found


def max_mutual_crossing(m: PerfectMatching) -> int:
    """Largest j such that some j strands of m cross mutually."""
    if not m.pairs:
        return 0
    best, _ = _crossing_chains(m.pairs, None)
    return best


def find_mutually_crossing(m: PerfectMatching, size: int) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically first set of ``size`` mutually crossing strands, or None."""
    if size <= 0:
        return ()
    _, found = _crossing_chains(m.pairs, size)
    return found


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


@dataclass(frozen=True, order=True)
class BlockedMatching:
    """A matching of {1..kr} split into r blocks of k consecutive points.

    No pair may lie inside one block, and the endpoints of any two crossing
    pairs must occupy four distinct blocks.
    """

    base: PerfectMatching
    r: int
    k: int

    def __post_init__(self):
        if self.base.n_points != self.r * self.k:
            raise ValueError(f"matching covers {self.base.n_points} points, expected {self.r * self.k}")
        block = lambda p: (p - 1) // self.k
        for a, b in self.base.pairs:
            if block(a) == block(b):
                raise ValueError(f"pair ({a},{b}) lies inside block {block(a) + 1}")
        for (a1, b1), (a2, b2) in combinations(self.base.pairs, 2):
            if a1 < a2 < b1 < b2:
                blocks = {block(a1), block(b1), block(a2), block(b2)}
                if len(blocks) < 4:
                    raise ValueError(
                        f"crossing pairs ({a1},{b1}) and ({a2},{b2}) occupy only {len(blocks)} blocks")

    def rotate(self, step: int | None = None) -> BlockedMatching:
        """Rotate by one block (k points) unless an explicit point step is given."""
        return BlockedMatching(self.base.rotate(self.k if step is None else step), self.r, self.k)

    def __str__(self) -> str:
        return str(self.base)


def is_valid_blocked(m: PerfectMatching, r: int, k: int) -> bool:
    try:
        BlockedMatching(m, r, k)
    except ValueError:
        return False
    return True


def enumerate_X_blocked(r: int, n: int, k: int) -> list[BlockedMatching]:
    """All (n+1)-noncrossing matchings of {1..kr} satisfying both block rules."""
    if r < 1 or k < 1:
        raise ValueError(f"need r, k >= 1, got r={r}, k={k}")
    if (r * k) % 2 != 0:
        return []
    out = []
    for m in enumerate_matchings(r * k):
        if find_mutually_crossing(m, n + 1) is not None:
            continue
        if is_valid_blocked(m, r, k):
            out.append(BlockedMatching(m, r, k))
    return out


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
        if self.r == 0:
            return str(self.matching)
        return f"{self.r}|{self.s}:{bend(self).matching}"

    @classmethod
    def parse(cls, text: str) -> Diagram:
        stripped = re.sub(r"\s+", "", text)
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

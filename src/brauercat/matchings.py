"""Perfect matchings, rectangular diagrams and their crossing combinatorics.

A perfect matching of {1, ..., 2m} is stored as a canonical tuple of pairs:
each pair (a, b) with a < b, pairs sorted by first element.  A diagram of
shape (r, s) is a matching of r + s points, points 1..r being the top edge
(left to right) and r+1..r+s the bottom edge (left to right).

Two strands (a1, b1), (a2, b2) cross when a1 < a2 < b1 < b2; a matching is
(n+1)-noncrossing if no n+1 strands cross mutually.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .tableaux import count_strip_walks


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

    @classmethod
    def _from_canonical(cls, pairs: tuple[tuple[int, int], ...]) -> PerfectMatching:
        """Wrap pairs that are already a canonical perfect matching, unchecked;
        the enumerations, ``rotate``, ``bend`` and ``pfaffian`` build their
        outputs through this."""
        out = cls.__new__(cls)
        object.__setattr__(out, "pairs", pairs)
        return out

    @property
    def n_points(self) -> int:
        return 2 * len(self.pairs)

    def involution(self) -> list[int]:
        """The mate list: mate[p] is the partner of point p (mate[0] is unused)."""
        mate = [0] * (2 * len(self.pairs) + 1)
        for a, b in self.pairs:
            mate[a], mate[b] = b, a
        return mate

    def rotate(self, step: int = 1) -> PerfectMatching:
        """Advance every point label by ``step`` cyclically (i -> i + step mod 2m).
        A rotated matching is still a matching, so only the order is restored."""
        return PerfectMatching._from_canonical(_turned(self.pairs, step))

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.pairs)


def crossing_pairs(m: PerfectMatching) -> int:
    """Number of unordered strand pairs that cross.  The pairs are sorted by
    first end, so a later strand (a2, b2) crosses (a1, b1) when a2 < b1 < b2,
    and none does after the first with a2 > b1."""
    pairs = m.pairs
    count = 0
    for i, (_, b1) in enumerate(pairs):
        for a2, b2 in pairs[i + 1:]:
            if a2 > b1:
                break
            count += b1 < b2
    return count


def find_mutually_crossing(m: PerfectMatching, size: int) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically first set of ``size`` mutually crossing strands, or None."""
    return _first_mutually_crossing(m.pairs, size)


def _first_mutually_crossing(strands, size: int) -> tuple[tuple[int, int], ...] | None:
    """The first ``size`` mutually crossing strands of a list sorted by first endpoint.

    A set of strands {(a_i, b_i)} crosses mutually iff, listed with the a_i
    increasing, the b_i increase as well and the last a is below the first b.
    The depth-first search below visits subsets in that order and stops at
    the first one of the wanted size.
    """
    if size <= 0:
        return ()
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


def enumerate_matchings(points: int) -> Iterator[PerfectMatching]:
    """All (points-1)!! perfect matchings of {1, ..., points}, smallest free point first."""
    if points % 2 != 0 or points < 0:
        raise ValueError(f"point count must be even and non-negative, got {points}")
    yield from map(PerfectMatching._from_canonical, _matchings_of(tuple(range(1, points + 1))))


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
    """All (n+1)-noncrossing perfect matchings of {1, ..., 2r}, in the order of
    ``enumerate_matchings``, generated without building any other matching."""
    _check_plain(r, n)
    out: list[PerfectMatching] = []
    _search_X(2 * r, n, 1, 0, out)
    return out


def count_X(r: int, n: int, k: int | None = None) -> int:
    """|X(r, n)| (k None or 1) or |X(r, n, k)| (k > 1), without enumeration.

    X(r, n, k) spans the Sp(2n) invariants of (Sym^k V)^{(x) r}, so its size
    is the number of closed r-step strip walks of ``count_strip_walks`` (0
    when rk is odd), and X(r, n) is X(2r, n, 1): with k = 1 the walks are the
    oscillating tableaux of length 2r with at most n rows, onto which the
    bijection of Chen, Deng, Du, Stanley and Yan sends X(r, n).
    ``tests/test_matchings.py`` checks the count against the listing of
    ``enumerate_X_blocked`` for 2 <= k <= 5, rk <= 20 and n <= 3.
    """
    if k is None or k == 1:
        _check_plain(r, n)
        return count_strip_walks(2 * r, 1, n)
    _check_blocked(r, n, k)
    return count_strip_walks(r, k, n)


def _check_plain(r: int, n: int):
    if r < 0 or n < 1:
        raise ValueError(f"need r >= 0 and n >= 1, got r={r}, n={n}")


def enumerate_X_blocked(r: int, n: int, k: int) -> list[PerfectMatching]:
    """X(r, n, k), in the order of ``enumerate_matchings``; empty when kr is odd.

    The kr points form r blocks of k consecutive points.  A matching belongs
    when it is (n+1)-noncrossing, no pair lies inside one block, and the
    endpoints of any two crossing pairs occupy four blocks.
    """
    _check_blocked(r, n, k)
    out: list[PerfectMatching] = []
    _search_X(r * k, n, k, 0, out)
    return out


def _check_blocked(r: int, n: int, k: int):
    if r < 1 or n < 1 or k < 1:
        raise ValueError(f"need r, n, k >= 1, got r={r}, n={n}, k={k}")


def count_fixed_X(r: int, n: int, k: int, s: int) -> int:
    """Number of matchings in X(r, n, k) fixed by the s-th power of its rotation
    by k points; X(r, n) is X(2r, n, 1).  No matching is built."""
    _check_blocked(r, n, k)
    return _search_X(r * k, n, k, s * k % (r * k))


def _search_X(points: int, n: int, k: int, shift: int,
              out: list[PerfectMatching] | None = None) -> int:
    """Depth-first count of the matchings in X(points/k, n, k) that rotation by
    ``shift`` points fixes; at shift 0 each one is also appended to ``out``.

    The smallest free point a gets its partner b, tried in increasing order,
    and (a, b) is placed with its whole orbit under the rotation.  A placed
    strand (a', b') with a' < a crosses (a, b) exactly when a < b' < b, so
    scanning b upward, each passed right end b' joins that crossing set for
    good.  Once the set holds n strands with b' increasing with a' (an
    (n+1)-crossing with (a, b)), or an end in a's block, no larger b can
    work; b itself must avoid a's block and the blocks of the b' passed.

    At shift 0 every placed strand has a' < a, so the scan alone decides
    (a, b), and the placed strands are the canonical pairs.  Otherwise an
    image on a taken point refuses b, and (a, b) is checked against every
    placed strand it crosses: each forbidden configuration is invariant
    under the rotation, so it is met, rotated, when the last of its orbits
    is placed, with (a, b) among its strands.
    """
    if points % 2:
        return 0
    period = points // gcd(shift, points) if points else 1  # X(0, n) = {()}
    orbit = [tuple((p - 1 + i * shift) % points + 1 for i in range(period))
             for p in range(points + 1)] if period > 1 else None
    block = [(p - 1) // k for p in range(points + 1)]
    mate = [0] * (points + 1)  # partner of each placed point, 0 when free
    placed: list[tuple[int, int]] = []

    def allowed(a: int, b: int) -> bool:
        crossed = sorted((x, y) for x, y in placed if (a < x < b) != (a < y < b))
        ends = (block[a], block[b])
        if k > 1 and any(block[x] in ends or block[y] in ends for x, y in crossed):
            return False
        return len(crossed) < n or _first_mutually_crossing(crossed, n) is None

    def search(a: int) -> int:
        while a <= points and mate[a]:
            a += 1
        if a > points:
            if out is not None:
                out.append(PerfectMatching._from_canonical(tuple(placed)))
            return 1
        total = 0
        tails: list[int] = []  # tails[i]: least a' ending a chain of i + 1 such strands
        crossed_blocks = set()
        for b in range(a + 1, points + 1):
            left = mate[b]
            if left:
                if left < a:  # b is the right end of a strand (left, b) that (a, b) crosses
                    i = bisect_left(tails, left)
                    if i + 1 >= n or k > 1 and block[a] in (block[left], block[b]):
                        break
                    tails[i:i + 1] = (left,)
                    crossed_blocks.add(block[b])
                continue
            if k > 1 and (block[b] == block[a] or block[b] in crossed_blocks):
                continue
            if orbit is None:
                mate[a], mate[b] = b, a
                placed.append((a, b))
                total += search(a + 1)
                placed.pop()
                mate[a] = mate[b] = 0
                continue
            size = len(placed)
            for x, y in zip(orbit[a], orbit[b]):
                if mate[x] or mate[y]:
                    closed = mate[x] == y  # the orbit is complete
                    break
                mate[x], mate[y] = y, x
                placed.append((x, y) if x < y else (y, x))
            else:
                closed = True
            if closed and allowed(a, b):
                total += search(a + 1)
            for x, y in placed[size:]:
                mate[x] = mate[y] = 0
            del placed[size:]
        return total

    return search(1)


def orbits(elements: Iterable[PerfectMatching], step: int = 1) -> list[int]:
    """Orbit sizes of the rotation-by-``step`` action, sorted descending.

    The orbit sizes are the lengths of ``rotation_cycles``.  Raises ValueError
    with a witness if the set is not closed under the rotation.
    """
    pool = list(dict.fromkeys(x.pairs for x in elements))
    return sorted(map(len, rotation_cycles(pool, step)), reverse=True)


def rotation_cycles(pool: list[tuple[tuple[int, int], ...]], step: int = 1) -> list[list[int]]:
    """The cycles of rotation by ``step`` points on a list of distinct canonical
    pair tuples, as index lists: each cycle starts at its least index i and
    holds pool[i] rotated by 0, step, 2 step, ... points in that order.

    Each element is rotated once, giving a permutation of the pool's indices.
    Raises ValueError with a witness if the pool is not closed under the
    rotation.
    """
    index = {pairs: i for i, pairs in enumerate(pool)}
    image = []
    for pairs in pool:
        j = index.get(image_pairs := _turned(pairs, step))
        if j is None:
            raise ValueError(f"set not closed under rotation: {PerfectMatching(pairs)} "
                             f"reaches {PerfectMatching(image_pairs)}")
        image.append(j)
    cycles = []
    seen = [False] * len(pool)
    for start in range(len(pool)):
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = image[i]
        if cycle:
            cycles.append(cycle)
    return cycles


def _turned(pairs, step: int = 1, sign: int = 1) -> tuple[tuple[int, int], ...]:
    """The canonical pairs ``pairs`` moved by i -> sign (i - 1) + step + 1 mod 2m:
    rotation by ``step`` points, or with sign -1 and step -1 the reflection."""
    size = 2 * len(pairs)
    out = []
    for a, b in pairs:
        a, b = (sign * (a - 1) + step) % size + 1, (sign * (b - 1) + step) % size + 1
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return tuple(out)


def chord_key(pairs, dihedral: bool = False) -> tuple[int, ...]:
    """The key of a matching's orbit under rotation (and reflection, when
    ``dihedral``): the least rotation of its chord lengths s_i = (mate(i) - i)
    mod 2m.  Rotation shifts s and reflection sends it to reversed(2m - s),
    which has the same least entry; only rotations starting on it compete."""
    size = 2 * len(pairs)
    s = [0] * size
    for a, b in pairs:
        s[a - 1], s[b - 1] = b - a, size + a - b
    low = min(s, default=0)
    return min((tuple(t[i:] + t[:i]) for t in _chord_images(s, dihedral)
                for i in range(size) if t[i] == low), default=())


def chord_pairs(key) -> tuple[tuple[int, int], ...]:
    """The canonical pairs of the matching whose chord-length sequence is ``key``."""
    size = len(key)
    return tuple([(a, a + x) for a, x in enumerate(key, 1) if a + x <= size])


def chord_orbit(key, dihedral: bool = False) -> list[tuple[tuple[int, int], ...]]:
    """The canonical pairs of each matching in the orbit keyed by ``chord_key``,
    once each, read off the rotations (and reflections) of the sequence."""
    images = dict.fromkeys(tuple(t[i:] + t[:i]) for t in _chord_images(key, dihedral)
                           for i in range(len(key)))
    return [chord_pairs(t) for t in images]


def _chord_images(s, dihedral: bool) -> tuple:
    return (s, [len(s) - x for x in reversed(s)]) if dihedral else (s,)


def point_blocks(coeff: dict, points: int) -> list[int]:
    """The blocks of points 1..points joined by the point transpositions that
    preserve ``coeff``, a map from mate tuples (mate[0] unused) to
    coefficients: p and q share a block when block[p] == block[q].  The
    symmetric groups on the blocks preserve ``coeff``, and every
    transposition that does lies in their product."""
    block = list(range(points + 1))
    for i in range(1, points + 1):
        for j in range(i + 1, points + 1):
            if block[i] != block[j] and _preserves(coeff, i, j):
                old = block[j]
                block = [block[i] if b == old else b for b in block]
    return block


def _preserves(coeff: dict, i: int, j: int) -> bool:
    """Whether the point transposition (i j) maps each mate tuple of ``coeff``
    to one with the same coefficient: mate' = (i j) mate (i j)."""
    get = coeff.get
    for mate, c in coeff.items():
        mi, mj = mate[i], mate[j]
        if mi == j:  # the strand (i, j) is its own image
            continue
        image = list(mate)
        image[i], image[j], image[mi], image[mj] = mj, mi, j, i
        if get(tuple(image), 0) != c:
            return False
    return True


def orbit_key(pairs, labels) -> tuple:
    """The strands ``pairs`` with each point p read as labels[p], sorted: two
    matchings share the key exactly when a permutation of equally labelled
    points maps one onto the other."""
    ends = ((labels[a], labels[b]) for a, b in pairs)
    return tuple(sorted((u, v) if u <= v else (v, u) for u, v in ends))


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


def bend(d: Diagram) -> Diagram:
    """Flatten a diagram to shape (0, r+s).

    Top points are read right to left (top point i becomes boundary point
    r+1-i), bottom points keep their labels; this realizes Hom(r, s) = Hom(0, r+s).
    A flat diagram is its own bend.
    """
    return Diagram(0, d.r + d.s, _bent_matching(d)) if d.r else d


def _bent_matching(d: Diagram) -> PerfectMatching:
    """The matching of ``bend(d)``, built without the diagram.  Relabelling
    keeps a pair (a, b), a < b, increasing unless both ends are top points,
    so the canonical pairs take one swap per cap and one sort."""
    r = d.r
    if not r:
        return d.matching
    pairs = sorted((r + 1 - b, r + 1 - a) if b <= r else (r + 1 - a, b) if a <= r else (a, b)
                   for a, b in d.matching.pairs)
    return PerfectMatching._from_canonical(tuple(pairs))


def unbend(m: PerfectMatching | Diagram, r: int, s: int) -> Diagram:
    """Inverse of :func:`bend` for the given target shape."""
    pm = m.matching if isinstance(m, Diagram) else m
    if pm.n_points != r + s:
        raise ValueError(f"matching covers {pm.n_points} points, shape needs {r + s}")
    relabel = lambda p: r + 1 - p if p <= r else p
    return Diagram(r, s, PerfectMatching(tuple((relabel(a), relabel(b)) for a, b in pm.pairs)))


def iter_set_partitions(r: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of {1..r} with at most n blocks, as sorted block tuples."""
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

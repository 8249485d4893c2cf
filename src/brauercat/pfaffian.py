"""Kernel generators built from sums over sub-matchings, and the rewrite
system that reduces any morphism to its noncrossing normal form.

A generator picks a subset S of 2(n+1) boundary points and a fixed matching f
of the rest; it is the sum of s union f over all matchings s of S.  Rewriting
replaces the fully crossing matching of S by minus the sum of all others,
which strictly decreases the crossing count.  The rewriting runs on canonical
pair tuples (``_rewrite_pairs``); each output term is wrapped in a diagram once.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .category import Morphism
from .matchings import (Diagram, PerfectMatching, chord_key, chord_orbit, chord_pairs,
                        crossing_pairs, find_mutually_crossing, unbend, _bent_matching,
                        _first_mutually_crossing, _matchings_of, _turned)
from .scalars import as_scalar


@dataclass(frozen=True)
class PfGenerator:
    """A kernel generator: subset S of size 2(n+1) plus a matching f of the rest."""

    n: int
    points: int
    subset: tuple[int, ...]
    rest: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "subset", tuple(sorted(self.subset)))
        object.__setattr__(self, "rest",
                           tuple(sorted((min(a, b), max(a, b)) for a, b in self.rest)))
        if len(self.subset) != 2 * (self.n + 1):
            raise ValueError(f"subset has {len(self.subset)} points, expected {2 * (self.n + 1)}")
        covered = set(self.subset)
        for a, b in self.rest:
            covered.update((a, b))
        if len(covered) != self.points or covered != set(range(1, self.points + 1)) \
                or len(set(self.subset)) + 2 * len(self.rest) != self.points:
            raise ValueError("subset and fixed matching must partition the point set")


def pfaffian(g: PfGenerator, delta=None) -> Morphism:
    """Sum of all matchings of the subset, each completed by the fixed matching."""
    delta = None if delta is None else Fraction(delta)
    one = as_scalar(1, delta)
    terms = {}
    for s in _matchings_of(g.subset):
        pm = PerfectMatching._from_canonical(tuple(sorted(s + g.rest)))
        terms[Diagram(0, g.points, pm)] = one
    return Morphism._normalized(0, g.points, terms, delta)


def find_violation(d: Diagram, n: int) -> tuple[tuple[int, int], ...] | None:
    """Lexicographically smallest set of n+1 mutually crossing strands, or None."""
    return find_mutually_crossing(d.matching, n + 1)


def rewrite_step(d: Diagram, violation: tuple[tuple[int, int], ...],
                 delta=None) -> Morphism:
    """Replace the fully crossing matching on the violation's endpoints.

    Returns minus the sum over all other matchings of those endpoints, each
    completed by the untouched strands; d plus the result spans the relation.
    Every output term is checked to have strictly fewer crossing pairs.
    """
    violation = tuple(sorted(violation))
    if not set(violation) <= set(d.matching.pairs):
        raise ValueError("violation is not a strand subset of the diagram")
    subset = sorted(p for pair in violation for p in pair)
    if tuple(zip(subset, subset[len(violation):])) != violation:
        raise ValueError(f"strands {violation} do not cross mutually")
    points = d.matching.n_points
    delta = None if delta is None else Fraction(delta)
    minus_one = as_scalar(-1, delta)
    out = _rewrite_pairs(d.matching.pairs, violation, crossing_pairs(d.matching))
    terms = {Diagram(0, points, PerfectMatching._from_canonical(pairs)): minus_one
             for pairs, _ in out}
    return Morphism._normalized(0, points, terms, delta)


@cache
def _templates(k: int) -> list:
    """The matchings t of positions 0..2k-1 but the fully crossing (i, k+i), as
    (t, c, table): c is t's crossings less the fully crossing one's, and
    table[lo * (2k+1) + hi] the same for the crossings with a strand around
    positions lo..hi-1 (it crosses the strands with one end among them)."""
    full, w = tuple((i, k + i) for i in range(k)), range(2 * k + 1)
    enclosing = lambda t: [sum((lo <= i < hi) != (lo <= j < hi) for i, j in t)
                           for lo in w for hi in w]
    return [(t, crossing_pairs(PerfectMatching._from_canonical(t)) - k * (k - 1) // 2,
             [x - y for x, y in zip(enclosing(t), enclosing(full))])
            for t in _matchings_of(tuple(range(2 * k))) if t != full]


def _rewrite_pairs(pairs: tuple, violation: tuple, before: int):
    """Yield (pairs, crossings) for each matching but the fully crossing one of
    the sorted endpoints a_1..a_k b_1..b_k of the sorted violation, completed
    by the other strands of ``pairs`` (which has ``before`` crossings).  Each
    of those strands encloses an interval of the endpoints, so an output's
    count takes one ``_templates`` table entry per strand."""
    k = len(violation)
    subset = [a for a, _ in violation] + [b for _, b in violation]
    rest = [p for p in pairs if p not in violation]
    cells = [bisect(subset, a) * (2 * k + 1) + bisect(subset, b) for a, b in rest]
    for t, change, table in _templates(k):
        out = tuple(sorted(rest + [(subset[i], subset[j]) for i, j in t]))
        after = before + change + sum([table[c] for c in cells])
        if after >= before:
            raise AssertionError(f"crossing count did not decrease: {pairs} -> {out}")
        yield out, after


def normal_form(m: Morphism, n: int, _trace: list | None = None) -> Morphism:
    """Reduce a morphism to an equal one supported on (n+1)-noncrossing diagrams.

    Works on Hom(0, 2r); other shapes are bent flat before and unbent after.
    The (n+1)-noncrossing diagrams are a basis of the quotient (the second
    fundamental theorem), so the result does not depend on the rewrite order.
    Every rewrite lowers the crossing count, so coefficients are pushed down
    buckets keyed by crossing count, highest first: each matching is visited
    once, with its accumulated coefficient, and kept (noncrossing), skipped
    (cancelled to 0) or rewritten into lower buckets; below n(n+1)/2
    crossings, those of n+1 mutually crossing strands, it is kept unsearched.
    Buckets hold canonical pair tuples, which sort as their flat diagrams do,
    and rational coefficients as integer numerators over the lcm of the input
    denominators (no loop closes); one Diagram and one coefficient are built
    per output.

    Rotation and reflection permute the relations and the basis and keep
    crossing counts, so nf(g m) = g nf(m).  When ``_symmetry`` finds the bent
    input rotation-invariant, each bucket is folded into ``chord_key`` orbit
    keys carrying their mass (the sum of the elements' coefficients); the
    key's representative is rewritten and minus the mass pushed per output,
    which is exact, since every element rewritten by the image of that
    relation pushes the same.  A kept orbit gets coefficient mass/|orbit|.
    ``_trace`` (what ``normal-form --trace`` prints) keeps the plain route and
    receives each rewritten diagram, from most crossings down and in sorted
    order within a count.
    """
    if n < 1:
        raise ValueError(f"normal form needs rank n >= 1, got n = {n}")
    terms, den = m._integer_terms()
    points = m.r + m.s
    start = {_bent_matching(d).pairs: c for d, c in terms}
    dihedral = None if _trace is not None else _symmetry(start)
    if dihedral is None:  # the plain route: each matching is its own orbit
        fold, decode, expand = (lambda bucket: bucket), (lambda key: key), (lambda key: (key,))
    else:
        fold = lambda bucket: _fold(bucket, dihedral)
        decode, expand = chord_pairs, lambda key: chord_orbit(key, dihedral)
    buckets: dict[int, dict[tuple, object]] = {}

    def push(pairs: tuple, crossings: int, c) -> None:
        bucket = buckets.setdefault(crossings, {})
        bucket[pairs] = bucket.get(pairs, 0) + c

    for pairs, c in start.items():
        push(pairs, crossing_pairs(PerfectMatching._from_canonical(pairs)), c)
    least = n * (n + 1) // 2
    out: dict[tuple, object] = {}
    # rewrites fill lower buckets during the walk, so walk the counts, not a snapshot
    for k in range(max(buckets, default=-1), -1, -1):
        bucket = fold(buckets.pop(k, {}))
        for key in sorted(bucket):
            c = bucket[key]
            if not c:
                continue
            pairs = decode(key)
            violation = None if k < least else _first_mutually_crossing(pairs, n + 1)
            if violation is None:
                out[key] = c
                continue
            if _trace is not None:
                _trace.append(Diagram(0, points, PerfectMatching._from_canonical(pairs)))
            c = -c
            for e, crossings in _rewrite_pairs(pairs, violation, k):
                push(e, crossings, c)
    wrap = lambda pm: unbend(pm, m.r, m.s) if m.r else Diagram(0, points, pm)
    result = {}
    for key, c in out.items():
        orbit = expand(key)
        c = c * Fraction(1, den * len(orbit))  # den is 1 for formal coefficients
        for pairs in orbit:
            result[wrap(PerfectMatching._from_canonical(pairs))] = c
    return Morphism._normalized(m.r, m.s, result, m.delta)


def _symmetry(coeff: dict) -> bool | None:
    """None unless rotation by one point preserves the map from canonical pairs
    to coefficients (on most inputs the first term decides), else whether the
    reflection i -> N + 1 - i preserves it too (the dihedral group)."""
    first = next(iter(coeff), ())
    if not first or any(coeff.get(_turned(pairs)) != c for pairs, c in coeff.items()):
        return None
    return all(coeff.get(_turned(pairs, -1, -1)) == c for pairs, c in coeff.items())


def _fold(bucket: dict, dihedral: bool) -> dict:
    """A bucket's canonical pairs summed into their orbit keys (the masses)."""
    orbits: dict[tuple, object] = {}
    for pairs, c in bucket.items():
        if c:
            key = chord_key(pairs, dihedral)
            orbits[key] = orbits.get(key, 0) + c
    return orbits

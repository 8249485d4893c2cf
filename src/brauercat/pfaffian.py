"""Kernel generators built from sums over sub-matchings, and the rewrite
system that reduces any morphism to its noncrossing normal form.

A generator picks a subset S of 2(n+1) boundary points and a fixed matching f
of the rest; it is the sum of s union f over all matchings s of S.  Rewriting
replaces the fully crossing matching of S by minus the sum of all others,
which strictly decreases the crossing count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .category import Morphism
from .matchings import (Diagram, PerfectMatching, bend, crossing_pairs,
                        find_mutually_crossing, unbend, _matchings_of)
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
    terms = {}
    for s in _matchings_of(g.subset):
        pm = PerfectMatching(s + g.rest)
        terms[Diagram(0, g.points, pm)] = 1
    return Morphism(0, g.points, terms, delta)


def enumerate_pf_generators(n: int, points: int) -> Iterator[PfGenerator]:
    """All kernel generators on the given boundary, in a deterministic order."""
    size = 2 * (n + 1)
    if points < size or points % 2 != 0:
        return
    all_points = tuple(range(1, points + 1))
    for subset in combinations(all_points, size):
        rest_points = tuple(p for p in all_points if p not in subset)
        for f in _matchings_of(rest_points):
            yield PfGenerator(n, points, subset, f)


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
    strands = set(d.matching.pairs)
    if not set(violation) <= strands:
        raise ValueError("violation is not a strand subset of the diagram")
    k = len(violation)
    subset = tuple(sorted(p for pair in violation for p in pair))
    a_part, b_part = subset[:k], subset[k:]
    if tuple(zip(a_part, b_part)) != violation:
        raise ValueError(f"strands {violation} do not cross mutually")
    rest = tuple(sorted(strands - set(violation)))
    before = crossing_pairs(d.matching)
    terms = {}
    for s in _matchings_of(subset):
        if tuple(sorted(s)) == violation:
            continue
        pm = PerfectMatching(s + rest)
        after = crossing_pairs(pm)
        if after >= before:
            raise AssertionError(
                f"crossing count did not decrease: {d.matching} -> {pm} ({before} -> {after})")
        terms[Diagram(0, d.matching.n_points, pm)] = -1
    return Morphism(0, d.matching.n_points, terms, delta)


def normal_form(m: Morphism, n: int, _trace: list | None = None) -> Morphism:
    """Reduce a morphism to an equal one supported on (n+1)-noncrossing diagrams.

    Works on Hom(0, 2r); other shapes are bent flat, reduced, and unbent.
    The (n+1)-noncrossing diagrams are a basis of the quotient (the second
    fundamental theorem), so the result does not depend on the rewrite order:
    each distinct diagram is reduced once per call, to minus the sum of the
    reductions of its rewrite terms, and the result is reused by linearity.
    The recursion ends because every rewrite lowers the crossing count.
    ``_trace`` (what ``normal-form --trace`` prints) receives each rewritten
    diagram once, in order of first rewrite.
    """
    if m.r != 0:
        flat = Morphism(0, m.r + m.s,
                        {bend(d): c for d, c in m.terms.items()}, m.delta)
        reduced = normal_form(flat, n, _trace)
        return Morphism(m.r, m.s,
                        {unbend(d, m.r, m.s): c for d, c in reduced.terms.items()}, m.delta)

    memo: dict[Diagram, dict[Diagram, int]] = {}

    def reduce(d: Diagram) -> dict[Diagram, int]:
        out = memo.get(d)
        if out is not None:
            return out
        violation = find_violation(d, n)
        if violation is None:
            out = {d: 1}
        else:
            if _trace is not None:
                _trace.append(d)
            acc: dict[Diagram, int] = {}
            for term in rewrite_step(d, violation).terms:
                for e, k in reduce(term).items():
                    acc[e] = acc.get(e, 0) - k
            out = {e: k for e, k in acc.items() if k}
        memo[d] = out
        return out

    zero = as_scalar(0, m.delta)
    terms: dict[Diagram, object] = {}
    for d in sorted(m.terms):
        c = m.terms[d]
        for e, k in reduce(d).items():
            terms[e] = terms.get(e, zero) + c * k
    return Morphism(0, m.s, terms, m.delta)

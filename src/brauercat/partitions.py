"""Integer partitions as weakly decreasing tuples, with the usual statistics."""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterator


def is_partition(lam: tuple[int, ...]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)) \
        and all(p > 0 for p in lam)


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return lam


@cache
def partitions(m: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of m, largest part first, in reverse lexicographic order."""
    if m < 0:
        return ()
    if m == 0:
        return ((),)
    cap = m if max_part is None else min(max_part, m)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def z_order(lam: tuple[int, ...]) -> int:
    """Centralizer order of the cycle type: product of i^m_i * m_i!."""
    z = 1
    for part in set(lam):
        m = lam.count(part)
        z *= part ** m * factorial(m)
    return z


def sign_of_type(lam: tuple[int, ...]) -> int:
    """Sign of a permutation of the given cycle type."""
    return (-1) ** (sum(lam) - len(lam))


def hooks(lam: tuple[int, ...]) -> list[int]:
    """Hook lengths of all cells, row by row."""
    conj = conjugate(lam)
    return [lam[i] - j + conj[j] - i - 1
            for i in range(len(lam)) for j in range(lam[i])]


def format_partition(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def parse_partition(text: str) -> tuple[int, ...]:
    """Read a partition like 3,2,1 (optionally in brackets); a ValueError quotes the text."""
    body = text.strip()
    if not body or body == "[]":
        return ()
    try:
        lam = tuple(int(p) for p in body.strip("[]").split(","))
        if is_partition(lam):
            return lam
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not a partition: expected weakly decreasing "
                     f"positive integers like 3,2,1")


def cells_added(lam: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Partitions obtained by adding one cell."""
    ext = lam + (0,)
    for i in range(len(ext)):
        if i == 0 or ext[i] < ext[i - 1]:
            yield lam[:i] + (ext[i] + 1,) + lam[i + 1:]


def cells_removed(lam: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Partitions obtained by removing one cell."""
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            new = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
            new = tuple(p for p in new if p > 0)
            yield new

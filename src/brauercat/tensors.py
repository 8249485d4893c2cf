"""Evaluation of diagrams as exact equivariant tensors over symplectic space.

The defining 2n-dimensional space carries the skew form <e_i, f_j> = d_ij in
the basis e_1..e_n, f_1..f_n.  ``ev_diagram`` writes the tensor of a diagram
down in closed form: a crossing-parity sign times one symplectic pairing per
strand.  ``ev_sliced`` instead cuts the diagram into elementary layers (one
cup, cap or crossing each) and contracts the generator tensors in sequence;
it exists so tests can check that two different slicings agree with each
other and with the closed form.

Tensors are stored sparsely: a map from index tuples to exact values.  A
diagram on 2m points has only (2n)^m nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .category import Morphism
from .matchings import Diagram, bend, crossing_pairs


class Tensor:
    """Sparse exact multi-dimensional array; immutable by convention."""

    __slots__ = ("dims", "data")

    def __init__(self, dims: tuple[int, ...], data: dict | None = None):
        self.dims = tuple(dims)
        self.data = {k: v for k, v in (data or {}).items() if v}

    @classmethod
    def scalar(cls, value=1) -> Tensor:
        return cls((), {(): value} if value else {})

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.dims == other.dims and self.data == other.data

    def __hash__(self):
        return hash((self.dims, frozenset(self.data.items())))

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"shape mismatch: {self.dims} vs {other.dims}")
        data = dict(self.data)
        for k, v in other.data.items():
            data[k] = data.get(k, 0) + v
        return Tensor(self.dims, data)

    def __neg__(self):
        return Tensor(self.dims, {k: -v for k, v in self.data.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar) -> Tensor:
        if not scalar:
            return Tensor(self.dims)
        return Tensor(self.dims, {k: v * scalar for k, v in self.data.items()})

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def outer(self, other: Tensor) -> Tensor:
        data = {}
        for k1, v1 in self.data.items():
            for k2, v2 in other.data.items():
                data[k1 + k2] = v1 * v2
        return Tensor(self.dims + other.dims, data)

    def transpose(self, perm: tuple[int, ...]) -> Tensor:
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"bad axis permutation {perm}")
        dims = tuple(self.dims[p] for p in perm)
        data = {tuple(k[p] for p in perm): v for k, v in self.data.items()}
        return Tensor(dims, data)

    def contract(self, other: Tensor, self_axes: tuple[int, ...],
                 other_axes: tuple[int, ...]) -> Tensor:
        """Sum over paired axes; result keeps self's remaining axes then other's."""
        if len(self_axes) != len(other_axes):
            raise ValueError("axis lists differ in length")
        for a, b in zip(self_axes, other_axes):
            if self.dims[a] != other.dims[b]:
                raise ValueError(f"contracted axes disagree: {self.dims[a]} vs {other.dims[b]}")
        self_keep = [i for i in range(self.ndim) if i not in self_axes]
        other_keep = [i for i in range(other.ndim) if i not in other_axes]
        buckets: dict[tuple, list] = {}
        for k, v in other.data.items():
            key = tuple(k[a] for a in other_axes)
            buckets.setdefault(key, []).append((tuple(k[i] for i in other_keep), v))
        data: dict[tuple, object] = {}
        for k, v in self.data.items():
            key = tuple(k[a] for a in self_axes)
            hits = buckets.get(key)
            if not hits:
                continue
            left = tuple(k[i] for i in self_keep)
            for right, w in hits:
                full = left + right
                data[full] = data.get(full, 0) + v * w
        return Tensor(tuple(self.dims[i] for i in self_keep)
                      + tuple(other.dims[i] for i in other_keep), data)

    def to_dense(self):
        """Nested lists of values, for debugging at small sizes."""
        if not self.dims:
            return self.data.get((), 0)

        def build(prefix):
            axis = len(prefix)
            if axis == self.ndim:
                return self.data.get(tuple(prefix), 0)
            return [build(prefix + [i]) for i in range(self.dims[axis])]

        return build([])

    def dump(self) -> str:
        lines = [f"{','.join(map(str, k))}\t{v}" for k, v in sorted(self.data.items())]
        return "\n".join(lines)


class SymplecticSpace:
    """Rank-n symplectic space with the standard basis e_1..e_n, f_1..f_n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be at least 1")
        self.n = n
        self.dim = 2 * n

    def form(self, i: int, j: int) -> int:
        """<basis_i, basis_j> with indices 0..2n-1."""
        if j == i + self.n:
            return 1
        if i == j + self.n:
            return -1
        return 0

    def dual(self, i: int) -> tuple[int, int]:
        """Index and sign of the dual basis vector paired with basis_i."""
        if i < self.n:
            return i + self.n, -1
        return i - self.n, 1

    def form_matrix(self) -> list[list[int]]:
        return [[self.form(i, j) for j in range(self.dim)] for i in range(self.dim)]


def ev_generator(kind: str, n: int) -> Tensor:
    """Tensor of an elementary generator: "cup", "cap" or "crossing".

    Cup has two output slots, cap two input slots, crossing inputs then outputs.
    """
    sp = SymplecticSpace(n)
    d = sp.dim
    if kind == "cup":
        data = {}
        for i in range(d):
            j, sign = sp.dual(i)
            data[(i, j)] = sign
        return Tensor((d, d), data)
    if kind == "cap":
        data = {}
        for i in range(d):
            for j in range(d):
                v = sp.form(i, j)
                if v:
                    data[(i, j)] = v
        return Tensor((d, d), data)
    if kind == "crossing":
        data = {}
        for i in range(d):
            for j in range(d):
                data[(i, j, j, i)] = -1
        return Tensor((d, d, d, d), data)
    raise ValueError(f"unknown generator kind {kind!r}")


def identity_tensor(n: int) -> Tensor:
    d = 2 * n
    return Tensor((d, d), {(i, i): 1 for i in range(d)})


def ev_diagram(d: Diagram, n: int) -> Tensor:
    """Tensor of a diagram: slots are the r top points then the s bottom points.

    Closed form: the sign (-1)^(crossings of the flattened diagram) times one
    factor per strand (a, b), a < b, on the indices (i_a, i_b): the cap
    tensor <i_a, i_b> for a cap, the cup tensor (its negative) for a cup and
    the identity for a through strand.
    """
    sign = -1 if crossing_pairs(bend(d).matching) % 2 else 1
    cap, cup, ident = (list(t.data.items()) for t in (
        ev_generator("cap", n), ev_generator("cup", n), identity_tensor(n)))
    pairs = d.matching.pairs
    factors = [ident if a <= d.r < b else cap if b <= d.r else cup for a, b in pairs]
    data = {}
    key = [0] * (d.r + d.s)
    for choice in product(*factors):
        value = sign
        for (a, b), ((i, j), v) in zip(pairs, choice):
            key[a - 1], key[b - 1] = i, j
            value *= v
        data[tuple(key)] = value
    return Tensor((2 * n,) * (d.r + d.s), data)


def ev_sliced(d: Diagram, n: int, strategy: str) -> Tensor:
    """Tensor of a diagram contracted layer by layer from the generators.

    The diagram is sliced into layers of one cup, cap or crossing each; the
    "left" and "right" strategies use different layer orders, so comparing
    them with each other and with ev_diagram checks slicing independence.
    """
    if strategy not in ("left", "right"):
        raise ValueError(f"unknown slicing strategy {strategy!r}")
    left = strategy == "left"
    r = d.r
    wires = list(range(1, r + 1))  # the top point, later the bottom point, of each wire
    layers = []  # (generator kind, position of its left wire)

    def cross(p):
        layers.append(("crossing", p))
        wires[p:p + 2] = wires[p + 1], wires[p]

    caps = sorted((ab for ab in d.matching.pairs if ab[1] <= r),
                  key=lambda ab: ab[0] if left else -ab[1])
    for a, b in caps:
        pa, pb = wires.index(a), wires.index(b)
        if left:  # bring b leftwards next to a
            for p in range(pb - 1, pa, -1):
                cross(p)
        else:  # bring a rightwards next to b
            for p in range(pa, pb - 1):
                cross(p)
            pa = pb - 1
        layers.append(("cap", pa))
        del wires[pa:pa + 2]
    through = {a: b for a, b in d.matching.pairs if a <= r < b}
    wires[:] = [through[w] for w in wires]
    cups = sorted(ab for ab in d.matching.pairs if ab[0] > r)
    for a, b in (cups if left else reversed(cups)):
        p = len(wires) if left else 0
        layers.append(("cup", p))
        wires[p:p] = [a, b]
    passes = range(len(wires) - 1) if left else range(len(wires) - 2, -1, -1)
    unsorted = True
    while unsorted:  # bubble passes sort the wires by destination
        unsorted = False
        for p in passes:
            if wires[p] > wires[p + 1]:
                cross(p)
                unsorted = True

    # Axes: the r top slots, then one per open wire from left to right.
    t = Tensor.scalar(1)
    for _ in range(r):
        t = t.outer(identity_tensor(n))
    t = t.transpose(tuple(range(0, 2 * r, 2)) + tuple(range(1, 2 * r, 2)))
    generators = {kind: ev_generator(kind, n) for kind in ("cup", "cap", "crossing")}
    for kind, p in layers:
        if kind == "cup":
            t = t.outer(generators[kind])
        else:
            t = t.contract(generators[kind], (r + p, r + p + 1), (0, 1))
        if kind != "cap":  # move the two new output axes to wires p, p + 1
            rest = tuple(range(t.ndim - 2))
            t = t.transpose(rest[:r + p] + (t.ndim - 2, t.ndim - 1) + rest[r + p:])
    return t


def ev_morphism(m: Morphism, n: int) -> Tensor:
    """Linear extension of the diagram evaluation."""
    if m.delta is None:
        raise ValueError("evaluation needs coefficients specialized at delta = -2n")
    if m.delta != Fraction(-2 * n):
        raise ValueError(f"morphism specialized at delta={m.delta}, expected {-2 * n}")
    data: dict = {}
    for d, c in m.terms.items():
        for key, v in ev_diagram(d, n).data.items():
            value = data.pop(key, 0) + v * c
            if value:  # cancelled entries leave, so a vanishing sum stays small
                data[key] = value
    return Tensor((2 * n,) * (m.r + m.s), data)


def compose_maps(tx: Tensor, ty: Tensor, mid: int) -> Tensor:
    """Compose map tensors: contract tx's last ``mid`` slots with ty's first."""
    axes_x = tuple(range(tx.ndim - mid, tx.ndim))
    axes_y = tuple(range(mid))
    return tx.contract(ty, axes_x, axes_y)


def tensor_maps(tx: Tensor, shape_x: tuple[int, int],
                ty: Tensor, shape_y: tuple[int, int]) -> Tensor:
    """Side-by-side product of map tensors, with slots interleaved correctly."""
    r1, s1 = shape_x
    r2, s2 = shape_y
    raw = tx.outer(ty)
    perm = tuple(range(r1)) + tuple(r1 + s1 + i for i in range(r2)) \
        + tuple(r1 + i for i in range(s1)) + tuple(r1 + s1 + r2 + i for i in range(s2))
    return raw.transpose(perm)


def exact_rank(rows: list[list]) -> int:
    """Rank of an exact rational matrix by fraction-free elimination."""
    if not rows:
        return 0
    mat = []
    for row in rows:
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        mat.append([int(x * denom) if isinstance(x, Fraction) else x * denom for x in row])
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                mat[i][j] = (mat[rank][col] * mat[i][j] - mat[i][col] * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = mat[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_of_span(tensors: list[Tensor]) -> int:
    """Exact rank of the span, via the Gram matrix of the flattened tensors.

    Over the rationals the standard dot product is anisotropic, so the span
    and its Gram matrix have equal rank.
    """
    if not tensors:
        return 0
    dims = tensors[0].dims
    for t in tensors:
        if t.dims != dims:
            raise ValueError(f"shape mismatch: {t.dims} vs {dims}")
    gram = []
    for a in tensors:
        row = []
        for b in tensors:
            small, big = (a.data, b.data) if len(a.data) <= len(b.data) else (b.data, a.data)
            row.append(sum(v * big.get(k, 0) for k, v in small.items()))
        gram.append(row)
    return exact_rank(gram)


def symplectic_sample(n: int) -> list[dict[int, tuple[int, int]]]:
    """A few exact form-preserving monomial maps, as col -> (row, sign)."""
    d = 2 * n
    maps = []
    maps.append({j: (j, -1) for j in range(d)})  # -identity
    rot = {}
    for i in range(n):
        rot[i] = (i + n, 1)      # e_i -> f_i
        rot[i + n] = (i, -1)     # f_i -> -e_i
    maps.append(rot)
    if n >= 2:
        swap = {j: (j, 1) for j in range(d)}
        swap[0], swap[1] = (1, 1), (0, 1)
        swap[n], swap[n + 1] = (n + 1, 1), (n, 1)
        maps.append(swap)
    return maps

"""Evaluation of diagrams as exact equivariant tensors over symplectic space.

The defining 2n-dimensional space carries the skew form <e_i, f_j> = d_ij in
the basis e_1..e_n, f_1..f_n.  A diagram is sliced into elementary layers
(identities plus exactly one cup, cap or crossing per layer) and the layers
are contracted in sequence; two different slicing strategies are available so
independence of the slicing can be tested.

Tensors are stored sparsely: a map from index tuples to exact values.  A
diagram on 2m points has only (2n)^m nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from .category import Morphism
from .matchings import Diagram

_EV_CACHE: dict = {}


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


class _Wire:
    __slots__ = ("axis", "top", "dest")

    def __init__(self, axis=None, top=None, dest=None):
        self.axis = axis  # axis id in the accumulated tensor, or None if pending
        self.top = top    # originating top point, if any
        self.dest = dest  # bottom point this wire will reach, if known


class _Sweep:
    """Accumulates the tensor of a diagram layer by layer."""

    def __init__(self, d: Diagram, n: int):
        self.d = d
        self.n = n
        self.cup = ev_generator("cup", n)
        self.cap = ev_generator("cap", n)
        self.cross = ev_generator("crossing", n)
        self.ident = identity_tensor(n)
        self.tensor = Tensor.scalar(1)
        self.axes: list[int] = []       # axis ids, aligned with self.tensor.dims
        self.slot_of: dict[int, int] = {}  # axis id -> final slot index
        self.ids = count()
        self.wires: list[_Wire] = [_Wire(top=i) for i in range(1, d.r + 1)]

    def _new_id(self) -> int:
        return next(self.ids)

    def _materialize(self, w: _Wire):
        if w.axis is not None:
            return
        self.tensor = self.tensor.outer(self.ident)
        in_axis, wire_axis = self._new_id(), self._new_id()
        self.axes += [in_axis, wire_axis]
        self.slot_of[in_axis] = w.top - 1
        w.axis = wire_axis

    def _pos_of_axis(self, axis_id: int) -> int:
        return self.axes.index(axis_id)

    def apply_crossing(self, p: int):
        left, right = self.wires[p], self.wires[p + 1]
        self._materialize(left)
        self._materialize(right)
        pl, pr = self._pos_of_axis(left.axis), self._pos_of_axis(right.axis)
        self.tensor = self.tensor.contract(self.cross, (pl, pr), (0, 1))
        kept = [a for i, a in enumerate(self.axes) if i not in (pl, pr)]
        out1, out2 = self._new_id(), self._new_id()
        self.axes = kept + [out1, out2]
        # The crossing swaps the strands: out1 carries the old right wire.
        self.wires[p], self.wires[p + 1] = right, left
        right.axis, left.axis = out1, out2

    def apply_cap(self, p: int):
        left, right = self.wires[p], self.wires[p + 1]
        if left.axis is None and right.axis is None:
            self.tensor = self.tensor.outer(self.cap)
            a, b = self._new_id(), self._new_id()
            self.axes += [a, b]
            self.slot_of[a] = left.top - 1
            self.slot_of[b] = right.top - 1
        elif left.axis is None:
            pr = self._pos_of_axis(right.axis)
            self.tensor = self.tensor.contract(self.cap, (pr,), (1,))
            kept = [x for i, x in enumerate(self.axes) if i != pr]
            a = self._new_id()
            self.axes = kept + [a]
            self.slot_of[a] = left.top - 1
        elif right.axis is None:
            pl = self._pos_of_axis(left.axis)
            self.tensor = self.tensor.contract(self.cap, (pl,), (0,))
            kept = [x for i, x in enumerate(self.axes) if i != pl]
            b = self._new_id()
            self.axes = kept + [b]
            self.slot_of[b] = right.top - 1
        else:
            pl, pr = self._pos_of_axis(left.axis), self._pos_of_axis(right.axis)
            self.tensor = self.tensor.contract(self.cap, (pl, pr), (0, 1))
            self.axes = [x for i, x in enumerate(self.axes) if i not in (pl, pr)]
        del self.wires[p:p + 2]

    def apply_cup(self, p: int, dest_left: int, dest_right: int):
        self.tensor = self.tensor.outer(self.cup)
        a, b = self._new_id(), self._new_id()
        self.axes += [a, b]
        wl, wr = _Wire(axis=a, dest=dest_left), _Wire(axis=b, dest=dest_right)
        self.wires[p:p] = [wl, wr]

    def move_adjacent(self, src: int, dst: int):
        """Bubble the wire at position src next to dst via crossings."""
        while src > dst + 1:
            self.apply_crossing(src - 1)
            src -= 1
        while src < dst - 1:
            self.apply_crossing(src)
            src += 1

    def finish(self) -> Tensor:
        for w in self.wires:
            self._materialize(w)
            self.slot_of[w.axis] = self.d.r + (w.dest - self.d.r - 1)
        slots = [self.slot_of[a] for a in self.axes]
        perm = tuple(slots.index(t) for t in range(len(slots)))
        return self.tensor.transpose(perm)


def _slice_and_evaluate(d: Diagram, n: int, strategy: str) -> Tensor:
    r = d.r
    top_arcs = sorted((a, b) for a, b in d.matching.pairs if b <= r)
    bottom_arcs = sorted((a, b) for a, b in d.matching.pairs if a > r)
    through = {a: b for a, b in d.matching.pairs if a <= r < b}

    sweep = _Sweep(d, n)

    if strategy == "left":
        arcs = top_arcs
    elif strategy == "right":
        arcs = sorted(top_arcs, key=lambda ab: -ab[1])
    else:
        raise ValueError(f"unknown slicing strategy {strategy!r}")

    for a, b in arcs:
        pa = next(i for i, w in enumerate(sweep.wires) if w.top == a)
        pb = next(i for i, w in enumerate(sweep.wires) if w.top == b)
        if strategy == "left":
            sweep.move_adjacent(pb, pa)
            sweep.apply_cap(pa)
        else:
            sweep.move_adjacent(pa, pb)
            pb = next(i for i, w in enumerate(sweep.wires) if w.top == b)
            sweep.apply_cap(pb - 1)

    for w in sweep.wires:
        w.dest = through[w.top]

    if strategy == "left":
        for a, b in bottom_arcs:
            sweep.apply_cup(len(sweep.wires), a, b)
    else:
        for a, b in reversed(bottom_arcs):
            sweep.apply_cup(0, a, b)

    # Sort wires by destination with adjacent transpositions.
    changed = True
    while changed:
        changed = False
        rng = range(len(sweep.wires) - 1)
        for i in (rng if strategy == "left" else reversed(rng)):
            if sweep.wires[i].dest > sweep.wires[i + 1].dest:
                sweep.apply_crossing(i)
                changed = True

    return sweep.finish()


def ev_diagram(d: Diagram, n: int, strategy: str = "left") -> Tensor:
    """Tensor of a diagram: slots are the r top points then the s bottom points."""
    key = (d, n, strategy)
    cached = _EV_CACHE.get(key)
    if cached is None:
        cached = _EV_CACHE[key] = _slice_and_evaluate(d, n, strategy)
    return cached


def ev_morphism(m: Morphism, n: int, strategy: str = "left") -> Tensor:
    """Linear extension of the diagram evaluation."""
    if m.delta is None:
        raise ValueError("evaluation needs coefficients specialized at delta = -2n")
    if m.delta != Fraction(-2 * n):
        raise ValueError(f"morphism specialized at delta={m.delta}, expected {-2 * n}")
    total = Tensor((2 * n,) * (m.r + m.s))
    for d, c in m.terms.items():
        total = total + ev_diagram(d, n, strategy).scaled(c)
    return total


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

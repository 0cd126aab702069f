"""Braided operator layer: quantum symmetrizer, the T_n product, the phi_m
recursion, and dimensions of iterated adjoint images.

Everything acts on tensor powers V^(x)n (x) W through exact sparse matrices.
Every adjacent braiding is the one kernel ``ydmod.braiding`` placed at a
slot.  Braidings permute the factor list, so chains are composed while
tracking the factor order, and ``compose_chain`` checks that each chain
returns to it.  Ranks are computed per total-degree block: all braidings
preserve the product of the degrees along a basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator, Optional, Sequence

from .cyclotomic import CycMatrix, CycNum, echelon_rows, one
from .errors import InputError, InvariantViolationError, ResourceCapError
from .ydmod import YDModule, braiding

DEFAULT_DIM_CAP = 4096

#: The largest tensor power m (or n) an entry point accepts, checked before
#: any factor tuple is built.  One-dimensional modules keep every tensor power
#: at dimension 1, where DEFAULT_DIM_CAP never applies: an ``adjoint`` run on
#: a diagonal pair took a median 2.6 s at m = 100 and 5.7 s at 128 (six runs
#: each, 2 shared vCPUs, Python 3.11); at 320 it took over a minute.
MAX_ADJOINT_POWER = 128


@dataclass(frozen=True)
class BraidedTensor:
    """A tensor product of modules with row-major basis enumeration
    (leftmost factor most significant)."""

    factors: tuple[YDModule, ...]

    @property
    def dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.dim
        return d

    def index_to_tuple(self, idx: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            out.append(idx % f.dim)
            idx //= f.dim
        return tuple(reversed(out))

    def total_degree(self, idx: int) -> int:
        g = 0
        group = self.factors[0].group
        for f, t in zip(self.factors, self.index_to_tuple(idx)):
            g = group.mul(g, f.degree[t])
        return g


def adjacent_braiding(
    factors: Sequence[YDModule], slot: int
) -> tuple[CycMatrix, tuple[YDModule, ...]]:
    """Braiding at (slot, slot+1), 1-based: id (x) c_{a,b} (x) id with c the
    ``ydmod.braiding`` kernel.  Returns the matrix (codomain basis in the
    swapped factor order) and the new factor order."""
    factors = tuple(factors)
    k = slot - 1
    if not 0 <= k < len(factors) - 1:
        raise InputError(f"slot {slot} out of range for {len(factors)} factors")
    a, b = factors[k], factors[k + 1]
    prefix = BraidedTensor(factors[:k]).dim
    suffix = BraidedTensor(factors[k + 2 :]).dim
    stride = a.dim * b.dim * suffix
    dim = prefix * stride
    out = CycMatrix(dim, dim)
    data = out.data
    # the kernel's entry (r, c) sits at (x, x + (c - r) * suffix) for every row
    # x = p * stride + r * suffix + s, over prefix indices p and suffix indices s
    kernel = braiding(a, b).data
    for base in range(0, dim, stride):
        for r, row in kernel.items():
            span = range(base + r * suffix, base + (r + 1) * suffix)
            for c, val in row.items():
                d = (c - r) * suffix
                for x in span:
                    data.setdefault(x, {})[x + d] = val
    return out, factors[:k] + (b, a) + factors[k + 2 :]


def compose_chain(factors: Sequence[YDModule], slots: Sequence[int]) -> CycMatrix:
    """Compose adjacent braidings applied left-to-right in the given order.

    Every operator here starts and ends in the given factor order, so a chain
    that does not return to it is an internal error."""
    factors = tuple(factors)
    cur = factors
    total: Optional[CycMatrix] = None
    for slot in slots:
        m, cur = adjacent_braiding(cur, slot)
        total = m if total is None else m @ total
    if cur != factors:
        raise InvariantViolationError("braiding chain does not return to the factor order")
    return CycMatrix.identity(BraidedTensor(factors).dim) if total is None else total


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise ResourceCapError(f"tensor dimension {dim} exceeds cap {cap}")


def _check_power(k: int, name: str, least: int) -> None:
    """Bound a tensor power before any factor tuple or power is built."""
    if k < least:
        raise InputError(f"{name} must be >= {least}")
    if k > MAX_ADJOINT_POWER:
        raise ResourceCapError(f"{name} = {k} exceeds cap {MAX_ADJOINT_POWER}")


def t_operator(
    v: YDModule, w: YDModule, n: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """The product T_n = (id - C_1)(id - C_2)...(id - C_n) on V^(x)n (x) W,
    with C_j applying the adjacent braidings at slots j, j+1, ..., n, n."""
    _check_power(n, "n", 1)
    factors = (v,) * n + (w,)
    space = BraidedTensor(factors)
    _check_cap(space.dim, cap)
    ident = CycMatrix.identity(space.dim)
    total = ident
    for j in range(1, n + 1):
        total = total @ (ident - compose_chain(factors, list(range(j, n + 1)) + [n]))
    return total


def quantum_symmetrizer(
    v: YDModule, n: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """S_n on V^(x)n by the shuffle recursion
    S_{k+1} = (S_k (x) id)(id + c_k + c_k c_{k-1} + ... + c_k ... c_1)."""
    _check_power(n, "n", 1)
    _check_cap(v.dim**n, cap)
    s = CycMatrix.identity(v.dim)
    for k in range(1, n):
        factors = (v,) * (k + 1)
        dim = v.dim ** (k + 1)
        shuffle = CycMatrix.identity(dim)
        for i in range(1, k + 1):
            # the term c_k c_{k-1} ... c_{k-i+1}: rightmost factor applies first
            shuffle = shuffle + compose_chain(factors, list(range(k - i + 1, k + 1)))
        s = kron(s, CycMatrix.identity(v.dim)) @ shuffle
    return s


def kron(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    out = CycMatrix(a.rows * b.rows, a.cols * b.cols)
    for i, j, x in a.iter_entries():
        for k, l, y in b.iter_entries():
            out.set(i * b.rows + k, j * b.cols + l, x * y)
    return out


def _phi_levels(v: YDModule, w: YDModule) -> Iterator[CycMatrix]:
    """phi_1, phi_2, ... (see ``phi_operator``), each level built once from
    the one before.  Callers check the cap."""
    inner: Optional[CycMatrix] = None
    for m in count(1):
        factors = (v,) * m + (w,)
        ident = CycMatrix.identity(BraidedTensor(factors).dim)
        # double braiding moving slot 1 to the end and back
        out = ident - compose_chain(factors, list(range(1, m + 1)) + list(range(m, 0, -1)))
        if inner is not None:
            out = out + kron(CycMatrix.identity(v.dim), inner) @ compose_chain(factors, [1])
        yield out
        inner = out


def phi_operator(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """The recursion operator phi_m on V^(x)m (x) W:
    phi_m = id - c_{rest,V} c_{V,rest} + (id (x) phi_{m-1}) c_{1,2},
    with phi_1 = id - c^2 at the first two slots."""
    _check_power(m, "m", 1)
    _check_cap(v.dim**m * w.dim, cap)
    return next(islice(_phi_levels(v, w), m - 1, None))


def symmetrized_t(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> CycMatrix:
    """(S_m (x) id_W) T_m, whose image realizes the m-th adjoint power."""
    s = quantum_symmetrizer(v, m, cap)
    return kron(s, CycMatrix.identity(w.dim)) @ t_operator(v, w, m, cap)


def factorization_identity_holds(
    v: YDModule, w: YDModule, n: int, cap: int = DEFAULT_DIM_CAP
) -> bool:
    """Exact check of (S_{n+1} (x) id) T_{n+1} =
    phi_{n+1} (id (x) S_n (x) id)(id (x) T_n)."""
    lhs = symmetrized_t(v, w, n + 1, cap)
    id_v = CycMatrix.identity(v.dim)
    id_w = CycMatrix.identity(w.dim)
    mid = kron(id_v, kron(quantum_symmetrizer(v, n, cap), id_w))
    rhs = phi_operator(v, w, n + 1, cap) @ mid @ kron(id_v, t_operator(v, w, n, cap))
    return lhs == rhs


def graded_blocks(space: BraidedTensor) -> dict[int, list[int]]:
    """Basis indices grouped by total degree."""
    blocks: dict[int, list[int]] = {}
    for idx in range(space.dim):
        blocks.setdefault(space.total_degree(idx), []).append(idx)
    return blocks


def graded_rank(matrix: CycMatrix, space: BraidedTensor) -> tuple[int, list[tuple[int, int]]]:
    """Rank computed blockwise along the total-degree grading.

    Returns (rank, [(degree, block rank)]); raises InputError if the matrix
    mixes blocks (braided operators never do).  Each block's rows keep their
    global row and column ids, which orders the pivots as within the block."""
    blocks = graded_blocks(space)
    block_of = {}
    for d, idxs in blocks.items():
        for i in idxs:
            block_of[i] = d
    for i, j, _ in matrix.iter_entries():
        if block_of[i] != block_of[j]:
            raise InputError("matrix does not preserve the total-degree grading")
    rows = matrix.data
    per_block = []
    for d in sorted(blocks):
        block = CycMatrix(len(blocks[d]), space.dim, {i: rows[i] for i in blocks[d] if i in rows})
        per_block.append((d, block.rank()))
    return sum(r for _, r in per_block), per_block


def adjoint_power_dim(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> int:
    """Dimension of the m-th braided adjoint image of W under V: the rank of
    (S_m (x) id) T_m; m = 0 returns dim W."""
    return adjoint_power_report(v, w, m, cap)["dim"]


def adjoint_power_report(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> dict:
    """Per-block rank report for the CLI: degree tuples use group element names."""
    _check_power(m, "m", 0)
    if m == 0:
        return {"m": 0, "dim": w.dim, "per_block": []}
    space = BraidedTensor((v,) * m + (w,))
    total, per_block = graded_rank(symmetrized_t(v, w, m, cap), space)
    names = v.group.names
    return {
        "m": m,
        "dim": total,
        "per_block": [
            {"degree": names[d], "rank": r} for d, r in per_block if r > 0
        ],
    }


def x_space_dim(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> int:
    """Dimension of the iterated image X_m = phi_m(V (x) X_{m-1}), X_0 = W."""
    _check_power(m, "m", 0)
    if m:
        _check_cap(v.dim**m * w.dim, cap)
    basis: list[dict[int, CycNum]] = [{j: one()} for j in range(w.dim)]
    for k, phi in enumerate(islice(_phi_levels(v, w), m), start=1):
        cols: dict[int, list[tuple[int, CycNum]]] = {}
        for r, j, val in phi.iter_entries():
            cols.setdefault(j, []).append((r, val))
        prev_dim = v.dim ** (k - 1) * w.dim
        images: list[dict[int, CycNum]] = []
        for i in range(v.dim):
            for vec in basis:
                img: dict[int, CycNum] = {}
                for t, c in vec.items():
                    for r, val in cols.get(i * prev_dim + t, ()):
                        prev = img.get(r)
                        cur = val * c if prev is None else prev + val * c
                        if cur.is_zero():
                            img.pop(r, None)
                        else:
                            img[r] = cur
                if img:
                    images.append(img)
        pivots = echelon_rows(images)
        basis = [pivots[p] for p in sorted(pivots)]
    return len(basis)

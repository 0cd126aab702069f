"""Braided operator layer: quantum symmetrizer, the T_n product, the phi_m
recursion, and dimensions of iterated adjoint images.

Everything acts on tensor powers V^(x)n (x) W through exact sparse matrices.
Adjacent braidings permute the factor list, so chains are composed while
tracking the factor order; every operator used here starts and ends in the
standard order.  Ranks are computed per total-degree block: all braidings
preserve the product of the degrees along a basis tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, product
from typing import Iterator, Optional, Sequence

from .cyclotomic import CycMatrix, CycNum, echelon_rows, one
from .errors import InputError, ResourceCapError
from .ydmod import YDModule

DEFAULT_DIM_CAP = 4096


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

    def tuple_to_index(self, tup: Sequence[int]) -> int:
        idx = 0
        for f, t in zip(self.factors, tup):
            idx = idx * f.dim + t
        return idx

    def total_degree(self, idx: int) -> int:
        g = 0
        group = self.factors[0].group
        for f, t in zip(self.factors, self.index_to_tuple(idx)):
            g = group.mul(g, f.degree[t])
        return g

    def degree_tuple(self, idx: int) -> tuple[int, ...]:
        return tuple(
            f.degree[t] for f, t in zip(self.factors, self.index_to_tuple(idx))
        )


def adjacent_braiding(
    factors: Sequence[YDModule], slot: int
) -> tuple[CycMatrix, tuple[YDModule, ...]]:
    """Braiding at (slot, slot+1), 1-based; returns the matrix (codomain basis
    in the swapped factor order) and the new factor order."""
    factors = tuple(factors)
    k = slot - 1
    if not 0 <= k < len(factors) - 1:
        raise InputError(f"slot {slot} out of range for {len(factors)} factors")
    new_factors = factors[:k] + (factors[k + 1], factors[k]) + factors[k + 2 :]
    a, b = factors[k], factors[k + 1]
    prefix = BraidedTensor(factors[:k]).dim
    suffix = BraidedTensor(factors[k + 2 :]).dim
    out = CycMatrix(prefix * b.dim * a.dim * suffix, prefix * a.dim * b.dim * suffix)
    data = out.data
    # the nonzero entries (r, value) of column j of the action of degree g,
    # built once per (g, j)
    columns: dict[tuple[int, int], list[tuple[int, CycNum]]] = {}
    # domain tuples in row-major order: prefix, a-index i, b-index j, suffix;
    # e_i (x) e_j goes to sum_r act(g_i)[r, j] e_r (x) e_i
    domain = product(range(prefix), range(a.dim), range(b.dim), range(suffix))
    for idx, (p, i, j, s) in enumerate(domain):
        g = a.degree[i]
        column = columns.get((g, j))
        if column is None:
            rows = sorted(b.action(g).data.items())
            column = columns[g, j] = [
                (r, row[j]) for r, row in rows if j in row and not row[j].is_zero()
            ]
        for r, val in column:
            data.setdefault(((p * b.dim + r) * a.dim + i) * suffix + s, {})[idx] = val
    return out, new_factors


def compose_chain(
    factors: Sequence[YDModule], slots: Sequence[int]
) -> tuple[CycMatrix, tuple[YDModule, ...]]:
    """Compose adjacent braidings applied left-to-right in the given order."""
    cur = tuple(factors)
    total: Optional[CycMatrix] = None
    for slot in slots:
        m, cur = adjacent_braiding(cur, slot)
        total = m if total is None else m @ total
    if total is None:
        total = CycMatrix.identity(BraidedTensor(tuple(factors)).dim)
    return total, cur


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise ResourceCapError(f"tensor dimension {dim} exceeds cap {cap}")


def t_operator(
    v: YDModule, w: YDModule, n: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """The product T_n = (id - C_1)(id - C_2)...(id - C_n) on V^(x)n (x) W,
    with C_j applying the adjacent braidings at slots j, j+1, ..., n, n."""
    if n < 1:
        raise InputError("n must be >= 1")
    factors = (v,) * n + (w,)
    space = BraidedTensor(factors)
    _check_cap(space.dim, cap)
    ident = CycMatrix.identity(space.dim)
    total = ident
    for j in range(1, n + 1):
        slots = list(range(j, n + 1)) + [n]
        chain, final = compose_chain(factors, slots)
        if final != factors:
            raise InputError("braiding chain does not return to the standard order")
        total = total @ (ident - chain)
    return total


def quantum_symmetrizer(
    v: YDModule, n: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """S_n on V^(x)n by the shuffle recursion
    S_{k+1} = (S_k (x) id)(id + c_k + c_k c_{k-1} + ... + c_k ... c_1)."""
    if n < 1:
        raise InputError("n must be >= 1")
    _check_cap(v.dim**n, cap)
    s = CycMatrix.identity(v.dim)
    for k in range(1, n):
        factors = (v,) * (k + 1)
        dim = v.dim ** (k + 1)
        shuffle = CycMatrix.identity(dim)
        for i in range(1, k + 1):
            # the term c_k c_{k-1} ... c_{k-i+1}: rightmost factor applies first
            chain, final = compose_chain(factors, list(range(k - i + 1, k + 1)))
            if final != factors:
                raise InputError("braiding chain does not return to the standard order")
            shuffle = shuffle + chain
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
        slots = list(range(1, m + 1)) + list(range(m, 0, -1))
        big, final = compose_chain(factors, slots)
        if final != factors:
            raise InputError("braiding chain does not return to the standard order")
        out = ident - big
        if inner is not None:
            c12, _ = compose_chain(factors, [1])
            out = out + kron(CycMatrix.identity(v.dim), inner) @ c12
        yield out
        inner = out


def phi_operator(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> CycMatrix:
    """The recursion operator phi_m on V^(x)m (x) W:
    phi_m = id - c_{rest,V} c_{V,rest} + (id (x) phi_{m-1}) c_{1,2},
    with phi_1 = id - c^2 at the first two slots."""
    if m < 1:
        raise InputError("m must be >= 1")
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
    mixes blocks (braided operators never do)."""
    blocks = graded_blocks(space)
    block_of = {}
    for d, idxs in blocks.items():
        for i in idxs:
            block_of[i] = d
    for i, j, _ in matrix.iter_entries():
        if block_of[i] != block_of[j]:
            raise InputError("matrix does not preserve the total-degree grading")
    per_block = []
    total = 0
    for d in sorted(blocks):
        idxs = blocks[d]
        pos = {j: c for c, j in enumerate(idxs)}
        sub = CycMatrix(len(idxs), len(idxs))
        for i in idxs:
            row = matrix.data.get(i)
            if not row:
                continue
            for j, val in row.items():
                sub.set(pos[i], pos[j], val)
        r = sub.rank()
        per_block.append((d, r))
        total += r
    return total, per_block


def adjoint_power_dim(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> int:
    """Dimension of the m-th braided adjoint image of W under V: the rank of
    (S_m (x) id) T_m; m = 0 returns dim W."""
    if m < 0:
        raise InputError("m must be >= 0")
    if m == 0:
        return w.dim
    space = BraidedTensor((v,) * m + (w,))
    return graded_rank(symmetrized_t(v, w, m, cap), space)[0]


def adjoint_power_report(
    v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP
) -> dict:
    """Per-block rank report for the CLI: degree tuples use group element names."""
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
    if m < 0:
        raise InputError("m must be >= 0")
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

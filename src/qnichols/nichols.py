"""Braided operator layer: quantum symmetrizer, the T_n product, the phi_m
recursion, and dimensions of iterated adjoint images.

Everything acts on tensor powers V^(x)n (x) W as sparse vectors keyed by basis
tuples, one basis index per factor.  Every braiding is one slot step: the
``ydmod.braiding`` kernel applied to two adjacent factors of each tuple.  Steps
permute the factor list, so ``_chain`` tracks the factor order and checks that
each chain returns to it.  Operator matrices are built one column per basis
tuple; ranks are computed per total-degree block, which braidings preserve.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycMatrix, CycNum, echelon_rows, one
from .errors import InputError, InvariantViolationError, ResourceCapError
from .ydmod import YDModule, braiding

DEFAULT_DIM_CAP = 4096

#: The largest tensor power m (or n) an entry point accepts, checked before
#: any factor tuple is built; DEFAULT_DIM_CAP never bounds one-dimensional
#: modules.  ``adjoint`` on the diagonal pair q11 = 1, q12 q21 = z3, whose powers
#: never vanish, took a median 1.5 s at m = 100 and 3.0 s at 128 (q11 = -1: 0.27
#: and 0.35 s; 2 shared vCPUs, Python 3.11); at 320 it took 74 s in process.
MAX_ADJOINT_POWER = 128

#: A sparse vector of a tensor product: basis tuple -> nonzero coefficient.
Vector = dict[tuple[int, ...], CycNum]


def _acc(out: Vector, key: tuple[int, ...], value: CycNum) -> None:
    """out[key] += value, keeping no zero coefficient."""
    prev = out.get(key)
    cur = value if prev is None else prev + value
    if cur.is_zero():
        out.pop(key, None)
    else:
        out[key] = cur


def _apply(vec: Vector, image: Callable[[tuple], Vector]) -> Vector:
    """The linear map given on basis tuples by ``image``, applied to vec."""
    out: Vector = {}
    for t, c in vec.items():
        for s, x in image(t).items():
            _acc(out, s, x * c)
    return out


@lru_cache(maxsize=16)
def _kernel(a: YDModule, b: YDModule) -> dict[tuple[int, int], list]:
    """c_{a,b} from ``ydmod.braiding`` by column: (i, j) -> [((k, i), value)].
    Shared between calls, so read only."""
    cols: dict[tuple[int, int], list] = {}
    for r, row in braiding(a, b).data.items():
        for c, val in row.items():
            cols.setdefault(divmod(c, b.dim), []).append((divmod(r, a.dim), val))
    return cols


def _chain(vec: Vector, factors: tuple[YDModule, ...], slots: Iterable[int]) -> Vector:
    """Apply adjacent braidings at the given 1-based slots, left to right.

    The step at slot k applies the kernel c_{a,b} to factors k, k+1 of each
    tuple and swaps a, b in the factor order.  Every operator here starts and
    ends in the given factor order, so a chain that does not return to it is
    an internal error."""
    cur = factors
    for slot in slots:
        k = slot - 1
        a, b = cur[k], cur[k + 1]
        kernel = _kernel(a, b)
        out: Vector = {}
        for t, x in vec.items():
            for pair, val in kernel[t[k], t[k + 1]]:
                _acc(out, t[:k] + pair + t[k + 2 :], val * x)
        vec, cur = out, cur[:k] + (b, a) + cur[k + 2 :]
    if cur != factors:
        raise InvariantViolationError("braiding chain does not return to the factor order")
    return vec


def _t_image(factors: tuple[YDModule, ...], t: tuple[int, ...]) -> Vector:
    """T_n e_t, n = len(factors) - 1: the factor id - C_n applies first."""
    n = len(factors) - 1
    vec = {t: one()}
    for j in range(n, 0, -1):
        for s, x in _chain(vec, factors, [*range(j, n + 1), n]).items():
            _acc(vec, s, -x)
    return vec


def _s_image(v: YDModule, t: tuple[int, ...], k: int, memo: dict) -> Vector:
    """(S_k (x) id) e_t, with S_k on the first k factors V, memoised per head."""
    head, tail = t[:k], t[k:]
    got = memo.get(head)
    if got is None:
        got = {head: one()}
        for j in range(k - 1, 0, -1):
            for s, x in _chain({head: one()}, (v,) * k, range(j, k)).items():
                _acc(got, s, x)
        if k > 1:
            got = _apply(got, lambda s: _s_image(v, s, k - 1, memo))
        memo[head] = got
    return {s + tail: x for s, x in got.items()} if tail else got


def _phi_image(v: YDModule, w: YDModule, t: tuple[int, ...], memo: dict) -> Vector:
    """phi_m e_t on V^(x)m (x) W, m = len(t) - 1, memoised per tuple."""
    got = memo.get(t)
    if got is None:
        m = len(t) - 1
        factors = (v,) * m + (w,)
        got = {t: one()}
        # double braiding moving slot 1 to the end and back
        for s, x in _chain(got, factors, [*range(1, m + 1), *range(m, 0, -1)]).items():
            _acc(got, s, -x)
        if m > 1:
            for s, x in _chain({t: one()}, factors, [1]).items():
                for r, y in _phi_image(v, w, s[1:], memo).items():
                    _acc(got, s[:1] + r, y * x)
        memo[t] = got
    return got


def _matrix(factors: Sequence[YDModule], image: Callable[[tuple], Vector]) -> CycMatrix:
    """The matrix with one column per basis tuple t, holding image(t); tuples
    are indexed row-major (leftmost factor most significant)."""
    index = {t: k for k, t in enumerate(product(*(range(f.dim) for f in factors)))}
    out = CycMatrix(len(index), len(index))
    for t, col in index.items():
        for s, x in image(t).items():
            out.data.setdefault(index[s], {})[col] = x
    return out


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise ResourceCapError(f"tensor dimension {dim} exceeds cap {cap}")


def _check_power(k: int, name: str, least: int) -> None:
    """Bound a tensor power before any factor tuple or power is built."""
    if k < least:
        raise InputError(f"{name} must be >= {least}")
    if k > MAX_ADJOINT_POWER:
        raise ResourceCapError(f"{name} = {k} exceeds cap {MAX_ADJOINT_POWER}")


def t_operator(v: YDModule, w: YDModule, n: int) -> CycMatrix:
    """The product T_n = (id - C_1)(id - C_2)...(id - C_n) on V^(x)n (x) W,
    with C_j applying the adjacent braidings at slots j, j+1, ..., n, n."""
    _check_power(n, "n", 1)
    _check_cap(v.dim**n * w.dim, DEFAULT_DIM_CAP)
    factors = (v,) * n + (w,)
    return _matrix(factors, lambda t: _t_image(factors, t))


def quantum_symmetrizer(v: YDModule, n: int) -> CycMatrix:
    """S_n on V^(x)n by the shuffle recursion
    S_{k+1} = (S_k (x) id)(id + c_k + c_k c_{k-1} + ... + c_k ... c_1)."""
    _check_power(n, "n", 1)
    _check_cap(v.dim**n, DEFAULT_DIM_CAP)
    memo: dict = {}
    return _matrix((v,) * n, lambda t: _s_image(v, t, n, memo))


def phi_operator(v: YDModule, w: YDModule, m: int) -> CycMatrix:
    """The recursion operator phi_m on V^(x)m (x) W:
    phi_m = id - c_{rest,V} c_{V,rest} + (id (x) phi_{m-1}) c_{1,2},
    with phi_1 = id - c^2 at the first two slots."""
    _check_power(m, "m", 1)
    _check_cap(v.dim**m * w.dim, DEFAULT_DIM_CAP)
    memo: dict = {}
    return _matrix((v,) * m + (w,), lambda t: _phi_image(v, w, t, memo))


def symmetrized_t(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> CycMatrix:
    """(S_m (x) id_W) T_m, whose image realizes the m-th adjoint power.
    S_m is applied once per V^(x)m basis tuple within the call."""
    _check_power(m, "m", 1)
    _check_cap(v.dim**m, cap)
    _check_cap(v.dim**m * w.dim, cap)
    factors = (v,) * m + (w,)
    memo: dict = {}
    return _matrix(
        factors, lambda t: _apply(_t_image(factors, t), lambda s: _s_image(v, s, m, memo))
    )


def factorization_identity_holds(v: YDModule, w: YDModule, n: int) -> bool:
    """Exact check of (S_{n+1} (x) id) T_{n+1} =
    phi_{n+1} (id (x) S_n (x) id)(id (x) T_n)."""
    _check_power(n, "n", 1)
    lhs = symmetrized_t(v, w, n + 1)
    inner = (v,) * n + (w,)
    s_memo: dict = {}
    phi_memo: dict = {}

    def rhs(t: tuple[int, ...]) -> Vector:
        vec = _apply(_t_image(inner, t[1:]), lambda s: _s_image(v, s, n, s_memo))
        vec = {t[:1] + s: x for s, x in vec.items()}
        return _apply(vec, lambda s: _phi_image(v, w, s, phi_memo))

    return lhs == _matrix((v,) + inner, rhs)


def graded_rank(
    matrix: CycMatrix, factors: Sequence[YDModule]
) -> tuple[int, list[tuple[int, int]]]:
    """Rank computed blockwise along the total-degree grading of the tensor
    product of ``factors``.

    Returns (rank, [(degree, block rank)]); raises InputError if the matrix
    mixes blocks (braided operators never do).  Each block's rows keep their
    global row and column ids, which orders the pivots as within the block."""
    mul = factors[0].group.mul
    deg = [reduce(mul, ds, 0) for ds in product(*(f.degree for f in factors))]
    if any(deg[i] != deg[j] for i, j, _ in matrix.iter_entries()):
        raise InputError("matrix does not preserve the total-degree grading")
    blocks: dict[int, list[int]] = {}
    for idx, d in enumerate(deg):
        blocks.setdefault(d, []).append(idx)
    rows = matrix.data
    per_block = []
    for d in sorted(blocks):
        block = {i: rows[i] for i in blocks[d] if i in rows}
        per_block.append((d, CycMatrix(len(blocks[d]), len(deg), block).rank()))
    return sum(r for _, r in per_block), per_block


def adjoint_power_dim(v: YDModule, w: YDModule, m: int) -> int:
    """Dimension of the m-th braided adjoint image of W under V: the rank of
    (S_m (x) id) T_m; m = 0 returns dim W."""
    return adjoint_power_report(v, w, m)["dim"]


def adjoint_power_report(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> dict:
    """Per-block rank report for the CLI: degree tuples use group element names."""
    _check_power(m, "m", 0)
    if m == 0:
        return {"m": 0, "dim": w.dim, "per_block": []}
    total, per_block = graded_rank(symmetrized_t(v, w, m, cap), (v,) * m + (w,))
    names = v.group.names
    per_block = [{"degree": names[d], "rank": r} for d, r in per_block if r > 0]
    return {"m": m, "dim": total, "per_block": per_block}


def x_space_dim(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> int:
    """Dimension of the iterated image X_m = phi_m(V (x) X_{m-1}), X_0 = W,
    with phi evaluated on the basis vectors of each level directly."""
    _check_power(m, "m", 0)
    if m:
        _check_cap(v.dim**m * w.dim, cap)
    basis: list[Vector] = [{(j,): one()} for j in range(w.dim)]
    memo: dict = {}
    for _ in range(m):
        pivots = echelon_rows(
            _apply(vec, lambda t: _phi_image(v, w, (i,) + t, memo))
            for i in range(v.dim)
            for vec in basis
        )
        basis = [pivots[p] for p in sorted(pivots)]
    return len(basis)

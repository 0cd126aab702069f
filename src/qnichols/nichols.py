"""Braided operator layer: quantum symmetrizer, the T_n product, the phi_m
recursion, and dimensions of iterated adjoint images.

Everything acts on tensor powers V^(x)n (x) W as sparse vectors keyed by basis
tuples, one basis index per factor.  Every braiding is one slot step: the
``ydmod.braiding`` kernel applied to two adjacent factors of each tuple.  Steps
permute the factor list, so ``_chain`` tracks the factor order and checks that
each chain returns to it.  Operator matrices are built one column per basis
tuple.

Braidings preserve the total degree and commute with the diagonal action of
the group, so h maps the degree-d part of every operator's image onto the
degree h d h^-1 part.  The adjoint-power report and the x-space therefore
compute one total-degree block per conjugacy class, at its least element, and
read the conjugate blocks off it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import mul
from typing import Callable, Iterable, Sequence

from .cyclotomic import CycMatrix, CycNum, echelon_rows, one
from .envgroup import FinGroup
from .errors import InputError, InvariantViolationError, ResourceCapError
from .ydmod import YDModule, braiding

DEFAULT_DIM_CAP = 4096

#: The largest tensor power m (or n) an entry point accepts, checked before
#: any factor tuple is built; DEFAULT_DIM_CAP never bounds one-dimensional
#: modules.  ``adjoint`` on the diagonal pair q11 = 1, q12 q21 = z3, whose powers
#: never vanish, took a median 0.35 s at m = 100 and 0.49 s at 128 (q11 = -1:
#: 0.18 and 0.19 s; five CLI runs each, 2 shared vCPUs, Python 3.11); at 320 it
#: took 2.7 s in process.
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


def _columns(matrix: CycMatrix) -> dict[int, list[tuple[int, CycNum]]]:
    """The nonzero entries of a matrix by column: j -> [(i, value)]."""
    cols: dict[int, list[tuple[int, CycNum]]] = {}
    for r, row in matrix.data.items():
        for c, val in row.items():
            cols.setdefault(c, []).append((r, val))
    return cols


@lru_cache(maxsize=16)
def _kernel(a: YDModule, b: YDModule) -> dict[tuple[int, int], list]:
    """c_{a,b} from ``ydmod.braiding`` by column: (i, j) -> [((k, i), value)].
    Shared between calls, so read only."""
    return {
        divmod(c, b.dim): [(divmod(r, a.dim), val) for r, val in col]
        for c, col in _columns(braiding(a, b)).items()
    }


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
        # the shuffle sum e + c_{k-1} e + c_{k-1} c_{k-2} e + ... + c_{k-1}...c_1 e
        # in Horner form: u_j = c_j(u_{j-1} + e), one slot step per j
        got = {}
        for j in range(1, k):
            _acc(got, head, one())
            got = _chain(got, (v,) * k, [j])
        _acc(got, head, one())
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


def _st_image(v: YDModule, factors: tuple[YDModule, ...], t: tuple[int, ...], memo: dict) -> Vector:
    """(S_m (x) id) T_m e_t, m = len(factors) - 1, with S_m memoised in memo."""
    m = len(factors) - 1
    return _apply(_t_image(factors, t), lambda s: _s_image(v, s, m, memo))


def _act(vecs: list[Vector], v: YDModule, w: YDModule, h: int) -> list[Vector]:
    """h . x for each x in V^(x)m (x) W, h acting diagonally on the factors."""
    col_v, col_w = _columns(v.actions[h]), _columns(w.actions[h])

    def image(t: tuple[int, ...]) -> Vector:
        out: Vector = {}
        for terms in product(*(col_v[i] for i in t[:-1]), col_w[t[-1]]):
            _acc(out, tuple(i for i, _ in terms), reduce(mul, (x for _, x in terms)))
        return out

    return [_apply(x, image) for x in vecs]


def _least_conjugate(group: FinGroup, d: int) -> tuple[int, int]:
    """(r, h): the least element r of the conjugacy class of d, and an h with
    h r h^-1 = d, found by conjugating with the generators."""
    gens = group.generator_ids or range(group.order)
    moved = {d: 0}  # x -> some g with g d g^-1 = x
    frontier = [d]
    for x in frontier:
        for s in gens:
            y = group.conj(s, x)
            if y not in moved:
                moved[y] = group.mul(s, moved[x])
                frontier.append(y)
    r = min(moved)
    return r, group.inv(moved[r])


def _degrees(factors: Sequence[YDModule]) -> list[int]:
    """The total degree of each basis tuple of the tensor product, row-major."""
    return [reduce(factors[0].group.mul, ds, 0) for ds in product(*(f.degree for f in factors))]


def _matrix(factors: Sequence[YDModule], image: Callable[[tuple], Vector]) -> CycMatrix:
    """The matrix with one column per basis tuple t, holding image(t); tuples
    are indexed row-major (leftmost factor most significant)."""
    index = {t: k for k, t in enumerate(product(*(range(f.dim) for f in factors)))}
    out = CycMatrix(len(index), len(index))
    for t, col in index.items():
        for s, x in image(t).items():
            out.data.setdefault(index[s], {})[col] = x
    return out


def _check_budget(cap: int) -> None:
    """Refuse a cap that no tensor space could meet, whatever the power."""
    if cap < 1:
        raise InputError(f"cap must be at least 1, got {cap}")


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
    _check_budget(cap)
    _check_power(m, "m", 1)
    _check_cap(v.dim**m * w.dim, cap)
    factors = (v,) * m + (w,)
    memo: dict = {}
    return _matrix(factors, lambda t: _st_image(v, factors, t, memo))


def graded_rank(
    matrix: CycMatrix, factors: Sequence[YDModule]
) -> tuple[int, list[tuple[int, int]]]:
    """Rank computed blockwise along the total-degree grading of the tensor
    product of ``factors``.

    Returns (rank, [(degree, block rank)]); raises InputError if the matrix
    mixes blocks (braided operators never do).  Each block's rows keep their
    global row and column ids, which orders the pivots as within the block."""
    deg = _degrees(factors)
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
    """Per-block rank report for the CLI: degree tuples use group element names.

    The columns of (S_m (x) id) T_m are built and ranked only for the block of
    the least degree r of each conjugacy class; every degree h r h^-1 gets the
    rank of r, since h maps the one block onto the other."""
    _check_budget(cap)
    _check_power(m, "m", 0)
    if m == 0:
        return {"m": 0, "dim": w.dim, "per_block": []}
    _check_cap(v.dim**m * w.dim, cap)
    factors = (v,) * m + (w,)
    deg = _degrees(factors)
    rep = {d: _least_conjugate(v.group, d)[0] for d in set(deg)}
    blocks: dict[int, list[tuple[int, ...]]] = {r: [] for r in rep.values()}
    for t, d in zip(product(*(range(f.dim) for f in factors)), deg):
        if rep[d] == d:
            blocks[d].append(t)
    memo: dict = {}
    rank = {
        r: len(echelon_rows(_st_image(v, factors, t, memo) for t in ts))
        for r, ts in blocks.items()
    }
    names = v.group.names
    per_block = [{"degree": names[d], "rank": rank[rep[d]]} for d in sorted(rep)]
    return {
        "m": m,
        "dim": sum(b["rank"] for b in per_block),
        "per_block": [b for b in per_block if b["rank"] > 0],
    }


def _x_components(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> dict[int, int]:
    """dim X_m[d] for every degree d with X_m[d] != 0; see ``x_space_dim``.

    At each level phi and the elimination run only at the least degree r of
    each class: X_k[r] is phi_k of the span of e_i (x) X_{k-1}[deg(i)^-1 r].
    Every other component is transported, X_k[h r h^-1] = h . X_k[r], because
    braidings commute with the diagonal action."""
    _check_budget(cap)
    _check_power(m, "m", 0)
    if m:
        _check_cap(v.dim**m * w.dim, cap)
    group = v.group
    level: dict[int, list[Vector]] = {}
    for j, d in enumerate(w.degree):
        level.setdefault(d, []).append({(j,): one()})
    dims = {d: len(vecs) for d, vecs in level.items()}
    memo: dict = {}
    for k in range(1, m + 1):
        degrees = {group.mul(g, d) for g in set(v.degree) for d in level}
        classes = {e: _least_conjugate(group, e) for e in degrees}
        found: dict[int, list[Vector]] = {}
        for r in sorted({r for r, _ in classes.values()}):
            pivots = echelon_rows(
                _apply(vec, lambda t: _phi_image(v, w, (i,) + t, memo))
                for i in range(v.dim)
                for vec in level.get(group.mul(group.inv(v.degree[i]), r), ())
            )
            if pivots:
                found[r] = [pivots[p] for p in sorted(pivots)]
        dims = {e: len(found[r]) for e, (r, _) in classes.items() if r in found}
        if k < m:
            level = {
                e: found[r] if e == r else _act(found[r], v, w, h)
                for e, (r, h) in classes.items()
                if r in found
            }
    return dims


def x_space_dim(v: YDModule, w: YDModule, m: int, cap: int = DEFAULT_DIM_CAP) -> int:
    """Dimension of the iterated image X_m = phi_m(V (x) X_{m-1}), X_0 = W,
    with phi evaluated on basis vectors at one degree per conjugacy class of
    each level (see ``_x_components``)."""
    return sum(_x_components(v, w, m, cap).values())

"""Group-graded modules with conjugation-compatible actions, and their braidings.

A module over a FinGroup is a basis with a group-element degree per basis
vector and an exact action matrix per group element; the compatibility
h . V_g <= V_{hgh^-1} makes the braiding c(v (x) w) = (g.w) (x) v well defined.
Only rank-one centralizer characters are constructed natively; anything
higher-dimensional can be supplied as explicit matrices.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Optional, Sequence

from .cyclotomic import CycMatrix, CycNum, one
from .envgroup import FinGroup, catalog_envelope
from .errors import InputError, ResourceCapError


class YDModule:
    """A Yetter-Drinfeld module given by degrees and per-element action matrices."""

    def __init__(
        self,
        group: FinGroup,
        degree: Sequence[int],
        actions: Sequence[CycMatrix],
    ):
        self.group = group
        self.degree = tuple(degree)
        self.dim = len(self.degree)
        if len(actions) != group.order:
            raise InputError("need one action matrix per group element")
        self.actions = tuple(actions)
        self._validate()

    def _validate(self) -> None:
        g = self.group
        ident = CycMatrix.identity(self.dim)
        if self.actions[0] != ident:
            raise InputError("identity must act as the identity matrix")
        for a in self.actions:
            if (a.rows, a.cols) != (self.dim, self.dim):
                raise InputError("action matrix shape mismatch")
        # multiplicativity: checking generators against everything extends by induction
        gens = g.generator_ids or tuple(range(g.order))
        for s in gens:
            for t in range(g.order):
                if self.actions[s] @ self.actions[t] != self.actions[g.mul(s, t)]:
                    raise InputError("action matrices are not multiplicative")
        # YD compatibility: s maps the degree-d component into degree s d s^-1
        for s in range(g.order):
            for i, j, v in self.actions[s].iter_entries():
                if self.degree[i] != g.conj(s, self.degree[j]):
                    raise InputError("action violates the grading compatibility")

    def __repr__(self) -> str:
        return f"YDModule(dim={self.dim}, degrees={self.degree})"


def extend_character(
    group: FinGroup, subgroup: Sequence[int], character: dict[int, CycNum]
) -> dict[int, CycNum]:
    """Extend a character given on generators multiplicatively over a subgroup.

    One pass over the reached elements a and the generators s sets
    values[a s] = values[a] chi(s).  A pass without a clash is a homomorphism:
    every element of a finite group is a positive word in its generators.
    Raises InputError when the values clash (non-multiplicative character)
    or the given elements do not generate the subgroup."""
    sub = set(subgroup)
    for x in character:
        if x not in sub:
            raise InputError(f"character argument {x} lies outside the subgroup")
    values: dict[int, CycNum] = {0: one()}
    reached = [0]
    for a in reached:  # grows as the pass reaches new elements
        for s, chi in character.items():
            prod = group.mul(a, s)
            want = values[a] * chi
            cur = values.get(prod)
            if cur is None:
                values[prod] = want
                reached.append(prod)
            elif cur != want:
                raise InputError("character is not multiplicative on the centralizer")
    if set(values) != sub:
        raise InputError("character generators do not generate the centralizer")
    return values


def induced_module(
    group: FinGroup, class_rep: int, character: dict[int, CycNum]
) -> YDModule:
    """Simple module attached to a conjugacy class and a centralizer character.

    Basis indexed by the class (ascending element ids); coset representatives
    u_t are minimal in the element order, making all matrices reproducible."""
    centralizer = group.centralizer(class_rep)
    chi = extend_character(group, centralizer, character)
    cls = sorted(group.conjugacy_class_of(class_rep))
    index = {t: k for k, t in enumerate(cls)}
    reps = {}
    for t in cls:
        reps[t] = next(u for u in range(group.order) if group.conj(u, class_rep) == t)
    actions = []
    for s in range(group.order):
        m = CycMatrix(len(cls), len(cls))
        for i, t in enumerate(cls):
            t2 = group.conj(s, t)
            j = index[t2]
            # u_{t2}^{-1} s u_t lies in the centralizer of the class rep
            c = group.mul(group.inv(reps[t2]), group.mul(s, reps[t]))
            m.set(j, i, chi[c])
        actions.append(m)
    return YDModule(group, cls, actions)


def braiding(v: YDModule, w: YDModule) -> CycMatrix:
    """Matrix of c(x (x) y) = (deg(x).y) (x) x from V (x) W to W (x) V.

    Columns indexed by (i, j) = i*dim(W)+j, rows by (k, i) = k*dim(V)+i."""
    if v.group is not w.group:
        raise InputError("braiding requires modules over the same group")
    out = CycMatrix(w.dim * v.dim, v.dim * w.dim)
    data = out.data
    for i in range(v.dim):
        for k, row in w.actions[v.degree[i]].data.items():
            data[k * v.dim + i] = {i * w.dim + j: val for j, val in row.items()}
    return out


# -- concrete constructions ------------------------------------------------------


#: The largest abelian group built, from an explicit group or a diagonal spec.
#: Its multiplication table has order^2 entries: at the cap Z_32 x Z_32 takes
#: about 3.7 s and a diagonal ``adjoint`` run about 60 MiB; order 1,296 takes
#: 5.1 s and 86 MiB.
MAX_GROUP_ORDER = 1024


def abelian_group(orders: Sequence[int]) -> FinGroup:
    """Direct product of cyclic groups as a FinGroup (identity = all zeros)."""
    if not isinstance(orders, (list, tuple)) or not orders or any(
        type(n) is not int or n < 1 for n in orders  # JSON true is no order
    ):
        raise InputError("orders must be a nonempty list of positive integers")
    total = 1
    for n in orders:
        total *= n
    if total > MAX_GROUP_ORDER:
        raise ResourceCapError(f"abelian group order {total} exceeds cap {MAX_GROUP_ORDER}")

    # element a is the mixed-radix number of its digit tuple, first factor
    # most significant, so the digit tuples come in product order; row a adds
    # a's digits to every element, one digit per factor
    strides = [1] * len(orders)
    for k in range(len(orders) - 1, 0, -1):
        strides[k - 1] = strides[k] * orders[k]
    digits = list(itertools.product(*(range(n) for n in orders)))
    mult = [
        [
            sum(t)
            for t in itertools.product(
                *([(x + y) % n * s for y in range(n)] for x, n, s in zip(da, orders, strides))
            )
        ]
        for da in digits
    ]
    names = ["*".join(f"t{k}^{x}" for k, x in enumerate(da) if x) or "e" for da in digits]
    gens = [s if n > 1 else 0 for n, s in zip(orders, strides)]
    return FinGroup(mult, names, generator_ids=gens, check=False)


#: The largest multiplicative order ``root_of_unity_order`` looks for.
MAX_ROOT_ORDER = 256


def root_of_unity_order(x: CycNum) -> int:
    """Multiplicative order of a root of unity; InputError if not one."""
    acc = x
    for k in range(1, MAX_ROOT_ORDER + 1):
        if acc == one():
            return k
        acc = acc * x
    raise InputError("scalar is not a root of unity of small order")


def diagonal_pair(
    q11: CycNum, q12: CycNum, q21: CycNum, q22: CycNum
) -> tuple[YDModule, YDModule]:
    """Two one-dimensional modules realizing a given diagonal braiding matrix.

    Build Z_N x Z_N with N the lcm of the scalar orders; V sits in degree
    (1,0) with character q11^x q21^y, W in degree (0,1) with q12^x q22^y, so
    c(v (x) w) = q12 w (x) v and c(w (x) v) = q21 v (x) w.
    """
    n = lcm(*(root_of_unity_order(q) for q in (q11, q12, q21, q22)))
    group = abelian_group([n, n])
    g_v = group.generator_ids[0]
    g_w = group.generator_ids[1]

    def dim1(deg: int, chi_gv: CycNum, chi_gw: CycNum) -> YDModule:
        actions = []
        for a in range(group.order):
            x, y = divmod(a, n)
            m = CycMatrix(1, 1)
            m.set(0, 0, chi_gv**x * chi_gw**y)
            actions.append(m)
        return YDModule(group, [deg], actions)

    return dim1(g_v, q11, q21), dim1(g_w, q12, q22)


def transposition_module(sign: Optional[CycNum] = None) -> YDModule:
    """The dim-3 module over the symmetric-group-on-3-letters envelope:
    class of a transposition with the order-2 centralizer character."""
    env, _ = catalog_envelope("(12)^S3")
    rep = env.images[0]
    chi_val = sign if sign is not None else CycNum.rational(-1)
    # the centralizer {e, rep} is generated by the class representative itself
    return induced_module(env.group, rep, {rep: chi_val})

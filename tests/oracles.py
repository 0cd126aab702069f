"""Reference implementations that the tests compare the library against.

No command runs these, so they live beside the tests rather than in
``src/qnichols``; pytest does not collect this module (its name does not start
with ``test_``), and test modules import it as ``oracles``.
"""

import cmath
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from qnichols import nichols as N
from qnichols import quandle as Q
from qnichols.cyclotomic import CycMatrix, CycNum, echelon_rows
from qnichols.envgroup import FinGroup, catalog_envelope
from qnichols.errors import InputError, ResourceCapError
from qnichols.supportcalc import (
    MAX_CENSUS_SIZE,
    DegreeTuple,
    TwoOrbitContext,
    census_splits,
    two_orbit_candidates,
)
from qnichols.weyl import ID2, NEG_ID2, Mat2, eta, mat_mul
from qnichols.ydmod import YDModule


def cyc_matrix(entries: Sequence[Sequence]) -> CycMatrix:
    """The matrix with the given rows; entries are CycNums, ints or Fractions."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    m = CycMatrix(rows, cols)
    for i, row in enumerate(entries):
        if len(row) != cols:
            raise InputError("ragged matrix")
        for j, v in enumerate(row):
            m.set(i, j, v if isinstance(v, CycNum) else CycNum.rational(v))
    return m


def matrix_sum(*terms: CycMatrix) -> CycMatrix:
    """The entrywise sum of matrices of one shape."""
    out = CycMatrix(terms[0].rows, terms[0].cols)
    for m in terms:
        for i, j, v in m.iter_entries():
            out.set(i, j, out.get(i, j) + v)
    return out


def approx(x: CycNum) -> complex:
    """Floating evaluation of x at exp(2 pi i / N): a sanity net for the
    exact arithmetic, not a truth source."""
    z = cmath.exp(2j * cmath.pi / x.N)
    return sum(float(c) * z**k for k, c in enumerate(x.coeffs))


def stores_no_zero(m: CycMatrix) -> bool:
    """Whether m stores no zero entry and no empty row, which CycMatrix
    equality relies on."""
    return all(row and not any(v.is_zero() for v in row.values()) for row in m.data.values())


# -- acceptance criterion 4: the symmetrizer factorization ---------------------


def factorization_identity_holds(v: YDModule, w: YDModule, n: int) -> bool:
    """Exact check of (S_{n+1} (x) id) T_{n+1} =
    phi_{n+1} (id (x) S_n (x) id)(id (x) T_n)."""
    N._check_power(n, "n", 1)
    lhs = N.symmetrized_t(v, w, n + 1)
    inner = (v,) * n + (w,)
    s_memo: dict = {}
    phi_memo: dict = {}

    def rhs(t: tuple[int, ...]) -> N.Vector:
        vec = N._apply(N._t_image(inner, t[1:]), lambda s: N._s_image(v, s, n, s_memo))
        vec = {t[:1] + s: x for s, x in vec.items()}
        return N._apply(vec, lambda s: N._phi_image(v, w, s, phi_memo))

    return lhs == N._matrix((v,) + inner, rhs)


# -- acceptance criterion 5: adjoint dimensions by the symmetrizer rank --------


def symmetrizer_report(v: YDModule, w: YDModule, m: int, cap: int = N.DEFAULT_DIM_CAP) -> dict:
    """``nichols.adjoint_power_report`` without its ``x_space_dim`` key, from
    the rank of (S_m (x) id) T_m instead of the x-space.

    Its columns are built and ranked only for the block of the least degree r
    of each conjugacy class; every degree h r h^-1 gets the rank of r, since h
    maps the one block onto the other."""
    N._check_budget(cap)
    N._check_power(m, "m", 0)
    if m == 0:
        return {"m": 0, "dim": w.dim, "per_block": []}
    N._check_cap(v.dim**m * w.dim, cap)
    factors = (v,) * m + (w,)
    deg = N._degrees(factors)
    rep = {d: min(v.group.conjugators(d)) for d in set(deg)}
    blocks: dict[int, list[tuple[int, ...]]] = {r: [] for r in rep.values()}
    for t, d in zip(product(*(range(f.dim) for f in factors)), deg):
        if rep[d] == d:
            blocks[d].append(t)
    memo: dict = {}

    def st_image(t: tuple[int, ...]) -> N.Vector:
        return N._apply(N._t_image(factors, t), lambda s: N._s_image(v, s, m, memo))

    rank = {r: len(echelon_rows(st_image(t) for t in ts)) for r, ts in blocks.items()}
    names = v.group.names
    per_block = [{"degree": names[d], "rank": rank[rep[d]]} for d in sorted(rep)]
    return {
        "m": m,
        "dim": sum(b["rank"] for b in per_block),
        "per_block": [b for b in per_block if b["rank"] > 0],
    }


# -- acceptance criterion 6: the support expansion ------------------------------


def conj_word(ctx: TwoOrbitContext, word: Sequence[int], x: int) -> int:
    """(w_1 w_2 ... w_k) > x, rightmost acting first."""
    for w in reversed(word):
        x = ctx.quandle.op(w, x)
    return x


def phi_support_expand(
    ctx: TwoOrbitContext, p: int, t_support: Iterable[DegreeTuple]
) -> Counter:
    """Multiset of degree tuples emitted by expanding the recursion operator
    applied to a degree-p vector tensored against tuples of t_support.

    Each source tuple of length m+1 emits, for every cut position j, the
    kept-slot family (p>p'_1, ..., p>p'_{j-1}, p, p'_j, ..., p'_{m+1}) and the
    pushed-through family with the long conjugator p p'_j ... p'_{m+1} > p.
    A certificate is a target tuple of multiplicity exactly one.
    """
    out: Counter = Counter()
    for t in t_support:
        m1 = len(t)
        for j in range(1, m1 + 1):
            prefix = tuple(ctx.quandle.op(p, t[k]) for k in range(j - 1))
            kept = prefix + (p,) + t[j - 1 :]
            conjugator = conj_word(ctx, (p,) + t[j - 1 :], p)
            pushed = prefix + (conjugator,) + tuple(
                ctx.quandle.op(p, t[k]) for k in range(j - 1, m1)
            )
            out[kept] += 1
            out[pushed] += 1
    return out


# -- presentations and characters: the searches the library replaced ----------


def enveloping_presentation_cyclic(q: Q.Quandle) -> tuple[tuple[int, ...], ...]:
    """The relators of ``envgroup.enveloping_presentation`` found by search:
    (i, j, -i, -(i > j)) for every pair i != j, skipped when it or the inverse
    of it is a cyclic rotation of a relator kept before it."""

    def rotations(w: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [w[k:] + w[:k] for k in range(len(w))]

    relators: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for i in q.elements():
        for j in q.elements():
            if i == j:
                continue
            word = (i, j, -i, -q.op(i, j))
            inverse = tuple(-v for v in reversed(word))
            if word in seen or any(w in seen for w in rotations(inverse)):
                continue
            seen.update(rotations(word))
            relators.append(word)
    return tuple(relators)


def extend_character_all_pairs(
    group: FinGroup, subgroup: Sequence[int], character: dict[int, CycNum]
) -> dict[int, CycNum]:
    """``ydmod.extend_character`` by closure: multiply every pair of reached
    elements in both orders until nothing new is reached, raising InputError
    on a conflict or when the given elements do not generate the subgroup."""
    sub = set(subgroup)
    if any(x not in sub for x in character):
        raise InputError("character argument lies outside the subgroup")
    values: dict[int, CycNum] = {0: CycNum.rational(1)}
    for x, v in character.items():
        if x in values and values[x] != v:
            raise InputError("character conflicts with identity value")
        values[x] = v
    frontier = list(values)
    while frontier:
        a = frontier.pop()
        for b in list(values):
            for x, y in ((a, b), (b, a)):
                prod = group.mul(x, y)
                want = values[x] * values[y]
                cur = values.get(prod)
                if cur is None:
                    values[prod] = want
                    frontier.append(prod)
                elif cur != want:
                    raise InputError("character is not multiplicative")
    if set(values) != sub:
        raise InputError("character generators do not generate the subgroup")
    return values


# -- closures ------------------------------------------------------------------


def stack_closure(start: int, step: Callable[[int], Iterable[int]]) -> set[int]:
    """Every point reachable from start by repeated steps, by a stack search.
    Given each map and its inverse, it needs no finiteness argument: the
    oracle for the forward-only orbits of ``quandle.orbits``."""
    out, frontier = {start}, [start]
    while frontier:
        for y in step(frontier.pop()):
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


# -- finite groups: isomorphisms, subgroups, quotients and isoclinism ----------


def element_order(g: FinGroup, a: int) -> int:
    """The order of the element a of g, by repeated multiplication."""
    k, x = 1, a
    while x != 0:
        x = g.mult[x][a]
        k += 1
    return k


def symmetric_group_table(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The permutations of 0..n-1 in lexicographic order, the identity first,
    and their multiplication table: (p q)(i) = p(q(i))."""
    perms = list(permutations(range(n)))
    return perms, [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]


def class_by_all_conjugates(g: FinGroup, a: int) -> tuple[int, ...]:
    """The conjugacy class of a, conjugating by every element of g."""
    return tuple(sorted({g.mult[g.mult[t][a]][g.inverse[t]] for t in range(g.order)}))


def center_by_all_elements(g: FinGroup) -> tuple[int, ...]:
    """The elements of g that commute with every element."""
    n = g.order
    return tuple(x for x in range(n) if all(g.mult[x][y] == g.mult[y][x] for y in range(n)))


def commutator_subgroup_by_all_pairs(g: FinGroup) -> tuple[int, ...]:
    """Every commutator a b a^-1 b^-1 of g, closed under products."""
    n, m, inv = g.order, g.mult, g.inverse
    out = {m[m[a][b]][m[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    while True:
        more = {m[x][y] for x in out for y in out} - out
        if not more:
            return tuple(sorted(out))
        out |= more


def iter_isomorphisms(
    g: FinGroup, h: FinGroup, partial: Optional[dict[int, int]] = None
) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h (as image tuples), honoring a partial map.

    One ``quandle.embeddings`` search on the multiplication table of g,
    shifted to 1-based labels: each element's candidates are the elements of
    h of the same order, or its one prescribed image."""
    if g.order != h.order:
        return
    by_order: dict[int, list[int]] = {}
    for x in range(h.order):
        by_order.setdefault(element_order(h, x), []).append(x)
    partial = partial or {}
    candidates = [
        [partial[a]] if a in partial else by_order.get(element_order(g, a), [])
        for a in range(g.order)
    ]
    table = [[c + 1 for c in row] for row in g.mult]
    yield from Q.embeddings(table, h.mul, candidates)


def induced_hom(
    q: Q.Quandle,
    f: dict[int, object],
    mul: Callable,
    inv: Callable,
) -> Optional[Callable]:
    """Word evaluator for the group map induced by f when f respects conjugation.

    Checks f(x>y) = f(x) f(y) f(x)^{-1} for all pairs; on success returns an
    evaluator sending a signed quandle word to a product in the target."""
    for i in q.elements():
        for j in q.elements():
            lhs = f[q.op(i, j)]
            rhs = mul(mul(f[i], f[j]), inv(f[i]))
            if lhs != rhs:
                return None

    def evaluate(word: Sequence[int], identity):
        out = identity
        for v in word:
            out = mul(out, f[v] if v > 0 else inv(f[-v]))
        return out

    return evaluate


def subgroup(g: FinGroup, elems: Sequence[int]) -> tuple[FinGroup, dict[int, int]]:
    """The subgroup of g on the given closed element set, with the id relabeling."""
    elems = sorted(set(elems))
    if 0 not in elems:
        raise InputError("subgroup must contain the identity")
    pos = {x: k for k, x in enumerate(elems)}
    try:
        mult = [[pos[g.mult[a][b]] for b in elems] for a in elems]
    except KeyError:
        raise InputError("element set is not closed under multiplication")
    return FinGroup(mult, [g.names[x] for x in elems], check=False), pos


def quotient(g: FinGroup, normal: Sequence[int]) -> tuple[FinGroup, tuple[int, ...]]:
    """G / N for a normal subgroup N; returns the quotient and the projection."""
    nset = frozenset(normal)
    if 0 not in nset:
        raise InputError("normal subgroup must contain identity")
    for t in range(g.order):
        if any(g.conj(t, x) not in nset for x in nset):
            raise InputError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for a in range(g.order):
        if a in coset_of:
            continue
        rep_id = len(reps)
        for x in nset:
            coset_of[g.mult[a][x]] = rep_id
        reps.append(a)
    k = len(reps)
    mult = [[coset_of[g.mult[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    proj = tuple(coset_of[a] for a in range(g.order))
    return FinGroup(mult, [g.names[r] for r in reps], check=False), proj


def gamma_envelope(n: int) -> tuple[FinGroup, int, int, int]:
    """The group Gamma_n of the paper as the catalog envelope of Z_n^{n,2}, for
    n = 2, 3, 4: (group, eps, h, g), with g and h the images of the first
    element of the first and second inner orbits and eps = [h, g]."""
    name = f"Z_{n}^{{{n},2}}"
    env, _ = catalog_envelope(name)
    orb1, orb2 = Q.inner_orbits(Q.catalog(name))
    g, h = env.images[orb1[0] - 1], env.images[orb2[0] - 1]
    return env.group, env.group.commutator(h, g), h, g


def isoclinism_witness(
    g: FinGroup, h: FinGroup, bound: int = 64
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Brute-force search for a compatible pair of isomorphisms
    (G/Z(G) -> H/Z(H), [G,G] -> [H,H]); None when no pair exists."""
    if g.order > bound or h.order > bound:
        raise ResourceCapError(f"isoclinism search bounded at order {bound}")
    qg, projg = quotient(g, g.center())
    qh, projh = quotient(h, h.center())
    dg, posg = subgroup(g, g.commutator_subgroup())
    dh, posh = subgroup(h, h.commutator_subgroup())
    if qg.order != qh.order or dg.order != dh.order:
        return None
    # coset representatives: first preimage
    repg = [projg.index(c) for c in range(qg.order)]
    reph = [projh.index(c) for c in range(qh.order)]
    for zeta in iter_isomorphisms(qg, qh):
        constraint: dict[int, int] = {}
        ok = True
        for a in range(qg.order):
            for b in range(qg.order):
                cg = posg[g.commutator(repg[a], repg[b])]
                ch = posh[h.commutator(reph[zeta[a]], reph[zeta[b]])]
                if constraint.setdefault(cg, ch) != ch:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        eta = next(iter_isomorphisms(dg, dh, partial=constraint), None)
        if eta is not None:
            return zeta, eta
    return None


# -- the labeled census and the known connected quandles ----------------------

#: Indecomposable quandles of size <= 6, keyed by catalog name.
INDECOMPOSABLE_NAMES = (
    "trivial(1)",
    "(12)^S3",
    "(123)^A4",
    "Aff(5,2)",
    "Aff(5,3)",
    "Aff(5,4)",
    "(12)^S4",
    "(1234)^S4",
)


def affine_quandle(n: int, a: int) -> Q.Quandle:
    """Aff(n, a) on Z_n, labeled 1..n: x > y = a y + (1 - a) x (mod n).  For n
    prime and a = 2..n-1 these are the connected quandles of order n, since
    every connected quandle of prime order is affine (Etingof, Soloviev and
    Guralnick 2001)."""
    return Q.Quandle(
        [[(a * y + (1 - a) * x) % n + 1 for y in range(n)] for x in range(n)]
    )


@lru_cache(maxsize=None)
def labeled_quandles(n: int) -> tuple[Q.Quandle, ...]:
    """Every labeled quandle on {1..n}, in lexicographic order of tables: the
    row search over every permutation fixing each row's index.  Cached, since
    several tests read order 6, the slowest."""
    candidates = [Q._perms_fixing(n, i) for i in range(1, n + 1)]
    return tuple(Q.Quandle(rows, check=False) for rows in Q._row_search(candidates))


@lru_cache(maxsize=None)
def census_classes(n: int) -> tuple[Q.Quandle, ...]:
    """One quandle per isomorphism class of size n, from the labeled census."""
    return tuple(Q.iso_class_representatives(labeled_quandles(n)))


@lru_cache(maxsize=None)
def max_census_splits() -> dict[int, list[tuple[Q.Quandle, Q.Quandle]]]:
    """``census_splits`` to ``MAX_CENSUS_SIZE``, built once per test session;
    its entry at n equals ``census_splits(n)[n]``."""
    return census_splits(MAX_CENSUS_SIZE)


@lru_cache(maxsize=None)
def two_orbit_census() -> tuple[Q.Quandle, ...]:
    """``two_orbit_candidates`` to ``MAX_CENSUS_SIZE``, built once per test
    session; a test that wants the classes up to a smaller size filters by
    ``q.n``, since the census lists them by size first."""
    return tuple(two_orbit_candidates(MAX_CENSUS_SIZE))


# -- acceptance criterion 7 and the closure oracle: characteristic sequences ---


def reduce_seq(seq: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Length-reducing rule: (c1, 1, c3, c4, ...) -> (c1-1, c3-1, c4, ...).

    Requires c2 = 1 and length >= 4 (callers rotate first); returns None when
    the rule does not apply or would produce non-positive entries.
    """
    seq = tuple(seq)
    if len(seq) < 4 or seq[1] != 1:
        return None
    out = (seq[0] - 1, seq[2] - 1) + seq[3:]
    if any(c < 1 for c in out):
        return None
    return out


def insert_inverse(seq: Sequence[int], position: int = 1) -> tuple[int, ...]:
    """Right-to-left application of the reduction rule, on the rotation of the
    sequence starting at the given 1-based position: bumps the two leading
    entries of that rotation and inserts a 1 between them (length + 1).

    ``reduce_seq(insert_inverse(s, 1)) == s`` wherever defined.
    """
    seq = tuple(seq)
    n = len(seq)
    if not 1 <= position <= n:
        raise InputError(f"position {position} out of range for length {n}")
    rot = seq[position - 1 :] + seq[: position - 1]
    return (rot[0] + 1, 1, rot[1] + 1) + rot[2:]


def enumerate_charseqs_dfs(max_len: int) -> list[tuple[int, ...]]:
    """Brute-force depth-first search over entry values bounded by
    max_len - 2, pruning on prefix first-column nonnegativity; sorted like
    ``weyl.enumerate_charseqs``."""
    if max_len > 12:
        raise InputError("DFS oracle is intended for max_len <= 12")
    bound = max(1, max_len - 2)
    out: list[tuple[int, ...]] = []

    def walk(prefix: list[int], m: Mat2):
        if len(prefix) >= 3 and m == NEG_ID2:
            out.append(tuple(prefix))
            # -id times any further eta has negative first column, so stop
            return
        if len(prefix) == max_len:
            return
        if prefix and (m[0][0] < 0 or m[1][0] < 0):
            return
        for c in range(1, bound + 1):
            prefix.append(c)
            walk(prefix, mat_mul(m, eta(c)))
            prefix.pop()

    walk([], ID2)
    return sorted(out, key=lambda s: (len(s), s))

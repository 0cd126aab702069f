"""Reference implementations that the tests compare the library against.

No command runs these, so they live beside the tests rather than in
``src/qnichols``; pytest does not collect this module (its name does not start
with ``test_``), and test modules import it as ``oracles``.
"""

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from qnichols import nichols as N
from qnichols import quandle as Q
from qnichols.cyclotomic import CycMatrix, CycNum
from qnichols.envgroup import FinGroup
from qnichols.errors import InputError
from qnichols.supportcalc import DegreeTuple, TwoOrbitContext
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


# -- the labeled census up to isomorphism --------------------------------------


@lru_cache(maxsize=None)
def census_classes(n: int) -> tuple[Q.Quandle, ...]:
    """One quandle per isomorphism class of size n, from the labeled census;
    cached, since several tests read it and n = 6 is the slowest census size."""
    return tuple(Q.iso_class_representatives(Q.enumerate_quandles(n)))


# -- the two-orbit census: gluing without the orbit cuts ------------------------


def glued_quandles_uncut(a: Q.Quandle, b: Q.Quandle) -> Iterator[Q.Quandle]:
    """``quandle.glued_quandles`` with full candidate lists: every labeled
    gluing, one per relabeling of the blocks by Aut(a) x Aut(b) up to its
    stabilizer."""
    na = a.n
    aut_a = Q.automorphisms(a)
    aut_b = [tuple(v + na for v in g) for g in Q.automorphisms(b)]
    candidates = [[a.row(x) + g for g in aut_b] for x in a.elements()]
    candidates += [[g + tuple(v + na for v in b.row(y)) for g in aut_a] for y in b.elements()]
    for rows in Q._row_search(candidates):
        yield Q.Quandle(rows, check=False)


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

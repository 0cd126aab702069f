"""Rank-two root-system combinatorics: characteristic sequences and Cartan detection.

A characteristic sequence is a tuple of positive integers whose eta-matrix
product is -id while every proper prefix product keeps a nonnegative first
column.  They are the quiddities of polygon triangulations, and enumeration
builds them by the Catalan split of each polygon along the triangle on one
edge.  The set is also closed under rotation and under the insertion rule
inverse to the length-reducing equivalence; the tests use that closure and
a brute-force DFS as independent oracles (``tests/oracles.py`` holds the DFS
and the reduction and insertion rules).
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InputError, InvariantViolationError, ResourceCapError

Mat2 = tuple[tuple[int, int], tuple[int, int]]

ID2: Mat2 = ((1, 0), (0, 1))
NEG_ID2: Mat2 = ((-1, 0), (0, -1))


def eta(c: int) -> Mat2:
    """The SL(2,Z) companion matrix [[c, -1], [1, 0]]."""
    return ((c, -1), (1, 0))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def is_characteristic(seq: Sequence[int]) -> bool:
    """Product of eta(c_i) equals -id with nonnegative first columns of all
    proper prefix products."""
    if not seq or min(seq) < 1:
        return False
    # The running product times eta(x) is ((a x + b, -a), (c x + d, -c)), so
    # its second column is minus the first column of the product before it:
    # only the first columns (a, c) and (a_prev, c_prev) are kept.  Every
    # product has determinant c a_prev - a c_prev = 1, so a >= 0 after
    # a_prev >= 0 and c_prev >= 0 gives c a_prev >= 1, hence c > 0: testing a
    # keeps both entries of every first column nonnegative.
    a, c, a_prev, c_prev = 1, 0, 0, -1
    for x in seq[:-1]:
        a, c, a_prev, c_prev = a * x - a_prev, c * x - c_prev, a, c
        if a < 0:
            return False
    # with x the last entry, the full product ((a x - a_prev, -a), (c x - c_prev,
    # -c)) is -id when a = 0 and x = c_prev: c a_prev = 1 and a_prev >= 0 give
    # a_prev = c = 1
    return a == 0 and seq[-1] == c_prev


class CharSeq:
    """A verified characteristic sequence."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        if not is_characteristic(entries):
            raise InputError(f"not a characteristic sequence: {entries}")
        self.entries = entries

    def rotations(self) -> list[tuple[int, ...]]:
        return _rotations(self.entries)


def _rotations(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cyclic rotations of a tuple, without verifying it."""
    return [entries[k:] + entries[:k] for k in range(len(entries))]


# Most characteristic sequences one enumeration may produce (all lengths).
MAX_CHARSEQS = 300_000


def _count_exceeds_cap(max_len: int) -> bool:
    """Whether there are more than MAX_CHARSEQS sequences of length <= max_len.

    Length k has Catalan(k - 2) of them (triangulations of a k-gon); the sum
    stops as soon as it passes the cap, so any max_len is cheap to check.
    """
    total = 0
    for k in range(3, max_len + 1):
        total += math.comb(2 * (k - 2), k - 2) // (k - 1)
        if total > MAX_CHARSEQS:
            return True
    return False


def enumerate_charseqs(max_len: int) -> list[tuple[int, ...]]:
    """All characteristic sequences of length <= max_len, sorted by (length, entries).

    They are the quiddities of the triangulations of a polygon (Conway-Coxeter;
    Cuntz-Heckenberger): entry v counts the triangles at vertex v.  The
    triangle on the edge (0, p-1) of a p-gon has an apex k in 1..p-2 and splits
    the rest into a (k+1)-gon on vertices 0..k and a (p-k)-gon on k..p-1, so a
    p-gon quiddity glues one of each, with 1 added at vertices 0, k and p-1 (a
    2-gon is an edge, quiddity (0, 0)).  Each size is built once from the
    smaller ones, and every output is verified once.
    """
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    if _count_exceeds_cap(max_len):
        raise ResourceCapError(
            f"more than {MAX_CHARSEQS} characteristic sequences of length <= {max_len}"
        )
    # Each quiddity of size s, split once: as a left polygon into (entries
    # before vertex k, with the +1 at vertex 0; entry at vertex k), and as a
    # right polygon into (entry at vertex k; entries after it, with the +1 at
    # vertex p-1).  Size 2 is the edge (0, 0).
    lefts: list[list[tuple[tuple[int, ...], int]]] = [[], [], [((1,), 0)]]
    rights: list[list[tuple[int, tuple[int, ...]]]] = [[], [], [(0, (1,))]]
    out: list[tuple[int, ...]] = []
    for p in range(3, max_len + 1):
        seqs = [
            head + (last + first + 1,) + tail
            for k in range(1, p - 1)
            for head, last in lefts[k + 1]
            for first, tail in rights[p - k]
        ]
        out.extend(sorted(seqs))
        if p < max_len:
            lefts.append([((q[0] + 1,) + q[1:-1], q[-1]) for q in seqs])
            rights.append([(q[0], q[1:-1] + (q[-1] + 1,)) for q in seqs])
    for seq in out:
        if not is_characteristic(seq):
            raise InvariantViolationError(f"generated sequence fails verification: {seq}")
    return out


def small_neighbor_witness(seq: Sequence[int]) -> int:
    """Return a 1-based index i with c_i = 1 and a cyclic neighbor in {1,2,3}.

    Every characteristic sequence has one (the reduction rule keeps shrinking
    a sequence until such a pattern is exposed); absence would contradict the
    enumeration machinery and raises InvariantViolationError.
    """
    return _witness(CharSeq(tuple(seq)).entries)


def _witness(entries: tuple[int, ...]) -> int:
    """small_neighbor_witness for a sequence already known to be characteristic."""
    n = len(entries)
    for i in range(n):
        if entries[i] != 1:
            continue
        if entries[(i + 1) % n] in (1, 2, 3) or entries[(i - 1) % n] in (1, 2, 3):
            return i + 1
    raise InvariantViolationError(f"no witness index in {entries}")


class CartanPair:
    """Off-diagonal magnitudes (c1, c2) of a rank-two Cartan matrix
    [[2, -c1], [-c2, 2]]."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: int, c2: int):
        if c1 < 0 or c2 < 0:
            raise InputError("Cartan entries must be nonnegative magnitudes")
        self.c1 = c1
        self.c2 = c2


def finite_type(pair: CartanPair) -> bool:
    """Indecomposable rank-two finite type: 1 <= c1*c2 <= 3."""
    return 1 <= pair.c1 * pair.c2 <= 3


def detect_finite_object(pairs: Sequence[CartanPair]) -> int:
    """Given the cyclic Cartan data of a rank-two object chain, locate a
    finite-type position.

    The alternating sequence (pairs[0].c1, pairs[1].c2, pairs[2].c1, ...) must
    be characteristic; returns a 1-based index i into that sequence such that
    c_i = 1 and a cyclic neighbor lies in {1,2,3}, which makes the Cartan
    matrix at the corresponding object finite type.
    """
    seq = tuple(p.c1 if k % 2 == 0 else p.c2 for k, p in enumerate(pairs))
    if not is_characteristic(seq):
        raise InputError(f"alternating Cartan data is not characteristic: {seq}")
    return _witness(seq)

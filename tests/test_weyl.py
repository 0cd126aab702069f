import math

import pytest
from hypothesis import given, strategies as st

from qnichols import weyl as W
from qnichols.errors import InputError

from oracles import insert_inverse, reduce_seq


def test_eta_values():
    assert W.eta(0) == ((0, -1), (1, 0))
    assert W.eta(2) == ((2, -1), (1, 0))


def test_eta_one_cubed_is_neg_id():
    m = W.ID2
    for _ in range(3):
        m = W.mat_mul(m, W.eta(1))
    assert m == W.NEG_ID2


def test_is_characteristic():
    assert W.is_characteristic((1, 1, 1))
    assert W.is_characteristic((2, 1, 2, 1))
    assert not W.is_characteristic((1, 1))
    assert not W.is_characteristic(())
    assert not W.is_characteristic((0, 1, 1))


@given(st.lists(st.integers(0, 5), max_size=9))
def test_is_characteristic_matches_matrix_product(seq):
    m = W.ID2
    prefixes_ok = True
    for k, c in enumerate(seq):
        m = W.mat_mul(m, W.eta(c))
        if k < len(seq) - 1 and (m[0][0] < 0 or m[1][0] < 0):
            prefixes_ok = False
    expected = bool(seq) and min(seq) >= 1 and prefixes_ok and m == W.NEG_ID2
    assert W.is_characteristic(seq) == expected


def test_2121_product_oracle():
    # direct 2x2 multiplication
    m = W.ID2
    for c in (2, 1, 2, 1):
        m = W.mat_mul(m, W.eta(c))
    assert m == W.NEG_ID2


def test_reduce_and_insert():
    assert reduce_seq((2, 1, 2, 1)) == (1, 1, 1)
    assert insert_inverse((1, 1, 1), 1) == (2, 1, 2, 1)
    assert reduce_seq((1, 1, 1)) is None  # too short
    assert reduce_seq((2, 2, 2, 1)) is None  # c2 != 1


def test_reduce_insert_mutually_inverse():
    for seq in W.enumerate_charseqs(7):
        longer = insert_inverse(seq, 1)
        assert W.is_characteristic(longer)
        assert reduce_seq(longer) == seq
        red = reduce_seq(seq)
        if red is not None:
            assert insert_inverse(red, 1) == seq


def test_enumerate_length3():
    assert W.enumerate_charseqs(3) == [(1, 1, 1)]


def test_enumerate_length4():
    out = [s for s in W.enumerate_charseqs(4) if len(s) == 4]
    assert out == [(1, 2, 1, 2), (2, 1, 2, 1)]


def test_length_cap_admits_14_and_refuses_15():
    # sum of Catalan(k - 2) for k = 3..L: 290,511 at L = 14, 1,033,411 at L = 15
    assert not W._count_exceeds_cap(14)
    assert W._count_exceeds_cap(15)


def test_enumerate_verifies_each_sequence_once(monkeypatch):
    calls = []
    original = W.is_characteristic

    def counted(seq):
        calls.append(tuple(seq))
        return original(seq)

    monkeypatch.setattr(W, "is_characteristic", counted)
    seqs = W.enumerate_charseqs(8)
    assert sorted(calls, key=lambda s: (len(s), s)) == seqs


def test_rotation_closure():
    for seq in W.enumerate_charseqs(8):
        for rot in W.CharSeq(seq).rotations():
            assert W.is_characteristic(rot)


def closure_charseqs(max_len: int) -> list[tuple[int, ...]]:
    """Oracle: the closure of {(1,1,1)} under rotation and the insertion rule
    inverse to the length-reducing equivalence (ears added one at a time),
    sorted like enumerate_charseqs."""
    found: set[tuple[int, ...]] = set()
    if max_len >= 3:
        frontier = {(1, 1, 1)}
        while frontier:
            new: set[tuple[int, ...]] = set()
            for seq in frontier:
                for rot in W._rotations(seq):
                    if rot not in found:
                        found.add(rot)
                        new.add(rot)
                if len(seq) < max_len:
                    for pos in range(1, len(seq) + 1):
                        longer = insert_inverse(seq, pos)
                        if longer not in found:
                            found.add(longer)
                            new.add(longer)
            frontier = new
    return sorted(found, key=lambda s: (len(s), s))


def test_catalan_split_matches_closure_oracle():
    closure = closure_charseqs(12)
    for max_len in range(3, 13):
        expected = [s for s in closure if len(s) <= max_len]
        assert W.enumerate_charseqs(max_len) == expected


def test_counts_match_triangulations():
    # sequences of length n biject with triangulations of an n-gon: Catalan(n - 2)
    seqs = W.enumerate_charseqs(12)
    assert len(set(seqs)) == len(seqs)
    by_len = {}
    for seq in seqs:
        by_len[len(seq)] = by_len.get(len(seq), 0) + 1
    assert by_len == {n: math.comb(2 * (n - 2), n - 2) // (n - 1) for n in range(3, 13)}
    assert by_len[9] == 429 and by_len[12] == 16796


def test_small_neighbor_witness():
    assert W.small_neighbor_witness((1, 1, 1)) == 1
    assert W.small_neighbor_witness((2, 1, 2, 1)) == 2
    with pytest.raises(InputError):
        W.small_neighbor_witness((1, 1))  # not characteristic


def test_small_neighbor_witness_to_length_12():
    for seq in W.enumerate_charseqs(12):
        i = W.small_neighbor_witness(seq)
        n = len(seq)
        c = seq[i - 1]
        assert c == 1
        assert seq[i % n] in (1, 2, 3) or seq[(i - 2) % n] in (1, 2, 3)


def test_finite_type():
    assert W.finite_type(W.CartanPair(1, 3))
    assert W.finite_type(W.CartanPair(1, 1))
    assert not W.finite_type(W.CartanPair(2, 2))
    assert not W.finite_type(W.CartanPair(0, 5))


def test_detect_finite_object():
    pairs = [W.CartanPair(2, 9), W.CartanPair(9, 1), W.CartanPair(2, 9), W.CartanPair(9, 1)]
    # alternating sequence (2, 1, 2, 1)
    idx = W.detect_finite_object(pairs)
    assert idx == 2
    with pytest.raises(InputError):
        W.detect_finite_object([W.CartanPair(1, 1)])

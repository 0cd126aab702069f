from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qnichols import quandle as Q
from qnichols.errors import InputError, ResourceCapError
from qnichols.supportcalc import (
    MAX_CENSUS_SIZE,
    _automorphisms_transitive,
    census_splits,
    homogeneous_pieces,
)

from oracles import (
    INDECOMPOSABLE_NAMES,
    affine_quandle,
    census_classes,
    labeled_quandles,
    max_census_splits,
    two_orbit_census,
)


CATALOG = [Q.catalog(name) for name in Q.catalog_names() if name != "trivial(n)"]


def test_apply_left_trivial():
    q = Q.catalog("trivial(4)")
    for i in q.elements():
        for j in q.elements():
            assert q.op(i, j) == j


def test_apply_left_s3():
    q = Q.catalog("(12)^S3")
    assert q.op(1, 2) == 3


def test_apply_right_z222():
    q = Q.catalog("Z_2^{2,2}")
    assert q.op(2, 1) == 3
    assert q.op_right(3, 2) == 1


def test_out_of_range_raises():
    q = Q.catalog("(12)^S3")
    with pytest.raises(InputError):
        q.op(0, 1)
    with pytest.raises(InputError):
        q.op(1, 4)


def test_is_quandle_and_crossed():
    assert Q.is_quandle(Q.catalog("trivial(3)").table)
    assert Q.is_crossed_set(Q.catalog("trivial(3)"))
    a4 = Q.catalog("(123)^A4")
    assert Q.is_quandle(a4.table)
    assert Q.is_crossed_set(a4)
    # non-bijective row
    assert not Q.is_quandle(((1, 1), (2, 2)))
    # bijective rows, idempotent, but not self-distributive
    assert not Q.is_quandle(((1, 3, 2, 4), (3, 2, 4, 1), (2, 4, 3, 1), (2, 3, 1, 4)))


def test_catalog_axioms_all():
    for q in CATALOG:
        assert Q.is_quandle(q.table)
        assert Q.is_crossed_set(q)


def test_catalog_aff54_rows():
    q = Q.catalog("Aff(5,4)")
    assert q.table == (
        (1, 5, 4, 3, 2),
        (3, 2, 1, 5, 4),
        (5, 4, 3, 2, 1),
        (2, 1, 5, 4, 3),
        (4, 3, 2, 1, 5),
    )


def test_catalog_z442_rows():
    q = Q.catalog("Z_4^{4,2}")
    assert q.row(1) == (1, 4, 3, 2, 6, 5)
    assert q.row(5) == (2, 3, 4, 1, 5, 6)
    assert q.row(6) == (4, 1, 2, 3, 5, 6)


def test_catalog_trivial_and_unknown():
    assert Q.catalog("trivial(1)").table == ((1,),)
    with pytest.raises(InputError):
        Q.catalog("nonsense")


def test_catalog_name_normalization():
    assert Q.catalog("Z_2^{2,2}") == Q.catalog("Z_2^2,2")


def test_orbits():
    assert Q.inner_orbits(Q.catalog("(12)^S3")) == [(1, 2, 3)]
    assert Q.inner_orbits(Q.catalog("Z_3^{3,1}")) == [(1, 2, 3), (4,)]
    assert Q.inner_orbits(Q.catalog("trivial(2)")) == [(1,), (2,)]
    assert len(Q.inner_orbits(Q.catalog("(123)^A4"))) == 1
    assert len(Q.inner_orbits(Q.catalog("Z_4^{4,2}"))) > 1


def _merged_orbits(n: int, perms) -> set[frozenset]:
    """Oracle: blocks of {1..n}, each point's block merged with its images'
    blocks until nothing changes."""
    block = {x: frozenset([x]) for x in range(1, n + 1)}
    changed = True
    while changed:
        changed = False
        for x in range(1, n + 1):
            for p in perms:
                if block[p[x - 1]] != block[x]:
                    merged = block[x] | block[p[x - 1]]
                    block.update(dict.fromkeys(merged, merged))
                    changed = True
    return set(block.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbits_match_a_merging_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    perms = data.draw(st.lists(st.permutations(range(1, n + 1)), max_size=4))
    points = data.draw(st.permutations(range(1, n + 1)))
    found = Q.orbits(points, lambda x: [p[x - 1] for p in perms])
    assert sum(map(len, found)) == n
    assert set(map(frozenset, found)) == _merged_orbits(n, perms)
    reached: set[int] = set()
    for orbit in found:
        assert orbit[0] == next(x for x in points if x not in reached)
        reached.update(orbit)
    for p in perms:
        for cycle in Q.orbits(points, lambda x: [p[x - 1]]):
            assert [p[x - 1] for x in cycle] == cycle[1:] + cycle[:1]


def test_round_trip_left_right():
    for q in CATALOG:
        for i in q.elements():
            for j in q.elements():
                assert q.op_right(q.op(i, j), i) == j
                assert q.op(i, q.op_right(j, i)) == j


def test_triangle_identities():
    # k>(i<j) == (k>i)<(k>j)  and  (i<j)<k == (i<k)<(j<k)
    for q in CATALOG:
        for i in q.elements():
            for j in q.elements():
                for k in q.elements():
                    assert q.op(k, q.op_right(i, j)) == q.op_right(q.op(k, i), q.op(k, j))
                    assert q.op_right(q.op_right(i, j), k) == q.op_right(
                        q.op_right(i, k), q.op_right(j, k)
                    )


def test_isomorphic_identity():
    q = Q.catalog("(123)^A4")
    iso = Q.isomorphic(q, q)
    assert iso is not None and iso.map == (1, 2, 3, 4)


def test_isomorphic_z222_normal_form():
    z = Q.catalog("Z_2^{2,2}")
    # each half cycles the other: the two-orbit normal form on {1, 2} u {3, 4}
    target = Q.Quandle([[1, 2, 4, 3], [1, 2, 4, 3], [2, 1, 3, 4], [2, 1, 3, 4]])
    # oracle: exhaustive search over all 4! relabelings
    from itertools import permutations

    found = [
        perm
        for perm in permutations(range(1, 5))
        if all(
            perm[z.op(i, j) - 1] == target.op(perm[i - 1], perm[j - 1])
            for i in z.elements()
            for j in z.elements()
        )
    ]
    assert found
    iso = Q.isomorphic(z, target)
    assert iso is not None and iso.map in found


@pytest.mark.parametrize(
    "target, f",
    [
        ("trivial(3)", (1, 1, 1)),  # not a permutation
        ("trivial(3)", (1, 2, 4)),  # not the target's elements
        ("trivial(3)", (1, 2)),  # too short
        ("trivial(3)", (1, 2, 3, 3)),  # too long
        ("trivial(2)", (1, 2, 2)),  # sizes differ
    ],
)
def test_quandle_iso_refuses_a_map_that_is_not_a_bijection(target, f):
    with pytest.raises(InputError):
        Q.QuandleIso(Q.catalog("trivial(3)"), Q.catalog(target), f)


def test_isomorphic_none():
    assert Q.isomorphic(Q.catalog("(12)^S3"), Q.catalog("trivial(3)")) is None
    assert Q.isomorphic(Q.catalog("Aff(5,2)"), Q.catalog("Aff(5,3)")) is None


def test_text_and_json_forms_parse():
    z = Q.catalog("Z_3^{3,2}")
    text = "5\n1 3 2 5 4\n3 2 1 5 4\n2 1 3 5 4\n2 3 1 4 5\n3 1 2 4 5\n"
    rows = [[1, 3, 2, 5, 4], [3, 2, 1, 5, 4], [2, 1, 3, 5, 4], [2, 3, 1, 4, 5], [3, 1, 2, 4, 5]]
    assert Q.Quandle.from_text(text) == z
    assert Q.Quandle.from_json_dict({"size": 5, "table": rows}) == z
    assert Q.Quandle.from_text("1\n1\n") == Q.catalog("trivial(1)")
    assert Q.Quandle.from_json_dict({"size": 1, "table": [[1]]}) == Q.catalog("trivial(1)")


def test_malformed_text():
    with pytest.raises(InputError):
        Q.Quandle.from_text("2\n1 2\n")
    with pytest.raises(InputError):
        Q.Quandle.from_text("")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_subquandle_orbits_closed(n, data):
    qs = [Q.catalog(nm) for nm in Q.Z_QUANDLE_NAMES]
    q = data.draw(st.sampled_from(qs))
    for orb in Q.inner_orbits(q):
        sub, labels = Q.subquandle(q, orb)
        assert Q.is_quandle(sub.table)
        assert sorted(labels) == sorted(orb)


def test_census_small_counts():
    # labeled counts for n <= 4, then iso classes against the known census
    assert [len(labeled_quandles(n)) for n in (1, 2, 3)] == [1, 1, 5]
    counts = [len(census_classes(n)) for n in (3, 4, 5)]
    assert counts == [3, 7, 22]


def test_census_indecomposable_matches_catalog_upto5():
    for n, expected in ((3, {"(12)^S3"}), (4, {"(123)^A4"}), (5, {"Aff(5,2)", "Aff(5,3)", "Aff(5,4)"})):
        reps = census_classes(n)
        ind = {Q.match_catalog(q) for q in reps if len(Q.inner_orbits(q)) == 1}
        assert ind == expected


# OEIS A181771: quandles of order n up to isomorphism
@pytest.mark.parametrize(
    "n, count",
    [(1, 1), (2, 1), (3, 3), (4, 7), (5, 22), pytest.param(6, 73, marks=pytest.mark.slow)],
)
def test_census_matches_oeis_a181771(n, count):
    assert len(census_classes(n)) == count


@pytest.mark.slow
def test_census_indecomposable_matches_catalog_n6():
    reps = census_classes(6)
    assert len(reps) == 73
    ind = {Q.match_catalog(q) for q in reps if len(Q.inner_orbits(q)) == 1}
    assert ind == {"(12)^S4", "(1234)^S4"}


def test_size3_crossed_sets_are_trivial_or_s3():
    for q in census_classes(3):
        if not Q.is_crossed_set(q):
            continue
        if Q.is_commutative_subset(q, q.elements()):
            continue
        assert Q.isomorphic(q, Q.catalog("(12)^S3")) is not None


def test_empty_quandle_rejected():
    with pytest.raises(InputError):
        Q.Quandle.from_text("0\n")
    with pytest.raises(InputError):
        Q.Quandle.from_json_dict({"size": 0, "table": []})


def _relabel(q: Q.Quandle, f) -> tuple:
    """The table of q with element i renamed f[i-1]."""
    table = [[0] * q.n for _ in q.elements()]
    for i in q.elements():
        for j in q.elements():
            table[f[i - 1] - 1][f[j - 1] - 1] = f[q.op(i, j) - 1]
    return tuple(map(tuple, table))


def test_canonical_table_is_brute_force_minimum():
    from itertools import permutations

    census = [q for n in range(1, 6) for q in census_classes(n)]
    # the glued two-orbit classes of size 6, over all of S_6
    census += [q for q in two_orbit_census() if q.n == 6]
    for q in census + [q for q in CATALOG if q.n <= 5]:
        brute = min(_relabel(q, f) for f in permutations(q.elements()))
        assert Q.canonical_table(q) == brute, q


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_table_invariant_under_relabeling(data):
    # the census deduplicates the glued quandles of sizes 6-8 by this table
    pool = CATALOG + [affine_quandle(7, 3)] + [q for q in two_orbit_census() if q.n <= 7]
    q = data.draw(st.sampled_from(pool))
    f = data.draw(st.permutations(list(q.elements())))
    relabeled = Q.Quandle(_relabel(q, f))
    assert Q.canonical_table(relabeled) == Q.canonical_table(q)
    assert Q.isomorphic(q, Q.Quandle(Q.canonical_table(q))) is not None


def _splits(n: int) -> list:
    return max_census_splits()[n]


def _census_tables(quandles) -> set:
    return {
        Q.canonical_table(q)
        for q in quandles
        if len(Q.inner_orbits(q)) == 2 and Q.is_crossed_set(q)
    }


def _trivial(q: Q.Quandle) -> bool:
    return Q.is_commutative_subset(q, q.elements())


def test_census_split_counts():
    # the pairs of two trivial pieces of size >= 2 are written down as
    # cycle_pair, not glued
    assert [len(_splits(n)) for n in range(2, 8)] == [1, 0, 1, 2, 7, 10]


def test_census_splits_hold_no_two_trivial_pieces():
    for splits in max_census_splits().values():
        assert not any(a.n > 1 and _trivial(a) and _trivial(b) for a, b in splits)


def test_census_splits_cap_raises_before_any_work(monkeypatch):
    def fail(*_):
        raise AssertionError("census work before the cap check")

    monkeypatch.setattr("qnichols.supportcalc.enumerate_quandles", fail)
    with pytest.raises(ResourceCapError, match=f"census bounded at size {MAX_CENSUS_SIZE}"):
        census_splits(MAX_CENSUS_SIZE + 1)


def test_cycle_pair_is_a_two_orbit_crossed_set():
    for k in range(2, 9):
        for l in range(k, 9):
            q = Q.cycle_pair(k, l)
            assert Q.is_quandle(q.table) and Q.is_crossed_set(q), (k, l)
            assert Q.inner_orbits(q) == [tuple(range(1, k + 1)), tuple(range(k + 1, k + l + 1))]


@pytest.mark.parametrize("k,l", [(k, l) for k in range(2, 8) for l in range(k, 8) if k + l <= 7])
def test_cycle_pair_is_the_one_gluing_of_two_trivial_pieces(k, l):
    # oracle: the full row search over trivial(k) beside trivial(l)
    glued = Q.glued_quandles(Q.catalog(f"trivial({k})"), Q.catalog(f"trivial({l})"))
    assert _census_tables(glued) == {Q.canonical_table(Q.cycle_pair(k, l))}


@pytest.mark.parametrize("n", range(2, 7))
def test_glued_quandles_orbits_brute_force(n):
    # G = Aut(A) x Aut(B) relabels the gluings among themselves, and the
    # orbit-stabilizer sum over G-orbits is their count
    for a, b in _splits(n):
        na = a.n
        group = [
            h + tuple(v + na for v in g)
            for h, g in product(Q.automorphisms(a), Q.automorphisms(b))
        ]
        glued = {q.table for q in Q.glued_quandles(a, b)}
        seen: set = set()
        total = 0
        for table in sorted(glued):
            if table in seen:
                continue
            q = Q.Quandle(table, check=False)
            images = [_relabel(q, f) for f in group]
            orbit = set(images)
            assert orbit <= glued, (a, b, table)
            seen |= orbit
            total += len(group) // images.count(table)
        assert total == len(glued), (a, b)


def _brute_embeddings(q: Q.Quandle, op, candidates) -> list[tuple]:
    """The oracle for ``embeddings``: every injection into the candidates'
    union, filtered by membership and f(a > b) = op(f(a), f(b)), then sorted
    into the promised order (lexicographic in candidate positions, elements
    taken by candidate-list length, then label)."""
    from itertools import permutations

    pool = sorted({y for c in candidates for y in c})
    found = [
        f
        for f in permutations(pool, q.n)
        if all(f[x - 1] in candidates[x - 1] for x in q.elements())
        and all(
            f[q.op(a, b) - 1] == op(f[a - 1], f[b - 1]) for a in q.elements() for b in q.elements()
        )
    ]
    order = sorted(q.elements(), key=lambda x: (len(candidates[x - 1]), x))
    return sorted(found, key=lambda f: [list(candidates[x - 1]).index(f[x - 1]) for x in order])


def _candidate_lists(q: Q.Quandle, r: Q.Quandle) -> list[list[list[int]]]:
    """Candidate lists for maps q -> r: every element; the elements whose
    translation has the same cycle type, in reverse label order; and every
    element for label 1 but only labels 2..n for the rest, which forced values
    must respect."""
    n, everything = q.n, list(r.elements())
    same_type = [
        [y for y in reversed(everything) if Q.perm_cycle_type(r.row(y)) == Q.perm_cycle_type(row)]
        for row in q.table
    ]
    return [[everything] * n, same_type, [everything] + [list(range(2, n + 1))] * (n - 1)]


def test_embeddings_match_brute_force_on_catalog_and_census():
    import random

    rng = random.Random(0)
    census = [q for n in range(1, 6) for q in census_classes(n)]
    for q in CATALOG + census:
        f = list(q.elements())
        rng.shuffle(f)
        relabeled = Q.Quandle(_relabel(q, f))
        for r in (q, relabeled):
            for candidates in _candidate_lists(q, r):
                found = list(Q.embeddings(q.table, r.op, candidates))
                assert found == _brute_embeddings(q, r.op, candidates), (q, r, candidates)
        isomorphisms = _brute_embeddings(q, relabeled.op, [list(q.elements())] * q.n)
        assert Q.isomorphic(q, relabeled).map in isomorphisms


def test_embeddings_into_envelope_classes_match_brute_force():
    from itertools import permutations

    from qnichols.envgroup import finite_enveloping_group

    group = finite_enveloping_group(Q.catalog("(12)^S4")).group
    classes = group.conjugacy_classes()
    s3 = Q.catalog("(12)^S3")
    for cls in classes:
        candidates = [list(cls)] * 3
        found = list(Q.embeddings(s3.table, group.conj, candidates))
        assert found == _brute_embeddings(s3, group.conj, candidates)
    z331 = Q.catalog("Z_3^{3,1}")
    orbit_v, orbit_w = Q.inner_orbits(z331)
    seen = 0
    for cls_v, cls_w in permutations(classes, 2):
        for roles in ((orbit_v, orbit_w), (orbit_w, orbit_v)):
            candidates = [list(cls_v if x in roles[0] else cls_w) for x in z331.elements()]
            found = list(Q.embeddings(z331.table, group.conj, candidates))
            assert found == _brute_embeddings(z331, group.conj, candidates)
            seen += len(found)
    assert seen > 0


def test_automorphisms_match_brute_force_on_catalog():
    from itertools import permutations

    for q in CATALOG:
        brute = [f for f in permutations(q.elements()) if _relabel(q, f) == q.table]
        assert Q.automorphisms(q) == brute


def _least_of_type(n: int, lengths: tuple) -> tuple:
    from itertools import permutations

    return min(
        p
        for p in permutations(range(1, n + 1))
        if p[0] == 1 and Q.perm_cycle_type(p) == lengths
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_quandles_is_the_labeled_census_of_one_cycle_type(n):
    # oracle: the full labeled census, filtered to every row of type lengths
    # with row 1 the least permutation of that type fixing 1
    types = Q.fixed_point_types(n)
    assert types == sorted({Q.perm_cycle_type(q.row(1)) for q in labeled_quandles(n)})
    for lengths in types:
        least = _least_of_type(n, lengths)
        want = [
            q
            for q in labeled_quandles(n)
            if q.row(1) == least and all(Q.perm_cycle_type(r) == lengths for r in q.table)
        ]
        assert list(Q.enumerate_quandles(n, lengths)) == want, lengths
        assert list(Q.enumerate_quandles(n, lengths[::-1])) == want, lengths
    # no translation lacks a fixed point
    assert list(Q.enumerate_quandles(4, (2, 2))) == []
    with pytest.raises(InputError):
        next(Q.enumerate_quandles(0, ()))


def _transitive(q: Q.Quandle) -> bool:
    return {g[0] for g in Q.automorphisms(q)} == set(q.elements())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_homogeneous_pieces_match_the_labeled_census(k):
    # oracle: the crossed-set classes of the labeled census whose automorphism
    # group is transitive
    pieces = [Q.canonical_table(q) for q in homogeneous_pieces(k)]
    want = {
        Q.canonical_table(q)
        for q in census_classes(k)
        if Q.is_crossed_set(q) and _transitive(q)
    }
    assert set(pieces) == want
    assert len(pieces) == (1, 1, 2, 3, 4, 7)[k - 1]


def test_piece_transitivity_matches_the_automorphism_list():
    # oracle: the images of 1 under the full list of automorphisms, on every
    # crossed-set class that homogeneous_pieces filters, sizes 1-7
    verdicts = set()
    for k in range(1, 8):
        crossed = [
            q
            for lengths in Q.fixed_point_types(k)
            for q in Q.enumerate_quandles(k, lengths)
            if Q.is_crossed_set(q)
        ]
        for q in Q.iso_class_representatives(crossed):
            verdicts.add(_transitive(q))
            assert _automorphisms_transitive(q) == _transitive(q), q.table
    assert verdicts == {False, True}


def _connected(pieces) -> list:
    return [q for q in pieces if len(Q.inner_orbits(q)) == 1]


def test_affine_order7_connected_and_pairwise_distinct():
    # Etingof, Soloviev and Guralnick (2001): the connected quandles of order 7
    # are the five Aff(7, a); with one more class, the homogeneous pieces of
    # size 7 are six
    affs = [affine_quandle(7, a) for a in range(2, 7)]
    for q in affs:
        assert Q.is_quandle(q.table) and Q.is_crossed_set(q) and len(Q.inner_orbits(q)) == 1
    pieces = homogeneous_pieces(7)
    assert len(pieces) == 6
    connected = {Q.canonical_table(q) for q in _connected(pieces)}
    assert connected == {Q.canonical_table(q) for q in affs}
    assert len(connected) == 5
    assert affine_quandle(5, 4) == Q.catalog("Aff(5,4)")


def test_connected_quandles_are_the_catalog_indecomposables():
    names = {n: {Q.match_catalog(q) for q in _connected(homogeneous_pieces(n))} for n in range(1, 7)}
    assert names == {
        1: {"trivial(1)"},
        2: set(),
        3: {"(12)^S3"},
        4: {"(123)^A4"},
        5: {"Aff(5,2)", "Aff(5,3)", "Aff(5,4)"},
        6: {"(12)^S4", "(1234)^S4"},
    }
    assert set().union(*names.values()) == set(INDECOMPOSABLE_NAMES)


@pytest.mark.slow
def test_connected_quandles_of_order_8():
    # Vendramin (JKTR 2012) lists three connected quandles of order 8
    pieces = homogeneous_pieces(8)
    assert len(pieces) == 13
    assert len(_connected(pieces)) == 3
    assert all(Q.is_crossed_set(q) and _transitive(q) for q in pieces)

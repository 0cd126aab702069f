from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qnichols import quandle as Q
from qnichols.errors import InputError
from qnichols.supportcalc import census_splits, two_orbit_candidates

from oracles import census_classes, glued_quandles_uncut


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


def test_isomorphic_none():
    assert Q.isomorphic(Q.catalog("(12)^S3"), Q.catalog("trivial(3)")) is None
    assert Q.isomorphic(Q.catalog("Aff(5,2)"), Q.catalog("Aff(5,3)")) is None


def test_text_and_json_round_trip():
    for q in (Q.catalog("Z_3^{3,2}"), Q.catalog("trivial(1)")):
        assert Q.Quandle.from_text(q.to_text()) == q
        assert Q.Quandle.from_json_dict(q.to_json_dict()) == q


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
    assert sum(1 for _ in Q.enumerate_quandles(1)) == 1
    assert sum(1 for _ in Q.enumerate_quandles(2)) == 1
    assert sum(1 for _ in Q.enumerate_quandles(3)) == 5
    counts = [len(Q.iso_class_representatives(Q.enumerate_quandles(n))) for n in (3, 4, 5)]
    assert counts == [3, 7, 22]


def test_census_indecomposable_matches_catalog_upto5():
    for n, expected in ((3, {"(12)^S3"}), (4, {"(123)^A4"}), (5, {"Aff(5,2)", "Aff(5,3)", "Aff(5,4)"})):
        reps = Q.iso_class_representatives(Q.enumerate_quandles(n))
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
    for q in Q.iso_class_representatives(Q.enumerate_quandles(3)):
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


@lru_cache(maxsize=None)
def _two_orbit_census(n_max: int) -> tuple:
    return tuple(two_orbit_candidates(n_max))


def test_canonical_table_is_brute_force_minimum():
    from itertools import permutations

    census = [q for n in range(1, 6) for q in Q.iso_class_representatives(Q.enumerate_quandles(n))]
    # the glued two-orbit classes of size 6, over all of S_6
    census += [q for q in _two_orbit_census(7) if q.n == 6]
    for q in census + [q for q in CATALOG if q.n <= 5]:
        brute = min(_relabel(q, f) for f in permutations(q.elements()))
        assert Q.canonical_table(q) == brute, q


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_table_invariant_under_relabeling(data):
    # the census deduplicates the glued quandles of sizes 6-8 by this table
    pool = CATALOG + [Q.affine_quandle(7, 3)] + list(_two_orbit_census(7))
    q = data.draw(st.sampled_from(pool))
    f = data.draw(st.permutations(list(q.elements())))
    relabeled = Q.Quandle(_relabel(q, f))
    assert Q.canonical_table(relabeled) == Q.canonical_table(q)
    assert Q.isomorphic(q, Q.Quandle(Q.canonical_table(q))) is not None


def _conjugacy_class(g: tuple, by) -> set:
    """{h g h^{-1} : h in by}, as one-line maps."""
    out = set()
    for h in by:
        h_inv = sorted(range(1, len(h) + 1), key=lambda i: h[i - 1])
        out.add(tuple(h[g[h_inv[i] - 1] - 1] for i in range(len(g))))
    return out


def _cut_weights(a: Q.Quandle, b: Q.Quandle, cut) -> int:
    """How many uncut gluings the cut gluings stand for: each counts the size
    of its row-1 b-part's class under Aut(b) times the size of its
    row-(|a|+1) a-part's class under the stabilizer of 1 in Aut(a)."""
    na = a.n
    aut_b = Q.automorphisms(b)
    stab = [h for h in Q.automorphisms(a) if h[0] == 1]
    total = 0
    for q in cut:
        alpha = tuple(v - na for v in q.row(1)[na:])
        beta = q.row(na + 1)[:na]
        total += len(_conjugacy_class(alpha, aut_b)) * len(_conjugacy_class(beta, stab))
    return total


@lru_cache(maxsize=None)
def _splits(n: int) -> tuple:
    return tuple(census_splits(n)[n])


def _census_tables(quandles) -> set:
    return {
        Q.canonical_table(q)
        for q in quandles
        if len(Q.inner_orbits(q)) == 2 and Q.is_crossed_set(q)
    }


@pytest.mark.parametrize("n", range(2, 8))
def test_glued_quandles_cut_matches_uncut_search(n):
    # oracle: the full candidate lists; each cut gluing stands for its
    # orbit-stabilizer weight of uncut ones, and the census keeps the same
    # classes
    for a, b in _splits(n):
        cut = list(Q.glued_quandles(a, b))
        uncut = list(glued_quandles_uncut(a, b))
        assert _cut_weights(a, b, cut) == len(uncut), (a, b)
        assert _census_tables(cut) == _census_tables(uncut), (a, b)


def test_census_split_counts():
    assert [len(_splits(n)) for n in range(2, 8)] == [1, 0, 2, 3, 9, 12]


@pytest.mark.parametrize("n", range(2, 7))
def test_glued_quandles_orbits_brute_force(n):
    # G = Aut(A) x Aut(B) relabels the uncut gluings among themselves; the
    # orbit-stabilizer sum over G-orbits is the uncut count, and every
    # orbit meets the cut output
    for a, b in _splits(n):
        na = a.n
        group = [
            h + tuple(v + na for v in g)
            for h, g in product(Q.automorphisms(a), Q.automorphisms(b))
        ]
        uncut = {q.table for q in glued_quandles_uncut(a, b)}
        cut = {q.table for q in Q.glued_quandles(a, b)}
        seen: set = set()
        total = 0
        for table in sorted(uncut):
            if table in seen:
                continue
            q = Q.Quandle(table, check=False)
            images = [_relabel(q, f) for f in group]
            orbit = set(images)
            assert orbit <= uncut, (a, b, table)
            assert orbit & cut, (a, b, table)
            seen |= orbit
            total += len(group) // images.count(table)
        assert total == len(uncut), (a, b)


@pytest.mark.slow
def test_glued_quandles_cut_weights_n8():
    for a, b in _splits(8):
        uncut_count = sum(1 for _ in glued_quandles_uncut(a, b))
        assert _cut_weights(a, b, Q.glued_quandles(a, b)) == uncut_count, (a, b)


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


def test_affine_order7_connected_and_pairwise_distinct():
    affs = Q.connected_quandles(7)
    assert len(affs) == 5
    for q in affs:
        assert Q.is_quandle(q.table) and Q.is_crossed_set(q) and len(Q.inner_orbits(q)) == 1
    assert len({Q.canonical_table(q) for q in affs}) == 5
    assert Q.affine_quandle(5, 4) == Q.catalog("Aff(5,4)")


def test_connected_quandles_are_the_catalog_indecomposables():
    names = {n: {Q.match_catalog(q) for q in Q.connected_quandles(n)} for n in range(1, 7)}
    assert names == {
        1: {"trivial(1)"},
        2: set(),
        3: {"(12)^S3"},
        4: {"(123)^A4"},
        5: {"Aff(5,2)", "Aff(5,3)", "Aff(5,4)"},
        6: {"(12)^S4", "(1234)^S4"},
    }
    with pytest.raises(InputError):
        Q.connected_quandles(8)

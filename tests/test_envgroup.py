import pytest
from hypothesis import given, settings, strategies as st

from qnichols import envgroup as E
from qnichols import ydmod as Y
from qnichols.errors import InputError, InvariantViolationError, ResourceCapError
from qnichols.quandle import (
    INDECOMPOSABLE_NAMES,
    Z_QUANDLE_NAMES,
    catalog,
    catalog_names,
    enumerate_quandles,
)
from qnichols.supportcalc import two_orbit_candidates

from oracles import enveloping_presentation_cyclic


# -- presentations -------------------------------------------------------------


def test_presentation_trivial2():
    pres = E.enveloping_presentation(catalog("trivial(2)"))
    # the two commutation relators are inverse duplicates; one survives
    assert pres.generators == ("x1", "x2")
    assert pres.relators == ((1, 2, -1, -2),)


def test_presentation_s3_six_relators():
    pres = E.enveloping_presentation(catalog("(12)^S3"))
    assert len(pres.relators) == 6


def test_presentation_z222_matches_affine_rule():
    q = catalog("Z_2^{2,2}")
    for i in q.elements():
        for j in q.elements():
            assert q.op(i, j) == ((2 * i - j - 1) % 4) + 1  # x_i x_j = x_{2i-j mod 4} x_i


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
)
def test_presentation_matches_the_cyclic_search_on_labeled_quandles(n):
    for q in enumerate_quandles(n):
        assert E.enveloping_presentation(q).relators == enveloping_presentation_cyclic(q)


def test_presentation_matches_the_cyclic_search_on_catalog_and_census():
    named = [catalog(name) for name in catalog_names()[1:] + ["trivial(3)"]]
    for q in named + two_orbit_candidates(7):
        assert E.enveloping_presentation(q).relators == enveloping_presentation_cyclic(q)


def test_presentation_text_format():
    pres = E.enveloping_presentation(catalog("trivial(2)"))
    assert pres.to_text() == "x1 x2\nx1 x2 x1^-1 x2^-1\n"


# -- coset enumeration ----------------------------------------------------------


def test_finite_enveloping_a4_is_sl23_signature():
    env = E.finite_enveloping_group(catalog("(123)^A4"))
    g = env.group
    assert g.order == 24
    assert max(len(c) for c in g.conjugacy_classes()) == 6
    assert g.has_abelian_centralizers()
    comm, _ = g.subgroup(g.commutator_subgroup())
    assert comm.order == 8
    assert not comm.is_abelian()
    assert sum(1 for a in range(comm.order) if comm.element_order(a) == 2) == 1
    sl, _, _ = E.sl23()
    assert next(E.iter_isomorphisms(g, sl), None) is not None


def test_finite_enveloping_trivial1():
    env = E.finite_enveloping_group(catalog("trivial(1)"))
    assert env.group.order == 1


def test_finite_enveloping_s3():
    env = E.finite_enveloping_group(catalog("(12)^S3"))
    assert env.group.order == 6
    assert sorted(len(c) for c in env.group.conjugacy_classes()) == [1, 2, 3]
    assert sorted(env.images) == sorted(env.group.conjugacy_class_of(env.images[0]))


def test_finite_enveloping_s3_against_permutation_oracle():
    # universal-property cross-check: the symmetric group on three letters is
    # built independently from permutations; mapping x_i to the transpositions
    # must be conjugation-compatible, and the enumerated envelope must be
    # isomorphic to it
    from itertools import permutations

    perms = sorted(permutations((0, 1, 2)))
    ident = (0, 1, 2)
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: k for k, p in enumerate(perms)}

    def pmul(a, b):  # a after b
        return tuple(a[b[i]] for i in range(3))

    s3 = E.FinGroup([[index[pmul(a, b)] for b in perms] for a in perms])
    transpositions = {
        1: index[(1, 0, 2)],  # swaps letters 0,1
        2: index[(2, 1, 0)],
        3: index[(0, 2, 1)],
    }
    q = catalog("(12)^S3")
    # x_i are the transpositions: which one matches which quandle element is a
    # labeling choice; find one that satisfies the conjugation rule
    hom = None
    for assignment in permutations(transpositions.values()):
        f = dict(zip((1, 2, 3), assignment))
        hom = E.induced_hom(q, f, s3.mul, s3.inv)
        if hom is not None:
            break
    assert hom is not None
    env = E.finite_enveloping_group(q)
    assert next(E.iter_isomorphisms(env.group, s3), None) is not None


def test_enveloping_tables_satisfy_relations():
    for name in ("(12)^S3", "Aff(5,4)", "Z_3^{3,2}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        g = env.group
        images = dict(zip(q.elements(), env.images))
        assert E.induced_hom(q, images, g.mul, g.inv) is not None
        env.group.validate_associativity()


def test_enveloping_tables_satisfy_all_relators():
    # every presentation relator (including the power relators) evaluates to
    # the identity in the enumerated group
    for name in ("(123)^A4", "Z_3^{3,1}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        g = env.group
        pres = E.enveloping_presentation(q)
        for word in pres.relators + env.power_relators:
            x = 0
            for v in word:
                img = env.images[abs(v) - 1]
                x = g.mul(x, img if v > 0 else g.inv(img))
            assert x == 0, (name, word)


@pytest.mark.parametrize("name", catalog_names()[1:] + ["trivial(3)"])
def test_catalog_envelope_matches_fresh_build(name):
    env, classes = E.catalog_envelope(name)
    fresh = E.finite_enveloping_group(catalog(name))
    assert env.group.mult == fresh.group.mult
    assert env.group.names == fresh.group.names
    assert env.group.generator_ids == fresh.group.generator_ids
    assert env.images == fresh.images
    assert sorted(classes) == sorted(fresh.group.conjugacy_classes())
    assert E.catalog_envelope(name) is E.catalog_envelope(name)


def test_catalog_envelope_classes_are_tuples():
    _, classes = E.catalog_envelope("Z_4^{4,2}")
    assert type(classes) is tuple
    assert all(type(c) is tuple for c in classes)


def test_catalog_envelope_cache_is_bounded():
    assert E._catalog_envelope.cache_info().maxsize == E._CATALOG_ENVELOPES


@pytest.mark.parametrize("name", ["nope", 3, ["(12)^S3"]])
def test_catalog_envelope_rejects_unknown_names_and_caches_nothing(name):
    before = E._catalog_envelope.cache_info().currsize
    with pytest.raises(InputError):
        E.catalog_envelope(name)
    assert E._catalog_envelope.cache_info().currsize == before


def _s4_4cycle_table() -> tuple[list[list[int]], E.Presentation]:
    """The coset table of the order-96 (1234)^S4 envelope and its presentation."""
    q = catalog("(1234)^S4")
    env = E.finite_enveloping_group(q)
    pres = E.enveloping_presentation(q)
    full = E.Presentation(pres.generators, pres.relators + env.power_relators)
    table = E.todd_coxeter(full)
    assert len(table) == 96
    return table, full


def test_coset_table_check_accepts_the_enumerated_table():
    table, full = _s4_4cycle_table()
    group, _ = E._group_from_regular_table(table, full)
    assert group.mult == E.finite_enveloping_group(catalog("(1234)^S4")).group.mult
    group.validate_associativity()


def test_coset_table_with_swapped_generator_entries_raises():
    table, full = _s4_4cycle_table()
    table[5][2], table[17][2] = table[17][2], table[5][2]
    with pytest.raises(InvariantViolationError):
        E._group_from_regular_table(table, full)


def test_coset_table_check_is_complete_without_relators():
    # swap two entries of a generator column and repair its inverse column:
    # both stay permutations, so only the regularity closure can object
    table, full = _s4_4cycle_table()
    x, y = 5, 17
    bx, by = table[x][2], table[y][2]
    table[x][2], table[y][2] = by, bx
    table[by][3], table[bx][3] = x, y
    with pytest.raises(InvariantViolationError, match="regular action"):
        E._group_from_regular_table(table, E.Presentation(full.generators, ()))


def test_coset_table_inverse_columns_must_invert():
    # read x1^-1 as x1: the table is still a regular action, but not of the
    # presented generators and their inverses
    table, full = _s4_4cycle_table()
    for row in table:
        row[1] = row[0]
    with pytest.raises(InvariantViolationError, match="not inverse"):
        E._group_from_regular_table(table, E.Presentation(full.generators, ()))


def test_coset_table_relators_must_close():
    # a genuine regular action of the wrong group: the (12)^S4 relators fail
    table, full = _s4_4cycle_table()
    other = E.enveloping_presentation(catalog("(12)^S4"))
    assert other.generators == full.generators
    E._group_from_regular_table(table, E.Presentation(full.generators, ()))
    with pytest.raises(InvariantViolationError, match="relator"):
        E._group_from_regular_table(table, other)


def test_decomposable_extension_flag():
    assert E.finite_enveloping_group(catalog("Z_2^{2,2}")).decomposable_extension
    assert not E.finite_enveloping_group(catalog("(12)^S3")).decomposable_extension


def test_coset_cap():
    # free group of rank 2: enumeration cannot complete
    pres = E.Presentation(("a", "b"), ())
    with pytest.raises(ResourceCapError):
        E.todd_coxeter(pres, max_cosets=50)


@pytest.mark.parametrize("budget", [0, -1])
def test_nonpositive_coset_budget_is_an_input_error(budget):
    # no enumeration can meet such a budget, so it is a bad input, not an
    # exceeded cap; a budget of one still enumerates the trivial group
    trivial = E.Presentation(("a",), ((1,),))
    assert E.todd_coxeter(trivial, max_cosets=1) == [[0, 0]]
    with pytest.raises(InputError, match="max_cosets"):
        E.todd_coxeter(trivial, max_cosets=budget)
    with pytest.raises(InputError, match="max_cosets"):
        E.finite_enveloping_group(catalog("(12)^S3"), budget)


def test_coset_table_renumbering_rejects_an_unreachable_live_coset():
    # one generator; coset 1 is live (its own representative) but no edge reaches it
    table = E._CosetTable(1, (), max_cosets=10)
    table.table = [[0, 0], [1, 1]]
    table.p = [0, 1]
    with pytest.raises(InvariantViolationError, match="unreachable"):
        table._compact()


def test_injectivity_catalog():
    for name in INDECOMPOSABLE_NAMES:
        q = catalog(name)
        assert len(set(E.finite_enveloping_group(q).images)) == q.n, name


def test_class_size_matches_orbit():
    # pi did restricted to the inner orbit of any x_i is injective: the class
    # of an image has the same size as the quandle orbit
    from qnichols.quandle import inner_orbits

    for name in ("(123)^A4", "Z_3^{3,2}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        for orb in inner_orbits(q):
            imgs = {env.images[i - 1] for i in orb}
            assert len(imgs) == len(orb)
            assert set(env.group.conjugacy_class_of(env.images[orb[0] - 1])) == imgs


def test_env_group_decomposing_product():
    # for each two-orbit quandle, G = A B with A, B the orbit-image subgroups
    from qnichols.quandle import inner_orbits

    for name in Z_QUANDLE_NAMES:
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        orb1, orb2 = inner_orbits(q)
        a = env.group.subgroup_closure([env.images[i - 1] for i in orb1])
        b = env.group.subgroup_closure([env.images[i - 1] for i in orb2])
        products = {env.group.mul(x, y) for x in a for y in b}
        assert len(products) == env.group.order, name


# -- finite group analysis -------------------------------------------------------


def test_abelian_group_classes():
    z6 = E.FinGroup([[(a + b) % 6 for b in range(6)] for a in range(6)])
    assert all(len(c) == 1 for c in z6.conjugacy_classes())
    assert z6.has_abelian_centralizers()
    assert z6.center() == tuple(range(6))
    assert z6.commutator_subgroup() == (0,)


def _abelian_centralizers_by_definition(g: E.FinGroup) -> bool:
    centre = set(g.center())
    return all(g.is_abelian(g.centralizer(a)) for a in range(g.order) if a not in centre)


def test_abelian_centralizers_one_class_at_a_time():
    # one centralizer per non-central class against every non-central element
    groups = {name: E.catalog_envelope(name)[0].group for name in catalog_names() if name != "trivial(n)"}
    groups["SL(2,3)"] = E.sl23()[0]
    groups["Z_2 x Z_4"] = Y.abelian_group([2, 4])
    verdicts = {name: g.has_abelian_centralizers() for name, g in groups.items()}
    assert verdicts == {name: _abelian_centralizers_by_definition(g) for name, g in groups.items()}
    # in S4, (12)(34) has the centralizer D8
    assert [name for name, abelian in verdicts.items() if not abelian] == ["(12)^S4"]


def test_sl23_structure():
    g, grading, images = E.sl23()
    assert g.order == 24
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 1, 4, 4, 4, 4, 6]
    assert g.has_abelian_centralizers()
    assert [grading[i] for i in images] == [1, 1, 1, 1]
    # the first conjugation-preserving bijection onto the least order-3 class
    assert images == (3, 8, 9, 20)
    # grading kernel is the order-8 Sylow subgroup
    assert sum(1 for a in range(24) if grading[a] == 0) == 8


def test_fingroup_validation():
    with pytest.raises(InputError):
        E.FinGroup([[0, 1], [1, 1]])  # not a permutation row
    with pytest.raises(InputError):
        E.FinGroup([[1, 0], [0, 1]])  # 0 not identity


def test_fingroup_refuses_the_empty_table():
    # an empty table has no identity: its commutator subgroup would be (0,)
    with pytest.raises(InputError, match="identity"):
        E.FinGroup([])


def test_fingroup_validation_checks_every_triple_above_order_64():
    # Z_72 with one intercalate swapped: rows stay permutations and 0 stays
    # the identity, but 1 * 1 = 38 breaks associativity.  No failing triple
    # lies in the multiples of 3, which a stride-3 sample would have checked.
    n = 72
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a, b in ((1, 1), (1, 37), (37, 1), (37, 37)):
        mult[a][b] = (mult[a][b] + n // 2) % n
    with pytest.raises(InputError, match="associative"):
        E.FinGroup(mult)
    assert E.FinGroup([[(a + b) % n for b in range(n)] for a in range(n)]).order == n


def test_fingroup_check_refuses_tables_above_the_cap():
    def cyclic(n):
        return [[(a + b) % n for b in range(n)] for a in range(n)]

    n = E.MAX_CHECKED_ORDER
    assert E.FinGroup(cyclic(n)).order == n
    with pytest.raises(ResourceCapError, match="exceeds"):
        E.FinGroup(cyclic(n + 1))
    # tables the package builds itself skip the check, and with it the cap
    assert E.FinGroup(cyclic(n + 1), check=False).order == n + 1


def test_quotient_and_subgroup():
    g, _, _ = E.sl23()
    centre = g.center()
    assert len(centre) == 2
    quo, proj = g.quotient(centre)
    assert quo.order == 12
    assert proj[0] == 0
    sub, pos = g.subgroup(g.commutator_subgroup())
    assert sub.order == 8 and pos[0] == 0


# -- Gamma_n -------------------------------------------------------------------


def test_gamma_defining_relations():
    for n in (2, 3, 4):
        eps, h, g = E.gamma_generators(n)
        assert E.gamma_mul(h, g) == E.gamma_mul(E.gamma_mul(eps, g), h)  # hg = eps g h
        assert E.gamma_mul(g, eps) == E.gamma_mul(E.gamma_eps(n, -1), g)  # g eps = eps^-1 g
        assert E.gamma_mul(h, eps) == E.gamma_mul(eps, h)
        assert E.gamma_eps(n, n) == E.gamma_identity(n)


def test_gamma_identity_mul():
    x = E.GammaElem(3, 2, -1, 5)
    assert E.gamma_mul(E.gamma_identity(3), x) == x
    assert E.gamma_mul(x, E.gamma_identity(3)) == x
    assert E.gamma_mul(x, E.gamma_inv(x)) == E.gamma_identity(3)


def test_gamma_modulus_mismatch():
    with pytest.raises(InputError):
        E.gamma_mul(E.gamma_g(2), E.gamma_g(3))


gamma_elems = st.builds(
    E.GammaElem,
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


@settings(max_examples=150, deadline=None)
@given(gamma_elems, gamma_elems, gamma_elems)
def test_gamma_associative(a, b, c):
    if not (a.n == b.n == c.n):
        a, b, c = (E.GammaElem(2, x.i % 2, x.j, x.k) for x in (a, b, c))
    assert E.gamma_mul(E.gamma_mul(a, b), c) == E.gamma_mul(a, E.gamma_mul(b, c))


@settings(max_examples=80, deadline=None)
@given(gamma_elems)
def test_gamma_normal_form_round_trip(a):
    assert 0 <= a.i < a.n
    assert E.gamma_inv(E.gamma_inv(a)) == a


def test_gamma_classes_match_listed_families():
    for n in (2, 3, 4):
        eps, h, g = E.gamma_generators(n)
        assert E.gamma_conj_class(g) == frozenset(
            E.gamma_mul(E.gamma_eps(n, m), g) for m in range(n)
        )
        assert E.gamma_conj_class(h) == frozenset(
            {h, E.gamma_mul(E.gamma_eps(n, -1), h)}
        )
        hg = E.gamma_mul(h, g)
        assert E.gamma_conj_class(hg) == frozenset(
            E.gamma_mul(E.gamma_eps(n, m), hg) for m in range(n)
        )


def test_gamma_classes_with_central_shift():
    # the families are stable under multiplying by central elements
    for n in (2, 3):
        for z in E.gamma_center_generators(n):
            gz = E.gamma_mul(E.gamma_g(n), z)
            assert E.gamma_conj_class(gz) == frozenset(
                E.gamma_mul(E.gamma_eps(n, m), gz) for m in range(n)
            )


def test_gamma_center_generators_are_central():
    for n in (2, 3, 4):
        for z in E.gamma_center_generators(n):
            assert E.gamma_centralizer_check(z, E.gamma_generators(n))


def test_gamma_centralizers_commute():
    for n in (2, 3, 4):
        eps, h, g = E.gamma_generators(n)
        for x, fam in ((g, "g"), (E.gamma_mul(h, g), "hg"), (h, "h")):
            gens = E.gamma_centralizer_generators(n, fam)
            assert E.gamma_centralizer_check(x, gens), (n, fam)
            # the listed sets are abelian
            assert all(
                E.gamma_mul(u, v) == E.gamma_mul(v, u) for u in gens for v in gens
            )


def test_gamma_commutator_closure_is_eps():
    for n in (2, 3, 4):
        assert E.gamma_commutator_closure(n) == frozenset(
            E.gamma_eps(n, m) for m in range(n)
        )


# -- T -------------------------------------------------------------------------


def test_t_relations():
    q = catalog("(123)^A4")
    for i in q.elements():
        for j in q.elements():
            lhs = E.t_mul(E.t_gen(i), E.t_gen(j))
            rhs = E.t_mul(E.t_gen(q.op(i, j)), E.t_gen(i))
            assert lhs == rhs


def test_t_cube_is_central_degree3():
    x1 = E.t_gen(1)
    cube = E.t_mul(E.t_mul(x1, x1), x1)
    assert cube == E.TElem(0, 3, 0)
    # z is a separate central direct factor
    assert E.t_mul(E.t_z(), x1) == E.t_mul(x1, E.t_z())


def test_t_grading_enforced():
    with pytest.raises(InputError):
        E.TElem(0, 1, 0)  # identity image has degree 0


def test_t_inverse():
    a = E.t_mul(E.t_gen(2), E.t_mul(E.t_gen(3), E.t_z(5)))
    assert E.t_mul(a, E.t_inv(a)) == E.t_identity()


# -- universal property -----------------------------------------------------------


def test_induced_hom_examples():
    q = catalog("Z_2^{2,2}")
    f = {
        1: E.gamma_g(2),
        2: E.gamma_h(2),
        3: E.gamma_mul(E.gamma_eps(2), E.gamma_g(2)),
        4: E.gamma_mul(E.gamma_eps(2), E.gamma_h(2)),
    }
    ev = E.induced_hom(q, f, E.gamma_mul, E.gamma_inv)
    assert ev is not None
    # evaluate the word x1 x2 x1^-1: must equal f(1>2) = f(4)
    assert ev((1, 2, -1), E.gamma_identity(2)) == f[q.op(1, 2)]

    q31 = catalog("Z_3^{3,1}")
    f31 = {
        1: E.gamma_g(3),
        2: E.gamma_mul(E.gamma_eps(3), E.gamma_g(3)),
        3: E.gamma_mul(E.gamma_eps(3, 2), E.gamma_g(3)),
        4: E.gamma_mul(E.gamma_eps(3), E.gamma_h(3)),
    }
    assert E.induced_hom(q31, f31, E.gamma_mul, E.gamma_inv) is not None

    const = {i: E.gamma_identity(2) for i in q.elements()}
    assert E.induced_hom(q, const, E.gamma_mul, E.gamma_inv) is not None

    bad = dict(f)
    bad[2], bad[4] = bad[4], bad[2]
    bad[1] = E.gamma_h(2)
    assert E.induced_hom(q, bad, E.gamma_mul, E.gamma_inv) is None


# -- isoclinism -------------------------------------------------------------------


def test_isoclinism_self():
    g, _, _ = E.sl23()
    w = E.isoclinism_witness(g, g)
    assert w is not None


def test_isoclinism_abelian_pairs():
    z4 = E.FinGroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
    z22 = E.FinGroup([[a ^ b for b in range(4)] for a in range(4)])
    assert E.isoclinism_witness(z4, z22) is not None


def test_isoclinism_sl23_vs_a4():
    g, _, _ = E.sl23()
    a4, _ = g.quotient(g.center())
    assert E.isoclinism_witness(g, a4) is None


def test_isoclinism_bound():
    g, _, _ = E.sl23()
    with pytest.raises(ResourceCapError):
        E.isoclinism_witness(g, g, bound=8)


def test_isoclinism_transfers_abelian_centralizers():
    # whenever a witness exists and G has abelian centralizers, so does H
    g, _, _ = E.sl23()
    d4 = E.finite_enveloping_group(catalog("Z_2^{2,2}")).group
    q8, _ = g.subgroup(g.commutator_subgroup())
    for a, b in ((d4, q8), (q8, d4)):
        w = E.isoclinism_witness(a, b)
        if w is not None and a.has_abelian_centralizers():
            assert b.has_abelian_centralizers()
    assert E.isoclinism_witness(d4, q8) is not None  # classic isoclinic pair


def _assert_isoclinism(g: E.FinGroup, h: E.FinGroup, witness) -> None:
    """zeta is an isomorphism G/Z(G) -> H/Z(H), eta one [G,G] -> [H,H], and
    eta sends [a, b] to [zeta a, zeta b] on the first-preimage coset
    representatives."""
    zeta, eta = witness
    qg, projg = g.quotient(g.center())
    qh, projh = h.quotient(h.center())
    dg, posg = g.subgroup(g.commutator_subgroup())
    dh, posh = h.subgroup(h.commutator_subgroup())
    for src, dst, f in ((qg, qh, zeta), (dg, dh, eta)):
        assert sorted(f) == list(range(dst.order)) and len(f) == src.order
        for a in range(src.order):
            for b in range(src.order):
                assert f[src.mul(a, b)] == dst.mul(f[a], f[b])
    repg = [projg.index(c) for c in range(qg.order)]
    reph = [projh.index(c) for c in range(qh.order)]
    for a in range(qg.order):
        for b in range(qg.order):
            cg = posg[g.commutator(repg[a], repg[b])]
            ch = posh[h.commutator(reph[zeta[a]], reph[zeta[b]])]
            assert eta[cg] == ch


def test_isoclinism_witnesses_are_isoclinisms():
    # the pairs the isoclinism tests above get a witness for
    g, _, _ = E.sl23()
    z4 = E.FinGroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
    z22 = E.FinGroup([[a ^ b for b in range(4)] for a in range(4)])
    d4 = E.finite_enveloping_group(catalog("Z_2^{2,2}")).group
    q8, _ = g.subgroup(g.commutator_subgroup())
    for a, b in ((g, g), (z4, z22), (d4, q8), (q8, d4)):
        witness = E.isoclinism_witness(a, b)
        assert witness is not None
        _assert_isoclinism(a, b, witness)


def _cyclic(n: int) -> E.FinGroup:
    return E.FinGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def _small_groups() -> dict[str, E.FinGroup]:
    sl, _, _ = E.sl23()
    return {
        "S3": E.finite_enveloping_group(catalog("(12)^S3")).group,
        "Z4": _cyclic(4),
        "Z2^2": E.FinGroup([[a ^ b for b in range(4)] for a in range(4)]),
        "D4": E.finite_enveloping_group(catalog("Z_2^{2,2}")).group,
        "Q8": sl.subgroup(sl.commutator_subgroup())[0],
        "A4": sl.quotient(sl.center())[0],
        "SL(2,3)": sl,
        "Z6": _cyclic(6),
    }


def test_automorphism_counts_match_published_orders():
    # |Aut(G)| for each group: Aut(D4) = D4, Aut(Q8) = Aut(A4) = Aut(SL(2,3)) = S4
    published = {
        "S3": 6, "Z4": 2, "Z2^2": 6, "D4": 8, "Q8": 24, "A4": 24, "SL(2,3)": 24, "Z6": 2,
    }
    groups = _small_groups()
    assert groups["D4"].order == 8 and not groups["D4"].is_abelian()
    for name, g in groups.items():
        assert len(list(E.iter_isomorphisms(g, g))) == published[name], name


def _relabeled(g: E.FinGroup, perm) -> E.FinGroup:
    """The group with element x renamed perm[x] (perm fixes 0)."""
    back = {y: x for x, y in enumerate(perm)}
    return E.FinGroup([[perm[g.mul(back[a], back[b])] for b in range(g.order)] for a in range(g.order)])


def _brute_isomorphisms(g: E.FinGroup, h: E.FinGroup, partial=None) -> list[tuple[int, ...]]:
    from itertools import permutations

    if g.order != h.order:
        return []
    n = g.order
    return sorted(
        f
        for f in permutations(range(n))
        if all(f[a] == b for a, b in (partial or {}).items())
        and all(f[g.mul(a, b)] == h.mul(f[a], f[b]) for a in range(n) for b in range(n))
    )


def test_isomorphisms_match_brute_force_up_to_order_6():
    import random

    rng = random.Random(0)
    groups = [g for g in _small_groups().values() if g.order <= 6]
    groups += [_cyclic(n) for n in (1, 2, 3, 5)]
    copies = []
    for g in groups:
        perm = [0] + rng.sample(range(1, g.order), g.order - 1)
        copies.append(_relabeled(g, perm))
    for g in groups:
        for h in groups + copies:
            assert sorted(E.iter_isomorphisms(g, h)) == _brute_isomorphisms(g, h)
    for g, h in zip(groups, copies):
        for f in _brute_isomorphisms(g, h)[:2]:
            partial = {a: f[a] for a in range(1, g.order, 2)}
            found = sorted(E.iter_isomorphisms(g, h, partial))
            assert found == _brute_isomorphisms(g, h, partial) and f in found

import pytest
from hypothesis import given, settings, strategies as st

from qnichols import envgroup as E
from qnichols import ydmod as Y
from qnichols.errors import InputError, InvariantViolationError, ResourceCapError
from qnichols.quandle import (
    Z_QUANDLE_NAMES,
    catalog,
    catalog_names,
    inner_orbits,
)
from qnichols.supportcalc import two_orbit_candidates

from oracles import (
    INDECOMPOSABLE_NAMES,
    center_by_all_elements,
    class_by_all_conjugates,
    commutator_subgroup_by_all_pairs,
    element_order,
    enveloping_presentation_cyclic,
    gamma_envelope,
    induced_hom,
    isoclinism_witness,
    iter_isomorphisms,
    labeled_quandles,
    quotient,
    stack_closure,
    subgroup,
    symmetric_group_table,
)


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
    for q in labeled_quandles(n):
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
    comm, _ = subgroup(g, g.commutator_subgroup())
    assert comm.order == 8
    assert not comm.is_abelian()
    assert sum(1 for a in range(comm.order) if element_order(comm, a) == 2) == 1
    assert next(iter_isomorphisms(g, E.sl23()), None) is not None


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
        hom = induced_hom(q, f, s3.mul, s3.inv)
        if hom is not None:
            break
    assert hom is not None
    env = E.finite_enveloping_group(q)
    assert next(iter_isomorphisms(env.group, s3), None) is not None


def test_enveloping_tables_satisfy_relations():
    for name in ("(12)^S3", "Aff(5,4)", "Z_3^{3,2}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        g = env.group
        images = dict(zip(q.elements(), env.images))
        assert induced_hom(q, images, g.mul, g.inv) is not None
        env.group.validate_associativity()


def _power_relators(q) -> tuple:
    """x_r^{ord(phi_r)} for the least element r of each inner orbit."""
    return tuple(tuple([orb[0]] * q.row_order(orb[0])) for orb in inner_orbits(q))


def test_enveloping_tables_satisfy_all_relators():
    # every presentation relator (including the power relators) evaluates to
    # the identity in the enumerated group
    for name in ("(123)^A4", "Z_3^{3,1}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        g = env.group
        pres = E.enveloping_presentation(q)
        for word in pres.relators + _power_relators(q):
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
    pres = E.enveloping_presentation(q)
    full = E.Presentation(pres.generators, pres.relators + _power_relators(q))
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
    for name in ("(123)^A4", "Z_3^{3,2}", "Z_4^{4,2}"):
        q = catalog(name)
        env = E.finite_enveloping_group(q)
        for orb in inner_orbits(q):
            imgs = {env.images[i - 1] for i in orb}
            assert len(imgs) == len(orb)
            assert set(env.group.conjugacy_class_of(env.images[orb[0] - 1])) == imgs


def test_subgroup_closure_matches_the_closure_under_inverses():
    # oracle: the stack search that also multiplies by each generator's inverse
    names = [name for name in catalog_names() if name != "trivial(n)"]
    for group in [E.catalog_envelope(name)[0].group for name in names] + [E.sl23()]:
        reps = [cls[0] for cls in group.conjugacy_classes()]
        gen_sets = [[g] for g in range(group.order)] + [[a, b] for a in reps for b in reps]
        for gens in gen_sets + [list(group.generator_ids)]:
            want = stack_closure(
                0, lambda x: [group.mul(x, y) for g in gens for y in (g, group.inv(g))]
            )
            assert group.subgroup_closure(gens) == tuple(sorted(want)), (group, gens)


def test_env_group_decomposing_product():
    # for each two-orbit quandle, G = A B with A, B the orbit-image subgroups
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
    groups["SL(2,3)"] = E.sl23()
    groups["Z_2 x Z_4"] = Y.abelian_group([2, 4])
    verdicts = {name: g.has_abelian_centralizers() for name, g in groups.items()}
    assert verdicts == {name: _abelian_centralizers_by_definition(g) for name, g in groups.items()}
    # in S4, (12)(34) has the centralizer D8
    assert [name for name, abelian in verdicts.items() if not abelian] == ["(12)^S4"]


def test_sl23_structure():
    g = E.sl23()
    assert g.order == 24
    # sl23() builds its table unchecked; the full row and associativity check
    # must accept the same table
    E.FinGroup(g.mult)
    assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 1, 4, 4, 4, 4, 6]
    assert g.has_abelian_centralizers()


def _assert_analysis_matches_the_oracles(g: E.FinGroup) -> None:
    # generators: generator_ids, then each time the least element not yet reached
    gens, k = g.generators, len(g.generator_ids)
    assert gens[:k] == g.generator_ids
    for i in range(k, len(gens)):
        reached = set(g.subgroup_closure(gens[:i]))
        assert len(reached) < g.order and gens[i] == min(set(range(g.order)) - reached)
    assert g.subgroup_closure(gens) == tuple(range(g.order))
    classes = [class_by_all_conjugates(g, a) for a in range(g.order)]
    assert [g.conjugacy_class_of(a) for a in range(g.order)] == classes
    for a in range(g.order):
        moved = g.conjugators(a)
        assert tuple(sorted(moved)) == classes[a]
        assert all(g.conj(h, a) == x for x, h in moved.items()), a
    assert g.conjugacy_classes() == sorted(set(classes))
    assert g.center() == center_by_all_elements(g)
    assert g.commutator_subgroup() == commutator_subgroup_by_all_pairs(g)


def test_group_analysis_matches_the_all_element_definitions():
    envelopes = [E.catalog_envelope(name)[0].group for name in catalog_names() if name != "trivial(n)"]
    abelian = [Y.abelian_group([2, 4]), Y.abelian_group([1])]
    for g in envelopes + abelian + [E.sl23()]:
        _assert_analysis_matches_the_oracles(g)
    # enveloping and abelian groups keep exactly their generator_ids
    for g in envelopes + abelian:
        assert g.generators == g.generator_ids, g


_S4_MULT = symmetric_group_table(4)[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), max_size=3))
def test_group_analysis_from_any_generator_ids(ids):
    # the ids may be empty, repeat, or generate a proper subgroup
    g = E.FinGroup(_S4_MULT, generator_ids=ids)
    _assert_analysis_matches_the_oracles(g)
    if g.subgroup_closure(ids) == tuple(range(24)):
        assert g.generators == tuple(ids)


def test_conjugators_conjugate_beyond_generator_ids():
    # generator_ids name only the transposition (0,2,1) of S3: conjugation
    # by it alone swaps (1,0,2) and (2,1,0) and never reaches (0,2,1)
    perms, mult = symmetric_group_table(3)
    g = E.FinGroup(mult, generator_ids=(perms.index((0, 2, 1)),))
    _assert_analysis_matches_the_oracles(g)


def test_fingroup_refuses_generator_ids_outside_the_group():
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    for ids in ((7,), (-1,), (0, 3)):
        for check in (True, False):
            with pytest.raises(InputError, match="generator ids"):
                E.FinGroup(z3, generator_ids=ids, check=check)
    assert E.FinGroup(z3, generator_ids=(2,)).generators == (2,)


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
    g = E.sl23()
    centre = g.center()
    assert len(centre) == 2
    quo, proj = quotient(g, centre)
    assert quo.order == 12
    assert proj[0] == 0
    sub, pos = subgroup(g, g.commutator_subgroup())
    assert sub.order == 8 and pos[0] == 0


# -- Gamma_n, through the catalog envelopes of Z_n^{n,2} -------------------------


def _power(group: E.FinGroup, x: int, k: int) -> int:
    y = 0
    for _ in range(k):
        y = group.mul(y, x)
    return y


def test_gamma_defining_relations():
    for n in (2, 3, 4):
        G, eps, h, g = gamma_envelope(n)
        assert G.mul(h, g) == G.mul(G.mul(eps, g), h)  # hg = eps g h
        assert G.mul(g, eps) == G.mul(G.inv(eps), g)  # g eps = eps^-1 g
        assert G.mul(h, eps) == G.mul(eps, h)
        assert element_order(G, eps) == n


def test_gamma_classes_match_listed_families():
    for n in (2, 3, 4):
        G, eps, h, g = gamma_envelope(n)
        powers = G.subgroup_closure([eps])
        hg = G.mul(h, g)
        assert set(G.conjugacy_class_of(g)) == {G.mul(e, g) for e in powers}
        assert set(G.conjugacy_class_of(h)) == {h, G.mul(G.inv(eps), h)}
        assert set(G.conjugacy_class_of(hg)) == {G.mul(e, hg) for e in powers}


def _center_generators(G: E.FinGroup, eps: int, h: int, g: int, n: int) -> list[int]:
    """eps^-1 h^2, h^n and g^2, which generate the centre of Gamma_n."""
    return [G.mul(G.inv(eps), _power(G, h, 2)), _power(G, h, n), _power(G, g, 2)]


def test_gamma_classes_with_central_shift():
    # the families are stable under multiplying by central elements
    for n in (2, 3):
        G, eps, h, g = gamma_envelope(n)
        powers = G.subgroup_closure([eps])
        for z in _center_generators(G, eps, h, g, n):
            gz = G.mul(g, z)
            assert set(G.conjugacy_class_of(gz)) == {G.mul(e, gz) for e in powers}


def test_gamma_center_generators_are_central():
    for n in (2, 3, 4):
        G, eps, h, g = gamma_envelope(n)
        assert set(_center_generators(G, eps, h, g, n)) <= set(G.center())


def test_gamma_centralizers_commute():
    for n in (2, 3, 4):
        G, eps, h, g = gamma_envelope(n)
        eps_inv_h2 = G.mul(G.inv(eps), _power(G, h, 2))
        hg = G.mul(h, g)
        families = (
            (g, [eps_inv_h2, g, _power(G, h, n)]),
            (hg, [eps_inv_h2, hg, _power(G, h, n)]),
            (h, [eps, h, _power(G, g, 2)]),
        )
        for x, gens in families:
            # the listed abelian generating sets generate the whole centralizer
            assert G.subgroup_closure(gens) == G.centralizer(x), (n, x)
            assert G.is_abelian(G.centralizer(x)), (n, x)


def test_gamma_commutator_closure_is_eps():
    for n in (2, 3, 4):
        G, eps, _, _ = gamma_envelope(n)
        assert G.commutator_subgroup() == G.subgroup_closure([eps])
        assert len(G.commutator_subgroup()) == n


#: (orbit size, class size of the image, centralizer order) for each inner
#: orbit of a two-orbit catalog quandle, in its catalog envelope
_ENVELOPE_ORBITS = {
    "Z_2^{2,2}": [(2, 2, 4), (2, 2, 4)],
    "Z_3^{3,2}": [(3, 3, 6), (2, 2, 9)],
    "Z_4^{4,2}": [(4, 4, 8), (2, 2, 16)],
    "Z_3^{3,1}": [(3, 3, 2), (1, 1, 6)],
    "Z_T^{4,1}": [(4, 4, 6), (1, 1, 24)],
}


def test_two_orbit_envelope_classes_and_centralizers():
    assert sorted(_ENVELOPE_ORBITS) == sorted(Z_QUANDLE_NAMES)
    for name, want in _ENVELOPE_ORBITS.items():
        env, classes = E.catalog_envelope(name)
        got = []
        for orb in inner_orbits(catalog(name)):
            x = env.images[orb[0] - 1]
            cls = next(c for c in classes if x in c)
            got.append((len(orb), len(cls), len(env.group.centralizer(x))))
        assert got == want, name


def test_z_t_envelope_is_sl23():
    group = E.catalog_envelope("Z_T^{4,1}")[0].group
    assert group.order == 24
    assert next(iter_isomorphisms(group, E.sl23()), None) is not None


# -- universal property -----------------------------------------------------------


def test_induced_hom_examples():
    q = catalog("Z_2^{2,2}")
    G, eps, h, g = gamma_envelope(2)
    f = {1: g, 2: h, 3: G.mul(eps, g), 4: G.mul(eps, h)}
    ev = induced_hom(q, f, G.mul, G.inv)
    assert ev is not None
    # evaluate the word x1 x2 x1^-1: must equal f(1>2) = f(4)
    assert ev((1, 2, -1), 0) == f[q.op(1, 2)]

    q31 = catalog("Z_3^{3,1}")
    G3, eps3, h3, g3 = gamma_envelope(3)
    f31 = {
        1: g3,
        2: G3.mul(eps3, g3),
        3: G3.mul(G3.mul(eps3, eps3), g3),
        4: G3.mul(eps3, h3),
    }
    assert induced_hom(q31, f31, G3.mul, G3.inv) is not None

    const = {i: 0 for i in q.elements()}
    assert induced_hom(q, const, G.mul, G.inv) is not None

    bad = dict(f)
    bad[2], bad[4] = bad[4], bad[2]
    bad[1] = h
    assert induced_hom(q, bad, G.mul, G.inv) is None


# -- isoclinism -------------------------------------------------------------------


def test_isoclinism_self():
    g = E.sl23()
    w = isoclinism_witness(g, g)
    assert w is not None


def test_isoclinism_abelian_pairs():
    z4 = E.FinGroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
    z22 = E.FinGroup([[a ^ b for b in range(4)] for a in range(4)])
    assert isoclinism_witness(z4, z22) is not None


def test_isoclinism_sl23_vs_a4():
    g = E.sl23()
    a4, _ = quotient(g, g.center())
    assert isoclinism_witness(g, a4) is None


def test_isoclinism_bound():
    g = E.sl23()
    with pytest.raises(ResourceCapError):
        isoclinism_witness(g, g, bound=8)


def test_isoclinism_transfers_abelian_centralizers():
    # whenever a witness exists and G has abelian centralizers, so does H
    g = E.sl23()
    d4 = E.finite_enveloping_group(catalog("Z_2^{2,2}")).group
    q8, _ = subgroup(g, g.commutator_subgroup())
    for a, b in ((d4, q8), (q8, d4)):
        w = isoclinism_witness(a, b)
        if w is not None and a.has_abelian_centralizers():
            assert b.has_abelian_centralizers()
    assert isoclinism_witness(d4, q8) is not None  # classic isoclinic pair


def _assert_isoclinism(g: E.FinGroup, h: E.FinGroup, witness) -> None:
    """zeta is an isomorphism G/Z(G) -> H/Z(H), eta one [G,G] -> [H,H], and
    eta sends [a, b] to [zeta a, zeta b] on the first-preimage coset
    representatives."""
    zeta, eta = witness
    qg, projg = quotient(g, g.center())
    qh, projh = quotient(h, h.center())
    dg, posg = subgroup(g, g.commutator_subgroup())
    dh, posh = subgroup(h, h.commutator_subgroup())
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
    g = E.sl23()
    z4 = E.FinGroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
    z22 = E.FinGroup([[a ^ b for b in range(4)] for a in range(4)])
    d4 = E.finite_enveloping_group(catalog("Z_2^{2,2}")).group
    q8, _ = subgroup(g, g.commutator_subgroup())
    for a, b in ((g, g), (z4, z22), (d4, q8), (q8, d4)):
        witness = isoclinism_witness(a, b)
        assert witness is not None
        _assert_isoclinism(a, b, witness)


def _cyclic(n: int) -> E.FinGroup:
    return E.FinGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def _small_groups() -> dict[str, E.FinGroup]:
    sl = E.sl23()
    return {
        "S3": E.finite_enveloping_group(catalog("(12)^S3")).group,
        "Z4": _cyclic(4),
        "Z2^2": E.FinGroup([[a ^ b for b in range(4)] for a in range(4)]),
        "D4": E.finite_enveloping_group(catalog("Z_2^{2,2}")).group,
        "Q8": subgroup(sl, sl.commutator_subgroup())[0],
        "A4": quotient(sl, sl.center())[0],
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
        assert len(list(iter_isomorphisms(g, g))) == published[name], name


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
            assert sorted(iter_isomorphisms(g, h)) == _brute_isomorphisms(g, h)
    for g, h in zip(groups, copies):
        for f in _brute_isomorphisms(g, h)[:2]:
            partial = {a: f[a] for a in range(1, g.order, 2)}
            found = sorted(iter_isomorphisms(g, h, partial))
            assert found == _brute_isomorphisms(g, h, partial) and f in found

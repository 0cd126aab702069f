import itertools
from collections import Counter

import pytest

from qnichols import envgroup as E
from qnichols import quandle as Q
from qnichols import supportcalc as S
from qnichols.errors import InputError, ResourceCapError
from qnichols.quandle import Z_QUANDLE_NAMES, Quandle, catalog

from oracles import census_classes, conj_word, phi_support_expand


def adjoin_fixed_point(q: Quandle) -> Quandle:
    """q u {*} with trivial action both ways (commuting extension)."""
    n = q.n
    table = [list(row) + [n + 1] for row in q.table]
    table.append(list(range(1, n + 2)))
    return Quandle(table)


def ctx_for(name: str, ov, ow) -> S.TwoOrbitContext:
    return S.TwoOrbitContext(catalog(name), tuple(ov), tuple(ow))


def singleton_ctx(name: str, acting_side: str = "w") -> S.TwoOrbitContext:
    """Commuting context: catalog quandle as one orbit, adjoined fixed point
    as the other. acting_side selects which orbit takes the V role."""
    base = catalog(name)
    q = adjoin_fixed_point(base)
    orbit = tuple(range(1, base.n + 1))
    point = (base.n + 1,)
    if acting_side == "w":
        return S.TwoOrbitContext(q, point, orbit)
    return S.TwoOrbitContext(q, orbit, point)


def affine54_extension() -> Quandle:
    """Aff(5,4) u {6,7}: rows 1..5 also swap (6 7); row 6 cycles (1 2 3 4 5),
    row 7 its inverse.  A genuine two-orbit crossed quandle."""
    aff = catalog("Aff(5,4)")
    table = []
    for i in range(1, 6):
        table.append(list(aff.row(i)) + [7, 6])
    table.append([2, 3, 4, 5, 1, 6, 7])
    table.append([5, 1, 2, 3, 4, 6, 7])
    return Quandle(table)


# -- context plumbing -----------------------------------------------------------


def test_context_validation():
    with pytest.raises(InputError):
        ctx_for("Z_2^{2,2}", (1, 2), (3, 4))  # not unions of inner orbits
    with pytest.raises(InputError):
        ctx_for("Z_2^{2,2}", (1, 3), (1, 2, 4))  # not disjoint


def test_context_commuting_flag():
    assert singleton_ctx("(12)^S3").commuting
    assert not ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3)).commuting


def test_conj_words():
    ctx = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3))
    q = ctx.quandle
    # (w1 w2) > x = w1 > (w2 > x)
    assert conj_word(ctx, (1, 4), 2) == q.op(1, q.op(4, 2))
    # inverse word round-trip
    x = 3
    w = (1, 4, 2)
    assert ctx.conj_inv_word(w, conj_word(ctx, w, x)) == x


# -- expansion oracle ------------------------------------------------------------


def test_expand_m0_noncommuting():
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    out = phi_support_expand(ctx, 1, [(2,)])
    assert out[(1, 2)] == 1  # certified: 2>1 = 3 != 1
    assert sum(out.values()) == 2


def test_expand_m0_commuting_degenerate():
    ctx = singleton_ctx("(12)^S3", acting_side="w")
    # acting element 4 (the fixed point) against s in the orbit: s>4 = 4
    out = phi_support_expand(ctx, 4, [(1,)])
    assert out[(4, 1)] == 2  # both families coincide: no certificate


def test_expand_certificate_soundness_on_chains():
    ctx = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3)).swap()
    base = (4,)
    lvl1 = {
        t: (p, i)
        for p in ctx.orbit_v
        for i in (1,)
        if (t := S.degrees_certificate(ctx, p, i, base)) is not None
    }
    for t, (p, i) in lvl1.items():
        assert phi_support_expand(ctx, p, [base])[t] == 1


# -- the certificate step ---------------------------------------------------------


def test_degrees_certificate_m0_is_remark_form():
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    assert S.degrees_certificate(ctx, 1, 1, (2,)) == (1, 2)
    # failing when the base fixes the acting element
    comm = singleton_ctx("(12)^S3", acting_side="w")
    assert S.degrees_certificate(comm, 4, 1, (1,)) is None


def test_degrees_certificate_exclusion_p_equals_p1():
    ctx = ctx_for("Z_4^{4,2}", (5, 6), (1, 2, 3, 4)).swap()
    # known = (1, 5): p = 1 excluded by the p_j list
    assert S.degrees_certificate(ctx, 1, 2, (1, 5)) is None


def test_degrees_certificate_chain_z332():
    # replay of the first certified step on the concrete quandle: from (r3, s)
    # insert r2 at position 2 to get (r2 > r3, r2, s)
    ctx = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3)).swap()
    r3, s, r2 = 1, 4, 2
    base = S.degrees_certificate(ctx, r3, 1, (s,))
    assert base == (r3, s)
    step = S.degrees_certificate(ctx, r2, 2, base)
    assert step == (ctx.quandle.op(r2, r3), r2, s) == (3, 2, 4)


def test_degrees_certificate_validates_args():
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    with pytest.raises(InputError):
        S.degrees_certificate(ctx, 2, 1, (2,))  # acting element not in V orbit
    with pytest.raises(InputError):
        S.degrees_certificate(ctx, 1, 5, (2,))  # position out of range


# -- level-four chains ---------------------------------------------------------------


def test_chain_certifies_level_four_on_affine54_extension():
    # the chain search classify uses reaches level four with Aff(5,4) acting
    # on the swapped pair {6, 7}
    ctx = S.TwoOrbitContext(affine54_extension(), tuple(range(1, 6)), (6, 7))
    level4 = S.certified_tuples(ctx, 4)
    assert level4 and all(len(t) == 5 and t[-1] in (6, 7) for t in level4)
    assert S.certified_tuples(ctx.swap(), 4) == set()


# -- size bounds -------------------------------------------------------------------


def test_size_bound_commuting():
    ctx = singleton_ctx("(12)^S3", acting_side="w")  # singleton V orbit
    assert S.size_bound_check(ctx, 1) is False  # 1 <= 1
    big = singleton_ctx("(12)^S3", acting_side="v")  # 3-element V orbit
    assert S.size_bound_check(big, 1) is True  # 3 > 1: rejected


def test_size_bound_noncommuting():
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    assert S.size_bound_check(ctx, 1) is False  # 2 <= 2
    z442 = ctx_for("Z_4^{4,2}", (1, 2, 3, 4), (5, 6))
    # the four-element orbit splits into two swapped parts: bound 2 exceeded
    assert S.size_bound_check(z442, 1) is True


def test_size_bound_inapplicable():
    # commutative 3-element orbit: three singleton inner orbits, no swap shape
    q = Quandle(
        [
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [2, 3, 1, 4, 5],
            [2, 3, 1, 4, 5],
        ]
    )
    ctx = S.TwoOrbitContext(q, (1, 2, 3), (4, 5))
    assert S.size_bound_check(ctx, 1) is None


def test_size_bound_m3_noncommuting_bound6():
    ctx = ctx_for("Z_4^{4,2}", (1, 2, 3, 4), (5, 6))
    assert S.size_bound_check(ctx, 3) is False  # 4 <= 6


# -- NC battery ---------------------------------------------------------------------


def test_nc_battery_z332_all_pass():
    report = S.nc_necessary_conditions(ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3)))
    assert all(v == "pass" for v in report.values())
    assert set(report) == set(S.NC_ITEMS)


def test_nc_battery_commuting_inapplicable():
    report = S.nc_necessary_conditions(singleton_ctx("(12)^S3"))
    assert "inapplicable" in report


def test_nc_battery_transposition_failure():
    # V role on the three-cycle side: the W translations restrict to 3-cycles
    report = S.nc_necessary_conditions(ctx_for("Z_3^{3,2}", (1, 2, 3), (4, 5)))
    assert report["orbit_v_commutative"] == "fail"  # S3-orbit is not commutative


def test_nc_decomposition_rules():
    q5 = Quandle(
        [
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [2, 3, 1, 4, 5],
            [2, 3, 1, 4, 5],
        ]
    )
    ctx = S.TwoOrbitContext(q5, (4, 5), (1, 2, 3))
    assert S.nc_w_orbit_decomposition_ok(ctx) is False  # three singleton parts
    good = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    assert S.nc_w_orbit_decomposition_ok(good) is True
    indec = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3))
    assert S.nc_w_orbit_decomposition_ok(indec) is None


# -- search-level rejection helpers ----------------------------------------------


def test_comm_adw4_rejects_affines_not_small():
    for name in ("Aff(5,2)", "Aff(5,3)", "Aff(5,4)"):
        ctx = singleton_ctx(name, acting_side="w")
        assert S.comm_adw4_rejects(ctx) is not None, name
    for name in ("(12)^S3", "(123)^A4"):
        ctx = singleton_ctx(name, acting_side="w")
        assert S.comm_adw4_rejects(ctx) is None, name


def test_find_certificates_on_survivors_none():
    for name, ov, ow in (
        ("Z_2^{2,2}", (1, 3), (2, 4)),
        ("Z_3^{3,2}", (4, 5), (1, 2, 3)),
        ("Z_4^{4,2}", (5, 6), (1, 2, 3, 4)),
    ):
        ctx = ctx_for(name, ov, ow)
        assert S.find_adv2_certificate(ctx) is None, name
        assert S.find_adw4_certificate_nc(ctx) is None, name


def _battery(*failing: str) -> dict:
    return {item: "fail" if item in failing else "pass" for item in S.NC_ITEMS}


_Q5 = (  # the 3+2 quandle: a commutative three-element orbit, cycled by 4 and 5
    (1, 2, 3, 5, 4),
    (1, 2, 3, 5, 4),
    (1, 2, 3, 5, 4),
    (2, 3, 1, 4, 5),
    (2, 3, 1, 4, 5),
)

# For each rule id that fires on a role split of a quandle of size <= 6 or on
# the size-7 census, the first such context by size: the table, the V and W
# roles, and the (rule id, witness) that evaluate_candidate returns.
_RULE_PINS = [
    (
        ((1, 2, 3), (1, 2, 3), (2, 1, 3)),
        (1, 2),
        (3,),
        "nc-battery:movers_are_exactly_the_pair",
        _battery("movers_are_exactly_the_pair"),
    ),
    (
        ((1, 2, 3), (1, 2, 3), (2, 1, 3)),
        (3,),
        (1, 2),
        "nc-battery:w_translations_restrict_to_transpositions",
        _battery("w_translations_restrict_to_transpositions"),
    ),
    (
        ((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (1, 3, 2, 4)),
        (1, 2, 3),
        (4,),
        "nc-battery:orbit_v_generated_by_w_translations",
        _battery("orbit_v_generated_by_w_translations", "movers_are_exactly_the_pair"),
    ),
    (
        ((1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 3, 4)),
        (1, 2, 3),
        (4,),
        "nc-battery:orbit_v_commutative",
        _battery(
            "orbit_v_commutative",
            "orbit_v_generated_by_w_translations",
            "movers_are_exactly_the_pair",
        ),
    ),
    (
        ((1, 2, 3, 4), (1, 2, 4, 3), (1, 4, 3, 2), (1, 3, 2, 4)),
        (2, 3, 4),
        (1,),
        "comm-size-suppV-m1",
        {"orbit_v_size": 3, "bound": 1},
    ),
    (_Q5, (4, 5), (1, 2, 3), "nc-decomposable-Oh-structure", {"orbit_w_parts": [[1], [2], [3]]}),
    (
        (
            (1, 2, 3, 4, 5, 6),
            (1, 2, 3, 4, 6, 5),
            (1, 2, 3, 4, 6, 5),
            (1, 2, 3, 4, 6, 5),
            (1, 3, 4, 2, 5, 6),
            (1, 3, 4, 2, 5, 6),
        ),
        (1,),
        (2, 3, 4, 5, 6),
        "comm-adW4-certificate",
        {"base": [2, 1], "tuple": [3, 4, 5, 2, 1]},
    ),
    (
        (
            (1, 2, 4, 3, 6, 5),
            (1, 2, 4, 3, 6, 5),
            (2, 1, 3, 4, 6, 5),
            (2, 1, 3, 4, 6, 5),
            (3, 4, 1, 2, 5, 6),
            (4, 3, 2, 1, 5, 6),
        ),
        (5, 6),
        (1, 2, 3, 4),
        "nc-adW4-certificate",
        {"tuple": [1, 3, 2, 4, 5]},
    ),
    (
        (
            (1, 2, 3, 4, 5, 6, 7),
            (1, 2, 3, 5, 4, 7, 6),
            (1, 2, 3, 6, 7, 4, 5),
            (1, 5, 6, 4, 2, 3, 7),
            (1, 4, 7, 2, 5, 6, 3),
            (1, 7, 4, 3, 5, 6, 2),
            (1, 6, 5, 4, 3, 2, 7),
        ),
        (1,),
        (2, 3, 4, 5, 6, 7),
        "comm-size-suppW-m3",
        {"orbit_w_size": 6, "bound": 5},
    ),
]

# Rule ids that no context of that search reaches: the roles are disjoint, so
# orbits_distinct never fails; nc-size-suppW-m3 needs |W| >= 7 beside |V| >= 2,
# so size >= 9.
_UNREACHED = {
    "nc-battery:orbits_distinct",
    "nc-battery:squares_fix_across",
    "nc-adV2-certificate",
    "nc-size-suppW-m3",
}


def _evaluate(table, ov, ow) -> tuple:
    q = Quandle(table)
    ctx = S.TwoOrbitContext(q, ov, ow)
    return S.evaluate_candidate(S.Candidate(q, ctx, "comm" if ctx.commuting else "nc"))


def test_rule_pins_cover_every_rule_id():
    ids = [rule_id for rules in S.RULES.values() for rule_id, _ in rules]
    assert sorted(ids) == sorted([pin[3] for pin in _RULE_PINS] + list(_UNREACHED))


@pytest.mark.parametrize(
    "table, ov, ow, rule_id, witness", _RULE_PINS, ids=[pin[3] for pin in _RULE_PINS]
)
def test_evaluate_candidate_first_rejecting_rule_pinned(table, ov, ow, rule_id, witness):
    assert _evaluate(table, ov, ow) == (rule_id, witness)


def test_evaluate_candidate_survivors():
    assert _evaluate(catalog("Z_2^{2,2}").table, (1, 3), (2, 4)) == (None, "Z_2^{2,2}")
    # trivial(2) passes every rule and matches no Z catalog quandle
    assert _evaluate(((1, 2), (1, 2)), (1,), (2,)) == (None, None)


def test_decomposable_witness_names_elements_of_the_w_orbit():
    # _Q5 relabeled by 1, 2, 3, 4, 5 -> 3, 4, 5, 1, 2: the W orbit is {3, 4, 5}
    f = (3, 4, 5, 1, 2)
    table = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            table[f[i] - 1][f[j] - 1] = f[_Q5[i][j] - 1]
    assert _evaluate(table, (1, 2), (3, 4, 5)) == (
        "nc-decomposable-Oh-structure",
        {"orbit_w_parts": [[3], [4], [5]]},
    )


def _role_splits(q: Quandle):
    """Every context of q: V a nonempty proper union of inner orbits, W the rest."""
    orbits = Q.inner_orbits(q)
    for k in range(1, len(orbits)):
        for pick in itertools.combinations(orbits, k):
            ov = tuple(sorted(x for orb in pick for x in orb))
            yield S.TwoOrbitContext(q, ov, tuple(x for x in q.elements() if x not in ov))


@pytest.mark.slow
def test_v_size_rule_is_shadowed_by_the_battery():
    # Once orbit_v_commutative passes, V is a trivial subquandle: its inner
    # orbits are its points, so size_bound_check(ctx, 1) does not apply when
    # |V| >= 3 or when W does not swap the two points of V, and otherwise
    # |V| <= 2 = 2m.  So the nc branch has no size rule on V.
    counts: Counter = Counter()
    for n in range(1, 7):
        for q in census_classes(n):
            for ctx in _role_splits(q):
                if ctx.commuting:
                    continue
                commutative = Q.is_commutative_subset(q, ctx.orbit_v)
                exceeded = S.size_bound_check(ctx, 1) is True
                assert not (commutative and exceeded), ctx
                counts.update(contexts=1, commutative=commutative, exceeded=exceeded)
    assert counts == {"contexts": 676, "commutative": 410, "exceeded": 12}


@pytest.mark.slow
def test_commutative_w_is_settled_by_the_rules_before_the_certificates():
    # A commutative W is a trivial subquandle.  If |W| >= 2 the decomposition
    # rule leaves exactly two parts, so |W| = 2; W's translations are
    # transpositions acting transitively on V, so |V| <= |W| + 1.  The only
    # such contexts in the census are the role splits of Z_2^{2,2}, so a rule
    # asking a commutative W to be Z_2^{2,2} would never fire.
    rules = [rule_id for rule_id, _ in S.RULES["nc"]]
    earlier = S.RULES["nc"][: rules.index("nc-decomposable-Oh-structure") + 1]
    passing = commutative_w = 0
    for q in S.two_orbit_candidates(8):
        for ctx in _role_splits(q):
            if ctx.commuting or any(check(ctx) is not None for _, check in earlier):
                continue
            passing += 1
            if Q.is_commutative_subset(q, ctx.orbit_w):
                commutative_w += 1
                assert len(ctx.orbit_w) <= 2 and len(ctx.orbit_v) <= len(ctx.orbit_w) + 1
                assert Q.isomorphic(q, catalog("Z_2^{2,2}")) is not None
    assert (passing, commutative_w) == (8, 2)


def test_certified_tuples_level_counts():
    ctx = ctx_for("Z_4^{4,2}", (5, 6), (1, 2, 3, 4)).swap()
    lvl1 = S.certified_tuples(ctx, 1)
    assert lvl1  # every (p, s) with s > p != p
    lvl3 = S.certified_tuples(ctx, 3)
    assert lvl3 == set()


def test_certified_tuples_from_a_start_level():
    ctx = S.TwoOrbitContext(affine54_extension(), tuple(range(1, 6)), (6, 7))
    level2 = S.certified_tuples(ctx, 2)
    assert S.certified_tuples(ctx, 4, start=level2) == S.certified_tuples(ctx, 4) != set()
    assert S.certified_tuples(ctx, 2, start=level2) == level2  # length m + 1: no step


@pytest.mark.parametrize(
    "start",
    [set(), {(4, 1, 2)}, {(1,), (4, 1)}],
    ids=["empty", "deeper-than-m", "mixed-lengths"],
)
def test_certified_tuples_rejects_a_bad_start(start):
    ctx = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3))
    with pytest.raises(InputError):
        S.certified_tuples(ctx, 1, start=start)


@pytest.mark.parametrize(
    "name, ov, ow, swap, expected_steps",
    [
        ("Z_4^{4,2}", (5, 6), (1, 2, 3, 4), False, 8),
        ("Z_4^{4,2}", (5, 6), (1, 2, 3, 4), True, 24),
        ("Z_3^{3,2}", (4, 5), (1, 2, 3), False, 6),
        ("Z_3^{3,2}", (4, 5), (1, 2, 3), True, 12),
    ],
)
def test_certified_steps_have_multiplicity_one(name, ov, ow, swap, expected_steps):
    """Every extension step certified_tuples accepts at levels 1-2 is checked
    by the independent expansion oracle: its tuple occurs exactly once."""
    ctx = ctx_for(name, ov, ow)
    if swap:
        ctx = ctx.swap()
    level = {(s,) for s in ctx.orbit_w}
    steps = 0
    for m in (1, 2):
        accepted = set()
        for known in level:
            for p in ctx.orbit_v:
                for i in range(1, len(known) + 1):
                    t = S.degrees_certificate(ctx, p, i, known)
                    if t is not None:
                        assert phi_support_expand(ctx, p, [known])[t] == 1, (known, p, i)
                        accepted.add(t)
                        steps += 1
        assert accepted == S.certified_tuples(ctx, m)
        level = accepted
    assert steps == expected_steps


# -- classification ----------------------------------------------------------------


def test_classify_comm_n4():
    rep = S.classify(n_max=4, branch="comm")
    assert [s["matched_catalog_name"] for s in rep["survivors"]] == ["Z_3^{3,1}"]
    assert rep["flagged"] == []


def test_classify_comm_n5():
    rep = S.classify(n_max=5, branch="comm")
    assert [s["matched_catalog_name"] for s in rep["survivors"]] == [
        "Z_3^{3,1}",
        "Z_T^{4,1}",
    ]
    assert rep["flagged"] == []


def test_classify_n2_empty():
    rep = S.classify(n_max=2)
    assert rep["survivors"] == []
    # the only two-orbit quandle of size 2 is trivial: rejected by the proxy
    assert any(r["rule_id"] == "abelian-proxy" for r in rep["rejections"])


def test_classify_n5_rejects_carry_witnesses():
    rep = S.classify(n_max=5)
    for r in rep["rejections"]:
        assert r["rule_id"]
        assert r["witness"] is not None


def test_two_orbit_candidates_match_labeled_census():
    # oracle: every labeled quandle, the orbit and crossed-set filter, then
    # first-seen class representatives
    labeled_path = []
    for n in range(2, 7):
        two_orbit = [
            q
            for q in Q.enumerate_quandles(n)
            if len(Q.inner_orbits(q)) == 2 and Q.is_crossed_set(q)
        ]
        labeled_path += Q.iso_class_representatives(two_orbit)
    glued = S.two_orbit_candidates(6)
    assert [q.table for q in glued] == [q.table for q in labeled_path]
    assert [q.n for q in glued] == [2, 4, 4, 5, 5, 5] + [6] * 9


def test_classify_n7():
    # the labeled census gave these numbers at n = 7
    assert sum(1 for q in S.two_orbit_candidates(7) if q.n == 7) == 8
    rep = S.classify(n_max=7)
    assert rep["candidates_examined"] == 46
    assert [s["matched_catalog_name"] for s in rep["survivors"]] == [
        "Z_2^{2,2}",
        "Z_3^{3,1}",
        "Z_3^{3,2}",
        "Z_4^{4,2}",
        "Z_T^{4,1}",
    ]
    assert rep["flagged"] == []


@pytest.mark.slow
def test_classify_n8():
    # the five Z quandles are still the only survivors at n = 8
    rep = S.classify(n_max=8)
    assert rep["candidates_examined"] == 88
    entries = rep["rejections"] + [e for s in rep["survivors"] for e in s["realizations"]]
    assert len({str(e["table"]) for e in entries if len(e["table"]) == 8}) == 21
    assert [s["matched_catalog_name"] for s in rep["survivors"]] == [
        "Z_2^{2,2}",
        "Z_3^{3,1}",
        "Z_3^{3,2}",
        "Z_4^{4,2}",
        "Z_T^{4,1}",
    ]
    assert rep["flagged"] == []


def test_classify_nmax_cap():
    with pytest.raises(ResourceCapError):
        S.classify(n_max=9)
    with pytest.raises(InputError):
        S.classify(n_max=0)
    with pytest.raises(InputError):
        S.classify(n_max=4, branch="bogus")


@pytest.mark.slow
def test_classify_nc_n6():
    rep = S.classify(n_max=6, branch="nc")
    assert [s["matched_catalog_name"] for s in rep["survivors"]] == [
        "Z_2^{2,2}",
        "Z_3^{3,2}",
        "Z_4^{4,2}",
    ]
    assert rep["flagged"] == []


def test_envelope_post_filter_eliminates_nonexample():
    # the 3+2 commutative/cyclic quandle is not a genuine support; the
    # group-level filter must refuse to embed it into any catalog envelope
    q5 = Quandle(
        [
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [2, 3, 1, 4, 5],
            [2, 3, 1, 4, 5],
        ]
    )
    ctx = S.TwoOrbitContext(q5, (4, 5), (1, 2, 3))
    cand = S.Candidate(q5, ctx, "nc")
    out = S.envelope_post_filter(cand)
    assert out["eliminated"] is True


def test_envelope_post_filter_accepts_genuine():
    q = catalog("Z_2^{2,2}")
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    cand = S.Candidate(q, ctx, "nc")
    out = S.envelope_post_filter(cand)
    assert out["eliminated"] is False


_ELIMINATED = {
    "eliminated": True,
    "reason": "no conjugation-equivariant embedding into any catalog envelope",
}

# envelope_post_filter on two_orbit_candidates(6), for the role splits
# (first orbit, second orbit) and (second, first): the catalog envelope the
# class embeds in, or None when the class is eliminated
_POST_FILTER_N6 = [
    ("Z_T^{4,1}", "Z_T^{4,1}"),
    ("Z_3^{3,1}", "Z_3^{3,1}"),
    ("Z_2^{2,2}", "Z_2^{2,2}"),
    ("Z_T^{4,1}", "Z_T^{4,1}"),
    (None, None),
    ("Z_3^{3,1}", "Z_3^{3,1}"),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    ("Z_4^{4,2}", "Z_4^{4,2}"),
    ("Z_3^{3,2}", "Z_3^{3,2}"),
]


def test_envelope_post_filter_verdicts_pinned_n6():
    classes = S.two_orbit_candidates(6)
    assert len(classes) == len(_POST_FILTER_N6)
    for q, expected in zip(classes, _POST_FILTER_N6):
        orb1, orb2 = Q.inner_orbits(q)
        for (ov, ow), name in zip(((orb1, orb2), (orb2, orb1)), expected):
            ctx = S.TwoOrbitContext(q, ov, ow)
            verdict = S.envelope_post_filter(S.Candidate(q, ctx, "comm" if ctx.commuting else "nc"))
            embedded = {"eliminated": False, "embeds_in": name}
            assert verdict == (_ELIMINATED if name is None else embedded), q


def _post_filter_without_cuts(cand: S.Candidate):
    """envelope_post_filter's search with neither cut: every class pair that
    passes the size check, every candidate of every element.  The verdict
    (the first envelope with an embedding), and every embedding found, keyed
    by (name, class of V, class of W)."""
    q, ctx = cand.quandle, cand.ctx
    verdict, found = _ELIMINATED, {}
    for name in Z_QUANDLE_NAMES:
        env, classes = E.catalog_envelope(name)
        group = env.group
        for cls_v, cls_w in itertools.permutations(classes, 2):
            if len(cls_v) < len(ctx.orbit_v) or len(cls_w) < len(ctx.orbit_w):
                continue
            roles = [cls_v if x in ctx.orbit_v else cls_w for x in q.elements()]
            for f in Q.embeddings(q.table, group.conj, roles):
                found.setdefault((name, cls_v, cls_w), []).append(f)
                if verdict is _ELIMINATED:
                    verdict = {"eliminated": False, "embeds_in": name}
    return verdict, found


def test_envelope_post_filter_cuts_match_the_uncut_search():
    embedded = 0
    for q in S.two_orbit_candidates(7):
        orb1, orb2 = Q.inner_orbits(q)
        for ov, ow in ((orb1, orb2), (orb2, orb1)):
            ctx = S.TwoOrbitContext(q, ov, ow)
            cand = S.Candidate(q, ctx, "comm" if ctx.commuting else "nc")
            verdict, found = _post_filter_without_cuts(cand)
            assert S.envelope_post_filter(cand) == verdict, (q, ov)
            root_class = 0 if 1 in ov else 1
            for (name, *pair), maps in found.items():
                group = E.catalog_envelope(name)[0].group
                # the order lemma: ord(phi_x) divides ord(f(x))
                for f in maps:
                    for x in q.elements():
                        assert group.element_order(f[x - 1]) % q.row_order(x) == 0, (q, name, f)
                    # the post-filter lemma: every embedding induces a group map
                    f_map = dict(zip(q.elements(), f))
                    assert E.induced_hom(q, f_map, group.mul, group.inv) is not None, (q, f)
                # the root cut: some embedding sends 1 to the first element of its class
                assert any(f[0] == pair[root_class][0] for f in maps), (q, name, pair)
            embedded += len(found) > 0
    assert embedded > 0


def _eliminated_candidate() -> S.Candidate:
    # the 3+2 quandle of test_envelope_post_filter_eliminates_nonexample: its
    # post-filter tries all five catalog envelopes
    q5 = Quandle(
        [
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [1, 2, 3, 5, 4],
            [2, 3, 1, 4, 5],
            [2, 3, 1, 4, 5],
        ]
    )
    return S.Candidate(q5, S.TwoOrbitContext(q5, (4, 5), (1, 2, 3)), "nc")


def test_envelope_post_filter_builds_each_catalog_envelope_once(monkeypatch):
    built = []
    todd_coxeter = E.todd_coxeter

    def counting(pres, max_cosets=E.DEFAULT_MAX_COSETS):
        built.append(pres)
        return todd_coxeter(pres, max_cosets)

    monkeypatch.setattr(E, "todd_coxeter", counting)
    E._catalog_envelope.cache_clear()
    cand = _eliminated_candidate()
    assert S.envelope_post_filter(cand)["eliminated"] is True
    assert len(set(built)) == len(built) == len(Z_QUANDLE_NAMES)
    del built[:]
    assert S.envelope_post_filter(cand)["eliminated"] is True
    assert built == []


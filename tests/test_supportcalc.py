import itertools

import pytest

from qnichols import envgroup as E
from qnichols import quandle as Q
from qnichols import supportcalc as S
from qnichols.errors import InputError, ResourceCapError
from qnichols.quandle import Z_QUANDLE_NAMES, Quandle, catalog


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
    assert ctx.conj_word((1, 4), 2) == q.op(1, q.op(4, 2))
    # inverse word round-trip
    x = 3
    w = (1, 4, 2)
    assert ctx.conj_inv_word(w, ctx.conj_word(w, x)) == x


# -- expansion oracle ------------------------------------------------------------


def test_expand_m0_noncommuting():
    ctx = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    out = S.phi_support_expand(ctx, 1, [(2,)])
    assert out[(1, 2)] == 1  # certified: 2>1 = 3 != 1
    assert sum(out.values()) == 2


def test_expand_m0_commuting_degenerate():
    ctx = singleton_ctx("(12)^S3", acting_side="w")
    # acting element 4 (the fixed point) against s in the orbit: s>4 = 4
    out = S.phi_support_expand(ctx, 4, [(1,)])
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
        assert S.phi_support_expand(ctx, p, [base])[t] == 1


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


# -- certificate batteries ---------------------------------------------------------


def test_comm_certificate_aff52_found():
    ctx = singleton_ctx("Aff(5,2)", acting_side="v")  # affine orbit acts
    s = ctx.orbit_w[0]
    found = [
        (r1, r2, r3, r4)
        for r1 in ctx.orbit_v
        for r2 in ctx.orbit_v
        for r3 in ctx.orbit_v
        for r4 in ctx.orbit_v
        if S.certify_adV4_nonzero_comm(ctx, r1, r2, r3, r4, s)
    ]
    assert found


def test_comm_certificate_s3_none():
    ctx = singleton_ctx("(12)^S3", acting_side="v")
    s = ctx.orbit_w[0]
    q = ctx.quandle
    found = [
        (r1, r2, r3, r4)
        for r1 in ctx.orbit_v
        for r2 in ctx.orbit_v
        for r3 in ctx.orbit_v
        for r4 in ctx.orbit_v
        if r3 != r4 and q.op(r3, r4) != r4  # level-two base must be certified
        if S.certify_adV4_nonzero_comm(ctx, r1, r2, r3, r4, s)
    ]
    assert found == []


def test_comm_certificate_r2_equals_r3_false():
    ctx = singleton_ctx("Aff(5,2)", acting_side="v")
    s = ctx.orbit_w[0]
    assert not S.certify_adV4_nonzero_comm(ctx, 1, 2, 2, 3, s)


def test_comm_certificate_requires_commuting():
    ctx = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3))
    with pytest.raises(InputError):
        S.certify_adV4_nonzero_comm(ctx, 1, 2, 3, 1, 4)


def test_nc_certificate_affine54_found():
    q = affine54_extension()
    ctx = S.TwoOrbitContext(q, (6, 7), tuple(range(1, 6)))
    swapped = ctx.swap()
    found = [
        (r1, r2, r3, s)
        for r1 in swapped.orbit_v
        for r2 in swapped.orbit_v
        for r3 in swapped.orbit_v
        for s in swapped.orbit_w
        if S.certify_adV4_nonzero_nc(swapped, r1, r2, r3, s)
    ]
    assert found


def test_nc_certificate_z442_none():
    ctx = ctx_for("Z_4^{4,2}", (5, 6), (1, 2, 3, 4))
    found = [
        (r1, r2, r3, s)
        for r1 in ctx.orbit_v
        for r2 in ctx.orbit_v
        for r3 in ctx.orbit_v
        for s in ctx.orbit_w
        if S.certify_adV4_nonzero_nc(ctx, r1, r2, r3, s)
    ]
    assert found == []


def test_nc_certificate_condition1():
    ctx = ctx_for("Z_4^{4,2}", (5, 6), (1, 2, 3, 4))
    # r2 > r3 = r3 violates condition (1)
    assert not S.certify_adV4_nonzero_nc(ctx, 5, 5, 6, 1)


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
    assert report[S.NC_ITEMS[0]] == "fail"  # S3-orbit is not commutative


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
    assert S.nc_commutative_w_orbit_ok(ctx) is False  # commutative but not dihedral
    good = ctx_for("Z_2^{2,2}", (1, 3), (2, 4))
    assert S.nc_w_orbit_decomposition_ok(good) is True
    assert S.nc_commutative_w_orbit_ok(good) is True
    indec = ctx_for("Z_3^{3,2}", (4, 5), (1, 2, 3))
    assert S.nc_w_orbit_decomposition_ok(indec) is None
    assert S.nc_commutative_w_orbit_ok(indec) is None


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


def test_certified_tuples_level_counts():
    ctx = ctx_for("Z_4^{4,2}", (5, 6), (1, 2, 3, 4)).swap()
    lvl1 = S.certified_tuples(ctx, 1)
    assert lvl1  # every (p, s) with s > p != p
    lvl3 = S.certified_tuples(ctx, 3)
    assert lvl3 == set()


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
                        assert S.phi_support_expand(ctx, p, [known])[t] == 1, (known, p, i)
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
    passes the size check, every candidate of every element.  The verdict,
    and every embedding found, keyed by (name, class of V, class of W)."""
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
                f_map = dict(zip(q.elements(), f))
                if verdict is _ELIMINATED and E.induced_hom(q, f_map, group.mul, group.inv) is not None:
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


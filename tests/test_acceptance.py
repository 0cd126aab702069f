"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget (run with -s to see them)."""

import random
import time

from qnichols import cyclotomic as C
from qnichols import envgroup as E
from qnichols import nichols as N
from qnichols import supportcalc as S
from qnichols import weyl as W
from qnichols import ydmod as Y
from qnichols.quandle import (
    INDECOMPOSABLE_NAMES,
    Quandle,
    catalog,
    inner_orbits,
)

from oracles import enumerate_charseqs_dfs, factorization_identity_holds, phi_support_expand

ONE = C.one()
NEG = C.CycNum.rational(-1)
Z3 = C.CycNum.zeta(3)


def _report(num: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_env_group_of_tetrahedral_quandle():
    t0 = time.monotonic()
    env = E.finite_enveloping_group(catalog("(123)^A4"))
    g = env.group
    assert g.order == 24
    assert max(len(c) for c in g.conjugacy_classes()) == 6
    assert g.has_abelian_centralizers()
    comm, _ = g.subgroup(g.commutator_subgroup())
    assert comm.order == 8
    assert not comm.is_abelian()
    involutions = [a for a in range(comm.order) if comm.element_order(a) == 2]
    assert len(involutions) == 1
    assert all(comm.element_order(a) in (1, 2, 4) for a in range(comm.order))
    _report(1, "order 24, max class 6, abelian centralizers, Q8 commutator", time.monotonic() - t0, 1.0)


def test_criterion_2_injectivity_of_catalog_indecomposables():
    t0 = time.monotonic()
    for name in INDECOMPOSABLE_NAMES:
        q = catalog(name)
        assert len(set(E.finite_enveloping_group(q).images)) == q.n, name
    _report(2, f"injective envelope images for {len(INDECOMPOSABLE_NAMES)} quandles", time.monotonic() - t0, 5.0)


def test_criterion_3_gamma_arithmetic():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        eps, h, g = E.gamma_generators(n)
        hg = E.gamma_mul(h, g)
        assert E.gamma_conj_class(g) == frozenset(
            E.gamma_mul(E.gamma_eps(n, m), g) for m in range(n)
        )
        assert E.gamma_conj_class(h) == frozenset({h, E.gamma_mul(E.gamma_eps(n, -1), h)})
        assert E.gamma_conj_class(hg) == frozenset(
            E.gamma_mul(E.gamma_eps(n, m), hg) for m in range(n)
        )
        for x, fam in ((g, "g"), (hg, "hg"), (h, "h")):
            gens = E.gamma_centralizer_generators(n, fam)
            assert E.gamma_centralizer_check(x, gens)
            assert all(E.gamma_mul(u, v) == E.gamma_mul(v, u) for u in gens for v in gens)
        assert E.gamma_commutator_closure(n) == frozenset(E.gamma_eps(n, m) for m in range(n))
    _report(3, "class lists, centralizers and commutator closure for n=2,3,4", time.monotonic() - t0, 1.0)


def _diagonal_instances():
    out = []
    for q11 in (NEG, Z3):
        for q12, q21 in ((ONE, ONE), (NEG, ONE), (C.CycNum.zeta(4), C.CycNum.zeta(4, 3))):
            out.append(Y.diagonal_pair(q11, q12, q21, NEG))
    return out


def test_criterion_4_operator_identity():
    t0 = time.monotonic()
    checked = 0
    for v, w in _diagonal_instances():
        for n in (1, 2, 3):
            assert factorization_identity_holds(v, w, n)
            checked += 1
    s3 = Y.transposition_module()
    for n in (1, 2, 3):
        assert factorization_identity_holds(s3, s3, n)
        checked += 1
    _report(4, f"{checked} exact symmetrizer factorizations (diagonal + transposition pair)", time.monotonic() - t0, 60.0)


def test_criterion_5_dimension_cross_check():
    t0 = time.monotonic()
    pairs = _diagonal_instances() + [(Y.transposition_module(),) * 2]
    checked = 0
    for v, w in pairs:
        for m in (1, 2, 3):
            assert N.adjoint_power_dim(v, w, m) == N.x_space_dim(v, w, m)
            checked += 1
    _report(5, f"{checked} adjoint-vs-recursion dimension agreements", time.monotonic() - t0, 60.0)


def _context_pool():
    pool = []
    for name in ("Z_T^{4,1}", "Z_2^{2,2}", "Z_3^{3,1}", "Z_3^{3,2}", "Z_4^{4,2}"):
        q = catalog(name)
        orb1, orb2 = inner_orbits(q)
        pool.append(S.TwoOrbitContext(q, tuple(orb1), tuple(orb2)))
        pool.append(S.TwoOrbitContext(q, tuple(orb2), tuple(orb1)))
    for name in INDECOMPOSABLE_NAMES:
        if name == "trivial(1)":
            continue
        base = catalog(name)
        table = [list(row) + [base.n + 1] for row in base.table]
        table.append(list(range(1, base.n + 2)))
        q = Quandle(table)
        orbit = tuple(range(1, base.n + 1))
        point = (base.n + 1,)
        pool.append(S.TwoOrbitContext(q, orbit, point))
        pool.append(S.TwoOrbitContext(q, point, orbit))
    return pool


def _realize(ctx):
    env = E.finite_enveloping_group(ctx.quandle)
    g = env.group
    mods = []
    for orbit in (ctx.orbit_v, ctx.orbit_w):
        rep = env.images[orbit[0] - 1]
        cls = g.conjugacy_class_of(rep)
        assert len(cls) == len(orbit)
        assert set(cls) == {env.images[x - 1] for x in orbit}
        mods.append(Y.induced_module(g, rep, {x: ONE for x in g.centralizer(rep)}))
    return mods


def test_criterion_6_certificate_soundness():
    t0 = time.monotonic()
    rng = random.Random(20250810)
    pool = _context_pool()
    certified_contexts = {}
    certificates_checked = 0
    for _ in range(200):
        ctx = rng.choice(pool)
        known = (rng.choice(ctx.orbit_w),)
        for _step in range(rng.randint(1, 2)):
            successes = []
            for p in ctx.orbit_v:
                for i in range(1, len(known) + 1):
                    result = S.degrees_certificate(ctx, p, i, known)
                    if result is None:
                        continue
                    # multiplicity-one in the independent expansion oracle
                    assert phi_support_expand(ctx, p, [known])[result] == 1
                    certificates_checked += 1
                    successes.append(result)
            if not successes:
                break
            known = rng.choice(successes)
            m = len(known) - 1
            if m <= 2:
                certified_contexts[(ctx.quandle.table, ctx.orbit_v, ctx.orbit_w, m)] = ctx
    assert certificates_checked > 100  # sanity floor: the 200 trials must exercise the oracle
    realized = 0
    for (table, ov, ow, m), ctx in sorted(certified_contexts.items()):
        v, w = _realize(ctx)
        assert N.adjoint_power_dim(v, w, m) > 0
        realized += 1
    assert realized > 0
    _report(
        6,
        f"{certificates_checked} multiplicity-one certificates, {realized} realized contexts all nonzero",
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_7_characteristic_sequences():
    t0 = time.monotonic()
    assert W.enumerate_charseqs(3) == [(1, 1, 1)]
    for max_len in range(3, 9):
        assert W.enumerate_charseqs(max_len) == enumerate_charseqs_dfs(max_len)
    seqs = W.enumerate_charseqs(12)
    for seq in seqs:
        W.small_neighbor_witness(seq)
    _report(7, f"enumeration agreement to length 8; witness indices for {len(seqs)} sequences to length 12", time.monotonic() - t0, 30.0)


def test_criterion_8_classification_reproduction():
    t0 = time.monotonic()
    expected = ["Z_2^{2,2}", "Z_3^{3,1}", "Z_3^{3,2}", "Z_4^{4,2}", "Z_T^{4,1}"]
    full = S.classify(n_max=6)
    survivors = [s["matched_catalog_name"] for s in full["survivors"]]
    assert survivors == expected
    for extra in full["flagged"]:
        assert extra["post_filter"]["eliminated"] is True
    comm = S.classify(n_max=5, branch="comm")
    assert [s["matched_catalog_name"] for s in comm["survivors"]] == ["Z_3^{3,1}", "Z_T^{4,1}"]
    assert comm["flagged"] == []
    nc = S.classify(n_max=6, branch="nc")
    assert [s["matched_catalog_name"] for s in nc["survivors"]] == [
        "Z_2^{2,2}",
        "Z_3^{3,2}",
        "Z_4^{4,2}",
    ]
    assert nc["flagged"] == []
    _report(
        8,
        f"five-quandle survivor set ({full['candidates_examined']} candidates), "
        f"{len(full['flagged'])} flagged extras all eliminated; both branch answers reproduced",
        time.monotonic() - t0,
        600.0,
    )

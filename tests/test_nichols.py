from collections import Counter
from functools import reduce
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qnichols import cyclotomic as C
from qnichols import nichols as N
from qnichols import ydmod as Y
from qnichols.envgroup import catalog_envelope, sl23
from qnichols.errors import InputError, InvariantViolationError, ResourceCapError

from oracles import (
    cyc_matrix,
    cyc_power,
    entry,
    factorization_identity_holds,
    matrix_sum,
    stores_no_zero,
    symmetrizer_report,
)

ONE = C.one()
NEG = C.CycNum.rational(-1)
Z3 = C.CycNum.zeta(3)


@pytest.fixture(scope="module")
def s3pair():
    v = Y.transposition_module()
    return v, v


def diag(q11, q12q21, q22=NEG):
    return Y.diagonal_pair(q11, q12q21, ONE, q22)


# Oracle scaffolding written here, so the checks share no code with nichols:
# a Kronecker product of matrices and the row-major index of basis tuples.


def kron(a, b):
    out = C.CycMatrix(a.rows * b.rows, a.cols * b.cols)
    for i, j, x in a.iter_entries():
        for k, l, y in b.iter_entries():
            out.set(i * b.rows + k, j * b.cols + l, x * y)
    return out


def placed(factors, slot, kernel):
    """id (x) kernel (x) id with the kernel on factors slot, slot + 1 (1-based)."""
    k = slot - 1
    prefix = C.CycMatrix.identity(prod(f.dim for f in factors[:k]))
    suffix = C.CycMatrix.identity(prod(f.dim for f in factors[k + 2 :]))
    return kron(kron(prefix, kernel), suffix)


def non_monomial_module():
    """A module whose action is not monomial, so braiding columns have two
    entries: Z_2 acting on degrees (g, g, 1) through [[1, 1], [0, -1]] + [1]."""
    z2 = Y.abelian_group([2])
    flip = cyc_matrix([[1, 1, 0], [0, -1, 0], [0, 0, 1]])
    return Y.YDModule(z2, (1, 1, 0), [C.CycMatrix.identity(3), flip])


def basis(factors):
    return list(product(*(range(f.dim) for f in factors)))


def total_degrees(factors):
    group = factors[0].group
    out = []
    for t in basis(factors):
        g = 0
        for f, i in zip(factors, t):
            g = group.mul(g, f.degree[i])
        out.append(g)
    return out


def test_t1_diagonal_scalar():
    v, w = diag(NEG, Z3)
    t1 = N.t_operator(v, w, 1)
    assert entry(t1, 0, 0) == ONE - Z3


def test_t1_zero_when_double_braiding_trivial():
    v, w = diag(NEG, ONE)
    assert not N.t_operator(v, w, 1).data
    assert N.x_space_dim(v, w, 1) == 0


def test_quantum_serre_vanishing_pattern():
    # q11 = -1, q12 q21 = -1: first adjoint power nonzero, second vanishes
    v, w = diag(NEG, NEG)
    assert N.x_space_dim(v, w, 1) == 1
    assert N.x_space_dim(v, w, 2) == 0
    st2 = N.symmetrized_t(v, w, 2)
    assert not st2.data
    st1 = N.symmetrized_t(v, w, 1)
    assert st1.data


def test_symmetrizer_small():
    v, _ = diag(Z3, ONE)
    assert N.quantum_symmetrizer(v, 1) == C.CycMatrix.identity(1)
    s2 = N.quantum_symmetrizer(v, 2)
    assert entry(s2, 0, 0) == ONE + Z3
    s3 = N.quantum_symmetrizer(v, 3)
    assert entry(s3, 0, 0) == (ONE + Z3) * (ONE + Z3 + Z3 * Z3)


def test_symmetrizer_matches_sum_over_lifts(s3pair):
    # oracle: S_3 as the sum over all six reduced-word lifts
    v, _ = s3pair
    factors = (v, v, v)
    c1 = placed(factors, 1, Y.braiding(v, v))
    c2 = placed(factors, 2, Y.braiding(v, v))
    ident = C.CycMatrix.identity(27)
    lifts = matrix_sum(ident, c1, c2, c1 @ c2, c2 @ c1, c1 @ c2 @ c1)
    assert N.quantum_symmetrizer(v, 3) == lifts


def test_tensor_cap(s3pair):
    v, w = s3pair
    # 3^7 * 3 = 6,561 > DEFAULT_DIM_CAP: raised before any tuple is built
    with pytest.raises(ResourceCapError):
        N.t_operator(v, w, 7)


def test_x0_is_w(s3pair):
    v, w = s3pair
    assert N.x_space_dim(v, w, 0) == w.dim


def test_factorization_identity_diagonal():
    for q11 in (NEG, Z3):
        for q12q21 in (ONE, NEG):
            v, w = diag(q11, q12q21)
            for n in (1, 2):
                assert factorization_identity_holds(v, w, n), (str(q11), str(q12q21), n)


def test_factorization_identity_s3(s3pair):
    v, w = s3pair
    assert factorization_identity_holds(v, w, 1)
    assert factorization_identity_holds(v, w, 2)


def test_adjoint_equals_symmetrizer_rank_s3(s3pair):
    v, w = s3pair
    for m in (1, 2, 3):
        assert N.x_space_dim(v, w, m) == symmetrizer_report(v, w, m)["dim"]


def test_adjoint_dims_s3_values(s3pair):
    # frozen from the exact matrix computation; the Nichols algebra of this
    # module is finite dimensional so high powers vanish
    v, w = s3pair
    assert [N.x_space_dim(v, w, m) for m in (1, 2, 3)] == [4, 3, 0]


def test_graded_rank_matches_plain_rank(s3pair):
    v, w = s3pair
    st = N.symmetrized_t(v, w, 2)
    total, per_block = N.graded_rank(st, (v, v, w))
    assert total == st.rank()
    assert total == sum(r for _, r in per_block)
    assert [d for d, _ in per_block] == sorted(set(total_degrees((v, v, w))))


def test_operators_preserve_grading(s3pair):
    v, w = s3pair
    block_of = total_degrees((v, v, w))
    for mat in (N.t_operator(v, w, 2), N.phi_operator(v, w, 2), N.symmetrized_t(v, w, 2)):
        for i, j, _ in mat.iter_entries():
            assert block_of[i] == block_of[j]


def test_operators_store_no_zero_entry(s3pair):
    # diag(NEG, ONE) has a trivial double braiding, so T_1 cancels to zero
    u = non_monomial_module()
    for v, w in (s3pair, (u, u), diag(NEG, ONE), diag(Z3, NEG)):
        assert stores_no_zero(Y.braiding(v, w))
        for mat in (N.t_operator(v, w, 1), N.phi_operator(v, w, 2), N.symmetrized_t(v, w, 2)):
            assert stores_no_zero(mat)
        assert stores_no_zero(N.quantum_symmetrizer(v, 3))


def test_graded_rank_rejects_a_matrix_that_mixes_blocks(s3pair):
    v, w = s3pair
    block_of = total_degrees((v, w))
    i, j = next((i, j) for i in range(9) for j in range(9) if block_of[i] != block_of[j])
    mixed = C.CycMatrix(9, 9)
    mixed.set(i, j, ONE)
    with pytest.raises(InputError, match="grading"):
        N.graded_rank(mixed, (v, w))


def test_adjoint_report_shape(s3pair):
    v, w = s3pair
    rep = N.adjoint_power_report(v, w, 2)
    assert rep["m"] == 2
    assert rep["dim"] == sum(b["rank"] for b in rep["per_block"])


def test_vanishing_iff_all_blocks_vanish(s3pair):
    v, w = s3pair
    st = N.symmetrized_t(v, w, 3)
    total, per_block = N.graded_rank(st, (v, v, v, w))
    assert total == 0
    assert all(r == 0 for _, r in per_block)


def test_invalid_args(s3pair):
    v, w = s3pair
    with pytest.raises(InputError):
        N.t_operator(v, w, 0)
    with pytest.raises(InputError):
        N.x_space_dim(v, w, -1)


@pytest.fixture(scope="module")
def s4pair():
    group = catalog_envelope("(12)^S4")[0].group
    x2, x6 = group.names.index("x2"), group.names.index("x6")
    v = Y.induced_module(group, x2, {x2: NEG, x6: NEG})
    return v, v


def test_adjacent_braiding_is_the_braiding_kernel_at_each_slot(s3pair, s4pair):
    # oracle: a chain of two slot-k steps is id (x) c_{b,a} c_{a,b} (x) id, and
    # one step between equal factors is id (x) c_{a,a} (x) id, with c the
    # kernel the braid-relation tests check
    (v3, w3), (v4, w4) = s3pair, s4pair
    dv, dw = diag(Z3, NEG)
    u = non_monomial_module()
    assert any(len(row) > 1 for row in Y.braiding(u, u).transpose().data.values())
    for factors in ((v3, v3, w3), (v4, v4, v4, w4), (dv, dv, dw, dv), (u, u, u)):
        tuples = basis(factors)
        index = {t: k for k, t in enumerate(tuples)}

        def chain_matrix(slots):
            out = C.CycMatrix(len(tuples), len(tuples))
            for col, t in enumerate(tuples):
                for s, x in N._chain({t: ONE}, factors, slots).items():
                    out.set(index[s], col, x)
            return out

        for slot in range(1, len(factors)):
            a, b = factors[slot - 1], factors[slot]
            assert chain_matrix([slot, slot]) == placed(factors, slot, Y.braiding(b, a) @ Y.braiding(a, b))
            if a is b:
                assert chain_matrix([slot]) == placed(factors, slot, Y.braiding(a, a)), slot


def test_braiding_chain_raises_when_the_order_does_not_return():
    v, w = diag(Z3, NEG)
    assert len(N._chain({(0, 0): ONE}, (v, v), [1])) == 1
    with pytest.raises(InvariantViolationError):
        N._chain({(0, 0): ONE}, (v, w), [1])


def test_every_entry_point_bounds_the_power_before_building():
    # m = 10**9 would allocate a factor tuple of 10**9 entries before the check
    v, w = diag(Z3, NEG)
    cap = N.MAX_ADJOINT_POWER
    for k in (cap + 1, 10**9):
        for call in (
            lambda: N.t_operator(v, w, k),
            lambda: N.quantum_symmetrizer(v, k),
            lambda: N.phi_operator(v, w, k),
            lambda: N.symmetrized_t(v, w, k),
            lambda: factorization_identity_holds(v, w, k),
            lambda: N.adjoint_power_report(v, w, k),
            lambda: N.x_space_dim(v, w, k),
        ):
            with pytest.raises(ResourceCapError):
                call()


def test_negative_power_names_m():
    v, w = diag(Z3, NEG)
    with pytest.raises(InputError, match="m must be >= 0"):
        N.adjoint_power_report(v, w, -1)


def _q_factorial_vanishes(q11, q12q21, m):
    """Heckenberger's closed formula for a diagonal pair: (ad x1)^m(x2) = 0 iff
    (m)!_{q11} * prod_{k<m} (1 - q11^k q12 q21) = 0."""
    value = ONE
    for j in range(1, m + 1):
        value = value * sum((cyc_power(q11, i) for i in range(j)), C.zero())
    for k in range(m):
        value = value * (ONE - cyc_power(q11, k) * q12q21)
    return value.is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_diagonal_pairs_match_the_closed_formula(n):
    # every q11 = z_n^b and q12 q21 = z_n^c, at the tensor powers m <= n + 1
    for b in range(n):
        for c in range(n):
            q11, q12q21 = C.CycNum.zeta(n, b), C.CycNum.zeta(n, c)
            v, w = diag(q11, q12q21)
            for m in range(1, n + 2):
                want = 0 if _q_factorial_vanishes(q11, q12q21, m) else 1
                got = (N.x_space_dim(v, w, m), symmetrizer_report(v, w, m)["dim"])
                assert got == (want, want), (n, b, c, m)


def test_non_monomial_module_both_ways():
    u = non_monomial_module()
    dims = [2, 3, 4, 7]
    assert [symmetrizer_report(u, u, m)["dim"] for m in (1, 2, 3, 4)] == dims
    assert [N.x_space_dim(u, u, m) for m in (1, 2, 3, 4)] == dims
    assert all(factorization_identity_holds(u, u, n) for n in (1, 2, 3))


def test_s4_pair_x_space_past_the_default_cap(s4pair):
    v, w = s4pair
    assert [N.x_space_dim(v, w, m, cap=10**5) for m in (4, 5)] == [30, 16]


@pytest.mark.slow
def test_s4_pair_both_ways_past_the_default_cap(s4pair):
    # with X_1..X_5 = 16, 30, 34, 30, 16 this fixes the Cartan entry a_VW = -6
    v, w = s4pair
    assert symmetrizer_report(v, w, 4, cap=10**5)["dim"] == 30
    assert [N.x_space_dim(v, w, m, cap=10**7) for m in (6, 7)] == [6, 0]


@pytest.mark.parametrize("cap", [0, -5])
def test_nonpositive_cap_is_an_input_error_at_every_power(s3pair, cap):
    v, w = s3pair
    for m in (0, 1, 2):
        for call in (N.adjoint_power_report, N.x_space_dim):
            with pytest.raises(InputError, match="cap must be at least 1"):
                call(v, w, m, cap=cap)


def test_cap_of_one_keeps_its_meaning(s3pair):
    v, w = s3pair
    assert N.adjoint_power_report(v, w, 0, cap=1)["dim"] == N.x_space_dim(v, w, 0, cap=1) == 3
    for call in (N.adjoint_power_report, N.x_space_dim):
        with pytest.raises(ResourceCapError):
            call(v, w, 1, cap=1)


# -- one block per conjugacy class, against every block computed ---------------


def tuple_degree(factors, t):
    group = factors[0].group
    return reduce(group.mul, (f.degree[i] for f, i in zip(factors, t)), 0)


def all_blocks_report(v, w, m):
    """The report's per_block list with every block of the full
    (S_m (x) id) T_m ranked."""
    _, per_block = N.graded_rank(N.symmetrized_t(v, w, m), (v,) * m + (w,))
    return [{"degree": v.group.names[d], "rank": r} for d, r in per_block if r > 0]


def all_degrees_x_space(v, w, m):
    """dim X_m[d] by degree d, with phi run on every basis vector of every
    level.  Pivot rows of homogeneous vectors are homogeneous, so each one
    counts for the degree of its tuples."""
    basis = [{(j,): ONE} for j in range(w.dim)]
    memo = {}
    for _ in range(m):
        pivots = C.echelon_rows(
            N._apply(vec, lambda t: N._phi_image(v, w, (i,) + t, memo))
            for i in range(v.dim)
            for vec in basis
        )
        basis = [pivots[p] for p in sorted(pivots)]
    factors = (v,) * m + (w,)
    degrees = [{tuple_degree(factors, t) for t in vec} for vec in basis]
    assert all(len(ds) == 1 for ds in degrees)
    return Counter(d for ds in degrees for d in ds)


def s4_module(k):
    """The class of x_k in the envelope of (12)^S4, with the character -1 on
    a generating set of its centralizer."""
    env = catalog_envelope("(12)^S4")[0]
    group, rep = env.group, env.images[k - 1]
    gens = []
    for x in group.centralizer(rep):
        if x not in group.subgroup_closure(gens):
            gens.append(x)
    return Y.induced_module(group, rep, {x: NEG for x in gens})


def sl23_module():
    group = sl23()
    rep, c = group.names.index("[01;22]"), group.names.index("[02;11]")
    return Y.induced_module(group, rep, {c: C.CycNum.zeta(6)})


PAIRS = {
    "S3": (lambda: (Y.transposition_module(),) * 2, 3),
    **{f"S4-x{k}": (lambda k=k: (s4_module(k),) * 2, 3) for k in range(1, 7)},
    "SL23": (lambda: (sl23_module(),) * 2, 3),
    "Z2-non-monomial": (lambda: (non_monomial_module(),) * 2, 4),
    "diagonal": (lambda: diag(Z3, NEG, Z3), 4),
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_one_block_per_class_matches_every_block(name):
    build, m_max = PAIRS[name]
    v, w = build()
    for m in range(m_max + 1):
        if m:
            report = N.adjoint_power_report(v, w, m)
            assert report["per_block"] == all_blocks_report(v, w, m), m
            assert symmetrizer_report(v, w, m)["per_block"] == report["per_block"], m
        comps = N._x_components(v, w, m)
        assert comps == all_degrees_x_space(v, w, m), m
        # X_m is a YD submodule: conjugate components have equal dimension
        for d, n in comps.items():
            assert all(comps.get(c) == n for c in v.group.conjugacy_class_of(d)), (m, d)
        if m:
            assert sum(comps.values()) == report["dim"] == N.x_space_dim(v, w, m)



# -- per-degree dimensions at m = 4 against the symmetrizer ranking -------------


def assert_report_matches_the_symmetrizer(v, w, m, cap=N.DEFAULT_DIM_CAP):
    report = N.adjoint_power_report(v, w, m, cap)
    oracle = symmetrizer_report(v, w, m, cap)
    assert (report["per_block"], report["dim"]) == (oracle["per_block"], oracle["dim"]), m


def test_s4_x1_pair_per_degree_at_m4_past_the_default_cap():
    # 6^5 = 7,776 > DEFAULT_DIM_CAP
    v, w = PAIRS["S4-x1"][0]()
    assert_report_matches_the_symmetrizer(v, w, 4, cap=10**4)


@pytest.mark.slow
def test_sl23_pair_per_degree_at_m4():
    v, w = PAIRS["SL23"][0]()
    assert_report_matches_the_symmetrizer(v, w, 4)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    exps=st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
)
def test_diagonal_pairs_per_degree_match_the_symmetrizer(n, exps):
    # exponents of q11, q12 q21 and q22, read mod n; every power m <= 4
    q11, q12q21, q22 = (C.CycNum.zeta(n, e % n) for e in exps)
    v, w = diag(q11, q12q21, q22)
    for m in range(5):
        assert_report_matches_the_symmetrizer(v, w, m)

import pytest

from qnichols import cyclotomic as C
from qnichols import nichols as N
from qnichols import ydmod as Y
from qnichols.errors import InputError, InvariantViolationError, ResourceCapError

ONE = C.one()
NEG = C.CycNum.rational(-1)
Z3 = C.CycNum.zeta(3)


@pytest.fixture(scope="module")
def s3pair():
    v = Y.transposition_module()
    return v, v


def diag(q11, q12q21, q22=NEG):
    return Y.diagonal_pair(q11, q12q21, ONE, q22)


def test_t1_diagonal_scalar():
    v, w = diag(NEG, Z3)
    t1 = N.t_operator(v, w, 1)
    assert t1.get(0, 0) == ONE - Z3


def test_t1_zero_when_double_braiding_trivial():
    v, w = diag(NEG, ONE)
    assert N.t_operator(v, w, 1).is_zero()
    assert N.adjoint_power_dim(v, w, 1) == 0
    assert N.x_space_dim(v, w, 1) == 0


def test_quantum_serre_vanishing_pattern():
    # q11 = -1, q12 q21 = -1: first adjoint power nonzero, second vanishes
    v, w = diag(NEG, NEG)
    assert N.adjoint_power_dim(v, w, 1) == 1
    assert N.adjoint_power_dim(v, w, 2) == 0
    st2 = N.symmetrized_t(v, w, 2)
    assert st2.is_zero()
    st1 = N.symmetrized_t(v, w, 1)
    assert not st1.is_zero()


def test_symmetrizer_small():
    v, _ = diag(Z3, ONE)
    assert N.quantum_symmetrizer(v, 1) == C.CycMatrix.identity(1)
    s2 = N.quantum_symmetrizer(v, 2)
    assert s2.get(0, 0) == ONE + Z3
    s3 = N.quantum_symmetrizer(v, 3)
    assert s3.get(0, 0) == (ONE + Z3) * (ONE + Z3 + Z3 * Z3)


def test_symmetrizer_matches_sum_over_lifts(s3pair):
    # oracle: S_3 as the sum over all six reduced-word lifts
    v, _ = s3pair
    factors = (v, v, v)
    c1 = N.compose_chain(factors, [1])
    c2 = N.compose_chain(factors, [2])
    ident = C.CycMatrix.identity(27)
    lifts = ident + c1 + c2 + c1 @ c2 + c2 @ c1 + c1 @ c2 @ c1
    assert N.quantum_symmetrizer(v, 3) == lifts


def test_tensor_cap(s3pair):
    v, w = s3pair
    with pytest.raises(ResourceCapError):
        N.t_operator(v, w, 3, cap=4)


def test_x0_is_w(s3pair):
    v, w = s3pair
    assert N.x_space_dim(v, w, 0) == w.dim
    assert N.adjoint_power_dim(v, w, 0) == w.dim


def test_factorization_identity_diagonal():
    for q11 in (NEG, Z3):
        for q12q21 in (ONE, NEG):
            v, w = diag(q11, q12q21)
            for n in (1, 2):
                assert N.factorization_identity_holds(v, w, n), (str(q11), str(q12q21), n)


def test_factorization_identity_s3(s3pair):
    v, w = s3pair
    assert N.factorization_identity_holds(v, w, 1)
    assert N.factorization_identity_holds(v, w, 2)


def test_adjoint_equals_xspace_s3(s3pair):
    v, w = s3pair
    for m in (1, 2, 3):
        assert N.adjoint_power_dim(v, w, m) == N.x_space_dim(v, w, m)


def test_adjoint_dims_s3_values(s3pair):
    # frozen from the exact matrix computation; the Nichols algebra of this
    # module is finite dimensional so high powers vanish
    v, w = s3pair
    assert [N.adjoint_power_dim(v, w, m) for m in (1, 2, 3)] == [4, 3, 0]


def test_graded_blocks_partition(s3pair):
    v, w = s3pair
    space = N.BraidedTensor((v, v, w))
    blocks = N.graded_blocks(space)
    assert sum(len(b) for b in blocks.values()) == space.dim


def test_graded_rank_matches_plain_rank(s3pair):
    v, w = s3pair
    st = N.symmetrized_t(v, w, 2)
    space = N.BraidedTensor((v, v, w))
    total, per_block = N.graded_rank(st, space)
    assert total == st.rank()
    assert total == sum(r for _, r in per_block)


def test_operators_preserve_grading(s3pair):
    v, w = s3pair
    space = N.BraidedTensor((v, v, w))
    for mat in (N.t_operator(v, w, 2), N.phi_operator(v, w, 2), N.symmetrized_t(v, w, 2)):
        block_of = {}
        for d, idxs in N.graded_blocks(space).items():
            for i in idxs:
                block_of[i] = d
        for i, j, _ in mat.iter_entries():
            assert block_of[i] == block_of[j]


def test_adjoint_report_shape(s3pair):
    v, w = s3pair
    rep = N.adjoint_power_report(v, w, 2)
    assert rep["m"] == 2
    assert rep["dim"] == sum(b["rank"] for b in rep["per_block"])


def test_vanishing_iff_all_blocks_vanish(s3pair):
    v, w = s3pair
    st = N.symmetrized_t(v, w, 3)
    space = N.BraidedTensor((v, v, v, w))
    total, per_block = N.graded_rank(st, space)
    assert total == 0
    assert all(r == 0 for _, r in per_block)


def test_invalid_args(s3pair):
    v, w = s3pair
    with pytest.raises(InputError):
        N.t_operator(v, w, 0)
    with pytest.raises(InputError):
        N.adjoint_power_dim(v, w, -1)


@pytest.fixture(scope="module")
def s4pair():
    from qnichols.envgroup import catalog_envelope

    group = catalog_envelope("(12)^S4")[0].group
    x2, x6 = group.names.index("x2"), group.names.index("x6")
    v = Y.induced_module(group, x2, {x2: NEG, x6: NEG})
    return v, v


def test_adjacent_braiding_is_the_braiding_kernel_at_each_slot(s3pair, s4pair):
    # oracle: the adjacent braiding at slot k is id (x) c_{a,b} (x) id, with
    # c the kernel the braid-relation tests check
    (v3, w3), (v4, w4) = s3pair, s4pair
    dv, dw = diag(Z3, NEG)
    # a module whose action is not monomial, so kernel rows have two entries:
    # Z_2 acting on degrees (g, g, 1) through the involution [[1, 1], [0, -1]] + [1]
    z2 = Y.abelian_group([2])
    flip = C.CycMatrix.from_rows([[1, 1, 0], [0, -1, 0], [0, 0, 1]])
    u = Y.YDModule(z2, (1, 1, 0), [C.CycMatrix.identity(3), flip])
    assert any(len(row) > 1 for row in Y.braiding(u, u).data.values())
    for factors in ((v3, v3, w3), (v4, v4, v4, w4), (dv, dv, dw, dv), (u, u, u)):
        for slot in range(1, len(factors)):
            k = slot - 1
            a, b = factors[k], factors[k + 1]
            prefix = N.BraidedTensor(factors[:k]).dim
            suffix = N.BraidedTensor(factors[k + 2 :]).dim
            want = N.kron(
                N.kron(C.CycMatrix.identity(prefix), Y.braiding(a, b)),
                C.CycMatrix.identity(suffix),
            )
            got, order = N.adjacent_braiding(factors, slot)
            assert got == want, slot
            assert order == factors[:k] + (b, a) + factors[k + 2 :]


def test_compose_chain_raises_when_the_order_does_not_return():
    v, w = diag(Z3, NEG)
    assert N.compose_chain((v, v), [1]).rows == 1
    with pytest.raises(InvariantViolationError):
        N.compose_chain((v, w), [1])


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
            lambda: N.factorization_identity_holds(v, w, k),
            lambda: N.adjoint_power_dim(v, w, k),
            lambda: N.adjoint_power_report(v, w, k),
            lambda: N.x_space_dim(v, w, k),
        ):
            with pytest.raises(ResourceCapError):
                call()


def test_negative_power_names_m():
    v, w = diag(Z3, NEG)
    with pytest.raises(InputError, match="m must be >= 0"):
        N.adjoint_power_report(v, w, -1)

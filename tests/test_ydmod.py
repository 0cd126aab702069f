import random
from functools import reduce

import pytest

from qnichols import cyclotomic as C
from qnichols import ydmod as Y
from qnichols.envgroup import FinGroup, catalog_envelope, finite_enveloping_group, sl23
from qnichols.errors import InputError
from qnichols.quandle import Quandle, catalog, catalog_names, match_catalog

from oracles import (
    cyc_matrix,
    cyc_power,
    element_order,
    entry,
    extend_character_all_pairs,
    symmetric_group_table,
)


def test_transposition_module_basic():
    v = Y.transposition_module()
    assert v.dim == 3
    # the degrees under conjugation, relabeled 1..3, form the S3 transpositions
    labels = sorted(set(v.degree))
    support = Quandle(
        [[labels.index(v.group.conj(a, b)) + 1 for b in labels] for a in labels]
    )
    assert match_catalog(support) == "(12)^S3"


def test_induced_module_trivial_character_central_rep():
    g = sl23()
    centre = g.center()
    z = next(a for a in centre if a != 0)
    v = Y.induced_module(g, z, {x: C.one() for x in g.centralizer(z)})
    assert v.dim == 1
    assert v.degree == (z,)


def test_induced_module_gamma2_quotient_class_of_g():
    env = finite_enveloping_group(catalog("Z_2^{2,2}"))
    g = env.group
    rep = env.images[0]  # image of x1 = g
    assert len(g.conjugacy_class_of(rep)) == 2
    # centralizer {1, g, eps, eps g} needs chi on both g and eps = [h, g]
    eps = g.commutator(env.images[1], rep)
    v = Y.induced_module(g, rep, {rep: C.CycNum.rational(-1), eps: C.one()})
    assert v.dim == 2


def test_induced_module_nonmultiplicative_character_rejected():
    g = sl23()
    rep = next(c[0] for c in g.conjugacy_classes() if len(c) == 6)
    cent = g.centralizer(rep)
    # rep has order 4 in the quaternion subgroup; chi(rep) = -1 works but
    # chi(rep) = zeta3 cannot extend multiplicatively
    with pytest.raises(InputError):
        Y.induced_module(g, rep, {rep: C.CycNum.zeta(3)})


def test_character_must_generate():
    g = sl23()
    rep = next(c[0] for c in g.conjugacy_classes() if len(c) == 4)
    with pytest.raises(InputError):
        Y.extend_character(g, g.centralizer(rep), {0: C.one()})


def test_module_multiplicativity_is_checked_beyond_generator_ids():
    # generator_ids name only the 3-cycle (1,2,0), which generates A3.  The
    # action z3 on the odd permutations and 1 on the rest passes the check of
    # that 3-cycle against every element, but a transposition t has
    # action(t) action(t) = z3^2 != 1 = action(t t)
    perms, mult = symmetric_group_table(3)
    g = FinGroup(mult, generator_ids=(perms.index((1, 2, 0)),))
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    actions = [cyc_matrix([[C.CycNum.zeta(3) if o else 1]]) for o in odd]
    t = perms.index((1, 0, 2))
    assert actions[t] @ actions[t] != actions[g.mul(t, t)]
    with pytest.raises(InputError, match="multiplicative"):
        Y.YDModule(g, (0,), actions)


def test_grading_wrong_on_a_generator_is_refused():
    # Z2 swapping basis vectors of degrees 0 and 1 is multiplicative, but in
    # an abelian group the generator must keep every degree
    g = Y.abelian_group([2])
    swap = cyc_matrix([[0, 1], [1, 0]])
    with pytest.raises(InputError, match="grading"):
        Y.YDModule(g, (0, 1), [C.CycMatrix.identity(2), swap])


def test_grading_wrong_off_the_generators_is_refused_as_non_multiplicative():
    # the identity keeps every degree, which a non-generator s moves, so the
    # grading fails at s alone; the multiplicativity check refuses the module
    v = Y.transposition_module()
    g = v.group
    s = next(
        a
        for a in range(g.order)
        if a not in g.generators and any(g.conj(a, d) != d for d in v.degree)
    )
    actions = list(v.actions)
    actions[s] = C.CycMatrix.identity(v.dim)
    with pytest.raises(InputError, match="multiplicative"):
        Y.YDModule(g, v.degree, actions)


def _character_groups():
    yield from (catalog_envelope(name)[0].group for name in catalog_names()[1:])
    yield sl23()
    yield Y.abelian_group([2, 4])
    yield Y.abelian_group([3, 3])


def _outcome(extend, group, subgroup, character):
    try:
        return extend(group, subgroup, character)
    except InputError:
        return "rejected"


def test_extend_character_matches_the_all_pairs_closure():
    # seeded characters on every centralizer of each group: one to three
    # elements, the identity among them at times, each sent to a root of
    # unity whose order divides twice the element's order
    rng = random.Random(19)
    accepted = rejected = 0
    for group in _character_groups():
        for rep in range(group.order):
            cent = group.centralizer(rep)
            for _ in range(3):
                gens = rng.sample(cent, min(len(cent), rng.randint(1, 3)))
                character = {
                    s: C.CycNum.zeta(2 * element_order(group, s), rng.randrange(8))
                    for s in gens
                }
                got = _outcome(Y.extend_character, group, cent, character)
                assert got == _outcome(extend_character_all_pairs, group, cent, character)
                accepted += got != "rejected"
                rejected += got == "rejected"
    assert accepted and rejected


def test_extend_character_rejects_a_nontrivial_identity_value():
    g = Y.abelian_group([2])
    with pytest.raises(InputError, match="not multiplicative"):
        Y.extend_character(g, (0, 1), {0: C.CycNum.rational(-1), 1: C.CycNum.rational(-1)})


def test_yd_compatibility_and_multiplicativity_all_constructed():
    v = Y.transposition_module()
    g = v.group
    for s in range(g.order):
        for i, j, _ in v.actions[s].iter_entries():
            assert v.degree[i] == g.conj(s, v.degree[j])
        for t in range(g.order):
            assert v.actions[s] @ v.actions[t] == v.actions[g.mul(s, t)]


def test_braiding_diagonal_scalars():
    q11, q12, q21, q22 = (
        C.CycNum.rational(-1),
        C.CycNum.zeta(4),
        C.CycNum.zeta(4, 3),
        C.one(),
    )
    V, W = Y.diagonal_pair(q11, q12, q21, q22)
    assert entry(Y.braiding(V, W), 0, 0) == q12
    assert entry(Y.braiding(W, V), 0, 0) == q21
    assert entry(Y.braiding(V, V), 0, 0) == q11
    # double braiding is the scalar q12*q21 = 1 here
    assert Y.braiding(W, V) @ Y.braiding(V, W) == C.CycMatrix.identity(1)


_NEG = C.CycNum.rational(-1)
_DIAGONAL_SCALARS = {  # conductor -> (q11, q12, q21, q22)
    1: (C.one(),) * 4,
    2: (_NEG, C.one(), _NEG, _NEG),
    3: (C.CycNum.zeta(3), C.CycNum.zeta(3, 2), C.one(), C.CycNum.zeta(3)),
    4: (C.CycNum.zeta(4), _NEG, C.CycNum.zeta(4, 3), C.one()),
    12: (C.CycNum.zeta(12, 5), C.CycNum.zeta(4), C.CycNum.zeta(3), _NEG),
}


@pytest.mark.parametrize("n", list(_DIAGONAL_SCALARS))
def test_diagonal_pair_acts_by_its_characters(n):
    # at x g_v + y g_w, V acts by q11^x q21^y and W by q12^x q22^y
    q11, q12, q21, q22 = _DIAGONAL_SCALARS[n]
    v, w = Y.diagonal_pair(q11, q12, q21, q22)
    g = v.group
    assert w.group is g and g.order == n * n
    g_v, g_w = g.generator_ids
    assert (v.degree, w.degree) == ((g_v,), (g_w,))
    seen = set()
    for x in range(n):
        for y in range(n):
            a = reduce(g.mul, [g_v] * x + [g_w] * y, 0)
            seen.add(a)
            assert v.actions[a] == cyc_matrix([[cyc_power(q11, x) * cyc_power(q21, y)]]), (x, y)
            assert w.actions[a] == cyc_matrix([[cyc_power(q12, x) * cyc_power(q22, y)]]), (x, y)
    assert seen == set(range(g.order))


def test_braiding_group_mismatch():
    V, _ = Y.diagonal_pair(C.one(), C.one(), C.one(), C.one())
    v = Y.transposition_module()
    with pytest.raises(InputError):
        Y.braiding(V, v)


def test_braiding_block_monomial_degrees():
    # braiding maps the (g,h) component into (ghg^{-1}, g)
    v = Y.transposition_module()
    g = v.group
    c = Y.braiding(v, v)
    for r, col, _ in c.iter_entries():
        i, j = divmod(col, v.dim)
        k, i2 = divmod(r, v.dim)
        assert i2 == i
        assert v.degree[k] == g.conj(v.degree[i], v.degree[j])


def test_braid_relation_transposition_module():
    v = Y.transposition_module()
    c = Y.braiding(v, v)
    i3 = C.CycMatrix.identity(3)

    def kron(a, b):
        out = C.CycMatrix(a.rows * b.rows, a.cols * b.cols)
        for i, j, x in a.iter_entries():
            for k, l, y in b.iter_entries():
                out.set(i * b.rows + k, j * b.cols + l, x * y)
        return out

    c1, c2 = kron(c, i3), kron(i3, c)
    assert c1 @ c2 @ c1 == c2 @ c1 @ c2


def test_braid_relation_diagonal():
    V, _ = Y.diagonal_pair(C.CycNum.zeta(3), C.one(), C.one(), C.one())
    c = Y.braiding(V, V)
    assert c @ c @ c == C.CycMatrix.identity(1)


def test_braid_relation_every_constructed_module():
    def kron(a, b):
        out = C.CycMatrix(a.rows * b.rows, a.cols * b.cols)
        for i, j, x in a.iter_entries():
            for k, l, y in b.iter_entries():
                out.set(i * b.rows + k, j * b.cols + l, x * y)
        return out

    env = finite_enveloping_group(catalog("Z_2^{2,2}"))
    g = env.group
    rep = env.images[0]
    eps = g.commutator(env.images[1], rep)
    modules = [
        Y.transposition_module(),
        Y.transposition_module(sign=C.one()),
        Y.induced_module(g, rep, {rep: C.CycNum.rational(-1), eps: C.CycNum.rational(-1)}),
        Y.diagonal_pair(C.CycNum.zeta(4), C.CycNum.zeta(3), C.one(), C.one())[0],
    ]
    for v in modules:
        c = Y.braiding(v, v)
        ident = C.CycMatrix.identity(v.dim)
        c1, c2 = kron(c, ident), kron(ident, c)
        assert c1 @ c2 @ c1 == c2 @ c1 @ c2


def test_transposition_braiding_c2_not_identity():
    v = Y.transposition_module()
    assert Y.braiding(v, v) @ Y.braiding(v, v) != C.CycMatrix.identity(9)


def test_abelian_group_helper():
    g = Y.abelian_group([2, 3])
    assert g.order == 6
    assert g.is_abelian()
    assert [element_order(g, x) for x in g.generator_ids] == [2, 3]


def test_abelian_group_adds_digits():
    # element a is the mixed-radix number of its digit tuple, first factor
    # most significant
    for orders in ([1], [5], [2, 3], [4, 6], [2, 1, 3], [2, 3, 2]):
        g = Y.abelian_group(orders)

        def digits(a):
            out = []
            for n in reversed(orders):
                a, d = divmod(a, n)
                out.append(d)
            return out[::-1]

        def number(ds):
            a = 0
            for d, n in zip(ds, orders):
                a = a * n + d % n
            return a

        assert all(
            g.mult[a][b] == number([x + y for x, y in zip(digits(a), digits(b))])
            for a in range(g.order)
            for b in range(g.order)
        ), orders
        assert list(g.generator_ids) == [
            number([int(k == i) for k in range(len(orders))]) for i in range(len(orders))
        ]
        assert g.names[0] == "e"


def test_root_of_unity_order():
    assert Y.root_of_unity_order(C.CycNum.rational(-1)) == 2
    assert Y.root_of_unity_order(C.CycNum.zeta(6)) == 6
    with pytest.raises(InputError):
        Y.root_of_unity_order(C.CycNum.rational(2))

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from qnichols import cyclotomic as C
from qnichols.errors import InputError, InvariantViolationError, ResourceCapError

from oracles import approx, cyc_matrix, stores_no_zero


def test_phi_polys():
    assert C.cyclotomic_poly(1) == (-1, 1)
    assert C.cyclotomic_poly(2) == (1, 1)
    assert C.cyclotomic_poly(3) == (1, 1, 1)
    assert C.cyclotomic_poly(4) == (1, 0, 1)
    assert C.cyclotomic_poly(6) == (1, -1, 1)
    assert C.cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def totient(n: int) -> int:
    """phi(n) by its definition: the count of k <= n coprime to n."""
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def test_phi_degree_is_the_totient():
    cap = C.MAX_CONDUCTOR
    for n in [*range(1, 201), cap - 2, cap - 1, cap]:
        assert len(C.cyclotomic_poly(n)) - 1 == totient(n), n


def test_cyclotomic_poly_rejects_a_remainder(monkeypatch):
    build = C.cyclotomic_poly.__wrapped__  # uncached, so nothing stale is kept
    # a wrong Phi_1 = x + 1: x^3 - 1 = (x + 1)(x^2 - x + 1) - 2
    monkeypatch.setattr(C, "cyclotomic_poly", lambda d: (1, 1))
    with pytest.raises(InvariantViolationError):
        build(3)


def long_division(a: list, b: list) -> tuple[list[Fraction], list[Fraction]]:
    """Schoolbook division over Fractions, highest degree first."""
    rem, q = [Fraction(c) for c in a], []
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        q.append(c)
        shift = len(rem) - len(b)
        for i, d in enumerate(b):
            rem[shift + i] -= c * d
        rem.pop()
    return q[::-1], rem


def poly_mul_add(q: list, b: list, r: list) -> list[Fraction]:
    out = [Fraction(0)] * max(len(q) + len(b) - 1, len(r))
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i, x in enumerate(r):
        out[i] += x
    return out


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_ints = st.integers(min_value=-5, max_value=5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(small_ints, rationals), max_size=9),
    st.lists(st.one_of(small_ints, rationals), max_size=5),
    st.one_of(st.just(1), small_ints.filter(bool), rationals.filter(bool)),
)
@example(a=[1, 0, -1], b=[-1], lead=1)  # exact: 1 - x^2 = (-1 - x)(x - 1)
@example(a=[1, 0, 1], b=[1], lead=1)  # x^2 + 1 = (x - 1)(x + 1) + 2
@example(a=[0, 1], b=[0], lead=2)  # x = (1/2)(2x): the leading coefficient does not divide
def test_poly_divmod_matches_long_division(a, b, lead):
    b = [*b, lead]
    q, r = C._poly_divmod(a, b)
    assert (q, r) == long_division(a, b)
    assert len(r) < len(b)
    padded = [Fraction(c) for c in a] + [Fraction(0)] * max(0, len(b) - 1 - len(a))
    assert poly_mul_add(q, b, r)[: len(padded)] == padded
    if lead == 1 and all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in q + r)


def test_zeta4_squared():
    i = C.CycNum.zeta(4)
    assert i * i == C.CycNum.rational(-1)


def test_zeta3_sum():
    z = C.CycNum.zeta(3)
    assert z + z * z == C.CycNum.rational(-1)


def test_inverse_round_trip():
    x = C.one() + C.CycNum.zeta(5)
    assert x * x.inv() == C.one()
    with pytest.raises(InputError):
        C.zero(5).inv()


def test_cross_conductor():
    # zeta_6^3 = -1 = zeta_2, computed across conductors
    z6 = C.CycNum.zeta(6)
    assert z6**3 == C.CycNum.rational(-1)
    assert C.CycNum.zeta(2) - z6**3 == C.zero()
    assert C.CycNum.zeta(3) == C.CycNum.zeta(6) ** 2


def test_zeta_order():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = C.CycNum.zeta(n)
        assert z**n == C.one()
        for k in range(1, n):
            assert z**k != C.one()


scalars = st.builds(
    lambda n, num, den: C.CycNum(n, [Fraction(a, den) for a in num]),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=120, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == C.one()


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_embedding_consistency(a, b):
    # numeric evaluation agrees with exact arithmetic (sanity net)
    exact = approx(a * b + a)
    floating = approx(a) * approx(b) + approx(a)
    assert abs(exact - floating) < 1e-9


def assert_normal_form(x: C.CycNum) -> None:
    """Exactly phi(N) coefficients, each an int or a non-integral Fraction."""
    assert len(x.coeffs) == totient(x.N)
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def ref_coeffs(x: C.CycNum, n: int) -> list[Fraction]:
    """x over Q(zeta_n), n a multiple of x.N: substitute zeta_N = zeta_n^(n/N)
    and take the remainder of long division by Phi_n, all over Fractions."""
    step = n // x.N
    poly = [Fraction(0)] * (step * len(x.coeffs))
    for k, c in enumerate(x.coeffs):
        poly[k * step] = Fraction(c)
    return ref_reduce(poly, n)


def ref_reduce(poly: list[Fraction], n: int) -> list[Fraction]:
    phi = [Fraction(c) for c in C.cyclotomic_poly(n)]
    deg = len(phi) - 1
    rem = list(poly)
    while len(rem) > deg:
        lead = rem.pop()  # Phi_n is monic: subtract lead * x^(len - deg) * Phi_n
        for i in range(deg):
            rem[len(rem) - deg + i] -= lead * phi[i]
    return rem + [Fraction(0)] * (deg - len(rem))


def ref_product(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, n)


def test_reference_itself():
    z3 = C.CycNum.zeta(3)
    assert ref_coeffs(z3, 3) == [0, 1]
    assert ref_coeffs(z3, 6) == [-1, 1]  # zeta_3 = zeta_6^2 = zeta_6 - 1
    assert ref_product([0, 1], [0, 1], 4) == [-1, 0]  # i * i = -1


@settings(max_examples=150, deadline=None)
@given(scalars, scalars)
def test_arithmetic_matches_fraction_reference(a, b):
    """Every operation agrees with Fraction polynomial arithmetic modulo Phi_M,
    M = lcm of the conductors, and returns a result in normal form."""
    m = math.lcm(a.N, b.N)
    ra, rb = ref_coeffs(a, m), ref_coeffs(b, m)
    results = {
        "+": (a + b, [x + y for x, y in zip(ra, rb)]),
        "-": (a - b, [x - y for x, y in zip(ra, rb)]),
        "*": (a * b, ref_product(ra, rb, m)),
    }
    for op, (got, want) in results.items():
        assert got.N == m, op
        assert_normal_form(got)
        assert list(got.coeffs) == want, op
    neg = -a
    assert_normal_form(neg)
    assert neg.N == a.N and list(neg.coeffs) == [-c for c in ref_coeffs(a, a.N)]
    if not a.is_zero():
        inv = a.inv()
        assert_normal_form(inv)
        assert inv.N == a.N
        assert ref_product(ref_coeffs(a, a.N), ref_coeffs(inv, a.N), a.N) == ref_coeffs(C.one(), a.N)


def test_normal_form_keeps_integers_as_int():
    third = C.CycNum.rational(3).inv()
    assert third == Fraction(1, 3) and third.coeffs == (Fraction(1, 3),)
    assert C.CycNum.rational(-1).inv().coeffs == (-1,)
    assert type(C.CycNum.rational(-1).inv().coeffs[0]) is int
    half = C.CycNum(4, [Fraction(1, 2), Fraction(3, 2)])
    assert (half + half).coeffs == (1, 3)
    assert all(type(c) is int for c in (half * 2).coeffs)
    x = C.CycNum(5, [1, -2, 0, 3])  # integer coefficients, inverse is not integral
    y = x.inv()
    assert_normal_form(y)
    assert any(type(c) is Fraction for c in y.coeffs)
    assert x * y == C.one() and y.inv() == x
    assert all(type(c) is int for c in (x * y).coeffs)
    assert_normal_form(C.CycNum(3, [0.5, True, Fraction(4, 2)]))


def test_conductor_cap():
    cap = C.MAX_CONDUCTOR
    below = C.CycNum.zeta(cap)
    assert len(below.coeffs) == totient(cap)
    with pytest.raises(ResourceCapError):
        C.CycNum.zeta(cap + 1)
    with pytest.raises(ResourceCapError):
        C.parse_cyc(f"z{cap + 1}")
    with pytest.raises(ResourceCapError):
        C.CycNum(cap + 1, [1])
    # each conductor is under the cap, their lcm is not
    other = C.CycNum.zeta(cap - 1)
    with pytest.raises(ResourceCapError):
        below * other
    with pytest.raises(ResourceCapError):
        below + other
    with pytest.raises(InputError):
        C.CycNum.zeta(0)


def test_matrix_identity_rank():
    assert C.CycMatrix.identity(3).rank() == 3


def test_matrix_zero_rank():
    assert C.CycMatrix(4, 5).rank() == 0
    assert C.CycMatrix(4, 5).kernel_basis().cols == 5


def test_matrix_proportional_rows():
    z = C.CycNum.zeta(3)
    m = cyc_matrix([[C.one(), z], [z * z, C.one()]])
    # rows are proportional: z^2 * (1, z) = (z^2, z^3) = (z^2, 1)
    assert m.rank() == 1
    ker = m.kernel_basis()
    assert ker.cols == 1
    # the kernel vector is annihilated
    prod = m @ ker
    assert prod.is_zero()


def test_rank_transpose_and_product_bound():
    z = C.CycNum.zeta(4)
    m = cyc_matrix([[1, z, 0], [z, -1, 0], [0, 0, 0]])
    assert m.rank() == m.transpose().rank()
    n = cyc_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert (m @ n).rank() <= min(m.rank(), n.rank())


@st.composite
def small_matrices(draw, rows=None, cols=None):
    """Matrices up to 4 x 5 whose entries are small integers times roots of
    unity of conductor 1, 3, 4, 5 or 8, mixing up to two conductors.  Some
    rows are combinations of the others, so ranks often fall short of full."""
    rows = draw(st.integers(min_value=1, max_value=4)) if rows is None else rows
    cols = draw(st.integers(min_value=1, max_value=5)) if cols is None else cols
    conductors = draw(
        st.lists(st.sampled_from([1, 3, 4, 5, 8]), min_size=1, max_size=2, unique=True)
    )
    entry = st.builds(
        lambda n, c, k: C.CycNum(n, [c]) * C.CycNum.zeta(n, k),
        st.sampled_from(conductors),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=7),
    )
    free = draw(st.integers(min_value=0, max_value=rows))
    out = [[draw(entry) for _ in range(cols)] for _ in range(free)]
    for _ in range(rows - free):
        weights = [draw(entry) for _ in range(free)]
        out.append([sum((w * r[j] for w, r in zip(weights, out)), C.zero()) for j in range(cols)])
    order = draw(st.permutations(range(rows)))
    return cyc_matrix([out[i] for i in order])


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.data())
def test_rank_properties_random(a, data):
    b = data.draw(small_matrices(rows=a.cols))
    assert a.rank() == a.transpose().rank()
    assert (a @ b).rank() <= min(a.rank(), b.rank())
    assert a.rank() + a.kernel_basis().cols == a.cols


def _det(m: list[list[C.CycNum]]) -> C.CycNum:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return C.one()
    total = C.zero()
    for j, a in enumerate(m[0]):
        if not a.is_zero():
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = a * _det(minor)
            total = total + term if j % 2 == 0 else total - term
    return total


def minor_rank(m: C.CycMatrix) -> int:
    """The largest k with a nonzero k x k minor: a rank that does no elimination."""
    dense = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                if not _det([[dense[i][j] for j in cs] for i in rs]).is_zero():
                    return k
    return 0


def test_minor_rank_oracle_itself():
    z = C.CycNum.zeta(3)
    assert minor_rank(C.CycMatrix(3, 2)) == 0
    assert minor_rank(C.CycMatrix.identity(4)) == 4
    assert minor_rank(cyc_matrix([[1, z], [z * z, 1]])) == 1
    assert _det([[C.one(), C.one()], [C.one(), C.CycNum.rational(-1)]]) == -2


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_and_kernel_match_minor_oracle(m):
    r = minor_rank(m)
    assert m.rank() == r
    ker = m.kernel_basis()
    assert (ker.rows, ker.cols) == (m.cols, m.cols - r)
    assert (m @ ker).is_zero()
    assert minor_rank(ker) == ker.cols


def test_rank_kernel_dims_sum():
    z = C.CycNum.zeta(8)
    m = cyc_matrix([[1, z, z**2], [z, z**2, z**3]])
    assert m.rank() + m.kernel_basis().cols == m.cols
    assert (m @ m.kernel_basis()).is_zero()


def test_matrix_equality_crosses_conductors_not_shapes():
    z3 = C.CycNum.zeta(3)
    a = cyc_matrix([[1, z3], [0, -1]])
    b = cyc_matrix([[C.CycNum(4, [1]), C.CycNum.zeta(6) ** 2], [0, C.CycNum.zeta(2)]])
    assert a == b and b == a
    assert a != cyc_matrix([[1, z3], [0, 1]])
    assert a != cyc_matrix([[1, z3, 0], [0, -1, 0]])
    assert C.CycMatrix(2, 3) != C.CycMatrix(3, 2)
    assert C.CycMatrix(2, 2) == cyc_matrix([[z3, 0], [0, 0]]) @ cyc_matrix([[0, 0], [1, 0]])


def test_matrix_operations_store_no_zero_entry():
    m = cyc_matrix([[1, 2], [3, 0]])
    m.set(0, 1, C.zero(5))
    m.set(1, 0, C.zero())  # empties row 1
    assert m.data == {0: {0: C.one()}} and stores_no_zero(m)
    # row 0 cancels: 1 * 1 + 1 * (-1) = 0
    prod = cyc_matrix([[1, 1], [1, 0]]) @ cyc_matrix([[1], [-1]])
    assert prod == cyc_matrix([[0], [1]]) and stores_no_zero(prod)
    for mat in (cyc_matrix([[0, 1, 0], [0, 0, 0]]).transpose(), C.CycMatrix.identity(3)):
        assert stores_no_zero(mat)


def test_matmul_vs_dense_oracle():
    z = C.CycNum.zeta(5)
    a = cyc_matrix([[1, z], [z**2, 3]])
    b = cyc_matrix([[z, 0], [1, z**4]])
    prod = a @ b
    for i in range(2):
        for j in range(2):
            expect = sum((a.get(i, k) * b.get(k, j) for k in range(2)), C.zero())
            assert prod.get(i, j) == expect


def test_parse_cyc():
    assert C.parse_cyc("-1") == C.CycNum.rational(-1)
    assert C.parse_cyc("z3^2") == C.CycNum.zeta(3, 2)
    assert C.parse_cyc("1/2*z4") == C.CycNum.zeta(4) * Fraction(1, 2)
    with pytest.raises(InputError):
        C.parse_cyc("zx")
    with pytest.raises(InputError):
        C.parse_cyc("")
    with pytest.raises(InputError):
        C.parse_cyc("z3^")  # a dangling exponent is not z3
    assert C.parse_cyc("-1/2*z8^-3") == -C.CycNum.zeta(8, -3) * Fraction(1, 2)
    # one leading '-' only, and factors of digits: no signs, exponents,
    # separators or decimals that int() and Fraction() would accept
    for text in ["--1", "-+1", "1*-1", "1*+2", "z3^+2", "1e3", "1_000", ".5", "1.5", "-z3*-z3"]:
        with pytest.raises(InputError):
            C.parse_cyc(text)


def test_str_round_readable():
    z = C.CycNum.zeta(3)
    assert str(C.one() - z) == "1 - z3"
    assert str(C.zero()) == "0"

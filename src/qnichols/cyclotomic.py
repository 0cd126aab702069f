"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Numbers are residues modulo the N-th cyclotomic polynomial with rational
coefficients, so each conductor gives a true field; mixed-conductor operands
are lifted to the lcm conductor, and conductors are capped at MAX_CONDUCTOR.
An integral coefficient is stored as an int and only a non-integral one as a
Fraction, so the common integer case costs no Fraction arithmetic.  Matrices
store their nonzero entries sparsely by row, and every rank and kernel comes
from one sparse pivot-row elimination, ``echelon_rows``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import InputError, InvariantViolationError, ResourceCapError

Rat = Union[int, Fraction]


#: The largest conductor a CycNum may have.  Building Phi_N costs about N^2
#: steps and a dense product about phi(N)^2; for every conductor up to the cap,
#: parsing ``zN^k`` plus one dense product takes under 0.4 s.
MAX_CONDUCTOR = 1024


def _check_conductor(n: int) -> None:
    if n < 1:
        raise InputError(f"conductor must be positive, got {n}")
    if n > MAX_CONDUCTOR:
        raise ResourceCapError(f"conductor {n} exceeds cap {MAX_CONDUCTOR}")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        result *= m - 1
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, computed by exact division of
    x^n - 1 by the Phi_d for proper divisors d."""
    if n < 1:
        raise InputError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise InvariantViolationError(f"{den} does not divide {num} over the integers")
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num):
        raise InvariantViolationError(f"division by {den} leaves remainder {num}")
    return out


def _rat(c: Rat) -> Rat:
    """The normal form of a rational: an int if it is integral, else a Fraction."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c


class CycNum:
    """An element of Q(zeta_N) in canonical reduced form: exactly phi(N)
    coefficients, each an int, or a Fraction whose denominator is not 1."""

    __slots__ = ("N", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[Rat]):
        _check_conductor(conductor)
        deg = euler_phi(conductor)
        cs = [c if type(c) is int else _rat(Fraction(c)) for c in coeffs]
        if len(cs) > deg:
            cs = [_rat(c) for c in _reduce_mod(cs, cyclotomic_poly(conductor))]
        cs += [0] * (deg - len(cs))
        self.N = conductor
        self.coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, conductor: int, coeffs: tuple[Rat, ...]) -> "CycNum":
        """Wrap coefficients that are already in normal form, without checks."""
        out = object.__new__(cls)
        out.N = conductor
        out.coeffs = coeffs
        return out

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def rational(value: Rat) -> "CycNum":
        return CycNum(1, [value])

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycNum":
        """zeta_n^power."""
        _check_conductor(n)
        power %= n
        return CycNum(n, [0] * power + [1])

    # -- field structure -------------------------------------------------------

    def lift(self, conductor: int) -> "CycNum":
        """Rewrite in Q(zeta_M) for a multiple M of the current conductor."""
        if conductor == self.N:
            return self
        if conductor % self.N != 0:
            raise InputError(f"cannot lift conductor {self.N} to {conductor}")
        _check_conductor(conductor)
        step = conductor // self.N
        out = [0] * (len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return CycNum(conductor, out)

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.N == other.N:
            return self, other
        m = lcm(self.N, other.N)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> "CycNum":
        a, b = self._pair(_coerce(other))
        return CycNum._reduced(a.N, tuple([_rat(x + y) for x, y in zip(a.coeffs, b.coeffs)]))

    def __radd__(self, other) -> "CycNum":
        return self.__add__(other)

    def __neg__(self) -> "CycNum":
        return CycNum._reduced(self.N, tuple([-c for c in self.coeffs]))

    def __sub__(self, other) -> "CycNum":
        a, b = self._pair(_coerce(other))
        return CycNum._reduced(a.N, tuple([_rat(x - y) for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other) -> "CycNum":
        return (-self).__add__(other)

    def __mul__(self, other) -> "CycNum":
        other = _coerce(other)
        if other.N == 1:
            c = other.coeffs[0]
            return CycNum._reduced(self.N, tuple([_rat(x * c) for x in self.coeffs]))
        if self.N == 1:
            c = self.coeffs[0]
            return CycNum._reduced(other.N, tuple([_rat(c * y) for y in other.coeffs]))
        a, b = self._pair(other)
        if len(a.coeffs) == 1:
            return CycNum._reduced(a.N, (_rat(a.coeffs[0] * b.coeffs[0]),))
        prod = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycNum(a.N, prod)

    def __rmul__(self, other) -> "CycNum":
        return self.__mul__(other)

    def inv(self) -> "CycNum":
        """Multiplicative inverse via extended Euclid against Phi_N, over Fractions."""
        if self.is_zero():
            raise InputError("cannot invert zero")
        phi = [Fraction(c) for c in cyclotomic_poly(self.N)]
        r0, r1 = phi, [Fraction(c) for c in self.coeffs]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = _poly_trim(r0)
        if len(lead) != 1:
            raise InvariantViolationError("element is a zero divisor; conductor arithmetic broken")
        scale = 1 / lead[0]
        return CycNum(self.N, [c * scale for c in s0])

    def __truediv__(self, other) -> "CycNum":
        return self * _coerce(other).inv()

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inv() ** (-k)
        out = one(self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but equality crosses conductors; keep unhashable

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CycNum({self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                power = f"z{self.N}" if k == 1 else f"z{self.N}^{k}"
                terms.append(f"{sign}{mag}{power}")
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out

    def approx(self) -> complex:
        """Floating evaluation at exp(2 pi i / N); a sanity net, not a truth source."""
        z = cmath.exp(2j * cmath.pi / self.N)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs))


def _coerce(value) -> CycNum:
    if isinstance(value, CycNum):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNum.rational(value)
    raise InputError(f"cannot interpret {value!r} as a cyclotomic number")


def zero(conductor: int = 1) -> CycNum:
    return CycNum(conductor, [])


def one(conductor: int = 1) -> CycNum:
    return CycNum(conductor, [1])


_ZERO = zero()


def _reduce_mod(coeffs: list[Fraction], phi: tuple[int, ...]) -> list[Fraction]:
    deg = len(phi) - 1
    cs = coeffs[:]
    for k in range(len(cs) - 1, deg - 1, -1):
        c = cs[k]
        if c:
            for i in range(deg + 1):
                cs[k - deg + i] -= c * phi[i]
    return cs[:deg]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    k = len(p)
    while k > 0 and not p[k - 1]:
        k -= 1
    return p[:k]


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _poly_trim(a[:])
    b = _poly_trim(b[:])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        a = _poly_trim(a)
    return q, a


class CycMatrix:
    """Exact matrix over a cyclotomic field; entries stored sparsely by row."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[dict[int, dict[int, CycNum]]] = None):
        self.rows = rows
        self.cols = cols
        self.data: dict[int, dict[int, CycNum]] = data if data is not None else {}

    @classmethod
    def identity(cls, n: int) -> "CycMatrix":
        m = cls(n, n)
        for i in range(n):
            m.set(i, i, one())
        return m

    def get(self, i: int, j: int) -> CycNum:
        row = self.data.get(i)
        value = row.get(j) if row else None
        return _ZERO if value is None else value

    def set(self, i: int, j: int, value: CycNum) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError("index out of range")
        if value.is_zero():
            self.data.get(i, {}).pop(j, None)
            if i in self.data and not self.data[i]:
                del self.data[i]
        else:
            self.data.setdefault(i, {})[j] = value

    def iter_entries(self) -> Iterator[tuple[int, int, CycNum]]:
        for i in sorted(self.data):
            for j in sorted(self.data[i]):
                yield i, j, self.data[i][j]

    def nnz(self) -> int:
        return sum(len(r) for r in self.data.values())

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch in product")
        out = CycMatrix(self.rows, other.cols)
        for i, row in self.data.items():
            acc: dict[int, CycNum] = {}
            for k, a in row.items():
                brow = other.data.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    prev = acc.get(j)
                    acc[j] = a * b if prev is None else prev + a * b
            cleaned = {j: v for j, v in acc.items() if not v.is_zero()}
            if cleaned:
                out.data[i] = cleaned
        return out

    def transpose(self) -> "CycMatrix":
        out = CycMatrix(self.cols, self.rows)
        for i, j, v in self.iter_entries():
            out.set(j, i, v)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        keys = set()
        for i, j, _ in self.iter_entries():
            keys.add((i, j))
        for i, j, _ in other.iter_entries():
            keys.add((i, j))
        return all(self.get(i, j) == other.get(i, j) for i, j in keys)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.data

    def __repr__(self) -> str:
        return f"CycMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        return len(echelon_rows(self.data[i] for i in sorted(self.data)))

    def kernel_basis(self) -> "CycMatrix":
        """Columns form a basis of the right kernel (cols x nullity): one
        column per free column, back-substituted through the monic pivot rows."""
        pivots = echelon_rows(self.data[i] for i in sorted(self.data))
        free = [c for c in range(self.cols) if c not in pivots]
        basis = CycMatrix(self.cols, len(free))
        for k, fc in enumerate(free):
            vec = {fc: one()}
            for pc in sorted(pivots, reverse=True):
                s = zero()
                for c, val in pivots[pc].items():
                    if c != pc and c in vec:
                        s = s + val * vec[c]
                if not s.is_zero():
                    vec[pc] = -s
            for i, v in vec.items():
                basis.set(i, k, v)
        return basis


def echelon_rows(rows: Iterable[dict[int, CycNum]]) -> dict[int, dict[int, CycNum]]:
    """Sparse pivot-row elimination, the one exact elimination of the package.

    Each sparse row vector is reduced against the pivot rows kept so far; a
    remainder that survives becomes a new pivot row, scaled to be monic, so
    every pivot costs one inversion.  Returns the pivot rows keyed by their
    pivot (least) column; their count is the rank of the input rows, and no
    pivot row has an entry left of its pivot.  The input rows are not changed.
    """
    by_pivot: dict[int, dict[int, CycNum]] = {}
    for vec in rows:
        vec = dict(vec)
        while vec:
            piv = min(vec)
            bvec = by_pivot.get(piv)
            if bvec is None:
                scale = vec[piv].inv()
                by_pivot[piv] = {j: val * scale for j, val in vec.items()}
                break
            coef = vec[piv]
            for j, val in bvec.items():
                prev = vec.get(j)
                cur = -(coef * val) if prev is None else prev - coef * val
                if cur.is_zero():
                    vec.pop(j, None)
                else:
                    vec[j] = cur
    return by_pivot


def parse_cyc(text: str) -> CycNum:
    """Parse scalar literals: integers, a/b rationals, zN / zN^k roots of unity,
    and '*'-separated products of those, e.g. ``-1``, ``z3^2``, ``1/2*z8``."""
    if not isinstance(text, str):
        raise InputError(f"scalar must be a string, got {text!r}")
    text = text.strip().replace(" ", "")
    if not text:
        raise InputError("empty scalar")
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    out = one()
    for token in text.split("*"):
        if not token:
            raise InputError("empty factor in scalar")
        if token.startswith("z"):
            base, _, exp = token[1:].partition("^")
            try:
                n = int(base)
                k = int(exp) if exp else 1
            except ValueError:
                raise InputError(f"bad root-of-unity token {token!r}")
            if n < 1:
                raise InputError(f"bad conductor in {token!r}")
            out = out * CycNum.zeta(n, k)
        else:
            try:
                out = out * CycNum.rational(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"bad rational token {token!r}")
    return out * sign

"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Numbers are residues modulo the N-th cyclotomic polynomial with rational
coefficients, so each conductor gives a true field; mixed-conductor operands
are lifted to the lcm conductor, and conductors are capped at MAX_CONDUCTOR.
An integral coefficient is stored as an int and only a non-integral one as a
Fraction, so the common integer case costs no Fraction arithmetic.  One long
division, ``_poly_divmod``, builds Phi_N, reduces every product and runs the
Euclid steps of an inverse; phi(N) is read off as the degree of Phi_N.  Matrices
store their nonzero entries sparsely by row, and every rank and kernel comes
from one sparse pivot-row elimination, ``echelon_rows``.
"""

from __future__ import annotations

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
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree: x^n - 1 divided by the Phi_d
    of the proper divisors d.  Its degree is phi(n), the length of a CycNum."""
    if n < 1:
        raise InputError("conductor must be positive")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_poly(d))
            if any(rem):
                raise InvariantViolationError(f"Phi_{d} leaves remainder {rem} in x^{n} - 1")
    return tuple(num)


def _poly_divmod(a: Sequence[Rat], b: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    """Long division of polynomials in ascending coefficients, b[-1] nonzero:
    (q, r) with a = q*b + r and len(r) < len(b).  The one polynomial division
    of the package.  A monic b, as every Phi_N is, divides no coefficient, so
    integer input gives integer output."""
    deg = len(b) - 1
    lead = b[-1]
    r = list(a)
    q: list[Rat] = [0] * (len(r) - deg)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if c:
            if lead != 1:
                c = Fraction(c) / lead
            q[k] = c
            for i in range(deg):
                d = b[i]
                if d:
                    r[k + i] -= c * d
    return q, r


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
        phi = cyclotomic_poly(conductor)
        deg = len(phi) - 1
        cs = [c if type(c) is int else _rat(c if type(c) is Fraction else Fraction(c)) for c in coeffs]
        if len(cs) > deg:
            cs = [c if type(c) is int else _rat(c) for c in _poly_divmod(cs, phi)[1]]
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

    def __neg__(self) -> "CycNum":
        return CycNum._reduced(self.N, tuple([-c for c in self.coeffs]))

    def __sub__(self, other) -> "CycNum":
        a, b = self._pair(_coerce(other))
        return CycNum._reduced(a.N, tuple([_rat(x - y) for x, y in zip(a.coeffs, b.coeffs)]))

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

    def inv(self) -> "CycNum":
        """Multiplicative inverse by extended Euclid against Phi_N.  Each
        remainder r1 equals s1 * self modulo Phi_N, with the Bezout coefficient
        s1 kept as a CycNum; Phi_N is irreducible, so the remainders end in a
        nonzero rational c, and the inverse is s1 / c."""
        if self.is_zero():
            raise InputError("cannot invert zero")
        r0, r1 = list(cyclotomic_poly(self.N)), list(self.coeffs)
        s0, s1 = zero(self.N), one(self.N)
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) <= 1:
                break
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - CycNum(self.N, q) * s1
        if not r1:
            raise InvariantViolationError("element is a zero divisor; conductor arithmetic broken")
        return s1 * CycNum.rational(Fraction(1) / r1[0])

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


class CycMatrix:
    """Exact matrix over a cyclotomic field; entries stored sparsely by row.

    ``data`` holds no zero entry and no empty row: ``set`` drops both,
    products keep only nonzero sums, and the code that fills ``data`` directly
    (``ydmod.braiding``, ``nichols._matrix``, ``nichols.graded_rank``) copies
    nonzero entries and rows only.  So two matrices are equal exactly when
    their shapes and stored rows are."""

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
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    __hash__ = None

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
    """Parse a scalar: an optional leading '-', then '*'-separated factors D, D/D, zD
    or zD^k, D a run of decimal digits and k = D or -D; e.g. ``-1``, ``z3^2``, ``1/2*z8``.
    Whitespace may stand only at either end and on either side of a '*'."""
    if not isinstance(text, str):
        raise InputError(f"scalar must be a string, got {text!r}")
    if not text.strip():
        raise InputError("empty scalar")
    tokens = [token.strip() for token in text.split("*")]
    sign = 1
    if tokens[0].startswith("-"):
        sign = -1
        tokens[0] = tokens[0][1:]
    out = one()
    for token in tokens:
        if not token:
            raise InputError("empty factor in scalar")
        if token.startswith("z"):
            base, caret, exp = token[1:].partition("^")
            try:
                if not (base.isdecimal() and (not caret or exp.removeprefix("-").isdecimal())):
                    raise ValueError
                n = int(base)
                k = int(exp) if caret else 1
            except ValueError:
                raise InputError(f"bad root-of-unity token {token!r}")
            if n < 1:
                raise InputError(f"bad conductor in {token!r}")
            out = out * CycNum.zeta(n, k)
        else:
            try:
                if not token.replace("/", "", 1).isdecimal():  # Fraction refuses '1/' and '/1'
                    raise ValueError
                out = out * CycNum.rational(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"bad rational token {token!r}")
    return out * sign

"""Enveloping groups of quandles and the ambient group machinery.

Contains a small Todd-Coxeter coset enumerator (HLT strategy with coincidence
handling and a coset cap), the finite enveloping groups of quandles and of the
catalog, finite-group structure analysis on multiplication tables, and
SL(2,3) as an explicit table.  ``FinGroup`` is the one group representation:
the paper's groups Gamma_n and the SL(2,3) factor reach the package as the
catalog envelopes of the two-orbit quandles and as ``sl23()``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InputError, InvariantViolationError, ResourceCapError
from .quandle import Quandle, catalog, inner_orbits, orbits

Word = tuple[int, ...]  # signed 1-based generator indices

#: Coset budget of an enumeration whose caller names none (``ResourceCapError`` beyond).
DEFAULT_MAX_COSETS = 100_000


class Presentation:
    """A finite presentation: generator names and relator words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        ng = len(generators)
        for w in relators:
            if any(v == 0 or abs(v) > ng for v in w):
                raise InputError(f"relator index out of range: {w}")
        self.generators = generators
        self.relators = relators

    def to_text(self) -> str:
        lines = [" ".join(self.generators)]
        for w in self.relators:
            lines.append(
                " ".join(
                    self.generators[v - 1] if v > 0 else f"{self.generators[-v - 1]}^-1"
                    for v in w
                )
            )
        return "\n".join(lines) + "\n"


def enveloping_presentation(q: Quandle) -> Presentation:
    """Presentation of the enveloping group: x_i x_j = x_{i>j} x_i.

    All ordered pairs i != j contribute (pairs with i>j = j yield commutation
    relators, which the group needs), except that the relator (i, j, -i, -k)
    is omitted when it inverts an earlier one: exactly when i and j commute
    and j < i, as the inverse of the relator of (j, i).  Every relator has
    the sign pattern (+, +, -, -), which no nontrivial rotation keeps, so no
    relator is a cyclic rotation of another or of another's inverse.
    """
    gens = tuple(f"x{i}" for i in q.elements())
    relators: list[Word] = []
    for i in q.elements():
        for j in q.elements():
            k = q.op(i, j)
            if i == j or (k == j and q.op(j, i) == i and j < i):
                continue
            relators.append((i, j, -i, -k))
    return Presentation(gens, tuple(relators))


# -- Todd-Coxeter -------------------------------------------------------------


def _columns(word: Word) -> tuple[int, ...]:
    """Coset-table columns of a word: 2k for x_{k+1}, 2k + 1 for its inverse."""
    return tuple(2 * (v - 1) if v > 0 else 2 * (-v - 1) + 1 for v in word)


class _CosetTable:
    """HLT coset enumeration over the trivial subgroup."""

    def __init__(self, ngens: int, relators: Sequence[Word], max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[Optional[int]]] = [[None] * self.ncols]
        self.p = [0]
        self.words = [_columns(w) for w in relators]

    def _rep(self, k: int) -> int:
        while self.p[k] != k:
            self.p[k] = self.p[self.p[k]]
            k = self.p[k]
        return k

    def _define(self, alpha: int, col: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise ResourceCapError(
                f"coset budget {self.max_cosets} exceeded; group may be infinite"
            )
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][col] = beta
        self.table[beta][col ^ 1] = alpha

    def _merge(self, a: int, b: int, queue: deque) -> None:
        a, b = self._rep(a), self._rep(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.p[hi] = lo
        queue.append(hi)

    def _coincidence(self, a: int, b: int) -> None:
        queue: deque[int] = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(self.ncols):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][col ^ 1] = None
                mu, nu = self._rep(gamma), self._rep(delta)
                ex = self.table[mu][col]
                if ex is not None:
                    self._merge(nu, ex, queue)
                else:
                    ex2 = self.table[nu][col ^ 1]
                    if ex2 is not None:
                        self._merge(mu, ex2, queue)
                    else:
                        self.table[mu][col] = nu
                        self.table[nu][col ^ 1] = mu

    def _scan_and_fill(self, alpha: int, word: tuple[int, ...]) -> None:
        while True:
            f, i = alpha, 0
            while i < len(word):
                nxt = self.table[f][word[i]]
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i == len(word):
                if f != alpha:
                    self._coincidence(f, alpha)
                return
            b, j = alpha, len(word) - 1
            while j >= i:
                nxt = self.table[b][word[j] ^ 1]
                if nxt is None:
                    break
                b, j = nxt, j - 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self.table[f][word[i]] = b
                self.table[b][word[i] ^ 1] = f
                return
            self._define(f, word[i])

    def enumerate(self) -> list[list[int]]:
        alpha = 0
        while alpha < len(self.table):
            if self._rep(alpha) != alpha:
                alpha += 1
                continue
            for word in self.words:
                self._scan_and_fill(alpha, word)
                if self._rep(alpha) != alpha:
                    break
            if self._rep(alpha) == alpha:
                for col in range(self.ncols):
                    if self.table[alpha][col] is None:
                        self._define(alpha, col)
            alpha += 1
        return self._compact()

    def _compact(self) -> list[list[int]]:
        """The live cosets renumbered breadth-first from coset 0, for a
        canonical, reproducible table."""
        renum = {0: 0}
        order = [0]
        out = []
        for k in order:  # grows as cosets are reached
            row = []
            for v in self.table[k]:
                if v is None:
                    raise InvariantViolationError("incomplete coset table after enumeration")
                v = self._rep(v)
                if v not in renum:
                    renum[v] = len(order)
                    order.append(v)
                row.append(renum[v])
            out.append(row)
        if len(order) != sum(1 for k in range(len(self.table)) if self._rep(k) == k):
            raise InvariantViolationError("a live coset is unreachable from coset 0")
        return out


def todd_coxeter(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> list[list[int]]:
    """Coset table of the trivial subgroup (= regular action of the group)."""
    if max_cosets < 1:
        raise InputError(f"max_cosets must be at least 1, got {max_cosets}")
    return _CosetTable(len(pres.generators), pres.relators, max_cosets).enumerate()


# -- finite groups -------------------------------------------------------------

#: The largest explicit table ``FinGroup`` checks (``check=True``).  The
#: associativity check is cubic: 0.9 s at order 256 and 8.6 s at 512 (Python
#: 3.11, 2 shared vCPUs).  Tables the package builds itself are SL(2,3) (order
#: 24), pass ``check=False`` or have their own check, so only tables given to
#: the library meet this cap.
MAX_CHECKED_ORDER = 256


class FinGroup:
    """A finite group as a multiplication table with element names.

    Element 0 is the identity.  Tables produced by coset enumeration are
    BFS-standardized, so identical presentations give identical groups.
    The structure analysis walks the group from ``generators``, so it costs
    |G| times the number of generators, not |G|^2.
    """

    def __init__(
        self,
        mult: Sequence[Sequence[int]],
        names: Optional[Sequence[str]] = None,
        generator_ids: Sequence[int] = (),
        check: bool = True,
    ):
        self.mult = tuple(tuple(row) for row in mult)
        self.order = len(self.mult)
        self.names = tuple(names) if names is not None else tuple(f"g{k}" for k in range(self.order))
        self.generator_ids = tuple(generator_ids)
        if any(not 0 <= s < self.order for s in self.generator_ids):
            raise InputError(f"generator ids must lie in 0..{self.order - 1}: {self.generator_ids}")
        if check:
            self._validate()
        self.inverse = tuple(self._find_inverse(a) for a in range(self.order))

    def _validate(self) -> None:
        if self.order > MAX_CHECKED_ORDER:
            raise ResourceCapError(
                f"group order {self.order} exceeds the checked-table cap {MAX_CHECKED_ORDER}"
            )
        n = self.order
        if n == 0:
            raise InputError("a group has at least its identity element")
        for row in self.mult:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise InputError("malformed multiplication table")
        if any(self.mult[0][a] != a or self.mult[a][0] != a for a in range(n)):
            raise InputError("element 0 is not an identity")
        for row in self.mult:
            if len(set(row)) != n:
                raise InputError("rows must be permutations")
        self.validate_associativity()

    def validate_associativity(self) -> None:
        """Full associativity check (cubic; see MAX_CHECKED_ORDER)."""
        n = self.order
        for a in range(n):
            row_a = self.mult[a]
            for b in range(n):
                ab = row_a[b]
                row_ab = self.mult[ab]
                row_b = self.mult[b]
                for c in range(n):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise InputError("multiplication is not associative")

    def _find_inverse(self, a: int) -> int:
        return self.mult[a].index(0)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """a b a^{-1}."""
        return self.mult[self.mult[a][b]][self.inverse[a]]

    def commutator(self, a: int, b: int) -> int:
        return self.mult[self.mult[a][b]][self.mult[self.inverse[a]][self.inverse[b]]]

    def is_abelian(self, subset: Optional[Sequence[int]] = None) -> bool:
        elems = range(self.order) if subset is None else subset
        return all(self.mult[a][b] == self.mult[b][a] for a in elems for b in elems)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set that starts with ``generator_ids``: they alone
        when their closure is the whole group, else followed by the least
        element not yet reached, as often as needed (each one at least
        doubles the closure, so at most log2 |G| are added)."""
        gens = list(self.generator_ids)
        reached = set(self.subgroup_closure(gens))
        while len(reached) < self.order:
            gens.append(next(a for a in range(self.order) if a not in reached))
            reached = set(self.subgroup_closure(gens))
        return tuple(gens)

    def _conjugates(self, a: int) -> list[int]:
        """s a s^-1 for each of the generators s."""
        m, inv = self.mult, self.inverse
        return [m[m[s][a]][inv[s]] for s in self.generators]

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        # conjugation by the generators generates conjugation by G
        return tuple(tuple(sorted(cls)) for cls in orbits(range(self.order), self._conjugates))

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """The conjugacy classes, each sorted, in order of least element."""
        return list(self._classes)

    def conjugators(self, a: int) -> dict[int, int]:
        """x -> g with g a g^-1 = x, for every x in the class of a: one
        breadth-first walk from a that conjugates by the generators, each g
        the product of the generators along the walk."""
        m, inv = self.mult, self.inverse
        moved = {a: 0}
        frontier = [a]
        for x in frontier:  # grows as the walk reaches new conjugates
            for s in self.generators:
                y = m[m[s][x]][inv[s]]
                if y not in moved:
                    moved[y] = m[s][moved[x]]
                    frontier.append(y)
        return moved

    def conjugacy_class_of(self, a: int) -> tuple[int, ...]:
        return tuple(sorted(self.conjugators(a)))

    def centralizer(self, a: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.mult[x][a] == self.mult[a][x])

    def center(self) -> tuple[int, ...]:
        """The elements whose conjugacy class is themselves alone, in order."""
        return tuple(cls[0] for cls in self._classes if len(cls) == 1)

    def has_abelian_centralizers(self) -> bool:
        """Whether the centralizer of every non-central element is abelian.

        C(g a g^-1) = g C(a) g^-1, so centralizers of conjugates are
        conjugate and one element per non-central class (a class of size
        greater than one) decides."""
        return all(
            self.is_abelian(self.centralizer(cls[0])) for cls in self._classes if len(cls) > 1
        )

    def subgroup_closure(self, gens: Sequence[int]) -> tuple[int, ...]:
        # right multiplication by g permutes the group, so no inverse step is needed
        (closure,) = orbits([0], lambda x: [self.mult[x][g] for g in gens])
        return tuple(sorted(closure))

    def commutator_subgroup(self) -> tuple[int, ...]:
        """The normal closure of the commutators of pairs of generators: the
        quotient by it is generated by commuting images, so it is abelian.

        The walk from the identity multiplies on the right by those
        commutators and conjugates by the generators.  What it reaches is
        closed under conjugation by G, so with x it reaches
        x g c g^-1 = g (g^-1 x g c) g^-1 for every g and commutator c."""
        gens = self.generators
        comms = sorted({self.commutator(s, t) for s in gens for t in gens})
        (closure,) = orbits([0], lambda x: [self.mult[x][c] for c in comms] + self._conjugates(x))
        return tuple(sorted(closure))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "mult": [list(r) for r in self.mult],
            "names": list(self.names),
            "generators": list(self.generator_ids),
        }

    def __repr__(self) -> str:
        return f"FinGroup(order={self.order})"


# -- enveloping groups ----------------------------------------------------------


class EnvelopingGroup:
    """Finite enveloping quotient of a quandle with the generator images."""

    __slots__ = ("group", "images", "decomposable_extension")

    def __init__(self, group: FinGroup, images: tuple[int, ...], decomposable_extension: bool):
        self.group = group
        self.images = images  # images[i-1] = id of the image of x_i
        # one power relator per orbit beyond the first
        self.decomposable_extension = decomposable_extension


def finite_enveloping_group(q: Quandle, max_cosets: int = DEFAULT_MAX_COSETS) -> EnvelopingGroup:
    """Quotient of the enveloping group by the per-orbit power relators
    x_r^{ord(phi_r)}, computed by coset enumeration.

    For indecomposable quandles this is the finite enveloping group; for
    decomposable ones a relator is added per inner orbit (flagged as an
    extension of the usual definition).
    """
    pres = enveloping_presentation(q)
    orbits = inner_orbits(q)
    power_relators: list[Word] = []
    for orb in orbits:
        r = orb[0]
        power_relators.append(tuple([r] * q.row_order(r)))
    full = Presentation(pres.generators, pres.relators + tuple(power_relators))
    table = todd_coxeter(full, max_cosets)
    group, images = _group_from_regular_table(table, full)
    return EnvelopingGroup(
        group=group,
        images=tuple(images[k] for k in range(len(full.generators))),
        decomposable_extension=len(orbits) > 1,
    )


# Bound on the names catalog_envelope keeps (one quandle has several spellings).
_CATALOG_ENVELOPES = 32


def catalog_envelope(name: str) -> tuple[EnvelopingGroup, tuple[tuple[int, ...], ...]]:
    """The finite enveloping group of the catalog quandle ``name`` and its
    conjugacy classes, built on first use and kept per name.

    Callers share the returned objects and must not change them."""
    if not isinstance(name, str):
        raise InputError(f"catalog name must be a string, got {name!r}")
    return _catalog_envelope(name)


@lru_cache(maxsize=_CATALOG_ENVELOPES)
def _catalog_envelope(name: str):
    env = finite_enveloping_group(catalog(name))
    return env, tuple(env.group.conjugacy_classes())


def _group_from_regular_table(
    table: list[list[int]], pres: Presentation
) -> tuple[FinGroup, list[int]]:
    """The group whose regular action is the trivial-subgroup coset table T.

    Element b is the coset reached from 0 by its shortest column word, and
    mult[a][b] traces that word from a.  The check is complete: column 2k + 1
    inverts column 2k; every generator column s has T[mult[a][b]][s] ==
    mult[a][T[b][s]], so the right actions b -> mult[.][b] are closed under
    the generators and form a group acting regularly, with table mult; and
    every relator traced from coset 0 returns to 0.  So mult is a Latin
    square with identity 0, which ``FinGroup`` need not check again."""
    n = len(table)
    ngens = len(pres.generators)
    if any(len(row) != 2 * ngens or any(not 0 <= v < n for v in row) for row in table):
        raise InvariantViolationError("malformed coset table")
    by_col = [tuple(row[s] for row in table) for s in range(2 * ngens)]
    identity = tuple(range(n))
    for k in range(ngens):
        if _gather(by_col[2 * k + 1], by_col[2 * k]) != identity:
            raise InvariantViolationError(f"coset table columns {2 * k}, {2 * k + 1} are not inverse")
    # BFS from the identity: the shortest column word of each element, and its
    # column of mult, one table column applied to its parent's
    word: list[Optional[tuple[int, ...]]] = [None] * n
    column: list[tuple[int, ...]] = [identity] * n
    word[0] = ()
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for s, col in enumerate(by_col):
            b = col[a]
            if word[b] is None:
                word[b] = word[a] + (s,)
                column[b] = _gather(col, column[a])
                queue.append(b)
    if None in word:
        raise InvariantViolationError("coset table is not connected")
    for col in by_col[::2]:
        for b in range(n):
            if column[col[b]] != _gather(col, column[b]):
                raise InvariantViolationError("coset table is not the regular action of a group")
    for rel in pres.relators:
        x = 0
        for s in _columns(rel):
            x = table[x][s]
        if x != 0:
            raise InvariantViolationError(f"relator {rel} does not close on the coset table")
    names = [_render_word(w, pres.generators) for w in word]
    images = [table[0][2 * k] for k in range(ngens)]
    return FinGroup(list(zip(*column)), names, generator_ids=images, check=False), images


def _gather(seq: Sequence[int], idx: Sequence[int]) -> tuple[int, ...]:
    """tuple(seq[i] for i in idx), through one C-level itemgetter call."""
    if len(idx) == 1:
        return (seq[idx[0]],)
    return itemgetter(*idx)(seq)


def _render_word(word: tuple[int, ...], gen_names: Sequence[str]) -> str:
    if not word:
        return "e"
    parts = []
    for col in word:
        base = gen_names[col // 2]
        parts.append(base if col % 2 == 0 else f"{base}^-1")
    return "*".join(parts)


# -- SL(2,3) -----------------------------------------------------------------------


@lru_cache(maxsize=1)
def sl23() -> FinGroup:
    """The 24-element group of determinant-1 2x2 matrices over F_3, element
    0 the identity and the rest in lexicographic order of (a, b, c, d), each
    named "[ab;cd]"."""
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        mats.append((a, b, c, d))
    mats.sort()
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats.insert(0, ident)
    index = {m: i for i, m in enumerate(mats)}

    def mmul(x, y):
        a, b, c, d = x
        e, f_, g, h = y
        return (
            (a * e + b * g) % 3,
            (a * f_ + b * h) % 3,
            (c * e + d * g) % 3,
            (c * f_ + d * h) % 3,
        )

    mult = [[index[mmul(x, y)] for y in mats] for x in mats]
    names = [f"[{a}{b};{c}{d}]" for a, b, c, d in mats]
    return FinGroup(mult, names, check=True)

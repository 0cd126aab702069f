"""Enveloping groups of quandles and the ambient group machinery.

Contains a small Todd-Coxeter coset enumerator (HLT strategy with coincidence
handling and a coset cap), finite-group structure analysis on multiplication
tables, exact normal-form arithmetic for the infinite groups carrying the
classification (the one-relator-family groups on generators epsilon/h/g, and
the graded product of SL(2,3) used for the four-element quandle), plus
isoclinism witnesses at small order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .errors import InputError, InvariantViolationError, ResourceCapError
from .quandle import Quandle, catalog, embeddings, inner_orbits

Word = tuple[int, ...]  # signed 1-based generator indices

#: Coset budget of an enumeration whose caller names none (``ResourceCapError`` beyond).
DEFAULT_MAX_COSETS = 100_000


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names and relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        ng = len(self.generators)
        for w in self.relators:
            if any(v == 0 or abs(v) > ng for v in w):
                raise InputError(f"relator index out of range: {w}")

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

    @staticmethod
    def _inv(col: int) -> int:
        return col ^ 1

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
        self.table[beta][self._inv(col)] = alpha

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
                self.table[delta][self._inv(col)] = None
                mu, nu = self._rep(gamma), self._rep(delta)
                ex = self.table[mu][col]
                if ex is not None:
                    self._merge(nu, ex, queue)
                else:
                    ex2 = self.table[nu][self._inv(col)]
                    if ex2 is not None:
                        self._merge(mu, ex2, queue)
                    else:
                        self.table[mu][col] = nu
                        self.table[nu][self._inv(col)] = mu

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
                nxt = self.table[b][self._inv(word[j])]
                if nxt is None:
                    break
                b, j = nxt, j - 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                self.table[f][word[i]] = b
                self.table[b][self._inv(word[i])] = f
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
        if check:
            self._validate()
        self.inverse = tuple(self._find_inverse(a) for a in range(self.order))

    def _validate(self) -> None:
        if self.order > MAX_CHECKED_ORDER:
            raise ResourceCapError(
                f"group order {self.order} exceeds the checked-table cap {MAX_CHECKED_ORDER}"
            )
        self._validate_rows()
        self.validate_associativity()

    def _validate_rows(self) -> None:
        """Shape, identity and permutation-row checks of the table."""
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

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mult[x][a]
            k += 1
        return k

    def is_abelian(self, subset: Optional[Sequence[int]] = None) -> bool:
        elems = range(self.order) if subset is None else subset
        return all(self.mult[a][b] == self.mult[b][a] for a in elems for b in elems)

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        classes = []
        for a in range(self.order):
            if a not in seen:
                cls = self.conjugacy_class_of(a)
                seen.update(cls)
                classes.append(cls)
        return classes

    def conjugacy_class_of(self, a: int) -> tuple[int, ...]:
        return tuple(sorted({self.conj(t, a) for t in range(self.order)}))

    def centralizer(self, a: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.order) if self.mult[x][a] == self.mult[a][x])

    def center(self) -> tuple[int, ...]:
        return tuple(
            x
            for x in range(self.order)
            if all(self.mult[x][y] == self.mult[y][x] for y in range(self.order))
        )

    def has_abelian_centralizers(self) -> bool:
        """Whether the centralizer of every non-central element is abelian.

        C(g a g^-1) = g C(a) g^-1, so centralizers of conjugates are
        conjugate and one element per non-central class (a class of size
        greater than one) decides."""
        return all(
            self.is_abelian(self.centralizer(cls[0]))
            for cls in self.conjugacy_classes()
            if len(cls) > 1
        )

    def subgroup_closure(self, gens: Sequence[int]) -> tuple[int, ...]:
        out = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mult[x][g], self.mult[x][self.inverse[g]]):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return tuple(sorted(out))

    def commutator_subgroup(self) -> tuple[int, ...]:
        comms = {self.commutator(a, b) for a in range(self.order) for b in range(self.order)}
        return self.subgroup_closure(sorted(comms))

    def subgroup(self, elems: Sequence[int]) -> tuple["FinGroup", dict[int, int]]:
        """The subgroup on the given closed element set, with the id relabeling."""
        elems = sorted(set(elems))
        if 0 not in elems:
            raise InputError("subgroup must contain the identity")
        pos = {x: k for k, x in enumerate(elems)}
        try:
            mult = [[pos[self.mult[a][b]] for b in elems] for a in elems]
        except KeyError:
            raise InputError("element set is not closed under multiplication")
        sub = FinGroup(mult, [self.names[x] for x in elems], check=False)
        return sub, pos

    def quotient(self, normal: Sequence[int]) -> tuple["FinGroup", tuple[int, ...]]:
        """G / N for a normal subgroup N; returns the quotient and the projection."""
        nset = frozenset(normal)
        if 0 not in nset:
            raise InputError("normal subgroup must contain identity")
        for t in range(self.order):
            if any(self.conj(t, x) not in nset for x in nset):
                raise InputError("subgroup is not normal")
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for a in range(self.order):
            if a in coset_of:
                continue
            rep_id = len(reps)
            for x in nset:
                coset_of[self.mult[a][x]] = rep_id
            reps.append(a)
        k = len(reps)
        mult = [[coset_of[self.mult[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
        proj = tuple(coset_of[a] for a in range(self.order))
        quo = FinGroup(mult, [self.names[r] for r in reps], check=False)
        return quo, proj

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "mult": [list(r) for r in self.mult],
            "names": list(self.names),
            "generators": list(self.generator_ids),
        }

    def __repr__(self) -> str:
        return f"FinGroup(order={self.order})"


def iter_isomorphisms(
    g: FinGroup, h: FinGroup, partial: Optional[dict[int, int]] = None
) -> Iterator[tuple[int, ...]]:
    """Yield isomorphisms g -> h (as image tuples), honoring a partial map.

    One ``quandle.embeddings`` search on the multiplication table of g,
    shifted to 1-based labels: each element's candidates are the elements of
    h of the same order, or its one prescribed image."""
    if g.order != h.order:
        return
    by_order: dict[int, list[int]] = {}
    for x in range(h.order):
        by_order.setdefault(h.element_order(x), []).append(x)
    partial = partial or {}
    candidates = [
        [partial[a]] if a in partial else by_order.get(g.element_order(a), [])
        for a in range(g.order)
    ]
    table = [[c + 1 for c in row] for row in g.mult]
    yield from embeddings(table, h.mul, candidates)


# -- enveloping groups ----------------------------------------------------------


@dataclass(frozen=True)
class EnvelopingGroup:
    """Finite enveloping quotient of a quandle with the generator images."""

    group: FinGroup
    images: tuple[int, ...]  # images[i-1] = id of the image of x_i
    decomposable_extension: bool  # one power relator per orbit beyond the first


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
    every relator traced from coset 0 returns to 0."""
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
    group = FinGroup(list(zip(*column)), names, generator_ids=images, check=False)
    group._validate_rows()
    return group, images


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


def induced_hom(
    q: Quandle,
    f: dict[int, object],
    mul: Callable,
    inv: Callable,
) -> Optional[Callable]:
    """Word evaluator for the group map induced by f when f respects conjugation.

    Checks f(x>y) = f(x) f(y) f(x)^{-1} for all pairs; on success returns an
    evaluator sending a signed quandle word to a product in the target."""
    for i in q.elements():
        for j in q.elements():
            lhs = f[q.op(i, j)]
            rhs = mul(mul(f[i], f[j]), inv(f[i]))
            if lhs != rhs:
                return None

    def evaluate(word: Sequence[int], identity):
        out = identity
        for v in word:
            out = mul(out, f[v] if v > 0 else inv(f[-v]))
        return out

    return evaluate


# -- the groups Gamma_n ----------------------------------------------------------


@dataclass(frozen=True)
class GammaElem:
    """Normal form epsilon^i h^j g^k in the modulus-n group (0 <= i < n)."""

    n: int
    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("modulus must be >= 2")
        if not 0 <= self.i < self.n:
            object.__setattr__(self, "i", self.i % self.n)

    def __str__(self) -> str:
        parts = []
        if self.i:
            parts.append("eps" if self.i == 1 else f"eps^{self.i}")
        if self.j:
            parts.append("h" if self.j == 1 else f"h^{self.j}")
        if self.k:
            parts.append("g" if self.k == 1 else f"g^{self.k}")
        return "*".join(parts) if parts else "1"


def gamma_identity(n: int) -> GammaElem:
    return GammaElem(n, 0, 0, 0)


def gamma_eps(n: int, power: int = 1) -> GammaElem:
    return GammaElem(n, power % n, 0, 0)


def gamma_h(n: int, power: int = 1) -> GammaElem:
    return GammaElem(n, 0, power, 0)


def gamma_g(n: int, power: int = 1) -> GammaElem:
    return GammaElem(n, 0, 0, power)


def gamma_mul(a: GammaElem, b: GammaElem) -> GammaElem:
    """Normal-form product using g eps = eps^{-1} g and g h = eps^{-1} h g."""
    if a.n != b.n:
        raise InputError(f"modulus mismatch: {a.n} vs {b.n}")
    n = a.n
    sign = -1 if a.k % 2 else 1
    i = (a.i + sign * b.i - (b.j if a.k % 2 else 0)) % n
    return GammaElem(n, i, a.j + b.j, a.k + b.k)


def gamma_inv(a: GammaElem) -> GammaElem:
    sign = -1 if a.k % 2 else 1
    i = (-sign * (a.i + (a.j if a.k % 2 else 0))) % a.n
    out = GammaElem(a.n, i, -a.j, -a.k)
    if gamma_mul(a, out) != gamma_identity(a.n):
        raise InvariantViolationError("inverse formula broken")
    return out


def gamma_conj(t: GammaElem, x: GammaElem) -> GammaElem:
    return gamma_mul(gamma_mul(t, x), gamma_inv(t))


def gamma_generators(n: int) -> list[GammaElem]:
    return [gamma_eps(n), gamma_h(n), gamma_g(n)]


def gamma_conj_class(x: GammaElem) -> frozenset[GammaElem]:
    """Closure of {x} under conjugation by generators and their inverses.

    Classes lie in x<eps>, so the closure is finite; 2n + 4 closure rounds
    are the cap, as a safety net."""
    bound = 2 * x.n + 4
    gens = gamma_generators(x.n)
    gens += [gamma_inv(t) for t in gens]
    out = {x}
    frontier = [x]
    rounds = 0
    while frontier and rounds < bound:
        rounds += 1
        new = []
        for y in frontier:
            for t in gens:
                z = gamma_conj(t, y)
                if z not in out:
                    out.add(z)
                    new.append(z)
        frontier = new
    if frontier:
        raise ResourceCapError(f"class closure did not stabilize within {bound} rounds")
    return frozenset(out)


def gamma_centralizer_check(x: GammaElem, gens: Sequence[GammaElem]) -> bool:
    return all(gamma_mul(t, x) == gamma_mul(x, t) for t in gens)


def gamma_centralizer_generators(n: int, which: str) -> list[GammaElem]:
    """The listed abelian centralizer generating sets for the class types
    'g', 'hg' and 'h^j' (j encoded by the caller multiplying by h powers)."""
    eps_inv_h2 = gamma_mul(gamma_eps(n, -1), gamma_h(n, 2))
    if which == "g":
        return [eps_inv_h2, gamma_g(n), gamma_h(n, n)]
    if which == "hg":
        return [eps_inv_h2, gamma_mul(gamma_h(n), gamma_g(n)), gamma_h(n, n)]
    if which == "h":
        return [gamma_eps(n), gamma_h(n), gamma_g(n, 2)]
    raise InputError(f"unknown centralizer family {which!r}")


def gamma_center_generators(n: int) -> list[GammaElem]:
    return [gamma_mul(gamma_eps(n, -1), gamma_h(n, 2)), gamma_h(n, n), gamma_g(n, 2)]


def gamma_commutator_closure(n: int) -> frozenset[GammaElem]:
    """Subgroup closure of all generator commutators (with inverses), closed
    under conjugation by generators; equals <eps>.  Capped at 64 rounds."""
    gens = gamma_generators(n)
    gens += [gamma_inv(t) for t in gens]
    comms = {
        gamma_mul(gamma_mul(a, b), gamma_mul(gamma_inv(a), gamma_inv(b)))
        for a in gens
        for b in gens
    }
    out = {gamma_identity(n)} | comms
    changed = True
    rounds = 0
    while changed:
        rounds += 1
        if rounds > 64:
            raise ResourceCapError("commutator closure did not stabilize")
        changed = False
        for a in list(out):
            for b in list(out):
                c = gamma_mul(a, b)
                if c not in out:
                    out.add(c)
                    changed = True
            for t in gens:
                c = gamma_conj(t, a)
                if c not in out:
                    out.add(c)
                    changed = True
    return frozenset(out)


# -- SL(2,3) and the graded product group ----------------------------------------


@lru_cache(maxsize=1)
def sl23() -> tuple[FinGroup, tuple[int, ...], tuple[int, ...]]:
    """The 24-element group of determinant-1 2x2 matrices over F_3.

    Returns (group, grading, quandle_images) where grading[a] in {0,1,2} is
    the Z/3 degree (kernel = the eight elements of order dividing 4) and
    quandle_images are images of the four-element tetrahedral quandle's
    generators inside an order-3 conjugacy class.
    """
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
    group = FinGroup(mult, names, check=True)

    # Z/3 grading: degree-0 part is the unique order-8 subgroup
    deg0 = {a for a in range(24) if group.element_order(a) in (1, 2, 4)}
    order3 = [a for a in range(24) if group.element_order(a) == 3]
    cls = group.conjugacy_class_of(min(order3))
    images = _embed_tetrahedral(group, cls)
    rep = images[0]
    deg1 = {group.mul(x, rep) for x in deg0}
    grading = tuple(0 if a in deg0 else 1 if a in deg1 else 2 for a in range(24))
    for a in range(24):
        for b in range(24):
            if (grading[a] + grading[b]) % 3 != grading[group.mul(a, b)]:
                raise InvariantViolationError("grading is not multiplicative")
    return group, grading, images


def _embed_tetrahedral(group: FinGroup, cls: Sequence[int]) -> tuple[int, ...]:
    """First lexicographic conjugation-preserving bijection from the
    tetrahedral quandle onto the given 4-element class."""
    q = catalog("(123)^A4")
    f = next(embeddings(q.table, group.conj, [sorted(cls)] * q.n), None)
    if f is None:
        raise InvariantViolationError("tetrahedral quandle does not embed in the class")
    return f


@dataclass(frozen=True)
class TElem:
    """Element of the graded product group: a central power, a total degree,
    and an image in SL(2,3) lying in the matching graded component.

    The (degree, image) pair represents the quandle's enveloping factor
    faithfully: two elements with equal degree and image differ by a power of
    the central degree-3 element, which the degree pins down."""

    z_exp: int
    deg: int
    image: int

    def __post_init__(self):
        _, grading, _ = sl23()
        if grading[self.image] != self.deg % 3:
            raise InputError(
                f"image {self.image} lies in graded component {grading[self.image]}, "
                f"not degree {self.deg} mod 3"
            )


def t_identity() -> TElem:
    return TElem(0, 0, 0)


def t_z(power: int = 1) -> TElem:
    return TElem(power, 0, 0)


def t_gen(i: int) -> TElem:
    """The i-th quandle generator (1-based, i in 1..4)."""
    _, _, images = sl23()
    if not 1 <= i <= 4:
        raise InputError("generator index must be in 1..4")
    return TElem(0, 1, images[i - 1])


def t_mul(a: TElem, b: TElem) -> TElem:
    group, _, _ = sl23()
    return TElem(a.z_exp + b.z_exp, a.deg + b.deg, group.mul(a.image, b.image))


def t_inv(a: TElem) -> TElem:
    group, _, _ = sl23()
    return TElem(-a.z_exp, -a.deg, group.inv(a.image))


# -- isoclinism -------------------------------------------------------------------


def isoclinism_witness(
    g: FinGroup, h: FinGroup, bound: int = 64
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Brute-force search for a compatible pair of isomorphisms
    (G/Z(G) -> H/Z(H), [G,G] -> [H,H]); None when no pair exists."""
    if g.order > bound or h.order > bound:
        raise ResourceCapError(f"isoclinism search bounded at order {bound}")
    qg, projg = g.quotient(g.center())
    qh, projh = h.quotient(h.center())
    dg, posg = g.subgroup(g.commutator_subgroup())
    dh, posh = h.subgroup(h.commutator_subgroup())
    if qg.order != qh.order or dg.order != dh.order:
        return None
    # coset representatives: first preimage
    repg = [projg.index(c) for c in range(qg.order)]
    reph = [projh.index(c) for c in range(qh.order)]
    for zeta in iter_isomorphisms(qg, qh):
        constraint: dict[int, int] = {}
        ok = True
        for a in range(qg.order):
            for b in range(qg.order):
                cg = posg[g.commutator(repg[a], repg[b])]
                ch = posh[h.commutator(reph[zeta[a]], reph[zeta[b]])]
                if constraint.setdefault(cg, ch) != ch:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        eta = next(iter_isomorphisms(dg, dh, partial=constraint), None)
        if eta is not None:
            return zeta, eta
    return None

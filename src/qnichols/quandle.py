"""Finite quandles: axioms, orbits, isomorphism, catalogs and exhaustive generation.

A quandle on {1..n} is stored as an n x n table with ``table[i-1][j-1] = i > j``
(row i is the one-line form of the left translation phi_i).  All elements are
1-indexed integers; tables are row-major tuples of tuples.

One breadth-first routine, ``orbits``, closes a point set under maps that
permute it: inner orbits, the W-translation orbits and translation cycles of
``supportcalc`` and the subgroup closures of ``envgroup`` all call it.

One search, ``embeddings``, finds every map f with f(a > b) = op(f(a), f(b))
on a 1-based operation table: quandle isomorphisms and automorphisms, and
maps into a group under conjugation, all call it.  Isomorphism classes of
labeled quandles are keyed by ``canonical_table``.
"""

from __future__ import annotations

import json
from bisect import insort
from math import lcm
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import InputError, ResourceCapError

#: The largest quandle built from outside input: a quandle file or the catalog
#: name ``trivial(n)``.  The axiom check is cubic in the size; at the cap the
#: ``quandle`` command takes about 0.4 s, at twice the cap about 1.6 s.
MAX_QUANDLE_SIZE = 128


def _check_size(n: int) -> None:
    if n > MAX_QUANDLE_SIZE:
        raise ResourceCapError(f"quandle size {n} exceeds cap {MAX_QUANDLE_SIZE}")


def cycles_to_row(cycles: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """Convert a product of disjoint cycles to a one-line permutation of {1..n}."""
    row = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
            row[a - 1] = b
    return tuple(row)


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse digit-only cycle notation like ``"(24)(56)"``, or ``"id"``, into a
    one-line map."""
    if text == "id":
        return tuple(range(1, n + 1))
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"bad cycle notation: {text!r}")
    return cycles_to_row([[int(c) for c in part] for part in text[1:-1].split(")(")], n)


class Quandle:
    """A finite quandle given by its operation table (checked unless ``check=False``)."""

    __slots__ = ("n", "table")

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        if self.n < 1:
            raise InputError("quandle size must be positive")
        if check and not is_quandle(self.table):
            raise InputError("table does not satisfy the quandle axioms")

    def op(self, i: int, j: int) -> int:
        """i > j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"element out of range: ({i}, {j}) in quandle of size {self.n}")
        return self.table[i - 1][j - 1]

    def op_right(self, j: int, i: int) -> int:
        """j < i, the unique k with i > k = j."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"element out of range: ({j}, {i}) in quandle of size {self.n}")
        return self.table[i - 1].index(j) + 1

    def row(self, i: int) -> tuple[int, ...]:
        return self.table[i - 1]

    def row_order(self, i: int) -> int:
        """Order of the translation phi_i as a permutation."""
        return lcm(*perm_cycle_type(self.table[i - 1]))

    def elements(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Quandle({list(map(list, self.table))})"

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Quandle":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty quandle file")
        try:
            n = int(lines[0])
            _check_size(n)
            rows = [[int(v) for v in ln.split()] for ln in lines[1:]]
        except ValueError as exc:
            raise InputError(f"malformed quandle file: {exc}") from exc
        # a row past the n-th is as malformed as a missing one
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("quandle file does not contain an n x n table")
        return cls(rows)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Quandle":
        try:
            table = data["table"]
            _check_size(len(table))
            size = data.get("size", len(table))
            if type(size) is not int or size != len(table):
                raise InputError(f"quandle size {size!r} is not the table's {len(table)} rows")
            # JSON true/false would pass the axioms as 1/0
            if any(type(v) is not int for row in table for v in row):
                raise InputError("quandle table entries must be integers")
            return cls(table)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed quandle JSON: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "Quandle":
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return cls.from_json_dict(json.loads(text))
        return cls.from_text(text)


class QuandleIso:
    """A witnessing isomorphism: map[i-1] is the image of element i."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: Quandle, target: Quandle, map: tuple[int, ...]):
        q, r, f = source, target, map
        if q.n != r.n:
            raise InputError(f"source and target sizes differ: {q.n} and {r.n}")
        if len(f) != q.n or set(f) != set(r.elements()):
            raise InputError("map is not a permutation of the target's elements")
        for i in q.elements():
            for j in q.elements():
                if f[q.op(i, j) - 1] != r.op(f[i - 1], f[j - 1]):
                    raise InputError("map is not a quandle isomorphism")
        self.source = source
        self.target = target
        self.map = map


def perm_cycle_type(row: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted([length for _, length in perm_cycles(row)]))


def perm_cycles(row: Sequence[int]) -> list[tuple[int, int]]:
    """(first point, length) of each cycle of the permutation p -> row[p - 1]
    of 1..n, in order of first point."""
    # census inner loop: on the 5,040 rows of S_7 this takes 9 ms, ``orbits`` 25 ms
    n = len(row)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = row[j] - 1
                length += 1
            cycles.append((i + 1, length))
    return cycles


# -- axioms ------------------------------------------------------------------


def is_quandle(table: Sequence[Sequence[int]]) -> bool:
    """Check bijective rows, idempotence and self-distributivity."""
    n = len(table)
    if any(len(row) != n for row in table):
        return False
    full = set(range(1, n + 1))
    for i in range(n):
        if set(table[i]) != full:
            return False
        if table[i][i] != i + 1:
            return False
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tj = table[j]
            tij = table[ti[j] - 1]
            for k in range(n):
                # i>(j>k) == (i>j)>(i>k)
                if ti[tj[k] - 1] != tij[ti[k] - 1]:
                    return False
    return True


def is_crossed_set(q: Quandle) -> bool:
    """i > j = j must force j > i = i."""
    for i in q.elements():
        for j in q.elements():
            if q.op(i, j) == j and q.op(j, i) != i:
                return False
    return True


# -- orbits ------------------------------------------------------------------


def orbits(points: Iterable[int], step: Callable[[int], Iterable[int]]) -> list[list[int]]:
    """The orbits of ``points``, where ``step(x)`` lists the images of x under
    the maps; each orbit is listed breadth-first from the first point not yet
    reached.

    Every map this package passes permutes a finite set, so forward images
    alone give the orbit of the group the maps generate.  Under a single map
    each orbit is its first point's cycle, in order."""
    seen: set[int] = set()
    out = []
    for p in points:
        if p not in seen:
            seen.add(p)
            orbit = [p]
            for x in orbit:  # the loop reaches the points appended below
                for y in step(x):
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            out.append(orbit)
    return out


def inner_orbits(q: Quandle) -> list[tuple[int, ...]]:
    """Orbit partition of the inner group <phi_i>, sorted by minimal element."""
    columns = list(zip(*q.table))  # columns[j-1]: the images i > j of j
    return [tuple(sorted(o)) for o in orbits(q.elements(), lambda j: columns[j - 1])]


def subquandle(q: Quandle, subset: Iterable[int]) -> tuple[Quandle, list[int]]:
    """Restrict q to a closed subset.  Returns (quandle, labels) with labels[k-1]
    the original element of the new element k.  Only closure needs a check:
    the restricted rows are then bijections, and the axioms hold as in q."""
    labels = sorted(set(subset))
    pos = {v: k + 1 for k, v in enumerate(labels)}
    table = []
    for i in labels:
        row = []
        for j in labels:
            v = q.op(i, j)
            if v not in pos:
                raise InputError(f"subset not closed: {i} > {j} = {v}")
            row.append(pos[v])
        table.append(row)
    return Quandle(table, check=False), labels


def is_commutative_subset(q: Quandle, subset: Iterable[int]) -> bool:
    """True when i > j = j for all i, j in the subset."""
    sub = list(subset)
    return all(q.op(i, j) == j for i in sub for j in sub)


# -- isomorphism -------------------------------------------------------------


def _element_invariant(q: Quandle, orbits: list[tuple[int, ...]]) -> list[tuple]:
    orbit_of = {}
    for orb in orbits:
        for v in orb:
            orbit_of[v] = len(orb)
    inv = []
    for i in q.elements():
        moved = sum(1 for j in q.elements() if q.op(j, i) != i)
        inv.append((perm_cycle_type(q.row(i)), orbit_of[i], moved))
    return inv


def embeddings(
    table: Sequence[Sequence[int]],
    op: Callable[[Hashable, Hashable], Hashable],
    candidates: Sequence[Sequence[Hashable]],
) -> Iterator[tuple]:
    """Yield every injective map f on {1..n} with f(x) in candidates[x-1] and
    f(table[a-1][b-1]) = op(f(a), f(b)), as a tuple whose entry x-1 is f(x).

    ``table`` is a 1-based operation table: a quandle's table gives maps that
    respect a > b (isomorphisms, automorphisms, maps into a group under
    conjugation), and a group's multiplication table shifted by one gives
    injective group homomorphisms.

    The search branches on the unassigned element with the shortest candidate
    list (ties go to the least label) and tries its candidates in list order,
    so the maps come lexicographically in that element order.  Each choice is
    closed under the rule before the next branch: a forced value must be
    unused and must lie in its candidate list.
    """
    n = len(table)
    allowed = [set(c) for c in candidates]
    order = sorted(range(1, n + 1), key=lambda x: (len(candidates[x - 1]), x))
    image: list = [None] * (n + 1)
    used: set = set()

    def assign(x: int, y: Hashable, trail: list[int]) -> bool:
        queue = [(x, y)]
        while queue:
            a, fa = queue.pop()
            if image[a] is not None:
                if image[a] != fa:
                    return False
                continue
            if fa in used or fa not in allowed[a - 1]:
                return False
            image[a] = fa
            used.add(fa)
            trail.append(a)
            for b in range(1, n + 1):
                fb = image[b]
                if fb is not None:
                    queue.append((table[a - 1][b - 1], op(fa, fb)))
                    queue.append((table[b - 1][a - 1], op(fb, fa)))
        return True

    def extend() -> Iterator[tuple]:
        x = next((a for a in order if image[a] is None), 0)
        if x == 0:
            yield tuple(image[1:])
            return
        for y in candidates[x - 1]:
            trail: list[int] = []
            if assign(x, y, trail):
                yield from extend()
            for a in trail:
                used.discard(image[a])
                image[a] = None

    yield from extend()


def isomorphic(q1: Quandle, q2: Quandle) -> Optional[QuandleIso]:
    """The first isomorphism q1 -> q2 that ``embeddings`` finds, or None.

    Prunes on orbit-size multiset and per-element invariants (cycle type of
    phi_i, orbit size, number of translations moving the element).
    """
    if q1.n != q2.n:
        return None
    orb1, orb2 = inner_orbits(q1), inner_orbits(q2)
    if sorted(map(len, orb1)) != sorted(map(len, orb2)):
        return None
    inv1, inv2 = _element_invariant(q1, orb1), _element_invariant(q2, orb2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates = [
        [j for j in q2.elements() if inv2[j - 1] == inv1[i - 1]] for i in q1.elements()
    ]
    f = next(embeddings(q1.table, q2.op, candidates), None)
    return None if f is None else QuandleIso(q1, q2, f)


# -- catalogs ----------------------------------------------------------------

_CATALOG_CYCLES = {
    "(12)^S3": ["(23)", "(13)", "(12)"],
    "(123)^A4": ["(243)", "(134)", "(142)", "(123)"],
    "Aff(5,2)": ["(2354)", "(1534)", "(1452)", "(1325)", "(1243)"],
    "Aff(5,3)": ["(2453)", "(1435)", "(1254)", "(1523)", "(1342)"],
    "Aff(5,4)": ["(25)(34)", "(13)(45)", "(15)(24)", "(12)(35)", "(14)(23)"],
    "(12)^S4": ["(23)(56)", "(13)(45)", "(12)(46)", "(25)(36)", "(16)(24)", "(15)(34)"],
    "(1234)^S4": ["(2436)", "(1654)", "(1456)", "(1253)", "(2634)", "(1352)"],
    "Z_T^{4,1}": ["(243)", "(134)", "(142)", "(123)", "id"],
    "Z_2^{2,2}": ["(24)", "(13)", "(24)", "(13)"],
    "Z_3^{3,1}": ["(23)", "(13)", "(12)", "id"],
    "Z_3^{3,2}": ["(23)(45)", "(13)(45)", "(12)(45)", "(123)", "(132)"],
    "Z_4^{4,2}": ["(24)(56)", "(13)(56)", "(24)(56)", "(13)(56)", "(1234)", "(1432)"],
}

#: The five decomposable quandles on two orbits central to the classification.
Z_QUANDLE_NAMES = ("Z_T^{4,1}", "Z_2^{2,2}", "Z_3^{3,1}", "Z_3^{3,2}", "Z_4^{4,2}")


def _normalize_name(name: str) -> str:
    return name.replace("{", "").replace("}", "").replace(" ", "")


_NORMALIZED = {_normalize_name(k): k for k in _CATALOG_CYCLES}


def catalog_names() -> list[str]:
    return ["trivial(n)"] + sorted(_CATALOG_CYCLES)


def catalog(name: str) -> Quandle:
    """Return a catalog quandle by name; trivial quandles as ``trivial(n)``."""
    if not isinstance(name, str):
        raise InputError(f"catalog name must be a string, got {name!r}")
    norm = _normalize_name(name)
    if norm.startswith("trivial(") and norm.endswith(")"):
        try:
            n = int(norm[len("trivial(") : -1])
        except ValueError:
            raise InputError(f"bad trivial quandle size in {name!r}")
        if n < 1:
            raise InputError("trivial quandle size must be positive")
        _check_size(n)
        return Quandle([[j + 1 for j in range(n)] for _ in range(n)], check=False)
    key = _NORMALIZED.get(norm)
    if key is None:
        raise InputError(f"unknown catalog quandle {name!r}; known: {catalog_names()}")
    cycles = _CATALOG_CYCLES[key]
    n = len(cycles)
    return Quandle([parse_cycles(c, n) for c in cycles], check=False)  # constant tables


def match_catalog(q: Quandle) -> Optional[str]:
    """Name of the catalog quandle isomorphic to q (including trivial(n)), or None."""
    if is_commutative_subset(q, q.elements()):
        return f"trivial({q.n})"
    for name, cycles in _CATALOG_CYCLES.items():
        if len(cycles) == q.n and isomorphic(q, catalog(name)) is not None:
            return name
    return None


# -- exhaustive generation ----------------------------------------------------


def _perms_fixing(n: int, fixed: int) -> list[tuple[int, ...]]:
    from itertools import permutations

    rest = [v for v in range(1, n + 1) if v != fixed]
    out = []
    for p in permutations(rest):
        row = list(p)
        row.insert(fixed - 1, fixed)
        out.append(tuple(row))
    return out


def _row_search(candidates: Sequence[Sequence[tuple[int, ...]]]) -> Iterator[tuple]:
    """Yield every self-distributive table whose rows come from the
    candidate lists, in lexicographic order of the lists.

    Each candidate row must be a permutation fixing its own index.  Rows are
    assigned depth-first, always the least unassigned index next;
    self-distributivity is enforced by propagating the conjugation constraint
    phi_{i>j} = phi_i phi_j phi_i^{-1} whenever both sides become determined,
    which prunes most of the tree.  A forced row bypasses its list: it is
    kept whether or not the list holds it.
    """
    n = len(candidates)
    rows: list[Optional[tuple[int, ...]]] = [None] * (n + 1)
    inverses: list[Optional[list[int]]] = [None] * (n + 1)

    def set_row(k: int, row: tuple[int, ...]) -> None:
        rows[k] = row
        inv = [0] * n
        for idx, v in enumerate(row):
            inv[v - 1] = idx + 1
        inverses[k] = inv

    def conj(a: int, b: int) -> tuple[int, ...]:
        # phi_a phi_b phi_a^{-1} as a one-line map
        ra, rb, inv = rows[a], rows[b], inverses[a]
        return tuple(ra[rb[inv[j] - 1] - 1] for j in range(n))

    def propagate(assigned: list[int]) -> Optional[list[int]]:
        """Close the partial assignment; returns newly forced row indices or None on clash."""
        added: list[int] = []
        queue = list(assigned)
        while queue:
            i = queue.pop()
            for j in range(1, n + 1):
                if rows[j] is None:
                    continue
                for a, b in ((i, j), (j, i)):
                    k = rows[a][b - 1]
                    want = conj(a, b)
                    if rows[k] == want:
                        continue
                    if rows[k] is not None:
                        for idx in added:
                            rows[idx] = None
                        return None
                    set_row(k, want)
                    added.append(k)
                    queue.append(k)
        return added

    def first_unassigned() -> int:
        for i in range(1, n + 1):
            if rows[i] is None:
                return i
        return 0

    def search() -> Iterator[tuple]:
        i = first_unassigned()
        if i == 0:
            yield tuple(rows[1:])
            return
        for cand in candidates[i - 1]:
            set_row(i, cand)
            added = propagate([i])
            if added is not None:
                yield from search()
                for idx in added:
                    rows[idx] = None
            rows[i] = None

    yield from search()


def fixed_point_types(n: int) -> list[tuple[int, ...]]:
    """The cycle types of the permutations of {1..n} with a fixed point, sorted:
    the types a translation of a quandle of size n can have."""
    return sorted({perm_cycle_type(p) for p in _perms_fixing(n, 1)})


def enumerate_quandles(n: int, cycle_type: Sequence[int]) -> Iterator[Quandle]:
    """Yield, in lexicographic order of tables, every labeled quandle on {1..n}
    whose translations all have the given cycle type and whose row 1 is the
    least permutation of that type fixing 1.

    Every quandle with a transitive automorphism group is isomorphic to one of
    these: phi_{f(x)} = f phi_x f^-1 for an automorphism f, so every
    translation has the type of phi_1, and a relabeling fixing 1 conjugates
    phi_1 to any permutation of that type fixing 1."""
    if n < 1:
        raise InputError("size must be positive")
    lengths = tuple(sorted(cycle_type))
    candidates = [
        [p for p in _perms_fixing(n, i) if perm_cycle_type(p) == lengths]
        for i in range(1, n + 1)
    ]
    candidates[0] = candidates[0][:1]
    for rows in _row_search(candidates):
        yield Quandle(rows, check=False)


def automorphisms(q: Quandle) -> list[tuple[int, ...]]:
    """Every automorphism of q as a one-line map, in lexicographic order."""
    return list(embeddings(q.table, q.op, [q.elements()] * q.n))


def _cycles_in_label_order(lengths: Sequence[int]) -> tuple[int, ...]:
    """The 0-indexed permutation with cycles (s, s+1, ..., s+l-1) on
    consecutive labels, one per length in the given order."""
    row: list[int] = []
    for length in lengths:
        start = len(row)
        row += [start + (k + 1) % length for k in range(length)]
    return tuple(row)


def canonical_table(q: Quandle) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least table among all relabelings of q.

    Two quandles are isomorphic exactly when their canonical tables agree.
    Row 1 of a relabeled table is the translation of the element labeled 1,
    so the least row 1 lays that translation's cycles on consecutive labels,
    shortest first, and only elements whose cycle type gives the least such
    row can take label 1.  What is left to choose is which cycle fills each
    block of labels and where it starts.  Rows 2..n are scanned in order: a
    value whose cycle has no labels yet takes the least label it can get (its
    cycle fills the first free block of its length), and the search branches
    only where a row or a column needs a label no earlier entry fixed.  A
    branch stops as soon as its prefix exceeds the least table found so far.
    """
    n = q.n
    t = [[v - 1 for v in row] for row in q.table]
    types = [perm_cycle_type(row) for row in q.table]
    first_rows = {ls: _cycles_in_label_order(ls) for ls in types}
    lengths = min(first_rows, key=first_rows.__getitem__)
    first = first_rows[lengths]
    block_start: list[int] = []
    block_len: list[int] = []
    for length in lengths:
        block_start += [len(block_start)] * length
        block_len += [length] * length
    cur = list(first) + [0] * (n * n - n)
    best: Optional[list[int]] = None

    for u1 in range(n):
        if types[u1] != lengths:
            continue
        phi = t[u1]
        # census inner loop: an index loop, not ``orbits`` (see ``perm_cycles``)
        cyclen = [0] * n
        for v in range(n):
            w, cyclen[v] = phi[v], 1
            while w != v:
                w, cyclen[v] = phi[w], cyclen[v] + 1
        label = [-1] * n  # label of each element
        at = [-1] * n  # element carrying each label
        free: dict[int, list[int]] = {}
        for s in sorted(set(block_start)):
            free.setdefault(block_len[s], []).append(s)

        def place(v: int, start: int) -> None:
            free[block_len[start]].remove(start)
            for k in range(start, start + block_len[start]):
                label[v], at[k] = k, v
                v = phi[v]

        def unplace(start: int) -> None:
            for k in range(start, start + block_len[start]):
                label[at[k]] = at[k] = -1
            insort(free[block_len[start]], start)

        def scan(p: int, smaller: bool) -> None:
            nonlocal best
            placed: list[int] = []
            while p < n * n:
                i, j = divmod(p, n)
                need = i if at[i] < 0 else j if at[j] < 0 else -1
                if need >= 0:
                    # once a sibling sets best, its prefix ties with cur[:p]
                    entry_best = best
                    start = block_start[need]
                    for w in range(n):
                        if label[w] < 0 and cyclen[w] == block_len[start]:
                            place(w, start)
                            scan(p, smaller and best is entry_best)
                            unplace(start)
                    break
                v = t[at[i]][at[j]]
                if label[v] < 0:
                    start = free[cyclen[v]][0]
                    place(v, start)
                    placed.append(start)
                if not smaller and best is not None:
                    if label[v] > best[p]:
                        break
                    smaller = label[v] < best[p]
                cur[p] = label[v]
                p += 1
            else:
                best = cur[:]
            for start in reversed(placed):
                unplace(start)

        place(u1, 0)
        scan(n, False)

    return tuple(tuple(v + 1 for v in best[r * n : (r + 1) * n]) for r in range(n))


def glued_quandles(a: Quandle, b: Quandle) -> Iterator[Quandle]:
    """Every quandle on {1..|a|+|b|} restricting to a on {1..|a|} and to b on
    the rest (shifted by |a|), with both blocks invariant under every
    translation.

    Such a translation is a translation of its own block plus an automorphism
    of the other block, so these rows are the candidate lists of the row
    search.
    """
    na = a.n
    aut_a = automorphisms(a)
    aut_b = [tuple(v + na for v in g) for g in automorphisms(b)]
    candidates = [[a.row(x) + g for g in aut_b] for x in a.elements()]
    candidates += [[g + tuple(v + na for v in b.row(y)) for g in aut_a] for y in b.elements()]
    for rows in _row_search(candidates):
        yield Quandle(rows, check=False)


def cycle_pair(k: int, l: int) -> Quandle:
    """trivial(k) on {1..k} beside trivial(l) on {k+1..k+l}, where every
    element of each block acts on the other block by one full cycle (add 1
    to its labels, cyclically).

    For 2 <= k <= l this is the one isomorphism class of crossed-set quandles
    whose two inner orbits, of sizes k and l, are both trivial quandles:
    - Both blocks A and B are invariant.  So each a in A acts as the identity
      on A and by some g_a on B, and each b in B by some h_b on A and as the
      identity on B.
    - Self-distributivity at (a, b) says phi(a > b) = phi(a) phi(b) phi(a)^-1.
      Its A-part gives h(g_a(b)) = h(b), so h is constant on the orbits of
      the g_a in B; likewise g is constant on the orbits of the h_b in A.
    - Two inner orbits means the h_b act transitively on A and the g_a on B.
      So every b acts by one h and every a by one g, and one permutation that
      generates a transitive group is a full cycle.
    - Conversely this table is a quandle (the two cycles commute) and a
      crossed set (a full cycle of a block of size >= 2 moves every element),
      with inner orbits {1..k} and {k+1..k+l}.  Relabeling a block conjugates
      its cycle to any other full cycle.
    """
    n = k + l
    a_row = tuple(range(1, k + 1)) + tuple(k + 1 + (j + 1) % l for j in range(l))
    b_row = tuple(1 + (i + 1) % k for i in range(k)) + tuple(range(k + 1, n + 1))
    return Quandle([a_row] * k + [b_row] * l, check=False)


def iso_class_representatives(quandles: Sequence[Quandle]) -> list[Quandle]:
    """Group labeled quandles into isomorphism classes by canonical table;
    first-seen representatives, in the order first seen.  A sequence, not a
    generator: ``bench/layers.py`` wraps this call and takes ``len`` of it."""
    reps: dict[tuple, Quandle] = {}
    for q in quandles:
        reps.setdefault(canonical_table(q), q)
    return list(reps.values())

"""Scalar-free degree calculus on two-orbit quandle contexts.

The machinery tracks which degree tuples must survive in the iterated adjoint
images regardless of the scalar data: a tuple certified here has multiplicity
one in the expansion of the recursion operator, so no choice of base field or
character can cancel it.  Chains of certificates prove non-vanishing of high
adjoint powers; the classification search rejects every two-orbit quandle for
which such a chain (or a failed necessary condition) contradicts the required
vanishing, and matches the survivors against the catalog.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .errors import InputError, ResourceCapError
from .quandle import (
    Quandle,
    Z_QUANDLE_NAMES,
    canonical_table,
    cycle_pair,
    embeddings,
    enumerate_quandles,
    fixed_point_types,
    glued_quandles,
    inner_orbits,
    is_commutative_subset,
    is_crossed_set,
    iso_class_representatives,
    # unused here; bench/layers.py patches supportcalc.isomorphic by name
    isomorphic,
    match_catalog,
    orbits,
    perm_cycles,
    subquandle,
)

if TYPE_CHECKING:  # imported where used, so that the census runs without envgroup
    from .envgroup import FinGroup

DegreeTuple = tuple[int, ...]  # (r_1, ..., r_m, s): V-slots then one W-slot


class TwoOrbitContext:
    """A quandle with designated acting orbit (V role) and target orbit (W role)."""

    def __init__(self, quandle: Quandle, orbit_v: tuple[int, ...], orbit_w: tuple[int, ...]):
        if sorted((*orbit_v, *orbit_w)) != list(quandle.elements()):
            raise InputError("roles must hold every element of the quandle exactly once")
        if not (orbit_v and orbit_w):
            raise InputError("roles must be nonempty")
        v = set(orbit_v)
        if not all(v.issuperset(orb) or v.isdisjoint(orb) for orb in inner_orbits(quandle)):
            raise InputError("roles must be unions of inner orbits")
        self.quandle = quandle
        self.orbit_v = orbit_v
        self.orbit_w = orbit_w

    @cached_property
    def commuting(self) -> bool:
        q = self.quandle
        return all(
            q.op(x, y) == y and q.op(y, x) == x
            for x in self.orbit_v
            for y in self.orbit_w
        )

    def swap(self) -> "TwoOrbitContext":
        return TwoOrbitContext(self.quandle, self.orbit_w, self.orbit_v)

    def conj_inv_word(self, word: Sequence[int], x: int) -> int:
        """(w_1 w_2 ... w_k)^{-1} > x, leftmost inverse acting first."""
        for w in word:
            x = self.quandle.op_right(x, w)
        return x


def degrees_certificate(
    ctx: TwoOrbitContext, p: int, i: int, known: DegreeTuple
) -> Optional[DegreeTuple]:
    """One certified extension step of the multiplicity-one argument.

    known = (p_1, ..., p_m, p_{m+1}) is a tuple already certified in the m-th
    support; p is the new acting element and i the insertion position.  When
    the fixing/exclusion hypotheses hold, the returned tuple of length m+2 is
    certified in the (m+1)-st support; otherwise None.
    """
    q = ctx.quandle
    m1 = len(known)
    m = m1 - 1
    if not 1 <= i <= m1:
        raise InputError(f"position {i} out of range for tuple of length {m1}")
    if p not in set(ctx.orbit_v):
        raise InputError("acting element must lie in the V-role orbit")
    # moving hypothesis at slot i, fixing hypothesis beyond it
    if q.op(known[i - 1], p) == p:
        return None
    if any(q.op(known[j - 1], p) != p for j in range(i + 1, m1 + 1)):
        return None
    # exclusion set
    if p in known[:m]:
        return None
    for j in range(1, i):
        if p == ctx.conj_inv_word(known[j:], known[j - 1]):
            return None
    return tuple(q.op(p, known[k]) for k in range(i - 1)) + (p,) + known[i - 1 :]


def certified_tuples(
    ctx: TwoOrbitContext, m: int, start: Optional[set[DegreeTuple]] = None
) -> set[DegreeTuple]:
    """All tuples certified in the m-th support by iterating the extension step.

    ``start`` is a nonempty set of tuples of one length k + 1 <= m + 1,
    certified in the k-th support.  It defaults to level zero: every
    single-element tuple over the W-role orbit (those supports are nonzero by
    definition).  Each level prepends an acting element at every admissible
    position."""
    level: set[DegreeTuple] = {(s,) for s in ctx.orbit_w} if start is None else set(start)
    lengths = {len(t) for t in level}
    if len(lengths) != 1 or not 1 <= min(lengths) <= m + 1:
        raise InputError("start must be a nonempty set of tuples of one length at most m + 1")
    for _ in range(m + 1 - min(lengths)):
        nxt: set[DegreeTuple] = set()
        for known in level:
            for p in ctx.orbit_v:
                for i in range(1, len(known) + 1):
                    t = degrees_certificate(ctx, p, i, known)
                    if t is not None:
                        nxt.add(t)
        level = nxt
        if not level:
            break
    return level


def find_adv2_certificate(ctx: TwoOrbitContext) -> Optional[DegreeTuple]:
    """A certified level-two tuple, proving the second adjoint power nonzero
    for every scalar realization (unconditional bases)."""
    level2 = certified_tuples(ctx, 2)
    return min(level2) if level2 else None


def find_adw4_certificate_nc(ctx: TwoOrbitContext) -> Optional[DegreeTuple]:
    """A certified level-four tuple for the swapped roles (W acting on V),
    from unconditional bases; proves the fourth adjoint power of the W side
    nonzero for every scalar realization."""
    level4 = certified_tuples(ctx.swap(), 4)
    return min(level4) if level4 else None


def comm_adw4_rejects(ctx: TwoOrbitContext) -> Optional[dict]:
    """Commuting branch: certified chains to level four from EVERY level-one
    base (r4, s).  The first adjoint power of the W side is nonzero somewhere
    but the base is unknown, so all bases must extend; returns the least base
    with the least tuple of its chain, or None when some base has no chain."""
    if not ctx.commuting:
        raise InputError("only meaningful for commuting supports")
    swapped = ctx.swap()
    witness = None
    for base in sorted(itertools.product(swapped.orbit_v, swapped.orbit_w)):
        found = certified_tuples(swapped, 4, start={base})
        if not found:
            return None
        witness = witness or {"base": list(base), "tuple": list(min(found))}
    return witness


def _swapped_halves(q: Quandle, role: Sequence[int], other: Sequence[int]) -> Optional[bool]:
    """None when the role is an indecomposable subquandle; otherwise whether it
    splits into exactly two inner-orbit parts that every element of the other
    role swaps."""
    sub, labels = subquandle(q, role)
    orbs = inner_orbits(sub)
    if len(orbs) == 1:
        return None
    if len(orbs) != 2:
        return False
    parts = [{labels[k - 1] for k in orb} for orb in orbs]
    return all(
        {q.op(x, y) for y in parts[0]} == parts[1] and {q.op(x, y) for y in parts[1]} == parts[0]
        for x in other
    )


def size_bound_check(ctx: TwoOrbitContext, m: int) -> Optional[bool]:
    """Whether |orbit_v| exceeds the size bound (2m-1 commuting, 2m otherwise)
    that vanishing of the (m+1)-st adjoint power forces.

    Returns None when the applicability hypothesis fails: the V orbit must be
    an indecomposable subquandle, or split into exactly two inner orbits that
    every W element swaps."""
    if m < 1:
        raise InputError("m must be >= 1")
    if _swapped_halves(ctx.quandle, ctx.orbit_v, ctx.orbit_w) is False:
        return None
    return len(ctx.orbit_v) > _size_bound(ctx, m)


def _size_bound(ctx: TwoOrbitContext, m: int) -> int:
    """size_bound_check's bound: 2m - 1 on commuting contexts, 2m otherwise."""
    return 2 * m - 1 if ctx.commuting else 2 * m


def _w_translation_orbit(ctx: TwoOrbitContext, g: int) -> set[int]:
    """The orbit of g under the group the translations by the W orbit generate."""
    rows = [ctx.quandle.row(y) for y in ctx.orbit_w]
    (orbit,) = orbits([g], lambda x: [row[x - 1] for row in rows])
    return set(orbit)


def _swaps_one_pair(ctx: TwoOrbitContext, s: int) -> bool:
    """Whether the translation by s moves exactly two V elements, swapping them."""
    q = ctx.quandle
    moved = [r for r in ctx.orbit_v if q.op(s, r) != r]
    return len(moved) == 2 and q.op(s, moved[0]) == moved[1] and q.op(s, moved[1]) == moved[0]


#: The six necessary conclusions that vanishing of the second adjoint power
#: forces on a non-commuting context, in the paper's order, each as a predicate.
NC_ITEMS: dict[str, Callable[[TwoOrbitContext], bool]] = {
    "orbit_v_commutative": lambda ctx: is_commutative_subset(ctx.quandle, ctx.orbit_v),
    "orbits_distinct": lambda ctx: set(ctx.orbit_v) != set(ctx.orbit_w),
    # V is a union of orbits of the W translations, so one orbit decides
    "orbit_v_generated_by_w_translations": lambda ctx: (
        _w_translation_orbit(ctx, ctx.orbit_v[0]) == set(ctx.orbit_v)
    ),
    "w_translations_restrict_to_transpositions": lambda ctx: all(
        _swaps_one_pair(ctx, s) for s in ctx.orbit_w
    ),
    "squares_fix_across": lambda ctx: all(
        ctx.quandle.op(h, ctx.quandle.op(h, g)) == g for h in ctx.orbit_w for g in ctx.orbit_v
    ),
    # along the cycle of h under g, the V elements moving each point are g and h > g
    "movers_are_exactly_the_pair": lambda ctx: all(
        {x for x in ctx.orbit_v if ctx.quandle.op(x, y) != y} == {g, ctx.quandle.op(h, g)}
        for g in ctx.orbit_v
        for h in ctx.orbit_w
        for y in orbits([h], lambda z: [ctx.quandle.op(g, z)])[0]
    ),
}


def nc_w_orbit_decomposition_ok(ctx: TwoOrbitContext) -> Optional[bool]:
    """Non-commuting branch: when the W orbit is decomposable as a subquandle,
    vanishing of the second adjoint power forces exactly two inner-orbit parts
    swapped by every V element.  None when the W orbit is indecomposable."""
    return _swapped_halves(ctx.quandle, ctx.orbit_w, ctx.orbit_v)


def nc_necessary_conditions(ctx: TwoOrbitContext) -> dict[str, str]:
    """Evaluate the six necessary conclusions forced on non-commuting
    two-orbit contexts by vanishing of the second adjoint power: the paper's
    six items, of which ``RULES`` checks four (see the note there).

    Returns {item: 'pass' | 'fail'}; for commuting contexts returns
    {'inapplicable': ...}.  The group-identity half of the fifth item is not
    quandle-visible and is checked in its quandle form only."""
    if ctx.commuting:
        return {"inapplicable": "supports commute"}
    return {item: "pass" if holds(ctx) else "fail" for item, holds in NC_ITEMS.items()}


# -- classification search -----------------------------------------------------

#: The largest quandle size the two-orbit census and ``classify`` search.
MAX_CENSUS_SIZE = 8


def homogeneous_pieces(k: int) -> list[Quandle]:
    """One quandle per isomorphism class of crossed sets of size k with a
    transitive automorphism group: the crossed sets among
    ``enumerate_quandles(k, lengths)`` for every cycle type with a fixed point,
    reduced by canonical table."""
    crossed = [
        q
        for lengths in fixed_point_types(k)
        for q in enumerate_quandles(k, lengths)
        if is_crossed_set(q)
    ]
    return [q for q in iso_class_representatives(crossed) if _automorphisms_transitive(q)]


def _automorphisms_transitive(q: Quandle) -> bool:
    """Whether some automorphism of q sends 1 to x, for every element x: one
    ``embeddings`` search per x, not a list of Aut(q), which has k! elements
    for ``trivial(k)``."""
    rest = [q.elements()] * (q.n - 1)
    return all(
        next(embeddings(q.table, q.op, [[x], *rest]), None) is not None for x in q.elements()
    )


def census_splits(n_max: int) -> dict[int, list[tuple[Quandle, Quandle]]]:
    """The block pairs (A, B) that ``two_orbit_candidates`` glues, keyed by
    size n = |A| + |B| for n = 2..n_max, |A| <= |B|.

    An inner orbit is a crossed-set subquandle on which Inn(X) acts
    transitively by automorphisms, so it is one of the ``homogeneous_pieces``.
    When |A| = 1 the crossed-set law forces the point to act trivially on B,
    so B is a piece with one inner orbit.  Otherwise both pieces have size
    <= n - 2, except that two trivial pieces are left out: ``cycle_pair`` is
    their one class.  Each size's pieces are built once per call.
    """
    if n_max > MAX_CENSUS_SIZE:
        raise ResourceCapError(f"census bounded at size {MAX_CENSUS_SIZE}")
    pieces_of = cache(homogeneous_pieces)

    def trivial(q: Quandle) -> bool:
        return is_commutative_subset(q, q.elements())

    (point,) = pieces_of(1)
    out: dict[int, list[tuple[Quandle, Quandle]]] = {}
    for n in range(2, n_max + 1):
        splits = [(point, b) for b in pieces_of(n - 1) if len(inner_orbits(b)) == 1]
        for k in range(2, n // 2 + 1):
            small, large = pieces_of(k), pieces_of(n - k)
            for i, a in enumerate(small):
                splits += [
                    (a, b)
                    for b in (large[i:] if k == n - k else large)
                    if not (trivial(a) and trivial(b))
                ]
        out[n] = splits
    return out


def two_orbit_candidates(n_max: int) -> list[Quandle]:
    """Isomorphism-class representatives of crossed-set quandles of size
    <= n_max with exactly two inner orbits, sorted by size and then by table;
    each representative is its class's canonical (least) table.

    Each candidate X = A u B is glued from its two inner orbits A and B, one
    pair per entry of ``census_splits``, and the set of canonical tables keeps
    every class once.  When A and B are both trivial, of sizes k and n - k,
    the class is ``cycle_pair(k, n - k)`` and is written down, not glued.
    """
    out: list[Quandle] = []
    for n, splits in census_splits(n_max).items():
        tables = {
            canonical_table(q)
            for a, b in splits
            for q in glued_quandles(a, b)
            if len(inner_orbits(q)) == 2 and is_crossed_set(q)
        }
        tables.update(canonical_table(cycle_pair(k, n - k)) for k in range(2, n // 2 + 1))
        out.extend(Quandle(t, check=False) for t in sorted(tables))
    return out


class Candidate:
    __slots__ = ("quandle", "ctx", "branch")

    def __init__(self, quandle: Quandle, ctx: TwoOrbitContext, branch: str):
        self.quandle = quandle
        self.ctx = ctx
        self.branch = branch  # "comm" | "nc"


Rule = Callable[[TwoOrbitContext], Optional[object]]


def _size_rule(role: str, m: int) -> Rule:
    """The size bound at level m on the V orbit (role "v") or, through the
    swapped roles, on the W orbit (role "w")."""

    def check(ctx: TwoOrbitContext) -> Optional[dict]:
        acting = ctx if role == "v" else ctx.swap()
        if not size_bound_check(acting, m):
            return None
        return {f"orbit_{role}_size": len(acting.orbit_v), "bound": _size_bound(acting, m)}

    return check


def _fails(ok: Callable[[TwoOrbitContext], Optional[bool]], witness: Rule) -> Rule:
    """A rule that rejects where ``ok`` returns False (None: it does not apply)."""
    return lambda ctx: witness(ctx) if ok(ctx) is False else None


def _w_parts(ctx: TwoOrbitContext) -> dict:
    sub, labels = subquandle(ctx.quandle, ctx.orbit_w)
    return {"orbit_w_parts": [sorted(labels[k - 1] for k in o) for o in inner_orbits(sub)]}


#: Each branch's rejection battery in the paper's order, as (rule id, check):
#: check(ctx) is the rule's witness when the rule rejects ctx, else None.
#: Four checks of the non-commuting branch never reject here, so they are left out:
#: (a) orbits_distinct: a TwoOrbitContext's roles are disjoint and nonempty.
#: (b) squares_fix_across: w_translations_restrict_to_transpositions runs first, and
#:     once each h in W swaps one pair of V and fixes the rest, h > (h > g) = g.
#: (c) the adV2 certificate: past orbit_v_commutative and the transposition item,
#:     certified level one is {(p1, s) : s moves p1}.  Inserting p at slot 1 needs
#:     p1 to move p, which a commutative V forbids; at slot 2 it needs s to move p
#:     with p not in {p1, s^-1 > p1}, but s moves only p1 and s > p1 = s^-1 > p1,
#:     since s swaps them.
#: (d) the W size bound at m = 3, |W| > 6: at y = h the movers item says that the V
#:     elements moving h are exactly {g, h > g}, for every g in V; so every g in V
#:     moves every h in W, and |V| <= 2.  adW4 works on the swapped roles: insert p
#:     in W at the last slot of a certified (..., r) with m + 1 entries, r in V.  The
#:     moving hypothesis r > p != p holds, no fixing hypothesis applies, and the
#:     exclusions rule out at most 2m values of p: the m earlier entries and the m
#:     values conj_inv_word(known[j:], known[j-1]).  So |W| >= 7 > 2m for every
#:     m <= 3 makes level four nonempty, and nc-adW4-certificate rejects first.
RULES: dict[str, tuple[tuple[str, Rule], ...]] = {
    "comm": (
        ("comm-size-suppV-m1", _size_rule("v", 1)),
        ("comm-size-suppW-m3", _size_rule("w", 3)),
        ("comm-adW4-certificate", comm_adw4_rejects),
    ),
    "nc": (
        *(
            (f"nc-battery:{item}", _fails(holds, nc_necessary_conditions))
            for item, holds in NC_ITEMS.items()
            if item not in ("orbits_distinct", "squares_fix_across")  # (a), (b)
        ),
        ("nc-decomposable-Oh-structure", _fails(nc_w_orbit_decomposition_ok, _w_parts)),
        # no commutative-W rule: past the rules above a commutative W has |W| <= 2 and
        # |V| <= |W| + 1, and the census has no such context but Z_2^{2,2}'s role splits
        # no adV2 certificate rule: (c)
        (
            "nc-adW4-certificate",
            lambda ctx: None if (t := find_adw4_certificate_nc(ctx)) is None else {"tuple": list(t)},
        ),
        # no V size rule: orbit_v_commutative makes size_bound_check(ctx, 1) None or False
        # no W size rule: (d)
    ),
}


def evaluate_candidate(cand: Candidate) -> tuple[Optional[str], Optional[object]]:
    """Apply the branch's rules in order: (rule id, witness) of the first that
    rejects, else (None, the Z catalog name the quandle matches, or None)."""
    for rule_id, check in RULES[cand.branch]:
        witness = check(cand.ctx)
        if witness is not None:
            return rule_id, witness
    name = match_catalog(cand.quandle)
    return None, name if name in Z_QUANDLE_NAMES else None


def envelope_post_filter(cand: Candidate) -> dict:
    """Group-level elimination for flagged survivors: try to realize the
    quandle inside the finite enveloping quotient of one of the five catalog
    quandles, with both roles landing in single conjugacy classes.

    A genuine support must embed this way by the universal property; a
    flagged extra that embeds nowhere is eliminated.  Every map ``embeddings``
    yields obeys f(a > b) = f(a) f(b) f(a)^-1, so the first one decides.

    Two exact cuts shrink the search without changing a verdict:

    - Root cut: element 1 gets one candidate, the first element of its role's
      class.  If f is an embedding with the given roles, so is g f g^-1 for
      every g in the envelope G (classes are closed under conjugation, and so
      is the law f(a > b) = f(a) f(b) f(a)^-1); G is transitive on each class,
      so some conjugate of f sends 1 there.
    - Cycle-type prune: a pair of classes (C_V, C_W) is searched only if, for
      every x and each role R with class C_R, the cycle lengths of phi_x on R
      are a sub-multiset of those of conjugation by x's class on C_R.  Let
      c_g be conjugation by g.  An embedding f has f phi_x = c_f(x) f, so it
      maps the phi_x-cycle of y onto the c_f(x)-cycle of f(y): c_f(x)^k fixes
      f(y) exactly when phi_x^k fixes y, as f is injective, so the two cycles
      have one length; and f maps distinct cycles onto distinct cycles.  Since
      f(R) lies in C_R, the cycles of phi_x on R go to distinct cycles of
      c_f(x) on C_R.  The cycle type of c_g on a class depends only on the
      class of g: c_(hgh^-1) = c_h c_g c_h^-1, and c_h permutes the class.
      The prune implies the size and order conditions: the lengths of phi_x
      on R sum to |R| and those of c_g on C_R to |C_R|, so |R| <= |C_R|; and
      every cycle length of c_g divides the order of g, so ord(phi_x), the
      lcm of its cycle lengths on V and W, divides ord(f(x)).
    """
    from .envgroup import catalog_envelope

    q = cand.quandle
    orbit_v = cand.ctx.orbit_v
    need = _translation_cycle_types(q, (orbit_v, cand.ctx.orbit_w))
    for name in Z_QUANDLE_NAMES:
        env, classes = catalog_envelope(name)
        group = env.group
        for cls_v, cls_w in _fitting_class_pairs(need, group, classes):
            roles = [cls_v if x in orbit_v else cls_w for x in q.elements()]
            roles[0] = roles[0][:1]
            if next(embeddings(q.table, group.conj, roles), None) is not None:
                return {"eliminated": False, "embeds_in": name}
    return {"eliminated": True, "reason": "no conjugation-equivariant embedding into any catalog envelope"}


def _cycle_type(step: Callable[[int], int], points: Sequence[int]) -> Counter:
    """The number of cycles of each length of the permutation ``step`` on
    ``points``, a set it maps onto itself."""
    return Counter(len(cycle) for cycle in orbits(points, lambda p: [step(p)]))


class _CycleNeed(NamedTuple):
    """What the cycle-type prune asks of a class pair, for roles (V, W)."""

    sizes: tuple[int, int]  # |V|, |W|
    # maxima[r][s][k]: the most k-cycles of phi_x on roles[s], over x in roles[r]
    maxima: list[list[dict[int, int]]]


def _translation_cycle_types(q: Quandle, roles: tuple[Sequence[int], Sequence[int]]) -> _CycleNeed:
    """The per-length maxima of the cycle types of phi_x on each role.

    Each row is walked once: a cycle of phi_x lies in one role, as the roles
    are unions of inner orbits.  A cycle type is a sub-multiset of a class's
    exactly when it has at most as many k-cycles for each k, so the prune
    needs only the largest count of each length over x."""
    role_of = {y: s for s, role in enumerate(roles) for y in role}
    # plain dicts: Counter increments and unions take over twice as long here
    maxima: list[list[dict[int, int]]] = [[{}, {}], [{}, {}]]
    for r, acting in enumerate(roles):
        for x in acting:
            counts: tuple[dict[int, int], dict[int, int]] = ({}, {})
            for first, length in perm_cycles(q.row(x)):
                on = counts[role_of[first]]
                on[length] = on.get(length, 0) + 1
            for most, on in zip(maxima[r], counts):
                for length, c in on.items():
                    if c > most.get(length, 0):
                        most[length] = c
    return _CycleNeed((len(roles[0]), len(roles[1])), maxima)


@lru_cache(maxsize=len(Z_QUANDLE_NAMES))
def _conjugation_cycle_types(group: FinGroup, classes: tuple[tuple[int, ...], ...]) -> list[list[Counter]]:
    """have[i][j]: the cycle type of conjugation by an element of classes[i]
    on classes[j], for one catalog envelope, kept per returned group."""
    return [
        [_cycle_type(lambda y, g=cls[0]: group.conj(g, y), on) for on in classes]
        for cls in classes
    ]


def _fitting_class_pairs(
    need: _CycleNeed, group: FinGroup, classes: tuple[tuple[int, ...], ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (C_V, C_W) of distinct classes that pass the cycle-type
    prune of ``envelope_post_filter``, in ``itertools.permutations`` order;
    each class is tested against its own role, first by size, before classes
    are paired."""
    have = _conjugation_cycle_types(group, classes)
    (v_on_v, v_on_w), (w_on_v, w_on_w) = need.maxima

    def fits(most: dict[int, int], i: int, j: int) -> bool:
        # a loop, not all(): about 50 calls per post-filter call, twice as fast
        on = have[i][j]
        for k, c in most.items():
            if on[k] < c:
                return False
        return True

    ks = range(len(classes))
    ok_v = [i for i in ks if len(classes[i]) >= need.sizes[0] and fits(v_on_v, i, i)]
    ok_w = [j for j in ks if len(classes[j]) >= need.sizes[1] and fits(w_on_w, j, j)]
    return [
        (classes[i], classes[j])
        for i in ok_v
        for j in ok_w
        if i != j and fits(v_on_w, i, j) and fits(w_on_v, j, i)
    ]


def classify(
    n_max: int = 6,
    branch: str = "both",
    require_noncommuting_pair: bool = True,
) -> dict:
    """Search all two-orbit crossed-set quandles of size <= n_max with both
    role assignments, reject via the certificate and necessary-condition
    batteries, and match survivors against the catalog.

    Extra survivors (not isomorphic to a catalog quandle) are flagged and run
    through the group-level post-filter instead of being silently dropped.
    Past MAX_CENSUS_SIZE, ``census_splits`` raises before any work."""
    if n_max < 1:
        raise InputError("n_max must be positive")
    if branch not in ("both", "comm", "nc"):
        raise InputError("branch must be 'both', 'comm' or 'nc'")
    matched: dict[str, dict] = {}
    flagged: list[dict] = []
    rejections: list[dict] = []
    census = two_orbit_candidates(n_max)
    for q in census:
        abelian = require_noncommuting_pair and is_commutative_subset(q, q.elements())
        orb1, orb2 = inner_orbits(q)
        for ov, ow in ((orb1, orb2), (orb2, orb1)):
            ctx = TwoOrbitContext(q, ov, ow)
            cand = Candidate(q, ctx, "comm" if ctx.commuting else "nc")
            if branch not in ("both", cand.branch):
                continue
            entry = {
                "table": [list(r) for r in q.table],
                "roles": {"orbit_v": list(ov), "orbit_w": list(ow)},
                "branch": cand.branch,
            }
            if not abelian:
                rule_id, found = evaluate_candidate(cand)
            else:
                rule_id = "abelian-proxy"
                found = {"reason": "no non-commuting pair; group would be abelian"}
            if rule_id is not None:
                rejections.append({**entry, "rule_id": rule_id, "witness": found})
            elif found is not None:
                slot = {"matched_catalog_name": found, "realizations": []}
                matched.setdefault(found, slot)["realizations"].append(entry)
            else:
                entry.update(flag="unmatched-survivor", post_filter=envelope_post_filter(cand))
                flagged.append(entry)

    return {
        "n_max": n_max,
        "branch": branch,
        "candidates_examined": 2 * len(census),  # both role splits of each class
        "survivors": [matched[k] for k in sorted(matched)],
        "flagged": flagged,
        "rejections": rejections,
    }

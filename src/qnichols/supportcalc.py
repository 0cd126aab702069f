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
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Callable, Optional, Sequence

from .errors import InputError, ResourceCapError
from .quandle import (
    Quandle,
    Z_QUANDLE_NAMES,
    automorphisms,
    canonical_table,
    catalog,
    connected_quandles,
    embeddings,
    enumerate_quandles,
    glued_quandles,
    inner_orbits,
    is_commutative_subset,
    is_crossed_set,
    iso_class_representatives,
    # unused here; bench/layers.py patches supportcalc.isomorphic by name
    isomorphic,
    match_catalog,
    subquandle,
)

DegreeTuple = tuple[int, ...]  # (r_1, ..., r_m, s): V-slots then one W-slot


@dataclass(frozen=True)
class TwoOrbitContext:
    """A quandle with designated acting orbit (V role) and target orbit (W role)."""

    quandle: Quandle
    orbit_v: tuple[int, ...]
    orbit_w: tuple[int, ...]

    def __post_init__(self):
        q = self.quandle
        if sorted((*self.orbit_v, *self.orbit_w)) != list(q.elements()):
            raise InputError("roles must hold every element of the quandle exactly once")
        if not (self.orbit_v and self.orbit_w):
            raise InputError("roles must be nonempty")
        v = set(self.orbit_v)
        if not all(v.issuperset(orb) or v.isdisjoint(orb) for orb in inner_orbits(q)):
            raise InputError("roles must be unions of inner orbits")

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
    """The orbit of g under the translations by the W orbit and their inverses."""
    q = ctx.quandle
    out, frontier = {g}, [g]
    while frontier:
        x = frontier.pop()
        for y in ctx.orbit_w:
            for z in (q.op(y, x), q.op_right(x, y)):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return out


def _swaps_one_pair(ctx: TwoOrbitContext, s: int) -> bool:
    """Whether the translation by s moves exactly two V elements, swapping them."""
    q = ctx.quandle
    moved = [r for r in ctx.orbit_v if q.op(s, r) != r]
    return len(moved) == 2 and q.op(s, moved[0]) == moved[1] and q.op(s, moved[1]) == moved[0]


def _cycle(q: Quandle, g: int, h: int) -> list[int]:
    """The cycle of h under the translation by g."""
    out = [h]
    while (y := q.op(g, out[-1])) != h:
        out.append(y)
    return out


#: The six necessary conclusions that vanishing of the second adjoint power
#: forces on a non-commuting context, in the paper's order, each as a predicate.
NC_ITEMS: dict[str, Callable[[TwoOrbitContext], bool]] = {
    "orbit_v_commutative": lambda ctx: is_commutative_subset(ctx.quandle, ctx.orbit_v),
    "orbits_distinct": lambda ctx: set(ctx.orbit_v) != set(ctx.orbit_w),
    "orbit_v_generated_by_w_translations": lambda ctx: all(
        _w_translation_orbit(ctx, g) == set(ctx.orbit_v) for g in ctx.orbit_v
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
        for y in _cycle(ctx.quandle, g, h)
    ),
}


def nc_w_orbit_decomposition_ok(ctx: TwoOrbitContext) -> Optional[bool]:
    """Non-commuting branch: when the W orbit is decomposable as a subquandle,
    vanishing of the second adjoint power forces exactly two inner-orbit parts
    swapped by every V element.  None when the W orbit is indecomposable."""
    return _swapped_halves(ctx.quandle, ctx.orbit_w, ctx.orbit_v)


def nc_necessary_conditions(ctx: TwoOrbitContext) -> dict[str, str]:
    """Evaluate the six necessary conclusions forced on non-commuting
    two-orbit contexts by vanishing of the second adjoint power.

    Returns {item: 'pass' | 'fail'}; for commuting contexts returns
    {'inapplicable': ...}.  The group-identity half of the fifth item is not
    quandle-visible and is checked in its quandle form only."""
    if ctx.commuting:
        return {"inapplicable": "supports commute"}
    return {item: "pass" if holds(ctx) else "fail" for item, holds in NC_ITEMS.items()}


# -- classification search -----------------------------------------------------

#: The largest quandle size the two-orbit census and ``classify`` search.
MAX_CENSUS_SIZE = 8


def census_splits(n_max: int) -> dict[int, list[tuple[Quandle, Quandle]]]:
    """The block pairs (A, B) that ``two_orbit_candidates`` glues, keyed by
    size n = |A| + |B| for n = 2..n_max, |A| <= |B|.

    An inner orbit is a crossed-set subquandle on which Inn(X) acts
    transitively by automorphisms, so it is homogeneous.  When |A| = 1 the
    crossed-set law forces the point to act trivially on B, so B is one of
    the connected quandles.  Otherwise both pieces have size <= n - 2 and
    come from the labeled census of that size, one per isomorphism class.
    """
    pieces: dict[int, list[Quandle]] = {}

    def homogeneous_pieces(k: int) -> list[Quandle]:
        if k not in pieces:
            crossed = [q for q in enumerate_quandles(k) if is_crossed_set(q)]
            pieces[k] = [
                q
                for q in iso_class_representatives(crossed)
                if {g[0] for g in automorphisms(q)} == set(q.elements())
            ]
        return pieces[k]

    point = catalog("trivial(1)")
    out: dict[int, list[tuple[Quandle, Quandle]]] = {}
    for n in range(2, n_max + 1):
        splits = [(point, b) for b in connected_quandles(n - 1)]
        for k in range(2, n // 2 + 1):
            small, large = homogeneous_pieces(k), homogeneous_pieces(n - k)
            for i, a in enumerate(small):
                splits += [(a, b) for b in (large[i:] if k == n - k else large)]
        out[n] = splits
    return out


def two_orbit_candidates(n_max: int) -> list[Quandle]:
    """Isomorphism-class representatives of crossed-set quandles of size
    <= n_max with exactly two inner orbits, sorted by size and then by table;
    each representative is its class's canonical (least) table.

    Each candidate X = A u B is glued from its two inner orbits A and B, one
    pair per entry of ``census_splits``.  ``glued_quandles`` does not yield
    every labeled gluing: row 1 takes its B-part from one automorphism per
    conjugacy class of Aut(B), and row |A|+1 its A-part from one per class
    of Aut(A) under conjugation by the stabilizer of 1.  Relabeling B, and
    then A by an automorphism fixing 1, brings any gluing to one of these,
    so every Aut(A) x Aut(B)-orbit of gluings meets the output; the set of
    canonical tables keeps every class once and drops the copies left.
    """
    if n_max > MAX_CENSUS_SIZE:
        raise ResourceCapError(f"census bounded at size {MAX_CENSUS_SIZE}")
    out: list[Quandle] = []
    for splits in census_splits(n_max).values():
        tables = {
            canonical_table(q)
            for a, b in splits
            for q in glued_quandles(a, b)
            if len(inner_orbits(q)) == 2 and is_crossed_set(q)
        }
        out.extend(Quandle(t, check=False) for t in sorted(tables))
    return out


@dataclass(frozen=True)
class Candidate:
    quandle: Quandle
    ctx: TwoOrbitContext
    branch: str  # "comm" | "nc"


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


def _certificate_rule(find: Callable[[TwoOrbitContext], Optional[DegreeTuple]]) -> Rule:
    return lambda ctx: None if (t := find(ctx)) is None else {"tuple": list(t)}


#: Each branch's rejection battery in the paper's order, as (rule id, check):
#: check(ctx) is the rule's witness when the rule rejects ctx, else None.
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
        ),
        ("nc-decomposable-Oh-structure", _fails(nc_w_orbit_decomposition_ok, _w_parts)),
        # no commutative-W rule: past the rules above a commutative W has |W| <= 2 and
        # |V| <= |W| + 1, and the census has no such context but Z_2^{2,2}'s role splits
        ("nc-adV2-certificate", _certificate_rule(find_adv2_certificate)),
        ("nc-adW4-certificate", _certificate_rule(find_adw4_certificate_nc)),
        # no V size rule: orbit_v_commutative makes size_bound_check(ctx, 1) None or False
        ("nc-size-suppW-m3", _size_rule("w", 3)),
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
    - Order prune: a pair of classes is skipped unless, for each role, the
      lcm of the translation orders ord(phi_x) over the role divides the
      element order of its class.  From f(phi_x^k(y)) = f(x)^k f(y) f(x)^-k
      and injectivity of f, ord(phi_x) divides ord(f(x)).
    """
    from .envgroup import catalog_envelope

    q = cand.quandle
    orbit_v, orbit_w = cand.ctx.orbit_v, cand.ctx.orbit_w
    need_v = lcm(*(q.row_order(x) for x in orbit_v))
    need_w = lcm(*(q.row_order(x) for x in orbit_w))
    for name in Z_QUANDLE_NAMES:
        env, classes = catalog_envelope(name)
        group = env.group
        class_orders = [group.element_order(cls[0]) for cls in classes]
        for (cls_v, ord_v), (cls_w, ord_w) in itertools.permutations(zip(classes, class_orders), 2):
            if len(cls_v) < len(orbit_v) or len(cls_w) < len(orbit_w):
                continue
            if ord_v % need_v or ord_w % need_w:
                continue
            roles = [cls_v if x in orbit_v else cls_w for x in q.elements()]
            roles[0] = roles[0][:1]
            if next(embeddings(q.table, group.conj, roles), None) is not None:
                return {"eliminated": False, "embeds_in": name}
    return {"eliminated": True, "reason": "no conjugation-equivariant embedding into any catalog envelope"}


def classify(
    n_max: int = 6,
    branch: str = "both",
    require_noncommuting_pair: bool = True,
) -> dict:
    """Search all two-orbit crossed-set quandles of size <= n_max with both
    role assignments, reject via the certificate and necessary-condition
    batteries, and match survivors against the catalog.

    Extra survivors (not isomorphic to a catalog quandle) are flagged and run
    through the group-level post-filter instead of being silently dropped."""
    if n_max < 1:
        raise InputError("n_max must be positive")
    if n_max > MAX_CENSUS_SIZE:
        raise ResourceCapError(f"classification census bounded at size {MAX_CENSUS_SIZE}")
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

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
from typing import Optional, Sequence

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

    Level zero is every single-element tuple over the W-role orbit (those
    supports are nonzero by definition); each level prepends an acting element
    at every admissible position."""
    level: set[DegreeTuple] = (
        {(s,) for s in ctx.orbit_w} if start is None else set(start)
    )
    for _ in range(m if start is None else m - (len(next(iter(level))) - 1)):
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
    but the base is unknown, so all bases must extend; returns a witness map
    or None when some base admits no chain."""
    if not ctx.commuting:
        raise InputError("only meaningful for commuting supports")
    swapped = ctx.swap()
    witnesses = {}
    for r4 in swapped.orbit_v:
        for s in swapped.orbit_w:
            base = (r4, s)
            found = certified_tuples(swapped, 4, start={base})
            if not found:
                return None
            witnesses[base] = min(found)
    return witnesses


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
    """size_bound_check's bound; it depends only on commuting, which swap keeps."""
    return 2 * m - 1 if ctx.commuting else 2 * m


NC_ITEMS = (
    "orbit_v_commutative",
    "orbits_distinct",
    "orbit_v_generated_by_w_translations",
    "w_translations_restrict_to_transpositions",
    "squares_fix_across",
    "movers_are_exactly_the_pair",
)


def nc_w_orbit_decomposition_ok(ctx: TwoOrbitContext) -> Optional[bool]:
    """Non-commuting branch: when the W orbit is decomposable as a subquandle,
    vanishing of the second adjoint power forces exactly two inner-orbit parts
    swapped by every V element.  None when the W orbit is indecomposable."""
    return _swapped_halves(ctx.quandle, ctx.orbit_w, ctx.orbit_v)


def nc_commutative_w_orbit_ok(ctx: TwoOrbitContext) -> Optional[bool]:
    """Non-commuting branch: a commutative W orbit forces the whole quandle to
    be the dihedral four-element one.  None when the W orbit is not commutative."""
    if not is_commutative_subset(ctx.quandle, ctx.orbit_w):
        return None
    return isomorphic(ctx.quandle, catalog("Z_2^{2,2}")) is not None


def nc_necessary_conditions(ctx: TwoOrbitContext) -> dict[str, str]:
    """Evaluate the six necessary conclusions forced on non-commuting
    two-orbit contexts by vanishing of the second adjoint power.

    Returns {item: 'pass' | 'fail'}; for commuting contexts returns
    {'inapplicable': ...}.  The group-identity half of the fifth item is not
    quandle-visible and is checked in its quandle form only."""
    if ctx.commuting:
        return {"inapplicable": "supports commute"}
    q = ctx.quandle
    ov, ow = ctx.orbit_v, ctx.orbit_w
    report: dict[str, str] = {}

    report[NC_ITEMS[0]] = "pass" if is_commutative_subset(q, ov) else "fail"
    report[NC_ITEMS[1]] = "pass" if set(ov) != set(ow) else "fail"

    # orbit of any g under the translations coming from the W orbit
    def w_orbit_of(g: int) -> set[int]:
        out = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for y in ow:
                for z in (q.op(y, x), q.op_right(x, y)):
                    if z not in out:
                        out.add(z)
                        frontier.append(z)
        return out

    report[NC_ITEMS[2]] = (
        "pass" if all(w_orbit_of(g) == set(ov) for g in ov) else "fail"
    )

    def moved_pair(s: int) -> Optional[tuple[int, int]]:
        moved = [r for r in ov if q.op(s, r) != r]
        if len(moved) != 2:
            return None
        a, b = moved
        if q.op(s, a) == b and q.op(s, b) == a:
            return a, b
        return None

    report[NC_ITEMS[3]] = "pass" if all(moved_pair(s) for s in ow) else "fail"

    report[NC_ITEMS[4]] = (
        "pass"
        if all(q.op(h, q.op(h, g)) == g for h in ow for g in ov)
        else "fail"
    )

    ok6 = True
    for g in ov:
        for h in ow:
            target = {g, q.op(h, g)}
            y = h
            seen = set()
            while y not in seen:
                seen.add(y)
                movers = {x for x in ov if q.op(x, y) != y}
                if movers != target:
                    ok6 = False
                    break
                y = q.op(g, y)
            if not ok6:
                break
        if not ok6:
            break
    report[NC_ITEMS[5]] = "pass" if ok6 else "fail"
    return report


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


@dataclass
class Candidate:
    quandle: Quandle
    ctx: TwoOrbitContext
    branch: str  # "comm" | "nc"
    rule_id: Optional[str] = None
    witness: Optional[object] = None
    matched_catalog_name: Optional[str] = None


def evaluate_candidate(cand: Candidate) -> None:
    """Apply the branch's rejection battery; sets rule/witness or the catalog match."""
    ctx = cand.ctx
    if cand.branch == "comm":
        if size_bound_check(ctx, 1):
            cand.rule_id = "comm-size-suppV-m1"
            cand.witness = {"orbit_v_size": len(ctx.orbit_v), "bound": _size_bound(ctx, 1)}
            return
        if size_bound_check(ctx.swap(), 3):
            cand.rule_id = "comm-size-suppW-m3"
            cand.witness = {"orbit_w_size": len(ctx.orbit_w), "bound": _size_bound(ctx, 3)}
            return
        witness = comm_adw4_rejects(ctx)
        if witness is not None:
            cand.rule_id = "comm-adW4-certificate"
            base = min(witness)
            cand.witness = {"base": list(base), "tuple": list(witness[base])}
            return
    else:
        report = nc_necessary_conditions(ctx)
        failing = [item for item, verdict in report.items() if verdict == "fail"]
        if failing:
            cand.rule_id = f"nc-battery:{failing[0]}"
            cand.witness = report
            return
        if nc_w_orbit_decomposition_ok(ctx) is False:
            cand.rule_id = "nc-decomposable-Oh-structure"
            cand.witness = {
                "orbit_w_parts": [
                    sorted(o) for o in inner_orbits(subquandle(ctx.quandle, ctx.orbit_w)[0])
                ]
            }
            return
        if nc_commutative_w_orbit_ok(ctx) is False:
            cand.rule_id = "nc-commutative-Oh-shape"
            cand.witness = {"orbit_w": list(ctx.orbit_w)}
            return
        cert2 = find_adv2_certificate(ctx)
        if cert2 is not None:
            cand.rule_id = "nc-adV2-certificate"
            cand.witness = {"tuple": list(cert2)}
            return
        cert4 = find_adw4_certificate_nc(ctx)
        if cert4 is not None:
            cand.rule_id = "nc-adW4-certificate"
            cand.witness = {"tuple": list(cert4)}
            return
        if size_bound_check(ctx, 1):
            cand.rule_id = "nc-size-suppV-m1"
            cand.witness = {"orbit_v_size": len(ctx.orbit_v), "bound": _size_bound(ctx, 1)}
            return
        if size_bound_check(ctx.swap(), 3):
            cand.rule_id = "nc-size-suppW-m3"
            cand.witness = {"orbit_w_size": len(ctx.orbit_w), "bound": _size_bound(ctx, 3)}
            return
    name = match_catalog(cand.quandle)
    cand.matched_catalog_name = name if name in Z_QUANDLE_NAMES else None


def envelope_post_filter(cand: Candidate) -> dict:
    """Group-level elimination for flagged survivors: try to realize the
    quandle inside the finite enveloping quotient of one of the five catalog
    quandles, with both roles landing in single conjugacy classes.

    A genuine support must embed this way by the universal property; a
    flagged extra that embeds nowhere is eliminated.

    Two exact cuts shrink the search without changing a verdict:

    - Root cut: element 1 gets one candidate, the first element of its role's
      class.  If f is an embedding with the given roles, so is g f g^-1 for
      every g in the envelope G (classes are closed under conjugation, and
      ``induced_hom``'s check is invariant under it); G is transitive on each
      class, so some conjugate of f sends 1 there.
    - Order prune: a pair of classes is skipped unless, for each role, the
      lcm of the translation orders ord(phi_x) over the role divides the
      element order of its class.  From f(phi_x^k(y)) = f(x)^k f(y) f(x)^-k
      and injectivity of f, ord(phi_x) divides ord(f(x)).
    """
    from .envgroup import catalog_envelope, induced_hom

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
            for f in embeddings(q.table, group.conj, roles):
                if induced_hom(q, dict(zip(q.elements(), f)), group.mul, group.inv) is not None:
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
    candidates: list[Candidate] = []
    examined = 0
    for q in two_orbit_candidates(n_max):
        orb1, orb2 = inner_orbits(q)
        for ov, ow in ((orb1, orb2), (orb2, orb1)):
            examined += 1
            ctx = TwoOrbitContext(q, tuple(ov), tuple(ow))
            cand = Candidate(q, ctx, "comm" if ctx.commuting else "nc")
            if branch != "both" and cand.branch != branch:
                continue
            if require_noncommuting_pair and is_commutative_subset(q, q.elements()):
                cand.rule_id = "abelian-proxy"
                cand.witness = {"reason": "no non-commuting pair; group would be abelian"}
                candidates.append(cand)
                continue
            evaluate_candidate(cand)
            candidates.append(cand)

    matched: dict[str, dict] = {}
    flagged: list[dict] = []
    rejections: list[dict] = []
    for c in candidates:
        entry = {
            "table": [list(r) for r in c.quandle.table],
            "roles": {"orbit_v": list(c.ctx.orbit_v), "orbit_w": list(c.ctx.orbit_w)},
            "branch": c.branch,
        }
        if c.rule_id is not None:
            entry["rule_id"] = c.rule_id
            entry["witness"] = c.witness
            rejections.append(entry)
        elif c.matched_catalog_name:
            slot = matched.setdefault(
                c.matched_catalog_name,
                {"matched_catalog_name": c.matched_catalog_name, "realizations": []},
            )
            slot["realizations"].append(entry)
        else:
            entry["flag"] = "unmatched-survivor"
            entry["post_filter"] = envelope_post_filter(c)
            flagged.append(entry)

    return {
        "n_max": n_max,
        "branch": branch,
        "candidates_examined": examined,
        "survivors": [matched[k] for k in sorted(matched)],
        "flagged": flagged,
        "rejections": rejections,
    }

"""The pinned workloads: their inputs, made from a seed, and the checks that
the program's outputs are correct.

Three workloads run the CLI, one child process per operation; ``envelopes``
calls the library in-process.  The checks use the benchmark's own oracles
(catalog names, Catalan counts, its own SL(2,Z) product, pinned verdicts) so
that a wrong answer from the program cannot pass as right.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

DATA = Path(__file__).resolve().parent / "envelopes_data.json"

# The classification answer of the paper, in the CLI's sorted order.
Z_NAMES = ["Z_2^{2,2}", "Z_3^{3,1}", "Z_3^{3,2}", "Z_4^{4,2}", "Z_T^{4,1}"]


class CliWorkload:
    """One CLI invocation per operation; every operation gets the same argv."""

    name = ""
    seed_note = "the question fixes the input, so the seed does not change it"

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        """Write the program's inputs under ``workdir``; return the CLI argv."""
        raise NotImplementedError

    def check(self, stdout: bytes) -> list[str]:
        """Problems found in one operation's output; empty when correct."""
        raise NotImplementedError


class Classify6(CliWorkload):
    name = "classify6"

    def prepare(self, seed, workdir):
        return ["classify", "--n-max", "6"]

    def check(self, stdout):
        report = json.loads(stdout)
        problems = []
        names = [s["matched_catalog_name"] for s in report["survivors"]]
        if names != Z_NAMES:
            problems.append(f"survivors {names} != {Z_NAMES}")
        if report["candidates_examined"] != 30:
            problems.append(f"candidates_examined {report['candidates_examined']} != 30")
        if report["flagged"]:
            problems.append(f"{len(report['flagged'])} flagged survivors")
        return problems


class AdjointS4(CliWorkload):
    name = "adjoint-s4-m3"
    seed_note = "the seed picks the class representative x1..x6"

    def prepare(self, seed, workdir):
        from qnichols import envgroup, quandle

        env = envgroup.finite_enveloping_group(quandle.catalog("(12)^S4"))
        group = env.group
        rep = env.images[random.Random(seed).randrange(len(env.images))]
        gens: list[int] = []
        for x in group.centralizer(rep):
            if x not in group.subgroup_closure(gens):
                gens.append(x)
        module = {
            "class_rep": group.names[rep],
            "character": {group.names[x]: "-1" for x in gens},
        }
        spec = {"group_ref": "enveloping:(12)^S4", "V": module, "W": module}
        path = workdir / "adjoint-spec.json"
        path.write_text(json.dumps(spec, sort_keys=True))
        return ["adjoint", "--spec", str(path), "--m", "3"]

    def check(self, stdout):
        report = json.loads(stdout)
        problems = []
        if report["dim"] != 34 or report["x_space_dim"] != 34:
            problems.append(f"dim {report['dim']}, x_space_dim {report['x_space_dim']}, expected 34")
        block_sum = sum(b["rank"] for b in report["per_block"])
        if block_sum != report["dim"]:
            problems.append(f"block ranks sum to {block_sum}, dim is {report['dim']}")
        return problems


def is_characteristic(seq) -> bool:
    """The product of [[c, -1], [1, 0]] over seq is -id, and every proper
    prefix product has a nonnegative first column."""
    if not seq or min(seq) < 1:
        return False
    a, b, c, d = 1, 0, 0, 1
    for k, x in enumerate(seq):
        a, b, c, d = a * x + b, -a, c * x + d, -c
        if k < len(seq) - 1 and (a < 0 or c < 0):
            return False
    return (a, b, c, d) == (-1, 0, 0, -1)


class Charseqs12(CliWorkload):
    name = "charseqs12"

    def prepare(self, seed, workdir):
        return ["charseqs", "--max-len", "12", "--emit", "json"]

    def check(self, stdout):
        records = json.loads(stdout)
        problems = []
        by_len = Counter(len(r["seq"]) for r in records)
        want = {k: math.comb(2 * (k - 2), k - 2) // (k - 1) for k in range(3, 13)}
        if dict(by_len) != want:
            problems.append(f"per-length counts {sorted(by_len.items())} != Catalan(k-2)")
        if len({tuple(r["seq"]) for r in records}) != len(records):
            problems.append("duplicate sequences")
        for r in records:
            seq = r["seq"]
            n = len(seq)
            i = r["witness"] - 1
            rotations = sorted(seq[k:] + seq[:k] for k in range(n))
            if not is_characteristic(seq):
                problems.append(f"{seq} is not characteristic")
            elif not (
                0 <= i < n
                and seq[i] == 1
                and (seq[(i + 1) % n] <= 3 or seq[(i - 1) % n] <= 3)
            ):
                problems.append(f"bad witness {r['witness']} for {seq}")
            elif r["rotations"] != rotations:
                problems.append(f"bad rotations for {seq}")
            if len(problems) > 5:
                break
        return problems


def relabel(table, perm):
    """The quandle table after renaming element i to perm[i-1]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i] - 1][perm[j] - 1] = perm[table[i][j] - 1]
    return out


def is_isomorphism(f, source, target) -> bool:
    """f[i-1] is the image of i; checks bijectivity and f(a > b) = f(a) > f(b)."""
    n = len(source)
    if sorted(f) != list(range(1, n + 1)):
        return False
    return all(
        f[source[a][b] - 1] == target[f[a] - 1][f[b] - 1] for a in range(n) for b in range(n)
    )


class Envelopes:
    """In-process library calls on random relabelings of catalog quandles.

    A sweep is the fixed batch: for every named catalog quandle, a relabeled
    copy goes through ``finite_enveloping_group``, the group analysis that the
    envgroup CLI prints, and ``isomorphic`` back to the original; then every
    role split of the 15 two-orbit classes of size <= 6, relabeled, goes
    through ``envelope_post_filter``.
    """

    name = "envelopes"
    seed_note = "the seed draws the relabelings"

    def __init__(self, seed: int):
        from qnichols import quandle

        data = json.loads(DATA.read_text())
        self.rng = random.Random(seed)
        self.catalog = [
            (quandle.catalog(name), order) for name, order in sorted(data["envelope_orders"].items())
        ]
        self.splits = data["splits"]

    def sweep(self) -> list[tuple]:
        """One sweep's operations as (kind, program inputs, expected result)."""
        from qnichols import quandle

        ops = []
        for original, order in self.catalog:
            perm = self._perm(original.n)
            relabeled = quandle.Quandle(relabel(original.table, perm))
            ops.append(("envelope", (relabeled, original), order))
        for split in self.splits:
            perm = self._perm(len(split["table"]))
            q = quandle.Quandle(relabel(split["table"], perm))
            orbit_v, orbit_w = (tuple(sorted(perm[x - 1] for x in split[k])) for k in ("orbit_v", "orbit_w"))
            ops.append(("post_filter", (q, orbit_v, orbit_w), split["verdict"]))
        return ops

    def _perm(self, n: int) -> list[int]:
        perm = list(range(1, n + 1))
        self.rng.shuffle(perm)
        return perm

    @staticmethod
    def run(kind: str, args: tuple) -> tuple[object, str]:
        """One operation: its result and the JSON text the CLI would print."""
        from qnichols import envgroup, quandle, supportcalc

        if kind == "envelope":
            relabeled, original = args
            env = envgroup.finite_enveloping_group(relabeled)
            g = env.group
            out = {
                "order": g.order,
                "classes": sorted(len(c) for c in g.conjugacy_classes()),
                "injective": len(set(env.images)) == relabeled.n,
                "abelian_centralizers": g.has_abelian_centralizers(),
                "center_order": len(g.center()),
                "commutator_order": len(g.commutator_subgroup()),
                "generator_images": list(env.images),
                "decomposable_extension": env.decomposable_extension,
            }
            text = json.dumps(out, sort_keys=True, indent=2)
            return (out, quandle.isomorphic(relabeled, original)), text
        q, orbit_v, orbit_w = args
        ctx = supportcalc.TwoOrbitContext(q, orbit_v, orbit_w)
        verdict = supportcalc.envelope_post_filter(
            supportcalc.Candidate(q, ctx, "comm" if ctx.commuting else "nc")
        )
        return verdict, json.dumps(verdict, sort_keys=True, indent=2)

    @staticmethod
    def check(kind: str, args: tuple, expected, result) -> list[str]:
        if kind == "envelope":
            (out, iso), (relabeled, original) = result, args
            problems = []
            if out["order"] != expected:
                problems.append(f"envelope order {out['order']} != {expected}")
            if iso is None or not is_isomorphism(iso.map, relabeled.table, original.table):
                problems.append(f"no valid isomorphism back to {original.table}")
            return problems
        if result != expected:
            return [f"post-filter verdict {result} != {expected} on the original"]
        return []


CLI_WORKLOADS = {w.name: w for w in (Classify6(), AdjointS4(), Charseqs12())}
SEED_NOTES = {w.name: w.seed_note for w in (*CLI_WORKLOADS.values(), Envelopes)}
NAMES = tuple(SEED_NOTES)

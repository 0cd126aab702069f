"""Command-line surface with reproducible file-based input/output.

Exit codes: 0 ok, 2 input error, 3 resource cap exceeded, 4 invariant
violation (a result contradicting a structural identity; never swallowed).
All JSON output has sorted keys and canonically ordered arrays, so identical
invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import cyclotomic, envgroup, nichols, quandle, supportcalc, weyl, ydmod
from .errors import InputError, InvariantViolationError, ResourceCapError


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_quandle(args) -> quandle.Quandle:
    if getattr(args, "catalog", None):
        return quandle.catalog(args.catalog)
    if getattr(args, "file", None):
        return quandle.Quandle.from_file(args.file)
    raise InputError("need --catalog NAME or --file PATH")


# -- subcommands ----------------------------------------------------------------


def cmd_quandle(args) -> int:
    if args.iso:
        q1 = quandle.Quandle.from_file(args.iso[0])
        q2 = quandle.Quandle.from_file(args.iso[1])
        iso = quandle.isomorphic(q1, q2)
        _emit({"isomorphic": iso is not None, "map": list(iso.map) if iso else None})
        return 0
    q = _load_quandle(args)
    orbits = quandle.inner_orbits(q)
    _emit(
        {
            "size": q.n,
            "table": [list(r) for r in q.table],
            "is_quandle": True,  # loading the quandle checked the axioms
            "is_crossed_set": quandle.is_crossed_set(q),
            "orbits": [list(o) for o in orbits],
            "indecomposable": len(orbits) == 1,
            "catalog_match": quandle.match_catalog(q),
        }
    )
    return 0


def cmd_envgroup(args) -> int:
    q = _load_quandle(args)
    if args.export_presentation:
        pres = envgroup.enveloping_presentation(q)
        sys.stdout.write(pres.to_text())
        return 0
    env = envgroup.finite_enveloping_group(q, args.max_cosets)
    g = env.group
    out = {
        "order": g.order,
        "classes": sorted(len(c) for c in g.conjugacy_classes()),
        "injective": len(set(env.images)) == q.n,
        "abelian_centralizers": g.has_abelian_centralizers(),
        "center_order": len(g.center()),
        "commutator_order": len(g.commutator_subgroup()),
        "generator_images": list(env.images),
        "decomposable_extension": env.decomposable_extension,
    }
    if args.export_group:
        out["group"] = g.to_json_dict()
    _emit(out)
    return 0


def cmd_charseqs(args) -> int:
    seqs = weyl.enumerate_charseqs(args.max_len)
    # every invariant check runs before the first byte, so a failure leaves stdout empty
    witnesses = [weyl._witness(s) for s in seqs]
    records = _json_records if args.emit == "json" else _csv_records
    _write_chunked(sys.stdout, records(seqs, witnesses))
    return 0


def _rotation_blocks(seqs, format_block):
    """Yield format_block(sorted rotations) for each sequence, formatting each
    rotation class once: the block waits under every member of the class not
    yet reached, and each member takes it with one lookup."""
    blocks: dict[tuple[int, ...], str] = {}
    for seq in seqs:
        block = blocks.pop(seq, None)
        if block is None:
            rotations = weyl._rotations(seq)
            block = format_block(sorted(rotations))
            for rot in rotations:
                blocks[rot] = block
            del blocks[seq]
        yield block


# Records are joined into writes of at least this many characters: with an
# unbuffered stdout (PYTHONUNBUFFERED) every write is its own system call.
_WRITE_CHUNK = 1 << 16


def _write_chunked(out, pieces) -> None:
    """Write the concatenated pieces to out in writes of at least _WRITE_CHUNK
    characters, except the last."""
    buffer: list[str] = []
    size = 0
    for piece in pieces:
        buffer.append(piece)
        size += len(piece)
        if size >= _WRITE_CHUNK:
            out.write("".join(buffer))
            buffer.clear()
            size = 0
    if buffer:
        out.write("".join(buffer))


def _json_ints(values, indent: str) -> str:
    """The items of a nonempty int array as json.dumps(indent=2) lays them out."""
    return indent + (",\n" + indent).join(map(str, values))


def _json_rotations(rotations) -> str:
    return ",\n".join(f"      [\n{_json_ints(r, '        ')}\n      ]" for r in rotations)


def _json_records(seqs, witnesses):
    """The records {"seq", "witness", "rotations"}, byte for byte as
    print(json.dumps(records, sort_keys=True, indent=2)) lays them out."""
    if not seqs:
        yield "[]\n"
        return
    sep = "[\n"
    for seq, witness, rotations in zip(seqs, witnesses, _rotation_blocks(seqs, _json_rotations)):
        yield (
            f'{sep}  {{\n    "rotations": [\n{rotations}\n    ],\n'
            f'    "seq": [\n{_json_ints(seq, "      ")}\n    ],\n'
            f'    "witness": {witness}\n  }}'
        )
        sep = ",\n"
    yield "\n]\n"


def _csv_rotations(rotations) -> str:
    return "|".join(" ".join(map(str, r)) for r in rotations)


def _csv_records(seqs, witnesses):
    """One line per sequence: entries;witness;rotations, rotations split by '|'."""
    for seq, witness, rotations in zip(seqs, witnesses, _rotation_blocks(seqs, _csv_rotations)):
        yield f"{' '.join(map(str, seq))};{witness};{rotations}\n"


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


def _field(spec: dict, key: str, what: str):
    if key not in spec:
        raise InputError(f"{what} needs a {key!r} entry")
    return spec[key]


def _build_group(spec) -> envgroup.FinGroup:
    if spec is None:
        raise InputError("module pair descriptor needs a 'group' or 'group_ref' entry")
    if isinstance(spec, str):
        # short references: "sl23" or "enveloping:<catalog name>"
        if spec == "sl23":
            return envgroup.sl23()[0]
        kind, _, name = spec.partition(":")
        if kind == "enveloping" and name:
            return envgroup.catalog_envelope(name)[0].group
        raise InputError(f"unknown group reference {spec!r}")
    kind = _object(spec, "group").get("type")
    if kind == "enveloping":
        name = _field(spec, "quandle", "group")
        return envgroup.catalog_envelope(name)[0].group
    if kind == "sl23":
        return envgroup.sl23()[0]
    if kind == "abelian":
        return ydmod.abelian_group(_field(spec, "orders", "group"))
    raise InputError(f"unknown group type {kind!r}")


def _resolve_element(group: envgroup.FinGroup, ref) -> int:
    # JSON true/false would pass as the element ids 1/0
    if type(ref) is int:
        if not 0 <= ref < group.order:
            raise InputError(f"element id {ref} out of range")
        return ref
    try:
        return group.names.index(ref)
    except ValueError:
        raise InputError(f"unknown element {ref!r}: not an element id or name")


def _build_module(group: envgroup.FinGroup, spec, role: str) -> ydmod.YDModule:
    spec = _object(spec, role)
    rep = _resolve_element(group, _field(spec, "class_rep", role))
    character = {
        _resolve_element(group, k): cyclotomic.parse_cyc(v)
        for k, v in _object(spec.get("character", {}), f"{role} character").items()
    }
    return ydmod.induced_module(group, rep, character)


def _load_module_pair(path: str) -> tuple[ydmod.YDModule, ydmod.YDModule]:
    with open(path) as fh:
        spec = _object(json.load(fh), "module pair descriptor")
    if "diagonal" in spec:
        d = _object(spec["diagonal"], "diagonal")
        keys = ("q11", "q12", "q21", "q22")
        qs = [cyclotomic.parse_cyc(_field(d, k, "diagonal")) for k in keys]
        return ydmod.diagonal_pair(*qs)
    group = _build_group(spec.get("group_ref", spec.get("group")))
    v = _build_module(group, _field(spec, "V", "module pair descriptor"), "V")
    w_spec = _field(spec, "W", "module pair descriptor")
    # modules are immutable, so equal descriptors share one built module
    return v, (v if w_spec == spec["V"] else _build_module(group, w_spec, "W"))


def cmd_adjoint(args) -> int:
    v, w = _load_module_pair(args.spec)
    report = nichols.adjoint_power_report(v, w, args.m, cap=args.cap)
    report["x_space_dim"] = nichols.x_space_dim(v, w, args.m, cap=args.cap)
    if report["x_space_dim"] != report["dim"]:
        raise InvariantViolationError(
            "adjoint image dimension disagrees with the recursion computation"
        )
    _emit(report)
    return 0


def _parse_orbit(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad orbit list {text!r}")


def cmd_certify(args) -> int:
    q = _load_quandle(args)
    orbit_v = _parse_orbit(args.orbit_v)
    orbit_w = (
        _parse_orbit(args.orbit_w)
        if args.orbit_w
        else tuple(sorted(set(q.elements()) - set(orbit_v)))
    )
    ctx = supportcalc.TwoOrbitContext(q, orbit_v, orbit_w)
    out: dict = {
        "orbit_v": list(orbit_v),
        "orbit_w": list(orbit_w),
        "commuting": ctx.commuting,
    }
    if ctx.commuting:
        out["adW4_certificate"] = supportcalc.comm_adw4_rejects(ctx)
        out["size_bound_m1_exceeded"] = supportcalc.size_bound_check(ctx, 1)
    else:
        out["nc_battery"] = supportcalc.nc_necessary_conditions(ctx)
        cert2 = supportcalc.find_adv2_certificate(ctx)
        cert4 = supportcalc.find_adw4_certificate_nc(ctx)
        out["adV2_certificate"] = list(cert2) if cert2 else None
        out["adW4_certificate"] = list(cert4) if cert4 else None
    _emit(out)
    return 0


def cmd_classify(args) -> int:
    report = supportcalc.classify(
        n_max=args.n_max,
        branch=args.branch,
        require_noncommuting_pair=not args.allow_abelian,
    )
    if not args.full:
        report["rejections"] = [
            {k: r[k] for k in ("rule_id", "branch")} for r in report["rejections"]
        ]
    _emit(report)
    return 0


# -- driver -----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """The argparse type of a cap or budget: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:  # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnichols",
        description="Exact computations on quandles, enveloping groups and braided operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quandle = sub.add_parser("quandle", help="axioms, orbits and catalog matching")
    p_quandle.add_argument("--catalog")
    p_quandle.add_argument("--file")
    p_quandle.add_argument("--iso", nargs=2, metavar=("A", "B"))
    p_quandle.set_defaults(func=cmd_quandle)

    p_env = sub.add_parser("envgroup", help="finite enveloping quotient analysis")
    p_env.add_argument("--catalog")
    p_env.add_argument("--file")
    p_env.add_argument("--max-cosets", type=_positive_int, default=envgroup.DEFAULT_MAX_COSETS)
    p_env.add_argument("--export-group", action="store_true")
    p_env.add_argument(
        "--export-presentation", action="store_true", help="print the relator words and exit"
    )
    p_env.set_defaults(func=cmd_envgroup)

    p_seq = sub.add_parser("charseqs", help="characteristic sequence enumeration")
    p_seq.add_argument("--max-len", type=int, required=True)
    p_seq.add_argument("--emit", choices=("json", "csv"), default="json")
    p_seq.set_defaults(func=cmd_charseqs)

    p_adj = sub.add_parser("adjoint", help="adjoint power dimensions of a module pair")
    p_adj.add_argument("--spec", required=True, help="module pair descriptor JSON")
    p_adj.add_argument("--m", type=int, required=True)
    p_adj.add_argument("--cap", type=_positive_int, default=nichols.DEFAULT_DIM_CAP)
    p_adj.set_defaults(func=cmd_adjoint)

    p_cert = sub.add_parser("certify", help="combinatorial certificates for a role split")
    p_cert.add_argument("--catalog")
    p_cert.add_argument("--file")
    p_cert.add_argument("--orbit-v", required=True, help="comma-separated elements")
    p_cert.add_argument("--orbit-w", help="defaults to the complement")
    p_cert.set_defaults(func=cmd_certify)

    p_cls = sub.add_parser("classify", help="two-orbit support classification search")
    p_cls.add_argument("--n-max", type=int, default=6)
    p_cls.add_argument("--branch", choices=("both", "comm", "nc"), default="both")
    p_cls.add_argument("--allow-abelian", action="store_true")
    p_cls.add_argument("--full", action="store_true", help="include full rejection witnesses")
    p_cls.set_defaults(func=cmd_classify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader has gone: exit 0, final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (
        # an input file that is missing, unreadable or not UTF-8 text
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        UnicodeDecodeError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc!r}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

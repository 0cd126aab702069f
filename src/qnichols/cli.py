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
from itertools import accumulate
from typing import TYPE_CHECKING, Optional

from .errors import InputError, InvariantViolationError, ResourceCapError

# Each command imports the layers it runs, so that a command compiles and
# loads only those modules.
if TYPE_CHECKING:
    from .envgroup import FinGroup
    from .quandle import Quandle
    from .ydmod import YDModule


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_quandle(args) -> Quandle:
    from . import quandle

    # argparse requires exactly one of --catalog and --file
    if args.file is not None:
        return quandle.Quandle.from_file(args.file)
    return quandle.catalog(args.catalog)


# -- subcommands ----------------------------------------------------------------


def cmd_quandle(args) -> int:
    from . import quandle

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
    from . import envgroup

    q = _load_quandle(args)
    if args.export_presentation:
        pres = envgroup.enveloping_presentation(q)
        sys.stdout.write(pres.to_text())
        return 0
    max_cosets = envgroup.DEFAULT_MAX_COSETS if args.max_cosets is None else args.max_cosets
    env = envgroup.finite_enveloping_group(q, max_cosets)
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
    from . import weyl

    seqs = weyl.enumerate_charseqs(args.max_len)
    # every invariant check runs before the first byte, so a failure leaves stdout empty
    witnesses = [weyl._witness(s) for s in seqs]
    records = _json_records if args.emit == "json" else _csv_records
    _write_chunked(sys.stdout, records(seqs, witnesses))
    return 0


def _by_rotation_class(seqs, format_class):
    """Yield (shared, own) for each sequence, formatting each rotation class
    once, on the first member met: format_class(entries, order) returns the
    text the members share and the own text of each rotation k, entries[k:] +
    entries[:k]; order lists k by sorted rotation.  The texts wait under every
    member of the class not yet reached, and each member takes its pair with
    one lookup."""
    from . import weyl

    pending: dict[tuple[int, ...], tuple[str, str]] = {}
    for seq in seqs:
        found = pending.pop(seq, None)
        if found is None:
            rotations = weyl._rotations(seq)
            order = sorted(range(len(seq)), key=rotations.__getitem__)
            shared, texts = format_class(seq, order)
            for rot, text in zip(rotations, texts):
                pending[rot] = (shared, text)
            found = pending.pop(seq)
        yield found


def _rotation_texts(entries, sep: str) -> list[str]:
    """The text of each rotation entries[k:] + entries[:k], its entries joined
    by sep: each is a slice of the doubled sequence, joined by sep once."""
    items = list(map(str, entries)) * 2
    doubled = sep.join(items)
    step = len(sep)
    starts = list(accumulate([len(item) + step for item in items], initial=0))
    n = len(entries)
    return [doubled[starts[k] : starts[k + n] - step] for k in range(n)]


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


def _json_class(entries, order) -> tuple[str, list[str]]:
    """The record head up to the first "seq" entry, and each rotation's "seq"
    entries, as json.dumps(indent=2) lays them out."""
    texts = _rotation_texts(entries, ",\n        ")
    rotations = "\n      ],\n      [\n        ".join([texts[k] for k in order])
    head = (
        f'  {{\n    "rotations": [\n      [\n        {rotations}\n      ]\n    ],\n'
        '    "seq": [\n      '
    )
    return head, _rotation_texts(entries, ",\n      ")


def _json_records(seqs, witnesses):
    """The records {"seq", "witness", "rotations"}, byte for byte as
    print(json.dumps(records, sort_keys=True, indent=2)) lays them out."""
    if not seqs:
        yield "[]\n"
        return
    tail = {w: f'\n    ],\n    "witness": {w}\n  }},\n' for w in set(witnesses)}
    tails = [tail[w] for w in witnesses]
    tails[-1] = tails[-1][:-2] + "\n]\n"
    yield "[\n"
    for (head, seq), tail in zip(_by_rotation_class(seqs, _json_class), tails):
        yield head
        yield seq
        yield tail


def _csv_class(entries, order) -> tuple[str, list[str]]:
    """The rotations field with the line end, and each rotation's entries."""
    texts = _rotation_texts(entries, " ")
    return "|".join([texts[k] for k in order]) + "\n", texts


def _csv_records(seqs, witnesses):
    """One line per sequence: entries;witness;rotations, rotations split by '|'."""
    middle = {w: f";{w};" for w in set(witnesses)}
    for (rotations, seq), w in zip(_by_rotation_class(seqs, _csv_class), witnesses):
        yield seq
        yield middle[w]
        yield rotations


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


def _field(spec: dict, key: str, what: str):
    if key not in spec:
        raise InputError(f"{what} needs a {key!r} entry")
    return spec[key]


def _build_group(spec) -> FinGroup:
    from . import envgroup, ydmod

    if spec is None:
        raise InputError("module pair descriptor needs a 'group' or 'group_ref' entry")
    if isinstance(spec, str):
        # short references: "sl23" or "enveloping:<catalog name>"
        kind, _, name = spec.partition(":")
        if spec == "sl23":
            spec = {"type": "sl23"}
        elif kind == "enveloping" and name:
            spec = {"type": "enveloping", "quandle": name}
        else:
            raise InputError(f"unknown group reference {spec!r}")
    kind = _object(spec, "group").get("type")
    if kind == "enveloping":
        name = _field(spec, "quandle", "group")
        return envgroup.catalog_envelope(name)[0].group
    if kind == "sl23":
        return envgroup.sl23()
    if kind == "abelian":
        return ydmod.abelian_group(_field(spec, "orders", "group"))
    raise InputError(f"unknown group type {kind!r}")


def _resolve_element(group: FinGroup, ref) -> int:
    # JSON true/false would pass as the element ids 1/0
    if type(ref) is int:
        if not 0 <= ref < group.order:
            raise InputError(f"element id {ref} out of range")
        return ref
    try:
        return group.names.index(ref)
    except ValueError:
        raise InputError(f"unknown element {ref!r}: not an element id or name")


def _build_module(group: FinGroup, spec, role: str) -> YDModule:
    from . import cyclotomic, ydmod

    spec = _object(spec, role)
    rep = _resolve_element(group, _field(spec, "class_rep", role))
    character = {
        _resolve_element(group, k): cyclotomic.parse_cyc(v)
        for k, v in _object(spec.get("character", {}), f"{role} character").items()
    }
    return ydmod.induced_module(group, rep, character)


def _load_module_pair(path: str) -> tuple[YDModule, YDModule]:
    from . import cyclotomic, ydmod

    with open(path) as fh:
        spec = _object(json.load(fh), "module pair descriptor")
    if "diagonal" in spec:
        if {"group", "group_ref", "V", "W"} & spec.keys():
            raise InputError("a 'diagonal' descriptor takes no group and no V or W")
        d = _object(spec["diagonal"], "diagonal")
        keys = ("q11", "q12", "q21", "q22")
        qs = [cyclotomic.parse_cyc(_field(d, k, "diagonal")) for k in keys]
        return ydmod.diagonal_pair(*qs)
    if "group" in spec and "group_ref" in spec:
        raise InputError("module pair descriptor takes one of 'group' and 'group_ref'")
    group = _build_group(spec.get("group_ref", spec.get("group")))
    v = _build_module(group, _field(spec, "V", "module pair descriptor"), "V")
    w_spec = _field(spec, "W", "module pair descriptor")
    # modules are immutable, so equal descriptors share one built module
    return v, (v if w_spec == spec["V"] else _build_module(group, w_spec, "W"))


def cmd_adjoint(args) -> int:
    from . import nichols

    v, w = _load_module_pair(args.spec)
    cap = nichols.DEFAULT_DIM_CAP if args.cap is None else args.cap
    _emit(nichols.adjoint_power_report(v, w, args.m, cap=cap))
    return 0


def _parse_orbit(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad orbit list {text!r}")


def cmd_certify(args) -> int:
    from . import supportcalc

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
    from . import supportcalc

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


class _Once(argparse.Action):
    """Store an option's value and refuse a second occurrence (exit 2), where
    argparse's own store action would keep the last one silently."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given_options", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "may be given only once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnichols",
        description="Exact computations on quandles, enveloping groups and braided operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quandle = sub.add_parser("quandle", help="axioms, orbits and catalog matching")
    source = p_quandle.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", action=_Once)
    source.add_argument("--file", action=_Once)
    source.add_argument("--iso", nargs=2, metavar=("A", "B"), action=_Once)
    p_quandle.set_defaults(func=cmd_quandle)

    p_env = sub.add_parser("envgroup", help="finite enveloping quotient analysis")
    source = p_env.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", action=_Once)
    source.add_argument("--file", action=_Once)
    p_env.add_argument("--max-cosets", type=_positive_int, action=_Once)
    export = p_env.add_mutually_exclusive_group()
    export.add_argument("--export-group", action="store_true")
    export.add_argument(
        "--export-presentation", action="store_true", help="print the relator words and exit"
    )
    p_env.set_defaults(func=cmd_envgroup)

    p_seq = sub.add_parser("charseqs", help="characteristic sequence enumeration")
    p_seq.add_argument("--max-len", type=int, required=True, action=_Once)
    p_seq.add_argument("--emit", choices=("json", "csv"), default="json", action=_Once)
    p_seq.set_defaults(func=cmd_charseqs)

    p_adj = sub.add_parser("adjoint", help="adjoint power dimensions of a module pair")
    p_adj.add_argument("--spec", required=True, help="module pair descriptor JSON", action=_Once)
    p_adj.add_argument("--m", type=int, required=True, action=_Once)
    p_adj.add_argument("--cap", type=_positive_int, action=_Once)
    p_adj.set_defaults(func=cmd_adjoint)

    p_cert = sub.add_parser("certify", help="combinatorial certificates for a role split")
    source = p_cert.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", action=_Once)
    source.add_argument("--file", action=_Once)
    p_cert.add_argument("--orbit-v", required=True, help="comma-separated elements", action=_Once)
    p_cert.add_argument("--orbit-w", help="defaults to the complement", action=_Once)
    p_cert.set_defaults(func=cmd_certify)

    p_cls = sub.add_parser("classify", help="two-orbit support classification search")
    p_cls.add_argument("--n-max", type=int, default=6, action=_Once)
    p_cls.add_argument("--branch", choices=("both", "comm", "nc"), default="both", action=_Once)
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

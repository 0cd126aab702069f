"""Traced stand-ins for the public functions of each qnichols layer, and the
per-layer metrics computed from their spans.

Each function is patched where the caller looks it up: ``supportcalc`` binds
``enumerate_quandles`` at import, so the census is traced through
``supportcalc.enumerate_quandles``; methods are patched on their class.
Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from spans import Tracer, outer_seconds, self_seconds

LAYERS = ("quandle", "supportcalc", "envgroup", "cyclotomic", "ydmod", "nichols", "weyl", "cli")

# Group analysis the envgroup CLI prints, timed together as envgroup.classes_s.
GROUP_ANALYSIS = (
    "conjugacy_classes",
    "conjugacy_class_of",
    "centralizer",
    "center",
    "has_abelian_centralizers",
    "commutator_subgroup",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("quandle.enumerate_s", "s"),
    ("quandle.labeled_count", "count"),
    ("quandle.filter_s", "s"),
    ("quandle.census_yield", "ratio"),
    ("quandle.iso_reduce_s", "s"),
    ("quandle.isomorphic_calls", "count"),
    ("quandle.isomorphic_s", "s"),
    ("quandle.self_s", "s"),
    ("supportcalc.census_s", "s"),
    ("supportcalc.evaluate_s", "s"),
    ("supportcalc.candidates_examined", "count"),
    ("supportcalc.post_filter_s", "s"),
    ("supportcalc.post_filter_calls", "count"),
    ("supportcalc.post_filter_eliminated_ratio", "ratio"),
    ("supportcalc.self_s", "s"),
    ("envgroup.enveloping_s", "s"),
    ("envgroup.enveloping_calls", "count"),
    ("envgroup.todd_coxeter_s", "s"),
    ("envgroup.todd_coxeter_calls", "count"),
    ("envgroup.group_order_sum", "count"),
    ("envgroup.classes_s", "s"),
    ("envgroup.self_s", "s"),
    ("cyclotomic.rank_s", "s"),
    ("cyclotomic.rank_calls", "count"),
    ("cyclotomic.rank_rows", "count"),
    ("cyclotomic.matmul_s", "s"),
    ("cyclotomic.matmul_calls", "count"),
    ("cyclotomic.inv_calls", "count"),
    ("cyclotomic.self_s", "s"),
    ("ydmod.induced_module_s", "s"),
    ("ydmod.self_s", "s"),
    ("nichols.symmetrizer_s", "s"),
    ("nichols.t_operator_s", "s"),
    ("nichols.phi_operator_s", "s"),
    ("nichols.phi_operator_calls", "count"),
    ("nichols.graded_rank_s", "s"),
    ("nichols.x_space_s", "s"),
    ("nichols.operator_nnz", "count"),
    ("nichols.self_s", "s"),
    ("weyl.enumerate_s", "s"),
    ("weyl.sequences", "count"),
    ("weyl.verify_calls", "count"),
    ("weyl.witness_s", "s"),
    ("weyl.rotations_s", "s"),
    ("weyl.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


@contextlib.contextmanager
def traced_layers(tracer: Tracer) -> Iterator[None]:
    """Install the stand-ins for the duration of the block."""
    from qnichols import cyclotomic, envgroup, nichols, quandle, supportcalc, weyl, ydmod

    add = tracer.add
    plan = [
        # quandle: the census generator, iso reduction and isomorphism search
        (supportcalc, "enumerate_quandles", "quandle.enumerate_quandles",
         None, lambda q: add("quandle.labeled")),
        (supportcalc, "iso_class_representatives", "quandle.iso_class_representatives",
         lambda qs: add("quandle.census_passed", len(qs)), None),
        (quandle, "isomorphic", "quandle.isomorphic", None, None),
        (supportcalc, "isomorphic", "quandle.isomorphic", None, None),
        # supportcalc: census, batteries, post-filter, the search itself
        (supportcalc, "two_orbit_candidates", "supportcalc.two_orbit_candidates", None, None),
        (supportcalc, "evaluate_candidate", "supportcalc.evaluate_candidate", None, None),
        (supportcalc, "envelope_post_filter", "supportcalc.envelope_post_filter",
         None, lambda v: add("supportcalc.eliminated", bool(v["eliminated"]))),
        (supportcalc, "classify", "supportcalc.classify",
         None, lambda r: add("supportcalc.examined", r["candidates_examined"])),
        # envgroup: envelopes, coset enumeration, group analysis
        (envgroup, "finite_enveloping_group", "envgroup.finite_enveloping_group",
         None, lambda env: add("envgroup.order_sum", env.group.order)),
        (envgroup, "todd_coxeter", "envgroup.todd_coxeter", None, None),
        # cyclotomic: elimination and products
        (cyclotomic.CycMatrix, "rank", "cyclotomic.rank",
         lambda m: add("cyclotomic.rows", m.rows), None),
        (cyclotomic.CycMatrix, "__matmul__", "cyclotomic.matmul", None, None),
        # ydmod
        (ydmod, "induced_module", "ydmod.induced_module", None, None),
        # nichols: operator construction, block ranks, x-space recursion
        (nichols, "adjoint_power_report", "nichols.adjoint_power_report", None, None),
        (nichols, "symmetrized_t", "nichols.symmetrized_t",
         None, lambda m: add("nichols.nnz", m.nnz())),
        (nichols, "quantum_symmetrizer", "nichols.quantum_symmetrizer", None, None),
        (nichols, "t_operator", "nichols.t_operator", None, None),
        (nichols, "phi_operator", "nichols.phi_operator", None, None),
        (nichols, "graded_rank", "nichols.graded_rank", None, None),
        (nichols, "x_space_dim", "nichols.x_space_dim", None, None),
        # weyl: enumeration and the per-record helpers the CLI calls
        (weyl, "enumerate_charseqs", "weyl.enumerate_charseqs",
         None, lambda seqs: add("weyl.sequences", len(seqs))),
        (weyl, "small_neighbor_witness", "weyl.small_neighbor_witness", None, None),
        (weyl.CharSeq, "rotations", "weyl.rotations", None, None),
    ]
    plan += [
        (envgroup.FinGroup, attr, f"envgroup.{attr}", None, None) for attr in GROUP_ANALYSIS
    ]
    saved = []
    try:
        for owner, attr, name, on_call, on_result in plan:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_call, on_result))
        for owner, attr, name in (
            (cyclotomic.CycNum, "inv", "cyclotomic.inv"),
            (weyl, "is_characteristic", "weyl.is_characteristic"),
        ):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.count_calls(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric; a layer that did no work reports zeros."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_seconds(spans)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def outer(*names: str) -> float:
        return outer_seconds(spans, names)

    def layer_self(layer: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    labeled = counts["quandle.labeled"]
    post_calls = calls("supportcalc.envelope_post_filter")
    out = {
        "quandle.enumerate_s": outer("quandle.enumerate_quandles"),
        "quandle.labeled_count": labeled,
        "quandle.filter_s": sum(
            t for s, t in zip(spans, own) if s.name == "supportcalc.two_orbit_candidates"
        ),
        "quandle.census_yield": ratio(counts["quandle.census_passed"], labeled),
        "quandle.iso_reduce_s": outer("quandle.iso_class_representatives"),
        "quandle.isomorphic_calls": calls("quandle.isomorphic"),
        "quandle.isomorphic_s": outer("quandle.isomorphic"),
        "supportcalc.census_s": outer("supportcalc.two_orbit_candidates"),
        "supportcalc.evaluate_s": outer("supportcalc.evaluate_candidate"),
        "supportcalc.candidates_examined": counts["supportcalc.examined"],
        "supportcalc.post_filter_s": outer("supportcalc.envelope_post_filter"),
        "supportcalc.post_filter_calls": post_calls,
        "supportcalc.post_filter_eliminated_ratio": ratio(
            counts["supportcalc.eliminated"], post_calls
        ),
        "envgroup.enveloping_s": outer("envgroup.finite_enveloping_group"),
        "envgroup.enveloping_calls": calls("envgroup.finite_enveloping_group"),
        "envgroup.todd_coxeter_s": outer("envgroup.todd_coxeter"),
        "envgroup.todd_coxeter_calls": calls("envgroup.todd_coxeter"),
        "envgroup.group_order_sum": counts["envgroup.order_sum"],
        "envgroup.classes_s": outer(*(f"envgroup.{a}" for a in GROUP_ANALYSIS)),
        "cyclotomic.rank_s": outer("cyclotomic.rank"),
        "cyclotomic.rank_calls": calls("cyclotomic.rank"),
        "cyclotomic.rank_rows": counts["cyclotomic.rows"],
        "cyclotomic.matmul_s": outer("cyclotomic.matmul"),
        "cyclotomic.matmul_calls": calls("cyclotomic.matmul"),
        "cyclotomic.inv_calls": counts["cyclotomic.inv"],
        "ydmod.induced_module_s": outer("ydmod.induced_module"),
        "nichols.symmetrizer_s": outer("nichols.quantum_symmetrizer"),
        "nichols.t_operator_s": outer("nichols.t_operator"),
        "nichols.phi_operator_s": outer("nichols.phi_operator"),
        "nichols.phi_operator_calls": calls("nichols.phi_operator"),
        "nichols.graded_rank_s": outer("nichols.graded_rank"),
        "nichols.x_space_s": outer("nichols.x_space_dim"),
        "nichols.operator_nnz": counts["nichols.nnz"],
        "weyl.enumerate_s": outer("weyl.enumerate_charseqs"),
        "weyl.sequences": counts["weyl.sequences"],
        "weyl.verify_calls": counts["weyl.is_characteristic"],
        "weyl.witness_s": outer("weyl.small_neighbor_witness"),
        "weyl.rotations_s": outer("weyl.rotations"),
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self(layer)
    return out

"""Fuzzed exit-code contract of the CLI: any input ends in exit 0, 2, 3 or 4.

The inputs are junk built around the shapes the commands read, with sizes
bounded so that no example can build a large object: damaged catalog
quandles of at most five elements, module-pair specs over small groups at
m <= 2, and charseqs lengths that either run in well under a second or are
refused by the count cap.
An exception escaping ``main`` would be a traceback on stderr.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from qnichols.cli import main
from qnichols.quandle import catalog

EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(
    max_examples=60,
    deadline=5000,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_cli(*argv: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert "Traceback" not in err.getvalue()
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    return code


def run_with_file(content, *argv: str) -> int:
    """Run the CLI with "{file}" in argv replaced by a file holding content
    (text, or raw bytes)."""
    data = content.encode() if isinstance(content, str) else content
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        return run_cli(*(path if a == "{file}" else a for a in argv))


small_ints = st.integers(-2, 7)
json_atoms = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


SMALL_QUANDLES = ["(12)^S3", "trivial(3)", "Z_2^{2,2}", "Z_3^{3,1}", "(123)^A4", "Z_3^{3,2}"]


@st.composite
def quandle_files(draw):
    """A small catalog quandle with a few entries damaged, as text or JSON,
    a damaged header or layout, or junk text or bytes."""
    q = catalog(draw(st.sampled_from(SMALL_QUANDLES)))
    table = [list(row) for row in q.table]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, q.n - 1)), draw(st.integers(0, q.n - 1))
        table[i][j] = draw(small_ints)
    if draw(st.booleans()):
        table = draw(st.sampled_from([table, table[:-1], [row[:-1] for row in table], []]))
    n = draw(st.sampled_from([q.n, len(table), q.n + 1, 0, -1]))
    kind = draw(st.sampled_from(["text", "json", "junk"]))
    if kind == "text":
        body = "\n".join(" ".join(map(str, row)) for row in table)
        return f"{n}\n{body}\n" + draw(st.sampled_from(["", "x", "1 2\n"]))
    if kind == "json":
        table = draw(st.one_of(st.just(table), json_values))
        data = draw(
            st.sampled_from([{"size": n, "table": table}, {"table": table}, {"size": n}, table])
        )
        return json.dumps(data)
    return draw(st.one_of(st.text(max_size=60), st.binary(max_size=60), json_values.map(json.dumps)))


@given(quandle_files())
@FUZZ
def test_quandle_file_exit_codes(content):
    run_with_file(content, "quandle", "--file", "{file}")


scalars = st.one_of(
    st.sampled_from(["1", "-1", "z3", "z4^3", "1/2*z8", "0", "z0", "z-3", "1/0", "", "*"]),
    json_values,
)
# element references of the small groups below, some of them wrong
elements = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "e", "t0^1", "t1^1", "t0^1*t1^1", "y"]),
    st.integers(-1, 8),
)
characters = st.one_of(
    st.dictionaries(
        elements.map(str),
        st.one_of(st.sampled_from(["1", "-1", "z3", "z4", "-1*z4"]), scalars),
        max_size=3,
    ),
    json_values,
)
modules = st.one_of(
    st.fixed_dictionaries({"class_rep": elements, "character": characters}),
    st.fixed_dictionaries({"class_rep": elements}),
    json_values,
)
groups = st.one_of(
    st.sampled_from(["sl23", "enveloping:(12)^S3", "enveloping:nope", "enveloping:", "x"]).map(
        lambda ref: ("group_ref", ref)
    ),
    st.fixed_dictionaries(
        {"type": st.just("abelian"), "orders": st.lists(st.integers(-1, 4), max_size=2)}
    ).map(lambda g: ("group", g)),
    st.fixed_dictionaries(
        {"type": st.just("enveloping"), "quandle": st.sampled_from(["(12)^S3", "Z_2^{2,2}", 3])}
    ).map(lambda g: ("group", g)),
    st.fixed_dictionaries({"type": st.sampled_from(["sl23", "other"])}).map(
        lambda g: ("group", g)
    ),
    json_values.map(lambda g: ("group", g)),
)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["diagonal", "group", "junk"]))
    if kind == "diagonal":
        keys = draw(st.sets(st.sampled_from(["q11", "q12", "q21", "q22"]), min_size=3))
        return {"diagonal": {k: draw(scalars) for k in keys}}
    if kind == "group":
        key, group = draw(groups)
        spec = {key: group, "V": draw(modules), "W": draw(modules)}
        for k in draw(st.sets(st.sampled_from(["V", "W"]))):
            del spec[k]
        return spec
    return draw(json_values)


@given(spec=specs(), m=st.integers(-1, 2), truncate=st.sampled_from([False, False, True]))
@FUZZ
def test_adjoint_spec_exit_codes(spec, m, truncate):
    text = json.dumps(spec)
    if truncate:  # damage the JSON itself
        text = text[: len(text) // 2]
    run_with_file(text, "adjoint", "--spec", "{file}", "--m", str(m))


def _runs_fast_or_is_capped(text: str) -> bool:
    # lengths 10..14 run for real and write megabytes; 15 and up hit the cap
    try:
        return not 10 <= int(text) <= 14
    except ValueError:
        return True


max_lens = st.one_of(
    st.integers(-10, 9).map(str),
    st.integers(15, 10**30).map(str),
    st.text(max_size=8),
).filter(_runs_fast_or_is_capped)


@given(max_len=max_lens, emit=st.sampled_from(["json", "csv"]))
@FUZZ
def test_charseqs_max_len_exit_codes(max_len, emit):
    run_cli("charseqs", "--max-len", max_len, "--emit", emit)

import hashlib
import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from qnichols import cli, envgroup, nichols, supportcalc, weyl
from qnichols.cli import main
from qnichols.errors import InvariantViolationError
from qnichols.quandle import (
    MAX_QUANDLE_SIZE,
    Z_QUANDLE_NAMES,
    catalog,
    catalog_names,
    inner_orbits,
)

from oracles import enumerate_charseqs_dfs


@pytest.fixture()
def s3pair_spec(tmp_path):
    spec = {
        "group": {"type": "enveloping", "quandle": "(12)^S3"},
        "V": {"class_rep": "x1", "character": {"x1": "-1"}},
        "W": {"class_rep": "x1", "character": {"x1": "-1"}},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_quandle_catalog(capsys):
    code, out = run(capsys, "quandle", "--catalog", "(123)^A4")
    assert code == 0
    data = json.loads(out)
    assert data["indecomposable"] is True
    assert data["catalog_match"] == "(123)^A4"
    assert data["is_quandle"] and data["is_crossed_set"]


def test_quandle_file_orbits(capsys, tmp_path):
    path = tmp_path / "t2.qnd"
    path.write_text(catalog("trivial(2)").to_text())
    code, out = run(capsys, "quandle", "--file", str(path))
    assert code == 0
    assert len(json.loads(out)["orbits"]) == 2


def test_quandle_iso(capsys, tmp_path):
    a = tmp_path / "a.qnd"
    b = tmp_path / "b.qnd"
    a.write_text(catalog("Z_2^{2,2}").to_text())
    b.write_text(
        json.dumps({"size": 4, "table": [[1, 2, 4, 3], [1, 2, 4, 3], [2, 1, 3, 4], [2, 1, 3, 4]]})
    )
    code, out = run(capsys, "quandle", "--iso", str(a), str(b))
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True and len(data["map"]) == 4


def _relabeled(q, f) -> list[list[int]]:
    """The table of q with element i renamed f[i-1]."""
    table = [[0] * q.n for _ in q.elements()]
    for i in q.elements():
        for j in q.elements():
            table[f[i - 1] - 1][f[j - 1] - 1] = f[q.op(i, j) - 1]
    return table


@pytest.mark.parametrize(
    "name, perm, iso_map",
    [
        ("(12)^S4", [4, 6, 1, 5, 3, 2], [1, 2, 4, 5, 3, 6]),
        ("Aff(5,2)", [3, 5, 2, 1, 4], [1, 2, 4, 5, 3]),
        ("Z_4^{4,2}", [5, 2, 6, 1, 3, 4], [1, 3, 5, 6, 2, 4]),
    ],
)
def test_quandle_iso_relabeled_output_pinned(capsys, tmp_path, name, perm, iso_map):
    # the first isomorphism found is part of the output, so pin it exactly
    a = tmp_path / "a.json"
    b = tmp_path / "b.qnd"
    a.write_text(json.dumps({"table": _relabeled(catalog(name), perm)}))
    b.write_text(catalog(name).to_text())
    code, out = run(capsys, "quandle", "--iso", str(a), str(b))
    assert code == 0
    assert out == json.dumps({"isomorphic": True, "map": iso_map}, sort_keys=True, indent=2) + "\n"


def test_quandle_malformed_file_exit2(capsys, tmp_path):
    path = tmp_path / "bad.qnd"
    path.write_text("3\n1 2\n")
    code, _ = run(capsys, "quandle", "--file", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text",
    ["2\n1 2\n1 2\n9 9 9\n"]
    + [json.dumps({"size": size, "table": [[1, 2], [1, 2]]}) for size in (5, 1, True, "2")],
    ids=["row-past-n", "size-5", "size-1", "size-true", "size-string"],
)
def test_quandle_file_disagreeing_with_its_size_exit2(capsys, tmp_path, text):
    path = tmp_path / "sized.qnd"
    path.write_text(text)
    code, out = run(capsys, "quandle", "--file", str(path))
    assert (code, out) == (2, "")


@pytest.mark.parametrize("text", ["0\n", '{"size": 0, "table": []}'])
def test_quandle_empty_file_exit2(capsys, tmp_path, text):
    path = tmp_path / "empty.qnd"
    path.write_text(text)
    code, _ = run(capsys, "quandle", "--file", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "table", [[[True, 2], [1, 2]], [[1.0, 2], [1, 2]], [[1, 2], [1, 2.0]], [["1", 2], [1, 2]]]
)
def test_quandle_non_integer_json_entries_exit2(capsys, tmp_path, table):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"size": 2, "table": table}))
    code, out = run(capsys, "quandle", "--file", str(path))
    assert (code, out) == (2, "")


@pytest.mark.parametrize("content", ["undecodable", "directory"])
@pytest.mark.parametrize("command", ["quandle", "adjoint"])
def test_unreadable_input_file_exit2(capsys, tmp_path, content, command):
    path = tmp_path / "input"
    if content == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00junk")
    if command == "quandle":
        argv = ["quandle", "--file", str(path)]
    else:
        argv = ["adjoint", "--spec", str(path), "--m", "1"]
    code, out = run(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("source", ["catalog", "text", "json"])
def test_quandle_size_cap_exit3(capsys, tmp_path, source):
    if source == "catalog":
        argv = ["--catalog", "trivial(100000)"]
    else:
        path = tmp_path / "big.qnd"
        size = MAX_QUANDLE_SIZE + 1
        row = list(range(1, size + 1))
        if source == "text":
            path.write_text(f"{size}\n" + f"{' '.join(map(str, row))}\n" * size)
        else:
            path.write_text(json.dumps({"size": size, "table": [row] * size}))
        argv = ["--file", str(path)]
    code, out = run(capsys, "quandle", *argv)
    assert (code, out) == (3, "")


def test_quandle_at_size_cap(capsys):
    code, out = run(capsys, "quandle", "--catalog", f"trivial({MAX_QUANDLE_SIZE})")
    assert code == 0
    assert json.loads(out)["size"] == MAX_QUANDLE_SIZE


def test_envgroup_a4(capsys):
    code, out = run(capsys, "envgroup", "--catalog", "(123)^A4")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 24
    assert data["classes"] == [1, 1, 4, 4, 4, 4, 6]
    assert data["abelian_centralizers"] is True
    assert data["commutator_order"] == 8


def test_envgroup_export(capsys):
    code, out = run(capsys, "envgroup", "--catalog", "(12)^S3", "--export-group")
    data = json.loads(out)
    assert data["group"]["order"] == 6
    assert set(data["group"]) == {"order", "mult", "names", "generators"}


def test_envgroup_presentation_export(capsys):
    code, out = run(capsys, "envgroup", "--catalog", "trivial(2)", "--export-presentation")
    assert code == 0
    assert out == "x1 x2\nx1 x2 x1^-1 x2^-1\n"


def test_adjoint_group_ref_string(capsys, tmp_path):
    spec = {
        "group_ref": "enveloping:(12)^S3",
        "V": {"class_rep": "x1", "character": {"x1": "-1"}},
        "W": {"class_rep": "x1", "character": {"x1": "-1"}},
    }
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 0
    assert json.loads(out)["dim"] == 4


# sha256 of `envgroup --catalog NAME` stdout, plain and with --export-group
_ENVGROUP_CATALOG_SHA256 = {
    "(12)^S3": (
        "952f8166b9a6452ab1b24b5acd8e627328ef1b9f741cebc0a226dd48b4a654fe",
        "9d8e33499974787921768350f210fceb6253f967c8ed50d2ae5c3c8425b32de5",
    ),
    "(12)^S4": (
        "afb57468a7a0cd0ca43cf814263f758c8e2aeb226fa974ee165539018a9a260a",
        "ceb5d54fbdafcff8369504969603df71bfc300981e60210556154eeda02adb92",
    ),
    "(123)^A4": (
        "5447e83dad14882ab08307de71311027707177ab859d5c472cf68faf09057326",
        "ec6b147fca4ba9bfabbf35d0179a3bf56074bf0682a5df84537c8055c253d461",
    ),
    "(1234)^S4": (
        "752f40a9ceceb6bdcf7481f4ce80210d6e715dc2f9138d6a49d9b6848fd62e42",
        "a2efd2ec64f8ffbac6e7ba008d0efdcf3bcc2042d0c731a8cbdc9b02445a1231",
    ),
    "Aff(5,2)": (
        "d9e82bee5a9de86f0716640779fc32fda5725781db68504986199fba2ce7f48a",
        "0be293eb3be15bd85f7dc35413a88a371a4f2e9fa32133eae9f314dcf04e6c67",
    ),
    "Aff(5,3)": (
        "d9e82bee5a9de86f0716640779fc32fda5725781db68504986199fba2ce7f48a",
        "2db18dfb6cd03f0564c27cf0732b2ed8ff1ab04e9aa5f55b3ce3051be8fe9b0e",
    ),
    "Aff(5,4)": (
        "f2397bbd1b23a575b3eba2c0deaeb12a245ecc944a5b42fd397112f5db92b036",
        "cebcee108219d29a6f29ba902418331fc95ec664593ad064723d0460bcc0b98d",
    ),
    "Z_2^{2,2}": (
        "8fae126f7c49d25c2280b6d35a01bc090cdf3c2093b8325d04307bc56ae1c6e8",
        "de092760888bfda2f363b2550c865321eef545d1cc842ba9daa6174d3fb9ff92",
    ),
    "Z_3^{3,1}": (
        "1a1e3aa44e90f1fc20af453186b1914a842c31054bbf71c25718cc91442acbdc",
        "2e416c38f940d0ed026f812b336d09eac3fe616d6d98c6c6f407cc1b84f131b4",
    ),
    "Z_3^{3,2}": (
        "80e49e847294588cbf5586229993ccc2d52a301feb3eaf13af65d91d99128922",
        "d8ecf70b6fbb30e6dbdfd4ef694b104c9e8b4a3ce398f3e64210d31d74e1ecc4",
    ),
    "Z_4^{4,2}": (
        "020b9992829dda69fa7859f969202d0917ea470712be517eeaf1492bf7ec68e7",
        "dbfceeee1ece1b525a188eed21c789a29b272fb2c088e647de64edabb60cb62e",
    ),
    "Z_T^{4,1}": (
        "e47d79561e02408f37df3285fe007e9a45a1fa7a02c40443840c416a66fc5fb6",
        "59e1beb3db6c9fee7abac939f651a223e66ac0d2fd18346437812a35d3e4c713",
    ),
}


def test_envgroup_catalog_pins_cover_the_catalog():
    assert sorted(_ENVGROUP_CATALOG_SHA256) == catalog_names()[1:]


@pytest.mark.parametrize("name", sorted(_ENVGROUP_CATALOG_SHA256))
def test_envgroup_catalog_output_pinned(capsys, name):
    for flags, sha256 in zip(((), ("--export-group",)), _ENVGROUP_CATALOG_SHA256[name]):
        code, out = run(capsys, "envgroup", "--catalog", name, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, (name, flags)


# sha256 of `envgroup --catalog NAME --export-presentation` stdout
_PRESENTATION_SHA256 = {
    "(12)^S3": "c2858ed20004a7d0af926edf02338ca6160bc524fd95b44eb3502cccbf0e3a08",
    "(12)^S4": "4257f51465b4db1d918dcc7aafc99331f74a1dd75383499e9f70a6c73a0776ec",
    "(123)^A4": "ef31736c1a4344f541f41726d41dcc3e33bf57ea31392a7d9df71eb3b475f6d5",
    "(1234)^S4": "0886552d93883616de995bbfb763b7df6428f289eed13e95fbbdbae7b6d7b056",
    "Aff(5,2)": "e313b897e7652eae362f5765c03eea9e6da252663258e46ba7ab8d015d250dcb",
    "Aff(5,3)": "a3a4132ad1326685ac976180b9c99ceef3daba8d59b95c5961e0f7c593ed28b8",
    "Aff(5,4)": "824492a9e4433655e3023481a16c4524ea763f81dc072aa3a059d681bc9c6783",
    "Z_2^{2,2}": "21feeb1f8b5edec02fadeafea3119cc09e1e34b3e2a9a7ff55ec168b8befc4bc",
    "Z_3^{3,1}": "9b520fb8316453d3b65250e0594df5912246664f557e4fe9672bd19f0971a62a",
    "Z_3^{3,2}": "533957c23f66c1ecc20e20f8c873efd730503e8e5a1b731ff45aa1b2d1bfef4b",
    "Z_4^{4,2}": "a98a523247918d8dc67e03fc82a7d20806aeac5da5b68a309f4a367fccf0b71a",
    "Z_T^{4,1}": "7a3b62297cdc79d482c02b73da356e77d6d345dc19b877432a035257ed08bc99",
    "trivial(3)": "2b0a2ae0d77dba23fbed47ded9de63502f7538061faf64f6c69f23fb3fe3baf1",
}


def test_presentation_pins_cover_the_catalog():
    assert sorted(_PRESENTATION_SHA256) == catalog_names()[1:] + ["trivial(3)"]


@pytest.mark.parametrize("name", sorted(_PRESENTATION_SHA256))
def test_envgroup_presentation_output_pinned(capsys, name):
    code, out = run(capsys, "envgroup", "--catalog", name, "--export-presentation")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PRESENTATION_SHA256[name]


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("envgroup", "--catalog", "(12)^S3", "--max-cosets"),
        ("adjoint", "--spec", "pair.json", "--m", "1", "--cap"),
    ],
    ids=["max-cosets", "cap"],
)
def test_nonpositive_cap_or_budget_exit2(capsys, argv, value):
    # argparse rejects the value before the spec file is opened
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"{argv[-1]}: must be at least 1" in err and "Traceback" not in err


def test_envgroup_coset_cap_exit3(capsys, tmp_path):
    # a free-ish quandle whose envelope quotient exceeds a tiny budget
    code, _ = run(capsys, "envgroup", "--catalog", "(1234)^S4", "--max-cosets", "10")
    assert code == 3


def test_charseqs_json(capsys):
    code, out = run(capsys, "charseqs", "--max-len", "3")
    assert code == 0
    data = json.loads(out)
    assert [r["seq"] for r in data] == [[1, 1, 1]]


def test_charseqs_csv(capsys):
    code, out = run(capsys, "charseqs", "--max-len", "4", "--emit", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1 1 1;1;")
    assert len(lines) == 3


@lru_cache(maxsize=None)
def reference_charseqs(max_len: int) -> list[tuple[int, ...]]:
    # The DFS oracle takes about 45 s at length 9, so length 9 comes from the
    # Catalan-split enumerator, which test_weyl checks against the DFS up to
    # length 8, and against the ear-insertion closure and the Catalan counts
    # up to length 12.
    if max_len <= 8:
        return enumerate_charseqs_dfs(max_len)
    return weyl.enumerate_charseqs(max_len)


def old_charseqs_output(max_len: int, emit: str) -> str:
    """stdout as the CLI built it before streaming: one record list, one dumps."""
    records = []
    for s in reference_charseqs(max_len):
        rotations = sorted(list(s[k:] + s[:k]) for k in range(len(s)))
        records.append(
            {"seq": list(s), "witness": weyl.small_neighbor_witness(s), "rotations": rotations}
        )
    if emit == "json":
        return json.dumps(records, sort_keys=True, indent=2) + "\n"
    lines = []
    for rec in records:
        rotations = "|".join(" ".join(map(str, r)) for r in rec["rotations"])
        lines.append(f"{' '.join(map(str, rec['seq']))};{rec['witness']};{rotations}\n")
    return "".join(lines)


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("max_len", range(1, 10))
def test_charseqs_streamed_output_matches_dumps(capsys, max_len, emit):
    code, out = run(capsys, "charseqs", "--max-len", str(max_len), "--emit", emit)
    assert code == 0
    assert out == old_charseqs_output(max_len, emit)


class _CountingStdout:
    """A stdout stand-in that records each write call."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "emit, size, sha256",
    [
        ("json", 2_712_803, "7b7db469efbd472d840f767c537054f22512d9d26aabf6a0bae7fcc3aea63950"),
        ("csv", 421_222, "ebed6055e547d9d536285eb1bf9a0cfa5bb15026c2ad1e16828c5db27e6e3f36"),
    ],
)
def test_charseqs_writes_stdout_in_64k_chunks(monkeypatch, emit, size, sha256):
    stdout = _CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["charseqs", "--max-len", "10", "--emit", emit]) == 0
    out = "".join(stdout.writes)
    assert out == old_charseqs_output(10, emit)
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    assert len(stdout.writes) <= math.ceil(len(out.encode()) / 65536) + 1
    assert len(stdout.writes) > 1


@pytest.mark.parametrize("max_len", ["-5", "0"])
def test_charseqs_nonpositive_max_len_exit2(capsys, max_len):
    code, out = run(capsys, "charseqs", "--max-len", max_len)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("max_len", ["1", "2"])
def test_charseqs_below_length_3_is_empty(capsys, max_len):
    assert run(capsys, "charseqs", "--max-len", max_len) == (0, "[]\n")
    assert run(capsys, "charseqs", "--max-len", max_len, "--emit", "csv") == (0, "")


@pytest.mark.parametrize("max_len", ["15", "21", str(10**9)])
def test_charseqs_length_cap_exit3(capsys, max_len):
    code, out = run(capsys, "charseqs", "--max-len", max_len)
    assert code == 3
    assert out == ""


def _reject_2121(is_characteristic):
    return lambda seq: tuple(seq) != (2, 1, 2, 1) and is_characteristic(seq)


def _witness_fails_last(witness):
    def fake(seq):
        if seq == (4, 1, 2, 2, 2, 1):  # the last sequence of length <= 6
            raise InvariantViolationError(f"no witness index in {seq}")
        return witness(seq)

    return fake


@pytest.mark.parametrize(
    "attr, fake",
    [("is_characteristic", _reject_2121), ("_witness", _witness_fails_last)],
    ids=["verification", "witness"],
)
@pytest.mark.parametrize("emit", ["json", "csv"])
def test_charseqs_invariant_failure_writes_nothing(capsys, monkeypatch, attr, fake, emit):
    monkeypatch.setattr(weyl, attr, fake(getattr(weyl, attr)))
    code, out = run(capsys, "charseqs", "--max-len", "6", "--emit", emit)
    assert code == 4
    assert out == ""


def test_adjoint_s3(capsys, s3pair_spec):
    code, out = run(capsys, "adjoint", "--spec", s3pair_spec, "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4 == data["x_space_dim"]
    assert sum(b["rank"] for b in data["per_block"]) == 4


def test_equal_descriptors_build_one_module(s3pair_spec, tmp_path):
    v, w = cli._load_module_pair(s3pair_spec)
    assert v is w
    spec = json.loads(Path(s3pair_spec).read_text())
    spec["W"]["character"]["x1"] = "1"
    path = tmp_path / "two.json"
    path.write_text(json.dumps(spec))
    v, w = cli._load_module_pair(str(path))
    assert v is not w and v.actions != w.actions


def test_adjoint_exit4_when_the_two_computations_disagree(capsys, monkeypatch, s3pair_spec):
    # the report is cross-checked against the phi recursion before anything is printed
    x_space_dim = nichols.x_space_dim
    monkeypatch.setattr(nichols, "x_space_dim", lambda v, w, m, cap: x_space_dim(v, w, m, cap) + 1)
    code = main(["adjoint", "--spec", s3pair_spec, "--m", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert "invariant violation" in err


def test_adjoint_cap_exit3(capsys, s3pair_spec):
    code, _ = run(capsys, "adjoint", "--spec", s3pair_spec, "--m", "3", "--cap", "10")
    assert code == 3


SL23_MODULE = {"class_rep": "[01;22]", "character": {"[02;11]": "z6"}}


@pytest.mark.parametrize("m, dim", [(1, 12), (2, 28), (3, 52)])
def test_adjoint_sl23_pair_both_group_references(capsys, tmp_path, m, dim):
    outs = []
    for key, group in (("group_ref", "sl23"), ("group", {"type": "sl23"})):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: group, "V": SL23_MODULE, "W": SL23_MODULE}))
        code, out = run(capsys, "adjoint", "--spec", str(path), "--m", str(m))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["dim"] == data["x_space_dim"] == dim


def test_adjoint_diagonal(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"diagonal": {"q11": "-1", "q12": "z3", "q21": "1", "q22": "-1"}}))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 0
    assert json.loads(out)["dim"] == 1


@pytest.mark.parametrize(
    "spec",
    [
        # Z_70 x Z_70: the lcm of the scalar orders 5, 7, 1 and 2
        {"diagonal": {"q11": "z5", "q12": "z7", "q21": "1", "q22": "-1"}},
        {
            "group": {"type": "abelian", "orders": [100000]},
            "V": {"class_rep": 1},
            "W": {"class_rep": 1},
        },
    ],
    ids=["diagonal", "abelian"],
)
def test_adjoint_abelian_group_order_cap_exit3(capsys, tmp_path, spec):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 3
    assert out == ""


def test_adjoint_s4_pair_m3_output_pinned(capsys, tmp_path):
    """The 6-dimensional S4 transposition pair, the extremal case of the
    classification: dim 34 both ways, and the exact bytes of the report."""
    module = {"class_rep": "x2", "character": {"x2": "-1", "x6": "-1"}}
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"group_ref": "enveloping:(12)^S4", "V": module, "W": module}))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "3")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == data["x_space_dim"] == 34
    assert sum(b["rank"] for b in data["per_block"]) == 34
    assert len(out.encode()) == 662
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ebaccda7fdfdfb3498e4630c4fbf66cdab5a11cae052f7c5bb26c90cc9b0ed62"
    )


_S4_MODULE = {"class_rep": "x2", "character": {"x2": "-1", "x6": "-1"}}
_ADJOINT_SPECS = {
    "s3": {
        "group": {"type": "enveloping", "quandle": "(12)^S3"},
        "V": {"class_rep": "x1", "character": {"x1": "-1"}},
        "W": {"class_rep": "x1", "character": {"x1": "-1"}},
    },
    "s4": {"group_ref": "enveloping:(12)^S4", "V": _S4_MODULE, "W": _S4_MODULE},
    "diag-z3": {"diagonal": {"q11": "-1", "q12": "z3", "q21": "1", "q22": "-1"}},
    "diag-z5": {"diagonal": {"q11": "z5", "q12": "z5", "q21": "z5", "q22": "-1"}},
}


@pytest.mark.parametrize(
    "spec, m, sha256",
    [
        ("s3", 0, "1f72bbfc411403e80f88d455c8fa85236e1f3517f5c27b9b77ba9a86150a6759"),
        ("s3", 1, "ec6adf5ca194baf26b1b0384ffd7e8de26ace29b5ced6d7649c3e7d3992380d2"),
        ("s3", 2, "7b06ebc5787f8d8ef418e78922f048e07303b46f3a0f549d8f823c90e536fb34"),
        ("s3", 3, "0547e38e3c542146906333e2aa78c5a02a140ff108973e9388fcd88fd469d33d"),
        ("s4", 1, "475a5fe8d6d5f2ba1d73505cb8ec6c013564d61c96c3de15cd00f0c64cb8cec8"),
        ("s4", 2, "3f2e20198617e57f20dd082ef59e445f9018d3cc020fbe86a95daa7a48844cfa"),
        ("diag-z3", 1, "46100476d2e27db20d2efcb28ddbb5d43c51734cf9190b51a1b4ee71bd6201fd"),
        ("diag-z3", 2, "b4cd6665b4672be277f2589c297b6f3542de1c405e6c4c6771a9dbc14733f59b"),
        ("diag-z3", 3, "0547e38e3c542146906333e2aa78c5a02a140ff108973e9388fcd88fd469d33d"),
        ("diag-z5", 1, "46100476d2e27db20d2efcb28ddbb5d43c51734cf9190b51a1b4ee71bd6201fd"),
        ("diag-z5", 2, "3e5869979fd4429fbeaa13bf22a27cd06c554e537264265e8493a56679d51a6d"),
        ("diag-z5", 3, "6680aea521e8878ca6f38c00961a795be89ff9df03c86f4f568bf181da0081a2"),
    ],
)
def test_adjoint_output_pinned(capsys, tmp_path, spec, m, sha256):
    """The exact bytes of the report on the S3 and S4 transposition pairs and
    two diagonal pairs (q12 q21 = z3 with q11 = -1; q11 = z5, q12 q21 = z5^2)."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_ADJOINT_SPECS[spec]))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", str(m))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_adjoint_power_cap_exit3_before_sizing_a_tensor(capsys, tmp_path):
    # the S4 pair at m = 6000: the cap message once tried to print 6^6000
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(_ADJOINT_SPECS["s4"]))
    code = main(["adjoint", "--spec", str(path), "--m", "6000"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "Traceback" not in err


def test_adjoint_power_cap_exit3_on_one_dimensional_modules(capsys, tmp_path):
    # every tensor power of a diagonal pair has dimension 1, so only the
    # power cap bounds the run
    import time

    from qnichols.nichols import MAX_ADJOINT_POWER

    path = tmp_path / "d.json"
    path.write_text(json.dumps(_ADJOINT_SPECS["diag-z3"]))
    start = time.perf_counter()
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", str(MAX_ADJOINT_POWER + 1))
    assert (code, out) == (3, "")
    assert time.perf_counter() - start < 1.0


def test_adjoint_conductor_cap_exit3(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps({"diagonal": {"q11": "z720720", "q12": "1", "q21": "1", "q22": "-1"}})
    )
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert (code, out) == (3, "")


def test_adjoint_bad_spec_exit2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _ = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 2


@pytest.mark.parametrize("top", ["[1, 2]", "3", '"diagonal"'])
def test_adjoint_non_object_spec_exit2(capsys, tmp_path, top):
    path = tmp_path / "top.json"
    path.write_text(top)
    code, _ = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"group_ref": "enveloping:(12)^S3", "V": 3, "W": 3},
        {"diagonal": [1]},
        {
            "group_ref": "enveloping:(12)^S3",
            "V": {"class_rep": "x1", "character": "abc"},
            "W": {"class_rep": "x1", "character": {"x1": "-1"}},
        },
        {"diagonal": {"q11": 3, "q12": "1", "q21": "1", "q22": "-1"}},
        {
            "group": {"type": "abelian", "orders": "ab"},
            "V": {"class_rep": 0},
            "W": {"class_rep": 0},
        },
        # JSON true is neither the element id 1 nor a group of order 1
        {
            "group_ref": "enveloping:(12)^S3",
            "V": {"class_rep": True, "character": {"x1": "-1"}},
            "W": {"class_rep": "x1", "character": {"x1": "-1"}},
        },
        {
            "group": {"type": "abelian", "orders": [True, 2]},
            "V": {"class_rep": 0},
            "W": {"class_rep": 0},
        },
    ],
    ids=[
        "module-number",
        "diagonal-list",
        "character-string",
        "scalar-number",
        "orders-string",
        "class_rep-true",
        "orders-true",
    ],
)
def test_adjoint_non_object_nested_spec_exit2(capsys, tmp_path, spec):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(spec))
    code, _ = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 2


def test_certify_nc(capsys):
    code, out = run(capsys, "certify", "--catalog", "Z_3^{3,2}", "--orbit-v", "4,5")
    assert code == 0
    data = json.loads(out)
    assert data["commuting"] is False
    assert all(v == "pass" for v in data["nc_battery"].values())
    assert data["adV2_certificate"] is None
    assert data["adW4_certificate"] is None


def test_certify_comm(capsys):
    code, out = run(capsys, "certify", "--catalog", "Z_3^{3,1}", "--orbit-v", "4")
    assert code == 0
    data = json.loads(out)
    assert data["commuting"] is True
    assert data["adW4_certificate"] is None


def test_certify_bad_orbit_exit2(capsys):
    code, _ = run(capsys, "certify", "--catalog", "Z_3^{3,2}", "--orbit-v", "1,4")
    assert code == 2


@pytest.mark.parametrize(
    "name, roles, message",
    [
        ("Z_3^{3,2}", ("--orbit-v", "1,2,3,4,5"), "roles must be nonempty"),
        ("Z_3^{3,2}", ("--orbit-v", "4,5,4"), "exactly once"),
        ("Z_3^{3,2}", ("--orbit-v", "4,5", "--orbit-w", "1,2,3,3"), "exactly once"),
        ("Z_3^{3,1}", ("--orbit-v", "4,4,4"), "exactly once"),
    ],
    ids=["empty-W", "repeat-in-V", "repeat-in-W", "repeat-only"],
)
def test_certify_bad_role_split_exit2(capsys, name, roles, message):
    code = main(["certify", "--catalog", name, *roles])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


# sha256 of `certify --catalog NAME --orbit-v ORBIT` stdout, one per inner orbit
_CERTIFY_SHA256 = {
    ("Z_T^{4,1}", "1,2,3,4"): "51a812bd7deb0254a798f2fb6a79b56e33843e94a1b2b10d608622e168cce903",
    ("Z_T^{4,1}", "5"): "eba9b710790400eddfa0987d6ff968248e04a58354f531a2e7fba8876068b2bd",
    ("Z_2^{2,2}", "1,3"): "244eccbaf1cc3bc7960dc3d8e158d86e931224f4c6057721f125148e11584eca",
    ("Z_2^{2,2}", "2,4"): "c47bd786bba2a2e265b725d272d29509d9e01b024e6c070230110abee7bd4acb",
    ("Z_3^{3,1}", "1,2,3"): "5bd94dab3c34210c183d6f376fa9b8cda78a1e0ff77c61aad177f538f293055a",
    ("Z_3^{3,1}", "4"): "6547757a97fc5845d110811d17498856b2abe52237468088c5774a8b7f27203b",
    ("Z_3^{3,2}", "1,2,3"): "9b1c402e795cae23242b9f14ae9fe2efc38896337b5bbcfc39753e65c075b195",
    ("Z_3^{3,2}", "4,5"): "1e294f454a65809af6953f96fc0500d8a433c29a917bb06c3eb38c3672fcc3ff",
    ("Z_4^{4,2}", "1,2,3,4"): "9aad2232f544d8474a0f3113bf57dc0b78c733e729801c665b9715e03cc700c1",
    ("Z_4^{4,2}", "5,6"): "ffc73e0f9a0a89569734e33608760501174fb138c29f14ff1adadbe23b2b3402",
}


def test_certify_pins_cover_every_inner_orbit_of_the_z_quandles():
    want = {
        (name, ",".join(map(str, orbit)))
        for name in Z_QUANDLE_NAMES
        for orbit in inner_orbits(catalog(name))
    }
    assert set(_CERTIFY_SHA256) == want


@pytest.mark.parametrize("name, orbit", sorted(_CERTIFY_SHA256))
def test_certify_output_pinned(capsys, name, orbit):
    code, out = run(capsys, "certify", "--catalog", name, "--orbit-v", orbit)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CERTIFY_SHA256[name, orbit]


def test_classify_small(capsys):
    code, out = run(capsys, "classify", "--n-max", "4")
    assert code == 0
    data = json.loads(out)
    assert [s["matched_catalog_name"] for s in data["survivors"]] == [
        "Z_2^{2,2}",
        "Z_3^{3,1}",
    ]
    assert data["flagged"] == []


def test_classify_deterministic_bytes(capsys):
    _, out1 = run(capsys, "classify", "--n-max", "4", "--full")
    _, out2 = run(capsys, "classify", "--n-max", "4", "--full")
    assert out1 == out2


# sha256 of `classify --n-max N [--full [--allow-abelian]]` stdout
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ("--n-max", "6", "--full"),
            "7c7e5be1444485e66539d446a35ff54d4b447b094ec50e13699c8304f8dcf4dd",
        ),
        (
            ("--n-max", "6", "--full", "--allow-abelian"),
            "ba5cad95326c5898f7069f230471b96a663ebfdb4b32fbed6a5191e7af8638a0",
        ),
        pytest.param(
            ("--n-max", "7", "--full"),
            "d164dfc3512c52001b0197e046711ddef20e639356755ea350d034f7bfc61b5a",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            ("--n-max", "8"),
            "29b9ae8832bd9b42ed20d06c89324c03d93f82f659d4e53cdff7960f8bb64445",
            marks=pytest.mark.slow,
        ),
        pytest.param(
            ("--n-max", "8", "--full"),
            "f9f0137217acd245e38e176d1b4dcd0cabd7df7454181877142b85911302867f",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_classify_output_pinned(capsys, argv, sha256):
    code, out = run(capsys, "classify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv",
    [("charseqs", "--max-len", "10"), ("classify", "--n-max", "6")],
)
def test_closed_stdout_exits_0_without_traceback(argv):
    # the read end of the pipe is closed before the child starts, so its
    # first write (or its final flush) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qnichols.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_classify_cap_exit3(capsys):
    code, _ = run(capsys, "classify", "--n-max", "9")
    assert code == 3


def test_classify_nonpositive_n_max_exit2(capsys):
    code, _ = run(capsys, "classify", "--n-max", "-3")
    assert code == 2


S3_MODULE = {"class_rep": "x1", "character": {"x1": "-1"}}


@pytest.mark.parametrize(
    "spec",
    [
        {"group_ref": "enveloping:(12)^S3", "W": S3_MODULE},
        {"group_ref": "enveloping:(12)^S3", "V": S3_MODULE},
        {"group_ref": "enveloping:(12)^S3", "V": {"character": {}}, "W": S3_MODULE},
        {"group": {"type": "enveloping"}, "V": S3_MODULE, "W": S3_MODULE},
        {"group": {"type": "enveloping", "quandle": 3}, "V": S3_MODULE, "W": S3_MODULE},
        {"group": {"type": "abelian"}, "V": {"class_rep": 0}, "W": {"class_rep": 0}},
        {"diagonal": {"q11": "-1", "q12": "1", "q21": "1"}},
    ],
    ids=["no-V", "no-W", "no-class_rep", "no-quandle", "quandle-number", "no-orders", "no-q22"],
)
def test_adjoint_missing_key_exit2(capsys, tmp_path, spec):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "key, group",
    [
        ("group_ref", "enveloping:nope"),
        ("group", {"type": "enveloping", "quandle": "nope"}),
        ("group", {"type": "enveloping", "quandle": ["(12)^S3"]}),
    ],
    ids=["ref-unknown", "type-unknown", "type-list"],
)
def test_adjoint_unknown_envelope_exit2_caches_nothing(capsys, tmp_path, key, group):
    before = envgroup._catalog_envelope.cache_info().currsize
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({key: group, "V": S3_MODULE, "W": S3_MODULE}))
    code, out = run(capsys, "adjoint", "--spec", str(path), "--m", "1")
    assert (code, out) == (2, "")
    assert envgroup._catalog_envelope.cache_info().currsize == before


def test_group_references_share_the_catalog_envelope():
    by_ref = cli._build_group("enveloping:(12)^S4")
    by_type = cli._build_group({"type": "enveloping", "quandle": "(12)^S4"})
    assert by_ref is by_type is envgroup.catalog_envelope("(12)^S4")[0].group


def test_internal_key_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(**kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(supportcalc, "classify", broken)
    with pytest.raises(KeyError):
        main(["classify", "--n-max", "3"])

"""Guard against dead library code: every top-level function and class of
``src/qnichols``, and every method of a top-level class, must be reachable
from what runs, or be on ALLOWLIST with the reason it stays.

What runs is ``cli.main``, the module-level statements of the package, and
every identifier in the non-test files under ``bench/``: names, attributes,
and identifier-like strings, since ``bench/layers.py`` patches functions by
attribute name.  From a reached definition the search follows each
``ast.Name`` and ``ast.Attribute`` identifier in it to every definition of
that name, so a method is reached by any attribute of its name.  A reached
class also reaches its bases, decorators, class-level statements and dunder
methods, which Python calls implicitly.  Dunders are never checked themselves:
an unused one has to be deleted by hand.

Code that only the tests run is deleted, or moved into ``tests/oracles.py``
when tests compare the library against it.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qnichols"
ENTRY = "cli.main"

_ITEM_3 = "ROADMAP item 3 (the Weyl groupoid) will call it"
_ITEM_5 = "ROADMAP item 5 and acceptance criterion 3 (the Gamma and T group models)"

#: Unreached definitions that stay, by qualname, with the reason.
ALLOWLIST = {
    "cyclotomic.CycMatrix.transpose": _ITEM_3,
    "cyclotomic.CycMatrix.kernel_basis": _ITEM_3,
    "weyl.eta": _ITEM_3,
    "weyl.mat_mul": _ITEM_3,
    "weyl.CartanPair": _ITEM_3,
    "weyl.finite_type": _ITEM_3,
    "weyl.detect_finite_object": _ITEM_3,
    "envgroup.FinGroup.quotient": _ITEM_5,
    "envgroup.iter_isomorphisms": _ITEM_5,
    "envgroup.isoclinism_witness": _ITEM_5,
    "envgroup.induced_hom": _ITEM_5,
    "envgroup.GammaElem": _ITEM_5,
    "envgroup.gamma_identity": _ITEM_5,
    "envgroup.gamma_eps": _ITEM_5,
    "envgroup.gamma_h": _ITEM_5,
    "envgroup.gamma_g": _ITEM_5,
    "envgroup.gamma_mul": _ITEM_5,
    "envgroup.gamma_inv": _ITEM_5,
    "envgroup.gamma_conj": _ITEM_5,
    "envgroup.gamma_generators": _ITEM_5,
    "envgroup.gamma_conj_class": _ITEM_5,
    "envgroup.gamma_centralizer_check": _ITEM_5,
    "envgroup.gamma_centralizer_generators": _ITEM_5,
    "envgroup.gamma_center_generators": _ITEM_5,
    "envgroup.gamma_commutator_closure": _ITEM_5,
    "envgroup.TElem": _ITEM_5,
    "envgroup.t_identity": _ITEM_5,
    "envgroup.t_z": _ITEM_5,
    "envgroup.t_gen": _ITEM_5,
    "envgroup.t_mul": _ITEM_5,
    "envgroup.t_inv": _ITEM_5,
    "nichols.adjoint_power_dim": "README quick start (tests/test_readme.py runs it)",
    "ydmod.transposition_module": "README quick start (tests/test_readme.py runs it)",
    "cyclotomic.CycNum.approx": "floating sanity oracle of the exact arithmetic",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _identifiers(nodes, strings: bool = False):
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    yield sub.value


def unreached(package: Path, bench: list[Path]) -> dict[str, str]:
    """{qualname: "file:line"} of every checked definition in ``package``
    that the roots do not reach; a method of an unreached class is left out,
    since its class stands for it."""
    where: dict[str, str] = {}  # qualname -> file:line
    by_name: dict[str, list[str]] = {}
    follow: dict[str, list[ast.AST]] = {}  # qualname -> the nodes it reaches from
    roots: list[ast.AST] = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                roots.append(node)
                continue
            members = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                implicit = [*node.bases, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, _DEFS) and not _dunder(item.name):
                        members.append((f"{path.stem}.{node.name}.{item.name}", item))
                    else:
                        implicit.append(item)
                follow[members[0][0]] = implicit
            for qualname, item in members:
                where[qualname] = f"{path.relative_to(package.parent)}:{item.lineno}"
                by_name.setdefault(item.name, []).append(qualname)
                follow.setdefault(qualname, [item])

    reached: set[str] = set()
    todo = [ENTRY]
    words = list(_identifiers(roots))
    for path in bench:
        words += _identifiers([ast.parse(path.read_text())], strings=True)
    todo += [q for word in words for q in by_name.get(word, [])]
    while todo:
        qualname = todo.pop()
        if qualname in reached:
            continue
        reached.add(qualname)
        todo += [q for word in _identifiers(follow[qualname]) for q in by_name.get(word, [])]
    dead = where.keys() - reached
    return {q: at for q, at in where.items() if q in dead and q.rsplit(".", 1)[0] not in dead}


def _project_unreached() -> dict[str, str]:
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return unreached(PACKAGE, bench)


def test_every_definition_is_reached_or_allowlisted():
    dead = {q: where for q, where in _project_unreached().items() if q not in ALLOWLIST}
    assert dead == {}


def test_allowlist_has_no_stale_entry():
    # an entry goes stale when its definition is deleted or a root reaches it
    assert sorted(ALLOWLIST.keys() - _project_unreached().keys()) == []


def test_guard_follows_calls_attributes_and_bench_strings(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text(textwrap.dedent(
        """
        from . import lib

        def main():
            return lib.helper() + lib.Box().used()

        TABLE = {"k": lib.from_table}
        """
    ))
    (package / "lib.py").write_text(textwrap.dedent(
        """
        def helper():
            return _private()

        def _private():
            return 1

        def from_table():
            pass

        def benched():
            pass

        def dead():
            return helper()

        class Box:
            def __init__(self):
                self.x = _from_init()

            def used(self):
                return 0

            def unused(self):
                pass

        def _from_init():
            pass

        class Ghost:
            def method(self):
                pass
        """
    ))
    bench = tmp_path / "layers.py"
    bench.write_text('PATCH = [(lib, "benched")]\n')
    assert set(unreached(package, [])) == {"lib.benched", "lib.dead", "lib.Box.unused", "lib.Ghost"}
    assert set(unreached(package, [bench])) == {"lib.dead", "lib.Box.unused", "lib.Ghost"}


def test_package_top_level_binds_only_the_version():
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, *statements = module.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    # an import, def or class has no targets, so it stands for itself here
    bound = [ast.unparse(t) for s in statements for t in getattr(s, "targets", [s])]
    assert bound == ["__version__"]

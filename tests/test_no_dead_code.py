"""Guard against dead library code: every top-level function and class of
``src/qnichols``, and every method of a top-level class, must be reachable
from what runs, or be on ALLOWLIST with the reason it stays.

What runs is ``cli.main``, the module-level statements of the package, and
every identifier in the non-test files under ``bench/``: names, attributes,
and identifier-like strings, since ``bench/layers.py`` patches functions by
attribute name.  From a reached definition the search follows each
identifier in it: a bare ``ast.Name`` to every module-level definition of that
name, an ``ast.Attribute`` or a bench string to every definition of that name,
so a method is reached by any attribute of its name.  A reached class also
reaches its bases, decorators, class-level statements and dunder methods,
which Python calls implicitly.  Dunders are never checked themselves: an
unused one has to be deleted by hand.

Every name a ``src`` module imports is used in that module, unless
``bench/layers.py`` patches it there by name.

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
    "envgroup.FinGroup.subgroup": _ITEM_5,
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
    """(identifier, bare): bare for an ``ast.Name``, which can only mean a
    module-level definition, not a method."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id, True
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, False
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    yield sub.value, False


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

    def definitions(identifiers):
        # a module-level qualname is "module.name"; a method's has one dot more
        for word, bare in identifiers:
            yield from (q for q in by_name.get(word, []) if not bare or q.count(".") == 1)

    todo += definitions(words)
    while todo:
        qualname = todo.pop()
        if qualname in reached:
            continue
        reached.add(qualname)
        todo += definitions(_identifiers(follow[qualname]))
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
        def helper(shadow=0):
            return _private() + shadow

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

            def shadow(self):
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
    # a bare name (the parameter shadow) reaches no method of that name
    dead = {"lib.dead", "lib.Box.unused", "lib.Box.shadow", "lib.Ghost"}
    assert set(unreached(package, [])) == dead | {"lib.benched"}
    assert set(unreached(package, [bench])) == dead


def unused_imports(package: Path) -> set[str]:
    """"module.name" of every name a module of ``package`` imports and never
    reads as a bare name."""
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.add(f"{path.stem}.{bound}")
    return out


def bench_patches(layers: Path) -> set[str]:
    """"module.name" of each (module, "name", ...) entry in ``layers``: the
    module attributes it replaces by name."""
    return {
        f"{node.elts[0].id}.{node.elts[1].value}"
        for node in ast.walk(ast.parse(layers.read_text()))
        if isinstance(node, ast.Tuple)
        and len(node.elts) >= 2
        and isinstance(node.elts[0], ast.Name)
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
    }


def test_every_import_is_used_or_patched_by_bench():
    patched = bench_patches(ROOT / "bench" / "layers.py")
    assert "supportcalc.isomorphic" in patched
    assert unused_imports(PACKAGE) - patched == set()


def test_unused_imports_sees_plain_from_and_aliased_imports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(textwrap.dedent(
        """
        from __future__ import annotations
        import os.path
        import json as j
        from . import lib, other
        from .lib import a, b as c

        def f():
            return lib.x + a + j
        """
    ))
    assert unused_imports(package) == {"mod.os", "mod.other", "mod.c"}


def test_package_top_level_binds_only_the_version():
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, *statements = module.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    # an import, def or class has no targets, so it stands for itself here
    bound = [ast.unparse(t) for s in statements for t in getattr(s, "targets", [s])]
    assert bound == ["__version__"]

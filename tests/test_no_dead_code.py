"""Guard against dead library code: every top-level function and class of
``src/qnichols``, every method of a top-level class, and every name a module
assigns at top level must be reachable from what runs, or be on ALLOWLIST
with the reason it stays.

What runs is ``cli.main``, the module-level statements of the package other
than assignments to names, and every identifier in the non-test files under
``bench/``: names, attributes, and identifier-like strings, since
``bench/layers.py`` patches functions by attribute name.  From a reached
definition the search follows each identifier in it: a bare ``ast.Name`` to
every module-level definition or assigned name of that name;
``self.<name>`` or ``cls.<name>`` inside a class to the method of that name
on the class or on one of its bases in the package; any other
``ast.Attribute``, or a bench string, to every definition of that name, so
such a method is reached by any attribute of its name.  A reached class also
reaches its bases, decorators, class-level statements and dunder methods,
which Python calls implicitly, and a reached module-level assignment reaches
the names in its value and annotation.  What an allowlisted definition names
is reached too, since it stays with it; one allowlisted definition naming
another does not reach it.  Dunder methods are never checked themselves: an
unused one has to be deleted by hand.

Every name a ``src`` module imports is used in that module, unless
``bench/layers.py`` patches it there by name.

Code that only the tests run is deleted, or moved into ``tests/oracles.py``
when tests compare the library against it.  Every top-level definition there
is read by name in some ``tests/test_*.py``, so an oracle that loses its last
test is deleted too.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qnichols"
ENTRY = "cli.main"

_ITEM_3 = "ROADMAP item 3 (the Weyl groupoid of a non-abelian pair) will call it"
_ITEM_10 = "ROADMAP item 10 (the diagonal Weyl groupoid) will call it"

#: Unreached definitions that stay, by qualname, with the reason.
ALLOWLIST = {
    "cyclotomic.CycMatrix.transpose": _ITEM_3,
    "cyclotomic.CycMatrix.kernel_basis": _ITEM_3,
    "weyl.eta": _ITEM_10,
    "weyl.mat_mul": _ITEM_10,
    "weyl.CartanPair": _ITEM_10,
    "weyl.finite_type": _ITEM_10,
    "weyl.detect_finite_object": _ITEM_10,
    "ydmod.transposition_module": "README quick start (tests/test_readme.py runs it)",
    "__init__.__version__": "package metadata",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


_SELF = ("self", "cls")


def _identifiers(nodes, strings: bool = False):
    """(identifier, kind): kind "bare" for an ``ast.Name``, which can only
    mean a module-level definition; "self" for an attribute of ``self`` or
    ``cls``, which means a method of the enclosing class; "attr" for any
    other attribute or string."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id, "bare"
            elif isinstance(sub, ast.Attribute):
                on_self = isinstance(sub.value, ast.Name) and sub.value.id in _SELF
                yield sub.attr, "self" if on_self else "attr"
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    yield sub.value, "attr"


def _assigned(node: ast.AST) -> list[str]:
    """The names a module-level ``name = ...`` or ``name: T = ...`` binds;
    none for any other statement."""
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return []
    return [t.id for t in targets] if all(isinstance(t, ast.Name) for t in targets) else []


def unreached(package: Path, bench: list[Path], keep=()) -> dict[str, str]:
    """{qualname: "file:line"} of every checked definition in ``package``
    that neither the roots nor the definitions in ``keep`` reach; a
    method of an unreached class is left out, since its class stands for
    it.  A ``keep`` definition is listed unless a root reaches it."""
    where: dict[str, str] = {}  # qualname -> file:line
    by_name: dict[str, list[str]] = {}
    follow: dict[str, list[ast.AST]] = {}  # qualname -> the nodes it reaches from
    owner: dict[str, str] = {}  # qualname of a class or method -> its class
    bases: dict[str, list[str]] = {}  # class qualname -> base names
    roots: list[ast.AST] = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                assigned = _assigned(node)
                if not assigned:
                    roots.append(node)
                for name in assigned:
                    qualname = f"{path.stem}.{name}"
                    where[qualname] = f"{path.relative_to(package.parent)}:{node.lineno}"
                    by_name.setdefault(name, []).append(qualname)
                    follow[qualname] = [node]
                continue
            members = [(f"{path.stem}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                bases[members[0][0]] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                implicit = [*node.bases, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, _DEFS) and not _dunder(item.name):
                        members.append((f"{path.stem}.{node.name}.{item.name}", item))
                    else:
                        implicit.append(item)
                follow[members[0][0]] = implicit
                owner.update((qualname, members[0][0]) for qualname, _ in members)
            for qualname, item in members:
                where[qualname] = f"{path.relative_to(package.parent)}:{item.lineno}"
                by_name.setdefault(item.name, []).append(qualname)
                follow.setdefault(qualname, [item])

    reached: set[str] = set()
    words = list(_identifiers(roots))
    for path in bench:
        words += _identifiers([ast.parse(path.read_text())], strings=True)

    def lineage(cls: str) -> list[str]:
        """The class and its bases defined in the package, transitively."""
        out = [cls]
        for base in bases[cls]:
            for q in by_name.get(base, []):
                if q in bases:
                    out += lineage(q)
        return out

    def definitions(identifiers, cls=None):
        # a module-level qualname is "module.name"; a method's has one dot more
        for word, kind in identifiers:
            if kind == "self":
                if cls is not None:
                    yield from (q for c in lineage(cls) if (q := f"{c}.{word}") in where)
            else:
                yield from (
                    q for q in by_name.get(word, []) if kind == "attr" or q.count(".") == 1
                )

    def named_in(qualname):
        return definitions(_identifiers(follow[qualname]), owner.get(qualname))

    def walk(todo, skip=frozenset()):
        while todo:
            qualname = todo.pop()
            if qualname not in reached and qualname not in skip:
                reached.add(qualname)
                todo += named_in(qualname)

    walk([ENTRY, *definitions(words)])
    kept = {q for q in keep if q in where and q not in reached}
    walk([q for k in kept for q in named_in(k)], skip=kept)
    dead = where.keys() - reached
    return {q: at for q, at in where.items() if q in dead and q.rsplit(".", 1)[0] not in dead}


def _project_unreached() -> dict[str, str]:
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return unreached(PACKAGE, bench, keep=ALLOWLIST)


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
            return lib.helper() + lib.Box().used() + lib.Other() + TABLE["k"]()

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

        class Base:
            def inherited(self):
                pass

            def overridden(self):
                pass

        class Box(Base):
            def __init__(self):
                self.x = _from_init()

            def used(self):
                return self.inherited() + self.lookalike()

            def overridden(self):
                pass

            def unused(self):
                pass

            def shadow(self):
                pass

        def _from_init():
            pass

        class Other:
            def lookalike(self):
                return self.overridden()

        class Ghost:
            def method(self):
                pass
        """
    ))
    bench = tmp_path / "layers.py"
    bench.write_text('PATCH = [(lib, "benched")]\n')
    # a bare name (the parameter shadow) reaches no method of that name, and
    # self.<name> reaches only the method of its class or a base: Base.inherited,
    # not Other.lookalike or either overridden method
    dead = {
        "lib.dead",
        "lib.Base.overridden",
        "lib.Box.unused",
        "lib.Box.shadow",
        "lib.Box.overridden",
        "lib.Other.lookalike",
        "lib.Ghost",
    }
    assert set(unreached(package, [])) == dead | {"lib.benched"}
    assert set(unreached(package, [bench])) == dead


def test_guard_checks_assigned_names_and_follows_kept_definitions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text(textwrap.dedent(
        """
        from . import lib

        def main():
            return lib.LIMIT

        print(lib.SHOWN)
        """
    ))
    (package / "lib.py").write_text(textwrap.dedent(
        """
        LIMIT: int = _limit()
        SHOWN = 1
        UNREAD = _from_unread()
        BENCHED = 2
        Alias = int

        def _limit():
            return 3

        def _from_unread():
            pass

        def kept(x: Alias) -> Alias:
            return also_kept() + _from_kept()

        def also_kept():
            pass

        def _from_kept():
            pass
        """
    ))
    bench = tmp_path / "layers.py"
    bench.write_text('PATCH = [(lib, "BENCHED")]\n')
    # an assigned name is reached by a read, a module-level statement or a
    # bench string, and its value only through it; a kept definition reaches
    # what it names, its annotations included, but not another kept one
    dead = {"lib.UNREAD", "lib._from_unread", "lib.kept", "lib.also_kept"}
    assert set(unreached(package, [bench], keep={"lib.kept", "lib.also_kept"})) == dead
    assert set(unreached(package, [bench])) == dead | {"lib.Alias", "lib._from_kept"}
    assert set(unreached(package, [], keep={"lib.kept"})) == {
        "lib.UNREAD",
        "lib._from_unread",
        "lib.kept",
        "lib.BENCHED",
    }


def unread_oracles(oracles: Path, tests: list[Path]) -> set[str]:
    """Top-level definitions of ``oracles`` that no file of ``tests`` reads
    as a name or an attribute; an import alone does not count."""
    defined = {node.name for node in ast.parse(oracles.read_text()).body if isinstance(node, _DEFS)}
    read = {word for path in tests for word, _ in _identifiers([ast.parse(path.read_text())])}
    return defined - read


def test_every_oracle_is_read_by_a_test():
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    assert unread_oracles(ROOT / "tests" / "oracles.py", tests) == set()


def test_unread_oracles_sees_names_attributes_and_bare_imports(tmp_path):
    (tmp_path / "oracles.py").write_text(textwrap.dedent(
        """
        def called():
            return only_by_oracles()

        def only_by_oracles():
            pass

        def by_attribute():
            pass

        def imported_only():
            pass

        class Model:
            pass
        """
    ))
    (tmp_path / "test_x.py").write_text(textwrap.dedent(
        """
        import oracles
        from oracles import Model, called, imported_only

        def test_x():
            assert called() is oracles.by_attribute() is Model
        """
    ))
    assert unread_oracles(tmp_path / "oracles.py", [tmp_path / "test_x.py"]) == {
        "only_by_oracles",
        "imported_only",
    }


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

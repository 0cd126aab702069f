"""Guard against dead library code: every top-level function and class of
``src/qnichols``, and every method of a top-level class, must be named
somewhere in ``src``, ``tests`` or ``bench`` besides its own definition.  A
re-export in the package ``__init__`` is not a use, and that file binds nothing
but ``__version__``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qnichols"


def _definitions():
    """(file, line, name) of every checked definition; dunders are exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += node.body
            for item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield path, item.lineno, item.name


def test_every_definition_is_named_elsewhere():
    words = Counter()
    for directory in ("src", "tests", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                words.update(re.findall(r"\w+", path.read_text()))
    # the definition itself accounts for one occurrence
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, line, name in _definitions()
        if words[name] <= 1
    ]
    assert dead == []


def test_package_top_level_binds_only_the_version():
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, *statements = module.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    # an import, def or class has no targets, so it stands for itself here
    bound = [ast.unparse(t) for s in statements for t in getattr(s, "targets", [s])]
    assert bound == ["__version__"]

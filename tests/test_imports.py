"""Every imported name is used by the module that imports it.

Each ``.py`` file under ``src/``, ``tests/`` and ``bench/`` is scanned with
the ast module.  An import binds a name; the name counts as used when the
module reads it anywhere (``ast.Name``) or lists it in ``__all__``.  A line
marked ``# noqa: F401`` is a deliberate re-export and is skipped.  An unused
import hides what a module really depends on and keeps dead modules loaded.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bindings(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def _unused(path):
    """(name, line) of each import in the file that the module never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used(tree)
    return [(name, line) for name, line in _bindings(tree)
            if name not in used and "noqa: F401" not in lines[line - 1]]


def test_every_import_is_used():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for top in ("src", "tests", "bench")
              for path in sorted((ROOT / top).rglob("*.py"))
              for name, line in _unused(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_sees_an_unused_import_and_honours_noqa(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os.path\nimport sys  # noqa: F401\n"
                    "from math import pi, tau as turn\nprint(pi)\n"
                    "__all__ = ['json']\nimport json\n")
    assert _unused(path) == [("os", 1), ("turn", 3)]

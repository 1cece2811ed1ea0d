"""Every public function and class of the library has a caller outside the tests.

Each module of ``src/qphelm`` is scanned with the ast module for its public
top-level ``def`` and ``class`` names (those not starting with ``_``).  A name
counts as used when some code in ``src/``, ``bench/`` or the README's Python
blocks refers to it: a call, an attribute or name reference, or an import.
A public name that only the tests call is a test helper shipped with the
library; it belongs under ``tests/``.  The only exceptions are names the
benchmark's tracer looks up by their dotted names.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qphelm"

# Public names used only in ways the scan cannot see.
_TRACED = "bench/qpbench/spans.py traces it by its dotted name, " \
          "and its install looks every traced name up"
ALLOWED = {
    "rescaled_operator": _TRACED,
    "green_hessian": _TRACED,
}


def _sources():
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.read_text()
    yield from re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          flags=re.MULTILINE | re.DOTALL)


def _referenced():
    """Every name referred to in the scanned sources (a definition is no reference)."""
    names = set()
    for text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public():
    """(module, name) of every public top-level function and class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.append((path.stem, node.name))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = _referenced()
    unused = [f"{module}.{name}" for module, name in _public()
              if name not in referenced and name not in ALLOWED]
    assert not unused, "public names only the tests use: " + ", ".join(unused)


def _traced():
    """The keys of TRACED in bench/qpbench/spans.py, as "module.name"."""
    tree = ast.parse((ROOT / "bench" / "qpbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {key.value for key in node.value.keys}
    raise AssertionError("spans.py defines no TRACED")


def test_allowlist_names_real_unreferenced_names():
    # an allowed name must be public, unreferenced and looked up by the tracer
    public = {name: f"{module}.{name}" for module, name in _public()}
    referenced = _referenced()
    traced = _traced()
    stale = sorted(name for name in ALLOWED if name not in public or name in referenced
                   or public[name] not in traced)
    assert not stale, stale

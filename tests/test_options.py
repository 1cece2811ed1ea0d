"""Every defaulted parameter of the library has a caller that sets it.

Each ``def`` in ``src/qphelm`` is scanned with the ast module.  A parameter
with a default counts as used when some call of a function with the same
name, anywhere in ``src/``, ``bench/``, ``tests/`` or the README's Python
blocks, passes it by keyword or by position; a call ``C(...)`` of a class
counts as a call of ``C.__init__``.  An option that no caller sets
only multiplies the configurations that tests and benchmarks must cover, so
it should be a constant instead.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qphelm"

# Options set only through ** or an aliased callee, which the scan cannot see.
ALLOWED = {
    ("make_curve", "a"): "cli passes it through **cfg.shape_params",
    ("make_curve", "b"): "cli passes it through **cfg.shape_params",
    ("solve_dirichlet", "solve_tol"): "cli calls the solver as `solve`, "
                                      "from tolerances.solve",
    ("solve_neumann", "solve_tol"): "cli calls the solver as `solve`, "
                                    "from tolerances.solve",
    ("ntilde_series", "degree"): "test_specfun calls it as `build`",
}


def _sources():
    for top in ("src", "bench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.read_text()
    yield from re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          flags=re.MULTILINE | re.DOTALL)


def _calls():
    """name -> list of (positional count, keyword names) over every call site."""
    calls = {}
    for text in _sources():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            # *args may fill any positional slot
            npos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            calls.setdefault(name, []).append((npos, keywords))
    return calls


def _defaulted():
    """(module, function, parameter, positional index or None) per defaulted parameter."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # method -> its class
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if id(node) in methods and positional \
                and positional[0].arg in ("self", "cls") else 0
            name = methods[id(node)] if node.name == "__init__" and id(node) in methods \
                else node.name
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                out.append((path.stem, name, arg.arg, i - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((path.stem, name, arg.arg, None))
    return out


def _unset(calls, name, param, index):
    return not any(param in keywords or (index is not None and npos > index)
                   for npos, keywords in calls.get(name, ()))


def test_every_option_has_a_caller():
    calls = _calls()
    unset = [f"{module}.{name}({param}=)"
             for module, name, param, index in _defaulted()
             if (name, param) not in ALLOWED and _unset(calls, name, param, index)]
    assert not unset, "options no caller sets: " + ", ".join(unset)


def test_allowlist_names_real_options():
    options = {(name, param) for _, name, param, _ in _defaulted()}
    assert set(ALLOWED) <= options, sorted(set(ALLOWED) - options)

"""Only qpgreen calls the Ewald oracle and the pointwise regular part.

``qpgreen.ewald_oracle`` sums G by Ewald's split.  Inside qpgreen it serves
the reduced points beyond the expansion's radius and the Green calls made
before the expansion is built (whose coefficients are lattice sums, with no
Ewald value sampled); everywhere else it is the independent reference that
checks the expansion.  A library module that called it would put an Ewald sum back on a
hot path, and a check computed by the code under test would show nothing.

``qpgreen.regular_part`` evaluates R point by point.  Every curve table goes
through ``qpgreen.pair_tables``, which takes the separable product where the
curve's disk allows it and ``regular_part`` otherwise; a caller outside
qpgreen would build an N^2 difference table past that route.

Each module of ``src/qphelm`` is scanned with the ast module; a call, a
reference passed on or an import of the name all count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qphelm"
ORACLE = "ewald_oracle"

# (module, enclosing function) outside qpgreen that may call the oracle.
ALLOWED = {
    ("cli", "_cmd_selftest"): "the selftest checks the expansion and the "
                              "Ewald split against the oracle",
    ("cli", "_cmd_solve_bvp"): "sup_probe_error compares the solved field "
                               "with the manufactured source's G",
    ("cli", "_cmd_sweep_epsilon"): "rel_mismatch compares the fitted far "
                                   "field with the limit charge times G",
}

# (module, enclosing function) outside qpgreen that may call regular_part.
REGULAR_PART_ALLOWED = {
    ("cli", "_cmd_selftest"): "the selftest checks regular_part itself "
                              "against the oracle",
}

def _uses(name):
    """(module, enclosing top-level name) of every reference to ``name``.

    Calls, references passed on and ``from .qpgreen import`` all count.
    """
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used = node.id == name
                elif isinstance(node, ast.Attribute):
                    used = node.attr == name
                elif isinstance(node, ast.ImportFrom):
                    used = any(alias.name == name for alias in node.names)
                else:
                    used = False
                if used:
                    out.add((path.stem, getattr(top, "name", "<module>")))
    return out


def test_only_qpgreen_calls_the_ewald_oracle():
    outside = sorted(f"{module}.{func}" for module, func in _uses(ORACLE)
                     if module != "qpgreen" and (module, func) not in ALLOWED)
    assert not outside, "Ewald oracle called outside qpgreen: " + ", ".join(outside)


def test_only_the_table_builders_call_regular_part():
    outside = sorted(f"{module}.{func}" for module, func in _uses("regular_part")
                     if module != "qpgreen"
                     and (module, func) not in REGULAR_PART_ALLOWED)
    assert not outside, "regular_part called outside qpgreen: " + ", ".join(outside)


def test_allowlist_names_real_callers():
    uses = _uses(ORACLE)
    assert set(ALLOWED) <= uses, sorted(set(ALLOWED) - uses)


def test_regular_part_allowlist_names_real_callers():
    uses = _uses("regular_part")
    assert set(REGULAR_PART_ALLOWED) <= uses, sorted(set(REGULAR_PART_ALLOWED) - uses)

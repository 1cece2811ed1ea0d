"""The README's Python examples run against the current API.

Every ```python block of README.md is executed, in order, in one namespace,
so a later block may use names an earlier one defined.  The CLI reference
lists every configuration entry and exit code the CLI has.
"""

import re
from pathlib import Path

from qphelm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python examples"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_lists_every_config_entry_and_exit_code():
    text = README.read_text()
    assert not [e for e in cli._ENTRY.values() if f"| `{e}` |" not in text]
    codes = [code for _, code, _ in cli._EXITS]
    assert not [c for c in codes if f"\n| {c} |" not in text]

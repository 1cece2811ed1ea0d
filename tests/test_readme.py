"""The README's Python examples run against the current API.

Every ```python block of README.md is executed, in order, in one namespace,
so a later block may use names an earlier one defined.  The CLI reference
lists every configuration entry and exit code the CLI has, the rung pass
quotes the block and run sizes qpgreen uses, and the series radius quoted is
specfun's.
"""

import re
from pathlib import Path

from qphelm import cli, qpgreen, specfun

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


def test_readme_rung_pass_quotes_the_qpgreen_sizes():
    text = " ".join(README.read_text().split())
    rung_pass = text[text.index("**Rung pass.**"):text.index("**Real k.**")]
    cap_block = qpgreen._PHI_ENTRIES // (qpgreen._EXPANSION_CAP + 3)
    assert f"at most `{cap_block} × (cap + 3)` entries" in rung_pass
    assert f"the cap takes blocks of {cap_block} points" in rung_pass
    assert f"R's subtraction of `S₂(x)` goes in {qpgreen._S2_RUN:,}-point runs" in rung_pass
    assert f"the Ewald sum, whose points each carry every spatial shift, in " \
        f"{qpgreen._CHUNK:,}-point runs" in rung_pass
    assert f"Ewald serves every point, in the same {qpgreen._CHUNK:,}-point runs" in text


def test_readme_quotes_the_specfun_series_radius():
    text = " ".join(README.read_text().split())
    radius = f"{specfun.SERIES_RADIUS:g}"
    assert f"power series in `w = (k|x|)²` for `k|x| ≤ {radius}` " \
        "(`specfun.SERIES_RADIUS`)" in text
    assert f"A `z_max` above {radius} (`specfun.SERIES_RADIUS`) raises" in text
    assert f"trusted up to `|k|·ε·max|d| = {radius}`" in text
    assert f"A rung whose `|k x'|` can pass {radius}, specfun's series radius" in text

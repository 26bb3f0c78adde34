import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the Quick start block, as printed: a name it uses that the package no
    # longer exports fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "(Fraction(-1, 1), Fraction(1, 1), Fraction(-4, 1), Fraction(27, 1), Fraction(-248, 1))"
    assert lines[1].startswith("-0.48273")
    assert lines[3].startswith("0.9455")

"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_prints_what_the_readme_shows():
    # the ```python block, then the next fenced block: its output
    code, shown = re.search(r"```python\n(.*?)```\n.*?```\n(.*?)```", README.read_text(encoding="utf-8"), re.S).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == shown

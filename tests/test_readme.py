"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import pcml

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_prints_what_the_readme_shows():
    # the ```python block, then the next fenced block: its output
    code, shown = re.search(r"```python\n(.*?)```\n.*?```\n(.*?)```", README.read_text(encoding="utf-8"), re.S).groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == shown


def test_the_star_import_binds_no_module():
    # `from pcml import *` in the example binds the API, not `core` or `graphs`
    assert not [name for name in pcml.__all__ if isinstance(getattr(pcml, name), ModuleType)]
    namespace = {}
    exec("from pcml import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert "LieElement" in namespace and "core" not in namespace

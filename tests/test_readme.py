"""The README's library example runs as written against the public API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    exact, mc = map(float, out.getvalue().split())
    # the exact speed-up near its 4/3 limit, and the MC speed-up beside it
    assert abs(exact - 4 / 3) < 0.02
    assert abs(mc - exact) < 0.05

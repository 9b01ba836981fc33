"""The README's library example runs as written against the public API, and
its CLI lines parse with the CLI's own parser."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from boxsearch.cli import build_parser

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


def test_readme_cli_lines_parse():
    # each `boxsearch ...` line of the CLI block, its `\` continuations
    # joined, parses with the CLI's own parser (nothing is run)
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("boxsearch ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).subcommand == argv[0], line

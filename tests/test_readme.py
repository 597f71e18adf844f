"""The README's Python example and CLI commands run against the package."""

import re
import shlex
from pathlib import Path

import pytest

from frachh.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"```bash\n(.*?)```", TEXT, re.S)
    for line in block.splitlines()
    if line.startswith("frachh ")
]


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    examples = [b for b in blocks if "from frachh import" in b]
    assert examples, "README has no `from frachh import` example"
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[Path(a[a.index("--out") + 1]).name for a in COMMANDS]
)
def test_readme_cli_command_runs(argv, tmp_path, capsys):
    # Only the broken-sigma viability example documents a failing exit.
    expected = 1 if "--sigma-row4" in argv else 0
    argv = list(argv)
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert main(argv) == expected
    assert any(Path(argv[out]).iterdir())
    assert capsys.readouterr().out.strip()

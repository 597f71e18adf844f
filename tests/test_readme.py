"""The README's Python example runs against the installed package surface."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    examples = [b for b in blocks if "from frachh import" in b]
    assert examples, "README has no `from frachh import` example"
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()

"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    ari = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert -1.0 <= ari <= 1.0

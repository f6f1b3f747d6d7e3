"""The README's quick starts, library and CLI, run as written against the
package."""

import re
import shlex
from pathlib import Path

from sparsevmf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:quick start", "exec"), {})
    ari = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert -1.0 <= ari <= 1.0


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "sparsevmf"
        assert main(argv[1:]) == 0, line

import re
import shlex
from pathlib import Path

from loom.cli import main


def test_readme_python_examples_run():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_exit_0(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = [line.split("#")[0] for line in block.splitlines()]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "loom"
        assert main(argv[1:] + ["--out", str(tmp_path / "out")]) == 0, line

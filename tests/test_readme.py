"""The README's library example and command-line block run as written."""

import json
import pathlib
import re
import shlex

from entlab.channels import channel_to_json, state_to_json
from entlab.cli import main
from entlab.families import bell_state, bit_flip_correlated

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    decay, residual, value, lower, upper = map(float, capsys.readouterr().out.split())
    # the correlated bit flip is a mixture of local unitaries: every ratio is 1
    assert residual < 1e-12
    for x in (decay, value, lower, upper):
        assert abs(x - 1.0) < 1e-12


def command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_command_line_block_runs(tmp_path, monkeypatch):
    # the files the first command names, in the directory it runs in
    (tmp_path / "bitflip.json").write_text(json.dumps(channel_to_json(bit_flip_correlated(0.3))))
    (tmp_path / "bell.json").write_text(json.dumps(state_to_json(bell_state())))
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert lines
    for i, line in enumerate(lines):
        program, *args = shlex.split(line)
        assert program == "entlab"
        assert main(args + ["--out", f"report-{i}"]) == 0, line

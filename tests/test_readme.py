"""The README's library example runs as written."""

import pathlib
import re

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

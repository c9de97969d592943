"""The Python examples of README.md run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quickstart prints a strongly negative pair weight and a negative score
    weight, score = map(float, capsys.readouterr().out.split()[:2])
    assert weight < -1.0 and score < 0.0

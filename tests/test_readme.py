"""The Python examples of README.md run as written, in order, in one namespace, and its
``fmnec`` command lines parse."""

import re
import shlex
from pathlib import Path

from fmnec.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = _blocks("python")
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quickstart prints a strongly negative pair weight and a negative score
    weight, score = map(float, capsys.readouterr().out.split()[:2])
    assert weight < -1.0 and score < 0.0


def test_command_lines_parse():
    # flags are spelled out in full: a renamed or abbreviated flag here is a usage error
    lines = [shlex.split(line, comments=True)
             for block in _blocks("bash") for line in block.replace("\\\n", " ").splitlines()]
    commands = [build_parser().parse_args(words[1:]).command
                for words in lines if words[:1] == ["fmnec"]]
    assert sorted(commands) == ["eval", "predict", "prepare", "stats", "sweep-k", "train"]

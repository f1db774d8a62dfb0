"""README's examples run as written, so they cannot drift from the CLI and the library."""

import re
import shlex
from pathlib import Path

import pytest

from biphoton_sim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fences(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [" ".join(line.split("#")[0].split()) for block in fences("sh")
            for line in block.splitlines() if line.startswith("biphoton-sim ")]
# each example with every [...] option left out, and with every one given
RUNS = sorted({run for command in COMMANDS
               for run in (" ".join(re.sub(r"\[[^]]*\]", "", command).split()),
                           command.replace("[", "").replace("]", ""))})


def test_readme_has_examples():
    assert len(COMMANDS) >= 6, COMMANDS
    assert len(fences("python")) == 1


@pytest.mark.parametrize("line", RUNS)
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_library_example_prints_the_width_it_states(tmp_path, monkeypatch, capsys):
    (block,) = fences("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    width = capsys.readouterr().out.split()[0]
    assert f"# {float(width):.2f} ns" in block, width

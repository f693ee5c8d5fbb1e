"""The README's library tour and command-line examples run as printed.

The tour runs in-process; each `bergman-orlicz` example of the "Command
line" section runs through `python -m bergman_orlicz.cli` in a fresh
directory, so an example that writes a file writes it there.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    """The text under the README heading `## title`."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README,
                     re.M | re.S).group(1)


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _examples():
    """Each `bergman-orlicz` command of the command-line section, as argv
    after the program name, with its line continuations joined."""
    out = []
    for block in _blocks(_section("Command line"), "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bergman-orlicz "):
                out.append(shlex.split(line)[1:])
    return out


def test_library_tour_runs():
    (tour,) = _blocks(_section("Library tour"), "python")
    exec(compile(tour, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _examples(), ids=lambda argv: argv[0])
def test_command_line_example_exits_0(argv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "bergman_orlicz.cli", *argv],
                          cwd=tmp_path, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()

"""README recipes: every documented command and Python block runs.

Each ``mpqkd ...`` line of a fenced bash block runs through ``cli.main`` with
cheap search and trial counts appended (argparse keeps the last value of a
repeated flag), and each fenced Python block is executed as written.  The
module imports nothing beyond pytest and mpqkd, so it also shows that every
recipe runs on numpy alone.
"""

import re
import shlex
from pathlib import Path

import pytest

from mpqkd.cli import COMMANDS, VALIDATE_CHECKS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
RECIPES = [
    shlex.split(line, comments=True)[1:]
    for lang, body in BLOCKS
    if lang == "bash"
    for line in body.splitlines()
    if line.startswith("mpqkd ")
]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]

OPTIONS = {c.word: {o.key for o in c.options} for c in COMMANDS + VALIDATE_CHECKS}
CHEAP = (("max-evals", "100"), ("trials", "2000"))


def _word(argv):
    return argv[1] if argv[:1] == ["validate"] else argv[0]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse and usage errors exit this way
        return exc.code


@pytest.mark.parametrize("argv", RECIPES, ids=" ".join)
def test_readme_command_runs(capsys, argv):
    known = OPTIONS.get(_word(argv), ())
    cheap = [arg for key, value in CHEAP if key in known for arg in (f"--{key}", value)]
    code = _exit_code(argv + cheap)
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("source", SNIPPETS, ids=lambda s: s.splitlines()[-1][:40])
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_every_command_has_a_recipe():
    assert {_word(argv) for argv in RECIPES} == set(OPTIONS)
    assert SNIPPETS

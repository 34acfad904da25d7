"""Smoke test: every script in demos/ runs to completion and prints the
report recorded in tests/fixtures/cli_golden.json, and README's examples run
as written."""

import runpy
import shlex
import tempfile
from pathlib import Path

import pytest

from dytb import cli
from make_cli_golden import DEMOS, demo_key, demo_stdout_sha, read_golden

ROOT = Path(__file__).resolve().parent.parent


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, tmp_path, monkeypatch):
    # every temporary file a demo makes lands in tmp_path and is gone afterwards
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert demo_stdout_sha(out) == read_golden(demos=True)[demo_key(path)]
    assert list(tmp_path.iterdir()) == []


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(readme_block("Quick start", "python"), {})
    assert len(capsys.readouterr().out.split()) == 3


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands read and write files by relative path
    lines = [line for line in readme_block("Command line", "sh").splitlines() if line.startswith("dytb ")]
    assert len(lines) == 8
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()

"""Golden CLI transcripts: stdout and exit code, byte for byte.

``cli_transcripts.json`` holds the input files the commands read and,
per command, its argv (``{name}`` stands for the path of input file
``name``), exit code and exact stdout.  Any change to a report, an
error message or a normal form shows up here as a diff.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from pcml.cli import build_parser, run

DATA = json.loads((Path(__file__).parent / "cli_transcripts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", DATA["cases"], ids=[f"{k:02d}-{case['argv'][0]}" for k, case in enumerate(DATA["cases"])]
)
def test_cli_transcript(case, tmp_path):
    paths = {}
    for name, text in DATA["files"].items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    argv = [str(paths[arg[1:-1]]) if arg.startswith("{") else arg for arg in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    assert (status, out.getvalue()) == (case["exit"], case["stdout"])


def test_every_subcommand_has_a_transcript():
    # `suite` is exempt: test_acceptance.py pins each of its lines
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    covered = {case["argv"][0] for case in DATA["cases"]}
    assert set(sub.choices) - {"suite"} <= covered

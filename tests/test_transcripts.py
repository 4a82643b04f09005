"""Golden CLI transcripts: stdout and exit code, byte for byte.

``cli_transcripts.json`` holds the input files the commands read and,
per command, its argv (``{name}`` stands for the path of input file
``name``), exit code and exact stdout.  Any change to a report, an
error message or a normal form shows up here as a diff.

A case's test id depends on its argv alone, so inserting, removing or
moving a case renames no other: ``{argv[0]}-{digest}`` with the first
8 hex digits of the sha256 of the JSON argv.  The 30 cases that
predate this scheme keep the positional ids ``{k:02d}-{argv[0]}``
under which earlier test runs list them, found by their digest in
``POSITIONAL``.  That table is frozen: a new case never enters it, and
moving an old case keeps its id.
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from pcml.cli import build_parser, run

DATA = json.loads((Path(__file__).parent / "cli_transcripts.json").read_text(encoding="utf-8"))

POSITIONAL = [
    "e7133e8d", "8d5e7ca3", "2d2c66d5", "30b8773f", "b8d7968d", "cfc49dde",
    "32c7e6bf", "f404294e", "877eaa50", "95a1ce94", "36f930bc", "551e3b71",
    "bc4e2853", "c2bb4262", "76374a74", "2c2dbe6a", "2171d569", "47234eac",
    "ef2d6ba1", "a88a9f61", "52cd58c3", "fa8d57e6", "7154b87a", "b23d3e4c",
    "eaaaa850", "bcdb092f", "b57b53da", "1d6bf688", "43bdbad8", "410e546c",
]


def case_id(argv):
    digest = hashlib.sha256(json.dumps(argv).encode("utf-8")).hexdigest()[:8]
    if digest in POSITIONAL:
        return f"{POSITIONAL.index(digest):02d}-{argv[0]}"
    return f"{argv[0]}-{digest}"


IDS = [case_id(case["argv"]) for case in DATA["cases"]]


@pytest.mark.parametrize("case", DATA["cases"], ids=IDS)
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


def test_transcript_ids_are_distinct_and_new_cases_are_named_by_digest():
    assert len(set(IDS)) == len(IDS)
    assert case_id(["nf", "--graph", "cycle:4", "--element", "x0"]) == "nf-11485745"

"""Byte-for-byte transcript of the command line.

``golden_cli.json`` holds, for every command line in ``CASES``, what
``cli.main`` writes to stdout and stderr, its exit code and, for a case
with ``--out``, the file it writes.  The commands run in-process from the
``tests`` directory, so the fixtures under ``tests/cli_data`` are named by
the same relative path in every report, and with ``COLUMNS`` fixed, so
argparse's usage text does not wrap with the terminal.  CSV keeps its CRLF
line ends.  argparse's own messages are worded as Python 3.11 words them.
Regenerate only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from ssacode import cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"
OUT = "@out"  # stands for a fresh path outside the tests directory
FORMATS = ("json", "csv", "text")

W3 = "cli_data/w3.txt"  # the m=3 TC-dominant set
READS = "cli_data/reads.txt"  # mixed reads, a blank line and a CRLF line end
SSA_READS = "cli_data/ssa_reads.txt"
BAD_READS = "cli_data/bad_reads.txt"  # an X on line 2
SEQUENCE = "TCCCTCCCTCTTCTCTCTCTACCA"  # encode --m 3 --set tc-dominant --n 12 of C0FFEE


def _each_format(*argv):
    return [[*argv, "--format", fmt] for fmt in FORMATS]


CASES = [
    # check, one read
    *_each_format("check", "--m", "2", "--seq", "TTAA"),
    *_each_format("check", "--m", "2", "--seq", "TTTT"),
    ["check", "--m", "3", "--seq", "TCTCC"],
    ["check", "--m", "2", "--seq", "TTXX"],
    ["check", "--m", "1", "--seq", "TTAA"],
    ["check", "--seq", "TTAA"],
    ["check", "--m", "2"],
    ["check", "--m", "2", "--seq", "TTAA", "--seq-file", READS],
    # check, a file of reads
    *_each_format("check", "--m", "2", "--seq-file", READS),
    *_each_format("check", "--m", "2", "--seq-file", SSA_READS),
    *_each_format("check", "--m", "2", "--seq-file", BAD_READS),
    ["check", "--m", "2", "--seq-file", "cli_data/missing.txt"],
    # capacity
    *_each_format("capacity", "--m", "3", "--set", "tc-dominant"),
    *_each_format("capacity", "--set", "m4-heuristic"),
    *_each_format("capacity", "--set-file", W3),
    ["capacity", "--set", "block-concat-baseline", "--format", "json"],
    ["capacity", "--m", "5", "--set", "tc-dominant", "--tol", "1e-10", "--format", "json"],
    ["capacity", "--m", "3", "--set", "m4-heuristic", "--set-file", W3],
    ["capacity"],
    ["capacity", "--format", "json"],
    ["capacity", "--set", "tc-dominant"],
    ["capacity", "--m", "5", "--set", "m6-stage"],
    ["capacity", "--m", "4", "--set-file", W3],
    ["capacity", "--m", "5", "--set", "tc-dominant", "--tol", "1e-14"],
    ["capacity", "--m", "5", "--set", "tc-dominant", "--tol", "nan"],
    ["capacity", "--set", "no-such-set"],
    ["capacity", "--set-file", "cli_data/rc_pair.txt"],
    ["capacity", "--set-file", "cli_data/bad_symbol_set.txt"],
    ["capacity", "--set-file", "cli_data/missing.txt"],
    # count
    *_each_format("count", "--m", "3", "--set", "tc-dominant", "--n", "8"),
    ["count", "--set", "m4-heuristic", "--n", "10", "--format", "json"],
    ["count", "--set-file", W3, "--n", "7", "--format", "csv"],
    ["count", "--m", "3", "--set", "tc-dominant", "--n", "2"],
    ["count", "--set", "m6-stage", "--n", "4"],
    ["count", "--set-file", W3, "--n", "2"],
    ["count", "--n", "5"],
    ["count", "--m", "3", "--set", "tc-dominant"],
    # oracle
    *_each_format("oracle", "--m", "2", "--n", "4"),
    ["oracle", "--m", "3", "--n", "8", "--format", "json"],
    ["oracle", "--m", "3", "--n", "2"],
    ["oracle", "--m", "1", "--n", "4"],
    ["oracle", "--m", "2", "--n", "x"],
    # search
    *_each_format("search", "--m", "2", "--mode", "exhaustive"),
    ["search", "--m", "2", "--mode", "exhaustive", "--tol", "1e-10", "--format", "json"],
    *_each_format("search", "--m", "2", "--restarts", "2", "--iters", "5", "--seed", "3"),
    ["search", "--m", "3", "--restarts", "1", "--iters", "3", "--format", "json"],
    ["search", "--m", "2", "--mode", "local", "--tol", "1e-10"],
    ["search", "--m", "2", "--tol", "1e-10", "--restarts", "1"],
    ["search", "--m", "2", "--restarts", "0"],
    ["search", "--m", "2", "--iters", "-1"],
    ["search", "--m", "2", "--mode", "greedy"],
    # table
    *_each_format("table"),
    # encode
    *_each_format("encode", "--m", "3", "--set", "tc-dominant", "--n", "12",
                  "--payload", "C0FFEE"),
    ["encode", "--set", "m4-heuristic", "--n", "16", "--payload", "ff", "--format", "json"],
    ["encode", "--set-file", W3, "--n", "9", "--payload", "AB", "--format", "csv"],
    ["encode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--payload", "g"],
    ["encode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--payload", ""],
    ["encode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--payload", "0x1F"],
    ["encode", "--m", "3", "--set", "tc-dominant", "--n", "2", "--payload", "ff"],
    ["encode", "--m", "3", "--set", "tc-dominant", "--n", "12"],
    # decode
    *_each_format("decode", "--m", "3", "--set", "tc-dominant", "--n", "12",
                  "--seq", SEQUENCE),
    ["decode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--seq", SEQUENCE[:-1]],
    ["decode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--seq", "A" * 12],
    ["decode", "--m", "3", "--set", "tc-dominant", "--n", "12", "--seq", "TTXX"],
    ["decode", "--set-file", W3, "--n", "12", "--seq", SEQUENCE, "--format", "csv"],
    # the report in a file
    ["oracle", "--m", "2", "--n", "4", "--format", "json", "--out", OUT],
    ["table", "--format", "csv", "--out", OUT],
    ["check", "--m", "2", "--seq-file", READS, "--format", "text", "--out", OUT],
    ["capacity", "--m", "3", "--set", "tc-dominant", "--format", "csv", "--out", OUT],
    # usage
    [],
    ["frobnicate"],
    ["oracle", "--m", "2", "--n", "4", "--format", "xml"],
    ["table", "--extra"],
]


def run(argv):
    """What ``cli.main(argv)`` writes and returns, run from the tests
    directory with ``COLUMNS=80`` and no ``SSA_BUDGET``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("SSA_BUDGET", None)
        out = os.path.join(tmp, "report")
        os.chdir(HERE)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([out if a == OUT else a for a in argv])
                except SystemExit as stop:  # argparse and usage errors
                    code = stop.code
        finally:
            os.chdir(cwd)
        record = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                  "exit": code}
        if os.path.exists(out):
            with open(out, newline="") as fh:
                record["out"] = fh.read()
    return record


def _key(argv):
    return " ".join(argv)


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_transcript(argv):
    assert run(argv) == json.loads(GOLDEN.read_text())[_key(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({_key(a): run(a) for a in CASES},
                                 indent=1, sort_keys=True) + "\n")

"""Re-run the recorded mutants: each must make every test it names fail.

Usage: python tools/mutants.py

The table, ``tests/mutants.json``, is a JSON list.  Each entry has
``name``; ``file``, a path under ``src/``; ``snippet``, text that occurs
exactly once in that file; ``replacement``, the text it becomes; ``tests``,
the pytest ids that must fail with the mutant in place; and ``source``,
the CHANGES.md entry that recorded it.  Every named test is first looked
up in the unmutated tree.  Then each mutant is applied alone to a fresh
copy of ``src/`` in a temporary directory, and its named tests run against
that copy (``PYTHONPATH``), from the repository root, so the tests
themselves are the repository's.  A test that fails or errors kills the
mutant, and so does a run that stops before its tests (a mutant that
breaks the import of ``ssacode`` makes collection fail).  A test that
passes or is skipped leaves the mutant alive.  Prints one line per mutant.

Exits 0 if every named test of every mutant failed, 1 if some mutant left
a named test passing or skipped (it survives, in full or in part), and 2
if the table is malformed, a snippet does not occur exactly once or a
named test is not found: a change that moves mutated code or renames a
test must port its mutants.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
KEYS = {"name", "file", "snippet", "replacement", "tests", "source"}
# a test's line in pytest -v output: "<id> PASSED  [ 50%]"
OUTCOME = re.compile(r"^(\S+) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b")


class TableError(Exception):
    pass


def pytest(src: Path, args) -> subprocess.CompletedProcess:
    """pytest from the repository root, importing ``ssacode`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
                          env=env, cwd=ROOT, capture_output=True, text=True)


def load() -> list:
    """The table's entries, once every snippet and every test is found."""
    table = json.loads(TABLE.read_text())
    seen = set()
    for entry in table:
        if not isinstance(entry, dict) or set(entry) != KEYS or not entry["tests"]:
            raise TableError(f"{TABLE}: an entry needs exactly the keys {sorted(KEYS)} "
                             f"and at least one test: {entry!r}")
        if entry["name"] in seen:
            raise TableError(f"{TABLE}: mutant {entry['name']!r} is listed twice")
        seen.add(entry["name"])
        text = (ROOT / "src" / entry["file"]).read_text()
        if text.count(entry["snippet"]) != 1:
            raise TableError(f"mutant {entry['name']!r}: its snippet occurs "
                             f"{text.count(entry['snippet'])} times in src/{entry['file']}")
    tests = sorted({t for entry in table for t in entry["tests"]})
    proc = pytest(ROOT / "src", ["-q", "--collect-only", *tests])
    if proc.returncode != 0:  # 4: a test id not found
        raise TableError(f"the named tests do not all collect (pytest exited "
                         f"{proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return table


def run(entry: dict) -> list:
    """The named tests that the mutant left alive, each as "<id> <outcome>"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / entry["file"]
        target.write_text(target.read_text().replace(entry["snippet"], entry["replacement"]))
        where = subprocess.run(
            [sys.executable, "-c", "import ssacode; print(ssacode.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), cwd=ROOT,
            capture_output=True, text=True).stdout.strip()
        if where and not where.startswith(str(src)):
            raise TableError(f"the tests import ssacode from {where}, "
                             f"not from the mutated copy")
        proc = pytest(src, ["-v", *entry["tests"]])
    outcome = dict(m.groups() for m in map(OUTCOME.match, proc.stdout.splitlines()) if m)
    # a test with no outcome line did not run: collection stopped first
    return [f"{t} {outcome[t].lower()}" for t in entry["tests"]
            if outcome.get(t, "FAILED") not in ("FAILED", "ERROR")]


def main() -> int:
    try:
        mutants = load()
        survivors = 0
        for entry in mutants:
            alive = run(entry)
            survivors += bool(alive)
            verdict = "killed" if not alive else f"SURVIVED: {', '.join(alive)}"
            print(f"{entry['name']}: {verdict}", flush=True)
    except TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/mutants.py on a throwaway tree: a one-line package and one test."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

TEST_ID = "tests/test_value.py::test_value"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    (tmp_path / "src" / "ssacode").mkdir(parents=True)
    (tmp_path / "src" / "ssacode" / "__init__.py").write_text("VALUE = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_value.py").write_text(
        "import pytest\n"
        "import ssacode\n\n\n"
        "@pytest.mark.skipif(ssacode.VALUE == 3, reason='three')\n"
        "def test_value():\n"
        "    assert ssacode.VALUE == 1\n")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "TABLE", tmp_path / "tests" / "mutants.json")

    def run_table(*replacements, snippet="VALUE = 1\n", tests=(TEST_ID,)):
        mutants.TABLE.write_text(json.dumps([
            {"name": f"m{i}", "file": "ssacode/__init__.py", "snippet": snippet,
             "replacement": r, "tests": list(tests), "source": "a test"}
            for i, r in enumerate(replacements)]))
        return mutants.main()
    return run_table


def test_failed_test_kills(tree, capsys):
    assert tree("VALUE = 2\n") == 0
    assert capsys.readouterr().out.splitlines() == ["m0: killed", "1 of 1 mutants killed"]


def test_broken_import_kills(tree, capsys):
    # the test module does not collect, so pytest exits 2 with no test run
    assert tree("raise ImportError('mutated')\n") == 0
    assert "m0: killed" in capsys.readouterr().out


def test_passed_or_skipped_test_survives(tree, capsys):
    assert tree("VALUE = 2\n", "VALUE = 1  # the same\n", "VALUE = 3\n") == 1
    assert capsys.readouterr().out.splitlines() == [
        "m0: killed", f"m1: SURVIVED: {TEST_ID} passed",
        f"m2: SURVIVED: {TEST_ID} skipped", "1 of 3 mutants killed"]


@pytest.mark.parametrize("table", [
    {"snippet": "VALUE = 9\n"}, {"snippet": " "}, {"tests": (TEST_ID + "_gone",)}],
    ids=["snippet-missing", "snippet-twice", "test-missing"])
def test_malformed_table(tree, capsys, table):
    assert tree("VALUE = 2\n", **table) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")

import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ssacode import GeneratingSet, cli, tc_dominant_set, write_set_file

# ``ssacode table --format csv``, byte for byte (the csv module ends rows
# with CRLF).  Rates that move in their last bits must not move these.
TABLE_CSV = (
    b"m,computed_rate,reference_rate,abs_diff\r\n"
    b"2,1.1680,1.1679,8.70e-05\r\n"
    b"3,1.5515,1.5515,3.69e-05\r\n"
    b"4,1.5941,1.5940,5.53e-05\r\n"
    b"5,1.6979,1.6980,7.79e-05\r\n"
    b"7,1.7698,1.7698,4.47e-05\r\n"
    b"9,1.8131,1.8131,2.33e-06\r\n"
    b"11,1.8423,1.8423,8.10e-06\r\n"
)


def run_cli(*argv, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "ssacode", *argv],
                          capture_output=True, text=True, env=full_env)
    return proc


class TestCheck:
    def test_non_ssa_exit_1(self):
        proc = run_cli("check", "--m", "2", "--seq", "TTAA", "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["ssa"] is False
        assert report["witness"] == {"i": 1, "j": 3, "m": 2}

    def test_ssa_exit_0(self):
        proc = run_cli("check", "--m", "2", "--seq", "TTTT")
        assert proc.returncode == 0

    def test_short_sequence_is_ssa(self):
        proc = run_cli("check", "--m", "3", "--seq", "TCTCC")
        assert proc.returncode == 0

    def test_malformed_sequence_usage_error(self):
        proc = run_cli("check", "--m", "2", "--seq", "TTXX")
        assert proc.returncode == 2

    def test_seq_report_keys(self):
        proc = run_cli("check", "--m", "2", "--seq", "TTAA", "--format", "json")
        report = json.loads(proc.stdout)
        assert set(report) == {"command", "config", "ssa", "witness"}
        assert report["config"] == {"m": 2, "seq": "TTAA"}

    def test_seq_file_mixed(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("TTTT\nTTAA\n\nTCTCC\r\nGTTAA\n")
        proc = run_cli("check", "--m", "2", "--seq-file", str(path),
                       "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["config"] == {"m": 2, "seq_file": str(path)}
        assert (report["reads"], report["non_ssa"]) == (5, 2)
        assert report["columns"] == ["index", "length", "ssa", "i", "j"]
        assert report["rows"] == [
            [1, 4, True, None, None],
            [2, 4, False, 1, 3],
            [3, 0, True, None, None],
            [4, 5, True, None, None],
            [5, 5, False, 2, 4],
        ]

    def test_seq_file_all_ssa_exit_0(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("TTTT\nTCTCC\n")
        proc = run_cli("check", "--m", "2", "--seq-file", str(path),
                       "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "index,length,ssa,i,j"

    def test_seq_file_invalid_read_names_line(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("TTTT\nTTNA\n")
        proc = run_cli("check", "--m", "2", "--seq-file", str(path))
        assert proc.returncode == 1
        assert "line 2: invalid symbol 'N'" in proc.stderr
        assert proc.stdout == ""

    def test_seq_file_missing(self, tmp_path):
        proc = run_cli("check", "--m", "2", "--seq-file", str(tmp_path / "none"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_seq_and_seq_file_exclusive(self, tmp_path):
        path = tmp_path / "reads.txt"
        path.write_text("TTTT\n")
        proc = run_cli("check", "--m", "2", "--seq", "TTAA", "--seq-file", str(path))
        assert proc.returncode == 2
        assert run_cli("check", "--m", "2").returncode == 2


    def test_set_file_and_read_name_a_bad_symbol_alike(self, tmp_path):
        reads = tmp_path / "reads.txt"
        reads.write_text("TTTT\nTTNA\n")
        words = tmp_path / "set.txt"
        words.write_text("TT\nTN\n")
        from_reads = run_cli("check", "--m", "2", "--seq-file", str(reads))
        from_set = run_cli("capacity", "--set-file", str(words))
        assert from_set.returncode == 1
        tail = ", line 2: invalid symbol 'N' in sequence (expected A/C/G/T)\n"
        assert from_reads.stderr == f"error: {reads}{tail}"
        assert from_set.stderr == f"error: {words}{tail}"

    def test_set_file_names_the_line_of_a_wrong_length_word(self, tmp_path):
        words = tmp_path / "set.txt"
        words.write_text("TTT\n# comment\nTC\n")
        proc = run_cli("capacity", "--set-file", str(words))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {words}, line 3: mixed word lengths: 'TTT' vs 'TC'\n"


def usage_error(capsys, *argv):
    """The message of a usage error (exit 2) from ``ssacode argv``."""
    from ssacode import cli
    with pytest.raises(SystemExit) as stop:
        cli.main(list(argv))
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("check", "--seq", "ACGT"),
        ("capacity", "--set", "tc-dominant"),
        ("count", "--n", "4", "--set", "tc-dominant"),
        ("oracle", "--n", "4"),
        ("search", "--mode", "exhaustive"),
        ("encode", "--n", "12", "--set", "tc-dominant", "--payload", "ff"),
        ("decode", "--n", "12", "--set", "tc-dominant", "--seq", "TTTTTTTTTTTT"),
    ])
    @pytest.mark.parametrize("m", ["1", "0", "-3"])
    def test_m_below_2(self, capsys, argv, m):
        err = usage_error(capsys, *argv, "--m", m)
        assert err.endswith(f"argument --m: must be at least 2, got {m}")

    @pytest.mark.parametrize("argv", [
        ("count", "--set", "tc-dominant"),
        ("oracle",),
        ("encode", "--set", "tc-dominant", "--payload", "ff"),
        ("decode", "--set", "tc-dominant", "--seq", "TT"),
    ])
    def test_n_below_m(self, capsys, argv):
        err = usage_error(capsys, *argv, "--m", "3", "--n", "2")
        assert err.endswith("--n 2 is smaller than the word length --m 3")

    # --tol=VALUE: argparse would read "--tol -1e-10" as two options
    @pytest.mark.parametrize("argv", [
        ("capacity", "--set", "tc-dominant", "--m", "3"),
        ("search", "--m", "2", "--mode", "exhaustive"),
    ], ids=["capacity", "search"])
    @pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf", "-inf", "1", "2",
                                     "1e-14", "1e-300"])
    def test_bad_tol(self, capsys, argv, tol):
        err = usage_error(capsys, *argv, f"--tol={tol}")
        assert "argument --tol: tol must be finite with 1e-13 <= tol < 1, got" in err

    @pytest.mark.parametrize("option, value, low", [
        ("--restarts", "0", 1), ("--restarts", "-2", 1), ("--iters", "-1", 0)])
    def test_bad_search_counts(self, capsys, option, value, low):
        err = usage_error(capsys, "search", "--m", "2", option, value)
        assert err.endswith(f"argument {option}: must be at least {low}, got {value}")

    @pytest.mark.parametrize("argv", [
        ("capacity",),
        ("count", "--n", "6"),
        ("encode", "--n", "8", "--payload", "ff"),
        ("decode", "--n", "8", "--seq", "GCTTCACC"),  # "ff" encoded
    ], ids=["capacity", "count", "encode", "decode"])
    def test_m_against_set_file(self, tmp_path, capsys, argv):
        path = tmp_path / "w3.txt"
        write_set_file(tc_dominant_set(3), path)
        err = usage_error(capsys, *argv, "--m", "5", "--set-file", str(path))
        assert err.endswith(f"--m 5 does not match the word length 3 of --set-file {path}")
        assert cli.main([*argv, "--m", "3", "--set-file", str(path)]) == 0

    @pytest.mark.parametrize("name", ["tc-dominant", "m4-heuristic"])
    @pytest.mark.parametrize("argv", [
        ("capacity",),
        ("count", "--n", "6"),
        ("encode", "--n", "8", "--payload", "ff"),
        ("decode", "--n", "8", "--seq", "GCTTCACC"),
    ], ids=["capacity", "count", "encode", "decode"])
    def test_set_with_set_file(self, tmp_path, capsys, argv, name):
        # two sets named at once: neither is taken in silence, even when the
        # file's word length is the --m given
        path = tmp_path / "w3.txt"
        write_set_file(tc_dominant_set(3), path)
        err = usage_error(capsys, *argv, "--m", "3", "--set", name, "--set-file", str(path))
        assert err.endswith(f"--set {name} and --set-file {path} name two sets; give one")

    @pytest.mark.parametrize("name, m", [
        ("m4-heuristic", 4), ("m6-stage", 6), ("block-concat-baseline", 2)])
    @pytest.mark.parametrize("argv", [
        ("capacity",),
        ("count", "--n", "8"),
        ("encode", "--n", "8", "--payload", "ff"),
        ("decode", "--n", "8", "--seq", "TTTTTTTT"),
    ], ids=["capacity", "count", "encode", "decode"])
    def test_m_against_builtin_set(self, capsys, argv, name, m):
        err = usage_error(capsys, *argv, "--m", "3", "--set", name)
        assert err.endswith(f"--m 3 does not match the word length {m} of --set {name}")
        if argv[0] in ("capacity", "count"):
            assert cli.main([*argv, "--m", str(m), "--set", name]) == 0

    @pytest.mark.parametrize("name, m", [
        ("m4-heuristic", 4), ("m6-stage", 6), ("block-concat-baseline", 2)])
    @pytest.mark.parametrize("argv", [
        ("count",),
        ("encode", "--payload", "ff"),
        ("decode", "--seq", "T"),
    ], ids=["count", "encode", "decode"])
    def test_n_below_builtin_set(self, capsys, argv, name, m):
        err = usage_error(capsys, *argv, "--n", str(m - 1), "--set", name)
        assert err.endswith(f"--n {m - 1} is smaller than the word length {m} "
                            f"of --set {name}")

    def test_n_below_set_file(self, tmp_path, capsys):
        path = tmp_path / "w3.txt"
        write_set_file(tc_dominant_set(3), path)
        err = usage_error(capsys, "count", "--n", "2", "--set-file", str(path))
        assert err.endswith(f"--n 2 is smaller than the word length 3 of --set-file {path}")

    def test_no_iterations_is_fine(self):
        proc = run_cli("search", "--m", "2", "--restarts", "1", "--iters", "0",
                       "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["candidates_examined"] == 1

    def test_n_equal_to_m_is_fine(self):
        proc = run_cli("count", "--m", "3", "--n", "3", "--set", "tc-dominant",
                       "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == "32"


class TestCapacity:
    def test_tc_dominant_m5(self):
        proc = run_cli("capacity", "--m", "5", "--set", "tc-dominant",
                       "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert abs(report["rate_bits_per_nt"] - 1.6980) < 1e-3

    def test_m4_heuristic(self):
        proc = run_cli("capacity", "--set", "m4-heuristic", "--format", "json")
        report = json.loads(proc.stdout)
        assert abs(report["rate_bits_per_nt"] - 1.5940) < 1e-3
        assert report["set_size"] == 108

    def test_schema_stable(self):
        proc = run_cli("capacity", "--set", "m4-heuristic", "--format", "json")
        report = json.loads(proc.stdout)
        assert set(report) == {"command", "config", "set_size", "m",
                               "vertex_count", "arc_count", "spectral_radius",
                               "rate_bits_per_nt", "method", "residual",
                               "iterations"}

    def test_set_file(self, tmp_path):
        path = tmp_path / "set.txt"
        write_set_file(GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"]), path)
        proc = run_cli("capacity", "--set-file", str(path), "--format", "json")
        report = json.loads(proc.stdout)
        assert abs(report["rate_bits_per_nt"] - 1.1679) < 1e-3

    def test_missing_set_is_domain_error(self):
        proc = run_cli("capacity", "--format", "json")
        assert proc.returncode == 1

    def test_invalid_set_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("TT\nAA\n")
        proc = run_cli("capacity", "--set-file", str(path))
        assert proc.returncode == 1

    def test_set_file_words_too_long(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text("A" * 32 + "\n")
        assert cli.main(["capacity", "--set-file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: word length m must be in 1..31, got 32\n"

    def test_capacity_budget_env(self):
        # the certified rate is charged for the 2^m masks it reads
        proc = run_cli("capacity", "--set", "tc-dominant", "--m", "11",
                       env={"SSA_BUDGET": "1024"})
        assert proc.returncode == 1
        assert "2^11 binary words exceed" in proc.stderr
        assert proc.stdout == ""
        # the codec's walk (one row of 1,408 words) is admitted; its read
        # of the set's 4^6 word codes is not
        proc = run_cli("encode", "--m", "6", "--n", "6", "--set", "tc-dominant",
                       "--payload", "1", env={"SSA_BUDGET": "3000"})
        assert proc.returncode == 1
        assert "4^6 words exceed" in proc.stderr
        assert proc.stdout == ""

    def test_not_converged_exits_1(self, monkeypatch, capsys):
        from ssacode import capacity, cli

        def unconverged(s, tol=1e-10):
            return capacity.CapacityReport(
                m=s.m, vertex_count=len(s), arc_count=0, spectral_radius=2.0,
                rate_bits_per_nt=1.0, method="power-iteration", residual=3e-4,
                iterations=100000, converged=False)

        monkeypatch.setattr(capacity, "rate_of_set", unconverged)
        assert cli.main(["capacity", "--set", "m4-heuristic", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert "did not converge" in err
        assert "residual 0.0003" in err
        report = json.loads(out)
        assert set(report) == {"command", "config", "set_size", "m",
                               "vertex_count", "arc_count", "spectral_radius",
                               "rate_bits_per_nt", "method", "residual",
                               "iterations"}


class TestCountAndOracle:
    def test_count(self):
        proc = run_cli("count", "--m", "3", "--n", "4", "--set", "tc-dominant",
                       "--format", "json")
        assert json.loads(proc.stdout)["count"] == "96"

    def test_oracle(self):
        proc = run_cli("oracle", "--m", "2", "--n", "4", "--format", "json")
        assert json.loads(proc.stdout)["count"] == "240"

    @pytest.mark.parametrize("budget", ["abc", "-5"])
    def test_bad_budget_env(self, budget):
        proc = run_cli("oracle", "--m", "2", "--n", "3", env={"SSA_BUDGET": budget})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"error: SSA_BUDGET must be a non-negative integer, "
                               f"got {budget!r}\n")

    # the DP of n - m + 1 rows of walk counts, refused before any row is
    # built (the default budget 4^13 is pinned here): one count per vertex
    # walked, the 4 kept masks of the count's quotient or the |S| = 32
    # words of the encoder's table
    WALK_BUDGET_ERROR = ("error: 99999998 rows of {} walk counts exceed the "
                         "enumeration budget 67108864\n")

    def test_count_walk_budget(self):
        proc = run_cli("count", "--m", "3", "--set", "tc-dominant", "--n", "100000000",
                       env={"SSA_BUDGET": str(4 ** 13)})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == self.WALK_BUDGET_ERROR.format(4)

    def test_encode_walk_budget(self):
        proc = run_cli("encode", "--m", "3", "--set", "tc-dominant", "--n", "100000000",
                       "--payload", "C0FFEE", env={"SSA_BUDGET": str(4 ** 13)})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == self.WALK_BUDGET_ERROR.format(32)

    def test_oracle_budget_env(self):
        proc = run_cli("oracle", "--m", "2", "--n", "8",
                       env={"SSA_BUDGET": "100"})
        assert proc.returncode == 1
        assert "budget" in proc.stderr


class TestSearch:
    def test_exhaustive_m2(self):
        proc = run_cli("search", "--m", "2", "--mode", "exhaustive",
                       "--format", "json")
        report = json.loads(proc.stdout)
        assert abs(report["best_rate"] - 1.1679) < 1e-3
        assert report["candidates_examined"] == 64

    def test_local_m2(self):
        proc = run_cli("search", "--m", "2", "--mode", "local",
                       "--restarts", "3", "--iters", "25", "--seed", "1",
                       "--format", "json")
        report = json.loads(proc.stdout)
        assert abs(report["best_rate"] - 1.1679) < 1e-3
        assert report["config"]["seed"] == 1
        assert report["config"]["tol"] == 1e-8  # the tolerance it ran at

    def test_local_rejects_tol(self, capsys):
        err = usage_error(capsys, "search", "--m", "2", "--mode", "local",
                          "--tol", "1e-6")
        assert "--tol applies to --mode exhaustive only" in err
        # also when the mode is local by default
        usage_error(capsys, "search", "--m", "2", "--tol", "1e-10")

    def test_exhaustive_budget_env(self):
        proc = run_cli("search", "--m", "2", "--mode", "exhaustive",
                       env={"SSA_BUDGET": "63"})
        assert proc.returncode == 1
        assert "budget" in proc.stderr
        assert proc.stdout == ""
        proc = run_cli("search", "--m", "2", "--mode", "exhaustive",
                       "--format", "json", env={"SSA_BUDGET": "64"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["candidates_examined"] == 64

    def test_exhaustive_tol(self):
        default = json.loads(run_cli("search", "--m", "2", "--mode", "exhaustive",
                                     "--format", "json").stdout)
        assert default["config"]["tol"] == 1e-10
        proc = run_cli("search", "--m", "2", "--mode", "exhaustive",
                       "--tol", "1e-9", "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["config"]["tol"] == 1e-9
        assert abs(report["best_rate"] - default["best_rate"]) < 1e-8

    # the tolerance named is the winner's: local search re-evaluates it at
    # 1e-10, whatever its candidates ran at
    @pytest.mark.parametrize("options, tol", [
        (["--mode", "exhaustive", "--tol", "1e-9"], "1e-09"),
        (["--mode", "local", "--restarts", "2", "--iters", "5"], "1e-10")],
        ids=["exhaustive", "local"])
    def test_not_converged_exits_1(self, monkeypatch, capsys, options, tol):
        from ssacode import capacity, cli, search

        def unconverged(s, tol=1e-10, **kwargs):
            return capacity.CapacityReport(
                m=s.m, vertex_count=len(s), arc_count=0, spectral_radius=2.0,
                rate_bits_per_nt=1.0, method="power-iteration", residual=3e-4,
                iterations=100000, converged=False)

        argv = ["search", "--m", "2", *options, "--format", "json"]
        assert cli.main(argv) == 0
        keys = set(json.loads(capsys.readouterr().out))
        monkeypatch.setattr(search, "rate_of_set", unconverged)
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert "did not converge: residual 0.0003 after 100000 iterations" in err
        assert f"(tol {tol})" in err
        report = json.loads(out)
        assert set(report) == keys
        assert report["best_rate"] == 1.0


class TestTable:
    def test_table_gate(self):
        proc = run_cli("table", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].split(",")[:2] == ["m", "computed_rate"]
        rows = {int(line.split(",")[0]): float(line.split(",")[1])
                for line in lines[1:]}
        assert abs(rows[2] - 1.1679) < 2e-3
        assert abs(rows[9] - 1.8131) < 2e-3
        assert abs(rows[11] - 1.8423) < 2e-3

    def test_table_csv_bytes(self):
        proc = subprocess.run([sys.executable, "-m", "ssacode", "table",
                               "--format", "csv"], capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == TABLE_CSV

    def test_not_converged_exits_1(self, monkeypatch, capsys):
        from ssacode import capacity, cli

        real = capacity.binary_reduction_rate

        def unconverged(m):
            report = real(m)
            report.residual, report.converged = 3e-4, False
            return report

        monkeypatch.setattr(capacity, "binary_reduction_rate", unconverged)
        assert cli.main(["table", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert "did not converge" in err
        assert "residual 0.0003" in err
        assert err.count("error:") == 5  # one line per row at m = 3, 5, 7, 9, 11
        report = json.loads(out)
        assert report["within_tolerance"] is True  # exit 1 from convergence alone
        assert len(report["rows"]) == 7


class TestCodecCommands:
    def test_roundtrip(self):
        args = ["--m", "3", "--n", "12", "--set", "tc-dominant"]
        proc = run_cli("encode", *args, "--payload", "C0FFEE", "--format", "json")
        assert proc.returncode == 0
        enc = json.loads(proc.stdout)
        assert enc["sequence"] == "TCCCTCCCTCTTCTCTCTCTACCA"
        assert len(enc["sequence"]) == 12 * enc["blocks"]
        proc = run_cli("decode", *args, "--seq", enc["sequence"], "--format", "json")
        assert proc.returncode == 0
        dec = json.loads(proc.stdout)
        out = int(dec["payload_hex"], 16)
        pad = 4 * len(dec["payload_hex"]) - enc["payload_bits"]
        assert out >> pad == 0xC0FFEE

    def test_decode_rejects_foreign_sequence(self):
        proc = run_cli("decode", "--m", "2", "--n", "4",
                       "--set", "block-concat-baseline", "--seq", "GGGG")
        assert proc.returncode == 1

    def test_decode_names_block_and_position(self):
        proc = run_cli("decode", "--m", "3", "--n", "12", "--set", "tc-dominant",
                       "--seq", "TCCCTCCCTCTT" + "A" * 12)
        assert proc.returncode == 1
        assert proc.stderr == "error: block 2: window 'AAA' at position 13 not in S\n"

    def test_decode_rejects_bad_length(self):
        proc = run_cli("decode", "--m", "3", "--n", "12",
                       "--set", "tc-dominant", "--seq", "TCTCT")
        assert proc.returncode == 1

    def test_encode_rejects_non_hex_payload(self):
        proc = run_cli("encode", "--m", "3", "--n", "12",
                       "--set", "tc-dominant", "--payload", "0x1F")
        assert proc.returncode == 1
        assert "not a hex digit" in proc.stderr
        assert proc.stdout == ""


class TestOutput:
    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("oracle", "--m", "2", "--n", "4", "--format", "json",
                       "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["count"] == "240"

    def test_text_format(self):
        proc = run_cli("oracle", "--m", "2", "--n", "4")
        assert "count: 240" in proc.stdout

    def test_unknown_command_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2


# Values drawn for the numeric options: half of the draws usable, half the
# edges of every range, values that are not numbers at all, and ones past
# any budget.
NUMBERS = st.one_of(st.integers(2, 8).map(str), st.sampled_from(
    ["0", "-1", "-7", "1", "12", str(10 ** 9), "nan", "inf", "-inf", "x"]))
TOLS = st.one_of(st.sampled_from(["1e-13", "1e-8", "1e-3"]), st.sampled_from(
    ["0", "-1e-10", "nan", "inf", "-inf", "1", "2", "1e-14", "1e-300", "x"]))
SET_FILE = "@set-file"  # stands for a file of the m=3 TC-dominant words
WALL_BOUND_S = 5.0
GRAMMAR = {  # command: (required options, optional ones)
    "check": (["--m", "--seq"], []),
    "capacity": ([], ["--m", "--set", "--tol"]),
    "count": (["--n"], ["--m", "--set"]),
    "oracle": (["--m", "--n"], []),
    # --restarts and --iters always: SSA_BUDGET does not cap a local search
    "search": (["--m", "--restarts", "--iters"], ["--mode", "--seed", "--tol"]),
    "table": ([], []),
    "encode": (["--n", "--payload"], ["--m", "--set"]),
    "decode": (["--n", "--seq"], ["--m", "--set"]),
}
OPTION_VALUES = {
    "--m": NUMBERS,
    "--n": NUMBERS,
    "--tol": TOLS,
    "--set": st.sampled_from(cli.BUILTIN_SETS),
    "--mode": st.sampled_from(["local", "exhaustive"]),
    "--restarts": st.sampled_from(["-1", "0", "1", "3", "nan"]),
    "--iters": st.sampled_from(["-1", "0", "1", "3", "inf"]),
    "--seed": st.sampled_from(["0", "-5", str(10 ** 9), "x"]),
    "--seq": st.one_of(st.text("ACGT", max_size=14), st.text("ACGTN", max_size=14)),
    "--payload": st.sampled_from(["", "ff", "C0FFEE", "0x1F", "g"]),
}


@st.composite
def command_lines(draw):
    """argv drawn from the command grammar: every required option, each
    optional one or not, and for a set one builtin, a set file or both."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional = GRAMMAR[command]
    argv = [command]
    for option in required + optional:
        if option in required or draw(st.booleans()):
            argv.append(f"{option}={draw(OPTION_VALUES[option])}")
    if "--set" in optional and draw(st.integers(0, 3)) == 0:
        argv.append(f"--set-file={SET_FILE}")
    argv.append(f"--format={draw(st.sampled_from(['json', 'csv', 'text']))}")
    return argv


class TestAnyCommandLine:
    """Any command line ends in exit 0, 1 or 2 within a fixed wall time,
    with no other exception, under a small SSA_BUDGET."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command_lines())
    # command lines that once crashed, ran for minutes or passed unchecked
    @example(["search", "--m=2", "--mode=local", "--restarts=0"])
    @example(["capacity", "--set=tc-dominant", "--m=5", "--tol=inf"])
    @example(["capacity", "--set=tc-dominant", "--m=9", "--tol=nan"])
    @example(["capacity", "--set=tc-dominant", "--m=9", "--tol=1e-300"])
    @example(["capacity", "--set=tc-dominant", "--m=9", "--tol=0"])
    @example(["capacity", "--m=5", f"--set-file={SET_FILE}"])
    @example(["capacity", "--m=5", "--set=m6-stage", "--format=json"])
    @example(["encode", "--m=3", "--set=m4-heuristic", "--n=8", "--payload=AB"])
    @example(["count", "--set=m6-stage", "--n=4"])
    @example(["count", "--m=3", "--set=tc-dominant", "--n=2"])
    @example(["capacity", "--set=tc-dominant", f"--m={10 ** 9}"])
    @example(["oracle", "--m=2", f"--n={10 ** 9}"])
    @example(["search", f"--m={10 ** 9}", "--restarts=1", "--iters=1"])
    def test_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("SSA_BUDGET", "4096")
        path = tmp_path / "w3.txt"
        if not path.exists():
            write_set_file(tc_dominant_set(3), path)
        argv = [a.replace(SET_FILE, str(path)) for a in argv]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse and usage errors
            code = stop.code
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert elapsed < WALL_BOUND_S, argv


# Rates, counts, the table and a local search, in one process; prints the
# scipy modules it imported.
NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from ssacode import cli, search
for argv in (["capacity", "--m", "11", "--set", "tc-dominant"], ["table"],
             ["count", "--m", "6", "--set", "m6-stage", "--n", "60"],
             ["check", "--m", "3", "--seq", "TCTCCTTCTC"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
search.local_search(6, 2, 3, 0)
print(sorted(name for name in sys.modules
             if name.partition(".")[0] == "scipy" or name == "numpy.ma"))
"""


def test_no_scipy_import_to_rate_count_tabulate_or_search():
    # numpy is the only runtime dependency: the SCC split does not need
    # scipy, and no set operation reaches np.unique's import of numpy.ma
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

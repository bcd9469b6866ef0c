"""Acceptance gate: one test per release criterion, each printing a verdict
line.  Tolerances and runtime budgets are pinned; run with plain pytest."""

import math
import random
import subprocess
import sys
import time

import pytest

from ssacode import (
    F3,
    F5,
    COMPOSITION_BASELINE,
    GeneratingSet,
    baseline_block_concat_rate,
    binary_reduction_rate,
    build_codec,
    build_digraph,
    count_all_ssa,
    count_constrained,
    decode,
    encode,
    exhaustive_search,
    find_secondary_structure,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    largest_real_root,
    local_search,
    rate_of_set,
    recurrence_counts,
    spectral_radius,
    tc_dominant_set,
    trivial_upper_bound,
)
from conftest import (
    random_valid_set,
    ref_constrained_members,
    ref_count_all_ssa_numpy,
    ref_count_all_ssa_python,
    ref_good_binary_count,
)

M2_OPT_SET = GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"])
ODD_M_RATES = {3: 1.5514, 5: 1.6980, 7: 1.7698, 9: 1.8131, 11: 1.8423}


def _verdict(capsys, num, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} [FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} [PASS] {label}")


def test_criterion_01_m2_exhaustive_optimum(capsys):
    def body():
        t0 = time.perf_counter()
        result = exhaustive_search(2)
        elapsed = time.perf_counter() - t0
        assert result.candidates_examined == 64
        assert result.best_rate == pytest.approx(1.1679, abs=1e-3)
        assert elapsed < 1.0

    _verdict(capsys, 1, "m=2 exhaustive optimum 1.1679, 64 sets, <1s", body)


def test_criterion_02_m2_worked_example(capsys):
    def body():
        t0 = time.perf_counter()
        rep = spectral_radius(build_digraph(M2_OPT_SET))
        elapsed = time.perf_counter() - t0
        assert rep.spectral_radius == pytest.approx(2.247, abs=1e-3)
        assert elapsed < 0.1

    _verdict(capsys, 2, "worked m=2 digraph spectral radius 2.247, <0.1s", body)


def test_criterion_03_odd_m_rates_both_paths(capsys):
    def body():
        t0 = time.perf_counter()
        for m, want in ODD_M_RATES.items():
            quaternary = rate_of_set(tc_dominant_set(m), tol=1e-8)
            binary = binary_reduction_rate(m)
            assert quaternary.rate_bits_per_nt == pytest.approx(want, abs=1e-3)
            assert binary.rate_bits_per_nt == pytest.approx(want, abs=1e-3)
            if m == 11:
                assert binary.vertex_count <= 1024
        assert time.perf_counter() - t0 < 5.0

    _verdict(capsys, 3, "odd-m TC-dominant rates, digraph and binary paths, <5s", body)


def test_criterion_04_m4_heuristic(capsys):
    def body():
        t0 = time.perf_counter()
        s = heuristic_set_m4()
        rep = rate_of_set(s)
        elapsed = time.perf_counter() - t0
        assert len(s) == 108
        assert rep.rate_bits_per_nt == pytest.approx(1.5940, abs=1e-3)
        assert rep.spectral_radius == pytest.approx(3.0190, abs=1e-3)
        assert elapsed < 1.0

    _verdict(capsys, 4, "m=4 heuristic: 108 words, rate 1.5940, <1s", body)


def test_criterion_05_m6_staged_and_local_search(capsys):
    def body():
        t0 = time.perf_counter()
        s = heuristic_set_m6_stage()
        rep = rate_of_set(s)
        elapsed = time.perf_counter() - t0
        assert len(s) == 1792
        assert rep.rate_bits_per_nt == pytest.approx(1.6979, abs=1e-3)
        assert rep.spectral_radius == pytest.approx(3.2443, abs=1e-3)
        assert elapsed < 10.0
        result = local_search(6, restarts=20, iterations=10, seed=0)
        assert result.best_rate >= 1.6979
        assert result.best_rate <= trivial_upper_bound(6) + 1e-9

    _verdict(capsys, 5, "m=6 staged heuristic 1.6979 and local search floor", body)


def test_criterion_06_baselines(capsys):
    def body():
        assert baseline_block_concat_rate() == pytest.approx(1.1609, abs=1e-4)
        assert [recurrence_counts(COMPOSITION_BASELINE, n) for n in (1, 2, 3)] == [3, 9, 19]
        growth = (recurrence_counts(COMPOSITION_BASELINE, 41)
                  / recurrence_counts(COMPOSITION_BASELINE, 40))
        root = largest_real_root([1, -1, -2, -4])
        assert growth == pytest.approx(2.4675, abs=1e-3)
        assert root == pytest.approx(2.4675, abs=1e-3)
        assert math.log2(root) == pytest.approx(1.3031, abs=1e-3)

    _verdict(capsys, 6, "block-concat 1.1609 and composition baseline 1.3031", body)


def test_criterion_07_characteristic_roots(capsys):
    def body():
        assert largest_real_root([1, -1, 0, -1]) == pytest.approx(1.4656, abs=1e-3)
        assert largest_real_root(
            [1, -1, 0, -1, 0, -2, 0, 0, 1, 0, 1]) == pytest.approx(1.6222, abs=1e-3)

    _verdict(capsys, 7, "characteristic roots 1.4656 and 1.6222", body)


def test_criterion_08_oracle_equivalence(capsys):
    def body():
        t0 = time.perf_counter()
        for m in (2, 3):
            for n in range(1, 11):
                ref = (ref_count_all_ssa_python(n, m) if n <= 8
                       else ref_count_all_ssa_numpy(n, m))
                assert count_all_ssa(n, m) == ref
        rng = random.Random(0xACC8)
        for m in (2, 3):
            for _ in range(5):
                s = random_valid_set(rng, m, drop_rate=rng.choice([0.0, 0.3]))
                for n in range(m, 11):
                    members = ref_constrained_members(s.words(), m, n)
                    assert count_constrained(s, n) == len(members)
                    for x in members:
                        assert find_secondary_structure(x, m) is None
        assert time.perf_counter() - t0 < 60.0

    _verdict(capsys, 8, "oracle equivalence for m in {2,3}, n <= 10, <60s", body)


def test_criterion_09_recurrences_match_brute_force(capsys):
    def body():
        assert F3.base[:3] == (2, 4, 4)
        assert recurrence_counts(F3, 4) == 6
        for n in range(1, 21):
            assert recurrence_counts(F3, n) == ref_good_binary_count(n, 3, 2)
            assert recurrence_counts(F5, n) == ref_good_binary_count(n, 5, 3)

    _verdict(capsys, 9, "window-weight recurrences exact for n <= 20", body)


def test_criterion_10_codec_suite(capsys):
    def body():
        rng = random.Random(0xC0DEC)
        for s in (M2_OPT_SET, tc_dominant_set(3)):
            t8 = build_codec(s, 8)
            for k in range(t8.total):
                x = encode(t8, k)
                assert decode(t8, x) == k
                assert find_secondary_structure(x, s.m) is None
            t20 = build_codec(s, 20)
            for _ in range(10 ** 4):
                k = rng.randrange(t20.total)
                x = encode(t20, k)
                assert decode(t20, x) == k
                assert find_secondary_structure(x, s.m) is None
            asymptote = rate_of_set(s).rate_bits_per_nt
            achieved = math.log2(build_codec(s, 80).total) / 80
            assert abs(achieved - asymptote) < 0.05

    _verdict(capsys, 10, "codec roundtrip identity, SSA outputs, rate gap <0.05", body)


def test_criterion_11_cli_table_gate(capsys):
    def body():
        reference = {2: 1.1679, 3: 1.5515, 4: 1.5940, 5: 1.6980,
                     7: 1.7698, 9: 1.8131, 11: 1.8423}
        proc = subprocess.run([sys.executable, "-m", "ssacode", "table",
                               "--format", "csv"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        rows = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert set(rows) == set(reference)
        for m, want in reference.items():
            assert abs(rows[m] - want) < 2e-3

    _verdict(capsys, 11, "CLI table reproduces every reference rate, exit 0", body)

import math
import tracemalloc

import pytest

from ssacode import (
    BudgetExceededError,
    exhaustive_search,
    greedy_tc_choice,
    local_search,
    rate_of_set,
    tc_dominant_set,
    validate,
)
from ssacode import search
from ssacode.sequences import rc_pairs
from conftest import ref_exhaustive_search, ref_orbit_count, ref_symmetry_images

M2_OPT_RATE = 1.1679


class TestExhaustive:
    def test_m2_optimum(self):
        result = exhaustive_search(2)
        assert result.candidates_examined == 64
        assert result.best_rate == pytest.approx(M2_OPT_RATE, abs=1e-3)
        assert result.method == "exhaustive"

    def test_m2_matches_worked_set(self):
        from ssacode import GeneratingSet
        worked = rate_of_set(
            GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"]))
        assert exhaustive_search(2).best_rate == pytest.approx(
            worked.rate_bits_per_nt, abs=1e-9)

    def test_best_set_is_maximal(self):
        result = exhaustive_search(2)
        v = validate(result.best_set)
        assert v.valid and v.maximal

    def test_m4_over_budget(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_search(4)


def _rated_sets():
    """The sets that ``exhaustive_search(2)`` rates, in order."""
    calls = []
    real = search.rate_of_set
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "rate_of_set", lambda s, tol: calls.append(s) or real(s, tol=tol))
        exhaustive_search(2)
    return calls


class TestExhaustiveOrbits:
    """Only the canonical member of each symmetry orbit is rated; at m=2 the
    result is that of rating all 2^(pairs) candidates."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_matches_full_enumeration(self, tol):
        want = ref_exhaustive_search(2, tol)
        got = exhaustive_search(2, tol=tol)
        assert got.best_set == want.best_set
        assert got.best_rate.hex() == want.best_rate.hex()
        assert got.report == want.report
        assert got.report.to_dict() == want.report.to_dict()
        assert got.report.bracket == want.report.bracket
        assert (got.method, got.candidates_examined, got.tol) == (
            want.method, want.candidates_examined, want.tol)

    def test_one_canonical_set_per_orbit(self):
        orbits = []
        for s in _rated_sets():
            images = [ref_symmetry_images(w) for w in s.words()]
            orbit = {tuple(sorted(img[g] for img in images)) for g in range(16)}
            assert tuple(s.words()) == min(orbit)  # the canonical member
            assert not any(orbit & seen for seen in orbits)
            orbits.append(orbit)
        # every candidate lies in one of the rated orbits
        assert len(set().union(*orbits)) == 64

    def test_m3_candidates_in_bounded_memory(self):
        # 2^32 candidates at m=3: the first canonical sets come one
        # candidate at a time, not from an array over all of them
        a, b = rc_pairs(3)
        tracemalloc.start()
        try:
            first = [s for s, _ in zip(search._canonical_candidates(3, a, b), range(5))]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        for s in first:
            assert len(s) == 32 and validate(s).maximal
            images = [ref_symmetry_images(w) for w in s.words()]
            assert tuple(s.words()) == min(
                tuple(sorted(img[g] for img in images)) for g in range(16))


class TestExhaustiveBudget:
    """The 2^(pairs) candidate sets pass the SSA_BUDGET guard, inclusive."""

    def test_refused_before_any_rate(self, monkeypatch):
        from ssacode import search
        calls = []
        real = search.rate_of_set
        monkeypatch.setattr(search, "rate_of_set",
                            lambda s, tol: calls.append(s) or real(s, tol=tol))
        monkeypatch.setenv("SSA_BUDGET", "63")
        with pytest.raises(BudgetExceededError,
                           match="^2\\^6 candidate sets exceed the enumeration budget 63$"):
            exhaustive_search(2)
        assert calls == []
        monkeypatch.setenv("SSA_BUDGET", "64")
        assert exhaustive_search(2).candidates_examined == 64
        assert len(calls) == ref_orbit_count(2) == 7  # one rated set per orbit

    def test_default_budget_refuses_m3(self, monkeypatch):
        monkeypatch.delenv("SSA_BUDGET", raising=False)
        with pytest.raises(BudgetExceededError, match="^2\\^32 candidate sets exceed "
                                                      "the enumeration budget 67108864$"):
            exhaustive_search(3)


class TestSearchArguments:
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, 1.0])
    def test_bad_tol_refused_before_any_step(self, monkeypatch, tol):
        from ssacode import capacity
        steps = []
        real = capacity._shifted_power
        monkeypatch.setattr(capacity, "_shifted_power",
                            lambda *args: steps.append(args) or real(*args))
        with pytest.raises(ValueError, match="^tol must be finite with 0 < tol < 1"):
            exhaustive_search(2, tol=tol)
        assert steps == []

    @pytest.mark.parametrize("restarts, iterations", [(0, 10), (-1, 10), (1, -1)])
    def test_bad_counts(self, restarts, iterations):
        with pytest.raises(ValueError, match="must be >= "):
            local_search(2, restarts=restarts, iterations=iterations)

    def test_one_start_no_moves(self):
        result = local_search(2, restarts=1, iterations=0)
        assert result.candidates_examined == 1
        assert result.best_set == greedy_tc_choice(2)


class TestGreedyChoice:
    def test_odd_m_recovers_tc_dominant(self):
        assert greedy_tc_choice(3) == tc_dominant_set(3)
        assert greedy_tc_choice(5) == tc_dominant_set(5)

    def test_states_are_maximal(self):
        for m in (2, 3, 4):
            v = validate(greedy_tc_choice(m))
            assert v.valid and v.maximal


class TestLocalSearch:
    def test_m2_finds_optimum(self):
        result = local_search(2, restarts=4, iterations=40, seed=9)
        assert result.best_rate == pytest.approx(M2_OPT_RATE, abs=1e-3)

    def test_m3_reaches_reference(self):
        result = local_search(3, restarts=3, iterations=40, seed=9)
        assert result.best_rate >= 1.5514 - 1e-3

    def test_deterministic(self):
        a = local_search(2, restarts=3, iterations=25, seed=4)
        b = local_search(2, restarts=3, iterations=25, seed=4)
        assert a.best_rate == b.best_rate
        assert a.best_set == b.best_set
        assert a.candidates_examined == b.candidates_examined
        assert a.seed == b.seed == 4

    def test_best_set_consistent_with_rate(self):
        result = local_search(2, restarts=2, iterations=20, seed=1)
        assert result.best_rate == pytest.approx(
            rate_of_set(result.best_set).rate_bits_per_nt, abs=1e-6)

    def test_best_set_is_maximal(self):
        result = local_search(3, restarts=2, iterations=20, seed=2)
        v = validate(result.best_set)
        assert v.valid and v.maximal

    # Recorded best rates of local_search(6, restarts=6, iterations=5, seed).
    # Moves are accepted on rate >= current - 1e-12, so a drift in the last
    # digits of any candidate's rate can change the whole trajectory.
    @pytest.mark.parametrize("seed, rate", [
        (0, 1.7248753208071579),
        (4, 1.7248344164485865),
        (26, 1.7250523504827573),
    ])
    def test_m6_trajectory_pinned(self, seed, rate):
        result = local_search(6, restarts=6, iterations=5, seed=seed)
        assert result.candidates_examined == 36
        assert result.best_rate == pytest.approx(rate, abs=1e-9)

import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ssacode import (
    GeneratingSet,
    InvalidGeneratingSetError,
    find_secondary_structure,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    in_c_tilde,
    rc_classes,
    read_set_file,
    reverse_complement,
    tc_dominant_set,
    validate,
    window_multiset,
    write_set_file,
)
from ssacode.gensets import _validate_words, num_rc_pairs, num_self_rc
from ssacode.sequences import (
    _LOW_BITS, all_codes, code_to_word, codes_to_words, parse_sequence, rc_code,
    rc_codes, rc_masks, rc_pairs, spread, tc_class_codes, tc_dominant_masks, tc_mask_members,
    tc_masks, tc_weights)
from conftest import mask_rc, mask_unions, rc_free_words, ref_rc, tc_pattern


def codes_for_some_m(max_m, max_size=60):
    """(m, list of in-range codes, unsorted and with repeats)."""
    return st.integers(2, max_m).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 4 ** m - 1), max_size=max_size)))


class TestFromCodesDedup:
    @given(codes_for_some_m(8))
    @example((3, []))
    @example((2, [15, 0, 15, 3, 0]))
    def test_matches_sorted_set(self, case):
        m, codes = case
        want = sorted(set(codes))
        source = np.array(codes, dtype=np.int64)
        for given_codes in (codes, source, iter(codes)):
            s = GeneratingSet.from_codes(m, given_codes)
            assert s.codes.dtype == np.int64
            assert s.codes.tolist() == want
            assert not s.codes.flags.writeable
        # the caller's array is neither reordered nor frozen
        assert source.tolist() == codes and source.flags.writeable

    def test_sorted_caller_array_stays_the_callers(self):
        source = np.arange(5, 40, 3, dtype=np.int64)  # strictly increasing
        s = GeneratingSet.from_codes(3, source)
        assert s.codes.tolist() == list(range(5, 40, 3))
        assert not np.shares_memory(s.codes, source)
        assert source.flags.writeable and not s.codes.flags.writeable
        source[0] = 63
        assert s.codes[0] == 5

    @given(codes_for_some_m(8, max_size=20), st.data())
    def test_out_of_range_rejected(self, case, data):
        m, codes = case
        bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=4 ** m)))
        codes.insert(data.draw(st.integers(0, len(codes))), bad)
        with pytest.raises(ValueError):
            GeneratingSet.from_codes(m, codes)


class TestWordLength:
    """A set's words have length 1 <= m <= 31, the range of the 64-bit word
    code helpers; one ValueError names the range for any other m."""

    @pytest.mark.parametrize("m", [0, 32])
    def test_refused(self, m, tmp_path):
        message = f"word length m must be in 1..31, got {m}"
        with pytest.raises(ValueError, match=message):
            GeneratingSet.from_codes(m, [0])
        for word in ("A" * m, "T" * m):  # the lowest and the highest code alike
            with pytest.raises(ValueError, match=message):
                GeneratingSet.from_words([word])
        if m:  # a set file has no empty word: blank lines are skipped
            path = tmp_path / "set.txt"
            path.write_text("T" * m + "\n")
            with pytest.raises(ValueError, match=message):
                read_set_file(path)

    @pytest.mark.parametrize("m", [1, 31])
    def test_edges_accepted(self, m):
        s = GeneratingSet.from_words(["A" * m, "C" * m])
        assert s.m == m and s.words() == ["A" * m, "C" * m]
        assert repr(s)


class TestVectorWordHelpers:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_rc_codes_match_scalar(self, m):
        codes = np.arange(4 ** m, dtype=np.int64)
        rcs = rc_codes(codes, m)
        assert rcs.dtype == np.int64
        assert rcs.tolist() == [rc_code(c, m) for c in range(4 ** m)]
        assert np.array_equal(rc_codes(rcs, m), codes)  # involution
        assert np.array_equal(codes, np.arange(4 ** m))  # input untouched

    @pytest.mark.parametrize("m", range(2, 7))
    def test_tc_weights_match_per_character_count(self, m):
        weights = tc_weights(np.arange(4 ** m, dtype=np.int64), m)
        assert weights.dtype == np.int64
        assert weights.tolist() == [sum(ch in "TC" for ch in code_to_word(c, m))
                                    for c in range(4 ** m)]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_tc_masks_match_per_character_pattern(self, m):
        masks = tc_masks(np.arange(4 ** m, dtype=np.int64), m)
        assert masks.dtype == np.int32
        assert masks.tolist() == [int(tc_pattern(code_to_word(c, m)), 2)
                                  for c in range(4 ** m)]

    @given(st.integers(1, 31).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 4 ** m - 1), min_size=1, max_size=20))))
    @example((1, [0, 1, 2, 3]))
    @example((31, [0, 4 ** 31 - 1, 0x5555555555555555 >> 2]))
    def test_long_words(self, case):
        # tc_masks: no shift-and-mask step at m = 1, five at m = 17 ... 31
        m, codes = case
        arr = np.array(codes, dtype=np.int64)
        words = [code_to_word(c, m) for c in codes]
        assert codes_to_words(arr, m) == words
        assert rc_codes(arr, m).tolist() == [rc_code(c, m) for c in codes]
        assert [code_to_word(c, m) for c in rc_codes(arr, m).tolist()] == [ref_rc(w) for w in words]
        assert tc_weights(arr, m).tolist() == [sum(ch in "TC" for ch in w) for w in words]
        assert tc_masks(arr, m).dtype == np.int32
        assert tc_masks(arr, m).tolist() == [int(tc_pattern(w), 2) for w in words]

    @pytest.mark.parametrize("m", [9, 12])
    def test_tc_masks_over_several_blocks(self, m):
        rng = np.random.default_rng(m)
        codes = rng.integers(0, 4 ** m, size=3 * 2 ** 16 + 123, dtype=np.int64)
        want = sum(((codes >> 2 * i) & 1) << i for i in range(m))
        assert np.array_equal(tc_masks(codes, m), want)
        assert np.array_equal(tc_masks(codes.reshape(-1, 3), m), want.reshape(-1, 3))

    @given(st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, 4 ** m - 1))))
    def test_tc_class_codes(self, case):
        m, code = case
        words = tc_class_codes(code, m)
        assert words.dtype == np.int64 and len(words) == 2 ** m
        assert (np.diff(words) > 0).all() and code in words
        assert (tc_masks(words, m) == tc_masks(np.array([code]), m)[0]).all()
        if m <= 6:
            mask = tc_pattern(code_to_word(code, m))
            assert words.tolist() == [c for c in range(4 ** m)
                                      if tc_pattern(code_to_word(c, m)) == mask]

    @pytest.mark.parametrize("mask", ["".join(bits) for bits in itertools.product("01", repeat=4)])
    def test_codes_with_tc_mask_match_per_character_pattern(self, mask):
        got = [code_to_word(int(c), 4) for c in tc_class_codes(int(spread(int(mask, 2))), 4)]
        want = [w for w in map("".join, itertools.product("ACGT", repeat=4))
                if tc_pattern(w) == mask]
        assert got == want

    @pytest.mark.parametrize("m", range(1, 9))
    def test_rc_masks_match_per_character_pattern(self, m):
        masks = np.arange(2 ** m)
        assert rc_masks(masks, m).tolist() == [
            int(mask_rc(format(a, f"0{m}b")), 2) for a in range(2 ** m)]
        # the reverse complements of a word lie in its mask's partner class
        codes = np.arange(4 ** min(m, 5))
        k = min(m, 5)
        assert np.array_equal(rc_masks(tc_masks(codes, k), k), tc_masks(rc_codes(codes, k), k))

    @given(st.integers(1, 31).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 2 ** m - 1), min_size=1, max_size=20))))
    @example((1, [0, 1]))
    @example((31, [0, 2 ** 31 - 1, 0x2AAAAAAA]))
    def test_spread_inverts_tc_masks(self, case):
        m, masks = case
        a = np.array(masks, dtype=np.int64)
        words = spread(a)
        assert np.array_equal(tc_masks(words, m), a)
        assert not ((words >> 1) & _LOW_BITS).any()  # no high digit bit: A or C
        assert rc_masks(a, m).tolist() == [int(mask_rc(format(x, f"0{m}b")), 2) for x in masks]

    @pytest.mark.parametrize("m", range(1, 13))
    def test_tc_dominant_masks(self, m):
        assert tc_dominant_masks(m).tolist() == [2 * bin(a).count("1") > m
                                                 for a in range(2 ** m)]

    @given(st.integers(1, 7).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.booleans(), min_size=2 ** m, max_size=2 ** m))))
    def test_tc_mask_members_match_per_word_masks(self, case):
        m, keep = case
        keep = np.array(keep)
        member = tc_mask_members(m, keep)
        assert member.dtype == bool and member.shape == (4 ** m,)
        assert np.array_equal(member, keep[tc_masks(np.arange(4 ** m), m)])


class TestRcClasses:
    def test_m2(self):
        rc = rc_classes(2)
        assert sorted(rc.self_rc) == ["AT", "CG", "GC", "TA"]
        assert len(rc.pairs) == 6

    def test_m4(self):
        rc = rc_classes(4)
        assert len(rc.self_rc) == 16
        assert len(rc.pairs) == 120

    def test_m3_no_self_rc(self):
        rc = rc_classes(3)
        assert rc.self_rc == []
        assert len(rc.pairs) == 32

    def test_partition_identity(self):
        for m in (2, 3, 4, 5, 6):
            rc = rc_classes(m)
            assert 2 * len(rc.pairs) + len(rc.self_rc) == 4 ** m
            assert len(rc.pairs) == num_rc_pairs(m)
            assert len(rc.self_rc) == num_self_rc(m)

    def test_pairs_are_rc_related(self):
        rc = rc_classes(3)
        for w, v in rc.pairs:
            assert reverse_complement(w) == v
            assert w < v
        for w in rc_classes(4).self_rc:
            assert reverse_complement(w) == w

    def test_budget(self, monkeypatch):
        from ssacode import BudgetExceededError
        monkeypatch.setenv("SSA_BUDGET", str(4 ** 8))
        with pytest.raises(BudgetExceededError):
            rc_classes(9)


class TestValidate:
    def test_worked_example_set(self):
        result = validate(GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"]))
        assert result.valid and result.maximal and not result.violations

    def test_rc_pair_inside(self):
        result = validate(GeneratingSet.from_words(["TT", "AA"]))
        assert not result.valid
        assert ("AA", "TT") in result.violations

    def test_self_rc_inside(self):
        result = validate(GeneratingSet.from_words(["AT", "TT"]))
        assert not result.valid
        assert ("AT", "AT") in result.violations

    def test_valid_not_maximal(self):
        result = validate(GeneratingSet.from_words(["TT"]))
        assert result.valid and not result.maximal

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            GeneratingSet.from_words(["TT", "TTT"])


def with_mask_classes(words, masks):
    """``words`` plus every word whose TC mask is one of ``masks``."""
    m = len(words[0])
    extra = [w for w in map("".join, itertools.product("ACGT", repeat=m))
             if tc_pattern(w) in masks]
    return GeneratingSet.from_words(words + extra)


class TestMaskLevelValidate:
    """On a union of whole TC-mask classes, ``validate`` decides from the
    kept masks alone; its result must be the word-by-word one."""

    @staticmethod
    def same_as_word_path(s):
        result = validate(s)
        words = _validate_words(s)
        assert (result.valid, result.maximal, result.violations) == (
            words.valid, words.maximal, words.violations)
        return result

    @settings(max_examples=60, deadline=None)
    @given(mask_unions())
    @example(tc_dominant_set(5).words())
    def test_unions(self, words):
        assume(words)
        s = GeneratingSet.from_words(words)
        assert s.mask_classes is not None
        assert self.same_as_word_path(s).valid

    @settings(max_examples=60, deadline=None)
    @given(mask_unions(), st.integers(0, 2 ** 16))
    def test_union_with_a_partner_class(self, words, pick):
        assume(words)
        kept = sorted({tc_pattern(w) for w in words})
        s = with_mask_classes(words, {mask_rc(kept[pick % len(kept)])})
        assert s.mask_classes is not None
        result = self.same_as_word_path(s)
        assert not result.valid and not result.maximal and result.violations

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_self_paired_class(self, m):
        # at even m, mask 0^(m/2) 1^(m/2) is its own partner
        mask = "0" * (m // 2) + "1" * (m // 2)
        assert mask_rc(mask) == mask
        s = with_mask_classes(tc_dominant_set(m).words(), {mask})
        result = self.same_as_word_path(s)
        assert not result.valid
        assert ("A" * (m // 2) + "T" * (m // 2),) * 2 in result.violations

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words(ms=(2, 3, 4, 5)), st.integers(0, 2 ** 16))
    def test_other_sets(self, words, pick):
        s = GeneratingSet.from_words(words)
        assert self.same_as_word_path(s).valid
        rcw = ref_rc(words[pick % len(words)])
        assert not self.same_as_word_path(GeneratingSet.from_words(words + [rcw])).valid

    def test_non_union_skips_the_mask_pass(self, monkeypatch):
        # a maximal set at odd m has 2^(2m-1) words, a multiple of 2^m; a
        # random one misses most of its first word's class
        from ssacode import gensets
        calls = []

        def counted(codes, m):
            calls.append(codes)
            return tc_masks(codes, m)

        monkeypatch.setattr(gensets, "tc_masks", counted)
        lower, upper = rc_pairs(9)
        pick = np.random.default_rng(9).random(len(lower)) < 0.5
        s = GeneratingSet.from_codes(9, np.where(pick, lower, upper))
        assert len(s) % 2 ** 9 == 0
        result = validate(s)
        assert result == _validate_words(s) and result.valid and result.maximal
        assert s.mask_classes is None and not calls

    @pytest.mark.parametrize("m", range(2, 12))
    def test_tc_dominant_from_masks(self, m):
        s = tc_dominant_set(m)
        kept, masks = s.mask_classes
        assert np.array_equal(kept, np.flatnonzero(tc_dominant_masks(m)))
        assert masks.dtype == np.int32
        assert np.array_equal(masks, tc_masks(s.codes, m))
        result = validate(s)
        assert result.valid and result.maximal == (m % 2 == 1) and not result.violations


class TestBadSymbols:
    """A non-ACGT symbol is a ValueError or a non-member, never a KeyError."""

    def test_from_words_names_the_symbol_as_a_read_does(self):
        with pytest.raises(ValueError) as from_words:
            GeneratingSet.from_words(["AC", "GN"])
        with pytest.raises(ValueError) as from_read:
            parse_sequence("GN")
        assert str(from_words.value) == str(from_read.value)

    def test_from_words_rejects_lowercase(self):
        with pytest.raises(ValueError, match="invalid symbol 'a'"):
            GeneratingSet.from_words(["ac"])

    def test_contains_is_false(self):
        s = GeneratingSet.from_words(["AC", "AA"])
        assert "AC" in s
        assert "AN" not in s
        assert "ac" not in s

    def test_in_c_tilde_rejects_symbol(self):
        s = GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"])
        with pytest.raises(ValueError, match="invalid symbol 'N'"):
            in_c_tilde("ACNA", s)


class TestTcDominantSet:
    def test_sizes(self):
        assert len(tc_dominant_set(3)) == 32
        assert len(tc_dominant_set(5)) == 512
        assert sorted(tc_dominant_set(2).words()) == ["CC", "CT", "TC", "TT"]

    def test_valid(self):
        for m in (2, 3, 4, 5):
            assert validate(tc_dominant_set(m)).valid

    def test_maximal_iff_odd(self):
        assert validate(tc_dominant_set(3)).maximal
        assert validate(tc_dominant_set(5)).maximal
        assert not validate(tc_dominant_set(2)).maximal
        assert not validate(tc_dominant_set(4)).maximal

    def test_member_windows_are_tc_heavy(self):
        for w in tc_dominant_set(3).words():
            assert 2 * sum(ch in "TC" for ch in w) > 3

    @pytest.mark.parametrize("m", range(2, 12))
    def test_codes_match_weight_filter(self, m):
        codes = all_codes(m)
        s = tc_dominant_set(m)
        assert s.codes.dtype == np.int64
        assert np.array_equal(s.codes, codes[tc_weights(codes, m) > m // 2])

    def test_codes_built_once_and_held_by_the_set_alone(self):
        # the builder hands its fresh code array to the set without a copy:
        # the peak is that 16 MB array, the 4 MB membership table and the
        # small mask tables, where a copy would add 16 MB more
        tracemalloc.start()
        try:
            s = tc_dominant_set(11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < s.codes.nbytes + 8 * 2 ** 20
        # nothing else keeps that array or its base: each is held once, by
        # the set or as the next one's base, plus ``chain`` and the argument
        chain = [s.codes]
        while chain[-1].base is not None:
            chain.append(chain[-1].base)
        assert [sys.getrefcount(chain[i]) for i in range(len(chain))] == [3] * len(chain)
        assert not s.codes.flags.writeable

    def test_built_from_masks_in_little_memory(self):
        # all 4^11 int64 codes and their weights would need 96 MB
        tracemalloc.start()
        try:
            tc_dominant_set(11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20


class TestHeuristicSets:
    def test_m4_size_and_members(self):
        s = heuristic_set_m4()
        assert len(s) == 108
        assert "CACA" in s
        assert "TCCA" in s  # TC-weight 3
        assert "TGGA" not in s  # RC(TCCA): excluded by RC-freeness
        assert validate(s).valid

    def test_m6_size_and_members(self):
        s = heuristic_set_m6_stage()
        assert len(s) == 1792
        assert validate(s).valid
        # mask 001110 kept, e.g. AATCCA; mask 000111 dropped, e.g. AAATCC
        assert "AATCCA" in s
        assert "AAATCC" not in s

    def test_built_as_mask_unions(self):
        # the same sets, filtered word by word from their definitions
        all4 = ["".join(t) for t in itertools.product("ACGT", repeat=4)]
        m4 = GeneratingSet.from_words(
            [w for w in all4 if tc_pattern(w).count("1") >= 3 or tc_pattern(w) == "0110"]
            + ["CACA", "TACA", "CGCA", "CATA", "TACG", "CACG",
               "ACAC", "GCAC", "ATAC", "ACGC", "GCAT", "ACAT"])
        assert heuristic_set_m4().codes.tobytes() == m4.codes.tobytes()
        kept6 = {"001110", "010110", "011010", "011100", "001101", "101100"}
        m6 = GeneratingSet.from_words(
            ["".join(t) for t in itertools.product("ACGT", repeat=6)
             if tc_pattern("".join(t)).count("1") >= 4 or tc_pattern("".join(t)) in kept6])
        assert heuristic_set_m6_stage().codes.tobytes() == m6.codes.tobytes()
        assert heuristic_set_m6_stage().mask_classes is not None
        assert heuristic_set_m4().mask_classes is None

    def test_m6_mask_census(self):
        s = heuristic_set_m6_stage()
        words = set(s.words())

        def members(mask):
            return {w for w in map("".join, itertools.product("ACGT", repeat=6))
                    if tc_pattern(w) == mask}

        for mask in ("001110", "010110", "011010", "011100", "001101", "101100"):
            assert members(mask) <= words
        for mask in ("000111", "111000", "100011", "110010", "010101", "011001"):
            assert not (members(mask) & words)


class TestCTilde:
    def test_boundary_multiplicity(self):
        s = GeneratingSet.from_words(["AA", "TC", "TG", "GT", "CT", "CC"])
        assert "TT" not in s
        assert in_c_tilde("TTTT", s)  # TT appears 3 = 2m-1 times
        assert not in_c_tilde("TTTTT", s)  # 4 > 2m-1

    def test_all_windows_in_s(self):
        s = GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"])
        assert in_c_tilde("TTTTTTTT", s)

    def test_rejects_invalid_set(self):
        with pytest.raises(InvalidGeneratingSetError):
            in_c_tilde("TTTT", GeneratingSet.from_words(["TT", "AA"]))

    def test_sandwich_right_inclusion_small_n(self):
        # every 2-SSA sequence lies in C-tilde of some maximal set
        classes = rc_classes(2)
        for n in (4, 5, 6):
            for tup in itertools.product("ACGT", repeat=n):
                x = "".join(tup)
                if find_secondary_structure(x, 2) is not None:
                    continue
                heavy = {w for w, c in window_multiset(x, 2).items() if c >= 4}
                words = []
                for pair in classes.pairs:
                    if pair[1] in heavy:
                        words.append(pair[1])
                    else:
                        words.append(pair[0])
                s = GeneratingSet.from_words(words)
                assert validate(s).maximal
                assert in_c_tilde(x, s)


class TestSetFiles:
    def test_roundtrip(self, tmp_path):
        s = tc_dominant_set(3)
        path = tmp_path / "set.txt"
        write_set_file(s, path, comment="tc-dominant m=3")
        loaded = read_set_file(path)
        assert loaded == s
        text = path.read_text()
        assert text.startswith("# tc-dominant m=3\n")

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# header\n\nTT\nTC  # inline comment\n\nCC\n")
        s = read_set_file(path)
        assert sorted(s.words()) == ["CC", "TC", "TT"]

    def test_rejects_bad_word(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("TT\nTX\n")
        with pytest.raises(ValueError):
            read_set_file(path)

    def test_bad_symbol_named_as_in_a_read(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("TT\n# comment\nTN\n")
        with pytest.raises(ValueError) as from_file:
            read_set_file(path)
        with pytest.raises(ValueError) as from_read:
            parse_sequence("TN")
        assert str(from_read.value).startswith("invalid symbol 'N'")
        assert str(from_file.value) == f"{path}, line 3: {from_read.value}"

    def test_rejects_mixed_lengths(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("TT\nTTT\n")
        with pytest.raises(ValueError):
            read_set_file(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            read_set_file(path)

import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ssacode import (
    GeneratingSet,
    InvalidGeneratingSetError,
    TransitionDigraph,
    count_constrained,
    find_secondary_structure,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    in_c_tilde,
    rate_of_set,
    rc_classes,
    read_set_file,
    reverse_complement,
    tc_dominant_set,
    validate,
    window_multiset,
    write_set_file,
)
from ssacode.gensets import _mask_union, _validate_words, num_rc_pairs, num_self_rc
from ssacode.sequences import (
    _LOW_BITS, all_codes, code_to_word, codes_to_words, mask_weights, parse_sequence, rc_code,
    rc_codes, rc_masks, rc_pairs, spread, symmetry_images, tc_dominant_masks, tc_mask_members,
    tc_masks)
from conftest import (
    keep_tables, mask_rc, mask_unions, random_valid_set, rc_free_words, ref_mask_classes, ref_rc,
    tc_pattern)


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

    def test_no_bare_construction(self):
        # a set holds its codes or its kept masks, and makes the other view
        # from it; one with neither would have nothing to read
        with pytest.raises(TypeError):
            GeneratingSet(m=3)
        with pytest.raises(TypeError):
            GeneratingSet(m=3, codes=np.arange(4))

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

    @pytest.mark.parametrize("codes", [
        [1.5, 2.7], [1.0], np.array([3.0]), ["5"], np.array(["5"]), [True],
        np.array([False, True])], ids=repr)
    def test_non_integer_codes_rejected(self, codes):
        # not truncated or parsed to another word: 1.5 is no code of AAC
        with pytest.raises(ValueError, match="^word codes must be integers, got dtype "):
            GeneratingSet.from_codes(3, codes)
        with pytest.raises(ValueError, match="^word codes must be integers"):
            TransitionDigraph(m=3, codes=codes)

    @pytest.mark.parametrize("codes", [[], (), np.array([]), np.array([], dtype=str)],
                             ids=repr)
    def test_empty_input_is_the_empty_set(self, codes):
        s = GeneratingSet.from_codes(3, codes)
        assert len(s) == 0 and s.codes.dtype == np.int64

    @pytest.mark.parametrize("codes", [
        np.array([1.5, 7], dtype=object), [True, 3], np.array([0.5, 5], dtype=object),
        [2 ** 70, 0.5], np.array([7, "5"], dtype=object)], ids=repr)
    def test_non_integer_elements_rejected(self, codes):
        # from_codes(2, [True, 3]) is not ['AC', 'AT'], and the digraph
        # keeps no truncated vertex 0
        with pytest.raises(ValueError, match="^word codes must be integers, got "):
            GeneratingSet.from_codes(2, codes)
        with pytest.raises(ValueError, match="^word codes must be integers, got "):
            TransitionDigraph(2, codes)

    def test_code_past_int64_keeps_its_message(self):
        # 2 ** 63 reads as uint64, and is not wrapped to a negative code
        for codes in ([2 ** 70], np.array([2 ** 70, 1], dtype=object),
                      [2 ** 63], [2 ** 64 - 1]):
            with pytest.raises(ValueError, match="^word code out of range for m=3$"):
                GeneratingSet.from_codes(3, codes)
            with pytest.raises(ValueError, match="^word code out of range for m=3$"):
                TransitionDigraph(3, codes)

    @pytest.mark.parametrize("m, code", [(3, -1), (3, 64), (3, 100), (1, 7)])
    def test_out_of_range_code_named_by_the_set_and_the_digraph(self, m, code):
        # the digraph refuses what from_codes refuses: no vertex -1 or 100
        message = f"^word code {code} out of range for m={m}$"
        with pytest.raises(ValueError, match=message):
            GeneratingSet.from_codes(m, [0, code, 3])
        with pytest.raises(ValueError, match=message):
            TransitionDigraph(m, [0, code, 3])


class TestWordLength:
    """A set's words have length 1 <= m <= 31, the range of the 64-bit word
    code helpers; one ValueError names the range for any other m."""

    @pytest.mark.parametrize("m", [0, 32, 40])
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

    @pytest.mark.parametrize("entry", [
        lambda m: TransitionDigraph(m, [0]),
        lambda m: rc_codes([5], m),
        lambda m: tc_masks([5], m),
        lambda m: rc_masks([1], m),
        lambda m: codes_to_words([0], m),
        lambda m: symmetry_images([0], m),
    ], ids=["TransitionDigraph", "rc_codes", "tc_masks", "rc_masks", "codes_to_words",
            "symmetry_images"])
    @pytest.mark.parametrize("m", [0, 32, 40])
    def test_refused_by_the_digraph_and_the_word_helpers(self, entry, m):
        # the gate from_codes uses (sequences.check_word_length): no numpy
        # TypeError, OverflowError or IndexError, and no answer at m=32
        with pytest.raises(ValueError, match=f"^word length m must be in 1..31, got {m}$"):
            entry(m)

    @pytest.mark.parametrize("m", [1, 31])
    def test_edges_accepted(self, m):
        s = GeneratingSet.from_words(["A" * m, "C" * m])
        assert s.m == m and s.words() == ["A" * m, "C" * m]
        assert repr(s)
        assert TransitionDigraph(m, s.codes).vertex_count == 2
        assert rc_codes(s.codes, m).tolist() == [4 ** m - 1, 4 ** m - 1 - s.codes[1]]
        assert tc_masks(s.codes, m).tolist() == [0, 2 ** m - 1]


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
        weights = mask_weights(m)
        assert weights.dtype == np.int64 and weights.shape == (2 ** m,)
        assert weights[tc_masks(np.arange(4 ** m, dtype=np.int64), m)].tolist() == [
            sum(ch in "TC" for ch in code_to_word(c, m)) for c in range(4 ** m)]

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
        assert tc_masks(arr, m).dtype == np.int32
        assert tc_masks(arr, m).tolist() == [int(tc_pattern(w), 2) for w in words]

    @pytest.mark.parametrize("m", [9, 12])
    def test_tc_masks_over_several_blocks(self, m):
        rng = np.random.default_rng(m)
        codes = rng.integers(0, 4 ** m, size=3 * 2 ** 16 + 123, dtype=np.int64)
        want = sum(((codes >> 2 * i) & 1) << i for i in range(m))
        assert np.array_equal(tc_masks(codes, m), want)
        assert np.array_equal(tc_masks(codes.reshape(-1, 3), m), want.reshape(-1, 3))

    @settings(max_examples=60, deadline=None)
    @given(mask_unions(), st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def test_tc_class_codes(self, words, pick, other):
        # a union of whole classes minus any one word of any class is no
        # union, also with a word of a class it lacks put in its place
        assume(words)
        m = len(words[0])
        assert GeneratingSet.from_words(words).mask_classes is not None
        drop = words[pick % len(words)]
        rest = [w for w in words if w != drop]
        kept = {tc_pattern(w) for w in words}
        outside = [w for w in map("".join, itertools.product("ACGT", repeat=m))
                   if tc_pattern(w) not in kept]
        for left in (rest, rest + [outside[other % len(outside)]]):  # never empty
            assert GeneratingSet.from_words(left).mask_classes is None

    @pytest.mark.parametrize("mask", ["".join(bits) for bits in itertools.product("01", repeat=4)])
    def test_codes_with_tc_mask_match_per_character_pattern(self, mask):
        one_hot_keep = np.zeros(2 ** 4, dtype=bool)
        one_hot_keep[int(mask, 2)] = True
        got = [code_to_word(int(c), 4) for c in np.flatnonzero(tc_mask_members(4, one_hot_keep))]
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
        # a maximal set at odd m has 2^(2m-1) words, a multiple of 2^m, so
        # a random one takes the one mask pass, a block of its codes at a
        # time, and the counts turn it away
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
        assert s.mask_classes is None and len(calls) > 1
        assert all(np.shares_memory(codes, s.codes) for codes in calls)
        assert sum(len(codes) for codes in calls) == len(s)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_tc_dominant_from_masks(self, m):
        s = tc_dominant_set(m)
        kept = s.mask_classes
        assert np.array_equal(kept, np.flatnonzero(tc_dominant_masks(m)))
        assert kept.dtype == np.int64 and not kept.flags.writeable
        masks = tc_masks(s.codes, m)
        assert masks.dtype == np.int32
        assert np.array_equal(np.unique(masks), kept)
        assert len(s) == 2 ** m * len(kept)  # whole classes
        result = validate(s)
        assert result.valid and result.maximal == (m % 2 == 1) and not result.violations


class TestMaskClassesOracle:
    """``mask_classes`` against ``ref_mask_classes``, which groups the words
    by TC pattern: on unions, on sets one word away from a union and on
    maximal sets at odd m, whose size is a multiple of 2^m."""

    @staticmethod
    def check(words):
        got = GeneratingSet.from_words(words).mask_classes
        assert (None if got is None else got.tolist()) == ref_mask_classes(words)

    @settings(max_examples=80, deadline=None)
    @given(mask_unions(), st.sampled_from(["union", "minus one", "plus one", "swap one"]),
           st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    def test_unions_and_sets_one_word_away(self, words, edit, pick, other):
        assume(words)
        kept = {tc_pattern(w) for w in words}
        outside = [w for w in map("".join, itertools.product("ACGT", repeat=len(words[0])))
                   if tc_pattern(w) not in kept]
        if edit in ("minus one", "swap one"):
            words = words[:pick % len(words)] + words[pick % len(words) + 1:]
        if edit in ("plus one", "swap one"):
            words = words + [outside[other % len(outside)]]
        self.check(words)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 5, 7]), st.integers(0, 2 ** 32 - 1))
    def test_random_maximal_sets_at_odd_m(self, m, seed):
        self.check(random_valid_set(random.Random(seed), m).words())

    @settings(max_examples=60, deadline=None)
    @given(keep_tables(ms=range(1, 9)), st.lists(st.integers(0, 2 ** 62), max_size=2))
    @example(np.zeros(8, dtype=bool), [])  # no kept mask: the empty set
    @example(tc_dominant_masks(4), [0])  # AAAA listed beside the union
    def test_masks_handed_over_by_the_builder(self, keep, picks):
        # a builder's union carries its kept masks before any read, read-only,
        # and they are the masks found in the words and in a from_codes copy;
        # a union with listed words carries none
        m = len(keep).bit_length() - 1
        words = tuple(code_to_word(p % 4 ** m, m) for p in picks)
        s = _mask_union(m, keep, words)
        assert ("mask_classes" in vars(s)) == (not words and keep.any())
        got = s.mask_classes
        if got is not None:
            assert got.dtype == np.int64 and not got.flags.writeable
        want = ref_mask_classes(s.words())
        assert (None if got is None else got.tolist()) == want
        found = GeneratingSet.from_codes(m, s.codes).mask_classes
        assert (None if found is None else found.tolist()) == want


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
        weights = sum((codes >> 2 * i) & 1 for i in range(m))  # T and C: odd digits
        assert np.array_equal(s.codes, codes[weights > m // 2])

    @pytest.mark.memory
    def test_codes_built_once_and_held_by_the_set_alone(self):
        # the first read of the codes builds them and hands the fresh array
        # to the set without a copy: the peak is that 16 MB array, the 4 MB
        # membership table and the small mask tables, where a copy would
        # add 16 MB more
        s = tc_dominant_set(11)
        tracemalloc.start()
        try:
            s.codes
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

    @pytest.mark.memory
    def test_built_from_masks_in_little_memory(self):
        # all 4^11 int64 codes and their weights would need 96 MB
        tracemalloc.start()
        try:
            tc_dominant_set(11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20


    @pytest.mark.memory
    def test_union_read_without_its_codes_in_little_memory(self):
        # size, validation, the certified rate, a count and membership are
        # all taken on the 2^11 kept masks: the 4^11 codes (16 MB) are never
        # built.  scipy, which the rate imports, is imported first.
        import scipy.sparse.csgraph  # noqa: F401
        s = tc_dominant_set(11)
        tracemalloc.start()
        try:
            size, result = len(s), validate(s)
            rep, count = rate_of_set(s), count_constrained(s, 40)
            member = "T" * 11 in s
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == 2 ** 21 and result.valid and result.maximal
        assert rep.method == "mask-quotient" and count > 0 and member
        assert "codes" not in vars(s)
        assert peak < 2 ** 20


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

    def test_m6_stage_hands_over_the_masks_of_its_codes(self):
        s = heuristic_set_m6_stage()
        kept = s.mask_classes
        assert kept.dtype == np.int64 and not kept.flags.writeable
        assert np.array_equal(kept, np.unique(tc_masks(s.codes, 6)))
        assert len(s) == 2 ** 6 * len(kept)  # whole classes

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

    def test_multiline_comment_roundtrip(self, tmp_path):
        # no comment line reads back as a word: AAA would make the set
        # hold both AAA and TTT
        s = tc_dominant_set(3)
        path = tmp_path / "set.txt"
        write_set_file(s, path, comment="best set\nAAA\n\nrate 1.55")
        assert path.read_text().startswith("# best set\n# AAA\n# \n# rate 1.55\nACC\n")
        loaded = read_set_file(path)
        assert loaded == s and validate(loaded).valid

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

    @pytest.mark.parametrize("text, line, word", [
        ("ACG\n# comment\n\nAC\n", 4, "AC"),  # shorter, after skipped lines
        ("TT\nTC\nTTT  # inline comment\n", 3, "TTT"),
        ("TT\nTTX\n", 2, "TTX"),  # the length is checked before the symbols
    ], ids=["shorter", "longer", "longer-bad-symbol"])
    def test_wrong_length_names_the_line(self, tmp_path, text, line, word):
        path = tmp_path / "set.txt"
        path.write_text(text)
        first = text.split("\n", 1)[0]
        with pytest.raises(ValueError) as exc:
            read_set_file(path)
        assert str(exc.value) == f"{path}, line {line}: mixed word lengths: {first!r} vs {word!r}"

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            read_set_file(path)

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssacode import (
    BudgetExceededError,
    GeneratingSet,
    Witness,
    binary_reduction_rate,
    build_digraph,
    complement,
    count_all_ssa,
    find_secondary_structure,
    is_tc_dominant,
    local_search,
    parse_sequence,
    rc_classes,
    reverse_complement,
    tc_dominant_set,
    trivial_upper_bound,
    validate,
    window_multiset,
)
from ssacode import sequences
from ssacode.sequences import (
    all_codes,
    code_to_word,
    codes_to_words,
    rc_code,
    rc_codes,
    rc_pairs,
    symmetry_images,
    tc_mask_members,
    word_to_code,
)
from conftest import (
    adjacency_matrix,
    dense_spectral_radius,
    rc_free_words,
    ref_count_all_ssa_python,
    ref_first_witness,
    ref_has_structure,
    ref_rc,
    ref_symmetry_images,
)


@st.composite
def reads_with_planted_pairs(draw):
    """A read of at most 60 symbols over a drawn sub-alphabet and a stem
    length m in 2..8, with up to two windows planted next to their reverse
    complements: at the very start or end, adjacent (j = i + m), apart or
    overlapping (a later plant may overwrite an earlier one)."""
    m = draw(st.integers(2, 8))
    alphabet = draw(st.sampled_from(["ACGT", "TC", "AT", "ACG"]))
    x = list(draw(st.text(alphabet=alphabet, max_size=60)))
    n = len(x)
    for _ in range(draw(st.integers(0, 2))):
        if n < m:
            break
        word = draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
        i = draw(st.one_of(st.just(0), st.integers(0, n - m)))
        j = draw(st.one_of(st.just(i + m), st.just(n - m),
                           st.integers(max(0, i - m + 1), n - m)))
        if j + m <= n:
            x[i:i + m] = word
            x[j:j + m] = ref_rc(word)
    return "".join(x), m


@st.composite
def reads_with_refolded_targets(draw):
    """A read of 2m to 4m symbols over two letters or all four, and a stem
    length m in 2..70, with one of two plants, or none.

    - An RC palindrome of length m + k, k < m, at some i: the reverse
      complement of the window at i then starts at i + k, before i + m, and
      it is planted once more at some j >= i + m + k, so the witness's j is
      not the first start of its target.
    - A window at i and, at some j >= i + m, its reverse complement with one
      symbol changed: a near miss that any key blind to that symbol takes
      for a witness.
    """
    m = draw(st.integers(2, 70))
    alphabet = draw(st.sampled_from(["AT", "CG", "TC", "AG", "ACGT"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2 * m, 4 * m))
    x = [rng.choice(alphabet) for _ in range(n)]
    k = m % 2 + 2 * draw(st.integers(0, (m - 1 - m % 2) // 2))  # m + k even
    plant = draw(st.sampled_from(["refold", "near miss", None]))
    if plant == "refold" and n >= 2 * m + k:
        half = "".join(rng.choice("ACGT") for _ in range((m + k) // 2))
        fold = half + ref_rc(half)
        i = draw(st.integers(0, n - 2 * m - k))
        j = draw(st.integers(i + m + k, n - m))
        x[i:i + m + k] = fold
        x[j:j + m] = fold[k:k + m]
    elif plant == "near miss":
        word = [rng.choice("ACGT") for _ in range(m)]
        miss = list(ref_rc(word))
        at = draw(st.integers(0, m - 1))
        miss[at] = rng.choice([ch for ch in "ACGT" if ch != miss[at]])
        i = draw(st.integers(0, n - 2 * m))
        j = draw(st.integers(i + m, n - m))
        x[i:i + m] = word
        x[j:j + m] = miss
    return "".join(x), m


def refolded_read(m, k):
    """An RC palindrome of length m + k between T/C runs, then its m symbols
    from k, the reverse complement of its first m, again: the witness is
    (4, 4 + m + k + 5), and its target also starts at 4 + k < 4 + m."""
    half = ("ACGGTAC" * m)[:(m + k) // 2]
    fold = half + ref_rc(half)
    return "TCT" + fold + "CTTCT" + fold[k:k + m] + "TC", m


def clipped_key_read(m):
    """A read of 2m symbols (33 <= m <= 64) with no witness, whose window at
    m agrees with the reverse complement of its window at 0 in the last 32
    symbols only: keys that drop a window's first m - 32 symbols take the
    two for a witness."""
    head = m - 32
    return "G" * head + "A" * 32 + "A" * head + "T" * (32 - head) + "C" * head, m


class TestComplement:
    def test_pairing(self):
        assert complement("A") == "T"
        assert complement("T") == "A"
        assert complement("C") == "G"
        assert complement("G") == "C"

    def test_involution_and_no_fixed_point(self):
        for s in "ACGT":
            assert complement(complement(s)) == s
            assert complement(s) != s


class TestReverseComplement:
    def test_examples(self):
        assert reverse_complement("TCCA") == "TGGA"
        assert reverse_complement("ACGT") == "ACGT"  # self reverse complement
        assert reverse_complement("A") == "T"
        assert reverse_complement("") == ""

    def test_involution_random(self):
        rng = random.Random(1)
        for _ in range(200):
            x = "".join(rng.choice("ACGT") for _ in range(rng.randrange(0, 30)))
            assert reverse_complement(reverse_complement(x)) == x

    def test_length_preserved(self):
        assert len(reverse_complement("ACGTAC")) == 6


class TestParse:
    def test_accepts_acgt(self):
        assert parse_sequence("ACGT") == "ACGT"
        assert parse_sequence("") == ""

    @pytest.mark.parametrize("bad", ["acgt", "ACGU", "AC GT", "ACGT\n", "N"])
    def test_rejects_other(self, bad):
        with pytest.raises(ValueError):
            parse_sequence(bad)


class TestFindSecondaryStructure:
    def test_examples(self):
        assert find_secondary_structure("TTAA", 2) == Witness(i=1, j=3, m=2)
        assert find_secondary_structure("ACGT", 2) == Witness(i=1, j=3, m=2)
        assert find_secondary_structure("TTTT", 2) is None

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            find_secondary_structure("ACGT", 1)

    def test_short_sequences_are_ssa(self):
        # n < 2m leaves no room for two non-overlapping windows
        for m in (2, 3, 4):
            for n in range(0, 2 * m):
                assert find_secondary_structure("T" * n, m) is None
        assert find_secondary_structure("TCTCC", 3) is None

    def test_smallest_witness(self):
        # TTAA has witnesses (1,3); prepending symbols shifts but keeps order
        w = find_secondary_structure("GTTAA", 2)
        assert (w.i, w.j) == (2, 4)

    def test_smallest_witness_cases(self):
        # planted at the very start and the very end
        assert find_secondary_structure("AC" + "T" * 10 + "GT", 2) == Witness(1, 13, 2)
        # adjacent windows are allowed: j = i + m
        assert find_secondary_structure("AACCGGTT", 4) == Witness(1, 5, 4)
        # RC(AT) = AT starts at 1 (overlapping), 5 and 9: the first at or
        # after i + m is the witness, not the last
        assert find_secondary_structure("ATCCATCCAT", 2) == Witness(1, 5, 2)
        # ACGT's windows ACG, CGT are reverse complements but overlap
        assert find_secondary_structure("TACGTTTT", 3) is None

    @settings(max_examples=300, deadline=None)
    @given(reads_with_planted_pairs())
    @example(("AC" + "T" * 10 + "GT", 2))
    @example(("AACCGGTT", 4))
    @example(("ATCCATCCAT", 2))
    @example(("TACGTTTT", 3))
    def test_matches_naive_smallest_witness(self, read):
        x, m = read
        w = find_secondary_structure(x, m)
        assert (None if w is None else (w.i, w.j)) == ref_first_witness(x, m)
        assert w is None or w.m == m

    @settings(max_examples=150, deadline=None)
    @given(reads_with_refolded_targets())
    @example(refolded_read(31, 1))
    @example(refolded_read(32, 0))
    @example(refolded_read(62, 2))
    @example(refolded_read(63, 61))
    @example(clipped_key_read(40))
    @example(clipped_key_read(62))
    @example(clipped_key_read(63))
    @example(("AT" * 40, 31))  # two letters: every key repeats
    @example(("AT" * 40, 32))
    def test_matches_naive_witness_up_to_m_70(self, read):
        # past m = 16 the window keys are re-ranked between doubling steps
        x, m = read
        w = find_secondary_structure(x, m)
        assert (None if w is None else (w.i, w.j)) == ref_first_witness(x, m)

    @pytest.mark.parametrize("m", [13, 20])  # past m = 16 the keys are re-ranked
    def test_long_tc_read_scans_in_linear_time(self, m):
        # the reverse complement of a T/C window is all A/G: SSA, full scan
        rng = random.Random(13)
        x = "".join(rng.choice("TC") for _ in range(100_000))
        start = time.perf_counter()
        assert find_secondary_structure(x, m) is None
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("m", [32, 40])
    def test_witness_at_large_m(self, m):
        # past 31 symbols a word no longer fits a 2-bit code in an int64
        rng = random.Random(m)
        word = "".join(rng.choice("ACGT") for _ in range(m))

        def fill(k):
            return "".join(rng.choice("TC") for _ in range(k))

        x = fill(17) + word + fill(m + 5) + ref_rc(word) + fill(9)
        w = find_secondary_structure(x, m)
        assert w is not None
        assert (w.i, w.j) == ref_first_witness(x, m)

    @pytest.mark.parametrize("x, m", [
        ("NACGTTACG", 2),  # start
        ("ACGTNTACG", 2),  # middle
        ("ACGTTACGN", 2),  # end
        ("ACNT", 2),
        ("NACGT", 2),
        ("TaC", 2),  # shorter than 2m
        ("AC GT", 3),
        ("AC\u00c7GT", 2),  # not ASCII: no byte of its own
        ("AC\x00GTACGT", 2),  # NUL, byte 0
        ("\x7f", 2),  # the last ASCII byte
    ])
    def test_invalid_symbol_raises(self, x, m):
        with pytest.raises(ValueError) as expected:
            parse_sequence(x)
        with pytest.raises(ValueError) as got:
            find_secondary_structure(x, m)
        assert str(got.value) == str(expected.value)

    def test_witness_validity_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(4, 16)
            x = "".join(rng.choice("ACGT") for _ in range(n))
            m = rng.choice([2, 3])
            w = find_secondary_structure(x, m)
            if w is None:
                assert not ref_has_structure(x, m)
            else:
                assert 1 <= w.i
                assert w.i + m - 1 < w.j
                assert w.j + m - 1 <= n
                for t in range(m):
                    assert x[w.i - 1 + t] == complement(x[w.j - 1 + m - 1 - t])


class TestWindowKeys:
    # 52 spare bits leave 10 for a key: the last doubling's keys are
    # re-ranked once more, after the loop
    @pytest.mark.parametrize("spare", [0, 13, 30, 52])
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 70), alphabet=st.sampled_from(["AT", "TC", "ACG", "ACGT"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_keys_fit_below_the_spare_bits(self, spare, m, alphabet, seed):
        rng = random.Random(seed)
        x = "".join(rng.choice(alphabet) for _ in range(rng.randint(m, 4 * m + 20)))
        keys = sequences._window_keys(sequences._digits_of(x), m, spare)
        windows = [x[p:p + m] for p in range(len(x) - m + 1)]
        assert keys.dtype == np.int64 and len(keys) == len(windows)
        assert 0 <= keys.min() and keys.max() < 2 ** (62 - spare)
        # equal keys iff equal windows
        pairs = set(zip(keys.tolist(), windows))
        assert len(pairs) == len(set(keys.tolist())) == len(set(windows))


class TestWindowMultiset:
    def test_examples(self):
        assert window_multiset("AACC", 2) == {"AA": 1, "AC": 1, "CC": 1}
        assert window_multiset("ACAC", 2) == {"AC": 2, "CA": 1}
        assert window_multiset("TTT", 3) == {"TTT": 1}

    def test_total_multiplicity(self):
        counts = window_multiset("ACGTACG", 3)
        assert sum(counts.values()) == 7 - 3 + 1

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            window_multiset("AC", 3)

    @pytest.mark.parametrize("x", ["NNx", "ACGN", "acgt", "AC GT", "ACGTU"])
    def test_rejects_symbols_outside_acgt(self, x):
        with pytest.raises(ValueError) as err:
            window_multiset(x, 1)
        with pytest.raises(ValueError) as want:
            parse_sequence(x)
        assert str(err.value) == str(want.value)


class TestTcDominant:
    def test_examples(self):
        assert is_tc_dominant("TCT", 3)
        assert not is_tc_dominant("TAG", 3)
        assert is_tc_dominant("TCATC", 3)  # windows TCA, CAT, ATC all weight 2

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            is_tc_dominant("TC", 3)

    @given(st.integers(2, 8).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.sampled_from("TTTCCCAG"), min_size=m, max_size=40))))
    @example((4, list("TCAG")))  # weight exactly m/2
    @example((3, list("TCT")))  # n = m
    def test_matches_per_window_count(self, case):
        m, symbols = case
        x = "".join(symbols)
        want = all(2 * sum(ch in "TC" for ch in x[i:i + m]) > m
                   for i in range(len(x) - m + 1))
        assert is_tc_dominant(x, m) is want

    @pytest.mark.parametrize("x, m", [("TTTTX", 3), ("tct", 3), ("TCN", 2), ("TN", 3),
                                      ("AC\u00c7GT", 2), ("AC\x00GT", 2), ("\x7f", 2)])
    def test_invalid_symbol_raises(self, x, m):
        with pytest.raises(ValueError) as expected:
            parse_sequence(x)
        with pytest.raises(ValueError) as got:
            is_tc_dominant(x, m)
        assert str(got.value) == str(expected.value)

    def test_odd_m_dominance_implies_ssa_exhaustive(self):
        for n in range(3, 8):
            for tup in itertools.product("ACGT", repeat=n):
                x = "".join(tup)
                if is_tc_dominant(x, 3):
                    assert find_secondary_structure(x, 3) is None

    def test_odd_m_dominance_implies_ssa_random(self):
        rng = random.Random(11)
        for m in (3, 5, 7):
            found = 0
            while found < 50:
                # biased draw so TC-dominant sequences actually occur
                x = "".join(rng.choice("TCTCTA CG".replace(" ", ""))
                            for _ in range(rng.randrange(m, 3 * m)))
                if is_tc_dominant(x, m):
                    found += 1
                    assert find_secondary_structure(x, m) is None


class TestCountAllSsa:
    def test_examples(self):
        assert count_all_ssa(3, 2) == 64
        assert count_all_ssa(5, 3) == 1024
        assert count_all_ssa(4, 2) == 240

    def test_matches_flat_enumeration(self):
        for m in (2, 3):
            for n in range(1, 8):
                assert count_all_ssa(n, m) == ref_count_all_ssa_python(n, m)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("SSA_BUDGET", str(4 ** 8))
        with pytest.raises(BudgetExceededError):
            count_all_ssa(9, 2)

    def test_m4_matches_flat_enumeration(self):
        assert count_all_ssa(8, 4) == ref_count_all_ssa_python(8, 4)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            count_all_ssa(4, 1)
        with pytest.raises(ValueError):
            count_all_ssa(0, 2)


class TestRcPairs:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_codes_of_rc_classes(self, m):
        lower, upper = rc_pairs(m)
        assert lower.dtype == upper.dtype == np.int64
        pairs = rc_classes(m).pairs
        assert lower.tolist() == [word_to_code(w) for w, _ in pairs]
        assert upper.tolist() == [word_to_code(v) for _, v in pairs]
        assert upper.tolist() == [rc_code(c, m) for c in lower.tolist()]

    def test_rejects_short_words(self):
        with pytest.raises(ValueError):
            rc_pairs(1)


class TestStemLength:
    """Every entry that takes a stem length refuses m < 2 with the one
    message of ``sequences.check_stem``."""

    @pytest.mark.parametrize("entry", [
        rc_pairs, tc_dominant_set, binary_reduction_rate, trivial_upper_bound,
        lambda m: find_secondary_structure("ACGTACGT", m),
        lambda m: is_tc_dominant("TCTC", m),
        lambda m: count_all_ssa(3, m),
        lambda m: local_search(m, restarts=1, iterations=0),
    ], ids=["rc_pairs", "tc_dominant_set", "binary_reduction_rate", "trivial_upper_bound",
            "find_secondary_structure", "is_tc_dominant", "count_all_ssa", "local_search"])
    @pytest.mark.parametrize("m", [1, 0])
    def test_refused_with_one_message(self, entry, m):
        with pytest.raises(ValueError, match=f"^m must be >= 2, got {m}$"):
            entry(m)


class TestSymmetryImages:
    """``symmetry_images``: the 8 symbol maps that commute with complement,
    without and with reversal."""

    @given(st.integers(2, 31).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 4 ** m - 1), min_size=1, max_size=20))))
    @example((2, list(range(16))))
    @example((31, [0, 4 ** 31 - 1, 0x5555555555555555 >> 2]))
    def test_match_string_images(self, case):
        m, codes = case
        words = [code_to_word(c, m) for c in codes]
        images = symmetry_images(np.array(codes, dtype=np.int64), m)
        assert images.dtype == np.int64 and images.shape == (16, len(codes))
        rows = [tuple(codes_to_words(row, m)) for row in images]
        want = [tuple(ref_symmetry_images(w)[g] for w in words) for g in range(16)]
        assert sorted(rows) == sorted(want)
        assert rows[0] == tuple(words)  # image 0 is the identity
        # images 8 .. 15 are images 0 .. 7 reversed
        assert rows[8:] == [tuple(w[::-1] for w in row) for row in rows[:8]]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_a_group_that_commutes_with_rc(self, m):
        codes = all_codes(m)
        images = symmetry_images(codes, m)
        rows = {tuple(row) for row in images.tolist()}
        assert len(rows) == 16  # 16 distinct maps
        assert all(sorted(row) == codes.tolist() for row in rows)  # permutations
        for row in images:  # closed under composition
            assert {tuple(r) for r in symmetry_images(row, m).tolist()} == rows
        assert np.array_equal(symmetry_images(rc_codes(codes, m), m),
                              rc_codes(images, m))

    def test_two_dimensional_codes(self):
        codes = np.arange(4 ** 3, dtype=np.int64).reshape(8, 8)
        images = symmetry_images(codes, 3)
        assert images.shape == (16, 8, 8)
        assert np.array_equal(images.reshape(16, -1), symmetry_images(codes.ravel(), 3))
        assert np.array_equal(codes, np.arange(4 ** 3).reshape(8, 8))  # input untouched

    @settings(max_examples=40, deadline=None)
    @given(rc_free_words())
    def test_images_are_rc_free_with_the_same_rate(self, words):
        s = GeneratingSet.from_words(words)
        m = s.m
        rho = dense_spectral_radius(adjacency_matrix(build_digraph(s)))
        rate = math.log2(rho) if rho > 0 else 0.0
        for row in symmetry_images(s.codes, m):
            image = GeneratingSet.from_codes(m, row)
            assert len(image) == len(s)
            assert validate(image).valid
            r = dense_spectral_radius(adjacency_matrix(build_digraph(image)))
            assert (math.log2(r) if r > 0 else 0.0) == pytest.approx(
                rate, rel=1e-12, abs=1e-14)


class TestWordCodeRange:
    """The word helpers take codes in [0, 4^m) only; others raise ValueError
    instead of wrapping around to another word."""

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("bad", ["4^m", -1])
    def test_out_of_range_raises(self, m, bad):
        code = 4 ** m if bad == "4^m" else bad
        with pytest.raises(ValueError, match=f"word code {code} out of range for m={m}"):
            code_to_word(code, m)
        with pytest.raises(ValueError, match=f"word code {code} out of range for m={m}"):
            codes_to_words([0, code], m)
        with pytest.raises(ValueError, match=f"word code {code} out of range for m={m}"):
            symmetry_images(np.array([code, 1], dtype=np.int64), m)

    def test_code_past_int64_raises(self):
        # a ValueError, as cli.main catches, not OverflowError; the bit
        # helpers check no range, but no code past int64 is wrapped either
        for codes in ([2 ** 70], np.array([3, 2 ** 70], dtype=object), [2 ** 63]):
            for helper in (codes_to_words, rc_codes, sequences.tc_masks):
                with pytest.raises(ValueError, match="^word code out of range for m=2$"):
                    helper(codes, 2)
            # masks are spread to words first; the message names the longest mask
            for helper in (sequences.spread, lambda c: sequences.rc_masks(c, 2)):
                with pytest.raises(ValueError, match="^word code out of range for m=31$"):
                    helper(codes)

    def test_bit_parallel_helpers_check_no_range(self):
        # they are handed a set's codes, in range already; code 16 at m=2
        # is not refused, as code_to_word refuses it
        assert rc_codes([16], 2).tolist() == [rc_code(16, 2)]
        assert sequences.tc_masks([16], 2).shape == (1,)

    @pytest.mark.parametrize("codes", [np.array([1.5]), [1.0, 2.0], ["5"], [True]],
                             ids=repr)
    def test_non_integer_codes_raise(self, codes):
        # codes_to_words(np.array([1.5]), 2) is not ['AC']
        with pytest.raises(ValueError, match="^word codes must be integers, got dtype "):
            codes_to_words(codes, 2)
        with pytest.raises(ValueError, match="^word codes must be integers, got dtype "):
            symmetry_images(codes, 2)

    @pytest.mark.parametrize("codes", [
        np.array([1.5]), [1.0, 2.0], np.array([1.5, 7], dtype=object), [1.5, 2 ** 70],
        [True, 3], np.array([True, 3], dtype=object), np.array([np.bool_(False), 3], dtype=object),
        ["5"], [3, "5"]], ids=repr)
    def test_bit_parallel_helpers_refuse_non_integer_codes(self, codes):
        # rc_codes(np.array([1.5]), 2) is not [11], nor tc_masks or spread [1]
        for helper in (lambda c: rc_codes(c, 2), lambda c: sequences.tc_masks(c, 2),
                       sequences.spread, lambda c: codes_to_words(c, 2)):
            with pytest.raises(ValueError, match="^word codes must be integers, got "):
                helper(codes)

    def test_object_array_of_integers_is_read(self):
        codes = np.array([3, np.int64(7), np.uint8(1)], dtype=object)
        assert rc_codes(codes, 2).tolist() == [rc_code(c, 2) for c in (3, 7, 1)]
        assert codes_to_words(codes, 2) == ["AT", "CT", "AC"]
        assert sequences.spread(5).tolist() == 0b010001

    def test_no_codes_give_no_words(self):
        assert codes_to_words([], 2) == [] == codes_to_words(np.array([]), 2)
        assert symmetry_images([], 2).shape == (16, 0)


class TestSymmetryImageOrder:
    def test_image_4s_plus_c_maps_each_digit_to_s_of_it_xor_c(self):
        words = ["ACGT", "TTGA", "CCCA", "GGTC"]
        images = symmetry_images(np.array([word_to_code(w) for w in words]), 4)
        swap = str.maketrans("CG", "GC")  # s = 1 swaps a digit's two bits
        for s in range(2):
            for c in range(4):
                want = ["".join(sequences.ALPHABET[sequences.DIGIT[ch] ^ c]
                                for ch in (w.translate(swap) if s else w)) for w in words]
                assert codes_to_words(images[4 * s + c], 4) == want
                assert codes_to_words(images[8 + 4 * s + c], 4) == [w[::-1] for w in want]


@pytest.fixture
def no_arange(monkeypatch):
    """Every word array comes from np.arange; fail the test if one is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")
    monkeypatch.setattr(np, "arange", refuse)


class TestBudgetGuard:
    """Arrays over all 4^m words are refused before anything is allocated
    once they exceed the budget.  A mask union is charged 2^m for its kept
    masks when it is made (``tc_dominant_set``, the binary reduction), and
    4^m on the first read of its ``codes``, which builds its words."""

    def test_all_codes_explicit_budget(self, monkeypatch, no_arange):
        monkeypatch.setenv("SSA_BUDGET", "1024")
        with pytest.raises(BudgetExceededError, match="4\\^6 words"):
            all_codes(6)
        with pytest.raises(BudgetExceededError):
            rc_pairs(6)
        with pytest.raises(BudgetExceededError):
            rc_classes(6)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("SSA_BUDGET", "1024")
        assert all_codes(5).tolist() == list(range(1024))

    def test_env_budget(self, monkeypatch, no_arange):
        monkeypatch.setenv("SSA_BUDGET", "1024")
        for build in (all_codes, rc_classes, rc_pairs, lambda m: tc_dominant_set(m).codes,
                      lambda m: tc_mask_members(m, np.ones(2 ** m, dtype=bool))):
            with pytest.raises(BudgetExceededError):
                build(6)
        with pytest.raises(BudgetExceededError, match="2\\^11 binary words"):
            binary_reduction_rate(11)

    def test_default_budget(self, monkeypatch, no_arange):
        monkeypatch.delenv("SSA_BUDGET", raising=False)
        monkeypatch.setattr(sequences, "DEFAULT_ENUMERATION_BUDGET", 4 ** 4)
        with pytest.raises(BudgetExceededError):
            tc_dominant_set(5).codes
        with pytest.raises(BudgetExceededError):
            binary_reduction_rate(9)

    def test_union_codes_charged_on_first_read(self, monkeypatch, no_arange):
        monkeypatch.delenv("SSA_BUDGET", raising=False)
        s = tc_dominant_set(14)  # its 2^14 masks are within 4^13
        with pytest.raises(BudgetExceededError, match="^4\\^14 words exceed"):
            s.codes

    @pytest.mark.parametrize("budget", ["abc", "-5", "1.5"])
    def test_bad_env_budget(self, monkeypatch, budget):
        monkeypatch.setenv("SSA_BUDGET", budget)
        with pytest.raises(ValueError, match="^SSA_BUDGET must be a non-negative "
                                             f"integer, got '{budget}'$") as err:
            all_codes(2)
        assert not isinstance(err.value, BudgetExceededError)

    @pytest.mark.parametrize("budget, exp, refused", [
        ("4096", 6, False), ("4096", 7, True), ("4095", 6, True),
        ("0", 0, True), ("1", 0, False), ("4096", 10 ** 9, True), ("1", 10 ** 18, True)])
    def test_power_verdict(self, monkeypatch, budget, exp, refused):
        # 4^exp against the budget, inclusive; no power past the budget's
        # bit length is formed, so 4^(10^18) is refused at once
        monkeypatch.setenv("SSA_BUDGET", budget)
        start = time.perf_counter()
        if refused:
            with pytest.raises(BudgetExceededError, match=f"^4\\^{exp} words exceed"):
                sequences.check_budget(4, f"4^{exp} words", exp=exp)
        else:
            sequences.check_budget(4, f"4^{exp} words", exp=exp)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("build", [all_codes, tc_dominant_set, rc_pairs,
                                       lambda m: count_all_ssa(m, 2)])
    def test_huge_m_refused_at_once(self, monkeypatch, build):
        monkeypatch.setenv("SSA_BUDGET", "4096")
        # a mask union is charged for its 2^m masks, the rest for 4^m words
        what = "2\\^1000000000 binary words" if build is tc_dominant_set else "4\\^1000000000 "
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"^{what}"):
            build(10 ** 9)
        assert time.perf_counter() - start < 1.0

    def test_zero_budget_refuses_any_work(self, monkeypatch):
        monkeypatch.setenv("SSA_BUDGET", "0")
        with pytest.raises(BudgetExceededError, match="budget 0$"):
            all_codes(2)

    @pytest.mark.memory
    def test_nothing_allocated(self, monkeypatch):
        monkeypatch.setenv("SSA_BUDGET", "1024")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                tc_dominant_set(9).codes  # 4^9 int64 codes would be 2 MB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

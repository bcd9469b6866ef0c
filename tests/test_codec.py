import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ssacode import (
    BudgetExceededError,
    CodecError,
    GeneratingSet,
    build_codec,
    count_constrained,
    decode,
    decode_payload,
    encode,
    encode_payload,
    find_secondary_structure,
    heuristic_set_m6_stage,
    rate_of_set,
    tc_dominant_set,
)
from ssacode import capacity, codec
from ssacode.codec import bits_per_block, indices_to_payload, payload_to_indices
from conftest import (
    rc_free_words,
    ref_block_fault,
    ref_constrained_members,
    ref_decode_fault,
    ref_indices_to_payload,
    ref_payload_to_indices,
)

M2_SET = GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"])

# ssacode encode --m 3 --n 12 --set tc-dominant --payload C0FFEE
C0FFEE_TC3_N12 = "TCCCTCCCTCTTCTCTCTCTACCA"


@pytest.fixture(scope="module")
def m6_table():
    return build_codec(heuristic_set_m6_stage(), 60)


class TestBuildCodec:
    def test_totals(self):
        assert build_codec(M2_SET, 2).total == 6
        assert build_codec(M2_SET, 3).total == 14  # walks of length 1 = arcs
        assert build_codec(tc_dominant_set(3), 4).total == 96

    def test_total_matches_count_constrained(self):
        for s, n in ((M2_SET, 7), (tc_dominant_set(3), 9)):
            assert build_codec(s, n).total == count_constrained(s, n)

    def test_unit_path_counts(self):
        t = build_codec(M2_SET, 5)
        assert t.path_counts[0] == [1] * 6
        assert sum(t.path_counts[-1]) == t.total

    def test_rejects_short_block(self):
        with pytest.raises(ValueError):
            build_codec(M2_SET, 1)

    def test_short_block_rejected_before_the_digraph(self, monkeypatch):
        calls = []
        real = codec.build_digraph
        monkeypatch.setattr(codec, "build_digraph",
                            lambda s: calls.append(s) or real(s))
        # AT is its own reverse complement: validating this set would fail
        with pytest.raises(ValueError, match="^n=1 is smaller than the word length m=2$"):
            build_codec(GeneratingSet.from_words(["AT"]), 1)
        assert calls == []
        build_codec(M2_SET, 2)
        assert calls == [M2_SET]


class TestWalkBudget:
    """The n - m + 1 rows of |S| walk counts pass the SSA_BUDGET guard,
    inclusive, before the digraph is built."""

    @pytest.mark.parametrize("build, module",
                             [(build_codec, codec), (count_constrained, capacity)])
    def test_refused_before_the_digraph(self, monkeypatch, build, module):
        calls = []
        real = module.build_digraph
        monkeypatch.setattr(module, "build_digraph", lambda s: calls.append(s) or real(s))
        monkeypatch.setenv("SSA_BUDGET", str(11 * 6 - 1))  # n=12, m=2: 11 rows of 6
        with pytest.raises(BudgetExceededError,
                           match="^11 rows of 6 walk counts exceed the enumeration budget 65$"):
            build(M2_SET, 12)
        assert calls == []
        monkeypatch.setenv("SSA_BUDGET", str(11 * 6))
        build(M2_SET, 12)
        assert calls == [M2_SET]

    def test_union_count_charged_on_its_quotient(self, monkeypatch):
        s = tc_dominant_set(5)  # 512 words in 16 whole TC-mask classes
        calls = []
        real = capacity.mask_quotient
        monkeypatch.setattr(capacity, "mask_quotient", lambda s: calls.append(s) or real(s))
        monkeypatch.setenv("SSA_BUDGET", str(6 * 16 - 1))  # n=10: 6 rows
        with pytest.raises(BudgetExceededError,
                           match="^6 rows of 16 walk counts exceed the enumeration budget 95$"):
            count_constrained(s, 10)
        assert calls == []
        monkeypatch.setenv("SSA_BUDGET", str(6 * 16))
        assert count_constrained(s, 10) == 190464
        assert calls == [s]
        # the encoder walks the words
        with pytest.raises(BudgetExceededError,
                           match="^6 rows of 512 walk counts exceed the enumeration budget 96$"):
            build_codec(s, 10)
        monkeypatch.setenv("SSA_BUDGET", str(6 * 512))
        assert build_codec(s, 10).total == 190464


class TestEncodeDecode:
    def test_boundary_words(self):
        t = build_codec(M2_SET, 2)
        assert encode(t, 0) == "CC"  # smallest word under A<C<G<T
        assert encode(t, 5) == "TT"

    def test_out_of_range(self):
        t = build_codec(M2_SET, 2)
        with pytest.raises(ValueError):
            encode(t, 6)
        with pytest.raises(ValueError):
            encode(t, -1)

    def test_decode_examples(self):
        t = build_codec(M2_SET, 2)
        assert decode(t, "CC") == 0
        with pytest.raises(CodecError, match="CA"):
            decode(t, "CA")

    def test_decode_wrong_length(self):
        t = build_codec(M2_SET, 4)
        with pytest.raises(CodecError):
            decode(t, "TT")

    def test_decode_rejects_symbols_outside_acgt(self):
        t = build_codec(M2_SET, 8)
        for x, pos in (("TTTNTTTT", 4), ("tttttttt", 1), ("TTTTTTTt", 8)):
            with pytest.raises(CodecError, match=f"position {pos} "):
                decode(t, x)

    def test_index_must_be_an_integer(self):
        t = build_codec(M2_SET, 4)
        with pytest.raises(TypeError):
            encode(t, 1.5)
        with pytest.raises(TypeError):
            encode(t, "1")
        assert encode(t, True) == encode(t, 1)
        assert encode(t, np.int64(3)) == encode(t, 3)

    def test_full_roundtrip_small(self):
        for s in (M2_SET, tc_dominant_set(3)):
            t = build_codec(s, 8)
            for k in range(t.total):
                assert decode(t, encode(t, k)) == k

    def test_random_roundtrip_larger(self):
        rng = random.Random(5)
        for s, n in ((M2_SET, 25), (tc_dominant_set(3), 30)):
            t = build_codec(s, n)
            for _ in range(500):
                k = rng.randrange(t.total)
                assert decode(t, encode(t, k)) == k

    def test_lexicographic_monotonicity(self):
        t = build_codec(tc_dominant_set(3), 7)
        seqs = [encode(t, k) for k in range(t.total)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == t.total

    def test_outputs_are_ssa(self):
        for s in (M2_SET, tc_dominant_set(3)):
            t = build_codec(s, 10)
            step = max(t.total // 200, 1)
            for k in range(0, t.total, step):
                assert find_secondary_structure(encode(t, k), s.m) is None

    def test_achieved_rate_grows_toward_asymptote(self):
        s = tc_dominant_set(3)
        asymptote = rate_of_set(s).rate_bits_per_nt
        gaps = [abs(math.log2(build_codec(s, n).total) / n - asymptote)
                for n in (20, 40, 80)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.05


class TestPayloadSegmentation:
    def test_roundtrip_aligned(self):
        # 8 bits per block, 16-bit payload: exact fit
        indices = payload_to_indices("BEEF", 8)
        assert indices == [0xBE, 0xEF]
        assert indices_to_payload(indices, 8) == "BEEF"

    def test_roundtrip_with_padding(self):
        k = 5
        indices = payload_to_indices("F1", k)  # 8 bits -> 2 blocks of 5
        assert len(indices) == 2
        out = indices_to_payload(indices, k)  # 10 bits -> 3 hex digits
        assert int(out, 16) >> (4 * len(out) - 8) == 0xF1

    def test_leading_zeros_preserved(self):
        indices = payload_to_indices("00FF", 8)
        assert indices == [0x00, 0xFF]
        assert indices_to_payload(indices, 8) == "00FF"

    def test_bits_per_block(self):
        assert bits_per_block(build_codec(M2_SET, 2)) == 2  # total 6 -> 2 bits
        with pytest.raises(ValueError):
            bits_per_block(build_codec(GeneratingSet.from_words(["AC"]), 2))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            indices_to_payload([4], 2)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_block_size_below_one(self, k):
        with pytest.raises(ValueError, match=f"block size k must be at least 1 bit, got {k}"):
            payload_to_indices("F", k)
        with pytest.raises(ValueError, match=f"block size k must be at least 1 bit, got {k}"):
            indices_to_payload([0], k)

    def test_only_hex_digits_accepted(self):
        # int(..., 16) takes all of these; "0x1F" would frame as [0, 31]
        for bad in ("0x1F", "1_F", " 1F", "+1F", "-1F", "1F\n", "\uff11F", ""):
            with pytest.raises(ValueError):
                payload_to_indices(bad, 8)
        assert payload_to_indices("be", 8) == payload_to_indices("BE", 8) == [0xBE]


def _outcome(f, *args):
    """f's result, or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# block sizes: 1 bit, multiples of 4 and not, and more bits than short payloads
BLOCK_BITS = st.one_of(st.just(1), st.integers(2, 12), st.integers(13, 300))


class TestFramingAgainstReference:
    """The bit-string framing against the one big-integer shift per block
    of ``conftest``: same indices, payloads and error messages."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=200), BLOCK_BITS)
    @example("F", 1)
    @example("0", 5)
    @example("C0FFEE", 25)
    @example("00FF" * 30, 7)
    def test_payload_to_indices(self, payload, k):
        indices = payload_to_indices(payload, k)
        assert indices == ref_payload_to_indices(payload, k)
        assert indices_to_payload(indices, k) == ref_indices_to_payload(indices, k)

    @given(st.lists(st.integers(-3, 2 ** 40), max_size=30), BLOCK_BITS)
    @example([], 5)
    @example([2], 1)
    def test_indices_to_payload(self, indices, k):
        assert _outcome(indices_to_payload, indices, k) == _outcome(
            ref_indices_to_payload, indices, k)

    @given(st.text(min_size=0, max_size=12), BLOCK_BITS)
    @example("1_F", 8)
    @example("", 3)
    def test_bad_payloads(self, payload, k):
        assert _outcome(payload_to_indices, payload, k) == _outcome(
            ref_payload_to_indices, payload, k)


class TestPayloadFraming:
    def test_roundtrip(self):
        t = build_codec(tc_dominant_set(3), 12)
        blocks = encode_payload(t, "C0FFEE")
        assert "".join(blocks) == C0FFEE_TC3_N12
        assert blocks == [encode(t, k) for k in payload_to_indices("C0FFEE", 19)]
        out = decode_payload(t, C0FFEE_TC3_N12)
        assert out == indices_to_payload(payload_to_indices("C0FFEE", 19), 19)
        assert int(out, 16) >> (4 * len(out) - 24) == 0xC0FFEE

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=40))
    def test_random_payloads(self, payload):
        t = build_codec(tc_dominant_set(3), 12)
        out = decode_payload(t, "".join(encode_payload(t, payload)))
        # payload bits first, then the zero bits that pad the last block
        assert out[:len(payload)] == payload.upper()
        assert set(out[len(payload):]) <= {"0"}

    def test_rejects_bad_length(self):
        t = build_codec(tc_dominant_set(3), 12)
        for seq in ("", C0FFEE_TC3_N12[:13], C0FFEE_TC3_N12 + "T"):
            with pytest.raises(CodecError, match="multiple of n=12"):
                decode_payload(t, seq)

    def test_rejects_index_beyond_payload_bits(self):
        t = build_codec(tc_dominant_set(3), 12)
        k = bits_per_block(t)
        assert t.total > 1 << k
        seq = encode(t, 0) + encode(t, 1 << k)
        with pytest.raises(CodecError, match="block 2 "):
            decode_payload(t, seq)

    def test_rejects_foreign_block(self):
        t = build_codec(tc_dominant_set(3), 12)
        with pytest.raises(CodecError, match="not in S"):
            decode_payload(t, C0FFEE_TC3_N12[:12] + "A" * 12)

    def test_fault_named_by_block_and_sequence_position(self):
        t = build_codec(tc_dominant_set(3), 12)
        with pytest.raises(CodecError,
                           match="^block 2: window 'AAA' at position 13 not in S$"):
            decode_payload(t, C0FFEE_TC3_N12[:12] + "A" * 12)
        seq = C0FFEE_TC3_N12[:17] + "N" + C0FFEE_TC3_N12[18:]
        with pytest.raises(CodecError, match="^block 2: symbol 'N' at position 18 "):
            decode_payload(t, seq)
        # a single block still counts from its own start
        with pytest.raises(CodecError, match="^window 'AAA' at position 1 not in S$"):
            decode(t, "A" * 12)


FAULT_SYMBOLS = "ACGTNacgtn-"


@st.composite
def corruptions(draw, x, m, foreign):
    """x with one fault put in: a symbol substituted (A, C, G, T, N,
    lowercase or other), a word not in S written over the first window,
    the last window or a window anywhere (across a block boundary, for a
    payload), or a symbol inserted or deleted."""
    kind = draw(st.sampled_from(["symbol", "first", "last", "window", "insert", "delete"]))
    pos = draw(st.integers(0, len(x) - 1))
    ch = draw(st.sampled_from(FAULT_SYMBOLS))
    if kind == "symbol":
        return x[:pos] + ch + x[pos + 1:]
    if kind == "insert":
        return x[:pos] + ch + x[pos:]
    if kind == "delete":
        return x[:pos] + x[pos + 1:]
    w = draw(st.sampled_from(foreign))
    if kind == "first":
        return w + x[m:]
    if kind == "last":
        return x[:-m] + w
    pos = draw(st.integers(0, len(x) - m))
    return x[:pos] + w + x[pos + m:]


def foreign_words(s):
    words = set(s.words())
    return [w for w in map("".join, itertools.product("ACGT", repeat=s.m))
            if w not in words]


class TestFaultLocation:
    """Every ``CodecError`` names the fault the naive scan in conftest finds
    first, at the same position, for ``decode`` and ``decode_payload``."""

    @settings(max_examples=200, deadline=None)
    @given(rc_free_words(), st.data())
    def test_decode(self, words, data):
        s = GeneratingSet.from_words(words)
        t = build_codec(s, data.draw(st.integers(s.m, s.m + 8), label="n"))
        assume(t.total > 0)
        x = encode(t, data.draw(st.integers(0, t.total - 1)))
        y = data.draw(corruptions(x, s.m, foreign_words(s)), label="corrupted")
        want = ref_decode_fault(y, set(words), t.n)
        if want is None:
            assert encode(t, decode(t, y)) == y
        else:
            with pytest.raises(CodecError) as exc:
                decode(t, y)
            assert str(exc.value) == want

    @settings(max_examples=200, deadline=None)
    @given(rc_free_words(), st.data())
    def test_decode_payload(self, words, data):
        s = GeneratingSet.from_words(words)
        t = build_codec(s, data.draw(st.integers(s.m, s.m + 8), label="n"))
        assume(t.total >= 2)
        k = bits_per_block(t)
        indices = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=4))
        seq = "".join(encode(t, i) for i in indices)
        y = data.draw(corruptions(seq, s.m, foreign_words(s)), label="corrupted")
        if len(y) % t.n:
            want = f"sequence length {len(y)} is not a multiple of n={t.n}"
        else:
            want = None
            for b in range(len(y) // t.n):
                block = y[b * t.n:(b + 1) * t.n]
                fault = ref_block_fault(block, set(words), b * t.n)
                if fault is not None:
                    want = f"block {b + 1}: {fault}"
                    break
                idx = decode(t, block)
                if idx >> k:
                    want = (f"block {b + 1} decodes to index {idx}, outside the "
                            f"{k}-bit payload range")
                    break
        if want is None:
            assert decode_payload(t, y) == indices_to_payload(
                [decode(t, y[b:b + t.n]) for b in range(0, len(y), t.n)], k)
        else:
            with pytest.raises(CodecError) as exc:
                decode_payload(t, y)
            assert str(exc.value) == want

    def test_oracle_matches_pinned_messages(self):
        words = set(tc_dominant_set(3).words())
        assert ref_block_fault("A" * 12, words, 12) == "window 'AAA' at position 13 not in S"
        assert ref_block_fault("TTTN", words) == (
            "symbol 'N' at position 4 is not one of A, C, G, T")
        assert ref_block_fault("TTTTTT", words) is None


class TestAgainstEnumeration:
    """Rank/unrank against the naive prefix-tree enumeration."""

    @settings(max_examples=80, deadline=None)
    @given(rc_free_words(ms=(2, 3)), st.integers(2, 8))
    def test_unrank_is_sorted_enumeration(self, words, n):
        s = GeneratingSet.from_words(words)
        assume(n >= s.m)
        members = sorted(ref_constrained_members(words, s.m, n))
        t = build_codec(s, n)
        assert count_constrained(s, n) == t.total == len(members)
        assert [encode(t, k) for k in range(t.total)] == members
        assert [decode(t, x) for x in members] == list(range(len(members)))
        firsts = Counter(x[:s.m] for x in members)
        assert t.path_counts[n - s.m] == [firsts[w] for w in s.words()]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_m6_random_roundtrip(self, m6_table, data):
        t = m6_table
        words = set(t.gen_set.words())
        k = data.draw(st.integers(0, t.total - 1))
        x = encode(t, k)
        assert len(x) == 60
        assert all(x[i:i + 6] in words for i in range(55))
        assert decode(t, x) == k
        if k + 1 < t.total:
            assert encode(t, k + 1) > x

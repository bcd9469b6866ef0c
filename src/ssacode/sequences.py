"""DNA alphabet, reverse-complement algebra, and secondary-structure checks.

Sequences are plain uppercase ACGT strings.  This module is the one home of
the word code the library computes on: a length-m word is an integer with
one 2-bit digit per symbol (base 4, A=0 C=1 G=2 T=3, big-endian).  Scalar
helpers and their vectorized forms on int64 code arrays sit side by side,
and every array over all 4^m words passes the ``SSA_BUDGET`` guard first.
All indices reported to callers (e.g. in :class:`Witness`) are 1-based.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

ALPHABET = "ACGT"
COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}
_COMPLEMENT_TABLE = str.maketrans(COMPLEMENT)
DIGIT = {s: i for i, s in enumerate(ALPHABET)}  # symbol -> its 2-bit digit
_SYMBOL_POINTS = np.array([ord(s) for s in ALPHABET], dtype=np.uint32)  # digit -> code point

DEFAULT_ENUMERATION_BUDGET = 4 ** 13


class BudgetExceededError(ValueError):
    """An exhaustive enumeration would exceed the configured budget."""


def check_budget(size: int, what: str, exp: int = 1) -> None:
    """Raise BudgetExceededError if ``size ** exp`` items (``what``) exceed
    the budget: ``SSA_BUDGET`` if set, else ``DEFAULT_ENUMERATION_BUDGET``;
    a huge ``exp`` is refused without forming the power.  Raise ValueError
    if ``SSA_BUDGET`` is not a non-negative integer."""
    env = os.environ.get("SSA_BUDGET")
    if not env:
        cap = DEFAULT_ENUMERATION_BUDGET
    elif env.isascii() and env.isdecimal():
        cap = int(env)
    else:
        raise ValueError(f"SSA_BUDGET must be a non-negative integer, got {env!r}")
    if size ** min(exp, cap.bit_length() + 1) > cap:
        raise BudgetExceededError(f"{what} exceed the enumeration budget {cap}")


def parse_sequence(text: str) -> str:
    """Validate a sequence string; only uppercase A, C, G, T are accepted."""
    if not set(text) <= COMPLEMENT.keys():
        bad = next(ch for ch in text if ch not in COMPLEMENT)
        raise ValueError(f"invalid symbol {bad!r} in sequence (expected A/C/G/T)")
    return text


def complement(symbol: str) -> str:
    return COMPLEMENT[symbol]


def reverse_complement(x: str) -> str:
    """Reverse the sequence and complement every symbol.

    Symbols other than A, C, G, T pass through uncomplemented; validate
    outside input with :func:`parse_sequence` first.
    """
    return x.translate(_COMPLEMENT_TABLE)[::-1]


def word_to_code(word: str) -> int:
    c = 0
    for ch in word:
        c = c * 4 + DIGIT[ch]
    return c


def code_to_word(code: int, m: int) -> str:
    """The length-m word of a code in [0, 4^m); other codes raise ValueError."""
    if not 0 <= code < 4 ** m:
        raise ValueError(f"word code {code} out of range for m={m}")
    out = []
    for _ in range(m):
        out.append(ALPHABET[code % 4])
        code //= 4
    return "".join(reversed(out))


def _digits(codes, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The base-4 digits of integer codes, most significant first, on a new
    last axis of length m (int64), and the shift that places each digit.
    A code outside [0, 4^m) raises ValueError."""
    try:
        codes = np.asarray(codes, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"word code out of range for m={m}") from None
    if codes.size:
        low, high = int(codes.min()), int(codes.max())
        if low < 0 or high >= 4 ** m:
            raise ValueError(f"word code {low if low < 0 else high} "
                             f"out of range for m={m}")
    shifts = np.arange(2 * (m - 1), -1, -2, dtype=np.int64)
    return (codes[..., None] >> shifts) & 3, shifts


def codes_to_words(codes, m: int) -> List[str]:
    """:func:`code_to_word` over an array of codes, in one vectorized pass:
    the digits become UCS4 code points, read back as length-m strings.  A
    code outside [0, 4^m) raises ValueError."""
    digits, _ = _digits(codes, m)
    return _SYMBOL_POINTS[digits].view(f"U{m}")[:, 0].tolist()


def rc_code(code: int, m: int) -> int:
    """Reverse complement of a length-m word in integer-code form."""
    out = 0
    for _ in range(m):
        out = out * 4 + (3 - code % 4)
        code //= 4
    return out


def all_codes(m: int) -> np.ndarray:
    """Every length-m word code, 0 .. 4^m - 1, within the enumeration budget."""
    check_budget(4, f"4^{m} words", exp=m)
    return np.arange(4 ** m, dtype=np.int64)


# _RUNS[k] sets the low 2^k of every 2^(k+1) bits: 0x5555..., 0x3333..., 0x0F0F...
_RUNS = tuple((2 ** 64 - 1) // (2 ** 2 ** k + 1) for k in range(6))
_LOW_BITS = _RUNS[0]  # low bit of every digit: set for C and T
_EVEN_BIT_PAIRS = _RUNS[1]  # digits 0, 2, 4, ...
_EVEN_NIBBLES = _RUNS[2]  # digit pairs 0, 2, 4, ... (low nibble of each byte)


def _as_words(codes) -> np.ndarray:
    """A fresh uint64 copy of integer codes, so that shifts are logical."""
    return np.asarray(codes, dtype=np.int64).astype(np.uint64)


def rc_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Vectorized reverse complement on integer-coded words (m <= 31).

    The complement of a symbol is 3 - d = d ^ 3 on its 2-bit digit.  The
    digits are reversed across the whole 64-bit word (swap neighbouring
    digits, then neighbouring digit pairs, then the bytes) and the 32 - m
    unused digits, now at the bottom, are shifted out.
    """
    x = _as_words(codes)
    x ^= 4 ** m - 1
    y = np.empty_like(x)  # the one scratch array; every other step is in place
    for shift, mask in ((2, _EVEN_BIT_PAIRS), (4, _EVEN_NIBBLES)):
        np.right_shift(x, shift, out=y)
        y &= mask
        x &= mask
        x <<= shift
        x |= y
    x.byteswap(inplace=True)
    x >>= 64 - 2 * m
    return x.view(np.int64)


# Row 4 * s + c is the symbol map d -> s(d) ^ c of ``symmetry_images``,
# indexed by digit d; s = 1 swaps C and G
_SYMBOL_MAPS = np.array([[((d & 1) << 1 | d >> 1 if s else d) ^ c for d in range(4)]
                         for s in range(2) for c in range(4)], dtype=np.int64)


def symmetry_images(codes: np.ndarray, m: int) -> np.ndarray:
    """The 16 images of integer-coded words under the symmetries of the
    overlap digraph that commute with reverse complement (m <= 31), as an
    int64 array of shape (16,) + codes.shape.

    Image 4 * s + c maps each digit d to s(d) ^ c, where s = 0 is the
    identity and s = 1 swaps the digit's two bits, and c = 0 .. 3: the 8
    symbol maps that commute with complement (d -> d ^ 3), read from the
    table ``_SYMBOL_MAPS`` at each digit.  Images 8 .. 15 are images
    0 .. 7 with the digits reversed.  Image 0 is the identity.  A symbol
    map relabels the overlap digraph and reversal transposes it, so every
    image of a set has the same Perron root, and an RC-free set's images
    are RC-free.  A code outside [0, 4^m) raises ValueError.
    """
    digits, shifts = _digits(codes, m)
    images = _SYMBOL_MAPS[:, digits]
    return (np.concatenate((images, images[..., ::-1])) << shifts).sum(-1)


def tc_weights(codes: np.ndarray, m: int) -> np.ndarray:
    """Number of T/C symbols per word.  T and C have odd codes.

    The weight is the popcount of the digits' low bits, summed per nibble,
    per byte, then over the bytes.
    """
    x = _as_words(codes)
    x &= _LOW_BITS
    y = x >> 2  # the one scratch array; every other step is in place
    y &= _EVEN_BIT_PAIRS
    x &= _EVEN_BIT_PAIRS
    x += y
    np.right_shift(x, 4, out=y)
    x += y
    x &= _EVEN_NIBBLES
    x *= 0x0101010101010101  # wraps: the top byte collects the byte sums
    x >>= 56
    return x.view(np.int64)


# Words per step of every blockwise pass over a set's words (``tc_masks``,
# ``GeneratingSet.mask_classes``), so the scratch arrays stay in cache.
_MASK_BLOCK = 1 << 16


def tc_masks(codes: np.ndarray, m: int) -> np.ndarray:
    """TC mask per word (T,C -> 1; A,G -> 0) as an m-bit big-endian int32
    integer (m <= 31).

    The mask is the m digits' low bits packed together: step k ORs in the
    bits 2^k places higher and keeps the runs of 2^(k+1) bits, ceil(log2 m)
    steps, one block of words at a time in two reused uint64 buffers.
    """
    codes = np.asarray(codes, dtype=np.int64)
    flat = codes.ravel()
    masks = np.empty(len(flat), dtype=np.int32)
    x = np.empty(min(len(flat), _MASK_BLOCK), dtype=np.uint64)
    y = np.empty_like(x)
    for start in range(0, len(flat), _MASK_BLOCK):
        block = flat[start:start + _MASK_BLOCK]
        xb, yb = x[:len(block)], y[:len(block)]
        np.bitwise_and(block.view(np.uint64), _LOW_BITS, out=xb)
        for k in range((m - 1).bit_length()):
            np.right_shift(xb, 1 << k, out=yb)
            xb |= yb
            xb &= _RUNS[k + 1]
        masks[start:start + len(block)] = xb
    return masks.reshape(codes.shape)


def spread(masks) -> np.ndarray:
    """The inverse of ``tc_masks``: bit i of each mask becomes the low bit
    of digit i, so a mask becomes the code of its word over {A, C}, int64.

    Step k ORs every bit in 2^k places higher and keeps the runs of 2^k
    bits, for k = 4, ..., 0.  Spreading keeps order.
    """
    x = _as_words(masks)
    for k in range(4, -1, -1):
        x |= x << (1 << k)
        x &= _RUNS[k]
    return x.view(np.int64)


def tc_class_codes(code: int, m: int) -> np.ndarray:
    """The 2^m codes that share the TC mask of ``code``, ascending.

    A digit's low bit is its TC bit, so the class keeps those bits of
    ``code`` and takes the spread masks 0 .. 2^m - 1, ascending, as the
    digits' high bits.  2^m work, no 4^m array.
    """
    return (code & _LOW_BITS) | spread(np.arange(2 ** m)) << 1


def rc_masks(masks: np.ndarray, m: int) -> np.ndarray:
    """TC mask of the reverse complements of each m-bit mask class: the mask
    of the reverse complement of any one word of the class."""
    return tc_masks(rc_codes(spread(masks), m), m)


def tc_dominant_masks(m: int) -> np.ndarray:
    """Keep table over the 2^m TC masks: True where more than m/2 bits are 1,
    the masks of the TC-dominant words."""
    check_budget(2, f"2^{m} binary words", exp=m)
    return tc_weights(spread(np.arange(2 ** m)), m) > m // 2


def tc_mask_members(m: int, keep: np.ndarray) -> np.ndarray:
    """Which length-m words have a kept TC mask, as a boolean array indexed
    by word code; ``keep`` is a boolean table indexed by mask.

    A word's mask is its high half-word's mask followed by its low
    half-word's.  So ``keep``, read as a matrix with one row per high mask
    and one column per low mask, is gathered by the masks of the at most
    4^ceil(m/2) low half-words, then row by row by those of the high
    half-words.  The result has one row per high half-word and one column
    per low one, so it reads in word-code order; no mask or code of a
    whole word is formed, and ``np.flatnonzero`` of it gives the kept codes.
    """
    check_budget(4, f"4^{m} words", exp=m)
    low = m // 2
    hi = tc_masks(np.arange(4 ** (m - low), dtype=np.int64), m - low)
    lo = tc_masks(np.arange(4 ** low, dtype=np.int64), low)
    by_low = keep.reshape(2 ** (m - low), 2 ** low)[:, lo]
    return np.take(by_low, hi, axis=0).ravel()  # whole rows: C order


def rc_pairs(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The RC pairs {w, RC(w)}, w != RC(w), of length-m words as two code
    arrays: ascending lower members and their reverse complements."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    codes = all_codes(m)
    rcs = rc_codes(codes, m)
    lo = codes < rcs
    return codes[lo], rcs[lo]


@dataclass(frozen=True)
class Witness:
    """Locates a secondary structure: windows x[i;m] and x[j;m] are
    reverse complements, 1-based, non-overlapping (i + m - 1 < j)."""

    i: int
    j: int
    m: int


_DIGITS = np.zeros(128, dtype=np.int64)  # code point -> 2-bit digit
_DIGITS[_SYMBOL_POINTS] = np.arange(4)

# Widest window key, in bits, that the doubling in ``_window_keys`` forms:
# a pair of keys past it is re-ranked first, so it never reaches the sign.
_KEY_BITS = 62


def _window_keys(digits: np.ndarray, m: int) -> np.ndarray:
    """An int64 key for every length-m window of ``digits`` (m >= 1): two
    windows have equal keys iff they are equal.

    Prefix doubling (Manber & Myers, "Suffix arrays", SIAM J. Comput.,
    1993): from exact keys of the length-L windows, the pair of keys at p
    and p + s, s <= L, is an exact key of the length-(L + s) window at p,
    as the two windows cover it.  A pair of b-bit keys takes 2b bits; when
    that would pass ``_KEY_BITS`` the keys are first re-ranked to their
    index among the distinct keys (``np.unique``), at most log2 of the
    window count bits, so the keys stay exact up to 2^31 windows.
    ceil(log2 m) steps; no re-rank while m <= 16.
    """
    keys, length, bits = digits, 1, 2
    while length < m:
        step = min(length, m - length)
        if 2 * bits > _KEY_BITS:
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
            bits = max(int(keys.max()).bit_length(), 1)
        keys = keys[:-step] << bits | keys[step:]
        length += step
        bits *= 2
    return keys


def find_secondary_structure(x: str, m: int) -> Optional[Witness]:
    """Return the smallest (i, j) witness of a secondary structure, or None.

    None means x is an m-SSA sequence.  Witnesses are ordered by i, then j.
    A symbol other than A, C, G, T raises ValueError.

    One vectorized pass over the n - m + 1 windows of x and as many of its
    reverse complement, whose window at n - m - i is the reverse complement
    of x[i:i+m], the target of i.  Both get exact window keys
    (``_window_keys``, on x's digits followed by those of its reverse
    complement), the targets by i first, then x's windows by start j, so a
    key's index k is i, or w + j with w = n - m + 1.  One argsort of the
    keys makes each key's entries a run, and a segmented max of k over each
    run (``np.maximum.reduceat``) is w plus the key's last start in x, or
    below w if x lacks it.  The witness is the first i whose run max is at
    least w + i + m, and its j is the target's first start there.  O(n log
    n) time for the sort (and the ``np.unique`` re-ranks past m = 16);
    memory is a few int64 arrays of 2n entries, 16n bytes each.
    """
    if m < 2:
        raise ValueError(f"stem length m must be >= 2, got {m}")
    parse_sequence(x)
    n = len(x)
    if n < 2 * m:
        return None
    digits = _DIGITS[np.frombuffer(x.encode("ascii"), dtype=np.uint8)]
    keys = _window_keys(np.concatenate((digits, 3 - digits[::-1])), m)
    w = n - m + 1
    both = np.concatenate((keys[:n - 1:-1], keys[:w]))
    order = np.argsort(both)
    runs = np.flatnonzero(np.diff(both[order], prepend=-1))  # keys are >= 0
    last = np.repeat(np.maximum.reduceat(order, runs), np.diff(runs, append=len(order)))
    hits = order[last >= order + (w + m)]  # never true of an entry k >= w
    if len(hits) == 0:
        return None
    i = int(hits.min())
    target = reverse_complement(x[i:i + m])
    return Witness(i=i + 1, j=x.find(target, i + m) + 1, m=m)


def window_multiset(x: str, m: int) -> Counter:
    """Multiset of all length-m windows of x, with multiplicities.  A symbol
    other than A, C, G, T raises ValueError."""
    if m < 1:
        raise ValueError(f"window length m must be >= 1, got {m}")
    parse_sequence(x)
    if len(x) < m:
        raise ValueError(f"sequence of length {len(x)} has no length-{m} windows")
    return Counter(x[i:i + m] for i in range(len(x) - m + 1))


def is_tc_dominant(x: str, m: int) -> bool:
    """True iff every length-m window has strictly more than m/2 T/C symbols.
    A symbol other than A, C, G, T raises ValueError."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    parse_sequence(x)
    n = len(x)
    if n < m:
        raise ValueError(f"sequence of length {n} is shorter than m={m}")
    tc = _DIGITS[np.frombuffer(x.encode("ascii"), dtype=np.uint8)] & 1  # T, C: odd
    before = np.concatenate(([0], np.cumsum(tc)))  # T/C symbols in x[:k]
    return bool((2 * (before[m:] - before[:-m]) > m).all())


def count_all_ssa(n: int, m: int) -> int:
    """Exact number of m-SSA sequences of length n (the quantity A(n;m)).

    Exhaustive: walks the prefix tree of D^n and prunes a subtree as soon as
    its prefix already contains a secondary structure (every extension then
    contains it too).  Desk-scale oracle; enumeration is budget-capped.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_budget(4, f"4^{n} sequences", exp=n)
    if n < 2 * m:
        return 4 ** n
    mod = 4 ** m
    # 4^m <= 2^n entries, while the search visits at least 4^(2m) - 4^m prefixes
    rc_table = rc_codes(all_codes(m), m).tolist()

    earliest: dict = {}  # window code -> first (smallest) start position

    def dfs(pos: int, window: int) -> int:
        count = 0
        for d in range(4):
            w = (window * 4 + d) % mod
            if pos + 1 >= m:
                start = pos + 1 - m
                if earliest.get(rc_table[w], n) <= start - m:
                    continue  # structure completed; whole subtree is non-SSA
                added = w not in earliest
                if added:
                    earliest[w] = start
                if pos + 1 == n:
                    count += 1
                else:
                    count += dfs(pos + 1, w)
                if added:
                    del earliest[w]
            else:
                count += dfs(pos + 1, w)
        return count

    return dfs(0, 0)

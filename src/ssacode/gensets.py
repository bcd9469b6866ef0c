"""Generating sets of length-m words and their reverse-complement structure.

A generating set S is RC-free: no two members (possibly the same one) are
reverse complements of each other.  The window-constrained code C_n(S) is
the set of length-n sequences all of whose m-windows lie in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from . import sequences
from .sequences import (
    DIGIT,
    all_codes,
    check_budget,
    code_to_word,
    codes_to_words,
    parse_sequence,
    rc_codes,
    rc_masks,
    rc_pairs,
    tc_class_codes,
    tc_dominant_masks,
    tc_mask_members,
    tc_masks,
    window_multiset,
    word_to_code,
)


# Longest word of a set: the word code helpers work on 64-bit words
# (``rc_codes``, ``tc_masks``)
MAX_WORD_LENGTH = 31


class InvalidGeneratingSetError(ValueError):
    """The generating set violates RC-freeness (or is otherwise malformed)."""


def sorted_unique(codes) -> np.ndarray:
    """A sorted, duplicate-free int64 array of the given codes.

    Sort-and-diff, not ``np.unique``: numpy 2.3+ takes a hash path in
    ``np.unique`` that is about 50x slower on millions of int64 codes.
    A 1-d int64 array that is already strictly increasing is returned as
    it is, not copied; otherwise the input is left as it is.
    """
    if not isinstance(codes, np.ndarray):
        codes = list(codes)
    arr = np.asarray(codes, dtype=np.int64)
    if arr.ndim == 1 and (arr[1:] > arr[:-1]).all():
        return arr
    arr = np.sort(arr, axis=None)
    if len(arr) > 1:
        fresh = arr[1:] != arr[:-1]
        if not fresh.all():
            arr = arr[np.concatenate(([True], fresh))]
    return arr


@dataclass(frozen=True, eq=False)
class GeneratingSet:
    """A set of length-m words, stored as a sorted array of integer codes.

    The array is int64, duplicate-free and read-only; the digraph and the
    codec take it as it is and never deduplicate it again.
    """

    m: int
    codes: np.ndarray

    @classmethod
    def from_codes(cls, m: int, codes: Iterable[int], *,
                   _owned: bool = False) -> "GeneratingSet":
        """Codes in [0, 4^m), in any order and with repeats, for a word
        length 1 <= m <= 31; other codes or lengths raise ValueError.

        A caller's array is never kept: if it is already sorted, it is
        copied.  ``_owned`` is for this module's builders, which hand over
        a fresh array that nothing else holds; it is kept without a copy.
        """
        if not 1 <= m <= MAX_WORD_LENGTH:
            raise ValueError(f"word length m must be in 1..{MAX_WORD_LENGTH}, got {m}")
        try:
            arr = sorted_unique(codes)
        except OverflowError:
            raise ValueError(f"word code out of range for m={m}") from None
        if not _owned and (arr is codes or (isinstance(codes, np.ndarray)
                                            and np.may_share_memory(arr, codes))):
            arr = arr.copy()  # sorted already: the caller's array stays theirs
        if len(arr) and (arr[0] < 0 or arr[-1] >= 4 ** m):
            raise ValueError(f"word code out of range for m={m}")
        arr.setflags(write=False)
        return cls(m=m, codes=arr)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "GeneratingSet":
        words = list(words)
        if not words:
            raise ValueError("generating set needs at least one word")
        m = len(words[0])
        for w in words:
            if len(w) != m:
                raise ValueError(f"mixed word lengths: {words[0]!r} vs {w!r}")
            parse_sequence(w)
        return cls.from_codes(m, [word_to_code(w) for w in words])

    def words(self) -> List[str]:
        return codes_to_words(self.codes, self.m)

    @cached_property
    def mask_classes(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(kept masks, each word's int32 mask) if S is a union of whole TC-mask
        classes (T,C -> 1; A,G -> 0), that is, every mask present has all
        2^m words; None otherwise.

        One ``tc_masks`` pass and a blockwise ``bincount``, made on first
        use and kept (``codes`` is read-only): ``validate`` and
        ``capacity.mask_quotient`` both read it.  A set whose size is not
        a positive multiple of 2^m is no union, and neither is one that
        misses a word of its first word's class (``tc_class_codes``, 2^m
        lookups); for those no mask is computed.
        """
        codes, classes = self.codes, 2 ** self.m
        if len(codes) == 0 or len(codes) % classes:
            return None
        first = tc_class_codes(int(codes[0]), self.m)
        at = np.searchsorted(codes, first)
        if at[-1] == len(codes) or (codes[at] != first).any():
            return None
        masks = tc_masks(codes, self.m)
        # bincount casts int32 masks to intp: a block at a time, the cast
        # stays in cache
        step = sequences._MASK_BLOCK
        counts = sum(np.bincount(masks[i:i + step], minlength=classes)
                     for i in range(0, len(masks), step))
        kept = np.flatnonzero(counts)
        if (counts[kept] != classes).any():
            return None
        masks.setflags(write=False)
        kept.setflags(write=False)
        return kept, masks

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, word: str) -> bool:
        """False for a word of another length or with a non-ACGT symbol."""
        if len(word) != self.m or not set(word) <= DIGIT.keys():
            return False
        c = word_to_code(word)
        i = int(np.searchsorted(self.codes, c))
        return i < len(self.codes) and self.codes[i] == c

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratingSet) and self.m == other.m
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.m, self.codes.tobytes()))

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"GeneratingSet(m={self.m}, words={self.words()})"
        return f"GeneratingSet(m={self.m}, size={len(self)})"

    def require_valid(self) -> "GeneratingSet":
        result = validate(self)
        if not result.valid:
            raise InvalidGeneratingSetError(
                f"generating set contains reverse-complement violations: "
                f"{result.violations[:5]}")
        return self


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    maximal: bool
    violations: List[Tuple[str, str]]


def num_rc_pairs(m: int) -> int:
    """Number of unordered reverse-complement pairs {w, RC(w)} with w != RC(w)."""
    return (4 ** m - num_self_rc(m)) // 2


def num_self_rc(m: int) -> int:
    """Number of self-reverse-complement words: 0 for odd m, 4^(m/2) for even."""
    return 0 if m % 2 else 4 ** (m // 2)


def validate(s: GeneratingSet) -> ValidationResult:
    """Check RC-freeness; maximal means one word from every RC pair.

    The reverse complements of TC-mask class a make up class
    ``rc_masks(a)``, so a union of whole mask classes
    (``GeneratingSet.mask_classes``) is RC-free iff no kept mask has its
    partner kept, itself included: 2^m work, with no word touched.  Every
    other set, and a union that fails this test, is checked word by word,
    which also lists the violations.
    """
    union = s.mask_classes
    if union is not None:
        kept = union[0]
        if not np.isin(rc_masks(kept, s.m), kept).any():
            return ValidationResult(valid=True, maximal=len(s) == num_rc_pairs(s.m),
                                    violations=[])
    return _validate_words(s)


def _validate_words(s: GeneratingSet) -> ValidationResult:
    """``validate`` word by word: each word's reverse complement is looked
    up in S, and every violating pair is listed once."""
    rcs = rc_codes(s.codes, s.m)
    bad = np.isin(rcs, s.codes)
    violations = [
        (code_to_word(int(c), s.m), code_to_word(int(r), s.m))
        for c, r in zip(s.codes[bad], rcs[bad])
        if c <= r  # report each unordered pair once; self-RC words have c == r
    ]
    valid = not bad.any()
    maximal = valid and len(s) == num_rc_pairs(s.m)
    return ValidationResult(valid=valid, maximal=maximal, violations=violations)


@dataclass(frozen=True)
class RcClasses:
    """Partition of D^m into RC pairs (lex-smaller member first) and self-RC words."""

    m: int
    pairs: List[Tuple[str, str]]
    self_rc: List[str]


def rc_classes(m: int) -> RcClasses:
    """The string view of ``rc_pairs``; a self-RC word (even m only) is a
    half-word followed by its reverse complement."""
    lower, upper = rc_pairs(m)
    pairs = [(code_to_word(c, m), code_to_word(r, m))
             for c, r in zip(lower.tolist(), upper.tolist())]
    self_rc = []
    if m % 2 == 0:
        half = all_codes(m // 2)
        self_rc = [code_to_word(c, m)
                   for c in (half * 4 ** (m // 2) + rc_codes(half, m // 2)).tolist()]
    return RcClasses(m=m, pairs=pairs, self_rc=self_rc)


def _mask_union(m: int, keep: np.ndarray, words: Tuple[str, ...] = ()) -> GeneratingSet:
    """The words whose TC mask is kept (``keep``, a boolean table over the
    2^m masks), plus the listed ``words``; sorted as built, never re-sorted."""
    member = tc_mask_members(m, keep)
    member[[word_to_code(w) for w in words]] = True
    return GeneratingSet.from_codes(m, np.flatnonzero(member), _owned=True)


def tc_dominant_set(m: int) -> GeneratingSet:
    """All length-m words with strictly more than m/2 symbols from {T, C}.

    The union of the mask classes with more than m/2 ones, built from the
    2^m masks (``sequences.tc_mask_members``): no int64 pass over all 4^m
    codes and their weights.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    check_budget(4, f"4^{m} words", exp=m)  # before the 2^m mask table too
    return _mask_union(m, tc_dominant_masks(m))


# The 12 mask-1010/0101 words selected by brute force over the 12 remaining
# RC pairs; they maximize the number of induced arcs among themselves.
_M4_LISTED = ("CACA", "TACA", "CGCA", "CATA", "TACG", "CACG",
              "ACAC", "GCAC", "ATAC", "ACGC", "GCAT", "ACAT")


def heuristic_set_m4() -> GeneratingSet:
    """The 108-word m=4 set: TC-weight >= 3, mask 0110, plus 12 listed words."""
    keep = tc_dominant_masks(4)  # TC-weight >= 3
    keep[0b0110] = True
    return _mask_union(4, keep, _M4_LISTED)


_M6_KEPT_MASKS = ("001110", "010110", "011010", "011100", "001101", "101100")


def heuristic_set_m6_stage() -> GeneratingSet:
    """The 1792-word staged m=6 set: TC-weight >= 4 plus six kept mask classes.

    Stops before the unresolved 010101/101010 and 011001/100110 classes;
    its digraph already has spectral radius 3.2443 (rate 1.6979 bits/nt).
    """
    keep = tc_dominant_masks(6)  # TC-weight >= 4
    keep[[int(mask, 2) for mask in _M6_KEPT_MASKS]] = True
    return _mask_union(6, keep)


def in_c_tilde(x: str, s: GeneratingSet) -> bool:
    """Membership in the relaxed code: every window of x outside S occurs
    at most 2m-1 times in the window multiset of x.  ValueError if x has a
    non-ACGT symbol."""
    s.require_valid()
    parse_sequence(x)
    counts = window_multiset(x, s.m)
    limit = 2 * s.m - 1
    return all(c <= limit for w, c in counts.items() if w not in s)


def read_set_file(path) -> GeneratingSet:
    """Read a generating set: one word per line, '#' comments, blanks ignored."""
    words = []
    for index, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                words.append(parse_sequence(line))
            except ValueError as exc:
                raise ValueError(f"{path}, line {index}: {exc}") from None
    if not words:
        raise ValueError(f"no words found in set file {path}")
    return GeneratingSet.from_words(words)


def write_set_file(s: GeneratingSet, path, comment: Optional[str] = None) -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.extend(s.words())
    Path(path).write_text("\n".join(lines) + "\n")

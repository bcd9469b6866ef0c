"""Generating sets of length-m words and their reverse-complement structure.

A generating set S is RC-free: no two members (possibly the same one) are
reverse complements of each other.  The window-constrained code C_n(S) is
the set of length-n sequences all of whose m-windows lie in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .sequences import (
    DIGIT,
    all_codes,
    code_to_word,
    codes_with_tc_mask,
    parse_sequence,
    rc_codes,
    rc_pairs,
    tc_weights,
    window_multiset,
    word_to_code,
)


class InvalidGeneratingSetError(ValueError):
    """The generating set violates RC-freeness (or is otherwise malformed)."""


def sorted_unique(codes, overwrite: bool = False) -> np.ndarray:
    """A sorted, duplicate-free int64 array of the given codes.

    Sort-and-diff, not ``np.unique``: numpy 2.3+ takes a hash path in
    ``np.unique`` that is about 50x slower on millions of int64 codes.
    A 1-d int64 array that is already strictly increasing is returned as
    it is, not copied.  Otherwise the input is left as it is, unless
    ``overwrite`` is set: then a 1-d int64 array is sorted in place, which
    saves a copy.
    """
    if not isinstance(codes, np.ndarray):
        codes = list(codes)
    arr = np.asarray(codes, dtype=np.int64)
    if arr.ndim == 1 and (arr[1:] > arr[:-1]).all():
        return arr
    if overwrite and arr.ndim == 1:
        arr.sort()
    else:
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
    def from_codes(cls, m: int, codes: Iterable[int]) -> "GeneratingSet":
        """Codes in [0, 4^m), in any order and with repeats; others raise ValueError."""
        try:
            arr = sorted_unique(codes)
        except OverflowError:
            raise ValueError(f"word code out of range for m={m}") from None
        if arr is codes or (isinstance(codes, np.ndarray)
                            and np.may_share_memory(arr, codes)):
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
        return [code_to_word(int(c), self.m) for c in self.codes]

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
    """Check RC-freeness; maximal means one word from every RC pair."""
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


def rc_classes(m: int, budget: Optional[int] = None) -> RcClasses:
    """The string view of ``rc_pairs``; a self-RC word (even m only) is a
    half-word followed by its reverse complement."""
    lower, upper = rc_pairs(m, budget)
    pairs = [(code_to_word(c, m), code_to_word(r, m))
             for c, r in zip(lower.tolist(), upper.tolist())]
    self_rc = []
    if m % 2 == 0:
        half = all_codes(m // 2)
        self_rc = [code_to_word(c, m)
                   for c in (half * 4 ** (m // 2) + rc_codes(half, m // 2)).tolist()]
    return RcClasses(m=m, pairs=pairs, self_rc=self_rc)


def tc_dominant_set(m: int) -> GeneratingSet:
    """All length-m words with strictly more than m/2 symbols from {T, C}."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    codes = all_codes(m)
    return GeneratingSet.from_codes(m, codes[tc_weights(codes, m) > m // 2])


# The 12 mask-1010/0101 words selected by brute force over the 12 remaining
# RC pairs; they maximize the number of induced arcs among themselves.
_M4_LISTED = ("CACA", "TACA", "CGCA", "CATA", "TACG", "CACG",
              "ACAC", "GCAC", "ATAC", "ACGC", "GCAT", "ACAT")


def heuristic_set_m4() -> GeneratingSet:
    """The 108-word m=4 set: TC-weight >= 3, mask 0110, plus 12 listed words."""
    codes = all_codes(4)
    parts = [
        codes[tc_weights(codes, 4) >= 3],
        codes_with_tc_mask(4, "0110"),
        np.array([word_to_code(w) for w in _M4_LISTED], dtype=np.int64),
    ]
    return GeneratingSet.from_codes(4, np.concatenate(parts))


_M6_KEPT_MASKS = ("001110", "010110", "011010", "011100", "001101", "101100")


def heuristic_set_m6_stage() -> GeneratingSet:
    """The 1792-word staged m=6 set: TC-weight >= 4 plus six kept mask classes.

    Stops before the unresolved 010101/101010 and 011001/100110 classes;
    its digraph already has spectral radius 3.2443 (rate 1.6979 bits/nt).
    """
    codes = all_codes(6)
    parts = [codes[tc_weights(codes, 6) >= 4]]
    parts += [codes_with_tc_mask(6, mask) for mask in _M6_KEPT_MASKS]
    return GeneratingSet.from_codes(6, np.concatenate(parts))


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

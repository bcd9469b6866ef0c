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

from .sequences import (
    DIGIT,
    all_codes,
    check_stem,
    check_word_length,
    code_to_word,
    codes_to_words,
    parse_sequence,
    rc_codes,
    rc_masks,
    rc_pairs,
    sorted_unique,
    tc_dominant_masks,
    tc_mask_members,
    tc_masks,
    window_multiset,
    word_to_code,
)


# Words per step of the mask pass of ``GeneratingSet.mask_classes``, so its
# scratch arrays stay in cache
_MASK_BLOCK = 1 << 16


class InvalidGeneratingSetError(ValueError):
    """The generating set violates RC-freeness (or is otherwise malformed)."""


@dataclass(frozen=True, eq=False, init=False)
class GeneratingSet:
    """A set of length-m words, with two views of it: ``codes``, its words
    as a sorted array of integer codes, and ``mask_classes``, its kept
    TC masks when it is a union of whole mask classes.

    Each constructor fills in the view it already has, and the other is
    made on first read and kept.  ``from_codes`` (and ``from_words``)
    holds the codes.  A builder that makes a union from its keep table
    (``_mask_union``: ``tc_dominant_set``, ``heuristic_set_m6_stage``)
    holds only the kept masks: its size, ``validate``, membership, the
    certified rate and the count read no word, and its codes are built on
    their first read, through ``GeneratingSet.from_codes`` like every
    other code array.  The codes are int64, duplicate-free and read-only;
    the digraph and the codec take them as they are and never deduplicate
    them again.  A set also holds its ``validate`` result once made, or
    from the start when its builder knows it (``_one_word_per_pair``).
    """

    m: int

    @classmethod
    def from_codes(cls, m: int, codes: Iterable[int], *,
                   _owned: bool = False) -> "GeneratingSet":
        """Codes in [0, 4^m), in any order and with repeats, for a word
        length 1 <= m <= 31; other codes or lengths raise ValueError
        (``sequences.check_word_length`` and ``sorted_unique``).

        A caller's array is never kept: if it is already sorted, it is
        copied.  ``_owned`` is for this module's builders, which hand over
        a fresh array that nothing else holds; it is kept without a copy.
        """
        check_word_length(m)
        arr = sorted_unique(codes, m)
        if not _owned and (arr is codes or (isinstance(codes, np.ndarray)
                                            and np.may_share_memory(arr, codes))):
            arr = arr.copy()  # sorted already: the caller's array stays theirs
        arr.setflags(write=False)
        return cls._holding(m, codes=arr)

    @classmethod
    def _holding(cls, m: int, **views) -> "GeneratingSet":
        """A set that holds the given views (``codes`` or ``mask_classes``)
        in their cached properties' own slots.  Every set is made here, so
        each holds a view to make the other from; ``GeneratingSet(...)``
        itself takes no arguments."""
        s = cls.__new__(cls)
        vars(s).update(m=m, **views)
        return s

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "GeneratingSet":
        words = list(words)
        if not words:
            raise ValueError("generating set needs at least one word")
        for w in words:
            _check_word(w, words[0])
        return cls.from_codes(len(words[0]), [word_to_code(w) for w in words])

    def words(self) -> List[str]:
        return codes_to_words(self.codes, self.m)

    @cached_property
    def codes(self) -> np.ndarray:
        """The words' codes, ascending read-only int64.  Held from the start
        by a set made from codes; a union made from its kept masks builds
        them here, on first read, from its keep table
        (``sequences.tc_mask_members``), as its builder would have.  That
        first read is where its 4^m words are charged to the budget, so
        ``words()``, ``==`` and ``hash`` of a union past the budget raise
        ``BudgetExceededError``, as does every digraph or codec built on
        its words."""
        keep = np.zeros(2 ** self.m, dtype=bool)
        keep[self.mask_classes] = True
        return _member_set(self.m, keep).codes

    @cached_property
    def mask_classes(self) -> Optional[np.ndarray]:
        """The kept masks, ascending read-only int64, if S is a union of
        whole TC-mask classes (T,C -> 1; A,G -> 0), that is, every mask
        present has all 2^m words; None otherwise.

        A builder that makes a union from its keep table (``_mask_union``:
        ``tc_dominant_set``, ``heuristic_set_m6_stage``) holds its kept
        masks from the start, and no word is read.  For any other set they
        are found in the codes.  A set whose size is not a positive
        multiple of 2^m is no union and computes no mask.  The rest take
        one pass over their codes, ``_MASK_BLOCK`` words at a time: each
        block's ``tc_masks`` are counted into 2^m bins and dropped, so no
        word's mask is kept, and the counts decide alone.  Made on first
        use and kept (``codes`` is read-only): ``validate`` and
        ``capacity.mask_quotient`` both read it.
        """
        codes, classes = self.codes, 2 ** self.m
        if len(codes) == 0 or len(codes) % classes:
            return None
        counts = sum(np.bincount(tc_masks(codes[i:i + _MASK_BLOCK], self.m),
                                 minlength=classes)
                     for i in range(0, len(codes), _MASK_BLOCK))
        kept = np.flatnonzero(counts)
        if (counts[kept] != classes).any():
            return None
        kept.setflags(write=False)
        return kept

    @cached_property
    def _validation(self) -> "ValidationResult":
        """What ``validate`` returns (see there): made on its first call and
        kept, as the set is read-only, or handed over by the builder that
        knows it (``_one_word_per_pair``)."""
        kept = self.mask_classes
        if kept is not None and not np.isin(rc_masks(kept, self.m), kept).any():
            return ValidationResult(valid=True, maximal=len(self) == num_rc_pairs(self.m),
                                    violations=())
        return _validate_words(self)

    def __len__(self) -> int:
        """Read off the codes if they are held, else 2^m words per kept mask."""
        codes = vars(self).get("codes")
        return len(self.mask_classes) << self.m if codes is None else len(codes)

    def __contains__(self, word: str) -> bool:
        """False for a word of another length or with a non-ACGT symbol.
        The word's TC mask is looked up in the kept masks if they are
        known, else its code in the codes."""
        if len(word) != self.m or not set(word) <= DIGIT.keys():
            return False
        arr, key = vars(self).get("mask_classes"), word_to_code(word)
        if arr is None:
            arr = self.codes
        else:
            key = int(tc_masks(np.array([key]), self.m)[0])
        i = int(np.searchsorted(arr, key))
        return i < len(arr) and arr[i] == key

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
                f"{list(result.violations[:5])}")
        return self


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    maximal: bool
    violations: Tuple[Tuple[str, str], ...]  # a tuple: a set holds its result


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
    which also lists the violations.  The set holds the result: it is made
    on the first call and returned as it is after that, and a set that
    ``_one_word_per_pair`` made holds "valid, maximal" from the start, so
    no check runs for it at all.
    """
    return s._validation


def _validate_words(s: GeneratingSet) -> ValidationResult:
    """``validate`` word by word: each word's reverse complement is looked
    up in S, and every violating pair is listed once."""
    rcs = rc_codes(s.codes, s.m)
    bad = np.isin(rcs, s.codes)
    violations = tuple(
        (code_to_word(int(c), s.m), code_to_word(int(r), s.m))
        for c, r in zip(s.codes[bad], rcs[bad])
        if c <= r  # report each unordered pair once; self-RC words have c == r
    )
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


def _member_set(m: int, keep: np.ndarray, words: Tuple[str, ...] = ()) -> GeneratingSet:
    """The set, made from its codes, of the words whose TC mask is kept
    (``keep``, a boolean table over the 2^m masks), plus the listed
    ``words``; sorted as built, never re-sorted."""
    member = tc_mask_members(m, keep)
    member[[word_to_code(w) for w in words]] = True
    return GeneratingSet.from_codes(m, np.flatnonzero(member), _owned=True)


def _mask_union(m: int, keep: np.ndarray, words: Tuple[str, ...] = ()) -> GeneratingSet:
    """The words whose TC mask is kept (``keep``, a boolean table over the
    2^m masks), plus the listed ``words``.

    With no listed words and at least one kept mask the set is a union of
    whole mask classes: it holds its kept masks as ``mask_classes`` and
    builds its codes only when they are first read.  Any other set is
    made from its codes (``_member_set``).
    """
    kept = np.flatnonzero(keep)
    if words or not len(kept):
        return _member_set(m, keep, words)
    kept.setflags(write=False)
    return GeneratingSet._holding(m, mask_classes=kept)


def _one_word_per_pair(m: int, codes: np.ndarray) -> GeneratingSet:
    """The set of ``codes``, a fresh array (kept without a copy) that holds
    one word of every RC pair of ``sequences.rc_pairs(m)`` and no other
    word, in any order.  Such a set is RC-free and maximal by
    construction, so it holds that result of ``validate`` from the start
    and no check reads its words.  Its codes pass the gate of
    ``GeneratingSet.from_codes`` like every code array."""
    s = GeneratingSet.from_codes(m, codes, _owned=True)
    vars(s)["_validation"] = ValidationResult(valid=True, maximal=True, violations=())
    return s


def tc_dominant_set(m: int) -> GeneratingSet:
    """All length-m words with strictly more than m/2 symbols from {T, C}.

    The union of the mask classes with more than m/2 ones, made from the
    2^m masks (``_mask_union``), which are charged to the budget: the set
    holds those kept masks (``GeneratingSet.mask_classes``), so its size,
    validation, quotient, count and certified rate read no word, and its
    4^m codes are built, and charged, only when first read.
    """
    check_stem(m)
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
    counts = window_multiset(x, s.m)
    limit = 2 * s.m - 1
    return all(c <= limit for w, c in counts.items() if w not in s)


def _check_word(word: str, first: str) -> None:
    """ValueError unless ``word`` is as long as ``first`` and all ACGT."""
    if len(word) != len(first):
        raise ValueError(f"mixed word lengths: {first!r} vs {word!r}")
    parse_sequence(word)


def read_set_file(path) -> GeneratingSet:
    """Read a generating set: one word per line, '#' comments, blanks
    ignored.  A bad symbol or a word whose length is not the first word's
    raises ValueError naming the file and the line."""
    words = []
    for index, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _check_word(line, words[0] if words else line)
            except ValueError as exc:
                raise ValueError(f"{path}, line {index}: {exc}") from None
            words.append(line)
    if not words:
        raise ValueError(f"no words found in set file {path}")
    return GeneratingSet.from_codes(len(words[0]), [word_to_code(w) for w in words])


def write_set_file(s: GeneratingSet, path, comment: Optional[str] = None) -> None:
    """Write a generating set as ``read_set_file`` reads it: one word per
    line, after the comment, if any, with every one of its lines
    prefixed by '# ' (so no comment line reads back as a word)."""
    lines = [f"# {line}" for line in comment.splitlines()] if comment else []
    lines.extend(s.words())
    Path(path).write_text("\n".join(lines) + "\n")

"""Enumerative (rank/unrank) coding onto the fixed-length code C_n(S).

Message index k maps to the k-th element of C_n(S) in lexicographic order
(A < C < G < T over whole sequences); decoding is the exact inverse (Cover,
"Enumerative source encoding", IEEE Trans. IT 19(1), 1973).  The table
holds big-integer counts of walk completions per vertex and a few lookup
tables built once.  Encoding walks n - m steps of plain Python, looking at
most four successors per step.  Decoding is one lookup pass over the
windows with no Python loop per symbol: a codeword's rank is a count for
its first window plus, for each later window, one entry of a small
per-step row of sibling sums, found through the window's sibling class.

Payloads are framed on top: a big-endian hex string is cut into blocks of
``bits_per_block`` bits, each block index is encoded as one codeword, and
the codewords are concatenated.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Tuple

from .capacity import SiblingTrie, TransitionDigraph, build_digraph, check_walk_budget
from .gensets import GeneratingSet
from .sequences import DIGIT, codes_to_words

_NON_HEX = re.compile(r"[^0-9A-Fa-f]")


class CodecError(ValueError):
    """Input sequence is not a member of C_n(S)."""


@dataclass
class CodecTable:
    """Walk counts and lookup tables for rank/unrank on C_n(S).

    Vertices are the words of S in sorted-code order.  path_counts[r][vi] is
    the number of length-r walks starting at vertex vi; total is |C_n(S)|,
    the sum of the row at r = n - m.  The lookup tables, all plain Python:

    - words[vi]: the word of vertex vi; vertex_of maps it back to vi, and
      last_symbol[vi] is its last symbol.
    - succ_start[vi]: the first successor of vi.  The successors of vi are
      the words that begin with its (m-1)-suffix, a contiguous run of the
      sorted codes, so a step from vi chooses among succ_start[vi],
      succ_start[vi] + 1, ... (at most four), and the counts of that run
      sum to the walk count of vi.
    - first_prefix[vi]: the number of codewords whose first window comes
      before vertex vi, i.e. the prefix sums of path_counts[n - m]
      (|V| + 1 entries, the last one total).
    - sibling_class[word]: the word's sibling class.  The siblings of a
      word share its (m-1)-prefix; those that end in a smaller symbol come
      before it in rank order.  A walk count depends on a vertex only
      through its (m-1)-suffix, so the summed counts of the earlier
      siblings depend only on the step and on the tuple of their suffix
      keys, which is the class: a node of ``capacity.SiblingTrie`` (385
      classes for the 1,792 words of the m=6 staged set).
    - sibling_rows[j - 1][c]: for the window at offset j >= 1, where
      r = n - m - j steps remain, the summed path_counts[r] of the earlier
      siblings of a class-c word.  These are the trie's node sums, which
      the walk-count DP computes on its way to the next row, kept as they
      are; the ints are those of the DP (576 nodes a row at m=6).
    - windows(x): the tuple of x's windows at offsets 1 .. n - m.

    So the rank of x is first_prefix of its first window plus one
    sibling_rows entry per later window.
    """

    gen_set: GeneratingSet
    n: int
    digraph: TransitionDigraph
    path_counts: List[List[int]]
    total: int
    words: List[str]
    vertex_of: Dict[str, int]
    last_symbol: List[str]
    succ_start: List[int]
    first_prefix: List[int]
    sibling_class: Dict[str, int]
    sibling_rows: List[List[int]]
    windows: Callable[[str], Tuple[str, ...]]


def build_codec(s: GeneratingSet, n: int) -> CodecTable:
    """The table for C_n(S); n and the n - m + 1 rows of |S| walk counts it
    holds pass ``capacity.check_walk_budget`` before any work."""
    check_walk_budget(s, n, on_quotient=False)
    g = build_digraph(s)
    trie = SiblingTrie(g)
    steps = list(trie.walk(n - s.m))
    path_counts = [row for row, _ in steps]
    first_prefix = list(accumulate(path_counts[-1], initial=0))
    words = codes_to_words(g.codes, s.m)
    return CodecTable(gen_set=s, n=n, digraph=g, path_counts=path_counts,
                      total=first_prefix[-1], words=words,
                      vertex_of={w: vi for vi, w in enumerate(words)},
                      last_symbol=[w[-1] for w in words],
                      succ_start=trie.succ_start, first_prefix=first_prefix,
                      sibling_class=dict(zip(words, trie.earlier)),
                      sibling_rows=[sums for _, sums in steps[-2::-1]],
                      windows=_window_reader(s.m, n))


def _window_reader(m: int, n: int) -> Callable[[str], Tuple[str, ...]]:
    """x -> the tuple of x's windows at offsets 1 .. n - m, cut in one C call."""
    slices = [slice(j, j + m) for j in range(1, n - m + 1)]
    if len(slices) > 1:
        return operator.itemgetter(*slices)
    # itemgetter needs a slice and returns a bare string for just one
    return lambda x: tuple(x[j] for j in slices)


def encode(t: CodecTable, index: int) -> str:
    """The index-th sequence of C_n(S) in lexicographic order."""
    index = operator.index(index)
    if not 0 <= index < t.total:
        raise ValueError(f"index {index} out of range [0, {t.total})")
    vi = bisect_right(t.first_prefix, index) - 1
    index -= t.first_prefix[vi]
    word = t.words[vi]
    succ_start = t.succ_start
    path = []
    for row in t.path_counts[-2::-1]:  # r = n - m - 1, ..., 0
        vi = succ_start[vi]
        c = row[vi]
        while index >= c:
            index -= c
            vi += 1
            c = row[vi]
        path.append(vi)
    return word + "".join(map(t.last_symbol.__getitem__, path))


def decode(t: CodecTable, x: str) -> int:
    """Rank of x within C_n(S); exact inverse of :func:`encode`."""
    if len(x) != t.n:
        raise CodecError(f"expected length {t.n}, got {len(x)}")
    return _rank(t, x, 0)


def _rank(t: CodecTable, x: str, offset: int) -> int:
    """:func:`decode` for x at ``offset`` in a longer sequence (for messages)."""
    try:
        # a window not in S looks up None, and indexing by None raises
        return (t.first_prefix[t.vertex_of.get(x[:t.gen_set.m])]
                + sum(map(operator.getitem, t.sibling_rows,
                          map(t.sibling_class.get, t.windows(x)))))
    except TypeError:
        _raise_first_fault(t, x, offset)
        raise


def _raise_first_fault(t: CodecTable, x: str, offset: int) -> None:
    """Raise the :class:`CodecError` for the leftmost fault of x, found by a
    scan symbol by symbol: a symbol other than A, C, G, T, or else a window
    not in S that ends at that symbol.  Only a failed :func:`_rank` runs
    it, and it returns only if x has no fault."""
    m = t.gen_set.m
    for i, ch in enumerate(x):
        if ch not in DIGIT:
            raise CodecError(f"symbol {ch!r} at position {offset + i + 1} "
                             "is not one of A, C, G, T") from None
        if i + 1 >= m and x[i + 1 - m:i + 1] not in t.vertex_of:
            raise CodecError(f"window {x[i + 1 - m:i + 1]!r} at position "
                             f"{offset + i + 2 - m} not in S") from None


def bits_per_block(t: CodecTable) -> int:
    """Payload bits carried by one block: floor(log2 |C_n(S)|)."""
    k = t.total.bit_length() - 1
    if k < 1:
        raise ValueError(f"code of size {t.total} cannot carry payload bits")
    return k


def _check_block_bits(k: int) -> None:
    if k < 1:
        raise ValueError(f"block size k must be at least 1 bit, got {k}")


def payload_to_indices(payload_hex: str, k: int) -> List[int]:
    """Split a big-endian hex payload into k-bit block indices.

    Only the digits 0-9, A-F and a-f are accepted: no prefix, sign,
    separator or whitespace.  The bit string is zero-padded on the right to
    a whole number of blocks.  The payload is cut as a string of binary
    digits, so the work is linear in its length.  A block size k < 1 raises
    ValueError.
    """
    _check_block_bits(k)
    if payload_hex == "":
        raise ValueError("empty payload")
    bad = _NON_HEX.search(payload_hex)
    if bad:
        raise ValueError(f"payload character {bad.group()!r} at position "
                         f"{bad.start() + 1} is not a hex digit")
    nbits = 4 * len(payload_hex)
    nblocks = max(1, math.ceil(nbits / k))
    bits = format(int(payload_hex, 16), f"0{nbits}b").ljust(nblocks * k, "0")
    return [int(bits[i:i + k], 2) for i in range(0, nblocks * k, k)]


def indices_to_payload(indices: List[int], k: int) -> str:
    """Reassemble block indices into a hex payload (right-padded bits kept),
    through one string of binary digits.  A block size k < 1 raises
    ValueError."""
    _check_block_bits(k)
    for idx in indices:
        if not 0 <= idx < (1 << k):
            raise ValueError(f"block index {idx} does not fit in {k} bits")
    bits = "".join([format(idx, f"0{k}b") for idx in indices])
    bits += "0" * (-len(bits) % 4)
    return format(int(bits or "0", 2), f"0{len(bits) // 4}X")


def encode_payload(t: CodecTable, payload_hex: str) -> List[str]:
    """Codewords carrying a big-endian hex payload, ``bits_per_block(t)``
    bits each; the last block is zero-padded on the right."""
    k = bits_per_block(t)
    return [encode(t, idx) for idx in payload_to_indices(payload_hex, k)]


def decode_payload(t: CodecTable, seq: str) -> str:
    """Hex payload carried by concatenated codewords; inverse of
    :func:`encode_payload` up to the padding bits, which come back as
    trailing zero bits.

    Raises :class:`CodecError` when the length is not a positive multiple
    of n, a block is not in C_n(S), or a block's index does not fit in
    ``bits_per_block(t)`` bits (a codeword that no payload encodes to).
    The message names the block and the position in ``seq``.
    """
    k = bits_per_block(t)
    if len(seq) == 0 or len(seq) % t.n:
        raise CodecError(f"sequence length {len(seq)} is not a multiple of n={t.n}")
    indices = []
    for b in range(len(seq) // t.n):
        start = b * t.n
        try:
            idx = _rank(t, seq[start:start + t.n], start)
        except CodecError as exc:
            raise CodecError(f"block {b + 1}: {exc}") from None
        if idx >> k:
            raise CodecError(f"block {b + 1} decodes to index {idx}, outside the "
                             f"{k}-bit payload range")
        indices.append(idx)
    return indices_to_payload(indices, k)

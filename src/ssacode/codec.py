"""Enumerative (rank/unrank) coding onto the fixed-length code C_n(S).

Message index k maps to the k-th element of C_n(S) in lexicographic order
(A < C < G < T over whole sequences); decoding is the exact inverse (Cover,
"Enumerative source encoding", IEEE Trans. IT 19(1), 1973).  The table
holds big-integer counts of walk completions per vertex and a few lookup
tables built once, so both directions run in O(n) steps of plain Python
with at most four successors looked at per step.

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
from typing import Dict, List

import numpy as np

from .capacity import TransitionDigraph, build_digraph, walk_counts
from .gensets import GeneratingSet
from .sequences import ALPHABET, DIGIT, code_to_word

_NON_HEX = re.compile(r"[^0-9A-Fa-f]")


class CodecError(ValueError):
    """Input sequence is not a member of C_n(S)."""


@dataclass
class CodecTable:
    """Walk counts and lookup tables for rank/unrank on C_n(S).

    Vertices are the words of S in sorted-code order.  path_counts[r][vi] is
    the number of length-r walks starting at vertex vi; total is |C_n(S)|,
    the sum of the row at r = n - m.  The lookup tables, all Python ints:

    - codes[vi]: the word code of vertex vi; index_of maps it back to vi.
    - succ_start[vi]: the first successor of vi.  The successors of vi are
      the words that begin with its (m-1)-suffix, a contiguous run of the
      sorted codes, so a step from vi chooses among succ_start[vi],
      succ_start[vi] + 1, ... (at most four), and the counts of that run
      sum to the walk count of vi.
    - first_prefix[vi]: the number of codewords whose first window comes
      before vertex vi, i.e. the prefix sums of path_counts[n - m]
      (|V| + 1 entries, the last one total).
    """

    gen_set: GeneratingSet
    n: int
    digraph: TransitionDigraph
    path_counts: List[List[int]]
    total: int
    codes: List[int]
    index_of: Dict[int, int]
    succ_start: List[int]
    first_prefix: List[int]


def build_codec(s: GeneratingSet, n: int) -> CodecTable:
    g = build_digraph(s)
    if n < s.m:
        raise ValueError(f"block length n={n} is smaller than m={s.m}")
    path_counts = list(walk_counts(g, n - s.m))
    first_prefix = list(accumulate(path_counts[-1], initial=0))
    codes = g.codes.tolist()
    # successors of v: the run of vertices whose prefix key is v's suffix key
    succ_start = np.searchsorted(g._pre, g._suf).tolist()
    return CodecTable(gen_set=s, n=n, digraph=g, path_counts=path_counts,
                      total=first_prefix[-1], codes=codes,
                      index_of={c: vi for vi, c in enumerate(codes)},
                      succ_start=succ_start, first_prefix=first_prefix)


def encode(t: CodecTable, index: int) -> str:
    """The index-th sequence of C_n(S) in lexicographic order."""
    index = operator.index(index)
    if not 0 <= index < t.total:
        raise ValueError(f"index {index} out of range [0, {t.total})")
    vi = bisect_right(t.first_prefix, index) - 1
    index -= t.first_prefix[vi]
    codes, succ_start, path_counts = t.codes, t.succ_start, t.path_counts
    symbols = [code_to_word(codes[vi], t.gen_set.m)]
    for r in range(t.n - t.gen_set.m - 1, -1, -1):
        row = path_counts[r]
        vi = succ_start[vi]
        while index >= row[vi]:
            index -= row[vi]
            vi += 1
        symbols.append(ALPHABET[codes[vi] & 3])
    return "".join(symbols)


def decode(t: CodecTable, x: str) -> int:
    """Rank of x within C_n(S); exact inverse of :func:`encode`."""
    if len(x) != t.n:
        raise CodecError(f"expected length {t.n}, got {len(x)}")
    return _rank(t, x, 0)


def _rank(t: CodecTable, x: str, offset: int) -> int:
    """:func:`decode` for x at ``offset`` in a longer sequence (for messages)."""
    m = t.gen_set.m
    mask = (1 << 2 * m) - 1
    index_of, succ_start, path_counts = t.index_of, t.succ_start, t.path_counts
    code = rank = 0
    vi = -1
    r = t.n - m
    for i, ch in enumerate(x):
        digit = DIGIT.get(ch)
        if digit is None:
            raise CodecError(f"symbol {ch!r} at position {offset + i + 1} "
                             "is not one of A, C, G, T")
        code = (code << 2 | digit) & mask
        if i + 1 < m:
            continue
        k = index_of.get(code)
        if k is None:
            raise CodecError(f"window {x[i + 1 - m:i + 1]!r} at position "
                             f"{offset + i + 2 - m} not in S")
        if vi < 0:
            rank = t.first_prefix[k]
        else:
            # consecutive windows overlap in m - 1 symbols: k is a successor
            r -= 1
            rank += sum(path_counts[r][succ_start[vi]:k])
        vi = k
    return rank


def bits_per_block(t: CodecTable) -> int:
    """Payload bits carried by one block: floor(log2 |C_n(S)|)."""
    k = t.total.bit_length() - 1
    if k < 1:
        raise ValueError(f"code of size {t.total} cannot carry payload bits")
    return k


def payload_to_indices(payload_hex: str, k: int) -> List[int]:
    """Split a big-endian hex payload into k-bit block indices.

    Only the digits 0-9, A-F and a-f are accepted: no prefix, sign,
    separator or whitespace.  The bit string is zero-padded on the right to
    a whole number of blocks.
    """
    if payload_hex == "":
        raise ValueError("empty payload")
    bad = _NON_HEX.search(payload_hex)
    if bad:
        raise ValueError(f"payload character {bad.group()!r} at position "
                         f"{bad.start() + 1} is not a hex digit")
    value = int(payload_hex, 16)
    nbits = 4 * len(payload_hex)
    nblocks = max(1, math.ceil(nbits / k))
    value <<= nblocks * k - nbits
    return [(value >> (k * (nblocks - 1 - b))) & ((1 << k) - 1)
            for b in range(nblocks)]


def indices_to_payload(indices: List[int], k: int) -> str:
    """Reassemble block indices into a hex payload (right-padded bits kept)."""
    value = 0
    for idx in indices:
        if not 0 <= idx < (1 << k):
            raise ValueError(f"block index {idx} does not fit in {k} bits")
        value = (value << k) | idx
    nbits = len(indices) * k
    ndigits = math.ceil(nbits / 4)
    value <<= 4 * ndigits - nbits
    return format(value, f"0{ndigits}X")


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

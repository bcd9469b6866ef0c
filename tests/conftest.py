"""Shared reference oracles: deliberately naive, independent of the library's
counting and spectral paths."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from ssacode import GeneratingSet, rate_of_set, rc_classes
from ssacode.search import _RATE_EPS, SearchResult, _word_key
from ssacode.sequences import check_budget, rc_pairs

COMP = {"A": "T", "T": "A", "C": "G", "G": "C"}


def ref_rc(word):
    return "".join(COMP[ch] for ch in reversed(word))


def ref_first_witness(x, m):
    """Naive scan for the smallest 1-based (i, j) such that the m-windows at
    i and j do not overlap and are reverse complements, or None."""
    n = len(x)
    for i in range(n - m + 1):
        for j in range(i + m, n - m + 1):
            if all(x[i + t] == COMP[x[j + m - 1 - t]] for t in range(m)):
                return i + 1, j + 1
    return None


def ref_has_structure(x, m):
    """Naive scan for two non-overlapping reverse-complement m-windows."""
    return ref_first_witness(x, m) is not None


def ref_count_all_ssa_python(n, m):
    """Flat enumeration of D^n with a per-sequence naive check (n <= 8)."""
    count = 0
    for tup in itertools.product("ACGT", repeat=n):
        count += not ref_has_structure(tup, m)
    return count


def ref_count_all_ssa_numpy(n, m):
    """Vectorized flat enumeration for larger n."""
    total = 4 ** n
    digits = (np.arange(total, dtype=np.int64)[:, None]
              // 4 ** np.arange(n - 1, -1, -1)) % 4
    digits = digits.astype(np.int8)
    bad = np.zeros(total, dtype=bool)
    for i in range(n - m + 1):
        for j in range(i + m, n - m + 1):
            match = np.ones(total, dtype=bool)
            for t in range(m):
                match &= digits[:, i + t] == 3 - digits[:, j + m - 1 - t]
            bad |= match
    return int(total - bad.sum())


def ref_constrained_members(words, m, n):
    """All sequences of length n whose every m-window lies in the word set,
    by prefix-tree enumeration (membership pruning only)."""
    wordset = set(words)
    out = []

    def extend(prefix):
        if len(prefix) >= m and prefix[-m:] not in wordset:
            return
        if len(prefix) == n:
            out.append(prefix)
            return
        for ch in "ACGT":
            extend(prefix + ch)

    extend("")
    return out


def ref_count_constrained(words, m, n):
    return len(ref_constrained_members(words, m, n))


def ref_good_binary_count(n, m, minw):
    """Binary sequences of length n whose every m-window has weight >= minw,
    counted by flat enumeration (vectorized)."""
    v = np.arange(2 ** n, dtype=np.int64)
    popcount = np.array([bin(k).count("1") for k in range(2 ** m)])
    ok = np.ones(len(v), dtype=bool)
    for i in range(max(n - m + 1, 0)):
        ok &= popcount[(v >> i) & (2 ** m - 1)] >= minw
    return int(ok.sum())


def random_valid_set(rng: random.Random, m: int, drop_rate: float = 0.0):
    """A random RC-free set: one random word per RC pair, optionally thinned."""
    classes = rc_classes(m)
    words = [pair[rng.randrange(2)] for pair in classes.pairs]
    if drop_rate:
        words = [w for w in words if rng.random() > drop_rate] or words[:1]
    return GeneratingSet.from_words(words)


@st.composite
def rc_free_words(draw, ms=(2, 3, 4)):
    """Random RC-free sets at the word lengths ``ms``: a maximal set, or a
    random subset of one (often reducible)."""
    m = draw(st.sampled_from(ms))
    drop_rate = draw(st.sampled_from([0.0, 0.3, 0.7]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_valid_set(rng, m, drop_rate=drop_rate).words()


def tc_pattern(word):
    """TC mask of a word as a bit string: T, C -> 1; A, G -> 0."""
    return "".join("1" if ch in "TC" else "0" for ch in word)


def mask_rc(mask):
    """TC mask of the reverse complements of a mask class: the complement
    swaps T, C with A, G, then the word is reversed."""
    return "".join("1" if b == "0" else "0" for b in reversed(mask))


@st.composite
def mask_unions(draw, ms=(2, 3, 4, 5)):
    """Words of an RC-free union of whole TC-mask classes, perhaps empty.
    From each pair of masks {a, mask_rc(a)} with a != mask_rc(a) it keeps
    a, mask_rc(a) or neither; a self-paired class is never RC-free."""
    m = draw(st.sampled_from(ms))
    kept = []
    for a in map("".join, itertools.product("01", repeat=m)):
        if a < mask_rc(a):
            pick = draw(st.sampled_from((a, mask_rc(a), None)))
            if pick is not None:
                kept.append(pick)
    return [w for w in map("".join, itertools.product("ACGT", repeat=m))
            if tc_pattern(w) in kept]


@st.composite
def keep_tables(draw, ms=range(2, 9)):
    """A random keep table over the 2^m TC masks, m in ``ms``, as a
    boolean array, from sparse to full."""
    m = draw(st.sampled_from(ms))
    density = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array([rng.random() < density for _ in range(2 ** m)])


def ref_mask_classes(words):
    """The TC masks of a word set as ascending ints if it is a union of
    whole TC-mask classes, else None (also for no words).  The words are
    grouped by ``tc_pattern``; a class has 2^m words, one of two symbols at
    each position, so a group is whole iff it has 2^m distinct words."""
    groups = {}
    for w in set(words):
        groups.setdefault(tc_pattern(w), set()).add(w)
    if not groups or any(len(g) != 2 ** len(p) for p, g in groups.items()):
        return None
    return sorted(int(p, 2) for p in groups)


@pytest.fixture
def rng():
    return random.Random(0xDA7A)


def adjacency_matrix(g, max_vertices=4096):
    """Dense 0/1 adjacency of an overlap digraph, read off its vertex codes:
    u -> v iff the last m-1 symbols of u are the first m-1 of v."""
    if g.vertex_count > max_vertices:
        raise ValueError(f"{g.vertex_count} vertices: adjacency matrix too large")
    codes = g.codes
    return (codes[:, None] % 4 ** (g.m - 1) == codes[None, :] // 4).astype(np.int64)


def ref_successor_runs(g):
    """(first, stop) of each vertex's run of successors in an overlap
    digraph, by binary search over its non-decreasing prefix bins: the
    successors of v are the vertices first[v] .. stop[v] - 1."""
    first = np.searchsorted(g._pre, g._suf)
    return first.tolist(), np.searchsorted(g._pre, g._suf, side="right").tolist()


def ac_word(mask, m):
    """The word over {A, C} of an m-bit mask: bit 0 -> A, bit 1 -> C."""
    return format(mask, f"0{m}b").translate(str.maketrans("01", "AC"))


def ref_binary_window_digraph(keep):
    """Dense 0/1 adjacency of the binary window digraph on the kept masks
    of a keep table over the 2^m masks, in ascending order: a -> b iff a's
    last m - 1 bits are b's first m - 1 bits.  On bit strings."""
    m = len(keep).bit_length() - 1
    kept = [format(a, f"0{m}b") for a in range(2 ** m) if keep[a]]
    return np.array([[a[1:] == b[:-1] for b in kept] for a in kept], dtype=np.int64)


def ref_binary_walk_counts(keep, r):
    """For each kept mask, ascending: the number of binary strings of
    length m + r that begin with it and whose every m-window is kept, by
    enumeration."""
    m = len(keep).bit_length() - 1
    kept = {format(a, f"0{m}b") for a in range(2 ** m) if keep[a]}
    tails = ["".join(t) for t in itertools.product("01", repeat=r)]
    return [sum(all(x[i:i + m] in kept for i in range(r + 1))
                for x in (a + t for t in tails)) for a in sorted(kept)]


def ref_greedy_tc_choice(m):
    """``greedy_tc_choice`` on word strings: from each RC pair the word
    with more T/C, then with the larger sum of min(pos + 1, m - pos) over
    its T/C positions, then the smaller word."""
    def score(w):
        tc = [pos for pos, ch in enumerate(w) if ch in "TC"]
        return len(tc), sum(min(pos + 1, m - pos) for pos in tc)

    words = []
    for w in map("".join, itertools.product("ACGT", repeat=m)):
        r = ref_rc(w)
        if w < r:
            words.append(w if score(w) >= score(r) else r)
    return sorted(words)


def dense_strong_components(adj):
    """Strong components of a dense 0/1 adjacency matrix, by scipy, as
    ascending vertex-index arrays."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(
        csr_matrix(adj), directed=True, connection="strong")
    return [np.flatnonzero(labels == comp) for comp in range(n_comp)]


def dense_spectral_radius(adj):
    """max |eigenvalue| of a dense 0/1 adjacency matrix.

    The eigenvalues of a matrix are those of the diagonal blocks of its
    block-triangular (Frobenius normal) form, one block per strong
    component; LAPACK gets each block's simple Perron root to round-off.
    A global ``eigvals`` does not: chained cycles of equal root make the
    eigenvalue defective, and a Jordan block of size k moves it by about
    eps**(1/k) (3e-6 above the exact 1.0 for ``CHAINED_UNIT_CYCLES`` in
    test_capacity.py).
    """
    adj = np.asarray(adj, dtype=float)
    return max((max(abs(np.linalg.eigvals(adj[np.ix_(idx, idx)])))
                for idx in dense_strong_components(adj)), default=0.0)


# A ratio (Ax)_i / x_i is a sum of at most q <= 4 positive terms (one per
# symbol that extends the overlap) and one division, so in floating point
# it is within a relative gamma_4 = 4u / (1 - 4u) of its exact value
# (u = eps / 2).  Widening each end by 8 eps = 16u covers that and the
# rounding of the widening product itself.  The library's certificate
# keeps a margin of its own; a drift there shows against this one.
BRACKET_MARGIN = 8 * np.finfo(float).eps


def ref_cyclic_powers(g, tol, stop_below):
    """The power iteration on the vertices: each cyclic component of ``g``
    as its own overlap digraph (``g`` itself when one component spans
    every vertex), with the library's ``_shifted_power`` of its vertex
    product ``matvec`` from the all-ones vector.  Yields (vertex indices,
    (lo, hi, iterations, x)), as ``capacity._cyclic_powers``, which runs
    the same steps on the overlap bins, must to the bit."""
    from ssacode.capacity import TransitionDigraph, _shifted_power

    for idx in g.cyclic_components():
        sub = (g if len(idx) == g.vertex_count
               else TransitionDigraph(m=g.m, codes=g.codes[idx]))
        yield idx, _shifted_power(sub.matvec, np.ones(len(idx)), tol, stop_below)


def perron_bracket(g, x):
    """Certified bounds lo <= rho(A) <= hi from one product with x > 0.

    Collatz-Wielandt: for a nonnegative A and a positive x,
    min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i.  Both ends are
    widened by ``BRACKET_MARGIN``.  None if an entry of x is not a positive
    normal float, where that margin does not hold.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0 or len(x) != g.vertex_count or not x.min() >= np.finfo(float).tiny:
        return None
    ratio = g.matvec(x)
    ratio /= x
    return (float(ratio.min()) * (1.0 - BRACKET_MARGIN),
            float(ratio.max()) * (1.0 + BRACKET_MARGIN))


def ref_block_fault(x, words, offset=0):
    """The ``CodecError`` text for the leftmost fault of one block x on the
    word set ``words``, or None.  Naive: it finds the first symbol outside
    A, C, G, T and the first m-window not in ``words`` separately, and a
    scan symbol by symbol meets a window at its last symbol.  Positions
    are 1-based and counted from ``offset``."""
    m = len(next(iter(words)))
    bad_symbol = next((i for i, ch in enumerate(x) if ch not in ("A", "C", "G", "T")), None)
    bad_window = next((i for i in range(len(x) - m + 1) if x[i:i + m] not in words), None)
    if bad_symbol is not None and (bad_window is None or bad_symbol <= bad_window + m - 1):
        return (f"symbol {x[bad_symbol]!r} at position {offset + bad_symbol + 1} "
                "is not one of A, C, G, T")
    if bad_window is not None:
        return (f"window {x[bad_window:bad_window + m]!r} at position "
                f"{offset + bad_window + 1} not in S")
    return None


def ref_decode_fault(x, words, n):
    """The ``CodecError`` text ``decode`` gives for x on blocks of length n,
    or None."""
    if len(x) != n:
        return f"expected length {n}, got {len(x)}"
    return ref_block_fault(x, words)


def ref_exhaustive_search(m, tol):
    """``exhaustive_search`` by rating every one of the 2^(pairs) maximal
    sets, with the same selection rule: a rate more than ``_RATE_EPS``
    above the best wins, and within it the smaller word set."""
    a, b = rc_pairs(m)
    n_pairs = len(a)
    check_budget(2 ** n_pairs, f"2^{n_pairs} candidate sets")
    best_rate = -1.0
    best_set = best_report = None
    for mask in range(2 ** n_pairs):
        pick_a = np.array([(mask >> i) & 1 for i in range(n_pairs)], dtype=bool)
        cand = GeneratingSet.from_codes(m, np.where(pick_a, a, b))
        report = rate_of_set(cand, tol=tol)
        rate = report.rate_bits_per_nt
        if rate > best_rate + _RATE_EPS or (
                abs(rate - best_rate) <= _RATE_EPS
                and _word_key(cand) < _word_key(best_set)):
            best_rate, best_set, best_report = rate, cand, report
    return SearchResult(best_set=best_set, best_rate=best_rate,
                        candidates_examined=2 ** n_pairs, method="exhaustive",
                        report=best_report, tol=tol)


def ref_symbol_maps():
    """The 8 symbol maps, as dicts, that commute with complement: all 24
    permutations of ACGT filtered by COMP[f[x]] == f[COMP[x]]."""
    maps = [dict(zip("ACGT", perm)) for perm in itertools.permutations("ACGT")]
    return [f for f in maps if all(COMP[f[x]] == f[COMP[x]] for x in "ACGT")]


def ref_symmetry_images(word):
    """The 16 images of a word: each symbol map of ``ref_symbol_maps``,
    without and then with reversal."""
    mapped = ["".join(f[ch] for ch in word) for f in ref_symbol_maps()]
    return mapped + [w[::-1] for w in mapped]


def ref_orbit_count(m):
    """The number of orbits of the maximal RC-free sets at word length m
    under the 16 maps of ``ref_symmetry_images``, on word strings."""
    pairs = rc_classes(m).pairs
    seen, orbits = set(), 0
    for pick in itertools.product((0, 1), repeat=len(pairs)):
        words = frozenset(pair[i] for pair, i in zip(pairs, pick))
        if words in seen:
            continue
        orbits += 1
        images = [ref_symmetry_images(w) for w in words]
        seen.update(frozenset(img[g] for img in images) for g in range(16))
    return orbits


def ref_payload_to_indices(payload_hex, k):
    """k-bit block indices of a hex payload, zero-padded on the right, by
    one big-integer shift per block."""
    if payload_hex == "":
        raise ValueError("empty payload")
    bad = re.search(r"[^0-9A-Fa-f]", payload_hex)
    if bad:
        raise ValueError(f"payload character {bad.group()!r} at position "
                         f"{bad.start() + 1} is not a hex digit")
    value = int(payload_hex, 16)
    nbits = 4 * len(payload_hex)
    nblocks = max(1, math.ceil(nbits / k))
    value <<= nblocks * k - nbits
    return [(value >> (k * (nblocks - 1 - b))) & ((1 << k) - 1)
            for b in range(nblocks)]


def ref_indices_to_payload(indices, k):
    """Hex payload of k-bit block indices, by one ``(value << k) | idx``
    per block; the bits are zero-padded on the right to whole digits."""
    value = 0
    for idx in indices:
        if not 0 <= idx < (1 << k):
            raise ValueError(f"block index {idx} does not fit in {k} bits")
        value = (value << k) | idx
    nbits = len(indices) * k
    ndigits = math.ceil(nbits / 4)
    value <<= 4 * ndigits - nbits
    return format(value, f"0{ndigits}X")

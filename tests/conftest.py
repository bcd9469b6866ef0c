"""Shared reference oracles: deliberately naive, independent of the library's
counting and spectral paths."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from ssacode import GeneratingSet, rc_classes

COMP = {"A": "T", "T": "A", "C": "G", "G": "C"}


def ref_rc(word):
    return "".join(COMP[ch] for ch in reversed(word))


def ref_has_structure(x, m):
    """Naive scan for two non-overlapping reverse-complement m-windows."""
    n = len(x)
    for i in range(n - m + 1):
        for j in range(i + m, n - m + 1):
            if all(x[i + t] == COMP[x[j + m - 1 - t]] for t in range(m)):
                return True
    return False


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


@pytest.fixture
def rng():
    return random.Random(0xDA7A)


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

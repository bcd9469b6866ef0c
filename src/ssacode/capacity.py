"""Transition digraphs, spectral radii, exact counting, and rate formulas.

The digraph on a generating set S has an arc u -> v exactly when the
length-(m-1) suffix of u equals the length-(m-1) prefix of v, so walks of
length n-m correspond one-to-one to sequences in C_n(S).  The asymptotic
rate of C_n(S) is log2 of the Perron root of the adjacency matrix.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import sequences
from .gensets import GeneratingSet
from .sequences import check_stem, sorted_unique, tc_dominant_masks

DEFAULT_TOL = 1e-10  # the relative tolerance of a rate, unless one is given
# The least tol a rate can be asked for: below it the quotient's target
# tol * _QUOTIENT_TOL_FACTOR is under the rounding of its power step, which
# then runs all _MAX_ITER steps and does not converge.
MIN_TOL = 1e-13
_MAX_ITER = 100000  # the iteration cap of every power iteration


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a usable relative tolerance of a
    rate: finite, and MIN_TOL <= tol < 1."""
    if not MIN_TOL <= tol < 1:  # nan fails every comparison
        raise ValueError(f"tol must be finite with {MIN_TOL:g} <= tol < 1, got {tol!r}")


def _overlap_bins(m: int, codes: np.ndarray) -> Tuple[int, Callable]:
    """The bins of an overlap digraph on sorted ``codes``: (bin count, the
    map from overlap words to bins).  With at least 4^(m-1) codes the bins
    are the overlap words' own codes; otherwise they are the ranks of the
    distinct overlap words."""
    overlaps = 4 ** (m - 1)
    if overlaps <= len(codes):
        return overlaps, lambda words: words
    keys = sorted_unique(np.concatenate([codes >> 2, codes & (overlaps - 1)]), m - 1)
    return len(keys), lambda words: np.searchsorted(keys, words)


@dataclass
class TransitionDigraph:
    """Overlap digraph on a vertex set of length-m words.

    Adjacency is never materialized as a matrix: since u -> v iff suffix(u)
    == prefix(v), a matrix-vector product reduces to a group-sum over shared
    overlap words, O(|V|) per product.

    Each vertex carries two bin indices, ``_pre`` for its (m-1)-prefix and
    ``_suf`` for its (m-1)-suffix, and u -> v iff ``_suf[u] == _pre[v]``.
    When 4^(m-1) <= |V| the bins are the overlap words' own codes, so no
    index is built.  A sparser set would leave most of those 4^(m-1) bins
    empty (a few words at m = 16 would need 4^15), so its bins are the
    ranks of its distinct overlap words instead (``_overlap_bins``).  Both
    maps keep the order of the overlap words, so ``_pre`` is non-decreasing,
    and a bin sums the same vertices in the same order either way: every
    product, count and walk is the same to the bit.  ``_start`` is the row
    pointer over the bins: the vertices with prefix bin k, the successors of
    every vertex with suffix bin k, are the run ``_start[k]:_start[k + 1]``.

    ``codes`` may come in any order and with repeats; the stored vertex codes
    are sorted and duplicate-free.  A strictly increasing int64 array, such
    as ``GeneratingSet.codes``, is kept as it is, without a copy.
    """

    m: int
    codes: np.ndarray  # sorted, duplicate-free vertex codes

    def __post_init__(self):
        self.codes = codes = sorted_unique(self.codes, self.m)
        self._nbins, binned = _overlap_bins(self.m, codes)
        self._pre = binned(codes >> 2)  # of the (m-1)-prefixes, codes // 4
        self._suf = binned(codes & (4 ** (self.m - 1) - 1))  # codes % 4^(m-1)
        self._start = np.zeros(self._nbins + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._pre, minlength=self._nbins), out=self._start[1:])

    @property
    def vertex_count(self) -> int:
        return len(self.codes)

    @property
    def arc_count(self) -> int:
        return int((self._start[self._suf + 1] - self._start[self._suf]).sum())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x with A[u, v] = 1 iff u -> v."""
        t = np.bincount(self._pre, weights=x, minlength=self._nbins)
        return t[self._suf]

    def cyclic_components(self) -> List[np.ndarray]:
        """Vertex indices of each strongly connected component that has a cycle.

        The digraph is the line graph of the key graph H, whose nodes are the
        overlap words and which has one arc pre(v) -> suf(v) per vertex v.  A
        vertex lies on a cycle exactly when both of its keys are in one strong
        component of H, and two such vertices share a component of this
        digraph exactly when they share that component of H.  So the split
        costs O(|V| + keys) and never forms the adjacency matrix.  Each index
        array is ascending; components come in no particular order.

        H is built as ``connected_components`` reads it, float64 data with
        int32 indices and row pointers, so scipy converts nothing again.
        """
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        key_graph = csr_matrix(
            (np.ones(self.vertex_count), self._suf.astype(np.int32),
             self._start.astype(np.int32)), shape=(self._nbins, self._nbins))
        _, key_labels = connected_components(
            key_graph, directed=True, connection="strong")
        del key_graph  # freed before the per-vertex arrays below
        label = key_labels[self._pre]
        on_cycle = np.flatnonzero(label == key_labels[self._suf])
        if len(on_cycle) == 0:
            return []
        order = on_cycle[np.argsort(label[on_cycle], kind="stable")]
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def build_digraph(s: GeneratingSet) -> TransitionDigraph:
    s.require_valid()
    return TransitionDigraph(m=s.m, codes=s.codes)


@dataclass
class CapacityReport:
    """How a Perron root, and the rate log2 of it, was reached.

    ``method`` is "power-iteration" (``spectral_radius``), "mask-quotient"
    (``rate_of_set`` on a union of TC-mask classes) or "binary-reduction"
    (``binary_reduction_rate``).  For power iteration ``residual`` is the
    eigenpair residual; for "mask-quotient" it is the relative width of
    ``bracket``, the certified interval (lo, hi) that holds the root, and
    ``spectral_radius`` is its midpoint.  ``bracket`` is None for the other
    methods and is left out of ``to_dict``.  A "mask-quotient" report comes
    with no word-level digraph built: its bracket is the word-level
    Collatz-Wielandt product taken on the kept masks, its ``vertex_count``
    is the size of the set, and its ``arc_count`` is 2^(m+1) times the
    quotient's, since every word has two successors per quotient arc of
    its mask.  That is exact for a union whose kept masks
    ``GeneratingSet.mask_classes`` found in the codes.
    """

    m: int
    vertex_count: int
    arc_count: int
    spectral_radius: float
    rate_bits_per_nt: float
    method: str
    residual: float
    iterations: int
    converged: bool = True
    bracket: Optional[Tuple[float, float]] = None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "vertex_count": self.vertex_count,
            "arc_count": self.arc_count,
            "spectral_radius": self.spectral_radius,
            "rate_bits_per_nt": self.rate_bits_per_nt,
            "method": self.method,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _shifted_power(matvec, size: int, tol: float):
    """Power iteration on A + I from the all-ones vector.

    The shift leaves the Perron vector fixed, moves the Perron root up by
    exactly 1, and makes periodic digraphs aperiodic so the norm ratio
    converges.  The digraph is strongly connected with a cycle, so its
    root is at least 1.  Returns (rho, iterations, residual, converged,
    x), with x the unit vector whose residual was last measured.
    """
    x = np.ones(size)
    x /= math.sqrt(x.dot(x))
    shifted = 1.0
    residual = math.inf
    converged = False
    iterations = 0
    check_every = 1 if size <= 100000 else 5
    for iterations in range(1, _MAX_ITER + 1):
        y = matvec(x)
        y += x
        norm = math.sqrt(y.dot(y))  # np.linalg.norm of a real vector, to the bit
        if iterations % check_every == 0 or iterations == _MAX_ITER:
            # true eigenpair residual; norm ratios can agree by accident
            r = x * norm
            np.subtract(y, r, out=r)
            residual = math.sqrt(r.dot(r)) / norm
            if residual < tol:
                shifted = norm
                converged = True
                break
        shifted = norm
        y /= norm
        x = y
    return shifted - 1.0, iterations, residual, converged, x


def spectral_radius(g: TransitionDigraph, tol: float = DEFAULT_TOL) -> CapacityReport:
    """Dominant eigenvalue of the adjacency operator by power iteration.

    The Perron root of a nonnegative matrix is the max over its irreducible
    components, so each strong component with a cycle is iterated on its
    own, and a digraph with no cycle has root 0.  Iterating components
    apart avoids the merely algebraic convergence that reducible graphs
    with repeated Perron roots inflict on a global iteration.  The
    components come from the key graph (see
    ``TransitionDigraph.cyclic_components``), and the subgraph induced on a
    subset of an overlap digraph is the overlap digraph of that subset, so
    every component iterates with the same O(|V|) group-sum product and no
    adjacency matrix is formed; a component that spans every vertex
    iterates ``g`` itself.  Each component's root depends only on its own
    codes, so equal components in two sets give bit-identical roots.
    Convergence is judged by the eigenpair residual.
    """
    check_tol(tol)
    rho, iterations, residual, converged = 0.0, 0, 0.0, True
    for idx in g.cyclic_components():
        sub = (g if len(idx) == g.vertex_count
               else TransitionDigraph(m=g.m, codes=g.codes[idx]))
        r, it, res, conv, _ = _shifted_power(sub.matvec, len(idx), tol)
        iterations += it
        residual = max(residual, res)
        converged = converged and conv
        rho = max(rho, r)
    return CapacityReport(
        m=g.m,
        vertex_count=g.vertex_count,
        arc_count=g.arc_count,
        spectral_radius=rho,
        rate_bits_per_nt=math.log2(rho) if rho > 0 else 0.0,
        method="power-iteration",
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def mask_quotient(s: GeneratingSet) -> Optional[TransitionDigraph]:
    """The quotient of S's overlap digraph by TC mask, if it is equitable.

    When S is a union of whole TC-mask classes (every mask present has all
    2^m words), a word u with mask a has exactly two successors in the
    class of each mask b that a -> b in the binary window digraph on the
    kept masks: the two symbols with the TC bit b ends in.  That digraph,
    times 2, is then the quotient matrix of the partition by mask, and a
    Perron vector of it read at each word's mask is one of the quaternary
    digraph.  The binary window digraph is the overlap digraph of the kept
    masks' words over {A, C} (``sequences.spread``): A and C are the digits
    0 and 1, and spreading keeps order, so its i-th vertex is the i-th kept
    mask.  Returns that quotient digraph, or None when S is not such a
    union.  The kept masks are ``s.mask_classes``, found once per set and
    shared with ``validate``.
    """
    kept = s.mask_classes
    return None if kept is None else TransitionDigraph(m=s.m, codes=sequences.spread(kept))


# A ratio (Ax)_i / x_i is a sum of at most 4 positive terms (one per
# symbol that extends the overlap) and one division, so in floating point
# it is within a relative gamma_4 = 4u / (1 - 4u) of its exact value
# (u = eps / 2).  Widening each end by 8 eps = 16u covers that and the
# rounding of the widening product itself.
_BRACKET_MARGIN = 8 * sys.float_info.epsilon  # a Python float, as the bracket is

# The quotient is iterated this much below tol: the lifted bracket came out
# about ten times wider than the quotient's eigenpair residual.
_QUOTIENT_TOL_FACTOR = 1e-3


def _lifted_bracket(m: int, kept: np.ndarray,
                    by_mask: np.ndarray) -> Optional[Tuple[float, float]]:
    """Certified bounds lo <= rho(A) <= hi on the overlap digraph A of the
    union of the TC-mask classes ``kept`` (ascending, not empty), from one
    product with the vector x that reads each word's value at its mask in
    ``by_mask``.

    Collatz-Wielandt: for a nonnegative A and a positive x,
    min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i, and both ends are
    widened by ``_BRACKET_MARGIN``.  The product is taken on the 2^m
    masks, with no word read.  A word of mask a ends in an (m-1)-word of
    mask b = a mod 2^(m-1), whose four successors, that word followed by
    A, C, G and T, have the masks 2b, 2b+1, 2b and 2b+1; each is in S iff
    its mask is kept.  With v = x at the kept masks and an exact 0.0 at
    the others, (Ax)_u is f[b] = ((v[2b] + v[2b+1]) + v[2b]) + v[2b+1]:
    the overlap's bin summed in the order the ``bincount`` of
    ``TransitionDigraph.matvec`` sums it.  So every word's ratio is that
    of the word-level product to the bit, and the least and greatest
    over the kept masks are those over the words.  Only ``by_mask`` at
    ``kept``, the classes found in the codes, is read, whatever it holds
    elsewhere.  None if an entry of x is not a positive normal float.
    """
    x = by_mask[kept]
    if not x.min() >= np.finfo(float).tiny:
        return None
    v = np.zeros(2 ** m)
    v[kept] = x
    even, odd = v[0::2], v[1::2]  # v at the masks 2b and 2b+1
    f = ((even + odd) + even) + odd
    ratio = f[kept & (2 ** (m - 1) - 1)] / x
    return (float(ratio.min()) * (1.0 - _BRACKET_MARGIN),
            float(ratio.max()) * (1.0 + _BRACKET_MARGIN))


def _lifted_rate(s: GeneratingSet, quotient: TransitionDigraph,
                 tol: float) -> Optional[CapacityReport]:
    """The root of S's digraph bracketed by the quotient's lifted Perron
    vector, or None if the bracket is not certified to ``tol``."""
    cyclic = quotient.cyclic_components()
    if len(cyclic) != 1 or len(cyclic[0]) != quotient.vertex_count:
        return None  # reducible: its Perron vector need not be positive
    _, iterations, _, _, y = _shifted_power(
        quotient.matvec, quotient.vertex_count, tol * _QUOTIENT_TOL_FACTOR)
    by_mask = np.zeros(2 ** s.m)
    by_mask[sequences.tc_masks(quotient.codes, s.m)] = y  # at the quotient's masks
    bracket = _lifted_bracket(s.m, s.mask_classes, by_mask)
    if bracket is None:
        return None
    lo, hi = bracket
    if not hi - lo <= tol * lo:
        return None
    rho = (lo + hi) / 2
    return CapacityReport(
        m=s.m,
        vertex_count=len(s),
        arc_count=2 ** (s.m + 1) * quotient.arc_count,
        spectral_radius=rho,
        rate_bits_per_nt=math.log2(rho),
        method="mask-quotient",
        residual=(hi - lo) / rho,
        iterations=iterations,
        bracket=bracket,
    )


def rate_of_set(s: GeneratingSet, tol: float = DEFAULT_TOL) -> CapacityReport:
    """Asymptotic rate of C_n(S) in bits/nt: log2 of the digraph Perron root.

    If S is a union of whole TC-mask classes whose quotient (see
    ``mask_quotient``) is strongly connected, the quotient, at most 2^m
    vertices, is iterated, its Perron vector is lifted to every word by
    mask, and one product with the full 4^m-word operator brackets the root
    (Collatz-Wielandt, see ``_lifted_bracket``).  Every word's ratio in
    that product is a function of its mask, so it is taken on the 2^m
    masks, bit for bit the word-level one, and no digraph is built.  The
    classes it reads are those found in the codes, so the bracket does not
    rest on the quotient being right.  If it is at most ``tol`` wide
    relative to the root, the report's method is "mask-quotient" and it
    carries the bracket; its ``arc_count`` is read off the quotient (see
    ``CapacityReport``).  In every other case the rate is
    ``spectral_radius`` of the full digraph, as for any set.  S is
    validated once either way: after the certificate, or by
    ``build_digraph``.  A ``tol`` that ``check_tol`` turns away is refused
    before any work.
    """
    check_tol(tol)
    quotient = mask_quotient(s)
    if quotient is not None:
        report = _lifted_rate(s, quotient, tol)
        if report is not None:
            s.require_valid()
            return report
    return spectral_radius(build_digraph(s), tol=tol)


class SiblingTrie:
    """The runs of sibling vertices of an overlap digraph, as a trie of
    suffix keys; the walk-count DP runs on its nodes.

    Siblings share a prefix key, so they form a contiguous run of the sorted
    codes: the successors of every vertex whose suffix key that is.  A walk
    count depends on a vertex only through its suffix key, so the counts of
    a run summed up to a vertex depend only on the tuple of suffix keys of
    the run up to there.  Each such tuple is a node (576 for the 1,792
    words of the m=6 staged set).  Node 0 is the empty tuple; the others
    are numbered by length, so ``sums`` fills them one length at a time
    with ``map``, in C, with no Python loop per vertex.

    - ``earlier[v]``: the node of v's earlier siblings (0 for the first of
      a run), the sibling class the codec ranks v by.
    - ``succ_node[v]``: the node of the whole run of v's successors (0 if v
      has none), so a walk count of v is that node's sum one length down.
    - ``succ_start[v]``: the first vertex of that run, where the codec's
      steps from v begin.
    """

    def __init__(self, g: TransitionDigraph):
        depth = np.arange(g.vertex_count) - g._start[g._pre] + 1
        through = np.zeros(g.vertex_count, dtype=np.int64)  # node of v's tuple
        earlier = np.zeros(g.vertex_count, dtype=np.int64)
        # per tuple length: for each new node, the node of its tuple without
        # the last key, and a vertex with that last key
        levels = []
        nodes = 1
        for k in range(1, int(depth.max(initial=0)) + 1):
            vs = np.flatnonzero(depth == k)
            if k > 1:
                earlier[vs] = through[vs - 1]
            keys, rep, inv = np.unique(earlier[vs] * g._nbins + g._suf[vs],
                                       return_index=True, return_inverse=True)
            through[vs] = nodes + inv
            levels.append((earlier[vs[rep]].tolist(), vs[rep].tolist()))
            nodes += len(keys)
        self._heads = levels[0][1] if levels else []  # one-vertex tuples
        self._levels = levels[1:]
        self.earlier = earlier.tolist()
        start, end = g._start[g._suf], g._start[g._suf + 1]  # the successor run
        self.succ_start = start.tolist()
        self.succ_node = np.where(end > start, through[end - 1], 0).tolist()

    def sums(self, row: List[int]) -> List[int]:
        """``sums[node]``: ``row`` summed over the vertices of the node's
        tuple.  ``row`` must depend on a vertex only through its suffix
        key, as every walk-count row does, so that a node has one sum
        wherever its tuple occurs.  A one-vertex tuple's sum is that
        vertex's own int."""
        out = [0]
        out += map(row.__getitem__, self._heads)
        for up, vs in self._levels:  # list(): the sums read out before it grows
            out += list(map(operator.add, map(out.__getitem__, up),
                            map(row.__getitem__, vs)))
        return out

    def walk(self, r_max: int) -> Iterator[Tuple[List[int], List[int]]]:
        """``(row, sums(row))`` for r = 0 .. r_max, where ``row[v]`` is the
        number of length-r walks starting at vertex v.  Python ints: the
        counts outgrow int64 (about 2^102 at m=6, n=60).  Rows are yielded
        one at a time, so a caller that needs only the last holds one."""
        row = [1] * len(self.succ_node)
        sums = self.sums(row)
        yield row, sums
        for _ in range(r_max):
            row = list(map(sums.__getitem__, self.succ_node))
            sums = self.sums(row)
            yield row, sums


def check_walk_budget(m: int, n: int, vertices: int) -> None:
    """Raise ValueError if n < m, then pass the walk-count DP for length-n
    sequences of length-m words, n - m + 1 rows of one count per vertex
    walked, through ``SSA_BUDGET``; no digraph is built here."""
    if n < m:
        raise ValueError(f"n={n} is smaller than the word length m={m}")
    rows = n - m + 1
    sequences.check_budget(rows * vertices, f"{rows} rows of {vertices} walk counts")


def count_constrained(s: GeneratingSet, n: int) -> int:
    """Exact |C_n(S)|: the number of walks of length n - m in the digraph.
    The DP passes ``check_walk_budget`` before any work, charged for the
    vertices that it walks: the kept masks of a union, else the words.

    A union of whole TC-mask classes is counted on its ``mask_quotient``:
    a sequence is in C_n(S) iff its TC mask (a binary string of length n)
    has every m-window kept, and each such mask is that of 2^n sequences,
    so |C_n(S)| is 2^n times the walks of length n - m in the quotient.
    """
    kept = s.mask_classes
    check_walk_budget(s.m, n, len(s) if kept is None else len(kept))
    if kept is None:
        g, lift = build_digraph(s), 1
    else:
        s.require_valid()
        g, lift = mask_quotient(s), 2 ** n
    (last, _), = deque(SiblingTrie(g).walk(n - s.m), maxlen=1)
    return lift * sum(last)


def binary_reduction_rate(m: int) -> CapacityReport:
    """Rate of the TC-dominant construction via the binary window digraph.

    T,C -> 1 and A,G -> 0 is a 2^n-to-one map onto binary sequences whose
    m-windows have weight > m/2, so the quaternary rate is 1 + log2(rho_bin).
    The binary window digraph on the weight > m/2 masks, the overlap
    digraph of their words over {A, C}, is the ``mask_quotient`` of
    ``tc_dominant_set(m)``, built here without the 4^m words.  The
    reported spectral radius is the quaternary-equivalent 2 * rho_bin,
    iterated to ``DEFAULT_TOL``.
    """
    check_stem(m)
    report = spectral_radius(TransitionDigraph(
        m=m, codes=sequences.spread(np.flatnonzero(tc_dominant_masks(m)))))
    rho_bin = report.spectral_radius
    report.method = "binary-reduction"
    report.spectral_radius = 2.0 * rho_bin
    report.rate_bits_per_nt = 1.0 + math.log2(rho_bin) if rho_bin > 0 else 0.0
    return report


@dataclass(frozen=True)
class RecurrenceSpec:
    """Linear recurrence f(n) = sum of coef * f(n - lag), with explicit bases.

    Base cases run from n=1; the recurrence applies for n > len(base).  The
    base ranges extend past the smallest analytically-usable window because
    the short-tail boundary cases do not satisfy the generic recurrence.
    """

    base: Tuple[int, ...]
    taps: Tuple[Tuple[int, int], ...]  # (lag, coefficient)


# Binary sequences whose every 3-window has weight >= 2.  Recurrence
# f(n) = f(n-1) + f(n-3) holds for n >= 6; n=4,5 are brute-forced.
F3 = RecurrenceSpec(base=(2, 4, 4, 6, 9), taps=((1, 1), (3, 1)))

# Binary sequences whose every 5-window has weight >= 3.  Recurrence holds
# for n >= 15; n <= 14 brute-forced.
F5 = RecurrenceSpec(
    base=(2, 4, 8, 16, 16, 26, 43, 71, 116, 186, 300, 487, 792, 1287),
    taps=((1, 1), (3, 1), (5, 2), (8, -1), (10, -1)),
)

# Quaternary 3-windows containing at least one A and no T (prior-work baseline).
COMPOSITION_BASELINE = RecurrenceSpec(base=(3, 9, 19), taps=((1, 1), (2, 2), (3, 4)))


def recurrence_counts(spec: RecurrenceSpec, n: int) -> int:
    """Evaluate the recurrence exactly at n (1-based)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= len(spec.base):
        return spec.base[n - 1]
    window = list(spec.base)
    for _ in range(len(spec.base), n):
        window.append(sum(coef * window[-lag] for lag, coef in spec.taps))
    return window[-1]


def _poly_divmod(a: list, b: list) -> Tuple[list, list]:
    """Quotient and remainder of polynomial a by b, as lists of exact
    coefficients, descending; b[0] != 0, and the remainder has no leading
    zeros."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        factor = a[0] / b[0]
        quotient.append(factor)
        a = [x - factor * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and a[0] == 0:
        a.pop(0)
    return quotient, a


def largest_real_root(coeffs: Sequence[float]) -> float:
    """Largest nonnegative real root of a polynomial (descending coefficients).

    Repeated factors are divided out first, exactly: g = gcd(p, p') by
    Euclid over fractions (each float converts exactly), then p / g, whose
    roots are those of p, each simple.  A polynomial with simple roots only
    is passed on as it is.  The roots are the eigenvalues of the companion
    matrix (``np.roots``).  LAPACK returns a real eigenvalue of a real
    matrix with an imaginary part of exactly 0, so those are the real
    roots, each exact to rounding.  Raises ValueError if there is no real
    root >= 0, or if a coefficient over the leading one overflows, as it
    can for a subnormal leading one.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) == 0 or coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    p = [Fraction(c) for c in coeffs.tolist()]
    a, b = p, [c * k for c, k in zip(p, range(len(p) - 1, 0, -1))]  # p, p'
    while b:
        rem = _poly_divmod(a, b)[1]
        a, b = b, [c / rem[0] for c in rem]  # monic: keeps the fractions short
    if len(a) > 1:  # gcd(p, p') is not a constant
        coeffs = np.array([float(c) for c in _poly_divmod(p, a)[0]])
    with np.errstate(over="ignore"):  # np.roots divides by the leading one
        if not np.isfinite(coeffs[1:] / coeffs[0]).all():
            raise ValueError("coefficients overflow when divided by the leading one")
    roots = np.roots(coeffs)
    real = roots.real[(roots.imag == 0) & (roots.real >= 0)]
    if len(real) == 0:
        raise ValueError("no nonnegative real root")
    return float(real.max())


def trivial_upper_bound(m: int) -> float:
    """Capacity upper bound (1/m) * log2(4^m / 2) = 2 - 1/m."""
    check_stem(m)
    return 2.0 - 1.0 / m


BLOCK_CONCAT_WORDS = ("AA", "AC", "CA", "CC", "TC")


def baseline_block_concat_rate() -> float:
    """Rate of the prior-work block-concatenation 3-SSA code: (1/2) log2 5."""
    return 0.5 * math.log2(5.0)


def block_concat_count(n: int) -> int:
    """Size 5^(n/2) of the block-concatenation code at even length n."""
    if n < 0 or n % 2:
        raise ValueError(f"block concatenation needs even n >= 0, got {n}")
    return 5 ** (n // 2)

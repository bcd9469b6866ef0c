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
from .gensets import GeneratingSet, tc_dominant_set
from .sequences import check_stem, check_word_length, sorted_unique

DEFAULT_TOL = 1e-10  # the relative tolerance of a rate, unless one is given
# The least tol a rate can be asked for.  A bracket is never narrower than
# its two margins (16 eps, 3.6e-15 relative) plus the rounding spread of
# its ratios, so a tol near that is never met and the power step runs all
# _MAX_ITER steps.  1e-13 stays well clear: the tc-dominant m=5 quotient
# and the m4 digraph still meet 5e-15.
MIN_TOL = 1e-13
_MAX_ITER = 100000  # the iteration cap of every power iteration

# A ratio (Ax)_i / x_i is a sum of at most 4 positive terms (one per
# symbol that extends the overlap) and one division, so in floating point
# it is within a relative gamma_4 = 4u / (1 - 4u) of its exact value
# (u = eps / 2).  Widening each end by 8 eps = 16u covers that and the
# rounding of the widening product itself.
_BRACKET_MARGIN = 8 * sys.float_info.epsilon  # a Python float, as the bracket is


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
    as ``GeneratingSet.codes``, is kept as it is, without a copy.  The word
    length and the codes pass the gates ``GeneratingSet.from_codes`` uses
    (``sequences.check_word_length`` and ``sorted_unique``).
    """

    m: int
    codes: np.ndarray  # sorted, duplicate-free vertex codes

    def __post_init__(self):
        check_word_length(self.m)
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
        overlap bins and which has one arc ``_pre[v] -> _suf[v]`` per vertex
        v.  A vertex lies on a cycle exactly when both of its bins are in one
        strong component of H, and two such vertices share a component of
        this digraph exactly when they share that component of H.  So the
        split never forms the adjacency matrix.  Each index array is
        ascending; components come in no particular order.

        H is split forward-backward (Fleischer, Hendrickson & Pinar, 2000):
        from the bin with the most in-arcs times out-arcs, its strong
        component is the bins it reaches and that reach it, both reaches
        advanced one arc a round in the same loop.  That component's arcs
        are dropped, the rest are trimmed to the arcs whose tail has an
        in-arc and whose head has an out-arc (no other arc is on a cycle),
        and the next bin is taken until none has both.  Up to
        ``_SLOT_BINS`` bins, a round expands only the newly reached bins,
        through a table of each bin's at most four out- and in-neighbours
        (``_reach_by_slots``); beyond, where that table would outweigh the
        digraph, a round sweeps ``_pre`` and ``_suf`` with a bool mask per
        direction (``_reach_on_arcs``).
        """
        nb, pre, suf = self._nbins, self._pre, self._suf
        table = self._slot_table() if nb <= _SLOT_BINS else None
        found = []
        p, s = pre, suf  # the arcs of H still in play
        while len(p):
            into, out = np.bincount(s, minlength=nb), np.bincount(p, minlength=nb)
            score = into * out
            pivot = score.argmax()
            if score[pivot] == 0:
                break  # no bin has an in-arc and an out-arc: no cycle is left
            if table is None:
                del into, out, score  # three int64 arrays over the bins: 24 MB at m=11
                comp = _reach_on_arcs(p, s, nb, pivot)
            else:
                comp = _reach_by_slots(table, (into + out) > 0, pivot)
            inside = comp.take(pre) & comp.take(suf)  # a single bin has one only by a self-loop
            if inside.any():
                found.append(np.flatnonzero(inside))
            keep = ~(comp.take(p) | comp.take(s))
            while not keep.all():
                p, s = p.compress(keep), s.compress(keep)
                keep = _marked(s, nb).take(p) & _marked(p, nb).take(s)
        return found

    def _slot_table(self) -> np.ndarray:
        """Row b < nb of the key graph's slot table holds the heads of b's
        out-arcs, one slot per last symbol; row nb + b holds nb plus the
        tails of b's in-arcs, one slot per first symbol.  Empty slots, and
        the last row, hold the sentinel 2 nb."""
        nb, codes = self._nbins, self.codes
        table = np.full(4 * (2 * nb + 1), 2 * nb)  # filled flat: 1-d scatters are faster
        table[4 * self._pre + (codes & 3)] = self._suf
        table[4 * (nb + self._suf) + (codes >> 2 * (self.m - 1))] = nb + self._pre
        return table.reshape(-1, 4)


# Key graphs up to this many bins are reached through their slot table
# (64 bytes a bin); a larger one sweeps its arc arrays instead.
_SLOT_BINS = 1 << 16


def _reach_by_slots(table: np.ndarray, in_play: np.ndarray, pivot) -> np.ndarray:
    """The bins in ``in_play`` that ``pivot`` reaches and that reach it, over
    the arcs between bins in play.  Every arc that is out of play has an
    end out of play, so the table's arcs need no other filter.  Both
    reaches advance in one frontier over [reached | reaching | sentinel];
    ``unseen`` holds the bins in play that neither has reached yet.
    ``take`` and ``compress`` are used for their lower per-call cost on
    these small arrays: a round is a few microseconds."""
    nb = len(in_play)
    unseen = np.concatenate([in_play, in_play, [False]])
    front = np.array([pivot, nb + pivot])
    unseen[front] = False
    while len(front):
        front = table.take(front, axis=0).ravel()
        front = front.compress(unseen.take(front))
        unseen[front] = False
    return in_play & ~(unseen[:nb] | unseen[nb:2 * nb])


def _reach_on_arcs(p: np.ndarray, s: np.ndarray, nb: int, pivot) -> np.ndarray:
    """The bins that ``pivot`` reaches and that reach it over the arcs
    p -> s.  Each reach is a bool mask over the bins, advanced over the arc
    arrays themselves, so a round holds no per-arc array wider than a bool
    mask and the heads (or tails) it reaches."""
    ahead, behind = np.zeros(nb, dtype=bool), np.zeros(nb, dtype=bool)
    ahead[pivot] = behind[pivot] = True
    sizes = (1, 1)
    while True:
        ahead[s[ahead[p]]] = True
        behind[p[behind[s]]] = True
        grown = (np.count_nonzero(ahead), np.count_nonzero(behind))
        if grown == sizes:
            return ahead & behind
        sizes = grown


def _marked(idx: np.ndarray, n: int) -> np.ndarray:
    """A bool mask of length n, set at ``idx``."""
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def build_digraph(s: GeneratingSet) -> TransitionDigraph:
    s.require_valid()
    return TransitionDigraph(m=s.m, codes=s.codes)


@dataclass
class CapacityReport:
    """How a Perron root, and the rate log2 of it, was reached.

    ``method`` is "power-iteration" (``spectral_radius``), "mask-quotient"
    (``rate_of_set`` on a union of TC-mask classes) or "binary-reduction"
    (``binary_reduction_rate``).  Each method brackets the root the same
    way: ``bracket`` is the certified interval (lo, hi) that holds it,
    [max lo, max hi] over the cyclic components of Collatz-Wielandt bounds
    (see ``_shifted_power``), ``spectral_radius`` is its midpoint,
    ``residual`` its relative width (hi - lo) / spectral_radius, and
    ``converged`` says whether hi - lo <= tol * lo.  ``iterations`` are
    summed over the components.  A digraph with no cycle has root 0,
    residual 0 and no bracket (None).  ``bracket`` is left out of
    ``to_dict``.  A "mask-quotient" report comes with no word-level
    digraph built: each component's bounds are those of the word-level
    product, taken on its component's kept masks.  Its ``vertex_count`` is
    the size of the set, and its ``arc_count`` is 2^(m+1) times the
    quotient's, since every word has two successors per quotient arc of
    its mask, on a cycle or not.  That is exact for a union whose kept
    masks ``GeneratingSet.mask_classes`` found in the codes, or that the
    set was made from by its builder.
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


def _shifted_power(matvec, x: np.ndarray, tol: float, stop_below: float):
    """Power iteration on A + I from the positive vector x, stopped on its
    Collatz-Wielandt bracket.

    Each step takes y = Ax, and the least and greatest ratio y_i / x_i
    bound the root of A (Collatz-Wielandt: for a nonnegative A and a
    positive x, min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i); each
    end is widened by ``_BRACKET_MARGIN``.  A min and a max do not depend
    on the order of a sum, so every step is the same to the bit on every
    CPU and thread count.  The iteration stops once hi - lo <= tol * lo,
    once hi < ``stop_below`` (the root is below it), when a bound is nan,
    or after ``_MAX_ITER`` steps; otherwise x becomes y + x scaled by
    1 / (1 + hi), which keeps it near unit size.  The shift leaves the
    Perron vector fixed and makes a periodic digraph aperiodic, so x tends
    to it, and on a strongly connected digraph x stays positive.  Returns
    (lo, hi, iterations, x), with x the vector last bracketed (one step on
    if the steps ran out).
    """
    for iterations in range(1, _MAX_ITER + 1):
        y = matvec(x)
        ratio = y / x
        # the least and greatest ratio by index: on short arrays argmin
        # and argmax cost half what a min and a max reduction do
        lo = ratio.item(ratio.argmin()) * (1.0 - _BRACKET_MARGIN)
        hi = ratio.item(ratio.argmax()) * (1.0 + _BRACKET_MARGIN)
        if not (hi - lo > tol * lo and hi >= stop_below):
            break
        y += x
        y *= 1.0 / (1.0 + hi)
        x = y
    return lo, hi, iterations, x


def _cyclic_powers(g: TransitionDigraph, tol: float, stop_below: float):
    """Each cyclic component of ``g`` as its own overlap digraph (``g``
    itself when one component spans every vertex), with ``_shifted_power``
    of it from the all-ones vector."""
    for idx in g.cyclic_components():
        sub = (g if len(idx) == g.vertex_count
               else TransitionDigraph(m=g.m, codes=g.codes[idx]))
        yield sub, _shifted_power(sub.matvec, np.ones(len(idx)), tol, stop_below)


def _bracket_report(m: int, vertex_count: int, arc_count: int, method: str,
                    powers: List[Tuple[float, float, int]], tol: float) -> CapacityReport:
    """The report on a root bracketed one cyclic component at a time,
    ``powers`` holding each component's (lo, hi, iterations).  A
    nonnegative matrix's root is the largest root of its cyclic
    components, so it lies in [max lo, max hi]; with no component there is
    no cycle, and the root is 0."""
    if not powers:
        return CapacityReport(m, vertex_count, arc_count, 0.0, 0.0, method, 0.0, 0)
    los, his, steps = zip(*powers)
    lo, hi = max(los), max(his)
    rho = (lo + hi) / 2
    return CapacityReport(
        m=m,
        vertex_count=vertex_count,
        arc_count=arc_count,
        spectral_radius=rho,
        rate_bits_per_nt=math.log2(rho),
        method=method,
        residual=(hi - lo) / rho,
        iterations=sum(steps),
        converged=hi - lo <= tol * lo,
        bracket=(lo, hi),
    )


def spectral_radius(g: TransitionDigraph, tol: float = DEFAULT_TOL, *,
                    floor: Optional[float] = None) -> CapacityReport:
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
    iterates ``g`` itself.  That loop, ``_cyclic_powers``, is the one the
    certificate in ``rate_of_set`` runs on a mask quotient.  Each
    component's root depends only on its own codes, so equal components
    in two sets give bit-identical roots.  Each component stops on its own
    Collatz-Wielandt bracket (``_shifted_power``), and the report carries
    [max lo, max hi] over them (``CapacityReport``).

    ``floor`` (bits/nt) stops a component as soon as its bracket's upper
    end is below 2^floor, before the bracket meets ``tol``.  The report's
    bracket still holds the root, and ``converged`` still says whether it
    is within ``tol``: False when such a component decides it.
    """
    check_tol(tol)
    # a root is at most 4, so a floor above 3 bits stops as 3 does, and
    # the power stays finite
    stop_below = 0.0 if floor is None else 2.0 ** min(floor, 3.0)
    powers = [p[:3] for _, p in _cyclic_powers(g, tol, stop_below)]
    return _bracket_report(g.m, g.vertex_count, g.arc_count, "power-iteration",
                           powers, tol)


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
    mask.  The masks of each cyclic component of it form a union of their
    own, whose quotient is that component, so ``rate_of_set`` brackets the
    components one at a time.  Returns that quotient digraph, or None when
    S is not such a union.  The kept masks are ``s.mask_classes``, found
    once per set in its codes, or held from the start by a set its builder
    made from them, and shared with ``validate``.
    """
    kept = s.mask_classes
    return None if kept is None else TransitionDigraph(m=s.m, codes=sequences.spread(kept))


def _lifted_bracket(m: int, kept: np.ndarray,
                    by_mask: np.ndarray) -> Optional[Tuple[float, float]]:
    """Certified bounds lo <= rho(A) <= hi on the overlap digraph A of the
    union of the TC-mask classes ``kept`` (ascending, not empty), from one
    product with the vector x that reads each word's value at its mask in
    ``by_mask``.

    The bracket is that of one step of ``_shifted_power`` (an infinite tol
    stops it there), whose product is taken on the 2^m masks, with no word
    read.  A word of mask a ends in an (m-1)-word of mask
    b = a mod 2^(m-1), whose four successors, that word followed by
    A, C, G and T, have the masks 2b, 2b+1, 2b and 2b+1; each is in S iff
    its mask is kept.  With v = x at the kept masks and an exact 0.0 at
    the others, (Ax)_u is f[b] = ((v[2b] + v[2b+1]) + v[2b]) + v[2b+1]:
    the overlap's bin summed in the order the ``bincount`` of
    ``TransitionDigraph.matvec`` sums it.  So every word's ratio is that
    of the word-level product to the bit, and the least and greatest
    over the kept masks are those over the words.  Only ``by_mask`` at
    ``kept``, the set's own classes, is read, whatever it holds
    elsewhere.  None if an entry of x is not a positive normal float.
    """
    x = by_mask[kept]
    if not x.min() >= np.finfo(float).tiny:
        return None
    v = np.zeros(2 ** m)
    low = kept & (2 ** (m - 1) - 1)

    def product(u):
        v[kept] = u
        even, odd = v[0::2], v[1::2]  # v at the masks 2b and 2b+1
        return (((even + odd) + even) + odd)[low]

    lo, hi, _, _ = _shifted_power(product, x, math.inf, 0.0)
    return lo, hi


def _lifted_rate(s: GeneratingSet, quotient: TransitionDigraph,
                 tol: float) -> Optional[CapacityReport]:
    """The root of S's digraph bracketed one cyclic component of the
    quotient at a time, or None if that is not certified to ``tol``.

    A nonnegative matrix's root is the largest root of its cyclic
    components, and the masks of each component of the quotient form a
    union of their own, whose quotient is that component: strongly
    connected, so its Perron vector is positive.  Each component's vector
    is lifted to the words of its masks among S's classes and bracketed
    there (``_lifted_bracket``); the root lies in [max lo, max hi] over
    the components.  Each bracket holds for any positive vector, but which
    masks form a component is read off the quotient, which
    ``mask_quotient`` builds from those same classes.  None when the
    quotient has no cycle, when a bracket is refused, or when that
    interval is wider than ``tol`` relative to its lower end.  Each
    component is iterated to ``tol`` on its own bracket, which the lifted
    one matches to a few eps, since every word's ratio is twice its
    mask's there, up to rounding.
    """
    powers = []
    for sub, (_, _, it, x) in _cyclic_powers(quotient, tol, 0.0):
        masks = sequences.tc_masks(sub.codes, s.m)
        by_mask = np.zeros(2 ** s.m)
        by_mask[masks] = x  # at the component's masks
        # both are duplicate-free: np.unique, and with it numpy.ma, is skipped
        kept = np.intersect1d(s.mask_classes, masks, assume_unique=True)
        bracket = _lifted_bracket(s.m, kept, by_mask)
        if bracket is None:
            return None
        powers.append((*bracket, it))
    report = _bracket_report(s.m, len(s), 2 ** (s.m + 1) * quotient.arc_count,
                             "mask-quotient", powers, tol)
    return report if powers and report.converged else None


def rate_of_set(s: GeneratingSet, tol: float = DEFAULT_TOL, *,
                floor: Optional[float] = None) -> CapacityReport:
    """Asymptotic rate of C_n(S) in bits/nt: log2 of the digraph Perron root.

    If S is a union of whole TC-mask classes whose quotient (see
    ``mask_quotient``, at most 2^m vertices) has a cycle, each cyclic
    component of the quotient is iterated, its Perron vector is lifted to
    the words of its masks, and one product with that part of the 4^m-word
    operator brackets its root (Collatz-Wielandt, see ``_lifted_bracket``);
    the root of S is in [max lo, max hi] over the components (see
    ``_lifted_rate``).  Every word's ratio in that product is a function
    of its mask, so it is taken on the 2^m masks, bit for bit the
    word-level one, and no digraph is built.  The classes it reads are
    those of ``s.mask_classes`` in the component: found in the codes, or
    held by a set its builder made from them, so a
    bracket does not rest on the quotient's vector being right.  If the
    interval is at most ``tol`` wide relative to its lower end, the
    report's method is "mask-quotient" and it carries the bracket; its
    ``arc_count`` is read off the quotient (see ``CapacityReport``).  A
    strongly connected quotient is its own one component, bracketed on all
    of ``s.mask_classes``.  In every other case (no union, a quotient with
    no cycle, a refused or too wide bracket) the rate is
    ``spectral_radius`` of the full digraph, as for any set.  S is
    validated once either way: after the certificate, or by
    ``build_digraph``.  A ``tol`` that ``check_tol`` turns away is refused
    before any work.  ``floor`` (bits/nt) is passed to ``spectral_radius``,
    which stops a component early once its root is certified below
    2^floor; the certificate does not read it.
    """
    check_tol(tol)
    quotient = mask_quotient(s)
    if quotient is not None:
        report = _lifted_rate(s, quotient, tol)
        if report is not None:
            s.require_valid()
            return report
    return spectral_radius(build_digraph(s), tol=tol, floor=floor)


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
    ``tc_dominant_set(m)``, which holds those 2^m masks and builds no
    word.  It is iterated to ``DEFAULT_TOL``, and the reported bracket,
    and so the spectral radius, is the quaternary-equivalent one, twice
    the binary digraph's (an exact doubling).  The all-ones mask is its
    own successor, so there is always a cycle.
    """
    binary = spectral_radius(mask_quotient(tc_dominant_set(m)))
    lo, hi = binary.bracket
    return _bracket_report(m, binary.vertex_count, binary.arc_count, "binary-reduction",
                           [(2.0 * lo, 2.0 * hi, binary.iterations)], DEFAULT_TOL)


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

import copy
import functools
import itertools
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ssacode import (
    F3,
    F5,
    COMPOSITION_BASELINE,
    GeneratingSet,
    InvalidGeneratingSetError,
    TransitionDigraph,
    baseline_block_concat_rate,
    binary_reduction_rate,
    block_concat_count,
    build_digraph,
    count_constrained,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    largest_real_root,
    mask_quotient,
    rate_of_set,
    recurrence_counts,
    spectral_radius,
    tc_dominant_set,
    trivial_upper_bound,
    validate,
)
from ssacode.capacity import BLOCK_CONCAT_WORDS, DEFAULT_TOL, MIN_TOL, SiblingTrie
from ssacode.gensets import _mask_union
from ssacode.sequences import (
    codes_to_words, rc_code, rc_masks, spread, tc_mask_members, tc_masks, word_to_code)
from conftest import (
    ac_word,
    adjacency_matrix,
    dense_spectral_radius,
    dense_strong_components,
    keep_tables,
    mask_unions,
    perron_bracket,
    random_valid_set,
    rc_free_words,
    ref_binary_walk_counts,
    ref_binary_window_digraph,
    ref_count_constrained,
    ref_good_binary_count,
    ref_successor_runs,
    tc_pattern,
)

WORKED_SET = GeneratingSet.from_words(["TT", "TC", "TG", "GT", "CT", "CC"])

# adjacency of the worked m=2 example, rows/cols ordered TT,TC,TG,GT,CT,CC
WORKED_MATRIX = [
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 1],
]

# Reducible digraphs for the spectral oracle: two disjoint copies of one
# 4-vertex component (root x^3 = x^2 + 1), two self-loops joined by a
# bridge vertex that lies on no cycle, a path with no cycle at all, and
# three 4-cycles joined by paths, whose defective root 1 a global dense
# eigvals misplaces by 3e-6.
TWO_EQUAL_CYCLES = ["AAA", "AAC", "ACA", "CAA", "CCC", "CCG", "CGC", "GCC"]
BRIDGED_SELF_LOOPS = ["AA", "AC", "CC"]
NO_CYCLE = ["AC", "CT"]
# the self-loop AAA, the 2-cycle ACA/CAC, and AAC from the one to the other
SELF_LOOP_BESIDE_CYCLE = ["AAA", "AAC", "ACA", "CAC"]
CHAINED_UNIT_CYCLES = [
    "AAGA", "ACAG", "AGAC", "CAGA", "CGCT", "CGTT", "CTTG", "GAAG", "GACA",
    "GCTT", "GGCT", "GTTC", "TCGC", "TCGT", "TGAA", "TGCT", "TTCG", "TTGA",
    "TTGC"]

# The 32 words of TC mask 11100: a union of 2^m words, sparser than 4^(m-1)
ONE_CLASS = [w for w in map("".join, itertools.product("ACGT", repeat=5))
             if tc_pattern(w) == "11100"]


def union_words(m, masks):
    """The words of the TC-mask classes ``masks``, given as bit strings."""
    masks = set(masks)
    return [w for w in map("".join, itertools.product("ACGT", repeat=m))
            if tc_pattern(w) in masks]


def heavy_masks(m, weight):
    """The length-m masks with at least ``weight`` ones."""
    return [a for a in map("".join, itertools.product("01", repeat=m))
            if a.count("1") >= weight]


def random_union(seed):
    """A union of whole TC-mask classes made from a random RC-free keep
    table at m = 3..6: from each pair of masks {a, reverse(~a)} with
    a != reverse(~a), one of the two or neither, and one if none is."""
    rng = random.Random(seed)
    m = 3 + seed % 4
    masks = np.arange(2 ** m)
    partner = rc_masks(masks, m)
    keep = np.zeros(2 ** m, dtype=bool)
    lower = masks[masks < partner]
    for a in lower:
        pick = rng.randrange(3)  # a, its partner or neither
        if pick < 2:
            keep[(a, partner[a])[pick]] = True
    if not keep.any():
        keep[rng.choice(lower)] = True
    return _mask_union(m, keep)


def cyclic_windows(cycle, m):
    """The m-windows of the binary string ``cycle`` read cyclically."""
    return [(cycle + cycle)[i:i + m] for i in range(len(cycle))]


# RC-free unions whose quotients have two cyclic components of different
# roots.  At m=5 the six masks of weight >= 4 (binary root 1.3247) and the
# five rotations of 00011 (a 5-cycle, root 1); at m=6 the larger component
# has the smaller root: the eleven 6-windows of the cyclic 00010100011
# (1.1347) and the seven masks of weight >= 5 (1.2852).
TWO_ROOTS_M5 = union_words(5, heavy_masks(5, 4) + cyclic_windows("00011", 5))
LARGER_LOWER_M6 = union_words(6, heavy_masks(6, 5) + cyclic_windows("00010100011", 6))


class TestDigraph:
    def test_worked_example_counts(self):
        g = build_digraph(WORKED_SET)
        assert g.vertex_count == 6
        assert g.arc_count == 14

    def test_individual_arcs(self):
        # the digraph's vertices are the set's codes, in the set's order
        A = adjacency_matrix(build_digraph(WORKED_SET))
        vertex = WORKED_SET.words().index
        assert A[vertex("TT"), vertex("TC")]
        assert not A[vertex("TC"), vertex("TT")]

    def test_adjacency_matrix_matches_worked_example(self):
        g = build_digraph(WORKED_SET)
        order = ["TT", "TC", "TG", "GT", "CT", "CC"]
        vertex_words = WORKED_SET.words()
        perm = [vertex_words.index(w) for w in order]
        A = adjacency_matrix(g)[np.ix_(perm, perm)]
        assert A.tolist() == WORKED_MATRIX

    def test_vertices_sorted_unique(self):
        s = GeneratingSet.from_words(["TT", "TC", "CC"])
        assert np.array_equal(build_digraph(s).codes, s.codes)
        assert s.words() == sorted(s.words())

    def test_rejects_invalid_set(self):
        from ssacode import InvalidGeneratingSetError
        with pytest.raises(InvalidGeneratingSetError):
            build_digraph(GeneratingSet.from_words(["TT", "AA"]))

    def test_set_codes_taken_as_they_are(self):
        s = tc_dominant_set(5)
        assert build_digraph(s).codes is s.codes


def naive_arc_count(vertices, m):
    return sum(u % 4 ** (m - 1) == v // 4 for u in vertices for v in vertices)


class TestDigraphVertexDedup:
    @given(st.integers(2, 6).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, 4 ** m - 1), max_size=60))))
    @example((3, []))
    @example((3, [7, 3, 7, 0, 3]))
    def test_unsorted_input_gives_sorted_unique_vertices(self, case):
        m, codes = case
        want = sorted(set(codes))
        for given_codes in (codes, np.array(codes, dtype=np.int64)):
            g = TransitionDigraph(m=m, codes=given_codes)
            assert g.codes.dtype == np.int64
            assert g.codes.tolist() == want
            assert g.vertex_count == len(want)
            assert g.arc_count == naive_arc_count(want, m)


@st.composite
def indexed_digraphs(draw):
    """(m, digraph, dense) with dense = 4^(m-1) <= |V|, on both sides of
    that rule: a random code set of fewer or of at least 4^(m-1) codes.
    Dense sets stay within a few hundred codes of 4^(m-1), so that the
    adjacency matrix stays small."""
    m = draw(st.integers(2, 6))
    overlaps = 4 ** (m - 1)
    dense = draw(st.booleans())
    if dense:
        size = draw(st.integers(overlaps, min(4 ** m, overlaps + 300)))
    else:
        size = draw(st.integers(0, overlaps - 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    codes = rng.sample(range(4 ** m), size)
    return m, TransitionDigraph(m=m, codes=codes), dense


def reindexed(g, dense):
    """A copy of g with the other index: the ranks of its distinct overlap
    words if g is indexed by the overlap codes (``dense``), else those codes."""
    h = copy.copy(g)
    pre, suf = g.codes // 4, g.codes % 4 ** (g.m - 1)
    if dense:
        keys = np.unique(np.concatenate([pre, suf]))
        h._pre, h._suf = np.searchsorted(keys, pre), np.searchsorted(keys, suf)
        h._nbins = len(keys)
    else:
        h._pre, h._suf, h._nbins = pre, suf, 4 ** (g.m - 1)
    h._start = np.searchsorted(h._pre, np.arange(h._nbins + 1))
    return h


# {A, C}^2, the binary full shift as words over {A, C}: 4 codes, dense
AC_PAIRS = [word_to_code(w) for w in ("AA", "AC", "CA", "CC")]


class TestIndexModes:
    @settings(max_examples=60, deadline=None)
    @given(indexed_digraphs(), st.integers(0, 2 ** 32 - 1))
    @example((2, TransitionDigraph(m=2, codes=AC_PAIRS), True), 0)
    @example((2, TransitionDigraph(m=2, codes=[0, 1]), False), 0)  # AA, AC
    @example((2, TransitionDigraph(m=2, codes=[0, 5, 15]), False), 0)
    @example((3, TransitionDigraph(m=3, codes=[]), False), 0)
    def test_against_adjacency_matrix(self, case, seed):
        m, g, dense = case
        overlaps = 4 ** (m - 1)
        if dense:
            assert g._nbins == overlaps
            assert np.array_equal(g._pre, g.codes // 4)
            assert np.array_equal(g._suf, g.codes % overlaps)
        else:
            assert g._nbins <= 2 * g.vertex_count
        assert (np.diff(g._pre) >= 0).all()
        for h in (g, reindexed(g, dense)):  # the run of each prefix bin
            assert len(h._start) == h._nbins + 1
            for k in range(h._nbins):
                assert (np.flatnonzero(h._pre == k).tolist()
                        == list(range(h._start[k], h._start[k + 1])))
        adj = adjacency_matrix(g)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 1000, g.vertex_count)
        assert g.matvec(x).tolist() == (adj @ x).tolist()
        assert g.arc_count == naive_arc_count(g.codes.tolist(), m) == adj.sum()
        want = {tuple(idx.tolist()) for idx in dense_strong_components(adj)
                if len(idx) > 1 or adj[idx[0], idx[0]]}
        assert {tuple(idx.tolist()) for idx in g.cyclic_components()} == want
        row = np.ones(g.vertex_count, dtype=np.int64)
        for counts, _ in SiblingTrie(g).walk(4):
            assert counts == row.tolist()  # row r is A^r 1
            row = adj @ row

    @settings(max_examples=60, deadline=None)
    @given(indexed_digraphs(), st.integers(0, 2 ** 32 - 1))
    def test_both_indexes_agree_to_the_bit(self, case, seed):
        m, g, dense = case
        other = reindexed(g, dense)
        x = np.random.default_rng(seed).uniform(0.1, 10.0, g.vertex_count)
        assert g.matvec(x).tobytes() == other.matvec(x).tobytes()
        assert g.arc_count == other.arc_count
        assert ({tuple(idx.tolist()) for idx in g.cyclic_components()}
                == {tuple(idx.tolist()) for idx in other.cyclic_components()})
        assert list(SiblingTrie(g).walk(5)) == list(SiblingTrie(other).walk(5))
        # the codec's successor table
        assert SiblingTrie(g).succ_start == SiblingTrie(other).succ_start

    @settings(max_examples=60, deadline=None)
    @given(indexed_digraphs(), st.integers(0, 2 ** 32 - 1))
    @example((2, TransitionDigraph(m=2, codes=AC_PAIRS), True), 0)
    @example((2, TransitionDigraph(m=2, codes=[]), False), 0)
    def test_sibling_trie_sums(self, case, seed):
        # naive sums over the siblings before v and over v's successors, of
        # a row that depends on a vertex only through its suffix, as walk
        # counts do
        m, g, dense = case
        trie = SiblingTrie(g)
        codes = g.codes.tolist()
        by_suffix = np.random.default_rng(seed).integers(0, 1000, 4 ** (m - 1)).tolist()
        row = [by_suffix[c % 4 ** (m - 1)] for c in codes]
        sums = trie.sums(row)
        for v, code in enumerate(codes):
            earlier = [u for u in range(v) if codes[u] // 4 == code // 4]
            successors = [u for u, c in enumerate(codes) if c // 4 == code % 4 ** (m - 1)]
            assert sums[trie.earlier[v]] == sum(row[u] for u in earlier)
            assert sums[trie.succ_node[v]] == sum(row[u] for u in successors)
            if successors:
                assert trie.succ_start[v] == successors[0]
        # against binary search over the sorted prefix bins
        start, stop = ref_successor_runs(g)
        assert trie.succ_start == start
        for v in range(g.vertex_count):
            assert (trie.succ_node[v] == 0) == (start[v] == stop[v])
            assert sums[trie.succ_node[v]] == sum(row[start[v]:stop[v]])

    @pytest.mark.parametrize("m", [5, 7, 11])
    def test_tc_dominant_is_dense(self, m):
        s = tc_dominant_set(m)
        g = build_digraph(s)
        assert g._nbins == 4 ** (m - 1)
        assert g.codes is s.codes

    def test_sparse_m16(self):
        # the 16 rotations of A^15 C and A^16: every window of a sequence
        # over {A, C} whose C's stand at least 16 apart; RC-free, since the
        # reverse complements are words over {G, T}
        m = 16
        words = ["A" * m] + ["A" * (m - 1 - k) + "C" + "A" * k for k in range(m)]
        s = GeneratingSet.from_words(words)
        g = build_digraph(s)
        assert g.vertex_count == 17
        assert g._nbins <= 2 * g.vertex_count
        assert g.arc_count == naive_arc_count(s.codes.tolist(), m) == 19
        # f(n) = f(n-1) + f(n-16): the root of x^16 = x^15 + 1
        root = largest_real_root([1, -1] + [0] * 14 + [-1])
        rep = rate_of_set(s)
        assert rep.converged
        assert rep.spectral_radius == pytest.approx(root, abs=1e-8)
        assert rep.spectral_radius == pytest.approx(
            dense_spectral_radius(adjacency_matrix(g)), abs=1e-9)
        for n in (16, 17, 24, 31):  # no C, one C, or two C's 16 or more apart
            assert count_constrained(s, n) == 1 + n + (n - 15) * (n - 16) // 2


class TestSpectralRadius:
    def test_worked_example(self):
        rep = spectral_radius(build_digraph(WORKED_SET))
        assert rep.spectral_radius == pytest.approx(2.247, abs=1e-3)
        assert rep.converged

    def test_no_arcs(self):
        rep = spectral_radius(build_digraph(GeneratingSet.from_words(["AC"])))
        assert rep.spectral_radius == 0.0
        assert rep.rate_bits_per_nt == 0.0

    def test_self_loop(self):
        rep = spectral_radius(build_digraph(GeneratingSet.from_words(["AA"])))
        assert rep.spectral_radius == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words())
    @example(TWO_EQUAL_CYCLES)
    @example(BRIDGED_SELF_LOOPS)
    @example(NO_CYCLE)
    @example(CHAINED_UNIT_CYCLES)
    def test_matches_dense_eigenvalues_random(self, words):
        g = build_digraph(GeneratingSet.from_words(words))
        dense = dense_spectral_radius(adjacency_matrix(g))
        rep = spectral_radius(g)
        assert rep.converged
        assert rep.spectral_radius == pytest.approx(dense, abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(rc_free_words(ms=(2, 3, 4, 5)))
    @example(TWO_EQUAL_CYCLES)
    @example(BRIDGED_SELF_LOOPS)
    @example(SELF_LOOP_BESIDE_CYCLE)
    @example(NO_CYCLE)
    @example(CHAINED_UNIT_CYCLES)
    def test_cyclic_components_match_dense_scc(self, words):
        # both reaches: through the slot table, and over the arc arrays,
        # which the split takes only beyond _SLOT_BINS bins
        from ssacode import capacity
        g = build_digraph(GeneratingSet.from_words(words))
        adj = adjacency_matrix(g)
        want = {tuple(idx.tolist()) for idx in dense_strong_components(adj)
                if len(idx) > 1 or adj[idx[0], idx[0]]}
        for slot_bins in (capacity._SLOT_BINS, 0):
            with mock.patch.object(capacity, "_SLOT_BINS", slot_bins):
                got = g.cyclic_components()
            assert all(idx.dtype == np.intp and (np.diff(idx) > 0).all() for idx in got)
            assert {tuple(idx.tolist()) for idx in got} == want
            assert len(got) == len(want)

    @staticmethod
    def sorted_split(g):
        """``cyclic_components`` taken the long way on every digraph: the
        vertices on a cycle, stably sorted by their key-graph label and
        cut where it changes."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        key_graph = csr_matrix((np.ones(g.vertex_count), g._suf, g._start),
                               shape=(g._nbins, g._nbins))
        _, key_labels = connected_components(key_graph, directed=True, connection="strong")
        label = key_labels[g._pre]
        on_cycle = np.flatnonzero(label == key_labels[g._suf])
        if len(on_cycle) == 0:
            return []
        order = on_cycle[np.argsort(label[on_cycle], kind="stable")]
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)

    def same_split(self, g):
        # the components in order of their first vertex: the split may
        # find them in any order; both reaches, as in the test above
        from ssacode import capacity
        want = sorted(self.sorted_split(g), key=lambda idx: idx[0])
        for slot_bins in (capacity._SLOT_BINS, 0):
            with mock.patch.object(capacity, "_SLOT_BINS", slot_bins):
                got = sorted(g.cyclic_components(), key=lambda idx: idx[0])
            assert len(got) == len(want)
            for idx, ref in zip(got, want):
                assert idx.dtype == ref.dtype and np.array_equal(idx, ref)

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words(ms=(2, 3, 4, 5, 6)))
    @example(TWO_EQUAL_CYCLES)
    @example(NO_CYCLE)
    def test_split_as_sorted_on_random_sets(self, words):
        self.same_split(build_digraph(GeneratingSet.from_words(words)))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_split_as_sorted_on_tc_dominant(self, m):
        # one component spans every word and every kept mask
        s = tc_dominant_set(m)
        for g in (build_digraph(s), mask_quotient(s)):
            assert len(g.cyclic_components()) == 1
            self.same_split(g)

    def test_chained_full_shifts(self):
        # x + y with x in {A,C}^k and y in {G,T}^(9-k), k = 0..9: two
        # 2-symbol full shifts, {A,C}^9 and {G,T}^9, each of root 2, joined
        # one way through 4,096 vertices on no cycle.  Not RC-free, so the
        # digraph is built directly.
        words = ["".join(x + y) for k in range(10)
                 for x in itertools.product("AC", repeat=k)
                 for y in itertools.product("GT", repeat=9 - k)]
        g = TransitionDigraph(m=9, codes=[word_to_code(w) for w in words])
        assert g.vertex_count == 5120
        assert sorted(map(len, g.cyclic_components())) == [512, 512]
        rep = spectral_radius(g)
        assert rep.converged
        assert rep.spectral_radius == pytest.approx(2.0, abs=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_radius(build_digraph(WORKED_SET), tol=0.0)

    def test_floor(self):
        # root 2.247: a floor below its rate never stops it, one above
        # stops it early with a bracket that still holds the root
        g = build_digraph(WORKED_SET)
        full = spectral_radius(g)
        assert spectral_radius(g, floor=1.1).to_dict() == full.to_dict()
        for floor in (1.2, 2.0, 1e6, math.inf):
            rep = spectral_radius(g, floor=floor)
            lo, hi = rep.bracket
            assert not rep.converged and rep.iterations < full.iterations
            assert lo <= full.spectral_radius <= hi < 2 ** min(floor, 3)

    def test_report_serialization(self):
        d = spectral_radius(build_digraph(WORKED_SET)).to_dict()
        assert set(d) == {"m", "vertex_count", "arc_count", "spectral_radius",
                          "rate_bits_per_nt", "method", "residual", "iterations"}
        assert d["method"] == "power-iteration"


class TestRateOfSet:
    def test_worked_example(self):
        assert rate_of_set(WORKED_SET).rate_bits_per_nt == pytest.approx(1.1679, abs=1e-3)

    def test_tc_dominant_m3(self):
        assert rate_of_set(tc_dominant_set(3)).rate_bits_per_nt == pytest.approx(1.5514, abs=1e-3)

    def test_upper_bound_sanity_random(self, rng):
        for m in (2, 3):
            for _ in range(10):
                s = random_valid_set(rng, m, drop_rate=rng.choice([0.0, 0.25]))
                assert rate_of_set(s).rate_bits_per_nt <= trivial_upper_bound(m) + 1e-9

    @pytest.mark.parametrize("report, method", [
        (lambda: rate_of_set(tc_dominant_set(3)), "mask-quotient"),
        (lambda: rate_of_set(heuristic_set_m4()), "power-iteration"),
        (lambda: binary_reduction_rate(5), "binary-reduction"),
    ], ids=["mask-quotient", "power-iteration", "binary-reduction"])
    def test_reports_hold_python_floats(self, report, method):
        rep = report()
        assert rep.method == method
        values = rep.to_dict()
        for key in ("spectral_radius", "rate_bits_per_nt", "residual"):
            assert type(values[key]) is float, key
        assert rep.bracket is None or all(type(v) is float for v in rep.bracket)


def exact_ratios(g, x):
    """(Ax)_i / x_i for every vertex, in exact rational arithmetic."""
    adj = adjacency_matrix(g)
    xs = [Fraction(v) for v in x.tolist()]
    return [sum((xs[j] for j in np.flatnonzero(row)), Fraction(0)) / xs[i]
            for i, row in enumerate(adj)]


class TestMaskQuotient:
    @pytest.mark.parametrize("m", [3, 5])
    def test_tc_dominant_quotient(self, m):
        s = tc_dominant_set(m)
        quotient = mask_quotient(s)
        # the {A, C} words of the kept masks, in mask order
        assert codes_to_words(quotient.codes, m) == [
            ac_word(a, m) for a in range(2 ** m) if 2 * bin(a).count("1") > m]
        assert tc_masks(s.codes, m).tolist() == [int(tc_pattern(w), 2) for w in s.words()]
        # binary_reduction_rate iterates the same digraph
        binary = binary_reduction_rate(m)
        assert binary.vertex_count == quotient.vertex_count
        assert binary.arc_count == quotient.arc_count

    @settings(max_examples=40, deadline=None)
    @given(keep_tables(), st.integers(0, 2 ** 32 - 1))
    @example(np.ones(4, dtype=bool), 0)  # {A, C}^2: dense bins
    @example(np.array([2 * bin(a).count("1") > 5 for a in range(32)]), 0)
    def test_quotient_is_binary_window_digraph(self, keep, seed):
        # any union of whole classes, RC-free or not: mask_quotient does not
        # validate
        assume(keep.any())
        m = len(keep).bit_length() - 1
        s = GeneratingSet.from_codes(m, np.flatnonzero(tc_mask_members(m, keep)))
        quotient = mask_quotient(s)
        kept = np.flatnonzero(keep)
        assert codes_to_words(quotient.codes, m) == [ac_word(a, m) for a in kept]
        want = ref_binary_window_digraph(keep)  # in kept order
        assert adjacency_matrix(quotient).tolist() == want.tolist()
        x = np.random.default_rng(seed).integers(0, 1000, len(kept))
        assert quotient.matvec(x).tolist() == (want @ x).tolist()
        assert quotient.arc_count == want.sum()
        for r, (counts, _) in enumerate(SiblingTrie(quotient).walk(4)):
            assert counts == ref_binary_walk_counts(keep, r)

    def test_not_a_union(self):
        s = tc_dominant_set(5)
        swapped = GeneratingSet.from_codes(  # same size as a union, still RC-free
            5, np.concatenate([s.codes[1:], [rc_code(int(s.codes[0]), 5)]]))
        swapped.require_valid()
        assert len(swapped) == len(s)
        for t in (heuristic_set_m4(), WORKED_SET,
                  GeneratingSet.from_codes(5, s.codes[1:]), swapped):
            assert mask_quotient(t) is None
            assert rate_of_set(t).method == "power-iteration"

    @settings(max_examples=40, deadline=None)
    @given(mask_unions())
    @example(tc_dominant_set(3).words())
    @example(tc_dominant_set(5).words())
    @example([w for w in tc_dominant_set(3).words()  # a 3-cycle of masks
              if w.count("T") + w.count("C") == 2])
    def test_bracket_contains_dense_root(self, words):
        assume(words)
        s = GeneratingSet.from_words(words)
        assert mask_quotient(s) is not None
        rep = rate_of_set(s)
        dense = dense_spectral_radius(adjacency_matrix(build_digraph(s)))
        assert rep.converged
        if rep.method == "mask-quotient":
            lo, hi = rep.bracket
            # LAPACK's root has rounding of its own: it read 2 + 4.4e-15
            # for the weight-2 masks at m=3, whose root is exactly 2
            assert lo * (1 - 1e-12) <= dense <= hi * (1 + 1e-12)
            assert hi - lo <= 1e-10 * lo
        else:
            assert rep.method == "power-iteration" and rep.bracket is None
            assert rep.spectral_radius == pytest.approx(dense, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words(), st.integers(0, 2 ** 32 - 1))
    @example(WORKED_SET.words(), 0)  # the unwidened ends miss the exact ones
    def test_perron_bracket_holds_exact_ratios(self, words, seed):
        # Collatz-Wielandt holds for the exact ratios of any x > 0; the
        # margin must cover the rounding of the float ones, and no more
        g = build_digraph(GeneratingSet.from_words(words))
        rng = random.Random(seed)
        x = np.array([rng.uniform(0.1, 10.0) for _ in range(g.vertex_count)])
        lo, hi = perron_bracket(g, x)
        exact = exact_ratios(g, x)
        assert lo <= min(exact) and max(exact) <= hi
        assert min(exact) * (1 - Fraction(1, 10 ** 14)) <= lo
        assert hi <= max(exact) * (1 + Fraction(1, 10 ** 14))

    def test_perron_bracket_needs_positive_vector(self):
        g = build_digraph(WORKED_SET)
        assert perron_bracket(g, np.ones(6)) is not None
        assert perron_bracket(g, np.array([1.0, 1, 1, 0, 1, 1])) is None
        assert perron_bracket(g, np.array([1.0, 1, 1, 1e-320, 1, 1])) is None
        assert perron_bracket(g, np.ones(5)) is None

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_tc_dominant_certified(self, m):
        rep = rate_of_set(tc_dominant_set(m))
        assert rep.method == "mask-quotient" and rep.converged
        lo, hi = rep.bracket
        assert lo <= rep.spectral_radius <= hi
        assert hi - lo <= 1e-10 * lo
        assert rep.residual == pytest.approx((hi - lo) / rep.spectral_radius)
        assert rep.rate_bits_per_nt == math.log2(rep.spectral_radius)
        assert set(rep.to_dict()) == {
            "m", "vertex_count", "arc_count", "spectral_radius",
            "rate_bits_per_nt", "method", "residual", "iterations"}
        # the binary digraph's power iteration lands inside, within its residual
        binary = binary_reduction_rate(m)
        slack = binary.residual * binary.spectral_radius
        assert lo - slack <= binary.spectral_radius <= hi + slack

    def test_power_iteration_inside_bracket(self):
        # keeps the iterative path on a quaternary TC-dominant digraph covered
        s = tc_dominant_set(9)
        lo, hi = rate_of_set(s).bracket
        plain = spectral_radius(build_digraph(s), tol=1e-8)
        assert plain.method == "power-iteration" and plain.converged
        slack = plain.residual * plain.spectral_radius
        assert lo - slack <= plain.spectral_radius <= hi + slack

    def test_reducible_quotient_certified(self):
        # two of the m6-stage set's 28 kept masks lie on no cycle of its
        # quotient; the one cyclic component, 26 masks, is bracketed alone
        s = heuristic_set_m6_stage()
        quotient = mask_quotient(s)
        assert quotient.vertex_count == 28
        assert [len(c) for c in quotient.cyclic_components()] == [26]
        rep = rate_of_set(s)
        assert rep.method == "mask-quotient" and rep.converged
        lo, hi = rep.bracket
        dense = dense_spectral_radius(adjacency_matrix(build_digraph(s)))
        assert lo * (1 - 1e-12) <= dense <= hi * (1 + 1e-12)
        assert hi - lo <= 1e-10 * lo
        assert rep.vertex_count == len(s)
        assert rep.arc_count == build_digraph(s).arc_count

    def test_m6_stage_rate_is_m5_rate(self):
        # the m6-stage set's cyclic masks are the 6-masks whose two
        # 5-windows are both TC-dominant, so its root is m=5's: the two
        # certified brackets overlap
        lo6, hi6 = rate_of_set(heuristic_set_m6_stage()).bracket
        lo5, hi5 = rate_of_set(tc_dominant_set(5)).bracket
        assert lo6 <= hi5 and lo5 <= hi6

    @pytest.mark.parametrize("words, sizes, binary_roots", [
        (TWO_ROOTS_M5, [5, 6], [1.0, 1.3247179572]),
        (LARGER_LOWER_M6, [7, 11], [1.1347241384, 1.2851990332]),
    ], ids=["m5", "m6"])
    def test_pinned_reducible_unions(self, words, sizes, binary_roots):
        # the unions the bracket test pins: RC-free, with two cyclic
        # components of the stated sizes and binary roots each
        s = GeneratingSet.from_words(words)
        s.require_valid()
        quotient = mask_quotient(s)
        cyclic = quotient.cyclic_components()
        assert sorted(map(len, cyclic)) == sizes
        adj = adjacency_matrix(quotient)
        roots = sorted(dense_spectral_radius(adj[np.ix_(c, c)]) for c in cyclic)
        assert roots == pytest.approx(binary_roots, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(mask_unions())
    @example(TWO_ROOTS_M5)  # roots 2 and 2.649435914
    @example(LARGER_LOWER_M6)  # the larger component has the lower root
    def test_reducible_bracket_contains_dense_root(self, words):
        # a quotient with a cycle that is not strongly connected: each
        # cyclic component is bracketed on its own masks
        assume(words)
        s = GeneratingSet.from_words(words)
        cyclic = mask_quotient(s).cyclic_components()
        assume(cyclic and [len(c) for c in cyclic] != [len(s.mask_classes)])
        rep = rate_of_set(s)
        assert rep.method == "mask-quotient" and rep.converged
        lo, hi = rep.bracket
        dense = dense_spectral_radius(adjacency_matrix(build_digraph(s)))
        assert lo * (1 - 1e-12) <= dense <= hi * (1 + 1e-12)
        assert hi - lo <= 1e-10 * lo

    @pytest.mark.parametrize("m", range(2, 10))
    def test_quotient_arc_count_tc_dominant(self, m):
        s = tc_dominant_set(m)
        rep = rate_of_set(s)
        assert rep.method == "mask-quotient"
        assert rep.arc_count == build_digraph(s).arc_count
        if m <= 5:
            assert rep.arc_count == naive_arc_count(s.codes.tolist(), m)

    @settings(max_examples=40, deadline=None)
    @given(mask_unions())
    @example([w for w in tc_dominant_set(3).words()  # a 3-cycle of masks
              if w.count("T") + w.count("C") == 2])
    def test_quotient_arc_count_unions(self, words):
        # every union whose quotient has a cycle is certified, reducible or
        # not, and counts the arcs of the masks on no cycle too
        assume(words)
        s = GeneratingSet.from_words(words)
        assume(mask_quotient(s).cyclic_components())
        rep = rate_of_set(s)
        assert rep.method == "mask-quotient"
        assert rep.arc_count == build_digraph(s).arc_count
        assert rep.arc_count == naive_arc_count(s.codes.tolist(), s.m)

    @pytest.mark.parametrize("build", [
        lambda: tc_dominant_set(7),
        heuristic_set_m6_stage,
        *(pytest.param(functools.partial(tc_dominant_set, m), id=f"tc_dominant_set-{m}")
          for m in range(2, 7)),
        *(pytest.param(functools.partial(random_union, seed), id=f"random_union-{seed}")
          for seed in range(6)),
    ])
    def test_masks_computed_once(self, monkeypatch, build):
        # the builder hands its kept masks to the set, so the mask pass
        # makes no tc_masks call; a from_codes copy finds the same masks in
        # one pass over its codes, a block at a time, whoever reads first
        from ssacode import gensets
        self.same_as_from_codes(build(), GeneratingSet.from_codes(build().m, build().codes))
        calls = []

        def counted(codes, m):
            calls.append(codes)
            return tc_masks(codes, m)

        s = build()
        found = GeneratingSet.from_codes(s.m, s.codes)
        monkeypatch.setattr(gensets, "tc_masks", counted)
        passes = []
        for t in (s, found):
            calls.clear()
            kept = t.mask_classes
            assert validate(t).valid
            rate_of_set(t)
            assert mask_quotient(t).vertex_count == len(kept)
            count_constrained(t, t.m + 2)
            assert t.mask_classes is kept
            passes.append(list(calls))
        assert passes[0] == []
        assert np.array_equal(found.mask_classes, s.mask_classes)
        # views of the copy's codes whose lengths sum to |S|, each word read once
        assert all(np.shares_memory(block, found.codes) for block in passes[1])
        assert np.array_equal(np.concatenate(passes[1]), found.codes)

    @staticmethod
    def same_as_from_codes(s, found):
        # a union made from its keep table holds no codes until they are
        # read, and answers as its from_codes copy does: size, membership,
        # validation, rate and counts from the masks, with no word read
        # when the rate is certified, then the same codes, words and codec
        from ssacode import codec
        m = s.m
        assert "codes" not in vars(s) and "codes" in vars(found)
        assert len(s) == len(found)
        rng = random.Random(len(s))
        probes = ["".join(rng.choice("ACGT") for _ in range(m)) for _ in range(200)]
        probes += [*found.words()[:3], "N" * m, "T" * (m + 1), "t" * m]
        assert [w in s for w in probes] == [w in found for w in probes]
        assert validate(s) == validate(found)
        rep, want = rate_of_set(s), rate_of_set(found)
        assert rep.to_dict() == want.to_dict() and rep.bracket == want.bracket
        lengths = (m, m + 1, m + 5)
        assert ([count_constrained(s, n) for n in lengths]
                == [count_constrained(found, n) for n in lengths])
        assert ("codes" in vars(s)) == (rep.method == "power-iteration")
        assert s.codes.tobytes() == found.codes.tobytes() and not s.codes.flags.writeable
        assert s.words() == found.words() and s == found and hash(s) == hash(found)
        t, u = codec.build_codec(s, m + 3), codec.build_codec(found, m + 3)
        assert t.total == u.total
        for i in ({0, t.total // 3, t.total - 1} if t.total else ()):  # none with no cycle
            x = codec.encode(t, i)
            assert x == codec.encode(u, i) and codec.decode(t, x) == i

    def test_certificate_is_taken_on_the_full_operator(self, monkeypatch):
        # a wrong quotient (all 32 masks) gives a Perron vector that is not
        # one of the full digraph; the bracket on the 4^m operator is then
        # wide, and the rate falls back to power iteration
        from ssacode import capacity
        s = tc_dominant_set(5)
        wrong = TransitionDigraph(m=5, codes=spread(np.arange(32)))
        monkeypatch.setattr(capacity, "mask_quotient", lambda t: wrong)
        rep = rate_of_set(s)
        assert rep.method == "power-iteration"
        assert rep.to_dict() == spectral_radius(build_digraph(s)).to_dict()

    @pytest.mark.parametrize("build, method", [
        (lambda: tc_dominant_set(5), "mask-quotient"),  # certified union
        (heuristic_set_m6_stage, "mask-quotient"),  # reducible quotient
        (heuristic_set_m4, "power-iteration"),  # no union
    ])
    def test_validated_once_digraph_only_on_fallback(self, monkeypatch, build, method):
        from ssacode import capacity, gensets
        s = build()
        validated, built, sizes = [], [], []
        validate_ = gensets.validate
        build_digraph_ = capacity.build_digraph
        post_init = capacity.TransitionDigraph.__post_init__

        def counted_validate(t):
            validated.append(t)
            return validate_(t)

        def counted_build(t):
            built.append(t)
            return build_digraph_(t)

        def counted_post_init(g):
            post_init(g)
            sizes.append(g.vertex_count)

        monkeypatch.setattr(gensets, "validate", counted_validate)
        monkeypatch.setattr(capacity, "build_digraph", counted_build)
        monkeypatch.setattr(capacity.TransitionDigraph, "__post_init__", counted_post_init)
        assert rate_of_set(s).method == method
        assert len(validated) == 1 and validated[0] is s
        if method == "mask-quotient":
            # only the quotient, on at most the 2^m {A, C} words
            assert built == [] and sizes and max(sizes) <= 2 ** s.m
        else:
            assert len(built) == 1 and built[0] is s

    def test_invalid_union_raises(self):
        # the all-words set is one union of every class and not RC-free
        s = GeneratingSet.from_codes(3, np.arange(64))
        assert mask_quotient(s) is not None
        with pytest.raises(InvalidGeneratingSetError):
            rate_of_set(s)

    @settings(max_examples=40, deadline=None)
    @given(mask_unions(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([None, 0.0, 5e-324, 1e-310]), st.booleans())
    @example(tc_dominant_set(3).words(), 0, None, False)  # dense
    @example(tc_dominant_set(3).words(), 0, None, True)  # 101 -> 010, not kept
    @example(ONE_CLASS, 0, None, False)  # sparse
    @example(ONE_CLASS, 0, 5e-324, True)
    def test_lifted_bracket_is_perron_bracket(self, words, seed, bad, stray):
        # a zero or subnormal entry at a kept mask turns both away; with
        # stray, every mask that is not kept holds a value too, as a wrong
        # quotient's vector leaves it, and the bracket must not read it
        from ssacode import capacity
        assume(words)
        s = GeneratingSet.from_words(words)
        kept, masks = s.mask_classes, tc_masks(s.codes, s.m)
        rng = random.Random(seed)
        by_mask = np.zeros(2 ** s.m)
        if stray:
            by_mask[:] = [rng.uniform(0.1, 10.0) for _ in by_mask]
        by_mask[kept] = [rng.uniform(0.1, 10.0) for _ in kept]
        if bad is not None:
            by_mask[rng.choice(kept.tolist())] = bad
        expected = perron_bracket(build_digraph(s), by_mask[masks])
        assert (expected is None) == (bad is not None)
        assert capacity._lifted_bracket(s.m, kept, by_mask) == expected

    @pytest.mark.parametrize("m", range(2, 12))
    def test_lifted_bracket_tc_dominant(self, m):
        # the word-level product on the built 4^m digraph, to the bit
        from ssacode import capacity
        s = tc_dominant_set(m)
        kept, masks = s.mask_classes, tc_masks(s.codes, m)
        by_mask = np.zeros(2 ** m)
        by_mask[kept] = np.random.default_rng(m).uniform(0.1, 10.0, len(kept))
        expected = perron_bracket(build_digraph(s), by_mask[masks])
        assert capacity._lifted_bracket(m, kept, by_mask) == expected

    @pytest.mark.memory
    def test_certified_rate_in_little_memory(self):
        # the digraph's two bin arrays, the lifted vector, the product and
        # the ratios would each take 16 MB at m=11; on the masks the
        # certificate holds a few arrays of 2^11 entries.  A first call
        # finds the kept masks.
        s = tc_dominant_set(11)
        assert rate_of_set(s).method == "mask-quotient"
        tracemalloc.start()
        try:
            rep = rate_of_set(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "mask-quotient"
        assert peak < 2 ** 20

    @pytest.mark.memory
    @pytest.mark.parametrize("copied", [False, True], ids=["builder", "from_codes"])
    def test_first_certified_rate_in_little_memory(self, copied):
        # the builder hands the set its kept masks, 8 KiB at m=11; in a
        # from_codes copy the first call finds them a block of words at a
        # time and keeps only them, not each word's int32 mask (8 MiB);
        # numpy.ma, which np.unique and np.intersect1d import on first use,
        # is imported before, so its modules are not counted
        import numpy.ma  # noqa: F401
        s = tc_dominant_set(11)
        if copied:
            s = GeneratingSet.from_codes(11, s.codes)
        tracemalloc.start()
        try:
            rep = rate_of_set(s)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "mask-quotient"
        assert retained < 64 * 2 ** 10
        assert peak < 2 * 2 ** 20


class TestCountConstrained:
    def test_examples(self):
        assert count_constrained(tc_dominant_set(3), 3) == 32
        assert count_constrained(tc_dominant_set(3), 4) == 96
        assert count_constrained(WORKED_SET, 2) == 6

    def test_count_at_n_equals_size(self, rng):
        for m in (2, 3):
            s = random_valid_set(rng, m)
            assert count_constrained(s, m) == len(s)

    def test_matches_enumeration(self, rng):
        for m in (2, 3):
            for _ in range(5):
                s = random_valid_set(rng, m, drop_rate=rng.choice([0.0, 0.3]))
                for n in range(m, 8):
                    assert count_constrained(s, n) == ref_count_constrained(
                        s.words(), m, n)

    def test_growth_approaches_rate(self):
        for s in (WORKED_SET, tc_dominant_set(3)):
            rate = rate_of_set(s).rate_bits_per_nt
            c60 = count_constrained(s, 60)
            c61 = count_constrained(s, 61)
            assert math.log2(c61 / c60) == pytest.approx(rate, abs=1e-3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            count_constrained(WORKED_SET, 1)

    def test_small_n_rejected_before_the_digraph(self, monkeypatch):
        from ssacode import capacity
        calls = []
        real = capacity.build_digraph
        monkeypatch.setattr(capacity, "build_digraph",
                            lambda s: calls.append(s) or real(s))
        # AT is its own reverse complement: validating this set would fail
        with pytest.raises(ValueError, match="^n=1 is smaller than the word length m=2$"):
            count_constrained(GeneratingSet.from_words(["AT"]), 1)
        assert calls == []
        assert count_constrained(WORKED_SET, 2) == 6
        assert calls == [WORKED_SET]

    @settings(max_examples=40, deadline=None)
    @given(keep_tables(ms=range(2, 7)))
    @example(np.array([2 * bin(a).count("1") > 5 for a in range(32)]))
    @example(np.ones(64, dtype=bool))  # every mask: only {A, C}^6's pairs go
    def test_mask_union_count_against_word_dp(self, keep):
        # drop each kept mask whose reverse complement's mask is kept and not
        # above it (a self-paired mask too): an RC-free union remains
        m = len(keep).bit_length() - 1
        masks = np.arange(2 ** m)
        partner = rc_masks(masks, m)
        keep = keep & ~(keep[partner] & (masks >= partner))
        assume(keep.any())
        s = GeneratingSet.from_codes(m, np.flatnonzero(tc_mask_members(m, keep)))
        assert s.mask_classes is not None
        word_dp = SiblingTrie(TransitionDigraph(m=m, codes=s.codes)).walk(2 * m)
        for n, (row, _) in enumerate(word_dp, start=m):
            assert count_constrained(s, n) == sum(row)

    @pytest.mark.parametrize("s", [tc_dominant_set(3), tc_dominant_set(5),
                                   heuristic_set_m6_stage()],
                             ids=["tc-dominant-3", "tc-dominant-5", "m6-stage"])
    def test_mask_union_counted_on_the_quotient(self, s, monkeypatch):
        from ssacode import capacity
        monkeypatch.setattr(capacity, "build_digraph", None)  # never called
        for n in (s.m, s.m + 1, 12, 20):
            (row, _), = deque(SiblingTrie(TransitionDigraph(m=s.m, codes=s.codes))
                              .walk(n - s.m), maxlen=1)
            assert count_constrained(s, n) == sum(row)

    def test_union_budget_charged_on_the_quotient(self, monkeypatch):
        # 33 rows of the 1,024 kept masks; the 2,097,152 words would need
        # 33 rows of 2^21 counts, past the default budget of 4^13
        monkeypatch.delenv("SSA_BUDGET", raising=False)
        m, n = 11, 43
        kept = [2 * bin(a).count("1") > m for a in range(2 ** m)]
        # binary strings by last m-window, one symbol at a time
        binary = [int(k) for k in kept]
        for _ in range(n - m):
            binary = [binary[a >> 1] + binary[a >> 1 | 2 ** (m - 1)] if kept[a] else 0
                      for a in range(2 ** m)]
        assert count_constrained(tc_dominant_set(m), n) == 2 ** n * sum(binary)

    def test_mask_union_not_rc_free(self):
        # every TC mask of m=2: 01 and 10 are each other's reverse complement
        s = GeneratingSet.from_codes(2, np.arange(16))
        assert s.mask_classes is not None
        with pytest.raises(InvalidGeneratingSetError):
            count_constrained(s, 4)


class TestBinaryReduction:
    def test_reference_values(self):
        assert binary_reduction_rate(3).rate_bits_per_nt == pytest.approx(1.5514, abs=1e-3)
        assert binary_reduction_rate(5).rate_bits_per_nt == pytest.approx(1.6980, abs=1e-3)
        assert binary_reduction_rate(7).rate_bits_per_nt == pytest.approx(1.7698, abs=1e-3)

    def test_agrees_with_quaternary_digraph(self):
        for m in (3, 5, 7):
            quaternary = rate_of_set(tc_dominant_set(m)).rate_bits_per_nt
            binary = binary_reduction_rate(m).rate_bits_per_nt
            assert binary == pytest.approx(quaternary, abs=1e-6)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_digraph_is_binary_window_digraph(self, monkeypatch, m):
        from ssacode import capacity
        digraphs = []
        real = capacity.spectral_radius
        monkeypatch.setattr(capacity, "spectral_radius",
                            lambda g: digraphs.append(g) or real(g))
        rep = binary_reduction_rate(m)
        g, = digraphs
        keep = [2 * bin(a).count("1") > m for a in range(2 ** m)]
        assert codes_to_words(g.codes, m) == [ac_word(a, m) for a in range(2 ** m) if keep[a]]
        want = ref_binary_window_digraph(keep)
        assert adjacency_matrix(g).tolist() == want.tolist()
        assert (rep.vertex_count, rep.arc_count) == (len(want), want.sum())
        assert rep.spectral_radius == pytest.approx(2 * dense_spectral_radius(want), rel=1e-9)

    def test_report_method(self):
        rep = binary_reduction_rate(3)
        assert rep.method == "binary-reduction"
        assert rep.rate_bits_per_nt == pytest.approx(
            math.log2(rep.spectral_radius), abs=1e-12)


class TestEveryBracket:
    """Every report with a cycle carries a bracket that holds the dense
    root, at most tol wide when it converged; each component's bracket
    holds the exact Collatz-Wielandt ratios of the vector it was taken on."""

    @staticmethod
    def check(rep, dense, tol):
        lo, hi = rep.bracket
        # LAPACK's root has rounding of its own, a few eps
        assert lo * (1 - 1e-12) <= dense <= hi * (1 + 1e-12)
        assert rep.converged and hi - lo <= tol * lo
        assert rep.spectral_radius == (lo + hi) / 2
        assert rep.residual == (hi - lo) / rep.spectral_radius

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words(), st.sampled_from([1e-6, 1e-10, MIN_TOL]))
    @example(TWO_EQUAL_CYCLES, 1e-10)
    @example(BRIDGED_SELF_LOOPS, 1e-10)
    @example(NO_CYCLE, 1e-10)
    @example(CHAINED_UNIT_CYCLES, 1e-10)
    @example(TWO_ROOTS_M5, 1e-10)  # component roots 2 and 2.649435914
    @example(LARGER_LOWER_M6, 1e-10)  # the larger component has the lower root
    def test_spectral_radius(self, words, tol):
        from ssacode import capacity
        g = build_digraph(GeneratingSet.from_words(words))
        rep = spectral_radius(g, tol=tol)
        dense = dense_spectral_radius(adjacency_matrix(g))
        if dense == 0:
            assert rep.bracket is None and not g.cyclic_components()
            return
        self.check(rep, dense, tol)
        for sub, (lo, hi, _, x) in capacity._cyclic_powers(g, tol, 0.0):
            exact = exact_ratios(sub, x)
            assert lo <= min(exact) and max(exact) <= hi

    @pytest.mark.parametrize("m", range(2, 10))
    def test_binary_reduction_rate(self, m):
        keep = [2 * bin(a).count("1") > m for a in range(2 ** m)]
        dense = 2 * dense_spectral_radius(ref_binary_window_digraph(keep))
        self.check(binary_reduction_rate(m), dense, DEFAULT_TOL)


# Rates of the guard below, printed as float.hex by a fresh process.
_SAME_BITS_SCRIPT = """
from ssacode import heuristic_set_m4, heuristic_set_m6_stage, rate_of_set
from ssacode.search import greedy_tc_choice, local_search
result = local_search(6, 6, 5, seed=0)
reports = [rate_of_set(heuristic_set_m4()), rate_of_set(heuristic_set_m6_stage()),
           rate_of_set(greedy_tc_choice(8)), result.report]
values = [result.best_rate]
for r in reports:
    values += [r.spectral_radius, r.rate_bits_per_nt, r.residual, *(r.bracket or ())]
print(" ".join(float(v).hex() for v in values), [r.iterations for r in reports])
"""


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the OpenBLAS core types named are x86-64 ones")
def test_same_bits_on_every_blas_kernel_and_thread_count():
    # numpy's OpenBLAS picks a kernel for the CPU, and each sums a dot in
    # its own order, split across threads above about 10,000 entries; no
    # rate goes through it.  Prescott and Nehalem run on any x86-64 CPU
    # (a kernel the CPU lacks would die on an illegal instruction), and
    # greedy m=8 has 32,640 words.
    outputs = set()
    for core, threads in itertools.product(("Prescott", "Nehalem"), ("1", "2")):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SAME_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


class TestRecurrences:
    def test_f3_base_and_examples(self):
        assert [recurrence_counts(F3, n) for n in (1, 2, 3)] == [2, 4, 4]
        assert recurrence_counts(F3, 4) == 6

    def test_baseline_examples(self):
        assert [recurrence_counts(COMPOSITION_BASELINE, n) for n in (1, 2, 3)] == [3, 9, 19]
        assert recurrence_counts(COMPOSITION_BASELINE, 4) == 49  # 19 + 2*9 + 4*3

    def test_f3_matches_brute_force(self):
        for n in range(1, 21):
            assert recurrence_counts(F3, n) == ref_good_binary_count(n, 3, 2)

    def test_f5_matches_brute_force(self):
        for n in range(1, 21):
            assert recurrence_counts(F5, n) == ref_good_binary_count(n, 5, 3)

    def test_baseline_recurrence_growth(self):
        # ratio approaches the largest characteristic root
        a, b = recurrence_counts(COMPOSITION_BASELINE, 40), recurrence_counts(COMPOSITION_BASELINE, 41)
        assert b / a == pytest.approx(2.4675, abs=1e-3)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            recurrence_counts(F3, 0)


class TestLargestRealRoot:
    def test_reference_roots(self):
        assert largest_real_root([1, -1, 0, -1]) == pytest.approx(1.4656, abs=1e-3)
        assert largest_real_root([1, -1, -2, -4]) == pytest.approx(2.4675, abs=1e-3)
        assert largest_real_root([1, -1, 0, -1, 0, -2, 0, 0, 1, 0, 1]) == pytest.approx(
            1.6222, abs=1e-3)

    def test_tolerance(self):
        # root of x^2 - 2 to 1e-9
        assert largest_real_root([1, 0, -2]) == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_picks_largest(self):
        # (x-1)(x-3) = x^2 - 4x + 3
        assert largest_real_root([1, -4, 3]) == pytest.approx(3.0, abs=1e-8)

    def test_no_root_raises(self):
        with pytest.raises(ValueError):
            largest_real_root([1, 0, 1])  # x^2 + 1 has no real root

    def test_root_vs_spectral_two_paths(self):
        root_rate = 1.0 + math.log2(largest_real_root([1, -1, 0, -1]))
        digraph_rate = rate_of_set(tc_dominant_set(3)).rate_bits_per_nt
        assert root_rate == pytest.approx(digraph_rate, abs=1e-6)

    def test_exact_to_rounding(self):
        assert largest_real_root([1, -4, 3]) == 3.0
        assert largest_real_root([1, -2, 1]) == 1.0  # a double root
        assert largest_real_root([2, -4, 2, 0]) == 1.0
        assert type(largest_real_root([1, 0, -2])) is float

    def test_repeated_largest_root_exact(self):
        assert largest_real_root([1, -9, 27, -27]) == 3.0  # (x - 3)^3
        assert largest_real_root([1, -3, 3, -1]) == 1.0  # (x - 1)^3
        assert largest_real_root([1, -6, 12, -8, 0]) == 2.0  # x (x - 2)^3

    # a subnormal leading coefficient overflows np.roots' division by it
    @pytest.mark.parametrize("coeffs", [[], [0, 1, -1], [1, math.nan], [1, -math.inf, 2],
                                        [5e-324, 1.0, -1.0], [1e-310, 1e6, -1.0, 2.0]])
    def test_bad_coefficients(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ValueError) as refused:
                largest_real_root(coeffs)
        assert refused.type is ValueError  # not numpy's LinAlgError, a subclass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8, unique=True))
    def test_roots_of_a_product(self, roots):
        # the monic polynomial with these distinct integer roots
        coeffs = [1]
        for r in roots:
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        if max(roots) >= 0:
            assert largest_real_root(coeffs) == pytest.approx(max(roots), abs=1e-9)
        else:
            with pytest.raises(ValueError, match="no nonnegative real root"):
                largest_real_root(coeffs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), min_size=1,
                    max_size=10, unique_by=lambda pair: pair[0]))
    @example([(3, 3)])
    @example([(-2, 3), (-1, 1)])
    def test_roots_with_multiplicities(self, pairs):
        # the monic polynomial with these integer roots, each with its
        # multiplicity, cut to degree 10
        roots = [r for r, k in pairs for _ in range(k)][:10]
        coeffs = [1]
        for r in roots:
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        if max(roots) >= 0:
            assert largest_real_root(coeffs) == pytest.approx(max(roots), abs=1e-9)
        else:
            with pytest.raises(ValueError, match="no nonnegative real root"):
                largest_real_root(coeffs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)),
                    min_size=1, max_size=4, unique=True))
    def test_complex_roots_only(self, pairs):
        # a product of (x - a)^2 + b^2 with b >= 1: roots a +- bi only
        coeffs = [1]
        for a, b in pairs:
            quad = [1, -2 * a, a * a + b * b]
            coeffs = [sum(coeffs[i] * quad[k - i] for i in range(len(coeffs))
                          if 0 <= k - i < 3) for k in range(len(coeffs) + 2)]
        with pytest.raises(ValueError, match="no nonnegative real root"):
            largest_real_root(coeffs)

    @pytest.mark.parametrize("spec", [F3, F5, COMPOSITION_BASELINE],
                             ids=["F3", "F5", "composition"])
    def test_characteristic_root_is_growth(self, spec):
        # f(n) = sum of coef * f(n - lag) grows as the largest root of
        # x^L - sum of coef * x^(L - lag), L the largest lag
        degree = max(lag for lag, _ in spec.taps)
        coeffs = [1] + [0] * degree
        for lag, coef in spec.taps:
            coeffs[lag] -= coef
        growth = recurrence_counts(spec, 201) / recurrence_counts(spec, 200)
        assert largest_real_root(coeffs) == pytest.approx(growth, abs=1e-9)


class TestBadTolerance:
    """A tol that is not finite with 1e-13 <= tol < 1 is refused before
    any power step."""

    @pytest.fixture
    def steps(self, monkeypatch):
        from ssacode import capacity
        calls = []
        real = capacity._shifted_power
        monkeypatch.setattr(capacity, "_shifted_power",
                            lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf, 1.0, 2.0,
                                     1e-14, 1e-300])
    def test_refused(self, steps, tol):
        for rate in (lambda: rate_of_set(tc_dominant_set(3), tol=tol),
                     lambda: rate_of_set(heuristic_set_m4(), tol=tol),
                     lambda: spectral_radius(build_digraph(WORKED_SET), tol=tol)):
            with pytest.raises(ValueError, match="^tol must be finite with 1e-13 <= tol < 1"):
                rate()
        assert steps == []

    def test_wide_tol_runs(self, steps):
        rep = rate_of_set(tc_dominant_set(3), tol=0.5)
        assert rep.converged and steps

    def test_floor_accepted(self):
        assert MIN_TOL == 1e-13
        for s, method in ((tc_dominant_set(5), "mask-quotient"),
                          (heuristic_set_m4(), "power-iteration")):
            rep = rate_of_set(s, tol=MIN_TOL)
            assert rep.converged and rep.method == method
        assert spectral_radius(build_digraph(WORKED_SET), tol=MIN_TOL).converged


class TestBounds:
    def test_trivial_upper_bound(self):
        assert trivial_upper_bound(2) == pytest.approx(1.5)
        assert round(trivial_upper_bound(3), 2) == 1.67
        assert trivial_upper_bound(4) == pytest.approx(1.75)

    def test_block_concat(self):
        assert baseline_block_concat_rate() == pytest.approx(1.1609, abs=1e-4)
        assert block_concat_count(4) == 25
        assert block_concat_count(2) == 5
        with pytest.raises(ValueError):
            block_concat_count(3)

    def test_block_concat_set_is_valid(self):
        from ssacode import validate
        assert validate(GeneratingSet.from_words(BLOCK_CONCAT_WORDS)).valid

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssacode import (
    F3,
    F5,
    COMPOSITION_BASELINE,
    GeneratingSet,
    TransitionDigraph,
    baseline_block_concat_rate,
    binary_reduction_rate,
    block_concat_count,
    build_digraph,
    count_constrained,
    largest_real_root,
    rate_of_set,
    recurrence_counts,
    spectral_radius,
    tc_dominant_set,
    trivial_upper_bound,
)
from ssacode.capacity import BLOCK_CONCAT_WORDS
from conftest import (
    dense_spectral_radius,
    dense_strong_components,
    random_valid_set,
    rc_free_words,
    ref_count_constrained,
    ref_good_binary_count,
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
CHAINED_UNIT_CYCLES = [
    "AAGA", "ACAG", "AGAC", "CAGA", "CGCT", "CGTT", "CTTG", "GAAG", "GACA",
    "GCTT", "GGCT", "GTTC", "TCGC", "TCGT", "TGAA", "TGCT", "TTCG", "TTGA",
    "TTGC"]


class TestDigraph:
    def test_worked_example_counts(self):
        g = build_digraph(WORKED_SET)
        assert g.vertex_count == 6
        assert g.arc_count == 14

    def test_individual_arcs(self):
        # the digraph's vertices are the set's codes, in the set's order
        A = build_digraph(WORKED_SET).adjacency_matrix()
        vertex = WORKED_SET.words().index
        assert A[vertex("TT"), vertex("TC")]
        assert not A[vertex("TC"), vertex("TT")]

    def test_adjacency_matrix_matches_worked_example(self):
        g = build_digraph(WORKED_SET)
        order = ["TT", "TC", "TG", "GT", "CT", "CC"]
        vertex_words = WORKED_SET.words()
        perm = [vertex_words.index(w) for w in order]
        A = g.adjacency_matrix()[np.ix_(perm, perm)]
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


def naive_arc_count(vertices, m, q):
    return sum(u % q ** (m - 1) == v // q for u in vertices for v in vertices)


class TestDigraphVertexDedup:
    @given(st.sampled_from([2, 4]).flatmap(lambda q: st.integers(2, 6).flatmap(
        lambda m: st.tuples(st.just(q), st.just(m),
                            st.lists(st.integers(0, q ** m - 1), max_size=60)))))
    @example((4, 3, []))
    @example((2, 3, [7, 3, 7, 0, 3]))
    def test_unsorted_input_gives_sorted_unique_vertices(self, case):
        q, m, codes = case
        want = sorted(set(codes))
        for given_codes in (codes, np.array(codes, dtype=np.int64)):
            g = TransitionDigraph(m=m, codes=given_codes, q=q)
            assert g.codes.dtype == np.int64
            assert g.codes.tolist() == want
            assert g.vertex_count == len(want)
            assert g.arc_count == naive_arc_count(want, m, q)


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
        dense = dense_spectral_radius(g.adjacency_matrix())
        rep = spectral_radius(g)
        assert rep.converged
        assert rep.spectral_radius == pytest.approx(dense, abs=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(rc_free_words())
    @example(TWO_EQUAL_CYCLES)
    @example(BRIDGED_SELF_LOOPS)
    @example(NO_CYCLE)
    @example(CHAINED_UNIT_CYCLES)
    def test_cyclic_components_match_dense_scc(self, words):
        g = build_digraph(GeneratingSet.from_words(words))
        adj = g.adjacency_matrix()
        want = {tuple(idx.tolist()) for idx in dense_strong_components(adj)
                if len(idx) > 1 or adj[idx[0], idx[0]]}
        got = g.cyclic_components()
        assert all((np.diff(idx) > 0).all() for idx in got)
        assert {tuple(idx.tolist()) for idx in got} == want
        assert len(got) == len(want)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_radius(build_digraph(WORKED_SET), tol=0.0)

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

    def test_report_method(self):
        rep = binary_reduction_rate(3)
        assert rep.method == "binary-reduction"
        assert rep.rate_bits_per_nt == pytest.approx(
            math.log2(rep.spectral_radius), abs=1e-12)


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

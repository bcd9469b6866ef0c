"""Search for good generating sets: exhaustive for tiny m, local search beyond.

Both searches range over maximal sets only (one word per RC pair): the rate
of C_n(S) is monotone in S, so a non-maximal optimum can always be extended
to a maximal one without losing rate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .capacity import DEFAULT_TOL, CapacityReport, check_tol, rate_of_set
from .gensets import GeneratingSet
from .sequences import (check_budget, check_stem, mask_weights, rc_pairs, symmetry_images,
                        tc_masks)

LOCAL_TOL = 1e-8  # local search rates its candidates at this tolerance
_PLATEAU_LIMIT = 25  # sideways moves in a row that local search allows
_RATE_EPS = 1e-9


@dataclass(frozen=True)
class SearchResult:
    """The best set found; ``best_rate`` is read from ``report``, which was
    computed at tolerance ``tol``.

    ``candidates_examined`` counts the sets whose rate the search knows:
    all 2^(pairs) maximal sets for the exhaustive search, though it rates
    only one per symmetry orbit, and every rated state for local search.
    """

    best_set: GeneratingSet
    best_rate: float
    candidates_examined: int
    method: str
    report: CapacityReport
    tol: float
    seed: Optional[int] = None


def _rate(s: GeneratingSet, floor: Optional[float] = None) -> float:
    return rate_of_set(s, tol=LOCAL_TOL, floor=floor).rate_bits_per_nt


def _word_key(s: GeneratingSet) -> Tuple[int, ...]:
    # code order is the lexicographic order of equal-length words
    return tuple(s.codes.tolist())


def _beats(rate: float, s: GeneratingSet, best_rate: float, best) -> bool:
    """Whether ``s`` of ``rate`` replaces the best so far: a rate more than
    ``_RATE_EPS`` higher, or one within it and a smaller word set."""
    return rate > best_rate + _RATE_EPS or (
        abs(rate - best_rate) <= _RATE_EPS and _word_key(s) < _word_key(best))


def exhaustive_search(m: int, tol: float = DEFAULT_TOL) -> SearchResult:
    """Find the maximal RC-free set of best rate; practical only for m=2
    (64 sets).

    ``tol`` passes ``check_tol``, and the 2^(pairs) candidate sets the
    ``SSA_BUDGET`` guard, before any set is rated.  Ties on rate are broken
    by the lexicographically smallest word set.

    The 16 maps of ``sequences.symmetry_images`` permute the candidates and
    keep every rate, so each candidate's rate is that of its orbit's
    canonical member, the one whose sorted codes are lexicographically
    smallest, and only canonical members are rated (7 sets at m=2), in
    candidate order.  ``candidates_examined`` still counts all 2^(pairs)
    sets.  An orbit's members have one rate, so where ``rate_of_set``
    rates them all by the same method they tie, the tie break keeps the
    canonical member, and the winner and its report are those of rating
    every candidate; that is checked against the full enumeration at m=2.
    It can fail beyond: ``rate_of_set`` rates a union of TC-mask classes by
    the mask quotient and other sets by power iteration, the C<->G swap
    does not keep TC masks, and two members of one orbit rated by different
    methods agree only to about ``tol``, which can exceed ``_RATE_EPS``; the
    best set or ``report.method`` may then differ from rating every set.
    """
    check_tol(tol)
    a, b = rc_pairs(m)
    n_pairs = len(a)
    check_budget(2, f"2^{n_pairs} candidate sets", exp=n_pairs)
    best_rate = -1.0
    best_set = best_report = None
    for cand in _canonical_candidates(m, a, b):
        report = rate_of_set(cand, tol=tol)
        rate = report.rate_bits_per_nt
        if _beats(rate, cand, best_rate, best_set):
            best_rate, best_set, best_report = rate, cand, report
    return SearchResult(best_set=best_set, best_rate=best_rate,
                        candidates_examined=2 ** n_pairs, method="exhaustive",
                        report=best_report, tol=tol)


def _canonical_candidates(m: int, a: np.ndarray,
                          b: np.ndarray) -> Iterator[GeneratingSet]:
    """The maximal sets that are the canonical members of their orbits, in
    candidate order: candidate ``mask`` takes a[i] where bit i of ``mask``
    is set, else b[i].  The maps act word by word, so a candidate's images
    are picked from those of a and b.  One candidate is held at a time."""
    n_pairs = len(a)
    images_a, images_b = symmetry_images(a, m), symmetry_images(b, m)
    for mask in range(2 ** n_pairs):
        pick_a = np.array([(mask >> i) & 1 for i in range(n_pairs)], dtype=bool)
        images = np.sort(np.where(pick_a, images_a, images_b), axis=1)
        if min(map(tuple, images.tolist())) == tuple(images[0].tolist()):
            yield GeneratingSet.from_codes(m, images[0])  # image 0: the identity


def greedy_tc_choice(m: int) -> GeneratingSet:
    """Warm-start maximal set: from each RC pair keep the word with the larger
    TC weight, breaking ties toward centrally-placed T/C symbols (those words
    connect better to the TC-dominant core), then toward the smaller word."""
    a, b = rc_pairs(m)
    return GeneratingSet.from_codes(m, np.where(_greedy_bits(m, a, b), a, b))


def _centrality(masks: np.ndarray, m: int) -> np.ndarray:
    score = np.zeros_like(masks)
    for pos in range(m):  # T/C at position pos: bit m - 1 - pos of the mask
        score += (masks >> (m - 1 - pos) & 1) * min(pos + 1, m - pos)
    return score


def _greedy_bits(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ma, mb = tc_masks(a, m), tc_masks(b, m)
    weights = mask_weights(m)
    wa, wb = weights[ma], weights[mb]
    ca, cb = _centrality(ma, m), _centrality(mb, m)
    return (wa > wb) | ((wa == wb) & (ca > cb)) | ((wa == wb) & (ca == cb) & (a < b))


def local_search(m: int, restarts: int = 20, iterations: int = 200,
                 seed: int = 0, on_restart=None) -> SearchResult:
    """Seeded hill climbing over maximal sets; moves flip one RC pair's choice.

    The first restart starts from the greedy TC choice, the rest from random
    states.  Candidates are rated at ``LOCAL_TOL``.  Moves that do not
    decrease the rate are accepted; sideways moves are allowed for up to
    ``_PLATEAU_LIMIT`` consecutive steps.  A candidate's power iteration
    stops as soon as its bracket puts it below the current rate (the
    ``floor`` of ``rate_of_set``).  The bracket's upper end does not grow
    from step to step, so a candidate that is accepted is never stopped
    that way and gets the rate a full iteration gives it; every decision
    is the one the full iteration makes.  The winner is rated again at
    ``DEFAULT_TOL``.  Deterministic for fixed (m, restarts, iterations,
    seed).  A KeyboardInterrupt stops the search early and reports the best
    result found so far.  Needs ``restarts >= 1`` and ``iterations >= 0``.
    """
    check_stem(m)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    rng = random.Random(seed)
    a, b = rc_pairs(m)
    n_pairs = len(a)
    best_rate = -1.0
    best_set = None
    examined = 0
    try:
        for restart in range(restarts):
            if restart == 0:
                pick_a = _greedy_bits(m, a, b)
            else:
                # n_pairs calls of rng.random(), in order, as a list would make
                draws = itertools.starmap(rng.random, itertools.repeat((), n_pairs))
                pick_a = np.fromiter(draws, float, n_pairs) < 0.5
            state = GeneratingSet.from_codes(m, np.where(pick_a, a, b))
            cur = _rate(state)
            examined += 1
            plateau = 0
            for _ in range(iterations):
                idx = rng.randrange(n_pairs)
                pick_a[idx] = not pick_a[idx]
                cand = GeneratingSet.from_codes(m, np.where(pick_a, a, b))
                floor = cur - 1e-12
                rate = _rate(cand, floor)
                examined += 1
                if rate >= floor:
                    plateau = 0 if rate > cur + _RATE_EPS else plateau + 1
                    state, cur = cand, rate
                    if plateau > _PLATEAU_LIMIT:
                        break
                else:
                    pick_a[idx] = not pick_a[idx]  # revert
            if _beats(cur, state, best_rate, best_set):
                best_rate, best_set = cur, state
            if on_restart is not None:
                on_restart(restart, cur, best_rate)
    except KeyboardInterrupt:
        if best_set is None:
            raise
    report = rate_of_set(best_set, tol=DEFAULT_TOL)
    return SearchResult(best_set=best_set, best_rate=report.rate_bits_per_nt,
                        candidates_examined=examined, method="local",
                        report=report, tol=DEFAULT_TOL, seed=seed)

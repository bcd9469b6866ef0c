"""Bit-identity of the rate path against recorded values.

``golden_rates.json`` holds, as ``float.hex``, every ``CapacityReport``
field and bracket of the paper's sets, the binary-reduction rates and the
results of two searches.  A faster rate path must reproduce every value to
the bit.  Regenerate only for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ssacode import (
    binary_reduction_rate,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    rate_of_set,
    tc_dominant_set,
)
from ssacode.search import exhaustive_search, local_search

GOLDEN = Path(__file__).with_name("golden_rates.json")
LOCAL_SEEDS = (0, 4, 26)


def _float(x):
    return float(x).hex()


def _report(rep):
    return {
        "m": rep.m,
        "vertex_count": rep.vertex_count,
        "arc_count": rep.arc_count,
        "spectral_radius": _float(rep.spectral_radius),
        "rate_bits_per_nt": _float(rep.rate_bits_per_nt),
        "method": rep.method,
        "residual": _float(rep.residual),
        "iterations": rep.iterations,
        "converged": rep.converged,
        "bracket": None if rep.bracket is None else [_float(b) for b in rep.bracket],
    }


def _codes_digest(s):
    return hashlib.sha256(np.asarray(s.codes, dtype="<i8").tobytes()).hexdigest()


def _search(result):
    return {
        "m": result.best_set.m,
        "size": len(result.best_set),
        "codes_sha256": _codes_digest(result.best_set),
        "best_rate": _float(result.best_rate),
        "candidates_examined": result.candidates_examined,
        "report": _report(result.report),
    }


def _sets():
    sets = {f"tc-dominant-{m}": (lambda m=m: tc_dominant_set(m)) for m in range(3, 12)}
    sets["m4"] = heuristic_set_m4
    sets["m6-stage"] = heuristic_set_m6_stage
    return sets


def compute(name):
    """The recorded value named ``name``, computed by the current code."""
    kind, _, arg = name.partition(":")
    if kind == "rate_of_set":
        return _report(rate_of_set(_sets()[arg]()))
    if kind == "binary_reduction_rate":
        return _report(binary_reduction_rate(int(arg)))
    if kind == "exhaustive_search":
        return _search(exhaustive_search(int(arg)))
    if kind == "local_search":
        return _search(local_search(6, 6, 5, seed=int(arg)))
    raise KeyError(name)


NAMES = ([f"rate_of_set:{name}" for name in _sets()]
         + [f"binary_reduction_rate:{m}" for m in range(2, 12)]
         + ["exhaustive_search:2"]
         + [f"local_search:{seed}" for seed in LOCAL_SEEDS])


def test_golden_covers_every_name():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_bit_identical(name):
    assert compute(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: compute(name) for name in NAMES},
                                 indent=1, sort_keys=True) + "\n")

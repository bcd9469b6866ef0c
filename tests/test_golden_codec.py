"""Bit-identity of the codec against recorded codewords and ranks.

``golden_codec.json`` holds, for five sets, the sha256 of the codewords
that carry a fixed 8 kbit payload, the sha256 of their ranks, and 50
listed (index, codeword) pairs with the ranks of those codewords.  A
faster codec must reproduce every byte.  Regenerate only for an intended
change of results:

    PYTHONPATH=src python tests/test_golden_codec.py
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from ssacode import (
    GeneratingSet,
    build_codec,
    decode,
    encode,
    encode_payload,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    tc_dominant_set,
)
from ssacode.codec import bits_per_block

GOLDEN = Path(__file__).with_name("golden_codec.json")
PAYLOAD = format(random.Random(8192).getrandbits(8192), "02048X")
PAIRS = 50


def random_rc_free_m4():
    """A maximal RC-free m=4 set, one word of each pair picked by a fixed
    seed; not a union of whole TC-mask classes."""
    rng = random.Random(14)
    rc = str.maketrans("ACGT", "TGCA")
    words = [w if rng.random() < 0.5 else w[::-1].translate(rc)
             for w in map("".join, itertools.product("ACGT", repeat=4))
             if w < w[::-1].translate(rc)]
    return GeneratingSet.from_words(words)


# name: (function that makes the set, n)
SETS = {
    "m6-stage": (heuristic_set_m6_stage, 60),
    "m4-heuristic": (heuristic_set_m4, 24),
    "tc-dominant-3": (lambda: tc_dominant_set(3), 12),
    "tc-dominant-5": (lambda: tc_dominant_set(5), 20),
    "random-rc-free-4": (random_rc_free_m4, 24),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def compute(name):
    """The recorded values named ``name``, computed by the current code."""
    build, n = SETS[name]
    t = build_codec(build(), n)
    blocks = encode_payload(t, PAYLOAD)
    rng = random.Random(name)
    indices = [0, t.total - 1] + [rng.randrange(t.total) for _ in range(PAIRS - 2)]
    pairs = [[k, encode(t, k)] for k in indices]
    return {
        "n": n,
        "total": t.total,
        "bits_per_block": bits_per_block(t),
        "payload_sha256": _sha("".join(blocks)),
        "payload_ranks_sha256": _sha(",".join(str(decode(t, b)) for b in blocks)),
        "pairs": pairs,
        "ranks": [decode(t, x) for _, x in pairs],
    }


def test_golden_covers_every_set():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SETS)


def test_random_set_is_not_a_mask_union():
    assert random_rc_free_m4().mask_classes is None


@pytest.mark.parametrize("name", sorted(SETS))
def test_bit_identical(name):
    assert compute(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: compute(name) for name in SETS},
                                 indent=1, sort_keys=True) + "\n")

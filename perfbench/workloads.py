"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is driven in one process by one caller, in a closed loop: the
next pass starts when the previous one has returned.  Inputs come from the
workload seed alone.  Every call into ssacode goes through the module
attribute (``codec.encode``, not a name bound at import), so the tracer in
``tracing.py`` sees it.

This module imports nothing from ssacode, numpy or scipy at load time: the
set-up probe imports it first and then times ``import ssacode`` itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import statistics
import time
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Rates printed in the paper (bits/nt).  Kept here, not read from ssacode,
# so that a change to the library's own reference table cannot pass itself.
PAPER_RATES = {2: 1.1679, 3: 1.5515, 4: 1.5940, 5: 1.6980,
               7: 1.7698, 9: 1.8131, 11: 1.8423}
M6_STAGE_RATE = 1.6979
TABLE_TOL = 2e-3
RATE_TOL = 1e-3

_RC = str.maketrans("ACGT", "TGCA")


def revcomp(x: str) -> str:
    return x.translate(_RC)[::-1]


class Workload:
    """One workload.  Subclasses fill in the hooks below."""

    name = ""
    # Spans the traced run must see fire at least once.
    expected_spans: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self) -> None:
        """Generate the seeded inputs (untimed)."""

    def setup(self) -> None:
        """Build the objects the timed loop reuses (timed as ``setup_s``)."""

    def warmup(self) -> None:
        """Finish lazy imports inside ssacode before timing starts."""

    def run_pass(self):
        raise NotImplementedError

    def check(self, out) -> tuple:
        """(operations checked, list of failure messages)."""
        raise NotImplementedError

    def info(self, pass_times: list) -> dict:
        """Workload-specific throughput, named as in the benchmark's README."""
        return {}


def _warm_spectral():
    from ssacode import capacity, gensets
    capacity.rate_of_set(gensets.tc_dominant_set(3))


class RateTable(Workload):
    name = "rate-table"
    expected_spans = ("cli.table", "search.exhaustive_search", "capacity.rate_of_set",
                      "capacity.binary_reduction_rate", "capacity.build_digraph",
                      "capacity.spectral_radius", "gensets.validate",
                      "gensets.from_codes", "gensets.tc_dominant_set")
    # The sets are fixed by the paper, so the inputs do not depend on the
    # seed.  The call order stays fixed too: peak memory depends on it.
    order = (3, 5, 7, 9, 11, "m6-stage")

    def warmup(self):
        _warm_spectral()

    def run_pass(self):
        from ssacode import capacity, cli, gensets
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["table", "--format", "csv"])
        reports = {}
        for key in self.order:
            s = gensets.heuristic_set_m6_stage() if key == "m6-stage" else gensets.tc_dominant_set(key)
            reports[key] = capacity.rate_of_set(s)
        return code, buf.getvalue(), reports

    def check(self, out):
        code, text, reports = out
        failures = []
        if code != 0:
            failures.append(f"table exited {code}")
        rows = {int(r["m"]): float(r["computed_rate"]) for r in csv.DictReader(io.StringIO(text))}
        if set(rows) != set(PAPER_RATES):
            failures.append(f"table rows {sorted(rows)} != {sorted(PAPER_RATES)}")
        for m, ref in PAPER_RATES.items():
            if m in rows and not abs(rows[m] - ref) <= TABLE_TOL:
                failures.append(f"table m={m}: {rows[m]} vs {ref}")
        for key, rep in reports.items():
            ref = M6_STAGE_RATE if key == "m6-stage" else PAPER_RATES[key]
            if not rep.converged or not abs(rep.rate_bits_per_nt - ref) <= RATE_TOL:
                failures.append(f"rate {key}: {rep.rate_bits_per_nt} vs {ref}"
                                f" (converged={rep.converged})")
        return len(PAPER_RATES) + len(reports), failures

    def info(self, pass_times):
        return {"rate_table_s": (statistics.fmean(pass_times), "s")}


class LocalSearch(Workload):
    name = "local-search"
    expected_spans = ("search.local_search", "capacity.rate_of_set", "capacity.build_digraph",
                      "capacity.spectral_radius", "gensets.validate", "gensets.from_codes")
    M = 6
    RESTARTS = 6
    # At most local_search's plateau_limit (25), so no restart stops early
    # and every pass rates exactly RESTARTS * (ITERATIONS + 1) candidates.
    ITERATIONS = 5
    EXPECTED_FILE = HERE / "expected_search.json"

    def warmup(self):
        _warm_spectral()

    def run_pass(self):
        from ssacode import search
        return search.local_search(self.M, restarts=self.RESTARTS,
                                   iterations=self.ITERATIONS, seed=self.seed)

    def check(self, out):
        failures = []
        recorded = json.loads(self.EXPECTED_FILE.read_text()).get(str(self.seed))
        if recorded is not None and not abs(out.best_rate - recorded) <= 1e-9:
            failures.append(f"best_rate {out.best_rate!r} != recorded {recorded!r}")
        if not M6_STAGE_RATE <= out.best_rate <= 2 - 1 / self.M + 1e-9:
            failures.append(f"best_rate {out.best_rate} outside [{M6_STAGE_RATE}, 2 - 1/6]")
        if out.candidates_examined != self.RESTARTS * (self.ITERATIONS + 1):
            failures.append(f"candidates_examined {out.candidates_examined}")
        words = set(out.best_set.words())
        if len(words) != (4 ** self.M - 4 ** (self.M // 2)) // 2 or any(
                revcomp(w) in words for w in words):
            failures.append("best set is not a maximal RC-free set")
        return 1, failures

    def info(self, pass_times):
        per_pass = self.RESTARTS * (self.ITERATIONS + 1)
        return {"search_candidates_per_s": (per_pass / statistics.fmean(pass_times), "1/s")}


class CodecRoundtrip(Workload):
    name = "codec-roundtrip"
    expected_spans = ("codec.build_codec", "capacity.build_digraph", "gensets.validate",
                      "gensets.from_codes", "codec.encode", "codec.decode", "codec.framing")
    N = 60
    PAYLOAD_BITS = 1 << 16

    def make_inputs(self):
        rng = random.Random(self.seed)
        self.payload = format(rng.getrandbits(self.PAYLOAD_BITS), f"0{self.PAYLOAD_BITS // 4}X")
        self.phases = []

    def setup(self):
        from ssacode import codec, gensets
        self.table = codec.build_codec(gensets.heuristic_set_m6_stage(), self.N)

    def warmup(self):
        from ssacode import codec
        codec.decode(self.table, codec.encode(self.table, 0))

    def run_pass(self):
        from ssacode import codec
        t0 = time.perf_counter()
        k = codec.bits_per_block(self.table)
        indices = codec.payload_to_indices(self.payload, k)
        blocks = [codec.encode(self.table, i) for i in indices]
        t1 = time.perf_counter()
        decoded = [codec.decode(self.table, b) for b in blocks]
        payload = codec.indices_to_payload(decoded, k)
        self.phases.append((t1 - t0, time.perf_counter() - t1))
        return k, indices, blocks, decoded, payload

    def check(self, out):
        k, indices, blocks, decoded, payload = out
        failures = []
        words = set(self.table.gen_set.words())
        m = self.table.gen_set.m
        if any(not 0 <= i < 1 << k for i in indices):
            failures.append("block index out of range")
        for b, block in enumerate(blocks):
            if len(block) != self.N or any(block[p:p + m] not in words
                                           for p in range(self.N - m + 1)):
                failures.append(f"block {b} is not in C_n(S)")
        # encode is the index-th codeword in lexicographic order
        order = sorted(range(len(indices)), key=indices.__getitem__)
        if any(blocks[a] >= blocks[b] for a, b in zip(order, order[1:])
               if indices[a] != indices[b]):
            failures.append("blocks are not in the lexicographic order of their indices")
        if decoded != indices:
            failures.append("decoded indices differ from encoded indices")
        nbits = 4 * len(self.payload)
        got = int(payload, 16) >> (4 * len(payload) - nbits)
        if got != int(self.payload, 16):
            failures.append("payload round trip is not bit-exact")
        return 2 * len(blocks) + 1, failures

    def info(self, pass_times):
        kbit = self.PAYLOAD_BITS / 1000
        return {
            "encode_kbit_per_s": (kbit / statistics.fmean(p[0] for p in self.phases), "kbit/s"),
            "decode_kbit_per_s": (kbit / statistics.fmean(p[1] for p in self.phases), "kbit/s"),
        }


def first_witness(x: str, m: int):
    """Smallest (i, j), 1-based, with x[j;m] = RC(x[i;m]) and i + m <= j.

    Independent of ssacode: a hash of window positions, then for each i in
    order the first occurrence of its reverse complement at or after i + m.
    """
    positions = defaultdict(list)
    for j in range(len(x) - m + 1):
        positions[x[j:j + m]].append(j)
    for i in range(len(x) - 2 * m + 1):
        js = positions.get(revcomp(x[i:i + m]))
        if js:
            k = bisect_left(js, i + m)
            if k < len(js):
                return i + 1, js[k] + 1
    return None


class CheckReads(Workload):
    name = "check-reads"
    expected_spans = ("sequences.find_secondary_structure",)
    LENGTH = 2000
    FULL_SCAN = (12, 4)  # (m, reads), each drawn until it is m-SSA
    # (m, reads, i): each drawn until its first witness starts by position
    # i, so that the work of a pass does not swing with the seed
    EARLY_EXIT = (8, 8, 50)

    def make_inputs(self):
        rng = random.Random(self.seed)

        def read():
            return "".join(rng.choices("ACGT", k=self.LENGTH))

        def draw(m, count, keep):
            while count:
                x = read()
                if keep(first_witness(x, m)):
                    reads.append((x, m))
                    count -= 1

        reads = []
        m, count = self.FULL_SCAN
        draw(m, count, lambda w: w is None)
        m, count, last_i = self.EARLY_EXIT
        draw(m, count, lambda w: w is not None and w[0] <= last_i)
        rng.shuffle(reads)
        self.reads = reads

    def run_pass(self):
        from ssacode import sequences
        return [sequences.find_secondary_structure(x, m) for x, m in self.reads]

    def check(self, out):
        failures = []
        for n, ((x, m), w) in enumerate(zip(self.reads, out)):
            expect = first_witness(x, m)
            if w is None:
                if expect is not None:
                    failures.append(f"read {n}: reported SSA, witness {expect} exists")
                continue
            i, j = w.i, w.j
            if w.m != m or i + m > j or x[j - 1:j - 1 + m] != revcomp(x[i - 1:i - 1 + m]):
                failures.append(f"read {n}: witness {w} is not a non-overlapping RC pair")
            elif (i, j) != expect:
                failures.append(f"read {n}: witness {(i, j)} is not the smallest {expect}")
        if len(out) != len(self.reads):
            failures.append(f"{len(out)} verdicts for {len(self.reads)} reads")
        return len(self.reads), failures

    def info(self, pass_times):
        knt = sum(len(x) for x, _ in self.reads) / 1000
        return {"check_knt_per_s": (knt / statistics.fmean(pass_times), "knt/s")}


WORKLOADS = {w.name: w for w in (RateTable, LocalSearch, CodecRoundtrip, CheckReads)}

"""Tests of the benchmark itself: its checks catch wrong outputs, a wrong
output fails the run, the tracer sees every layer, and BENCHMARK.json keeps
to its format.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import run
import tracing
import workloads

run.import_ssacode()


def _small(cls, seed=0, **attrs):
    w = cls(seed)
    for key, value in attrs.items():
        setattr(w, key, value)
    w.make_inputs()
    w.setup()
    return w


def _csv(rows):
    return "m,computed_rate,reference_rate,abs_diff\n" + "".join(
        f"{m},{r:.4f},0,0\n" for m, r in rows.items())


def test_rate_table_check_catches_wrong_rows_and_rates():
    w = _small(workloads.RateTable)
    good = {key: SimpleNamespace(rate_bits_per_nt=workloads.M6_STAGE_RATE if key == "m6-stage"
                                 else workloads.PAPER_RATES[key], converged=True)
            for key in w.order}
    table = _csv(workloads.PAPER_RATES)
    assert w.check((0, table, good)) == (13, [])

    assert w.check((0, _csv({**workloads.PAPER_RATES, 11: 1.8500}), good))[1]
    assert w.check((0, _csv({m: r for m, r in workloads.PAPER_RATES.items() if m != 2}), good))[1]
    assert w.check((1, table, good))[1]
    drifted = {**good, 5: SimpleNamespace(rate_bits_per_nt=1.7, converged=True)}
    assert w.check((0, table, drifted))[1]
    stuck = {**good, 7: SimpleNamespace(rate_bits_per_nt=1.7698, converged=False)}
    assert w.check((0, table, stuck))[1]


def test_local_search_check_catches_wrong_rate_and_set():
    from ssacode import gensets, search
    w = _small(workloads.LocalSearch, seed=0)
    recorded = json.loads(w.EXPECTED_FILE.read_text())["0"]
    best = search.greedy_tc_choice(6)
    ok = SimpleNamespace(best_rate=recorded, best_set=best, candidates_examined=36)
    assert w.check(ok) == (1, [])
    assert w.check(SimpleNamespace(**{**vars(ok), "best_rate": recorded + 1e-6}))[1]
    assert w.check(SimpleNamespace(**{**vars(ok), "candidates_examined": 35}))[1]
    half = gensets.GeneratingSet.from_codes(6, best.codes[:100])
    assert w.check(SimpleNamespace(**{**vars(ok), "best_set": half}))[1]


def test_codec_check_catches_corrupted_blocks_and_payload():
    w = _small(workloads.CodecRoundtrip, PAYLOAD_BITS=1024)
    k, indices, blocks, decoded, payload = w.run_pass()
    assert w.check((k, indices, blocks, decoded, payload))[1] == []

    outside = ["A" * w.N] + blocks[1:]
    assert w.check((k, indices, outside, decoded, payload))[1]
    swapped = [blocks[1], blocks[0]] + blocks[2:]
    assert w.check((k, indices, swapped, decoded, payload))[1]
    assert w.check((k, [1 << k] + indices[1:], blocks, decoded, payload))[1]
    assert w.check((k, indices, blocks, [decoded[0] + 1] + decoded[1:], payload))[1]
    bad_payload = ("0" if payload[0] != "0" else "1") + payload[1:]
    assert w.check((k, indices, blocks, decoded, bad_payload))[1]


def test_check_reads_check_catches_wrong_witnesses():
    w = _small(workloads.CheckReads, seed=1, LENGTH=300)
    out = w.run_pass()
    assert w.check(out)[1] == []

    early = next(n for n, v in enumerate(out) if v is not None)
    later = list(out)
    later[early] = SimpleNamespace(i=out[early].i, j=out[early].j + 1, m=out[early].m)
    assert w.check(later)[1]
    missed = list(out)
    missed[early] = None
    assert w.check(missed)[1]
    ssa = next(n for n, v in enumerate(out) if v is None)
    invented = list(out)
    invented[ssa] = SimpleNamespace(i=1, j=100, m=w.reads[ssa][1])
    assert w.check(invented)[1]


def test_first_witness_matches_direct_scan():
    import random
    rng = random.Random(5)
    for _ in range(200):
        x = "".join(rng.choices("ACGT", k=rng.randrange(4, 40)))
        m = rng.randrange(2, 5)
        direct = next(((i + 1, j + 1) for i in range(len(x)) for j in range(i + m, len(x) - m + 1)
                       if x[j:j + m] == workloads.revcomp(x[i:i + m])), None)
        assert workloads.first_witness(x, m) == direct


def test_corrupted_decode_fails_the_run(monkeypatch, capsys):
    from ssacode import codec
    original = codec.decode
    monkeypatch.setattr(codec, "decode", lambda t, x: original(t, x) ^ 1)
    code = run.main(["--workload", "codec-roundtrip", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1


def test_without_sources_the_run_exits_nonzero(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check-reads",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_times_subtract_direct_children():
    spans = [[0, None, "a", 0.0, 10.0], [1, 0, "b", 1.0, 4.0], [2, 1, "c", 2.0, 3.0],
             [3, 0, "trace.counting", 4.0, 5.0], [4, 0, "b", 6.0, 7.0]]
    assert tracing.self_times(spans) == {"a": 5.0, "b": 3.0, "c": 1.0}


def test_tracer_finds_every_lookup_site_and_restores_it():
    from ssacode import capacity, gensets, search
    before = (search.rate_of_set, capacity.spectral_radius, vars(gensets.GeneratingSet)["from_codes"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert search.rate_of_set is not before[0]
    finally:
        tracer.uninstall()
    after = (search.rate_of_set, capacity.spectral_radius, vars(gensets.GeneratingSet)["from_codes"])
    assert after == before


def _traced_summary(w):
    tracer = tracing.Tracer()
    for _ in range(2):
        tracer.install()
        tracer.begin_pass()
        try:
            w.setup()
            w.run_pass()
        finally:
            tracer.end_pass()
            tracer.uninstall()
    assert tracer.nondeterministic() == []
    assert set(w.expected_spans) <= tracer.fired()
    return tracer.summary()


def test_every_per_layer_metric_is_produced():
    small = [
        _small(workloads.RateTable, order=[3, 5, "m6-stage"]),
        _small(workloads.LocalSearch, RESTARTS=1, ITERATIONS=1),
        _small(workloads.CodecRoundtrip, PAYLOAD_BITS=512),
        _small(workloads.CheckReads, LENGTH=200),
    ]
    produced = {"trace.overhead_s", "trace.overhead_frac"}
    for w in small:
        produced |= {k for k, v in _traced_summary(w).items() if v}
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    missing = {m["name"] for m in spec["per_layer"]} - produced
    # zero unconverged iterations is the healthy value
    assert missing <= {"capacity.unconverged"}


def test_counts_are_compared_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    w = workloads.CheckReads(0)
    counts = {"sequences.nt_checked": 2000}
    assert run.cross_run_drift(w, counts) == []
    assert run.cross_run_drift(w, counts) == []
    assert run.cross_run_drift(w, {"sequences.nt_checked": 1999})


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_format():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

"""Benchmark for ssacode: one workload, one process, seeded inputs.

    python3 perfbench/run.py --workload local-search --seed 0 --seconds 24 --trace 0

Run from a checkout of the repository.  ``--trace 0`` times passes with no
instrumentation and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

Every pass's output is checked outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any check failed.  The full
result, with the environment and (traced) every span, is also written under
``.perfbench_out/``.  Without ``src/ssacode`` next to this directory the run
stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or spec)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="measure for about this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found in {ROOT}")
    return json.loads(path.read_text())


def import_ssacode():
    # One BLAS thread: on a small shared machine a second BLAS thread makes
    # timings depend on what else runs.  Set before numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "ssacode" / "__init__.py").is_file():
        raise SetupError(f"no ssacode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ssacode
    if Path(ssacode.__file__).resolve().parent != SRC / "ssacode":
        raise SetupError(f"imported ssacode from {ssacode.__file__}, not from {SRC}")


def setup_probe(w) -> float:
    """One cold set-up in a fresh interpreter: import ssacode, then build
    what the workload's timed loop reuses."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                           w.name, str(w.seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD from .git without running git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads():
    """Threads OpenBLAS uses in this process, asked from the loaded library."""
    import numpy
    libdir = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_checked(w, out, totals, failures):
    ops, bad = w.check(out)
    totals["attempted"] += ops
    totals["failed"] += min(len(bad), ops)
    failures.extend(bad)


def enough(start, last, seconds) -> bool:
    """Stop once another pass would run more than half a pass past the
    time, so a run ends close to ``seconds`` however long a pass is."""
    return time.perf_counter() - start + last / 2 >= seconds


def measure(w, seconds, totals, failures) -> dict:
    """Untraced passes until the time is used; end-to-end metrics.

    The set-up probes run between passes, so that they sample the same
    stretch of time as the passes on a machine whose speed drifts.
    """
    w.setup()
    w.warmup()
    setup, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = w.run_pass()
        times.append(time.perf_counter() - t0)
        run_checked(w, out, totals, failures)
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(w))
        if enough(start, times[-1], seconds):
            break
    setup += [setup_probe(w) for _ in range(SETUP_PROBES - len(setup))]
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": statistics.fmean(times),
        },
        "pass_times": times,
        "setup_times": setup,
        "info": w.info(times),
    }


def measure_traced(w, seconds, totals, failures) -> dict:
    """Untraced and traced passes in turn; per-layer metrics and overhead.

    Here a pass includes the workload's set-up, so set-up layers show.
    """
    tracer = tracing.Tracer()
    w.setup()
    w.warmup()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        w.setup()
        out = w.run_pass()
        plain.append(time.perf_counter() - t0)
        run_checked(w, out, totals, failures)

        tracer.install()
        tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            w.setup()
            out = w.run_pass()
        finally:
            traced.append(time.perf_counter() - t0)
            tracer.end_pass()
            tracer.uninstall()
        run_checked(w, out, totals, failures)
        if enough(start, plain[-1] + traced[-1], seconds):
            break

    fired = tracer.fired()
    missing = [s for s in w.expected_spans if s not in fired]
    totals["attempted"] += len(w.expected_spans)
    totals["failed"] += len(missing)
    failures.extend(f"expected span {s} never fired" for s in missing)
    drift = tracer.nondeterministic()
    drift += cross_run_drift(w, tracer.passes[0]["counts"])
    totals["attempted"] += 1
    if drift:
        totals["failed"] += 1
        failures.append(f"nondeterministic counts: {', '.join(drift)}")

    metrics = tracer.summary()
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
    return {
        "metrics": metrics,
        "pass_times": plain,
        "traced_pass_times": traced,
        "absent_lookup_sites": tracer.absent,
        "spans": tracer.spans,
    }


def cross_run_drift(w, counts) -> list:
    """Compare exact counts with an earlier traced run of the same seed and
    the same sources in this checkout; record them if there is none."""
    path = OUT / f"counts-{w.name}-{w.seed}-{source_digest()}.json"
    exact = {k: counts.get(k, 0) for k in tracing.EXACT_COUNTS}
    if path.is_file():
        earlier = json.loads(path.read_text())
        return [f"{k} (earlier run {earlier.get(k)})" for k in exact if earlier.get(k) != exact[k]]
    path.write_text(json.dumps(exact, indent=1))
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_ssacode()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.make_inputs()
    OUT.mkdir(exist_ok=True)

    totals = {"attempted": 0, "failed": 0}
    failures = []
    run = measure_traced if args.trace else measure
    result = run(w, args.seconds, totals, failures)
    values = result.pop("metrics")
    if not args.trace:
        values["ops_ok_frac"] = 1 - totals["failed"] / totals["attempted"]
        result["info"]["ops_failed_frac"] = (totals["failed"] / totals["attempted"], "fraction")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    summary = {"correct": not failures, **totals, "metrics": metrics}
    record = {"workload": w.name, "seed": w.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "failures": failures,
              **summary, **result}
    name = f"{w.name}-seed{w.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    for line in failures:
        print(f"FAIL {line}")
    for key, value in record["environment"].items():
        print(f"env {key} = {value}")
    for key, (value, unit) in result.get("info", {}).items():
        print(f"info {key} = {value:.6g} {unit}")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of ssacode from the outside.

The tracer replaces public functions at the names their callers look them
up (``ssacode.search.rate_of_set`` is the name ``local_search`` calls, and
``ssacode.capacity.rate_of_set`` the one ``cli`` calls) with wrappers that
record a span: id, parent id, name, start, end.  Spans stay in memory and
are written out once, when the run ends.  No ssacode source is changed.

Counts are taken at the same boundaries from arguments and results.  The
time spent counting is recorded as a ``trace.counting`` child span, so it
is charged to no layer's self time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict


def _count_from_codes(c, args, kwargs, result):
    c["gensets.words_built"] += len(result)


def _count_digraph(c, args, kwargs, result):
    c["capacity.vertices"] += result.vertex_count
    c["capacity.arcs"] += result.arc_count


def _count_spectral(c, args, kwargs, result):
    c["capacity.power_iterations"] += result.iterations
    c["capacity.unconverged"] += not result.converged
    c["capacity.max_residual"] = max(c["capacity.max_residual"], result.residual)


def _count_search(c, args, kwargs, result):
    c["search.candidates_examined"] += result.candidates_examined


def _count_codec(c, args, kwargs, result):
    c["codec.table_entries"] += len(result.path_counts) * result.digraph.vertex_count


def _count_block(c, args, kwargs, result):
    c["codec.blocks"] += 1


def _count_check(c, args, kwargs, result):
    c["sequences.nt_checked"] += len(args[0])
    c["sequences.ssa_reads"] += result is None


# (module, attribute, span name, counter).  One span name may sit at
# several lookup sites: rate_of_set is looked up in search (by the search
# loops) and in capacity (by cli and by the benchmark itself).
PATCHES = (
    ("ssacode.cli", "cmd_table", "cli.table", None),
    ("ssacode.search", "exhaustive_search", "search.exhaustive_search", _count_search),
    ("ssacode.search", "local_search", "search.local_search", _count_search),
    ("ssacode.search", "rate_of_set", "capacity.rate_of_set", None),
    ("ssacode.capacity", "rate_of_set", "capacity.rate_of_set", None),
    ("ssacode.capacity", "binary_reduction_rate", "capacity.binary_reduction_rate", None),
    ("ssacode.capacity", "build_digraph", "capacity.build_digraph", _count_digraph),
    ("ssacode.codec", "build_digraph", "capacity.build_digraph", _count_digraph),
    ("ssacode.capacity", "spectral_radius", "capacity.spectral_radius", _count_spectral),
    ("ssacode.gensets", "validate", "gensets.validate", None),
    ("ssacode.gensets", "tc_dominant_set", "gensets.tc_dominant_set", None),
    ("ssacode.gensets", "GeneratingSet.from_codes", "gensets.from_codes", _count_from_codes),
    ("ssacode.codec", "build_codec", "codec.build_codec", _count_codec),
    ("ssacode.codec", "encode", "codec.encode", _count_block),
    ("ssacode.codec", "decode", "codec.decode", None),
    ("ssacode.codec", "bits_per_block", "codec.framing", None),
    ("ssacode.codec", "payload_to_indices", "codec.framing", None),
    ("ssacode.codec", "indices_to_payload", "codec.framing", None),
    ("ssacode.sequences", "find_secondary_structure",
     "sequences.find_secondary_structure", _count_check),
)

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "capacity.power_iterations", "search.candidates_examined", "capacity.vertices",
    "capacity.arcs", "codec.blocks", "codec.table_entries", "sequences.ssa_reads",
    "sequences.nt_checked", "gensets.words_built",
)


def _owner(module: str, attr: str):
    """The object holding the looked-up name, and the name within it."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs span wrappers, collects spans and per-pass aggregates."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.passes = []  # per traced pass: {"self_s": {...}, "counts": {...}}
        self.absent = []  # lookup sites that no longer exist
        self._stack = []
        self._counts = Counter()
        self._saved = []
        self._pass_start = 0

    def _span(self, name, fn, count):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([sid, parent, name, 0.0, 0.0])
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid][3:] = [t0, t1]
            self._counts[name + ".calls"] += 1
            if count is not None:
                cid = len(self.spans)
                self.spans.append([cid, parent, "trace.counting", t1, 0.0])
                count(self._counts, args, kwargs, result)
                self.spans[cid][4] = time.perf_counter()
            return result
        return wrapper

    def install(self):
        for module, attr, name, count in PATCHES:
            try:
                owner, key = _owner(module, attr)
            except (ImportError, AttributeError):
                owner, key = None, None
            if owner is None or key not in vars(owner):
                self.absent.append(f"{module}.{attr}")
                continue
            original = vars(owner)[key]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(name, original.__func__, count))
            else:
                wrapped = self._span(name, original, count)
            setattr(owner, key, wrapped)
            self._saved.append((owner, key, original))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def begin_pass(self):
        self._counts = Counter()
        self._pass_start = len(self.spans)

    def end_pass(self):
        spans = self.spans[self._pass_start:]
        self.passes.append({"self_s": self_times(spans), "counts": dict(self._counts)})

    def fired(self) -> set:
        return {s[2] for s in self.spans}

    def nondeterministic(self) -> list:
        """Exact counts that differ between traced passes."""
        first = self.passes[0]["counts"]
        return sorted({k for p in self.passes[1:] for k in EXACT_COUNTS
                       if p["counts"].get(k, 0) != first.get(k, 0)})

    def summary(self) -> dict:
        """Per-layer metrics: median self time per pass, counts of one pass."""
        names = {n for p in self.passes for n in p["self_s"]}
        out = {f"{n}.self_s": statistics.median(p["self_s"].get(n, 0.0) for p in self.passes)
               for n in names}
        counts = self.passes[-1]["counts"]
        out.update(counts)
        checks = counts.get("sequences.find_secondary_structure.calls", 0)
        out["sequences.ssa_fraction"] = counts.get("sequences.ssa_reads", 0) / checks if checks else 0.0
        out["capacity.max_residual"] = max(p["counts"].get("capacity.max_residual", 0.0)
                                           for p in self.passes)
        return out


def self_times(spans) -> dict:
    """Self time per span name: duration minus the time of direct children.

    Calls are single-threaded and nested, so the direct children of a span
    never overlap and their durations simply add up.
    """
    child = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for sid, _, name, t0, t1 in spans:
        if name != "trace.counting":
            out[name] += (t1 - t0) - child[sid]
    return dict(out)

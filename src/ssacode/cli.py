"""Command-line interface.

Commands: check, capacity, count, oracle, search, table, encode, decode.
All reports embed the resolved run configuration so results are reproducible.
Exit codes: 0 success (or SSA verdict), 1 domain failure (non-SSA, out of
range, budget exceeded, invalid set, invalid or unreadable input file, power
iteration not converged), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import capacity as cap
from . import codec as cdc
from . import gensets as gs
from . import search as srch
from . import sequences as seq

REFERENCE_TABLE = {2: 1.1679, 3: 1.5515, 4: 1.5940, 5: 1.6980,
               7: 1.7698, 9: 1.8131, 11: 1.8423}
TABLE_GATE_TOL = 2e-3

BUILTIN_SETS = ("tc-dominant", "m4-heuristic", "m6-stage", "block-concat-baseline")


def _sequence(text: str) -> str:
    try:
        return seq.parse_sequence(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """An argparse type: a rate tolerance that ``capacity.check_tol`` takes."""
    try:
        tol = float(text)
        cap.check_tol(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


def _usage_error(args) -> Optional[str]:
    """Why the parsed options cannot go together, or None."""
    m, n = getattr(args, "m", None), getattr(args, "n", None)
    if m is not None and n is not None and n < m:
        return f"--n {n} is smaller than the word length --m {m}"
    if getattr(args, "mode", None) == "local" and args.tol is not None:
        return (f"--tol applies to --mode exhaustive only; local search "
                f"iterates at {srch.LOCAL_TOL:g}")
    return None


def _resolve_set(args) -> gs.GeneratingSet:
    if getattr(args, "set_file", None):
        s = gs.read_set_file(args.set_file)
        if args.m is not None and args.m != s.m:
            args.usage_error(f"--m {args.m} does not match the word length "
                             f"{s.m} of --set-file {args.set_file}")  # exits 2
        return s
    name = getattr(args, "set", None)
    if name is None:
        raise ValueError("a generating set is required (--set or --set-file)")
    if name == "tc-dominant":
        if args.m is None:
            raise ValueError("--set tc-dominant requires --m")
        return gs.tc_dominant_set(args.m)
    if name == "m4-heuristic":
        return gs.heuristic_set_m4()
    if name == "m6-stage":
        return gs.heuristic_set_m6_stage()
    if name == "block-concat-baseline":
        return gs.GeneratingSet.from_words(cap.BLOCK_CONCAT_WORDS)
    raise ValueError(f"unknown builtin set {name!r}")


def _config(args, keys) -> dict:
    return {k: getattr(args, k, None) for k in keys}


def _flatten(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out.append((prefix, value))


def _emit(report: dict, args) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        text = json.dumps(report, indent=2, default=str) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if "rows" in report:
            writer.writerow(report["columns"])
            for row in report["rows"]:
                writer.writerow(row)
        else:
            pairs = []
            _flatten("", report, pairs)
            writer.writerow(["key", "value"])
            writer.writerows(pairs)
        text = buf.getvalue()
    else:
        pairs = []
        _flatten("", report, pairs)
        if "rows" in report:
            pairs = [(k, v) for k, v in pairs if not k.startswith("rows")]
        lines = [f"{k}: {v}" for k, v in pairs]
        if "rows" in report:
            lines.append("  ".join(str(c) for c in report["columns"]))
            for row in report["rows"]:
                lines.append("  ".join(str(c) for c in row))
        text = "\n".join(lines) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    if args.seq_file:
        return _check_file(args)
    witness = seq.find_secondary_structure(args.seq, args.m)
    report = {
        "command": "check",
        "config": _config(args, ("m", "seq")),
        "ssa": witness is None,
    }
    if witness is not None:
        report["witness"] = {"i": witness.i, "j": witness.j, "m": witness.m}
    _emit(report, args)
    return 0 if witness is None else 1


def _check_file(args) -> int:
    """One report row per line of the file, each line one read."""
    rows = []
    with open(args.seq_file) as fh:
        for index, line in enumerate(fh, start=1):
            try:
                read = seq.parse_sequence(line.rstrip("\r\n"))
            except ValueError as exc:
                raise ValueError(f"{args.seq_file}, line {index}: {exc}") from None
            witness = seq.find_secondary_structure(read, args.m)
            if witness is None:
                rows.append([index, len(read), True, None, None])
            else:
                rows.append([index, len(read), False, witness.i, witness.j])
    non_ssa = sum(not row[2] for row in rows)
    _emit({
        "command": "check",
        "config": _config(args, ("m", "seq_file")),
        "reads": len(rows),
        "non_ssa": non_ssa,
        "columns": ["index", "length", "ssa", "i", "j"],
        "rows": rows,
    }, args)
    return 0 if non_ssa == 0 else 1


def cmd_capacity(args) -> int:
    s = _resolve_set(args)
    report = cap.rate_of_set(s, tol=args.tol)
    _emit({
        "command": "capacity",
        "config": _config(args, ("m", "set", "set_file", "tol")),
        "set_size": len(s),
        **report.to_dict(),
    }, args)
    if not report.converged:
        _not_converged(report, args.tol)
        return 1
    return 0


def _not_converged(report: cap.CapacityReport, tol: float) -> None:
    print(f"error: power iteration did not converge: residual "
          f"{report.residual:.3g} after {report.iterations} iterations "
          f"(tol {tol:g})", file=sys.stderr)


def cmd_count(args) -> int:
    s = _resolve_set(args)
    total = cap.count_constrained(s, args.n)
    _emit({
        "command": "count",
        "config": _config(args, ("m", "n", "set", "set_file")),
        "count": str(total),
    }, args)
    return 0


def cmd_oracle(args) -> int:
    total = seq.count_all_ssa(args.n, args.m)
    _emit({
        "command": "oracle",
        "config": _config(args, ("m", "n")),
        "count": str(total),
    }, args)
    return 0


def cmd_search(args) -> int:
    if args.tol is None:  # always so in local mode (see _usage_error)
        args.tol = cap.DEFAULT_TOL if args.mode == "exhaustive" else srch.LOCAL_TOL
    if args.mode == "exhaustive":
        result = srch.exhaustive_search(args.m, tol=args.tol)
    else:
        def progress(restart, rate, best):
            print(f"restart {restart}: rate {rate:.4f} (best {best:.4f})",
                  file=sys.stderr)
        result = srch.local_search(args.m, restarts=args.restarts,
                                   iterations=args.iters, seed=args.seed,
                                   on_restart=progress)
    report = {
        "command": "search",
        "config": _config(args, ("m", "mode", "restarts", "iters", "seed", "tol")),
        "best_rate": result.best_rate,
        "candidates_examined": result.candidates_examined,
        "method": result.method,
        "seed": result.seed,
        "best_set_size": len(result.best_set),
    }
    if len(result.best_set) <= 4096:
        report["best_set"] = result.best_set.words()
    _emit(report, args)
    if not result.report.converged:
        _not_converged(result.report, result.tol)
        return 1
    return 0


def _table_rate(m: int) -> cap.CapacityReport:
    if m == 2:
        return srch.exhaustive_search(2).report
    if m == 4:
        return cap.rate_of_set(gs.heuristic_set_m4())
    return cap.binary_reduction_rate(m)


def cmd_table(args) -> int:
    rows = []
    worst = 0.0
    unconverged = []
    for m, reference in REFERENCE_TABLE.items():
        report = _table_rate(m)
        if not report.converged:
            unconverged.append(report)
        computed = report.rate_bits_per_nt
        diff = abs(computed - reference)
        worst = max(worst, diff)
        rows.append([m, f"{computed:.4f}", f"{reference:.4f}", f"{diff:.2e}"])
    _emit({
        "command": "table",
        "config": {},
        "columns": ["m", "computed_rate", "reference_rate", "abs_diff"],
        "rows": rows,
        "max_abs_diff": f"{worst:.2e}",
        "within_tolerance": worst <= TABLE_GATE_TOL,
    }, args)
    for report in unconverged:
        _not_converged(report, cap.DEFAULT_TOL)
    return 0 if worst <= TABLE_GATE_TOL and not unconverged else 1


def cmd_encode(args) -> int:
    s = _resolve_set(args)
    table = cdc.build_codec(s, args.n)
    blocks = cdc.encode_payload(table, args.payload)
    _emit({
        "command": "encode",
        "config": _config(args, ("m", "n", "set", "set_file", "payload")),
        "bits_per_block": cdc.bits_per_block(table),
        "blocks": len(blocks),
        "payload_bits": 4 * len(args.payload),
        "sequence": "".join(blocks),
    }, args)
    return 0


def cmd_decode(args) -> int:
    s = _resolve_set(args)
    table = cdc.build_codec(s, args.n)
    payload_hex = cdc.decode_payload(table, args.seq)
    _emit({
        "command": "decode",
        "config": _config(args, ("m", "n", "set", "set_file", "seq")),
        "bits_per_block": cdc.bits_per_block(table),
        "blocks": len(args.seq) // args.n,
        "payload_hex": payload_hex,
    }, args)
    return 0


def _add_common(p, *, m=False, n=False, set_source=False, tol=False):
    if m:
        p.add_argument("--m", type=_at_least(2), help="stem / word length")
    if n:
        p.add_argument("--n", type=int, required=True, help="sequence length")
    if set_source:
        p.add_argument("--set", choices=BUILTIN_SETS, help="builtin generating set")
        p.add_argument("--set-file", dest="set_file", help="generating-set file")
    if tol:
        p.add_argument("--tol", type=_tolerance, default=cap.DEFAULT_TOL,
                       help="power-iteration tolerance")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssacode",
        description="Secondary-structure-avoidance codes for DNA sequences: "
                    "membership checks, capacity, generating-set search, and "
                    "enumerative encoding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a sequence for m-SSA membership")
    p.add_argument("--m", type=_at_least(2), required=True)
    reads = p.add_mutually_exclusive_group(required=True)
    reads.add_argument("--seq", type=_sequence, help="one read")
    reads.add_argument("--seq-file", dest="seq_file",
                       help="a file of reads, one per line (one report row each)")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("capacity", help="rate of C_n(S) for a generating set")
    _add_common(p, m=True, set_source=True, tol=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("count", help="exact |C_n(S)|")
    _add_common(p, m=True, n=True, set_source=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("oracle", help="exact number of m-SSA sequences of length n")
    p.add_argument("--m", type=_at_least(2), required=True)
    _add_common(p, n=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("search", help="search for a high-rate generating set")
    p.add_argument("--m", type=_at_least(2), required=True)
    p.add_argument("--mode", choices=("exhaustive", "local"), default="local")
    p.add_argument("--restarts", type=_at_least(1), default=20)
    p.add_argument("--iters", type=_at_least(0), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance,
                   help="power-iteration tolerance of --mode exhaustive "
                        f"(default {cap.DEFAULT_TOL:g}); local search "
                        f"always iterates at {srch.LOCAL_TOL:g}")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="reproduce the reference rate table")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("encode", help="encode a hex payload into SSA blocks")
    p.add_argument("--payload", required=True, help="big-endian hex payload")
    _add_common(p, m=True, n=True, set_source=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode SSA blocks back to hex")
    p.add_argument("--seq", type=_sequence, required=True)
    _add_common(p, m=True, n=True, set_source=True)
    p.set_defaults(func=cmd_decode)
    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        args.usage_error(problem)  # exits 2
    try:
        return args.func(args)
    except (seq.BudgetExceededError, gs.InvalidGeneratingSetError,
            cdc.CodecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py --seed 0 --seconds 24 --trace 0

Each workload runs in its own process through ``run.py``.  With ``--trace 0``
the table holds the end-to-end metrics and each workload's own throughput
(``rate_table_s``, ``search_candidates_per_s``, ``encode_kbit_per_s``,
``decode_kbit_per_s``, ``check_knt_per_s``, ``ops_failed_frac``); with
``--trace 1`` the per-layer metrics.  Exits 1 if any run failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            print(f"{name}: exit {done.returncode}\n{done.stdout}{done.stderr}", file=sys.stderr)
            if not lines:
                continue
        rows = [line.split()[1:] for line in lines if line.startswith("info ")]
        result = json.loads(lines[-1])
        rows += [[k, "=", f"{m['value']:.6g}", m["unit"]] for k, m in result["metrics"].items()]
        for key, _, value, unit in rows:
            print(f"{name:16s} {key:42s} {value:>14s} {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Record the local-search result for each seed into expected_search.json.

    python3 perfbench/record_search.py 0-99 1000

Run at a commit whose search is trusted; the benchmark then requires every
later commit to reproduce these values.  Takes about 4 s per seed.
"""

import json
import sys
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from ssacode import search  # noqa: E402


def seeds(args):
    for arg in args:
        lo, _, hi = arg.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def main(argv) -> int:
    w = workloads.LocalSearch
    path = w.EXPECTED_FILE
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for seed in seeds(argv):
        result = search.local_search(w.M, restarts=w.RESTARTS, iterations=w.ITERATIONS, seed=seed)
        recorded[str(seed)] = result.best_rate
        print(seed, repr(result.best_rate), flush=True)
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

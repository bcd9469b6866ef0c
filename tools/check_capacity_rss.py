"""Run a ``capacity --format json`` command as a child process; check that
its rate was certified on the kept masks and that it stayed small.

Usage: python tools/check_capacity_rss.py MAX_RSS_MB COMMAND [ARG ...]

    python tools/check_capacity_rss.py 150 \\
        ssacode capacity --m 13 --set tc-dominant --format json

Exits 1 unless the command exits 0, its JSON report has
``"method": "mask-quotient"``, and the child's max RSS
(``resource.RUSAGE_CHILDREN``, KiB on Linux) is below MAX_RSS_MB.  Prints
the method and the max RSS either way.
"""

import json
import resource
import subprocess
import sys


def main(argv) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    proc = subprocess.run(command, capture_output=True, text=True)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    method = json.loads(proc.stdout).get("method") if proc.returncode == 0 else None
    print(f"exit {proc.returncode}, method {method}, max RSS {rss_mb:.1f} MB "
          f"(bound {bound_mb:g} MB)")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return 0 if method == "mask-quotient" and rss_mb < bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

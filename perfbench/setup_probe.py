"""Set-up cost in a fresh process: import boxcert, parse every query.

Usage: python3 perfbench/setup_probe.py SRC_DIR MANIFEST

MANIFEST lists one query file per line.  Prints the seconds from just
before ``import boxcert`` to the last parsed query; interpreter start-up
is not part of it.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    src, manifest = sys.argv[1], Path(sys.argv[2])
    paths = [Path(line) for line in manifest.read_text().splitlines() if line]
    started = time.perf_counter()
    sys.path.insert(0, src)
    from boxcert.cli import parse_query

    for path in paths:
        parse_query(path)
    print(time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

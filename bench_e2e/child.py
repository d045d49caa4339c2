"""One workload in this interpreter; prints one JSON line.

``bench_e2e.run`` starts this module in a fresh child per workload
with ``PYTHONPATH=src``; run it directly only to debug. Standard
output carries exactly one line, the JSON result of
:func:`bench_e2e.session.run`; everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import List, Optional

from bench_e2e import oplists


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(oplists.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True,
                        help="existing directory for journals; the caller "
                             "removes it")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write the raw spans here (JSON lines)")
    args = parser.parse_args(argv)

    # The set-up clock starts before the program is imported: a user
    # pays that import on every run.
    began = time.perf_counter()
    session = importlib.import_module("bench_e2e.session")
    print(json.dumps(session.run(args, began)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

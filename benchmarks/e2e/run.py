"""Entry point that needs no PYTHONPATH: ``python3 benchmarks/e2e/run.py``.

BENCHMARK.json names this file. It puts the checkout and its ``src`` on
the import path (for this process and the children it starts), then
hands over to the command line in :mod:`benchmarks.e2e.cli`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bootstrap() -> None:
    paths = [ROOT, os.path.join(ROOT, "src")]
    sys.path[:0] = paths
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([inherited] if inherited else []))


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks/e2e measures the catalog under {ROOT}/src, "
                 "which is not there")
    _bootstrap()
    from benchmarks.e2e.cli import fixed_hash_seed, main

    fixed_hash_seed()
    sys.exit(main())

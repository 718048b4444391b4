#!/usr/bin/env python3
"""Check that a regenerated bench report matches the committed one.

Usage::

    python tools/bench_fingerprint.py OUT.json COMMITTED.json

The simulated benches (``python -m repro.bench.<name> --seed N --out
OUT.json``) are deterministic for a seed: every field except the
measured wall-clock ones must come out byte-identical to the committed
``BENCH_*.json``. This tool loads both reports, drops every key whose
name starts with ``wallclock`` at any depth, and exits 1 on any other
difference, printing the path of each one.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterator


def strip_wallclock(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k: strip_wallclock(v) for k, v in value.items()
            if not k.startswith("wallclock")
        }
    if isinstance(value, list):
        return [strip_wallclock(v) for v in value]
    return value


def differences(got: Any, want: Any, path: str = "$") -> Iterator[str]:
    """Paths at which ``got`` and ``want`` differ, with both values."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            sub = f"{path}.{key}"
            if key not in want:
                yield f"{sub}: unexpected key"
            elif key not in got:
                yield f"{sub}: missing key"
            else:
                yield from differences(got[key], want[key], sub)
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{path}[{i}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        with open(name, encoding="utf-8") as f:
            reports.append(strip_wallclock(json.load(f)))
    diffs = list(differences(*reports))
    for line in diffs:
        print(line)
    if diffs:
        print(f"{argv[0]} differs from {argv[1]} at {len(diffs)} path(s)")
        return 1
    print(f"{argv[0]} matches {argv[1]} (wallclock* fields ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

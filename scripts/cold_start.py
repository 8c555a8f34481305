#!/usr/bin/env python3
"""Time a cold start of two checkouts of mvspoly: the import, then one field.

Usage:
    python3 scripts/cold_start.py OLD_CHECKOUT NEW_CHECKOUT SPEC [SPEC ...]

e.g. `python3 scripts/cold_start.py ../parent . 2^16:1 2^20:1 3^6:1`.

Each run is a fresh Python process that imports `mvspoly.cli` (every layer,
as a cold command pays for) from a checkout's `src/` and then builds one
field with `gf.parse_field_spec(SPEC)`, timing the two steps apart.  Every
spec gets RUNS processes per checkout, the two checkouts alternating run by
run and which goes first alternating too; one untimed process per checkout
first writes its bytecode caches.  The script prints, per spec, the median
build time of each checkout and their ratio new/old, then the same for the
import over all runs.

`scripts/ab_inprocess.py` times ops with both checkouts in one warm process,
so it cannot see this cost.  Like it, this script is for sizing a change:
the benchmark's own runs are the measurement of record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 7                    # fresh processes per checkout and spec

CHILD = """
import json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import mvspoly.cli
from mvspoly import gf
t1 = perf_counter()
gf.parse_field_spec(sys.argv[2])
t2 = perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def cold(checkout: Path, spec: str) -> list:
    """[import seconds, build seconds] of one fresh process."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), spec],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"cold_start: {checkout} on {spec} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout holding the reference src/")
    ap.add_argument("new", type=Path, help="checkout holding the changed src/")
    ap.add_argument("specs", nargs="+", help='field specs "p^N:k", e.g. 2^16:1')
    args = ap.parse_args()
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "src" / "mvspoly" / "__init__.py").is_file():
            sys.exit(f"cold_start: no mvspoly sources under {checkout / 'src'}")
        cold(checkout, args.specs[0])
    imports = {"old": [], "new": []}
    print(f"{'step':<20}{'old_ms':>10}{'new_ms':>10}{'new/old':>9}")
    for spec in args.specs:
        builds = {"old": [], "new": []}
        for r in range(RUNS):
            for name in (("old", "new") if r % 2 == 0 else ("new", "old")):
                t_import, t_build = cold(sides[name], spec)
                imports[name].append(t_import)
                builds[name].append(t_build)
        old, new = statistics.median(builds["old"]), statistics.median(builds["new"])
        print(f"{'build ' + spec:<20}{1e3 * old:>10.2f}{1e3 * new:>10.2f}{new / old:>9.3f}")
    old, new = statistics.median(imports["old"]), statistics.median(imports["new"])
    print(f"{'import mvspoly.cli':<20}{1e3 * old:>10.2f}{1e3 * new:>10.2f}{new / old:>9.3f}")
    print(f"medians of {RUNS} fresh processes per checkout and spec "
          f"({RUNS * len(args.specs)} for the import)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time a cold start of two checkouts of mvspoly: the import, then one field.

Usage:
    python3 scripts/cold_start.py OLD_CHECKOUT NEW_CHECKOUT SPEC [SPEC ...]

e.g. `python3 scripts/cold_start.py ../parent . 2^16:1 2^20:1 3^6:1`.

Each run is a fresh Python process that imports `mvspoly.cli` (every layer,
as a cold command pays for) from a checkout's `src/` and then builds one
field with `gf.parse_field_spec(SPEC)`, timing the two steps apart.  Every
spec gets RUNS runs per checkout, the two checkouts alternating run by run
and which goes first alternating too.  A run is two processes, one under
each bytecode condition:

- without caches: PYTHONDONTWRITEBYTECODE=1, so the package is compiled
  from source in every process (the standard library still reads its
  installed bytecode), as in a process that inherits that setting; the
  benchmark's workers inherit the caller's environment.  A checkout that
  holds `__pycache__` directories under `src/` would be read from them, so
  the script names any it finds;
- with caches: every module's bytecode read from a cache prefix of the
  checkout's own (PYTHONPYCACHEPREFIX under a temporary directory, never in
  the checkout), which one untimed process per checkout writes first.

The script prints, per spec, the median build time of each checkout over
both conditions and their ratio new/old, then the same for the import over
all runs, once per condition.

`scripts/ab_inprocess.py` times ops with both checkouts in one warm process,
so it cannot see this cost.  Like it, this script is for sizing a change:
the benchmark's own runs are the measurement of record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = 7                    # runs per checkout and spec, one process per condition

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


def cold(checkout: Path, spec: str, prefix: Path | None) -> list:
    """[import seconds, build seconds] of one fresh process: with its
    bytecode caches read and written under prefix, or, with no prefix,
    compiling the package from source."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    if prefix is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    out = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), spec],
                         capture_output=True, text=True, env=env)
    if out.returncode != 0:
        sys.exit(f"cold_start: {checkout} on {spec} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def row(label: str, times: dict) -> str:
    old, new = statistics.median(times["old"]), statistics.median(times["new"])
    return f"{label:<30}{1e3 * old:>10.2f}{1e3 * new:>10.2f}{new / old:>9.3f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout holding the reference src/")
    ap.add_argument("new", type=Path, help="checkout holding the changed src/")
    ap.add_argument("specs", nargs="+", help='field specs "p^N:k", e.g. 2^16:1')
    args = ap.parse_args()
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        caches = {name: Path(tmp, name) for name in sides}
        for name, checkout in sides.items():
            if not (checkout / "src" / "mvspoly" / "__init__.py").is_file():
                sys.exit(f"cold_start: no mvspoly sources under {checkout / 'src'}")
            for found in sorted((checkout / "src").rglob("__pycache__")):
                print(f"cold_start: {found} is read by the runs without caches",
                      file=sys.stderr)
            cold(checkout, args.specs[0], caches[name])
        imports = {cached: {"old": [], "new": []} for cached in (False, True)}
        print(f"{'step':<30}{'old_ms':>10}{'new_ms':>10}{'new/old':>9}")
        for spec in args.specs:
            builds = {"old": [], "new": []}
            for r in range(RUNS):
                for name in (("old", "new") if r % 2 == 0 else ("new", "old")):
                    for cached in (False, True):
                        t_import, t_build = cold(sides[name], spec,
                                                 caches[name] if cached else None)
                        imports[cached][name].append(t_import)
                        builds[name].append(t_build)
            print(row("build " + spec, builds))
        print(row("import, no bytecode caches", imports[False]))
        print(row("import, with bytecode caches", imports[True]))
    print(f"medians of {RUNS} runs per checkout and spec, a run being one process "
          f"per bytecode condition ({2 * RUNS} processes per build, "
          f"{RUNS * len(args.specs)} per import row)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time a cold start of two checkouts of mvspoly: the import, then one field
or one whole CLI command.

Usage:
    python3 scripts/cold_start.py OLD_CHECKOUT NEW_CHECKOUT SPEC [SPEC ...]
    python3 scripts/cold_start.py OLD_CHECKOUT NEW_CHECKOUT [SPEC ...] -- ARGV ...

e.g. `python3 scripts/cold_start.py ../parent . 2^16:1 2^20:1 3^6:1`, or
`python3 scripts/cold_start.py ../parent . -- oracle dim --field 3^9:1 --A x^3-x`.

Each run is a fresh Python process that imports `mvspoly.cli` (every layer,
as a cold command pays for) from a checkout's `src/` and then either builds
one field with `gf.parse_field_spec(SPEC)` or runs `cli.main(ARGV)`, the
argv after `--`, timing the import and the step apart.  A command is also
timed as a whole process, from its start to its exit as the parent sees
them.  Every spec, and the command, gets RUNS runs per checkout, the two
checkouts alternating run by run and which goes first alternating too.  A
run is two processes, one under each bytecode condition:

- without caches: PYTHONDONTWRITEBYTECODE=1, so the package is compiled
  from source in every process (the standard library still reads its
  installed bytecode), as in a process that inherits that setting; the
  benchmark's workers inherit the caller's environment.  A checkout that
  holds `__pycache__` directories under `src/` would be read from them, so
  the script names any it finds;
- with caches: every module's bytecode read from a cache prefix of the
  checkout's own (PYTHONPYCACHEPREFIX under a temporary directory, never in
  the checkout), which one untimed process per checkout writes first.

A command's exit code and the sha256 of its stdout must be the same in
every run of both checkouts; on the first difference the script names it
and exits 1.

The script prints, per spec, the median build time of each checkout over
both conditions and their ratio new/old; for the command, the same for the
command in process and for the whole process; then the same for the import
over all runs, once per condition.

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
from time import perf_counter

RUNS = 7                    # runs per checkout and spec, one process per condition

CHILD = """
import contextlib, hashlib, io, json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import mvspoly.cli
from mvspoly import gf
t1 = perf_counter()
if sys.argv[2] == "--":
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mvspoly.cli.main(sys.argv[3:])
    answer = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
else:
    gf.parse_field_spec(sys.argv[2])
    answer = None
t2 = perf_counter()
print(json.dumps([t1 - t0, t2 - t1, answer]))
"""


def cold(checkout: Path, step: list, prefix: Path | None) -> list:
    """[import seconds, step seconds, answer, whole-process seconds] of one
    fresh process running step (a spec, or "--" and a CLI argv): with its
    bytecode caches read and written under prefix, or, with no prefix,
    compiling the package from source.  answer is [exit code, stdout
    sha256] for a command, None for a build."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    if prefix is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), *step],
                         capture_output=True, text=True, env=env)
    whole = perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"cold_start: {checkout} on {' '.join(step)} failed:\n{out.stderr}")
    return [*json.loads(out.stdout), whole]


def row(label: str, times: dict) -> str:
    old, new = statistics.median(times["old"]), statistics.median(times["new"])
    return f"{label:<30}{1e3 * old:>10.2f}{1e3 * new:>10.2f}{new / old:>9.3f}"


def main():
    argv = sys.argv[1:]
    command = None
    if "--" in argv:
        i = argv.index("--")
        argv, command = argv[:i], argv[i + 1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 usage="%(prog)s OLD NEW [SPEC ...] [-- ARGV ...]")
    ap.add_argument("old", type=Path, help="checkout holding the reference src/")
    ap.add_argument("new", type=Path, help="checkout holding the changed src/")
    ap.add_argument("specs", nargs="*", help='field specs "p^N:k", e.g. 2^16:1')
    args = ap.parse_args(argv)
    if not args.specs and not command:
        ap.error("give a field spec or a CLI argv after --")
    steps = [[spec] for spec in args.specs] + ([["--", *command]] if command else [])
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        caches = {name: Path(tmp, name) for name in sides}
        for name, checkout in sides.items():
            if not (checkout / "src" / "mvspoly" / "__init__.py").is_file():
                sys.exit(f"cold_start: no mvspoly sources under {checkout / 'src'}")
            for found in sorted((checkout / "src").rglob("__pycache__")):
                print(f"cold_start: {found} is read by the runs without caches",
                      file=sys.stderr)
            cold(checkout, steps[0], caches[name])
        imports = {cached: {"old": [], "new": []} for cached in (False, True)}
        print(f"{'step':<30}{'old_ms':>10}{'new_ms':>10}{'new/old':>9}")
        for step in steps:
            times = {"old": [], "new": []}
            wholes = {"old": [], "new": []}
            answers = set()
            for r in range(RUNS):
                for name in (("old", "new") if r % 2 == 0 else ("new", "old")):
                    for cached in (False, True):
                        t_import, t_step, answer, whole = cold(
                            sides[name], step, caches[name] if cached else None)
                        imports[cached][name].append(t_import)
                        times[name].append(t_step)
                        wholes[name].append(whole)
                        answers.add(json.dumps(answer))
                        if len(answers) > 1:
                            sys.exit(f"cold_start: answers differ on {' '.join(step[1:])}: "
                                     f"{name} gave exit code and stdout sha256 {answer}")
            if step[0] == "--":
                print(f"command: {' '.join(step[1:])}, exit {answer[0]}")
                print(row("command", times))
                print(row("command, whole process", wholes))
            else:
                print(row("build " + step[0], times))
        print(row("import, no bytecode caches", imports[False]))
        print(row("import, with bytecode caches", imports[True]))
    print(f"medians of {RUNS} runs per checkout and step, a run being one process "
          f"per bytecode condition ({2 * RUNS} processes per step row, "
          f"{RUNS * len(steps)} per import row)")


if __name__ == "__main__":
    main()

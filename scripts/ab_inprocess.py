#!/usr/bin/env python3
"""Time one benchmark input through two checkouts of mvspoly in one process.

Usage:
    python3 perfbench/gen.py --workload verify --seed 7 > inputs.json
    python3 scripts/ab_inprocess.py OLD_CHECKOUT NEW_CHECKOUT inputs.json

Each checkout's `src/mvspoly` is imported under its own name, so both live in
one process.  Every op of a verify or sweep input (see perfbench/gen.py) runs
through both ROUNDS times, the order alternating op by op and round by round,
and each op gets the median of its times per checkout.  The script prints, per op, those
medians and their ratio new/old, then the median ratio per group (field and
kind for verify, (t, d) for sweep) and over all ops, and the ratio at the
benchmark's tail rank (the 11th slowest op).  A sweep op is also timed in its
two halves, `lift_pipeline` and `linear_dim_w`, and the median ratio over all
ops of each half is printed too.

The two sides share the host's speed at every moment, so their ratio is
steadier than that of two separate benchmark processes.  It is for sizing a
change only: the benchmark's own runs are the measurement of record.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "gf", "poly", "linearized", "oracle", "wspace")
TAIL_BEYOND = 10
ROUNDS = 7                  # times each op runs per side


def load(checkout: Path, alias: str):
    """Import checkout/src/mvspoly as the package `alias`, with every layer."""
    src = checkout / "src"
    if not (src / "mvspoly" / "__init__.py").is_file():
        sys.exit(f"ab_inprocess: no mvspoly sources under {src}")
    stale = [m for m in sys.modules if m == "mvspoly" or m.startswith("mvspoly.")]
    for m in stale:
        del sys.modules[m]
    sys.path.insert(0, str(src))
    try:
        mods = {m: importlib.import_module("mvspoly." + m) for m in LAYERS}
    finally:
        sys.path.remove(str(src))
    for m in [m for m in sys.modules if m == "mvspoly" or m.startswith("mvspoly.")]:
        sys.modules[alias + m[len("mvspoly"):]] = sys.modules.pop(m)
    return mods


def verify_ops(mods, inputs):
    """One callable per request: cli.main on its argv, output discarded.  The
    warm-up requests run once first, as in the benchmark's set-up."""
    main = mods["cli"].main

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        return {}

    for req in inputs["warmup"]:
        call(req["argv"])
    ops = [(lambda argv=req["argv"]: call(argv)) for req in inputs["ops"]]
    return ops, [f"{req['field']} {req['kind']}" for req in inputs["ops"]]


def sweep_ops(mods, inputs):
    """One callable per polynomial: lift_pipeline and linear_dim_w, each
    timed on its own."""
    ctx = mods["gf"].parse_field_spec(inputs["field"])
    make = mods["linearized"].AdditivePoly
    wspace, oracle = mods["wspace"], mods["oracle"]

    def call(a):
        t0 = perf_counter()
        wspace.lift_pipeline(ctx, a)
        t1 = perf_counter()
        oracle.linear_dim_w(ctx, a)
        return {"lift_pipeline": t1 - t0, "linear_dim_w": perf_counter() - t1}

    polys = [make(op["base"], tuple(map(tuple, op["coeffs"]))) for op in inputs["ops"]]
    return ([(lambda a=a: call(a)) for a in polys],
            [f"t={op['t']} d={op['d']}" for op in inputs["ops"]])


def timed(fn):
    """The time of one call of fn, and the times of its halves, by name."""
    t0 = perf_counter()
    halves = fn()
    return perf_counter() - t0, halves


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout holding the reference src/")
    ap.add_argument("new", type=Path, help="checkout holding the changed src/")
    ap.add_argument("inputs", type=Path, help="a perfbench/gen.py output (verify or sweep)")
    args = ap.parse_args()
    inputs = json.loads(args.inputs.read_text())
    make_ops = {"verify": verify_ops, "sweep": sweep_ops}.get(inputs["workload"])
    if make_ops is None:
        sys.exit(f"ab_inprocess: workload {inputs['workload']!r} is not verify or sweep")
    old_ops, groups = make_ops(load(args.old.resolve(), "mvspoly_old"), inputs)
    new_ops, _ = make_ops(load(args.new.resolve(), "mvspoly_new"), inputs)
    n = len(old_ops)
    times = {"old": [[] for _ in range(n)], "new": [[] for _ in range(n)]}
    halves = {"old": {}, "new": {}}        # side -> half -> per-op times
    for r in range(ROUNDS):
        for i in range(n):
            first_old = (r + i) % 2 == 0
            for side in (("old", "new") if first_old else ("new", "old")):
                ops = old_ops if side == "old" else new_ops
                total, parts = timed(ops[i])
                times[side][i].append(total)
                for name, t in parts.items():
                    halves[side].setdefault(name, [[] for _ in range(n)])[i].append(t)
    old = [statistics.median(t) for t in times["old"]]
    new = [statistics.median(t) for t in times["new"]]
    ratio = [b / a for a, b in zip(old, new)]
    print("op  group               old_ms    new_ms  new/old")
    for i in range(n):
        print(f"{i:3d} {groups[i]:<18s} {1e3 * old[i]:8.3f}  {1e3 * new[i]:8.3f}  {ratio[i]:7.3f}")
    print()
    by_group = {}
    for g, r in zip(groups, ratio):
        by_group.setdefault(g, []).append(r)
    for g, rs in sorted(by_group.items()):
        print(f"median new/old {g:<18s} {statistics.median(rs):.3f} over {len(rs)} ops")
    print(f"median new/old over all {n} ops: {statistics.median(ratio):.3f}")
    for name, per_op in halves["old"].items():
        rs = [statistics.median(b) / statistics.median(a)
              for a, b in zip(per_op, halves["new"][name])]
        print(f"median new/old of {name} over all {n} ops: {statistics.median(rs):.3f}")
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    tail_old, tail_new = sorted(old)[rank], sorted(new)[rank]
    print(f"tail (op {rank + 1} of {n} by latency): {1e3 * tail_old:.3f} -> "
          f"{1e3 * tail_new:.3f} ms, new/old {tail_new / tail_old:.3f}")
    print(f"one pass: {sum(old):.3f} -> {sum(new):.3f} s, new/old {sum(new) / sum(old):.3f}")


if __name__ == "__main__":
    main()

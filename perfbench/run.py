"""The mvspoly benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  verify  a stream of `mvspoly verify` requests through cli.main over F_64,
          F_729 and F_{2^16}: members and two kinds of non-member; each run
          also byte-checks the stdout of every README command
  sweep   lift_pipeline plus the exact dimension oracle on 192 of the 2761
          split additive polynomials over F_64, a seeded stratified sample
  census  the two brute-force oracles over F_9 (function census and the
          exhaustive shift-form scan), for manual runs only.  Not in
          BENCHMARK.json: its ops are two library calls of several seconds
          each, too few and too long for medians over repeats to absorb the
          host's speed swings, and its ten-run spread reached 0.40 on the
          2-core development host.

Each run is single-process, single-thread and closed-loop: one client issues
the next op only after the previous one returned.  The steps run in separate
processes so that no cache leaks from one into the next:

  gen.py     makes the inputs and expected answers from --seed
  worker.py  `setup` twice more, for the median setup time; then `timed`
             (--trace 0) or `fixed` untraced and traced (--trace 1)

--trace 0 prints the end-to-end metrics: setup_s is the median of three
set-ups.  The timed phase makes whole passes over the op list; each op's
latency is the median over its repeats, op_p50_ms and op_tail_ms (the 11th
slowest op) are taken over those, and ops_per_s is the rate of one pass at
them (census ops are whole library calls, so its latencies are per scanned
item).  Every time is scaled to a fixed reference speed by a reference loop
timed beside the work (see common.REFERENCE_S), since the host's own speed
drifts by up to 2x within minutes; the unscaled figures are printed above the
result.
--trace 1 prints the per-layer metrics of a fixed op set, with spans written
to .bench_out/.  The last stdout line is the result object; every line before
it is a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from common import REFERENCE_S, spans_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_step(script, args, stdin=b""):
    """Run a benchmark step in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / script), *args], input=stdin,
                          capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    if proc.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def child(script, args, stdin=b""):
    """run_step, with the step's last stdout line parsed as JSON."""
    return json.loads(run_step(script, args, stdin).decode().strip().splitlines()[-1])


def end_to_end(workload, inputs, seconds):
    setups = [child("worker.py", ["--mode", "setup"], inputs)
              for _ in range(SETUP_SAMPLES - 1)]
    res = child("worker.py", ["--mode", "timed", "--seconds", str(seconds)], inputs)
    setups.append(res)
    correct = res["failed"] == 0
    if workload == "verify":
        readme = child("readme_check.py", [])
        print(f"README commands: {readme['commands']}, mismatched: {len(readme['mismatched'])}")
        for cmd in readme["mismatched"]:
            print(f"  stdout or exit code differs from the golden copy: mvspoly {cmd}",
                  file=sys.stderr)
        correct = correct and not readme["mismatched"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = res["wall"]
    setup_walls = ", ".join(f"{s['setup_wall_s']:.3f}" for s in setups)
    print(f"{workload}: {res['ops']} ops ({res['attempted']} items) in {res['passes']} passes,"
          f" {res['elapsed_s']:.2f} s; op_tail_ms is op {res['tail_rank']} by latency")
    print(f"reference loop {res['reference_ms']:.4f} ms ({REFERENCE_S * 1e3:g} ms at the reference"
          f" speed); unscaled: setup {setup_walls} s, ops_per_s {wall['ops_per_s']:.6g},"
          f" op_p50_ms {wall['op_p50_ms']:.6g}, op_tail_ms {wall['op_tail_ms']:.6g}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6f} ratio")
    return values, res["attempted"], res["failed"], correct


def per_layer(workload, seed, inputs):
    from spans import layer_metrics
    base = child("worker.py", ["--mode", "fixed"], inputs)
    traced = child("worker.py", ["--mode", "fixed", "--trace"], inputs)
    summary = traced["summary"]
    values = layer_metrics(summary, traced["ops"], traced["wall_s"], base["wall_s"])
    print(f"{workload}: {traced['ops']} ops traced, {summary['spans']} spans"
          f" in {spans_path(workload, seed).name};"
          f" untraced {base['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s,"
          f" self times sum to {sum(summary['self_s'].values()):.3f} s")
    correct = traced["failed"] == 0 and base["failed"] == 0
    return values, traced["attempted"], traced["failed"], correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "sweep", "census"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        inputs = run_step("gen.py", ["--workload", args.workload, "--seed", str(args.seed)])
        if args.trace:
            values, attempted, failed, correct = per_layer(args.workload, args.seed, inputs)
        else:
            values, attempted, failed, correct = end_to_end(args.workload, inputs, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        sys.exit(f"perfbench: {exc}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

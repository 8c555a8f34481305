"""The measuring process: set up one workload, run its ops, check every answer.

    python3 perfbench/gen.py --workload sweep --seed 1 | \\
        python3 perfbench/worker.py --mode timed --seconds 10

Modes:
  setup   import mvspoly and get the workload ready, then make one pass over
          the ops to find the host's speed; report setup_s only.
  timed   setup, then a single-client closed loop for --seconds (each op starts
          after the previous one returned; whole passes over the op list);
          report throughput, latency, failures and peak RSS (see `timed`).
          Untraced.
Times are reported scaled to the reference speed (see common.REFERENCE_S),
and unscaled beside them as setup_wall_s and "wall".
  fixed   setup, then the workload's first fixed_ops ops (all of them if
          there are fewer) exactly once, untraced or with --trace; the traced
          form reports the per-layer metrics and writes its spans to
          .bench_out/ (see common.spans_path).

The inputs and the expected answers arrive as JSON on stdin (see gen.py).
Answers are checked after the timed phase, never inside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import jsonschema

from common import REFERENCE_S, SCHEMA, load_mvspoly, spans_path, time_reference


class Verify:
    """`mvspoly verify` requests through cli.main, stdout captured."""
    fixed_ops = 96

    def __init__(self, mv, inputs):
        self.mv = mv
        self.inputs = inputs
        self.ops = inputs["ops"]
        self._validator = None
        self._checked = {}

    def setup(self):
        for spec in self.inputs["fields"]:
            self.mv.gf.parse_field_spec(spec)
        for req in self.inputs["warmup"]:
            rc, _ = self._call(req["argv"])
            if rc != 0:
                raise RuntimeError(f"warm-up request failed with exit {rc}: {req['argv'][:5]}")

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.mv.cli.main(argv)
        return rc, out.getvalue()

    def run(self, i):
        return self._call(self.ops[i]["argv"])

    def items(self, op):
        return 1

    def check(self, i, result):
        # the stream repeats its requests; identical outputs are validated once
        key = (i, *result)
        if key not in self._checked:
            self._checked[key] = self._check(self.ops[i], *result)
        return self._checked[key]

    def _check(self, op, rc, out):
        if rc != (0 if op["member"] else 1):
            return False
        if self._validator is None:
            schema = json.loads(SCHEMA.read_text())
            self._validator = jsonschema.Draft202012Validator(schema)
        try:
            payload = json.loads(out)
        except ValueError:
            return False
        return (self._validator.is_valid(payload) and payload["kind"] == "verify"
                and payload["is_member"] is op["member"])


class Sweep:
    """lift_pipeline and linear_dim_w on split additive polynomials over F_64."""
    fixed_ops = 100

    def __init__(self, mv, inputs):
        self.mv = mv
        self.inputs = inputs
        self.ops = inputs["ops"]
        self.polys = [mv.linearized.AdditivePoly(op["base"], tuple(map(tuple, op["coeffs"])))
                      for op in self.ops]
        self.ctx = None

    def setup(self):
        self.ctx = self.mv.gf.parse_field_spec(self.inputs["field"])

    def run(self, i):
        a = self.polys[i]
        rep = self.mv.wspace.lift_pipeline(self.ctx, a)
        dim = self.mv.oracle.linear_dim_w(self.ctx, a)
        return rep.dim_lower, rep.witness.d, dim

    def items(self, op):
        return 1

    def check(self, i, result):
        rank, d, dim = result
        op = self.ops[i]
        return (rank == op["rank"] and d == op["d"]
                and (dim == rank if op["dim_exact"] else dim >= rank))


class Census:
    """The two whole-field scans over F_9, one library call each."""
    fixed_ops = 2

    def __init__(self, mv, inputs):
        self.mv = mv
        self.inputs = inputs
        self.ops = inputs["ops"]
        self.ctx = None

    def setup(self):
        self.ctx = self.mv.gf.parse_field_spec(self.inputs["field"])

    def run(self, i):
        oracle = self.mv.oracle
        if self.ops[i]["call"] == "census":
            return oracle.census_subfield_valued(self.ctx)
        return oracle.verify_low_degree_forms(self.ctx, branch="shift")[0]

    def items(self, op):
        return op["items"]

    def check(self, i, report):
        return all(getattr(report, k) == v for k, v in self.ops[i]["expect"].items())


WORKLOADS = {"verify": Verify, "sweep": Sweep, "census": Census}


def _run_one(wl, i):
    try:
        return wl.run(i)
    except Exception as exc:          # a crash is a failed op, not a dead run
        traceback.print_exc(file=sys.stderr)
        return exc


def _check_all(wl, done):
    failed = 0
    for i, res in done:
        if isinstance(res, Exception) or not wl.check(i, res):
            failed += wl.items(wl.ops[i])
    return failed


# the tail is the slowest per-op latency with this many distinct ops beyond it
TAIL_BEYOND = 10


def timed_loop(wl, seconds):
    """Pass after pass over the op list, each op followed by one reference
    loop; the loop ends with the first pass that finishes after `seconds`, so
    every op is repeated equally often."""
    done, lat, ref = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        for i in range(len(wl.ops)):
            t0 = perf_counter()
            res = _run_one(wl, i)
            t1 = perf_counter()
            done.append((i, res))
            lat.append(t1 - t0)
            ref.append(time_reference())
        if t1 >= deadline:
            return done, lat, ref, perf_counter() - start


def latency_stats(lat, n, items):
    """Per-op latency is the median over the op's repeats (per scanned item
    for census); p50 and the tail are taken over those, and the rate is that
    of one pass over the n ops at them."""
    per_op = [statistics.median(lat[i::n]) for i in range(n)]
    per_item_ms = sorted(1e3 * t / k for t, k in zip(per_op, items))
    tail = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {"ops_per_s": sum(items) / sum(per_op),
            "op_p50_ms": statistics.median(per_item_ms),
            "op_tail_ms": per_item_ms[tail],
            "tail_rank": f"{tail + 1} of {n}"}


def pass_scales(ref, n):
    """For each pass of n ops, the factor that takes its times to the
    reference speed (see common.REFERENCE_S): the loop's time at that speed
    over the median of its reference loops in the pass."""
    return [REFERENCE_S / statistics.median(ref[p:p + n]) for p in range(0, len(ref), n)]


def timed(wl, seconds, setup_wall):
    """Closed-loop run.  Each latency is scaled to the reference speed by the
    scale of its pass, because the host's speed drifts between and within
    runs, and the set-up time by that of the first pass; the unscaled figures
    are reported as setup_wall_s and "wall"."""
    done, lat, ref, elapsed = timed_loop(wl, seconds)
    n = len(wl.ops)
    items = [wl.items(op) for op in wl.ops]
    scales = pass_scales(ref, n)
    scaled = [t * scales[k // n] for k, t in enumerate(lat)]
    return {
        "setup_s": setup_wall * scales[0],
        "setup_wall_s": setup_wall,
        **latency_stats(scaled, n, items),
        "wall": latency_stats(lat, n, items),
        "reference_ms": 1e3 * statistics.median(ref),
        "elapsed_s": elapsed,
        "ops": len(done),
        "passes": len(done) // n,
        "attempted": sum(items[i] for i, _ in done),
        "failed": _check_all(wl, done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fixed(wl, span):
    done = []
    t0 = perf_counter()
    for i in range(min(wl.fixed_ops, len(wl.ops))):
        with span("bench.op", i):
            done.append((i, _run_one(wl, i)))
    ops_s = perf_counter() - t0
    attempted = sum(wl.items(wl.ops[i]) for i, _ in done)
    return done, attempted, ops_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["setup", "timed", "fixed"], required=True)
    ap.add_argument("--seconds", type=float, help="timed mode: how long to measure")
    ap.add_argument("--trace", action="store_true", help="fixed mode: trace the layers")
    args = ap.parse_args()
    if args.mode == "timed" and args.seconds is None:
        ap.error("--mode timed needs --seconds")
    inputs = json.load(sys.stdin)

    t0 = perf_counter()
    mv = load_mvspoly()
    t_import = perf_counter()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[inputs["workload"]](mv, inputs)
    t_ready = perf_counter()
    span = tracer.span if tracer else (lambda name, op_id=None: contextlib.nullcontext())
    with span("bench.setup"):
        wl.setup()
    t_setup = perf_counter()
    setup_wall = (t_import - t0) + (t_setup - t_ready)

    if args.mode == "setup":
        # one pass over the ops, as the timed run makes after its set-up,
        # gives the scale
        _, _, ref, _ = timed_loop(wl, 0)
        out = {"setup_s": setup_wall * pass_scales(ref, len(wl.ops))[0],
               "setup_wall_s": setup_wall}
    elif args.mode == "timed":
        out = timed(wl, args.seconds, setup_wall)
    else:
        done, attempted, ops_s = fixed(wl, span)
        wall = (t_setup - t_ready) + ops_s
        failed = _check_all(wl, done)
        out = {"setup_wall_s": setup_wall, "wall_s": wall, "ops": len(done),
               "attempted": attempted, "failed": failed}
        if tracer is not None:
            tracer.uninstall()
            summary = tracer.summary()
            out["summary"] = summary
            tracer.save(spans_path(inputs["workload"], inputs["seed"]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()

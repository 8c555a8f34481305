"""Tests of the benchmark itself: seeded inputs, failure accounting and the
tracer.  Every step runs as its own process, as in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONHASHSEED="0")

# the spans cover the traced region except the loop between ops
SELF_TIME_TOLERANCE = 0.02


def step(script, *args, stdin=b""):
    proc = subprocess.run([sys.executable, str(HERE / script), *args], input=stdin,
                          capture_output=True, env=ENV, timeout=170, check=True)
    return proc.stdout


def worker(inputs, *args):
    out = step("worker.py", *args, stdin=json.dumps(inputs).encode())
    return json.loads(out.decode().splitlines()[-1])


def gen(workload, seed):
    return step("gen.py", "--workload", workload, "--seed", str(seed))


def first_ops(inputs, n):
    """The inputs cut to their first n ops, so that a fixed run does only those."""
    return {**inputs, "ops": inputs["ops"][:n]}


@pytest.fixture(scope="module")
def sweep_raw():
    return gen("sweep", 5)


@pytest.fixture(scope="module")
def sweep_inputs(sweep_raw):
    return json.loads(sweep_raw)


@pytest.fixture(scope="module")
def verify_raw():
    return gen("verify", 5)


def test_same_seed_same_inputs(sweep_raw, verify_raw):
    assert gen("sweep", 5) == sweep_raw
    assert gen("verify", 5) == verify_raw
    assert json.loads(gen("sweep", 6))["ops"] != json.loads(sweep_raw)["ops"]


def test_wrong_expected_rank_is_counted(sweep_inputs):
    ok = worker(first_ops(sweep_inputs, 4), "--mode", "fixed")
    assert ok["attempted"] == 4 and ok["failed"] == 0
    bad = json.loads(json.dumps(first_ops(sweep_inputs, 4)))
    bad["ops"][2]["rank"] += 1
    res = worker(bad, "--mode", "fixed")
    assert res["failed"] == 1
    assert res["failed"] / res["attempted"] > 0


def test_wrong_expected_verdict_is_counted(verify_raw):
    inputs = first_ops(json.loads(verify_raw), 12)
    shift = next(i for i, op in enumerate(inputs["ops"]) if op["kind"] == "shift")
    inputs["ops"][shift]["member"] = True
    res = worker(inputs, "--mode", "fixed")
    assert res["attempted"] == 12 and res["failed"] == 1


@pytest.mark.parametrize("out", ["", "{\"kind\": \"verify\"", "error: no such field\n"])
def test_verify_stdout_that_is_not_json_fails_the_op(verify_raw, out):
    sys.path.insert(0, str(HERE))
    from worker import Verify
    inputs = first_ops(json.loads(verify_raw), 12)
    wl = Verify(None, inputs)
    member = next(i for i, op in enumerate(inputs["ops"]) if op["member"])
    assert wl.check(member, (0, out)) is False


def test_traced_counts_repeat_and_self_times_add_up(sweep_inputs):
    runs = [worker(first_ops(sweep_inputs, 12), "--mode", "fixed", "--trace")
            for _ in range(2)]
    first, second = (r["summary"] for r in runs)
    assert first["calls"] == second["calls"]
    assert first["counters"] == second["counters"]
    assert first["spans"] == second["spans"] > 0
    for run in runs:
        summary = run["summary"]
        assert run["failed"] == 0
        total_self = sum(summary["self_s"].values())
        assert total_self == pytest.approx(summary["root_s"], rel=1e-9)
        assert abs(total_self - run["wall_s"]) <= SELF_TIME_TOLERANCE * run["wall_s"]


def test_timed_scales_latencies_to_the_reference_speed(monkeypatch):
    sys.path.insert(0, str(HERE))
    import worker

    class Idle:
        ops = [{}, {}, {}]

        def run(self, i):
            return i

        def items(self, op):
            return 1

        def check(self, i, result):
            return result == i

    # the reference loop reads four times its reference time: times scale by 1/4
    monkeypatch.setattr(worker, "time_reference", lambda: 4 * worker.REFERENCE_S)
    res = worker.timed(Idle(), 0.05, 1.0)
    assert res["failed"] == 0 and res["attempted"] == res["ops"] == 3 * res["passes"]
    assert res["setup_s"] == pytest.approx(0.25)
    assert res["op_p50_ms"] == pytest.approx(res["wall"]["op_p50_ms"] / 4)
    assert res["op_tail_ms"] == pytest.approx(res["wall"]["op_tail_ms"] / 4)
    assert res["ops_per_s"] == pytest.approx(res["wall"]["ops_per_s"] * 4)

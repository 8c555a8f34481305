"""Locating and importing the mvspoly sources of the checkout under test, and
the paths the benchmark reads and writes."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema.json"
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("cli", "gf", "poly", "linalg", "linearized", "mvsp", "wspace", "oracle")


def load_mvspoly() -> types.SimpleNamespace:
    """Import every mvspoly layer from this checkout's src/, never from an
    installed copy; exit with code 2 when the sources are missing."""
    if not (SRC / "mvspoly" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mvspoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module("mvspoly." + m) for m in LAYERS}
    pkg = sys.modules["mvspoly"]
    if Path(pkg.__file__).resolve().parent != SRC / "mvspoly":
        sys.exit(f"perfbench: imported mvspoly from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


# The speed of the 2-core development host drifts by up to 2x within minutes
# (other tenants share its cores), and every wall time taken on it drifts with
# it.  So the time metrics are scaled to a fixed reference speed: the
# benchmark times reference_loop() after every op, and a duration d measured
# while the loop took a median of r seconds is reported as d * REFERENCE_S / r.
# The loop does what the hot path of gf does (log/exp table products in
# GF(2^16), small dict stores) and calls nothing of mvspoly, so a change to
# mvspoly moves the op times and not r.  It allocates one small dict and no
# other container, so the garbage collector, whose work grows with the mvspoly
# heap, almost never runs inside it.
REFERENCE_S = 1e-3          # the loop's time at the reference speed
REFERENCE_MULS = 1024


def _gf16_tables():
    exp, log = [0] * 65535, [0] * 65536
    x = 1
    for i in range(65535):
        exp[i], log[x] = x, i
        x <<= 1
        if x & 0x10000:
            x ^= 0x1100B    # x^16 + x^12 + x^3 + x + 1, primitive
    return exp, log


_EXP, _LOG = _gf16_tables()


def _gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return _EXP[(_LOG[a] + _LOG[b]) % 65535]


def reference_loop() -> int:
    d = {}
    a = 3
    for i in range(1, REFERENCE_MULS + 1):
        a = _gf_mul(a, i) ^ i
        d[i & 31] = a
    return len(d)


def time_reference() -> float:
    """Wall time of one reference loop, in seconds."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run of `workload` with `seed` writes its spans."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"spans-{workload}-seed{seed}.npz"

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mvspoly.linalg import FpSpan, nullspace_mod, rank_gf2, rank_mod, rref_mod


def pack(rows):
    return [sum(bit << i for i, bit in enumerate(row)) for row in rows]


@pytest.mark.parametrize("rows", [
    [],                                   # empty
    [[0, 0, 0]] * 4,                      # all zero
    [[1, 0, 1, 1]] * 3,                   # duplicate rows
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],    # dependent: the third is the sum
    [[1], [0], [1], [1], [0]],            # tall
    [[1, 0, 1, 0, 0, 1, 1, 0]],           # wide
    [[1, 0], [0, 1], [1, 1], [0, 0]],     # tall, full column rank
    [[0, 1, 0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 0, 0, 1]],  # wide, rank 2
])
def test_rank_gf2_shapes(rows):
    assert rank_gf2(pack(rows)) == rank_mod(rows, 2)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(1, 12), st.integers(0, 2 ** 32))
def test_rank_gf2_matches_rref_mod(nrows, ncols, salt):
    rng = random.Random(salt)
    density = rng.random()
    rows = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows.append(list(rows[rng.randrange(len(rows))]))     # a duplicate row
    assert rank_gf2(pack(rows)) == rank_mod(rows, 2)
    # rank of the transpose is the same
    cols = [list(c) for c in zip(*rows)] if rows else []
    assert rank_gf2(pack(cols)) == rank_mod(rows, 2)


def reference_nullspace(rows, p):
    """The nullspace read off rref_mod, free variables in increasing order."""
    red, pivots = rref_mod(rows, p)
    ncols = len(rows[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = int(-red[r, f]) % p
        basis.append(v)
    return basis


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2 ** 32))
def test_packed_gf2_paths_match_numpy(nrows, ncols, salt):
    rng = random.Random(salt)
    density = rng.random()
    rows = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    assert [list(map(int, v)) for v in nullspace_mod(rows, 2)] == reference_nullspace(rows, 2)
    span = FpSpan(2, ncols)
    grew = [span.add(r) for r in rows]
    assert span.rank == sum(grew) == rank_mod(rows, 2)
    assert all(span.contains(r) for r in rows)
    other = [int(rng.random() < 0.5) for _ in range(ncols)]
    assert span.contains(other) == (rank_mod(rows + [other], 2) == span.rank)


def test_characteristic_two_never_loads_numpy():
    # the p = 2 lift, dimension oracle and Mills check run on packed ints
    code = (
        "import sys\n"
        "from mvspoly.cli import main\n"
        "for argv in (['lift', '--field', '2^6:1', '--A', 'x^4+x^2+x'],\n"
        "             ['oracle', 'dim', '--field', '2^6:1', '--A', 'x^4+x^2+x'],\n"
        "             ['verify', '--field', '2^6:1', '--T', 'x^4+x^2+x', '--F', 'x^18+x^9']):\n"
        "    assert main(argv) == 0\n"
        "assert 'numpy' not in sys.modules\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

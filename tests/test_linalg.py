import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from linalg_reference import nullspace, rank_mod
from mvspoly.gf import make_field
from mvspoly.linalg import FpSpan, FqSpan, fp_kernel, fp_parts, fp_sum_at


def pack(rows):
    return [sum(bit << i for i, bit in enumerate(row)) for row in rows]


def rank_gf2(vectors):
    """The rank of an FpSpan at p = 2 fed the packed vectors."""
    span = FpSpan(2, 0)
    for v in vectors:
        span.add(v)
    return span.rank


def with_zero_and_repeated_columns(rows, rng):
    """rows with an all-zero column and a copy of one of its columns inserted
    at random places, so that a kernel of the columns meets zero and
    repeated images."""
    cols = [list(c) for c in zip(*rows)]
    cols.insert(rng.randrange(len(cols) + 1), [0] * len(rows))
    cols.insert(rng.randrange(len(cols) + 1), list(rng.choice(cols)))
    return [list(r) for r in zip(*cols)]


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


def check_against_the_reference(rows, p, other):
    """fp_kernel, fed the columns of the rows and then the rows themselves as
    images, and an FpSpan fed the rows agree with the numpy reference, each
    kernel basis and its order exactly."""
    cols = [list(c) for c in zip(*rows)]
    for matrix, images in ((rows, cols), (cols, rows)):
        null = fp_kernel(p, len(matrix), pack(images) if p == 2 else images)
        if p == 2:
            null = [[v >> i & 1 for i in range(len(images))] for v in null]
        assert null == nullspace(matrix, p)
    span = FpSpan(p, len(other))
    # at p = 2 an FpSpan row is one packed int
    packed = pack if p == 2 else list
    grew = [span.add(r) for r in packed(rows)]
    assert span.rank == sum(grew) == rank_mod(rows, p)
    # a row in the span reduces to the zero row
    zero = 0 if p == 2 else [0] * len(other)
    assert all(span.reduce(r) == zero for r in packed(rows))
    assert (span.reduce(packed([other])[0]) == zero) == \
        (rank_mod(rows + [other], p) == span.rank)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2 ** 32))
def test_packed_gf2_paths_match_numpy(nrows, ncols, salt):
    rng = random.Random(salt)
    density = rng.random()
    rows = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        rows = with_zero_and_repeated_columns(rows, rng)
    check_against_the_reference(rows, 2, [int(rng.random() < 0.5) for _ in rows[0]])


@seed(20261021)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(60, 140), st.integers(0, 2 ** 32))
def test_packed_gf2_rows_wider_than_a_machine_word(nrows, ncols, salt):
    # rows of 60-140 entries, as wide as the rows the lift and the oracle pack
    rng = random.Random(salt)
    density = rng.random()
    rows = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        rows.append([a ^ b for a, b in zip(rows[0], rows[-1])])    # a dependent row
    if rng.random() < 0.5:
        rows = with_zero_and_repeated_columns(rows, rng)
    check_against_the_reference(rows, 2, [int(rng.random() < 0.5) for _ in rows[0]])


@pytest.mark.parametrize("p", [3, 5, 7])
@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2 ** 32))
def test_odd_p_paths_match_the_reference(p, nrows, ncols, salt):
    # sparse draws make dependent rows common; entries outside [0, p) are allowed
    rng = random.Random(salt)
    density = rng.random()
    rows = [[rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if rng.random() < 0.3:
        rows.append([rng.randrange(p) * d for d in rows[rng.randrange(nrows)]])
    if rng.random() < 0.5:
        rows = with_zero_and_repeated_columns(rows, rng)
    other = rows[0] if rng.random() < 0.3 else [rng.randrange(p) for _ in rows[0]]
    check_against_the_reference(rows, p, other)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (5, 2)])
def test_add_sums_inserts_each_placed_sum(p, n):
    """add_sums keeps the rows, in the order and echelon form, that add keeps
    when fed fp_sum_at of each column in turn, offsets repeated included
    (parts at one entry add), dependent columns and zero parts included."""
    ctx = make_field(p, 1, n)
    rng = random.Random(100 * p + n)
    width = 4 * ctx.N
    for _ in range(30):
        offsets = [ctx.N * rng.randrange(4) for _ in range(rng.randrange(1, 5))]
        columns = []
        for _ in range(rng.randrange(1, 9)):
            elems = [rng.choice(ctx.elements()) for _ in offsets]
            columns.append(fp_parts(ctx, elems))
            if rng.random() < 0.3:
                columns.append(fp_parts(ctx, [ctx.smul(2, c) for c in elems]))
        batch, single = FpSpan(p, width), FpSpan(p, width)
        batch.add_sums(ctx, columns, offsets)
        for parts in columns:
            single.add(fp_sum_at(ctx, width, parts, offsets))
        assert batch.rows == single.rows


def fq_span_members(ctx, length, vectors):
    """Every F_q-combination of the vectors, by enumeration."""
    members = {(ctx.zero,) * length}
    for v in vectors:
        members = {tuple(ctx.add(m, ctx.mul(c, x)) for m, x in zip(mv, v))
                   for mv in members for c in ctx.subfield_elements(1)}
    return members


@pytest.mark.parametrize("p,k,n", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
@pytest.mark.parametrize("length", [1, 2])
def test_fq_span_matches_enumeration(p, k, n, length):
    """FqSpan grows exactly when the vector lies outside the enumerated
    F_q-span of the vectors kept so far (F_16:F_4, F_64:F_4, F_64:F_8, F_81:F_9)."""
    ctx = make_field(p, k, n)
    rng = random.Random(1000 * p + 100 * k + 10 * n + length)
    span = FqSpan(ctx, length)
    kept = []
    members = fq_span_members(ctx, length, kept)
    for _ in range(3 * n * length):
        if rng.random() < 0.4:               # an F_q-combination of what is kept
            v = rng.choice(sorted(members))
        else:
            v = tuple(rng.choice(ctx.elements()) for _ in range(length))
        assert span.add(v) == (v not in members)
        if v not in members:
            kept.append(v)
            members = fq_span_members(ctx, length, kept)
    assert span.fp.rank == k * len(kept) and len(members) == ctx.q ** len(kept)
    assert len(kept) >= min(2, n * length)


def test_no_command_loads_numpy():
    # linear algebra is plain Python at every p: the lift, the dimension
    # oracle and the Mills check at p = 2 and p = 3
    code = (
        "import sys\n"
        "from mvspoly.cli import main\n"
        "for argv in (['lift', '--field', '2^6:1', '--A', 'x^4+x^2+x'],\n"
        "             ['oracle', 'dim', '--field', '2^6:1', '--A', 'x^4+x^2+x'],\n"
        "             ['verify', '--field', '2^6:1', '--T', 'x^4+x^2+x', '--F', 'x^18+x^9'],\n"
        "             ['lift', '--field', '3^6:1', '--A', 'x^9+x^3+x'],\n"
        "             ['oracle', 'dim', '--field', '3^4:1', '--A', 'x^3-x'],\n"
        "             ['verify', '--field', '3^6:1', '--T', 'x^9+x^3+x',\n"
        "              '--F', 'x^81+2*x^27+x^3+2*x']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

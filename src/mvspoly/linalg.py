"""Exact linear algebra over F_p, in plain Python.

Pivot selection is always "first nonzero", so every routine is
deterministic.  `FpSpan` is the one elimination engine; it keeps echelon
rows only, never rewriting one, and nullspaces follow by back-substitution.
At p = 2 a row is one Python int (entry i at bit i), at odd p a list of
ints in [0, p).  `rank_gf2` ranks packed rows.  `FqSpan` tracks an F_q-span
of vectors as the F_p-span of their multiples by an F_p-basis of F_q, on
rows made by `fp_row`; at p = 2 those are packed from element ints.
"""

from __future__ import annotations

import itertools
import operator


def rank_gf2(vectors) -> int:
    """Rank over F_2 of vectors packed as Python ints (bit i = entry i).

    An XOR basis keyed by leading bit: each vector is reduced by the basis
    vector sharing its current top bit until it vanishes or has a new top
    bit, which then joins the basis."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    return len(basis)


def nullspace_mod(matrix, p: int):
    """Basis of {v : M v = 0 (mod p)} for an (m x n) matrix M given as rows:
    each free variable, in increasing column order, set to 1 with the others
    0, and the pivot variables solved by back-substitution.  At p = 2 the
    rows are packed and a pivot variable is the parity of its row's known
    entries."""
    ncols = len(matrix[0])
    span = FpSpan(p, ncols)
    for row in matrix:
        span.add(row if p > 2 else sum(1 << i for i, d in enumerate(row) if d & 1))
    pivot_set = set(span.pivots)
    solve = list(zip(span.rows, span.pivots))[::-1]
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        if p == 2:
            v = 1 << f
            for row, c in solve:
                v |= ((row & v).bit_count() & 1) << c
            v = [v >> i & 1 for i in range(ncols)]
        else:
            v = [0] * ncols
            v[f] = 1
            for row, c in solve:
                v[c] = -sum(map(operator.mul, row, v)) % p
        basis.append(v)
    return basis


class FpSpan:
    """Row space mod p as echelon rows with pivot entry 1, each zero at every
    earlier row's pivot, so one pass in insertion order reduces a vector.
    Vectors and rows are packed ints at p = 2 (entry i at bit i), int lists
    at odd p."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows = []          # echelon rows, each with a recorded pivot column
        self.pivots = []

    def reduce(self, vec):
        p = self.p
        if p == 2:
            v = vec
            for row, c in zip(self.rows, self.pivots):
                if v >> c & 1:
                    v ^= row
            return v
        v = [d % p for d in vec]
        for row, c in zip(self.rows, self.pivots):
            a = v[c]
            if a:
                v = [(d - a * r) % p for d, r in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        v = self.reduce(vec)
        return not (v if self.p == 2 else any(v))

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        v = self.reduce(vec)
        p = self.p
        if p == 2:
            if not v:
                return False
            c = (v & -v).bit_length() - 1           # the first nonzero entry
        else:
            c = next((i for i, d in enumerate(v) if d), None)
            if c is None:
                return False
            s = pow(v[c], -1, p)
            v = [d * s % p for d in v]
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def fp_row(ctx, vec):
    """A vector of elements of the field ctx as an FpSpan row: the digits of
    its i-th element fill entries i*N .. i*N + N - 1.  At p = 2 the element
    ints, which are their packed digits, are shifted into place."""
    N = ctx.N
    if ctx.p == 2:
        return sum(map(operator.lshift, map(ctx.elem_to_int, vec), itertools.count(0, N)))
    return [d for c in vec for d in c]


class FqSpan:
    """The F_q-span of vectors of `length` elements of the field ctx, kept as
    the F_p-span of their multiples by `ctx.fp_basis_of_fq()`, whose first
    member is 1."""

    def __init__(self, ctx, length: int = 1):
        self.ctx = ctx
        self.fp = FpSpan(ctx.p, length * ctx.N)

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span, that is, if vec was
        outside it."""
        ctx = self.ctx
        if not self.fp.add(fp_row(ctx, vec)):
            return False
        for u in ctx.fp_basis_of_fq()[1:]:
            self.fp.add(fp_row(ctx, [ctx.mul(u, c) for c in vec]))
        return True

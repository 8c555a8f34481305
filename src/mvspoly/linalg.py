"""Exact linear algebra over F_p, in plain Python.

Pivot selection is always "first nonzero", so every routine is
deterministic.  `FpSpan` is the one elimination engine: at p = 2 it packs a
row into one Python int (entry i at bit i) and eliminates by XOR, and at odd
p a row is a list of ints in [0, p).  `rank_gf2` ranks rows already packed.
`FqSpan` tracks an F_q-span of vectors of field elements as the F_p-span of
their multiples by an F_p-basis of F_q.
"""

from __future__ import annotations


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
    """Basis of {v : M v = 0 (mod p)} for an (m x n) matrix M, given as a
    list of rows, as a list of length-n vectors read off the reduced echelon
    form.  Free variables are taken in increasing column order."""
    ncols = len(matrix[0])
    span = FpSpan(p, ncols)
    for row in matrix:
        span.add(row)
    pivot_set = set(span.pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(span.rows, span.pivots):
            v[c] = row >> f & 1 if p == 2 else -row[f] % p
        basis.append(v)
    return basis


class FpSpan:
    """Incrementally maintained row space mod p, kept in reduced echelon form:
    packed int rows at p = 2, int lists at odd p."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows = []          # echelon rows, each with a recorded pivot column
        self.pivots = []

    def reduce(self, vec):
        p = self.p
        if p == 2:
            v = sum(1 << i for i, d in enumerate(vec) if d & 1)     # entry i at bit i
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
            self.rows = [row ^ v if row >> c & 1 else row for row in self.rows]
        else:
            c = next((i for i, d in enumerate(v) if d), None)
            if c is None:
                return False
            s = pow(v[c], -1, p)
            v = [d * s % p for d in v]
            self.rows = [[(r - row[c] * d) % p for r, d in zip(row, v)] if row[c] else row
                         for row in self.rows]
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class FqSpan:
    """The F_q-span of vectors of `length` elements of the field ctx, kept as
    the F_p-span of their multiples by `ctx.fp_basis_of_fq()`, whose first
    member is 1."""

    def __init__(self, ctx, length: int = 1):
        self.ctx = ctx
        self.fp = FpSpan(ctx.p, length * ctx.N)

    def _digits(self, vec, u=None):
        if u is not None:
            vec = [self.ctx.mul(u, c) for c in vec]
        return [d for c in vec for d in c]

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span, that is, if vec was
        outside it."""
        if not self.fp.add(self._digits(vec)):
            return False
        for u in self.ctx.fp_basis_of_fq()[1:]:
            self.fp.add(self._digits(vec, u))
        return True

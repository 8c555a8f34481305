"""Exact linear algebra over F_p, in plain Python.

`FpSpan` is the one elimination engine: it keeps echelon rows only, never
rewriting one.  At p = 2 a row is one Python int (entry i at bit i), keyed
by its leading bit; at odd p it is a list of ints in [0, p), keyed by its
first nonzero entry.  So every routine is deterministic.  `fp_kernel` reads
a kernel off the same span.  `FqSpan` tracks an F_q-span of vectors as the
F_p-span of their multiples by an F_p-basis of F_q, on rows made by
`fp_row`; at p = 2 those are packed from element ints.  `fp_elem` reads an
element back off a row, and `fp_sum_at` adds elements packed by `fp_parts`
at offsets, so no caller needs to know which form a row takes.
"""

from __future__ import annotations

import functools
import itertools
import operator


class FpSpan:
    """Row space mod p as echelon rows keyed by pivot column.  At p = 2 the
    pivot is a row's leading bit, and a vector is reduced by the row at its
    current leading bit until it vanishes or leads with a new bit.  At odd p
    the pivot is the first nonzero entry, scaled to 1, and each row is zero
    at every earlier row's pivot, so one pass in insertion order reduces a
    vector."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows = {}          # pivot column -> echelon row

    def reduce(self, vec):
        p = self.p
        if p == 2:
            v = vec
            while v:
                row = self.rows.get(v.bit_length() - 1)
                if row is None:
                    break
                v ^= row
            return v
        v = [d % p for d in vec]
        for c, row in self.rows.items():
            a = v[c]
            if a:
                v = [(d - a * r) % p for d, r in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        p = self.p
        if p == 2:
            rows = self.rows
            v = vec
            while v:
                top = v.bit_length() - 1
                row = rows.get(top)
                if row is None:
                    rows[top] = v
                    return True
                v ^= row
            return False
        v = self.reduce(vec)
        c = next((i for i, d in enumerate(v) if d), None)
        if c is None:
            return False
        s = pow(v[c], -1, p)
        self.rows[c] = [d * s % p for d in v]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def fp_kernel(p: int, width: int, images: list) -> list:
    """F_p-basis of the kernel of the map sending unit vector c to images[c],
    FpSpan rows of `width` entries, as FpSpan rows of len(images) entries.

    Each image goes into one span beside its unit vector (below the image's
    bits at p = 2, after its entries at odd p, so pivots fall in the image
    part), and the unit part of every image that reduces to zero is kept.
    That vector has entry c = 1 and is zero at every other dependent input,
    in increasing c: the basis that back-substitution gives."""
    n = len(images)
    span = FpSpan(p, width + n)
    basis = []
    for c, image in enumerate(images):
        if p == 2:
            v = span.reduce(image << n | 1 << c)
            unit = None if v >> n else v
        else:
            v = span.reduce([*image, *(int(i == c) for i in range(n))])
            unit = None if any(v[:width]) else v[width:]
        if unit is None:
            span.add(v)
        else:
            basis.append(unit)
    return basis


def fp_row(ctx, vec):
    """A vector of elements of the field ctx as an FpSpan row: the digits of
    its i-th element fill entries i*N .. i*N + N - 1.  At p = 2 the element
    ints, which are their packed digits, are shifted into place."""
    N = ctx.N
    if ctx.p == 2:
        return sum(map(operator.lshift, map(ctx.elem_to_int, vec), itertools.count(0, N)))
    return [d for c in vec for d in c]


def fp_elem(ctx, row):
    """The inverse of `fp_row` on a row of one element, entries in [0, p)."""
    return ctx.elem_from_int(row) if ctx.p == 2 else tuple(row)


def fp_parts(ctx, elems) -> list:
    """Each element's own `fp_row`: its int at p = 2, its digits at odd p."""
    return list(map(ctx.elem_to_int, elems)) if ctx.p == 2 else list(elems)


def fp_sum_at(ctx, width: int, parts, offsets):
    """The sum of `fp_parts` at their entry offsets, as a row of `width`
    entries (at odd p, not yet reduced mod p)."""
    if ctx.p == 2:
        return functools.reduce(operator.xor, map(operator.lshift, parts, offsets))
    N = ctx.N
    v = [0] * width
    for c, o in zip(parts, offsets):
        v[o:o + N] = map(operator.add, v[o:o + N], c)
    return v


class FqSpan:
    """The F_q-span of vectors of `length` elements of the field ctx, kept as
    the F_p-span of their multiples by `ctx.fp_basis_of_fq()`, whose first
    member is 1."""

    def __init__(self, ctx, length: int = 1):
        self.ctx = ctx
        self.fp = FpSpan(ctx.p, length * ctx.N)
        self.scales = ctx.fp_basis_of_fq()[1:]

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span, that is, if vec was
        outside it."""
        ctx = self.ctx
        if not self.fp.add(fp_row(ctx, vec)):
            return False
        for u in self.scales:
            self.fp.add(fp_row(ctx, [ctx.mul(u, c) for c in vec]))
        return True

"""Exact linear algebra mod a small prime.

Row vectors are 1-d arrays with entries in [0, p).  Pivot selection is
always "first nonzero", so every routine is deterministic.  At odd p the
work is done on numpy integer arrays.  At p = 2 `nullspace_mod` and `FpSpan`
pack a row into one Python int (entry i at bit i) and eliminate by XOR, and
`rank_gf2` takes rows already packed; numpy is imported on first use, so a
computation over a field of characteristic 2 never loads it.
"""

from __future__ import annotations


def _pack2(vec) -> int:
    """The entries of vec mod 2 as the bits of one int, entry i at bit i."""
    v = 0
    for i, d in enumerate(vec):
        if d & 1:
            v |= 1 << i
    return v


def _as_matrix(rows, p):
    import numpy as np
    arr = np.array(rows, dtype=np.int64) % p
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def rref_mod(rows, p: int):
    """Reduced row echelon form mod p. Returns (matrix, pivot_columns)."""
    import numpy as np
    arr = _as_matrix(rows, p)
    nrows, ncols = arr.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            arr[[r, i]] = arr[[i, r]]
        inv = pow(int(arr[r, c]), p - 2, p)
        arr[r] = (arr[r] * inv) % p
        other = np.nonzero(arr[:, c])[0]
        other = other[other != r]
        if other.size:
            arr[other] = (arr[other] - np.outer(arr[other, c], arr[r])) % p
        pivots.append(c)
        r += 1
    return arr[:r], pivots


def rank_mod(rows, p: int) -> int:
    return rref_mod(rows, p)[0].shape[0]


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
    list of rows, as a list of length-n vectors. Free variables are taken in
    increasing column order."""
    if p == 2:
        return _nullspace_gf2(matrix)
    import numpy as np
    arr = _as_matrix(matrix, p)
    ncols = arr.shape[1]
    red, pivots = rref_mod(arr, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r, f]) % p
        basis.append(v)
    return basis


def _nullspace_gf2(matrix):
    """nullspace_mod at p = 2: the same reduced echelon form, hence the same
    basis, computed on packed rows."""
    ncols = len(matrix[0])
    span = FpSpan(2, ncols)
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
            v[c] = row >> f & 1
        basis.append(v)
    return basis


class FpSpan:
    """Incrementally maintained row space mod p, kept in reduced echelon form:
    numpy rows at odd p, packed int rows at p = 2."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows = []          # echelon rows, each with a recorded pivot column
        self.pivots = []

    def reduce(self, vec):
        if self.p == 2:
            v = _pack2(vec)
            for row, c in zip(self.rows, self.pivots):
                if v >> c & 1:
                    v ^= row
            return v
        import numpy as np
        v = np.array(vec, dtype=np.int64) % self.p
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % self.p
        return v

    def contains(self, vec) -> bool:
        v = self.reduce(vec)
        return not (v if self.p == 2 else v.any())

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        v = self.reduce(vec)
        if self.p == 2:
            if not v:
                return False
            c = (v & -v).bit_length() - 1           # the first nonzero entry
            self.rows = [row ^ v if row >> c & 1 else row for row in self.rows]
        else:
            import numpy as np
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return False
            c = int(nz[0])
            v = (v * pow(int(v[c]), self.p - 2, self.p)) % self.p
            for row in self.rows:
                if row[c]:
                    row -= row[c] * v
                    row %= self.p
        self.rows.append(v)
        self.pivots.append(c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

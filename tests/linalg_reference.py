"""Reference linear algebra mod p on numpy arrays, kept for the tests only.

Dense reduced row echelon form with "first nonzero" pivots, written
independently of `mvspoly.linalg`, which the tests check against it.
"""

import numpy as np


def rref_mod(rows, p: int):
    """Reduced row echelon form mod p. Returns (matrix, pivot_columns)."""
    arr = np.array(rows, dtype=np.int64) % p
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
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


def nullspace(rows, p):
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

"""Reference field routines, kept for the tests only.

- `solve_power_scan`: `FieldCtx.solve_power` as a scan, the form it had on
  a field without tables: the powers of the first multiplicative generator
  in canonical order, in turn, until one is an e-th root of alpha.
"""

from mvspoly.errors import InputError
from mvspoly.gf import prime_factors


def first_generator(ctx):
    """The first element in canonical order whose powers fill the group."""
    M = ctx.Q - 1
    primes = prime_factors(M)
    for v in range(1, ctx.Q):
        a = ctx.elem_from_int(v)
        if all(ctx.pow_elem(a, M // r) != ctx.one for r in primes):
            return a
    raise AssertionError("no multiplicative generator")


def solve_power_scan(ctx, alpha, e: int):
    """The first power g^j, j = 0, 1, ..., with (g^j)^e = alpha, or None."""
    if alpha == ctx.zero:
        raise InputError("solve_power needs a nonzero target")
    if e < 1:
        raise InputError("exponent must be positive")
    gen = first_generator(ctx)
    cur = ctx.one
    for _ in range(ctx.Q - 1):
        if ctx.pow_elem(cur, e) == alpha:
            return cur
        cur = ctx.mul(cur, gen)
    return None

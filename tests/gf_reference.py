"""Reference field routines, kept for the tests only.

- `solve_power_scan`: `FieldCtx.solve_power` as a scan, the form it had on
  a field without tables: the powers of the first multiplicative generator
  in canonical order, in turn, until one is an e-th root of alpha.
- `find_modulus_rabin`: the modulus search with Rabin's test alone, no
  small-factor screen, over the prime field without tables, each power
  x^(p^m) mod f taken afresh.
- `subfield_elements_scan`, `subfield_basis_scan` and `fp_basis_of_fq_trace`:
  the subfield routines as they were before the subfields were read off the
  zeros of x^(q^d) - x: a Frobenius scan of the whole field, a greedy pass
  over that scan in canonical order, and the new traces of the units.
"""

import itertools

from mvspoly import poly
from mvspoly.errors import InputError
from mvspoly.gf import PlainField, prime_factors
from mvspoly.linalg import FpSpan, FqSpan, fp_row


def is_irreducible_rabin(fp, coeffs) -> bool:
    """Rabin's test for a monic f over the prime field fp, of degree n >= 2
    with f(0) != 0: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for
    every prime r | n."""
    f = {e: (c,) for e, c in enumerate(coeffs) if c}
    n = len(coeffs) - 1
    x = poly.x_poly(fp)
    if poly.x_pow_p_mod(fp, f, n) != x:
        return False
    for r in prime_factors(n):
        if poly.degree(poly.gcd(fp, f, poly.sub(fp, poly.x_pow_p_mod(fp, f, n // r), x))):
            return False
    return True


def find_modulus_rabin(p: int, n: int) -> tuple:
    """The lexicographically least monic irreducible of degree n over F_p,
    candidates (c_0, ..., c_{n-1}) compared low-degree digit first."""
    if n == 1:
        return (0, 1)
    fp = PlainField(p, 1, 1)
    for idx in range(p ** (n - 1), p ** n):     # idx has c_0 != 0 as its leading digit
        coeffs = tuple(idx // p ** (n - 1 - i) % p for i in range(n)) + (1,)
        if is_irreducible_rabin(fp, coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found")


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


def subfield_elements_scan(ctx, d: int) -> list:
    """Every element that the d-th power of the q-Frobenius fixes, in
    canonical order."""
    if ctx.n % d != 0:
        raise InputError(f"d = {d} does not divide n = {ctx.n}")
    out = [a for a in ctx.elements() if ctx.frobenius(a, d) == a]
    assert len(out) == ctx.q ** d
    return out


def _first_independent(add, candidates, size: int) -> list:
    """The first `size` candidates that enlarge the span behind `add`."""
    basis = list(itertools.islice(filter(add, candidates), size))
    assert len(basis) == size
    return basis


def subfield_basis_scan(ctx, d: int) -> list:
    """The first elements of `subfield_elements_scan` that are F_q-independent
    of those before them, scanned only as far as the last of them."""
    span = FqSpan(ctx)
    fixed = (a for a in ctx.elements() if ctx.frobenius(a, d) == a)
    return _first_independent(lambda a: span.add((a,)), fixed, d)


def fp_basis_of_fq_trace(ctx) -> list:
    """F_p-basis of F_q: 1, then the new traces sum_{i<n} (y^j)^(q^i), j < N,
    as the trace maps F_p-linearly onto F_q."""
    traces = (ctx.sum([ctx.frobenius(ctx.elem_from_int(ctx.p ** j), i) for i in range(ctx.n)])
              for j in range(ctx.N))
    span = FpSpan(ctx.p, ctx.N)
    return _first_independent(lambda a: span.add(fp_row(ctx, (a,))),
                              itertools.chain([ctx.one], traces), ctx.k)

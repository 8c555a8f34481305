"""Reference twisted-ring routines, kept for the tests only.

- `tau_compose_pairwise`: the coefficients of A(B(x)) summed coefficient
  pair by coefficient pair with `ctx.mul`, `ctx.frobenius_p` and `ctx.add`,
  the form `mvspoly.linearized.tau_compose` had before it read the product
  off `apply_poly`.
"""

from mvspoly.errors import InputError
from mvspoly.linearized import AdditivePoly, make


def tau_compose_pairwise(ctx, a: AdditivePoly, b: AdditivePoly) -> AdditivePoly:
    """Coefficients of A(B(x)): (A o B)_l = sum_{i+j=l} a_i * b_j^(p^(base*i))."""
    if a.base != b.base:
        raise InputError("compose needs matching additivity levels")
    if a.is_zero() or b.is_zero():
        return AdditivePoly(a.base, ())
    out = [ctx.zero] * (a.tau_deg() + b.tau_deg() + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == ctx.zero:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj == ctx.zero:
                continue
            out[i + j] = ctx.add(out[i + j], ctx.mul(ai, ctx.frobenius_p(bj, a.base * i)))
    return make(ctx, a.base, out)

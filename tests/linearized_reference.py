"""Reference twisted-ring routines, kept for the tests only.

- `tau_compose_pairwise`: the coefficients of A(B(x)) summed coefficient
  pair by coefficient pair with `ctx.mul`, `ctx.frobenius_p` and `ctx.add`,
  the form `mvspoly.linearized.tau_compose` had before it read the product
  off `apply_poly`.
- `tau_to_text_termwise`: the tau form "c2*T^2 + c1*T + c0" written term by
  term, the form `mvspoly.linearized.tau_to_text` had before it wrote the
  terms with `poly.to_text`.
"""

from mvspoly.errors import InputError
from mvspoly.linearized import AdditivePoly, as_context_base, make


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


def tau_to_text_termwise(ctx, a: AdditivePoly) -> str:
    """A at the context level q, highest tau power first, zero terms left
    out and a unit coefficient left unwritten except on the constant."""
    aq = as_context_base(ctx, a)
    if aq.is_zero():
        return "0"
    parts = []
    for i in range(aq.tau_deg(), -1, -1):
        c = aq.coeffs[i]
        if c == ctx.zero:
            continue
        cs = ctx.format_elem(c)
        if i == 0:
            parts.append(cs)
        else:
            ts = "T" if i == 1 else f"T^{i}"
            parts.append(ts if c == ctx.one else f"{cs}*{ts}")
    return " + ".join(parts)

"""Reference polynomial composition, kept for the tests only.

Horner's rule over f's exponents in decreasing order, the gaps bridged with
`poly.pow_`: the form `mvspoly.poly.compose` had before it summed base-p
powers of g, which the tests check it against.
"""

from mvspoly.poly import add, const, mul, pow_


def compose_horner(ctx, f: dict, g: dict) -> dict:
    """f(g(x)) by Horner steps; the gaps are bridged with base-p powers of g."""
    if not f:
        return {}
    exps = sorted(f, reverse=True)
    out = const(ctx, f[exps[0]])
    prev = exps[0]
    for e in exps[1:]:
        out = mul(ctx, out, pow_(ctx, g, prev - e))
        out = add(ctx, out, const(ctx, f[e]))
        prev = e
    if prev:
        out = mul(ctx, out, pow_(ctx, g, prev))
    return out

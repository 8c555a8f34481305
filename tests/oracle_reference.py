"""Reference routines of the oracle layer, kept for the tests only.

- `operator_rank_dense`: `mvspoly.oracle._operator_rank` as it was before
  the operator was split into blocks: every column u*x^e, e <= D, goes into
  one FpSpan over every exponent the operator touches.  It builds its own
  exponent layout and keeps nothing on the context.
"""

from mvspoly.linalg import FpSpan, fp_parts, fp_sum_at


def operator_rank_dense(ctx, aq, theta, D) -> int:
    """F_p-rank of F -> A(F) - theta*(x^Q - x)*F' on the F_p-basis u*x^e
    (u = y^j, 0 <= e <= D), one column per (e, u), in one span.

    With s = e mod p and theta = -c_0, u*x^e maps to (c_0 + s*theta)*u*x^e
    + sum_{i >= 1} c_i*u^(p^(base*i))*x^(e*p^(base*i)) - s*theta*u*x^(Q+e-1).
    The digits at the k-th distinct exponent are entries k*N .. k*N + N - 1,
    and coefficients at a repeated exponent add."""
    p, N = ctx.p, ctx.N
    terms = [(i, c) for i, c in enumerate(aq.coeffs) if c != ctx.zero]
    steps = [p ** (aq.base * i) for i, _ in terms]
    pos = {}
    layout = []
    for e in range(D + 1):
        exps = [e * m for m in steps]
        if e % p:
            exps.append(ctx.Q + e - 1)
        layout.append((e % p, [N * pos.setdefault(x, len(pos)) for x in exps]))
    width = len(pos) * N
    images = [ctx.unit_images(aq.base * i) for i, _ in terms]
    per_unit = []
    for j in range(N):
        a_u = [ctx.mul(c, im[j]) for (_, c), im in zip(terms, images)]
        theta_u = ctx.mul(theta, images[0][j])
        parts = fp_parts(ctx, a_u)
        by_s = [parts]
        for s in range(1, p):
            su = ctx.smul(s, theta_u)
            first, last = fp_parts(ctx, (ctx.add(a_u[0], su), ctx.neg(su)))
            by_s.append([first, *parts[1:], last])
        per_unit.append(by_s)
    span = FpSpan(p, width)
    for s, offsets in layout:
        for unit in per_unit:
            span.add(fp_sum_at(ctx, width, unit[s], offsets))
    return span.rank

"""Reference routines of the mvsp layer, kept for the tests only.

- `mills_check_composing`: `mvspoly.mvsp.mills_check` as it was before the
  identity at x = 0 and the forced theta were checked ahead of composing
  T(F): after the degree equation it always composes T(F), and it reads
  theta off the top coefficient of T(F).  A constant is decided by
  evaluating T at it, and a member's value set is T's roots found by a scan
  of the field.
- `affine_equivalent`: the first affine substitution taking F to G, by a
  scan of the field.  It calls `poly.compose` through the module, so a
  test can swap the composition routine under it.
"""

from mvspoly import linearized as lin
from mvspoly import poly
from mvspoly.errors import GuardError
from mvspoly.mvsp import MvspReport, validate_value_poly


def mills_check_composing(ctx, F: dict, T: dict) -> MvspReport:
    vp = validate_value_poly(ctx, T)
    dT = poly.degree(T)
    dF = poly.degree(F)
    if dF is poly.NEG_INF or dF == 0:
        c = F.get(0, ctx.zero)
        member = poly.eval_at(ctx, T, c) == ctx.zero
        return MvspReport(is_mvsp=False, value_set=frozenset({c}), deg=0,
                          bound=None, theta=None, theta_candidates=vp.thetas,
                          is_member=member,
                          reason="" if member else "constant is not a root")
    bound = (ctx.Q - 1) // dF + 1
    dFpoly = poly.derivative(ctx, F)
    dFp = poly.degree(dFpoly)
    if dFp is poly.NEG_INF or dT * dF != ctx.Q + dFp:
        return MvspReport(is_mvsp=False, value_set=None, deg=dF, bound=bound,
                          theta=None, theta_candidates=vp.thetas, is_member=False,
                          reason="value set mismatch")
    lhs = (lin.apply_poly(ctx, vp.additive, F) if vp.additive is not None
           else poly.compose(ctx, T, F))
    theta = ctx.div(lhs.get(ctx.Q + dFp, ctx.zero), dFpoly[dFp])
    if theta != ctx.zero and theta in vp.thetas:
        rhs = {e + ctx.Q: ctx.mul(theta, c) for e, c in dFpoly.items()}
        rhs.update([(e + 1 - ctx.Q, ctx.neg(v)) for e, v in rhs.items()])
        if lhs == rhs:
            return MvspReport(is_mvsp=True, value_set=frozenset(poly.roots(ctx, T)), deg=dF,
                              bound=bound, theta=theta, theta_candidates=vp.thetas,
                              is_member=True)
    return MvspReport(is_mvsp=False, value_set=None, deg=dF, bound=bound,
                      theta=None, theta_candidates=vp.thetas, is_member=False,
                      reason="value set mismatch")


def affine_equivalent(ctx, F: dict, G: dict):
    """First (a, b) in canonical scan order with G = F(ax + b), or None."""
    if poly.degree(F) != poly.degree(G):
        return None
    if ctx.Q > 4096:
        raise GuardError("affine search refused above 4096 elements")
    for a in ctx.elements():
        if a == ctx.zero:
            continue
        for b in ctx.elements():
            inner = {1: a} if b == ctx.zero else {1: a, 0: b}
            if poly.compose(ctx, F, inner) == G:
                return a, b
    return None

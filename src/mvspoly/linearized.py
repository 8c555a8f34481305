"""q-additive (linearized) polynomials in twisted form.

An AdditivePoly stores sum_i c_i x^(p^(base*i)) as the coefficient vector
(c_0, ..., c_m) together with its additivity level `base`, so the same value
can be read at any coarser level that divides `base`.  Composition of
additive polynomials is multiplication in the twisted ring with tau*c =
c^(p^base)*tau, which admits a left Euclidean division; that division is the
constructive engine behind every binomial factorization used here:

    x^(q^d) - alpha*x = gamma * A(M(x)).

The zeros of A are the nullspace of A as an F_p-linear map (fp_nullspace),
found by `FieldCtx.additive_zeros`, the one kernel routine that also reads
off each subfield as the zeros of x^(q^d) - x; `FieldCtx.span_elements`
lists them.  A is applied to a list of polynomials by `apply_each`, one
`FieldCtx.fold_each` on A's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import poly
from .errors import InputError
from .gf import power_exceeds
from .linalg import FqSpan


@dataclass(frozen=True)
class AdditivePoly:
    base: int          # exponents are p^(base*i)
    coeffs: tuple      # field elements; index i multiplies x^(p^(base*i))

    def tau_deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def _trim(coeffs, zero):
    cs = list(coeffs)
    while cs and cs[-1] == zero:
        cs.pop()
    return tuple(cs)


def make(ctx, base: int, coeffs) -> AdditivePoly:
    return AdditivePoly(base, _trim(coeffs, ctx.zero))


def to_sparse(ctx, a: AdditivePoly) -> dict:
    out = {}
    for i, c in enumerate(a.coeffs):
        if c != ctx.zero:
            out[ctx.p ** (a.base * i)] = c
    return out


def detect_additive(ctx, f: dict) -> AdditivePoly | None:
    """Additive form of f with the largest valid level: every exponent must
    be a power of p and the level is the gcd of the exponent logs.  A pure
    c*x polynomial is additive at every level; it gets the full level N."""
    if not f:
        return AdditivePoly(ctx.k, ())
    logs = {}
    for e, c in f.items():
        if e <= 0:
            return None
        m, ee = 0, e
        while ee % ctx.p == 0:
            ee //= ctx.p
            m += 1
        if ee != 1:
            return None
        logs[m] = c
    base = math.gcd(*logs) or ctx.N
    coeffs = [ctx.zero] * (max(logs) // base + 1)
    for m, c in logs.items():
        coeffs[m // base] = c
    return AdditivePoly(base, tuple(coeffs))


def rebase(ctx, a: AdditivePoly, new_base: int) -> AdditivePoly:
    """Rewrite at a coarser level; new_base must divide base."""
    if a.is_zero():
        return AdditivePoly(new_base, ())
    if a.base == new_base:
        return a
    if a.base % new_base != 0:
        raise InputError(f"cannot rebase level {a.base} to {new_base}")
    step = a.base // new_base
    coeffs = [ctx.zero] * (a.tau_deg() * step + 1)
    for i, c in enumerate(a.coeffs):
        coeffs[i * step] = c
    return AdditivePoly(new_base, tuple(coeffs))


def as_context_base(ctx, a: AdditivePoly) -> AdditivePoly:
    """The q-additive form (level = k); fails if the levels do not align."""
    if a.base == ctx.k:
        return a
    if not a.is_zero() and a.base % ctx.k != 0:
        raise InputError("polynomial is not additive at the context base q")
    return rebase(ctx, a, ctx.k)


def apply_poly(ctx, a: AdditivePoly, f: dict) -> dict:
    """A(f), through `apply_each`."""
    return apply_each(ctx, a, (f,))[0]


def apply_each(ctx, a: AdditivePoly, fs) -> list:
    """[A(f) for f in fs], A(f) = sum_i c_i * f^(p^m), m = base*i, as one
    `ctx.fold_each` of the fs' terms twisted by p^m and scaled by c_i: the
    fold rows are built and prepared once, and one exponent check covers
    the largest degree."""
    rows = [(0, c, a.base * i) for i, c in enumerate(a.coeffs) if c != ctx.zero]
    if rows:
        poly.check_exponent(max(map(max, filter(None, fs)), default=0) * ctx.p ** rows[-1][2])
    return ctx.fold_each(fs, rows)


def tau_compose(ctx, a: AdditivePoly, b: AdditivePoly) -> AdditivePoly:
    """Coefficients of A(B(x)), (A o B)_l = sum_{i+j=l} a_i * b_j^(p^(base*i)),
    read off `apply_poly` at the level of A and B."""
    if a.base != b.base:
        raise InputError("compose needs matching additivity levels")
    ab = apply_poly(ctx, a, to_sparse(ctx, b))
    return make(ctx, a.base, [ab.get(ctx.p ** (a.base * l), ctx.zero)
                              for l in range(a.tau_deg() + b.tau_deg() + 1)])


def tau_left_divide(ctx, c: AdditivePoly, a: AdditivePoly):
    """M, R with C = A(M(x)) + R and tau-deg R < tau-deg A.

    Each elimination step solves for the top coefficient of M through an
    inverse Frobenius: m_s = (c_top / a_t)^(p^(-base*t))."""
    if a.is_zero():
        raise InputError("left division by the zero polynomial")
    if c.base != a.base:
        raise InputError("division needs matching additivity levels")
    base = a.base
    t = a.tau_deg()
    at = a.coeffs[t]
    r = list(c.coeffs)
    if len(r) - 1 < t:
        return AdditivePoly(base, ()), AdditivePoly(base, _trim(r, ctx.zero))
    m = [ctx.zero] * (len(r) - t)
    for s in range(len(r) - 1 - t, -1, -1):
        top = r[t + s]
        if top == ctx.zero:
            continue
        ms = ctx.frobenius_p(ctx.div(top, at), -base * t)
        m[s] = ms
        for i, ai in enumerate(a.coeffs):
            if ai == ctx.zero:
                continue
            r[i + s] = ctx.sub(r[i + s], ctx.mul(ai, ctx.frobenius_p(ms, base * i)))
        assert r[t + s] == ctx.zero
    return make(ctx, base, m), make(ctx, base, r[:t])


def kernel(ctx, a: AdditivePoly):
    """(basis, t): an F_q-basis of the root space inside F_{q^n}, via the
    nullspace of A as an F_p-linear map, which is one when q = p, and
    otherwise the greedy pass of `FieldCtx.subfield_basis` over it: the
    zeros that enlarge an FqSpan, in order."""
    aq = as_context_base(ctx, a)
    if aq.is_zero():
        raise InputError("kernel of the zero polynomial")
    null = fp_nullspace(ctx, aq)
    if ctx.k == 1:
        return null, len(null)          # at q = p an F_p-basis is an F_q-basis
    span = FqSpan(ctx)
    basis = [w for w in null if span.add((w,))]
    assert len(null) == len(basis) * ctx.k
    return basis, len(basis)


def fp_nullspace(ctx, a: AdditivePoly) -> list:
    """F_p-basis of the zeros of A in the ambient field (`FieldCtx.additive_zeros`),
    the same at every level A is read at."""
    return ctx.additive_zeros([(a.base * i, c) for i, c in enumerate(a.coeffs) if c != ctx.zero])


STAR_REFUSAL = "lift pipeline needs a monic split separable A of degree > 2"


def subspace_poly(ctx, vectors) -> AdditivePoly:
    """Monic q-additive polynomial of degree q^len(vectors) vanishing exactly
    on the F_q-span of the given independent list."""
    m = AdditivePoly(ctx.k, (ctx.one,))          # x
    for v in vectors:
        val = poly.eval_at(ctx, to_sparse(ctx, m), v)
        if val == ctx.zero:
            raise InputError("subspace generators are F_q-dependent")
        # M^q - val^(q-1) * M, which vanishes at v and on the old span
        fac = ctx.pow_elem(val, ctx.q - 1)
        m = tau_compose(ctx, AdditivePoly(ctx.k, (ctx.neg(fac), ctx.one)), m)
    return m


def binomial(ctx, d: int, alpha) -> AdditivePoly:
    """x^(q^d) - alpha*x at the context level."""
    coeffs = [ctx.zero] * (d + 1)
    coeffs[0] = ctx.neg(alpha)
    coeffs[d] = ctx.one
    return AdditivePoly(ctx.k, tuple(coeffs))


def binomial_admissible(ctx, d: int, alpha) -> bool:
    """Does x^(q^d) - alpha*x have degree > 2, or is it the base-field
    binomial x^2 - x, which the subfield-valued theory admits at q = 2?"""
    if ctx.q ** d > 2:
        return True
    return ctx.q ** d == 2 and alpha == ctx.one


def minimal_binomial_multiple(ctx, null):
    """Least d | n with an alpha making A divide x^(q^d) - alpha*x while the
    binomial still splits, for null an F_p-basis of the roots of a split
    additive A; alpha = rho^(q^d - 1) for any nonzero root rho, checked
    consistent across the basis (the condition b^(q^d) = alpha*b is
    F_p-linear in b)."""
    rho = null[0]
    for d in sorted(d for d in range(1, ctx.n + 1) if ctx.n % d == 0):
        alpha = ctx.pow_elem(rho, ctx.q ** d - 1)
        if not binomial_admissible(ctx, d, alpha):
            continue
        if all(ctx.frobenius(b, d) == ctx.mul(alpha, b) for b in null):
            return d, alpha
    raise AssertionError("d = n always admits alpha = 1")


@dataclass(frozen=True)
class LiftWitness:
    """x^(q^d) - alpha*x = gamma * A(M(x)), with deg A = q^t, deg M = q^(d-t)."""
    d: int
    alpha: tuple
    M: AdditivePoly
    gamma: tuple
    t: int


def factor_through_binomial(ctx, aq: AdditivePoly, d: int, alpha) -> LiftWitness:
    """Solve x^(q^d) - alpha*x = gamma * A(M(x)) constructively, for aq a
    split additive A at the context level (mvsp.split_additive).

    The problem is first scaled monic with a beta satisfying
    beta^(q^d - 1) = alpha, solved by twisted left division, then unscaled;
    the witness identity is verified by full expansion before returning."""
    t = aq.tau_deg()
    beta = ctx.solve_power(alpha, ctx.q ** d - 1)
    if beta is None:
        raise InputError("alpha is not a (q^d - 1)-th power; the binomial does not split")
    M1 = ctx.Q - 1
    qt = ctx.q ** t
    # B = beta^(-q^t) * A(beta x): b_i = a_i * beta^(q^i - q^t)
    bcoeffs = []
    for i, ai in enumerate(aq.coeffs):
        e = (ctx.q ** i - qt) % M1
        bcoeffs.append(ctx.mul(ai, ctx.pow_elem(beta, e)))
    b = make(ctx, ctx.k, bcoeffs)
    target = binomial(ctx, d, ctx.one)
    ell, rem = tau_left_divide(ctx, target, b)
    if not rem.is_zero():
        raise InputError("A does not divide x^(q^d) - alpha*x")
    mcoeffs = [ctx.mul(li, ctx.pow_elem(beta, (1 - ctx.q ** i) % M1))
               for i, li in enumerate(ell.coeffs)]
    m = make(ctx, ctx.k, mcoeffs)
    gamma = ctx.pow_elem(beta, (ctx.q ** d - qt) % M1)
    witness = LiftWitness(d=d, alpha=alpha, M=m, gamma=gamma, t=t)
    verify_witness(ctx, aq, witness)
    return witness


def verify_witness(ctx, a: AdditivePoly, w: LiftWitness) -> None:
    if w.M.tau_deg() != w.d - w.t:
        raise AssertionError("witness degree mismatch")
    expanded = poly.scale(ctx, apply_poly(ctx, a, to_sparse(ctx, w.M)), w.gamma)
    if expanded != to_sparse(ctx, binomial(ctx, w.d, w.alpha)):
        raise AssertionError("witness expansion failed")
    # M must split with all roots inside the root space of the binomial
    # (for alpha = 1 that space is F_{q^d} itself; otherwise it is the
    # scaled line beta*F_{q^d}).  The division cannot enforce this, so it
    # is checked after the fact; a failure means a broken context, not data.
    basis, t_m = kernel(ctx, w.M)
    if ctx.q ** t_m != ctx.p ** (w.M.base * w.M.tau_deg()):
        raise AssertionError("factor M does not split over the ambient field")
    if any(ctx.frobenius(v, w.d) != ctx.mul(w.alpha, v) for v in basis):
        raise AssertionError("factor M has roots outside the binomial root space")


# ---------------------------------------------------------------------------
# tau-form text: "c2*T^2 + c1*T + c0"
# ---------------------------------------------------------------------------

def tau_to_text(ctx, a: AdditivePoly) -> str:
    """A at the context level q as `poly.to_text` writes sum c_i x^i, in T:
    no coefficient text holds an x."""
    coeffs = as_context_base(ctx, a).coeffs
    terms = {i: c for i, c in enumerate(coeffs) if c != ctx.zero}
    return poly.to_text(ctx, terms).replace("x", "T")


def tau_from_text(ctx, s: str) -> AdditivePoly:
    if "x" in s:
        raise InputError(f"{s!r}: twisted form is written in T, not x")
    f = poly.from_text(ctx, s.replace("T", "x"))
    if f and power_exceeds(ctx.q, max(f), poly.EXP_LIMIT):
        raise InputError(f"{s!r}: a term T^e has degree q^e beyond 2^62")
    coeffs = [ctx.zero] * (max(f) + 1 if f else 0)
    for e, c in f.items():
        coeffs[e] = c
    return make(ctx, ctx.k, coeffs)

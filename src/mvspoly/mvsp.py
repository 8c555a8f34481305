"""Verification and classification of minimal value set polynomials.

The two faces of the theory live here side by side:

- is_minimal evaluates F on the whole field and compares |V_F| against
  floor((Q-1)/deg F) + 1; it is the slow, assumption-free ground truth.
- mills_check tests the polynomial identity T(F) = theta*(x^Q - x)*F' for
  theta among -T'(gamma) over the roots gamma of T; by the Mills criterion
  this holds exactly when F is a minimal value set polynomial whose value
  set is the root set of T.  Before it composes T(F), it refuses F that
  fail the degree equation, the identity at x = 0 (T(F(0)) = 0), or its
  top term, which forces theta = lc(F)^deg T / lc(F') among the candidates.
  These cost a few field operations where T(F) costs thousands.  The test
  itself is one core, `mills_core`, which takes a list of polynomials and
  the checked ValuePoly, which carries T, and answers each with a cause
  code (MILLS_CAUSES) or None for a member; the polynomials that pass the
  refusals are composed in one pass.  mills_check reports the core's
  answer on a list of one, for a T read from text; every caller that
  already holds the checked ValuePoly calls the core with it.

Everything else (additive reductions, power lifts, low degree normal forms,
root profiles) is built from those two.  All of it reads T through
validate_value_poly, the one check of the standing hypothesis.  For an
additive T that check needs only T's kernel basis, and T's roots are listed
on first read, by a test of root membership or a caller that prints or
walks them; a non-member that fails the degree equation lists none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import linearized as lin
from . import poly
from .errors import GuardError, InputError
from .gf import TABLE_LIMIT


@dataclass(frozen=True)
class MvspReport:
    is_mvsp: bool
    value_set: frozenset | None
    deg: int
    bound: int | None
    theta: tuple | None
    theta_candidates: tuple
    is_member: bool
    reason: str = ""


@dataclass(frozen=True)
class ReductionWitness:
    """T(x^v + gamma) / x^(v-1) is the additive polynomial A at level base."""
    v: int
    base: int
    gamma: tuple
    A: lin.AdditivePoly


@dataclass(frozen=True)
class FormWitness:
    shape: str          # "linearized_power" or "sqrt_plus_one_power"
    alpha: tuple
    v: int
    gamma: tuple
    L: dict             # the inner polynomial (monic), or x + beta for the sqrt shape
    beta: tuple | None = None


# ---------------------------------------------------------------------------
# value polynomial validation (cached per context)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValuePoly:
    """A value polynomial T that satisfies the standing hypothesis, with its
    theta candidates -T'(root) in canonical order.  When T is additive,
    `additive` is T as an AdditivePoly, at the context level q when T is
    additive there (then its tau-degree t has q^t = deg T), and `null` an
    F_p-basis of its roots; otherwise None and (), and `scanned` holds the
    roots that the candidates were read from.  `roots`, in canonical order,
    and `root_set`, the value set of every member, are made on first read
    and kept: for an additive T the span of `null` is listed only then, and
    refused above 2^20 roots.  T is a copy of the polynomial checked."""
    ctx: object
    T: dict
    thetas: tuple
    additive: lin.AdditivePoly | None
    null: tuple = ()
    scanned: tuple = ()

    @functools.cached_property
    def roots(self) -> tuple:
        return self.scanned if self.additive is None else self.ctx.span_elements(self.null)

    @functools.cached_property
    def root_set(self) -> frozenset:
        return frozenset(self.roots)


def validate_value_poly(ctx, T: dict) -> ValuePoly:
    """Check the standing hypothesis on T: monic, separable, degree > 2,
    splits over the field.  The quadratic x^2 - x is admitted when q = 2,
    which the subfield-valued theory needs.  This is the one place that
    decides the hypothesis.  A checked T is kept on the context, so repeated
    requests skip the root search; a refusal is not kept and costs no root
    search."""
    return ctx.memo(("value_poly", frozenset(T.items())), lambda: _check_value_poly(ctx, T))


def _check_value_poly(ctx, T):
    d = poly.degree(T)
    if d is poly.NEG_INF or d < 1:
        raise InputError("value polynomial must be nonconstant")
    if poly.lc(ctx, T) != ctx.one:
        raise InputError("value polynomial must be monic")
    carve_out = (ctx.q == 2 and T == {2: ctx.one, 1: ctx.one})
    if d <= 2 and not carve_out:
        raise InputError("value polynomial must have degree > 2 "
                         "(only x^2 - x at q = 2 is admitted)")
    if d > ctx.Q:
        raise InputError("value polynomial degree exceeds the field size")
    not_split = "value polynomial does not split into distinct roots over the field"
    additive = lin.detect_additive(ctx, T)
    if additive is not None:
        # the distinct roots of T are the nullspace of T as an F_p-linear
        # map, so T splits into distinct roots exactly when they number deg T;
        # then T' = c_0 is nonzero
        null = lin.fp_nullspace(ctx, additive)
        if ctx.p ** len(null) != d:
            raise InputError(not_split)
        if additive.base % ctx.k == 0:
            additive = lin.as_context_base(ctx, additive)
        return ValuePoly(ctx, dict(T), (ctx.neg(T[1]),), additive, null=tuple(null))
    if poly.degree(poly.field_gcd(ctx, T)) != d:
        raise InputError(not_split)
    roots = poly.roots(ctx, T)
    assert len(roots) == d
    dT = poly.derivative(ctx, T)
    thetas = dict.fromkeys(ctx.neg(poly.eval_at(ctx, dT, r)) for r in roots)  # first-seen order
    return ValuePoly(ctx, dict(T), tuple(thetas), None, scanned=roots)


def split_additive(ctx, a: lin.AdditivePoly, refusal: str, admit_quadratic=False):
    """The checked value polynomial of a q-additive A, whose `additive` is A
    at the context level q.  InputError(refusal) when A fails the standing
    hypothesis, or has degree 2 and admit_quadratic is False; as_context_base
    refuses an A that is not additive at the context level q."""
    T = lin.to_sparse(ctx, lin.as_context_base(ctx, a))
    try:
        vp = validate_value_poly(ctx, T)
    except InputError:
        raise InputError(refusal) from None
    if ctx.p ** len(vp.null) <= 2 and not admit_quadratic:
        raise InputError(refusal)
    return vp


# ---------------------------------------------------------------------------
# the two membership tests
# ---------------------------------------------------------------------------

def is_minimal(ctx, F: dict) -> MvspReport:
    """Exhaustive minimality test: evaluate F everywhere."""
    d = poly.degree(F)
    if d is poly.NEG_INF or d < 1:
        raise InputError("minimality is defined for nonconstant polynomials")
    vs = poly.value_set(ctx, F)
    bound = (ctx.Q - 1) // d + 1
    ok = len(vs) == bound
    return MvspReport(is_mvsp=ok, value_set=vs, deg=d, bound=bound,
                      theta=None, theta_candidates=(), is_member=ok,
                      reason="" if ok else "value set larger than the bound")


# the cause `mills_core` gives for each way a polynomial fails, and the
# reason `mills_check` reports for it
MILLS_CAUSES = {
    "constant_not_root": "constant is not a root",
    "degree_equation": "value set mismatch",       # deg T * deg F != Q + deg F', or F' = 0
    "zero_value_not_root": "value set mismatch",   # T(F(0)) != 0
    "theta_not_candidate": "value set mismatch",   # the forced theta is no -T'(root)
    "identity_fails": "value set mismatch",
}


def mills_core(ctx, Fs, vp: ValuePoly) -> list:
    """The Mills test of each F in Fs against the checked value polynomial
    T = vp.T: (None, theta) for a member, theta the forced one (None for a
    constant), and (cause, None) for a non-member, cause a key of
    MILLS_CAUSES.

    A constant is a member exactly when it is a root of T.  For nonconstant
    F the polynomial identity is tested exactly, after three checks refuse
    hopeless inputs before any composition: the degree equation
    deg T * deg F = Q + deg F'; the identity at x = 0, T(F(0)) = 0; and its
    top term, which forces theta = lc(F)^deg T / lc(F') to be one of the
    candidates.  Every F that passes them is composed in one pass: one
    `linearized.apply_each` when T is additive, one `poly.compose` each
    otherwise."""
    dT = poly.degree(vp.T)
    out = []
    fs, passed = [], []                 # each F to compose, and its (index in out, F', theta)
    for F in Fs:
        dF = poly.degree(F)
        if dF is poly.NEG_INF or dF == 0:
            out.append(((None if F.get(0, ctx.zero) in vp.root_set else "constant_not_root"),
                        None))
            continue
        dFpoly = poly.derivative(ctx, F)
        dFp = poly.degree(dFpoly)
        if dFp is poly.NEG_INF or dT * dF != ctx.Q + dFp:
            out.append(("degree_equation", None))
            continue
        poly.check_exponent(dT * dF)        # the refusal composing T(F) would raise
        if F.get(0, ctx.zero) not in vp.root_set:
            out.append(("zero_value_not_root", None))
            continue
        # T is monic, so T(F) has the top term lc(F)^deg T * x^(Q + deg F'),
        # nonzero; theta is forced by it, and then checked everywhere
        theta = ctx.div(ctx.pow_elem(F[dF], dT), dFpoly[dFp])
        if theta not in vp.thetas:
            out.append(("theta_not_candidate", None))
            continue
        fs.append(F)
        passed.append((len(out), dFpoly, theta))
        out.append(None)
    if not fs:
        return out
    lhss = (lin.apply_each(ctx, vp.additive, fs) if vp.additive is not None
            else [poly.compose(ctx, vp.T, F) for F in fs])
    for (i, dFpoly, theta), lhs in zip(passed, lhss):
        # theta*(x^Q - x)*F' term by term: the degree equation with deg T >= 2
        # gives deg F' + 1 <= deg F <= Q - 1, so its two halves never meet
        rhs = {e + ctx.Q: ctx.mul(theta, c) for e, c in dFpoly.items()}
        rhs.update([(e + 1 - ctx.Q, ctx.neg(v)) for e, v in rhs.items()])
        out[i] = (None, theta) if lhs == rhs else ("identity_fails", None)
    return out


def mills_check(ctx, F: dict, T: dict) -> MvspReport:
    """Membership of F in the space of T-minimal polynomials, as a report
    of `mills_core`'s answer on the list [F]; a non-member's reason is its
    cause's entry in MILLS_CAUSES."""
    vp = validate_value_poly(ctx, T)
    [(cause, theta)] = mills_core(ctx, [F], vp)
    member = cause is None
    reason = MILLS_CAUSES.get(cause, "")
    dF = poly.degree(F)
    if dF is poly.NEG_INF or dF == 0:
        return MvspReport(is_mvsp=False, value_set=frozenset({F.get(0, ctx.zero)}), deg=0,
                          bound=None, theta=None, theta_candidates=vp.thetas,
                          is_member=member, reason=reason)
    return MvspReport(is_mvsp=member, value_set=vp.root_set if member else None, deg=dF,
                      bound=(ctx.Q - 1) // dF + 1, theta=theta, theta_candidates=vp.thetas,
                      is_member=member, reason=reason)


# ---------------------------------------------------------------------------
# additive reduction and the power lift
# ---------------------------------------------------------------------------

def _additive_quotient(ctx, T: dict, v: int, gamma) -> lin.AdditivePoly | None:
    """T(x^v + gamma)/x^(v-1) as an AdditivePoly, or None when it is not an
    additive polynomial.  T(x^v + gamma) is a polynomial in x^v, so x^(v-1)
    divides it exactly when it has no constant term."""
    shifted = poly.compose(ctx, T, {v: ctx.one, 0: gamma} if gamma != ctx.zero
                           else {v: ctx.one})
    if 0 in shifted:
        return None
    return lin.detect_additive(ctx, {e - (v - 1): c for e, c in shifted.items()})


def _divides_a_level(ctx, v: int, base: int) -> bool:
    """Does v divide p^b - 1 at some level b dividing base?"""
    return any(base % b == 0 and (ctx.p ** b - 1) % v == 0 for b in range(1, base + 1))


def find_additive_reduction(ctx, T: dict) -> list[ReductionWitness]:
    """All (v, base, gamma) with T(x^v + gamma)/x^(v-1) additive at that base,
    scanning base in 1..N, v over divisors of p^base - 1, gamma over the
    roots of T.  An empty list certifies that no nonconstant member of the
    T-space can exist.  The divisor scan walks 1..p^N - 1, so it is refused
    above 2^20 elements, like the element scan, before T's roots are listed."""
    if ctx.Q > TABLE_LIMIT:
        raise GuardError("additive reduction scan refused above 2^20 elements")
    roots = validate_value_poly(ctx, T).roots
    out = []
    for base in range(1, ctx.N + 1):
        mod = ctx.p ** base - 1
        for v in sorted(d for d in range(1, mod + 1) if mod % d == 0):
            for gamma in roots:
                a = _additive_quotient(ctx, T, v, gamma)
                if a is None or a.base % base != 0:
                    continue
                out.append(ReductionWitness(v=v, base=base, gamma=gamma,
                                            A=lin.rebase(ctx, a, base)))
    return out


def power_lift(ctx, F: dict, v: int, T: dict) -> dict:
    """F -> F^v carrying members of the additive space A = T(x^v)/x^(v-1)
    into the T-space; the image is re-verified with the forced theta."""
    vt = validate_value_poly(ctx, T)
    if 0 in T:
        raise InputError("power lift needs x | T")
    if v < 1:
        raise InputError("v must be positive")
    a = _additive_quotient(ctx, T, v, ctx.zero)     # x | T, so x^(v-1) | T(x^v)
    if a is None:
        raise InputError("T(x^v)/x^(v-1) is not additive")
    if not _divides_a_level(ctx, v, a.base):
        raise InputError("v does not divide p^b - 1 at any additivity level of A")
    va = split_additive(ctx, a, "the additive reduction of T fails the standing hypothesis")
    [(cause, _)] = mills_core(ctx, [F], va)
    if cause is not None:
        raise InputError("F is not a member of the additive space")
    image = poly.pow_(ctx, F, v)
    [(cause, theta)] = mills_core(ctx, [image], vt)
    if cause is not None:
        raise AssertionError("power lift image failed verification")
    if poly.degree(F) >= 1:
        expected = ctx.neg(ctx.div(va.additive.coeffs[0], ctx.int_elem(v)))
        if theta != expected:
            raise AssertionError("power lift produced an unexpected theta")
    return image


# ---------------------------------------------------------------------------
# low degree normal forms
# ---------------------------------------------------------------------------

def _vth_root_monic(ctx, g: dict, v: int):
    """Formal v-th root of a monic polynomial, or None.  v is prime to p."""
    dg = poly.degree(g)
    if dg % v != 0:
        return None
    m = dg // v
    h = {m: ctx.one}
    vel = ctx.int_elem(v)
    for _ in range(m + 1):
        r = poly.sub(ctx, g, poly.pow_(ctx, h, v))
        if not r:
            return h
        e = poly.degree(r)
        j = e - (v - 1) * m
        if j < 0 or j >= m or j in h:
            return None
        h[j] = ctx.div(r[e], vel)
    r = poly.sub(ctx, g, poly.pow_(ctx, h, v))
    return h if not r else None


def extract_linearized_power_form(ctx, F: dict) -> FormWitness | None:
    """Try to exhibit F = alpha * L^v + gamma with L a monic additive-plus-
    constant polynomial splitting into distinct linear factors and v dividing
    p^b - 1 at an additivity level b of L.  First witness in scan order."""
    dF = poly.degree(F)
    if dF is poly.NEG_INF or dF < 1:
        raise InputError("form extraction needs a nonconstant polynomial")
    values = sorted(poly.value_set(ctx, F), key=ctx.elem_to_int)
    alpha = poly.lc(ctx, F)
    for gamma in values:
        g = poly.sub(ctx, F, poly.const(ctx, gamma))
        gm = poly.monic(ctx, g)
        for v in sorted(d for d in range(1, dF + 1) if dF % d == 0):
            if not any((ctx.p ** b - 1) % v == 0 for b in range(1, ctx.N + 1)):
                continue
            h = gm if v == 1 else _vth_root_monic(ctx, gm, v)
            if h is None:
                continue
            c0 = h.get(0, ctx.zero)
            core = poly.sub(ctx, h, poly.const(ctx, c0))
            a = lin.detect_additive(ctx, core)
            if a is None or a.is_zero():
                continue
            if not _divides_a_level(ctx, v, a.base):
                continue
            if len(poly.roots(ctx, h)) != poly.degree(h):
                continue
            return FormWitness(shape="linearized_power", alpha=alpha, v=v,
                               gamma=gamma, L=h)
    return None


def extract_shift_power_form(ctx, F: dict) -> FormWitness | None:
    """Try F = alpha*(x + beta)^(s+1) + gamma where s = sqrt(Q)."""
    s = math.isqrt(ctx.Q)
    if s * s != ctx.Q or poly.degree(F) != s + 1:
        return None
    alpha = poly.lc(ctx, F)
    beta = ctx.div(F.get(s, ctx.zero), alpha)   # (s+1 choose s) = 1 in char p
    gamma = poly.eval_at(ctx, F, ctx.neg(beta))
    L = poly.linear(ctx, ctx.neg(beta))
    candidate = poly.add(ctx, poly.scale(ctx, poly.pow_(ctx, L, s + 1), alpha),
                         poly.const(ctx, gamma))
    if candidate != F:
        return None
    return FormWitness(shape="sqrt_plus_one_power", alpha=alpha, v=s + 1,
                       gamma=gamma, L=L, beta=beta)


def classify_low_degree(ctx, F: dict) -> FormWitness | None:
    """Normal form of a candidate of degree <= sqrt(Q) + 1, or None."""
    d = poly.degree(F)
    if d is poly.NEG_INF or d < 1:
        raise InputError("classification needs a nonconstant polynomial")
    s = math.isqrt(ctx.Q)
    if d == s + 1 and s * s == ctx.Q:
        return extract_shift_power_form(ctx, F)
    if d <= s:
        return extract_linearized_power_form(ctx, F)
    raise InputError("degree out of the classification range")


# ---------------------------------------------------------------------------
# root profile diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootProfile:
    gamma: tuple
    distinct_field_roots: int
    multiplicities: tuple          # per field root, canonical order
    has_simple_root: bool


@dataclass(frozen=True)
class ProfileReport:
    per_root: tuple
    multiplicities_coprime_p: bool
    simple_root_count: int
    required_simple_roots: int
    has_required_simple_roots: bool


def mills_profile(ctx, F: dict, T: dict) -> ProfileReport:
    """Per root gamma of T: the number of distinct field roots of F - gamma
    (cross-checkable as deg gcd(F - gamma, x^Q - x)), their multiplicities by
    repeated division, and whether a simple root exists.  Field roots of a
    member must have multiplicity prime to p, and at least r = |roots| - 1
    of the shifts must admit a simple root.  The roots of each shift come
    from a field scan, so the profile is refused above 2^20 elements before
    T's roots are listed."""
    if ctx.Q > TABLE_LIMIT:
        raise GuardError("root profile refused above 2^20 elements")
    vp = validate_value_poly(ctx, T)
    if len(vp.roots) <= 2:
        raise InputError("profile needs more than two values")
    [(cause, _)] = mills_core(ctx, [F], vp)
    if cause is not None or poly.degree(F) < 1:
        raise InputError("profile is only defined for nonconstant members")
    per = []
    coprime = True
    simple_count = 0
    for gamma in vp.roots:
        shifted = poly.sub(ctx, F, poly.const(ctx, gamma))
        l = poly.degree(poly.field_gcd(ctx, shifted))
        froots = poly.roots(ctx, shifted)
        assert len(froots) == l
        mults = []
        for a in froots:
            m = 0
            cur = shifted
            linear = poly.linear(ctx, a)
            while True:
                qt, rm = poly.divmod_(ctx, cur, linear)
                if rm:
                    break
                cur = qt
                m += 1
            mults.append(m)
            if m % ctx.p == 0:
                coprime = False
        has_simple = any(m == 1 for m in mults)
        if has_simple:
            simple_count += 1
        per.append(RootProfile(gamma=gamma, distinct_field_roots=l,
                               multiplicities=tuple(mults),
                               has_simple_root=has_simple))
    r = len(vp.roots) - 1
    return ProfileReport(per_root=tuple(per),
                         multiplicities_coprime_p=coprime,
                         simple_root_count=simple_count,
                         required_simple_roots=r,
                         has_required_simple_roots=simple_count >= r)

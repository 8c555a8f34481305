import collections
import contextlib
import io
import itertools
import random

import pytest

from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import oracle as O
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.cli import main
from mvspoly.errors import InputError
from mvspoly.gf import FieldCtx, make_field, parse_field_spec
from mvsp_reference import affine_equivalent, mills_check_composing
from poly_reference import interpolate


# -- minimality ----------------------------------------------------------------

def test_identity_poly_is_minimal(f9):
    rep = M.is_minimal(f9, {1: f9.one})
    assert rep.is_mvsp and rep.bound == 9 and len(rep.value_set) == 9


def test_example_trinomial_image(f64):
    rep = M.is_minimal(f64, P.from_text(f64, "x^18+x^9"))
    assert rep.is_mvsp and rep.bound == 4 and len(rep.value_set) == 4
    assert all(f64.in_subfield(a, 3) for a in rep.value_set)


def test_trace_is_minimal(f8):
    rep = M.is_minimal(f8, P.from_text(f8, "x^2+x"))
    assert rep.is_mvsp and rep.bound == 4 and len(rep.value_set) == 4


def test_is_minimal_rejects_constant(f9):
    with pytest.raises(InputError):
        M.is_minimal(f9, {0: f9.one})


# -- the Mills criterion --------------------------------------------------------

def test_mills_x9_against_base_binomial(f64):
    rep = M.mills_check(f64, P.from_text(f64, "x^9"), P.from_text(f64, "x^8+x"))
    assert rep.is_member and rep.theta == f64.one


def test_mills_example_trinomial(f64):
    rep = M.mills_check(f64, P.from_text(f64, "x^18+x^9"),
                        P.from_text(f64, "x^4+x^2+x"))
    assert rep.is_member and rep.theta == f64.one


def test_mills_negative(f64):
    rep = M.mills_check(f64, P.from_text(f64, "x^2"),
                        P.from_text(f64, "x^4+x^2+x"))
    assert not rep.is_member and rep.reason == "value set mismatch"


def reference_mills(ctx, F, T):
    """(is_member, theta) from the identity T(F) = theta*(x^Q - x)*F' with
    the right side formed as a product of polynomials, and T(F) by
    composition."""
    vp = M.validate_value_poly(ctx, T)
    dF = P.derivative(ctx, F)
    if not dF or P.degree(T) * P.degree(F) != ctx.Q + P.degree(dF):
        return False, None
    lhs = P.compose(ctx, T, F)
    rhs = P.mul(ctx, {ctx.Q: ctx.one, 1: ctx.neg(ctx.one)}, dF)
    lead = max(rhs)
    theta = ctx.div(lhs.get(lead, ctx.zero), rhs[lead])
    ok = theta != ctx.zero and theta in vp.thetas and lhs == P.scale(ctx, rhs, theta)
    return ok, theta if ok else None


@pytest.mark.parametrize("spec, T_text", [
    ("2^6:1", "x^4+x^2+x"), ("2^6:1", "x^8+x"), ("3^2:1", "x^3-x"), ("3^4:1", "x^9-x"),
    ("3^2:1", "x^3-1,1*x^2+g*x"),
])
def test_mills_check_matches_the_product_identity(spec, T_text):
    """The term-by-term theta*(x^Q - x)*F' of mills_check against the
    polynomial product: on members drawn from the lift's span, on those
    members plus one term, and on random polynomials that pass the degree
    equation.  A member's value set is the root set of T."""
    ctx = parse_field_spec(spec)
    T = P.from_text(ctx, T_text)
    vp = M.validate_value_poly(ctx, T)
    rng = random.Random(ctx.Q + len(T_text))
    elems = ctx.elements()
    dT = P.degree(T)
    cands = []
    if vp.additive is not None:
        gens = W.lift_pipeline(ctx, vp.additive).generators
        for _ in range(40):
            f = W.random_span_member(ctx, gens, rng)
            cands += [f, P.add(ctx, f, {rng.randrange(P.degree(f)): rng.choice(elems[1:])})]
    # deg F = d with p | d, and deg F' = dT*d - Q from the term at k = dT*d - Q + 1:
    # these pass the degree equation and reach the identity
    degrees = [d for d in range(2, ctx.Q) if d % ctx.p == 0 and 0 <= dT * d - ctx.Q < d
               and (dT * d - ctx.Q + 1) % ctx.p]
    for _ in range(60):
        d = rng.choice(degrees)
        k = dT * d - ctx.Q + 1
        f = {d: rng.choice(elems[1:]), k: rng.choice(elems[1:])}
        f.update((e, rng.choice(elems[1:])) for e in rng.sample(range(k), min(k, 2)))
        assert dT * d == ctx.Q + P.degree(P.derivative(ctx, f))
        cands.append(f)
    members = 0
    for f in cands:
        rep = M.mills_check(ctx, f, T)
        assert (rep.is_member, rep.theta) == reference_mills(ctx, f, T), f
        if rep.is_member and P.degree(f) > 0:
            members += 1
            assert rep.value_set == frozenset(vp.roots) == P.value_set(ctx, f)
    assert members >= (40 if vp.additive is not None else 0)


def affine_value_poly(ctx, T, a, b):
    """The monic polynomial whose roots are a*r + b over the roots r of T:
    a T-member F maps to its member a*F + b.  For additive T and b outside
    a times its roots, it is not additive, so its check composes."""
    out = {0: ctx.one}
    for r in M.validate_value_poly(ctx, T).roots:
        out = P.mul(ctx, out, P.linear(ctx, ctx.add(ctx.mul(a, r), b)))
    return out


# the cause `mills_core` names for a non-member on each path of mills_path
PATH_CAUSES = {"constant": "constant_not_root", "degree": "degree_equation",
               "x = 0": "zero_value_not_root", "theta": "theta_not_candidate",
               "identity": "identity_fails"}


def mills_path(ctx, F, T, rep):
    """Which return of mills_check decides F, read off F and T directly."""
    vp = M.validate_value_poly(ctx, T)
    dF = P.degree(F)
    if dF is P.NEG_INF or dF == 0:
        return "constant"
    dFpoly = P.derivative(ctx, F)
    if not dFpoly or P.degree(T) * dF != ctx.Q + P.degree(dFpoly):
        return "degree"
    if F.get(0, ctx.zero) not in vp.root_set:
        return "x = 0"
    theta = ctx.div(ctx.pow_elem(F[dF], P.degree(T)), dFpoly[P.degree(dFpoly)])
    if theta not in vp.thetas:
        return "theta"
    return "member" if rep.is_member else "identity"


@pytest.mark.parametrize("spec, A_text, B_text, power", [
    ("3^2:1", "x^3-x", "x^3-1,1*x^2+g*x", None),
    ("3^3:1", "x^3-x", "x^5+x^2+x", None),
    ("3^4:1", "x^9-x", None, None),
    ("3^6:1", "x^9+x^3+x", "x^5+x^2+x", 2),
])
def test_early_checks_match_the_composing_reference(spec, A_text, B_text, power):
    """mills_check returns the whole MvspReport of the reference that always
    composes T(F), on every return path: constants, degree non-members, F
    with F(0) not a root, F whose leading coefficient forces theta outside
    the candidates, F that fail the identity itself, and members.  T is the
    additive A, an affine image of A, and a non-additive B whose members, if
    any, are the power-th powers of A-members (x^5 + x^2 + x at x^2, over
    x, is x^9 + x^3 + x)."""
    ctx = parse_field_spec(spec)
    rng = random.Random(1700 + ctx.Q)
    elems, zero = ctx.elements(), ctx.zero
    A = P.from_text(ctx, A_text)
    gens = W.lift_pipeline(ctx, M.validate_value_poly(ctx, A).additive).generators
    span = [W.random_span_member(ctx, gens, rng) for _ in range(10)]
    a, b = elems[2], elems[-1]
    cases = [(A, span), (affine_value_poly(ctx, A, a, b),
                         [P.add(ctx, P.scale(ctx, F, a), {0: b}) for F in span])]
    if B_text is not None:
        cases.append((P.from_text(ctx, B_text),
                      [P.pow_(ctx, F, power) for F in span] if power else []))
    paths = collections.Counter()
    for T, members in cases:
        vp = M.validate_value_poly(ctx, T)
        non_roots = [c for c in elems if c not in vp.root_set]
        dT = P.degree(T)
        cands = [{}] + [{0: c} for c in rng.sample(elems, 4)] + list(members)
        for F in members:
            c0 = F.get(0, zero)
            cands.append(P.add(ctx, F, {0: ctx.sub(rng.choice(vp.roots), c0)}))
            cands.append(P.add(ctx, F, {0: ctx.sub(rng.choice(non_roots), c0)}))
            scaled = P.scale(ctx, F, rng.choice(elems[2:]))
            cands.append(P.add(ctx, scaled, {0: ctx.sub(rng.choice(vp.roots),
                                                         scaled.get(0, zero))}))
            cands.append(P.add(ctx, F, {P.degree(F) + 1: ctx.one}))
            low = P.degree(P.derivative(ctx, F))
            if low > 1:
                cands.append(P.add(ctx, F, {rng.randrange(1, low): rng.choice(elems[1:])}))
        # deg F = d with p | d and the degree equation met through the term at
        # k = dT*d - Q + 1, its constant term a root half of the time
        degrees = [d for d in range(2, ctx.Q) if d % ctx.p == 0 and 0 <= dT * d - ctx.Q < d
                   and (dT * d - ctx.Q + 1) % ctx.p]
        for d in degrees[:12]:
            k = dT * d - ctx.Q + 1
            f = {d: rng.choice(elems[1:]), k: rng.choice(elems[1:])}
            f[0] = rng.choice(vp.roots if rng.random() < 0.5 else elems)
            cands.append({e: c for e, c in f.items() if c != zero})
        expected = []
        for F in cands:
            rep = M.mills_check(ctx, F, T)
            assert rep == mills_check_composing(ctx, F, T), (P.to_text(ctx, T), F)
            path = mills_path(ctx, F, T, rep)
            paths[path] += 1
            expected.append((None if rep.is_member else PATH_CAUSES[path], rep.theta))
        assert M.mills_core(ctx, cands, vp) == expected
    assert set(paths) == {"constant", "degree", "x = 0", "theta", "identity", "member"}, paths


def test_f729_non_members_refused_early_compose_nothing(monkeypatch, f729):
    """A member F of x^5 + x^2 + x on F_729 shifted off the roots at x = 0,
    or l*F shifted back to the root F(0) at x = 0, with l^4 * theta outside
    the candidates, is refused before T(F) is composed: no fold and no
    square.  The member itself composes."""
    T = P.from_text(f729, "x^5+x^2+x")
    A = M.validate_value_poly(f729, P.from_text(f729, "x^9+x^3+x")).additive
    rng = random.Random(729)
    F = P.pow_(f729, W.random_span_member(f729, W.lift_pipeline(f729, A).generators, rng), 2)
    vp = M.validate_value_poly(f729, T)
    theta = M.mills_check(f729, F, T).theta
    c0 = F.get(0, f729.zero)
    assert theta is not None and c0 in vp.root_set
    c = next(c for c in f729.elements() if f729.add(c0, c) not in vp.root_set)
    lam = next(a for a in f729.elements()[1:]
               if f729.mul(f729.pow_elem(a, 4), theta) not in vp.thetas)
    calls = []
    real_fold, real_square = FieldCtx.fold, FieldCtx.square
    monkeypatch.setattr(FieldCtx, "fold",
                        lambda ctx, f, rows: calls.append("fold") or real_fold(ctx, f, rows))
    monkeypatch.setattr(FieldCtx, "square",
                        lambda ctx, f: calls.append("square") or real_square(ctx, f))
    scaled = P.scale(f729, F, lam)
    for G in (P.add(f729, F, {0: c}),
              P.add(f729, scaled, {0: f729.sub(c0, scaled.get(0, f729.zero))})):
        rep = M.mills_check(f729, G, T)
        assert not rep.is_member and rep.reason == "value set mismatch" and calls == []
    assert M.mills_check(f729, F, T).is_member and "fold" in calls and "square" in calls


def test_mills_check_keeps_the_overflow_refusal(monkeypatch, f9):
    """Where deg T * deg F passes the exponent limit, composing T(F) refuses
    with InputError, and that refusal still comes before the checks at
    x = 0 and on theta, as in the reference.  Only Q = 2^62 reaches it (for
    example x^4 + x with F = x^(2^60 + 2) + x^9 + g), so the limit is
    lowered to 8 below Q + deg F' on F_9."""
    T = P.from_text(f9, "x^3-x")
    F = P.from_text(f9, "x^3+x")                 # meets the degree equation, F(0) = 0
    y = f9.elem_from_int(3)                      # not in F_3, so not a root
    monkeypatch.setattr(P, "EXP_LIMIT", 8)
    for G in (F, P.add(f9, F, {0: y}), P.scale(f9, F, y)):
        for check in (M.mills_check, mills_check_composing):
            with pytest.raises(InputError, match="exponent overflow"):
                check(f9, G, T)


def test_mills_core_names_each_cause(f64):
    """Each way to fail the Mills test gets its own cause from the core,
    and mills_check reports the same reason strings as before the core:
    "constant is not a root" for a constant, "value set mismatch" for the
    four failures of a nonconstant F.  Members get None and their theta."""
    T = P.from_text(f64, "x^4+x^2+x")
    vp = M.validate_value_poly(f64, T)
    member = P.from_text(f64, "x^18+x^9")
    off_f2 = P.scale(f64, member, f64.elem_from_int(2))      # theta = y^3, not 1
    cases = [
        ({0: f64.one}, "constant_not_root", "constant is not a root"),   # T(1) = 1
        (P.from_text(f64, "x^2"), "degree_equation", "value set mismatch"),       # F' = 0
        (P.from_text(f64, "x^3"), "degree_equation", "value set mismatch"),       # 12 != 66
        (P.from_text(f64, "x^18+x^9+1"), "zero_value_not_root", "value set mismatch"),
        (off_f2, "theta_not_candidate", "value set mismatch"),
        (P.from_text(f64, "x^18+x^9+x^5"), "identity_fails", "value set mismatch"),
    ]
    for F, cause, reason in cases:
        assert M.mills_core(f64, [F], vp) == [(cause, None)]
        rep = M.mills_check(f64, F, T)
        assert not rep.is_member and rep.reason == reason and rep.theta is None
    assert {c for _, c, _ in cases} == set(M.MILLS_CAUSES)
    for F, theta in (({}, None), (member, f64.one)):
        assert M.mills_core(f64, [F], vp) == [(None, theta)]
        assert M.mills_check(f64, F, T).reason == ""


@pytest.mark.parametrize("spec, T_text, A_text, power", [
    ("2^6:1", "x^4+x^2+x", "x^4+x^2+x", None),
    ("3^6:1", "x^5+x^2+x", "x^9+x^3+x", 2),
])
def test_mills_core_on_a_list_matches_one_at_a_time(spec, T_text, A_text, power):
    """The core on one shuffled list gives, in order, what the composing
    reference gives each polynomial on its own (its cause read off mills_path):
    members, constants on and off the roots, and a non-member for every
    cause, several times over.  T is additive (one apply_each for the list)
    and not additive (one compose each), and the empty list gives []."""
    ctx = parse_field_spec(spec)
    rng = random.Random(2800 + ctx.Q)
    T = P.from_text(ctx, T_text)
    vp = M.validate_value_poly(ctx, T)
    A = M.validate_value_poly(ctx, P.from_text(ctx, A_text)).additive
    gens = W.lift_pipeline(ctx, A).generators
    members = [W.random_span_member(ctx, gens, rng) for _ in range(6)]
    if power:
        members = [P.pow_(ctx, F, power) for F in members]
    elems, zero = ctx.elements(), ctx.zero
    non_roots = [c for c in elems if c not in vp.root_set]
    Fs = [{}, {0: vp.roots[-1]}, {0: non_roots[0]}]
    for F in members:
        c0 = F.get(0, zero)
        Fs.append(F)
        Fs.append(P.add(ctx, F, {0: ctx.sub(non_roots[-1], c0)}))           # x = 0
        for lam in elems[2:]:                                              # theta
            G = P.scale(ctx, F, lam)
            G = P.add(ctx, G, {0: ctx.sub(vp.roots[0], G.get(0, zero))})
            if mills_path(ctx, G, T, mills_check_composing(ctx, G, T)) == "theta":
                Fs.append(G)
                break
        Fs.append(P.add(ctx, F, {P.degree(F) + 1: ctx.one}))               # degree
        low = P.degree(P.derivative(ctx, F))
        if low > 1:                                                        # identity
            Fs.append(P.add(ctx, F, {rng.randrange(1, low): rng.choice(elems[1:])}))
    rng.shuffle(Fs)
    expected = []
    for F in Fs:
        rep = mills_check_composing(ctx, F, T)
        cause = None if rep.is_member else PATH_CAUSES[mills_path(ctx, F, T, rep)]
        expected.append((cause, rep.theta))
    assert M.mills_core(ctx, Fs, vp) == expected
    assert {c for c, _ in expected} == {None, *M.MILLS_CAUSES}
    assert M.mills_core(ctx, [], vp) == []


def test_mills_constant_membership(f64):
    T = P.from_text(f64, "x^4+x^2+x")
    root = next(a for a in f64.elements()
                if a != f64.zero and P.eval_at(f64, T, a) == f64.zero)
    assert M.mills_check(f64, {0: root}, T).is_member
    assert not M.mills_check(f64, {0: f64.one}, T).is_member   # T(1) = 1 in char 2


def test_mills_rejects_bad_value_poly(f64, f4):
    with pytest.raises(InputError):
        M.mills_check(f64, {1: f64.one}, P.from_text(f64, "x^3+x"))   # repeated roots
    with pytest.raises(InputError):
        M.mills_check(f64, {1: f64.one}, P.from_text(f64, "x^2+x+1"))  # deg 2, not carve-out
    # carve-out: x^2 - x at q = 2 is fine, and the trace is a member
    assert M.mills_check(f4, P.from_text(f4, "x^2+x"),
                         P.from_text(f4, "x^2+x")).is_member


# -- the additive split decision against field_gcd -------------------------------

def value_poly_by_gcd(ctx, T):
    """(roots, thetas) of a monic T of degree > 2 as a non-additive T gets
    them: split and separable when deg gcd(T, x^Q - x) = deg T, the roots by
    the field scan, thetas -T'(root) in root order; None when T fails."""
    if P.degree(P.field_gcd(ctx, T)) != P.degree(T):
        return None
    dT = P.derivative(ctx, T)
    roots = P.roots(ctx, T)
    return roots, tuple(dict.fromkeys(ctx.neg(P.eval_at(ctx, dT, r)) for r in roots))


def additive_value_polys(ctx, rng, every=4096):
    """Monic p-additive T with 2 < deg T <= min(64, Q), and x^2 + x at q = 2.
    Per degree: every such T when there are at most `every` of them;
    otherwise every T with coefficients in F_p, 64 with random coefficients
    (8 of them with c_0 = 0) and 16 that split, from random F_p-subspaces."""
    p, out = ctx.p, []
    if ctx.q == 2:
        out.append({2: ctx.one, 1: ctx.one})

    def monic(low):
        return {p ** i: c for i, c in enumerate([*low, ctx.one]) if c != ctx.zero}

    m = 1
    while p ** m <= min(64, ctx.Q):
        if p ** m > 2 and ctx.Q ** m <= every:
            out += [monic(low) for low in itertools.product(ctx.elements(), repeat=m)]
        elif p ** m > 2:
            fp = [ctx.elem_from_int(c) for c in range(p)]
            out += [monic(low) for low in itertools.product(fp, repeat=m)]
            for j in range(64):
                low = [ctx.elem_from_int(rng.randrange(ctx.Q)) for _ in range(m)]
                out.append(monic([ctx.zero, *low[1:]] if j < 8 else low))
            for _ in range(16):
                span = [ctx.zero]
                while len(span) < p ** m:
                    w = ctx.elem_from_int(rng.randrange(ctx.Q))
                    if w not in span:
                        span = [ctx.add(v, ctx.smul(c, w)) for c in range(p) for v in span]
                T = {0: ctx.one}
                for v in span:
                    T = P.mul(ctx, T, P.linear(ctx, v))
                out.append(T)
        m += 1
    return out


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 4), (2, 2, 2), (2, 1, 6),
                                    (3, 1, 3), (3, 1, 4)])
def test_additive_split_decision_matches_field_gcd(params):
    """validate_value_poly decides an additive T from one nullspace; the
    decision, the roots and the thetas are those of the field_gcd path.  An
    accepted T keeps an F_p-basis of its roots, and T as an AdditivePoly at
    the context level when it is additive there."""
    ctx = FieldCtx(*params)
    rng = random.Random(1100 + sum(params))
    seen = {"accepted": 0, "not split": 0, "c0 = 0": 0, "level p only": 0}
    for T in additive_value_polys(ctx, rng):
        assert L.detect_additive(ctx, T) is not None
        expected = value_poly_by_gcd(ctx, T)
        try:
            vp = M.validate_value_poly(ctx, T)
        except InputError as exc:
            assert expected is None, T
            assert str(exc) == "value polynomial does not split into distinct roots over the field"
            seen["c0 = 0" if 1 not in T else "not split"] += 1
            continue
        assert (vp.roots, vp.thetas) == expected, T
        seen["accepted"] += 1
        span = {ctx.zero}
        for b in vp.null:
            span = {ctx.add(s, ctx.smul(c, b)) for s in span for c in range(ctx.p)}
        assert span == set(vp.roots) and ctx.p ** len(vp.null) == P.degree(T)
        assert L.to_sparse(ctx, vp.additive) == T
        if L.detect_additive(ctx, T).base % ctx.k != 0:
            assert vp.additive == L.detect_additive(ctx, T)
            seen["level p only"] += 1
            continue
        assert vp.additive.base == ctx.k and ctx.q ** vp.additive.tau_deg() == P.degree(T)
    assert seen["accepted"] and seen["not split"] and seen["c0 = 0"]
    assert bool(seen["level p only"]) == (ctx.k > 1)


def _subspace_shift_value_polys(ctx):
    """All products prod_{s in c+V} (x - s) over F_q-subspaces V and coset
    representatives c, restricted to admissible degrees."""
    out = []
    for t in range(1, ctx.n + 1):
        for basis in O.subspaces(ctx, t):
            span = {ctx.zero}
            for b in basis:
                span = {ctx.add(s, ctx.mul(c, b))
                        for s in span for c in ctx.subfield_elements(1)}
            seen = set()
            for c in ctx.elements():
                coset = frozenset(ctx.add(c, v) for v in span)
                if coset in seen:
                    continue
                seen.add(coset)
                if len(coset) <= 2 and not (len(coset) == 2 and ctx.q == 2
                                            and coset == {ctx.zero, ctx.one}):
                    continue
                T = {0: ctx.one}
                for s in coset:
                    T = P.mul(ctx, T, P.linear(ctx, s))
                out.append((T, coset))
    return out


@pytest.mark.parametrize("params", [(2, 1, 3), (3, 1, 2)])
def test_criterion_equivalence_exhaustive(params):
    """mills_check(F, T) iff (is_minimal(F) and V_F = roots(T)), jointly over
    all subspace-shift value polynomials and every F of relevant degree.

    Degrees above (Q-1)/(|S|-1) need no scan: the identity forces
    |S|*deg F = Q + deg F' <= Q + deg F - 1, and minimality with |V| = |S|
    forces floor((Q-1)/deg F) = |S| - 1; both fail beyond the cap.  For F
    with V_F not inside the roots, both sides fail too (evaluating the
    identity at any field point a gives T(F(a)) = 0); a sampled subset
    double-checks that argument against the full symbolic test.

    The base binomial with only two roots would push the degree cap to Q-1,
    so that target is covered separately by scanning the (much smaller)
    space of functions into its root set.
    """
    ctx = make_field(*params)
    targets = _subspace_shift_value_polys(ctx)
    assert targets
    big = [(T, c) for T, c in targets if len(c) > 2]
    tiny = [(T, c) for T, c in targets if len(c) == 2]
    elems = ctx.elements()
    cap = max((ctx.Q - 1) // (len(coset) - 1) for _, coset in big)
    checked = 0
    sampled_neg = 0
    idx = 0
    for coeffs in itertools.product(elems, repeat=cap + 1):
        f = {e: c for e, c in enumerate(coeffs) if c != ctx.zero}
        d = P.degree(f)
        if d is P.NEG_INF or d < 1:
            continue
        idx += 1
        vs = P.value_set(ctx, f)
        minimal = len(vs) == (ctx.Q - 1) // d + 1
        for T, coset in big:
            if d > (ctx.Q - 1) // (len(coset) - 1):
                continue
            rhs = minimal and vs == coset
            if vs <= coset:
                lhs = M.mills_check(ctx, f, T).is_member
                checked += 1
            elif idx % 37 == 0 and sampled_neg < 400:
                lhs = M.mills_check(ctx, f, T).is_member
                sampled_neg += 1
            else:
                lhs = False          # by the evaluation argument above
            assert lhs == rhs, (P.to_text(ctx, f), P.to_text(ctx, T))
    assert checked > 0 and sampled_neg > 0
    for T, coset in tiny:
        roots = sorted(coset, key=ctx.elem_to_int)
        for table in itertools.product(roots, repeat=ctx.Q):
            f = interpolate(ctx, list(zip(elems, table)))
            d = P.degree(f)
            if d is P.NEG_INF or d < 1:
                continue
            vs = frozenset(table)
            rhs = (len(vs) == (ctx.Q - 1) // d + 1) and vs == coset
            assert M.mills_check(ctx, f, T).is_member == rhs


def test_criterion_equivalence_sampled_f16():
    ctx = make_field(2, 1, 4)
    targets = _subspace_shift_value_polys(ctx)
    deg8 = [T for T, c in targets if len(c) == 8][:3]
    deg4 = [T for T, c in targets if len(c) == 4][:3]
    rng = random.Random(555)
    for T in deg8 + deg4:
        roots = frozenset(a for a in ctx.elements()
                          if P.eval_at(ctx, T, a) == ctx.zero)
        for _ in range(400):
            d = rng.randrange(1, 6)
            f = {d: ctx.elem_from_int(rng.randrange(1, 16))}
            for e in range(d):
                c = ctx.elem_from_int(rng.randrange(16))
                if c != ctx.zero:
                    f[e] = c
            vs = P.value_set(ctx, f)
            rhs = (len(vs) == (ctx.Q - 1) // d + 1) and vs == roots
            assert M.mills_check(ctx, f, T).is_member == rhs


# -- additive reduction ---------------------------------------------------------

def test_reduction_of_additive_is_itself(f8):
    T = P.from_text(f8, "x^2+x")
    wits = M.find_additive_reduction(f8, T)
    assert any(w.v == 1 and w.gamma == f8.zero and
               L.to_sparse(f8, w.A) == T for w in wits)


def test_reduction_example_char3(f729):
    T = P.from_text(f729, "x^5+x^2+x")
    wits = M.find_additive_reduction(f729, T)
    A = P.from_text(f729, "x^9+x^3+x")
    assert any(w.v == 2 and w.gamma == f729.zero and
               L.to_sparse(f729, w.A) == A for w in wits)


def test_reduction_negative_certificate(f8):
    # a 3-subset that is not a shifted coset structure: expect no witnesses,
    # cross-checked by the brute census finding no nonconstant member
    S = [f8.zero, f8.one, f8.elem_from_int(2)]
    span_like = {f8.add(a, S[1]) for a in S} == set(S)
    assert not span_like
    T = {0: f8.one}
    for s in S:
        T = P.mul(f8, T, {1: f8.one, 0: f8.neg(s)})
    wits = M.find_additive_reduction(f8, T)
    assert wits == []
    census = O.census_fixed_valueset(f8, S)
    assert census.nonconstant_members == 0 and census.members == 3


# -- the power lift ---------------------------------------------------------------

def test_power_lift_identity(f729):
    from mvspoly import wspace as W
    A = P.from_text(f729, "x^9+x^3+x")
    lift = W.lift_pipeline(f729, L.detect_additive(f729, A))
    F = lift.generators[0]
    assert M.power_lift(f729, F, 1, A) == F


def test_power_lift_example(f729):
    from mvspoly import wspace as W
    T = P.from_text(f729, "x^5+x^2+x")
    A = P.from_text(f729, "x^9+x^3+x")
    lift = W.lift_pipeline(f729, L.detect_additive(f729, A))
    for F in lift.generators[:5]:
        image = M.power_lift(f729, F, 2, T)
        assert image == P.pow_(f729, F, 2)
        rep = M.mills_check(f729, image, T)
        assert rep.is_member
        if P.degree(F) >= 1:
            assert rep.theta == f729.one


def test_power_lift_constant_root(f729):
    T = P.from_text(f729, "x^5+x^2+x")
    image = M.power_lift(f729, {}, 2, T)          # 0 is a root of A
    assert image == {} or P.eval_at(f729, T, image.get(0, f729.zero)) == f729.zero


def test_power_lift_rejects_nonmember(f729):
    T = P.from_text(f729, "x^5+x^2+x")
    with pytest.raises(InputError):
        M.power_lift(f729, P.from_text(f729, "x^2"), 2, T)


@pytest.fixture
def checked(monkeypatch):
    """Counts the validate_value_poly calls per value polynomial, by text."""
    real, seen = M.validate_value_poly, collections.Counter()

    def counting(ctx, T):
        seen[P.to_text(ctx, T).replace(" ", "")] += 1
        return real(ctx, T)

    monkeypatch.setattr(M, "validate_value_poly", counting)
    return seen


def test_power_lift_checks_t_and_a_once(f729, checked):
    """One power lift checks T and its additive reduction A once each, and
    both Mills tests run on those checks."""
    A = M.validate_value_poly(f729, P.from_text(f729, "x^9+x^3+x")).additive
    F = W.lift_pipeline(f729, A).generators[3]
    checked.clear()
    M.power_lift(f729, F, 2, P.from_text(f729, "x^5+x^2+x"))
    assert checked == {"x^5+x^2+x": 1, "x^9+x^3+x": 1}


@pytest.mark.parametrize("argv, checks", [
    (["oracle", "census", "--field", "2^3:1", "--values", "0;1", "--max-deg", "3"],
     {"x^2+x": 1}),
    # the basis once for its members, A once each for the lift and the oracle
    (["examples", "--section", "2"], {"x^8+x": 1, "x^4+x^2+x": 2}),
    # T once each for the reduction and the image count, A once for the lift,
    # and each of the 128 power lifts checks T and A once
    (["examples", "--section", "4"], {"x^5+x^2+x": 130, "x^9+x^3+x": 129}),
])
def test_each_call_checks_its_value_polynomials_once(checked, argv, checks):
    """A command checks each value polynomial once per library call that
    takes it, and runs every Mills test on that check, however many
    polynomials it tests: no Mills test validates T again."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert checked == checks


# -- low degree classification -----------------------------------------------------

def test_classify_sqrt_shape(f9):
    w = M.classify_low_degree(f9, P.from_text(f9, "x^4"))
    assert w is not None and w.shape == "sqrt_plus_one_power"
    assert (w.alpha, w.beta, w.gamma) == (f9.one, f9.zero, f9.zero)


def test_classify_sqrt_shape_shifted(f9):
    beta = f9.elem_from_int(5)
    F = P.compose(f9, {4: f9.one}, {1: f9.one, 0: beta})
    w = M.classify_low_degree(f9, F)
    assert w is not None and w.beta == beta


def test_classify_no_form(f9):
    F = P.from_text(f9, "x^4+x")
    assert M.classify_low_degree(f9, F) is None
    assert not M.is_minimal(f9, F).is_mvsp


def test_classify_linearized_power():
    ctx = make_field(3, 1, 4)
    base = P.from_text(ctx, "x^3-x")
    F = P.add(ctx, P.pow_(ctx, base, 2), P.const(ctx, ctx.one))
    assert M.is_minimal(ctx, F).is_mvsp
    w = M.classify_low_degree(ctx, F)
    assert w is not None and w.shape == "linearized_power"
    assert w.v == 2 and w.L == base and w.gamma == ctx.one


def test_classify_degree_guard(f9):
    with pytest.raises(InputError):
        M.classify_low_degree(f9, {5: f9.one})


# -- affine equivalence -------------------------------------------------------------

def test_affine_identity(f9):
    F = P.from_text(f9, "x^4")
    assert affine_equivalent(f9, F, F) == (f9.one, f9.zero)


def test_affine_shift_recovery(f9):
    F = P.from_text(f9, "x^4")
    beta = f9.elem_from_int(4)
    G = P.compose(f9, F, {1: f9.one, 0: beta})
    assert affine_equivalent(f9, F, G) == (f9.one, beta)


def test_affine_uniqueness_low_degree(f9):
    """Every pair of minimal polynomials of degree <= 3 over F_9 with the
    same value set differs by an affine substitution."""
    groups = {}
    elems = f9.elements()
    for d in (2, 3):
        for coeffs in itertools.product(elems, repeat=d + 1):
            if coeffs[d] == f9.zero:
                continue
            f = {e: c for e, c in enumerate(coeffs) if c != f9.zero}
            vs = P.value_set(f9, f)
            if len(vs) == (f9.Q - 1) // d + 1:
                groups.setdefault((d, vs), []).append(f)
    assert groups
    for (d, vs), polys in groups.items():
        head = polys[0]
        for other in polys[1:]:
            assert affine_equivalent(f9, head, other) is not None


def test_affine_equivalence_degree4_same_values(f9):
    """Degree sqrt(Q)+1 minimal polynomials with equal value sets are affine
    substitutions of one another (a consequence of the unique shift-power
    normal form)."""
    rng = random.Random(9)
    F = P.from_text(f9, "x^4")
    for _ in range(20):
        a = f9.elem_from_int(rng.randrange(1, 9))
        b = f9.elem_from_int(rng.randrange(9))
        G = P.compose(f9, F, {1: a, 0: b} if b != f9.zero else {1: a})
        assert P.value_set(f9, G) == P.value_set(f9, F)
        assert affine_equivalent(f9, F, G) is not None


# -- profiles ---------------------------------------------------------------------

def test_profile_x9(f64):
    rep = M.mills_profile(f64, P.from_text(f64, "x^9"), P.from_text(f64, "x^8+x"))
    assert rep.multiplicities_coprime_p
    assert rep.has_required_simple_roots
    by_gamma = {r.gamma: r for r in rep.per_root}
    assert by_gamma[f64.zero].distinct_field_roots == 1


def test_profile_needs_more_than_two_values(f4):
    with pytest.raises(InputError):
        M.mills_profile(f4, P.from_text(f4, "x^2+x"), P.from_text(f4, "x^2+x"))


def test_profile_trace_image_f8(f8):
    # F = x^2 + x on F_8 has a 4-element subspace image; the profile against
    # its exact value polynomial sees two simple roots per value
    F = P.from_text(f8, "x^2+x")
    image = sorted(P.value_set(f8, F), key=f8.elem_to_int)
    T = {0: f8.one}
    for s in image:
        T = P.mul(f8, T, {1: f8.one, 0: f8.neg(s)})
    rep = M.mills_profile(f8, F, T)
    for r in rep.per_root:
        assert r.distinct_field_roots == 2
        assert all(m == 1 for m in r.multiplicities)


def test_profile_refuses_nonmember(f64):
    with pytest.raises(InputError):
        M.mills_profile(f64, P.from_text(f64, "x^2"), P.from_text(f64, "x^4+x^2+x"))


def test_profile_root_count_matches_gcd(f64):
    F = P.from_text(f64, "x^18+x^9")
    T = P.from_text(f64, "x^4+x^2+x")
    rep = M.mills_profile(f64, F, T)
    for r in rep.per_root:
        shifted = P.sub(f64, F, P.const(f64, r.gamma))
        scan = sum(1 for a in f64.elements()
                   if P.eval_at(f64, shifted, a) == f64.zero)
        assert r.distinct_field_roots == scan == len(r.multiplicities)

import functools
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from linalg_reference import nullspace
from linearized_reference import tau_compose_pairwise, tau_to_text_termwise
from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import oracle as O
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.errors import InputError
from mvspoly.gf import FieldCtx, PlainField, make_field, parse_field_spec
from mvspoly.linalg import FqSpan


def split_of(ctx, a):
    """A's checked value polynomial, or None when A fails the standing hypothesis."""
    try:
        return M.validate_value_poly(ctx, L.to_sparse(ctx, a))
    except InputError:
        return None


def rand_additive(ctx, rng, max_tau=3, monic=False):
    t = rng.randrange(1, max_tau + 1)
    coeffs = [ctx.elem_from_int(rng.randrange(ctx.Q)) for _ in range(t)]
    coeffs.append(ctx.one if monic else
                  ctx.elem_from_int(rng.randrange(1, ctx.Q)))
    return L.make(ctx, ctx.k, coeffs)


# -- apply_poly against termwise Frobenius, scale and add ------------------------

def apply_poly_reference(ctx, a, f):
    """A(f) as the sum of c_i * frob_power(f, base*i) over A's terms."""
    out = {}
    for i, c in enumerate(a.coeffs):
        if c != ctx.zero:
            out = P.add(ctx, out, P.scale(ctx, P.frob_power(ctx, f, a.base * i), c))
    return out


@functools.lru_cache(maxsize=None)
def apply_field(p, N, tables):
    return (FieldCtx if tables else PlainField)(p, 1, N)


APPLY_FIELDS = [(p, N, tables) for p, N in ((2, 2), (2, 3), (3, 2), (2, 6), (3, 6))
                for tables in (True, False)]
# elements as ints; 0 is the zero element, so A and f can hold zero coefficients
COEFFS = st.lists(st.integers(0, 10 ** 6), max_size=4)
F_TERMS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10 ** 6)), max_size=8)


@pytest.mark.parametrize("p,N,tables", APPLY_FIELDS)
@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), COEFFS, F_TERMS)
def test_apply_poly_matches_the_reference(p, N, tables, base, coeffs, fterms):
    ctx = apply_field(p, N, tables)
    a = L.make(ctx, base, [ctx.elem_from_int(v % ctx.Q) for v in coeffs])
    f = {e: ctx.elem_from_int(v % ctx.Q) for e, v in fterms if v % ctx.Q}
    assert L.apply_poly(ctx, a, f) == apply_poly_reference(ctx, a, f)
    for v in (ctx.zero, *f.values()):
        assert P.eval_at(ctx, L.to_sparse(ctx, a), v) == \
            L.apply_poly(ctx, a, {0: v}).get(0, ctx.zero)


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("p", [2, 3])
def test_apply_poly_cancels_and_guards(p, tables):
    """(x^p - x)(x + x^p) = x^(p^2) - x cancels its x^p terms, and a result
    exponent past 2^62 is refused on both paths."""
    ctx = apply_field(p, 2, tables)
    a = L.make(ctx, 1, [ctx.neg(ctx.one), ctx.one])
    assert L.apply_poly(ctx, a, {1: ctx.one, p: ctx.one}) == {p * p: ctx.one, 1: ctx.neg(ctx.one)}
    big = 1 << 62
    assert L.apply_poly(ctx, a, {big // p: ctx.one}) == apply_poly_reference(ctx, a, {big // p: ctx.one})
    with pytest.raises(InputError):
        L.apply_poly(ctx, a, {big // p + 1: ctx.one})


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("p", [2, 3])
def test_apply_each_is_apply_poly_on_each_and_guards_the_largest(p, tables):
    """apply_each gives apply_poly of each polynomial in order, zero ones
    too, and its one exponent check refuses a list whose largest degree
    passes 2^62 after the twist, wherever that polynomial stands."""
    ctx = apply_field(p, 2, tables)
    a = L.make(ctx, 1, [ctx.neg(ctx.one), ctx.one])
    rng = random.Random(p)
    fs = [{}] + [{rng.randrange(30): ctx.elem_from_int(rng.randrange(1, ctx.Q))
                  for _ in range(3)} for _ in range(5)]
    assert L.apply_each(ctx, a, fs) == [L.apply_poly(ctx, a, f) for f in fs]
    assert L.apply_each(ctx, a, []) == []
    big = 1 << 62
    assert L.apply_each(ctx, a, [{big // p: ctx.one}, {}])[0] == \
        L.apply_poly(ctx, a, {big // p: ctx.one})
    for at in range(3):
        over = fs[:2]
        over.insert(at, {big // p + 1: ctx.one})
        with pytest.raises(InputError, match="exponent overflow"):
            L.apply_each(ctx, a, over)


@pytest.mark.parametrize("where", ["A", "f"])
def test_apply_poly_refuses_a_non_element(where):
    """A coefficient that is not a field element raises KeyError, in A or in
    f, on a fresh table field."""
    ctx = FieldCtx(3, 1, 6)
    bad = (3, 0, 0, 0, 0, 0)
    a = L.make(ctx, 1, [ctx.one, bad if where == "A" else ctx.one])
    with pytest.raises(KeyError):
        L.apply_poly(ctx, a, {2: bad if where == "f" else ctx.one, 0: ctx.one})


# -- detection ---------------------------------------------------------------

def test_detect_trinomial_char3(f729):
    a = L.detect_additive(f729, P.from_text(f729, "x^9+x^3+x"))
    assert a is not None and a.base == 1
    assert a.coeffs == (f729.one,) * 3


def test_detect_rejects_constant_term(f4):
    assert L.detect_additive(f4, P.from_text(f4, "x^2+x+1")) is None
    assert L.detect_additive(f4, P.from_text(f4, "x^3+x")) is None


def test_detect_char2_trinomial(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    assert a.base == 1 and a.tau_deg() == 2


def test_detect_picks_largest_level(f64):
    # x^8 - x is additive at level 3, not just level 1
    a = L.detect_additive(f64, P.from_text(f64, "x^8+x"))
    assert a.base == 3 and a.tau_deg() == 1
    aq = L.as_context_base(f64, a)
    assert aq.tau_deg() == 3


def test_rebase_roundtrip_as_sparse(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^8+x"))
    assert L.to_sparse(f64, L.as_context_base(f64, a)) == L.to_sparse(f64, a)


# -- composition and division -------------------------------------------------

def test_tau_compose_example(f64):
    A = L.make(f64, 1, (f64.one, f64.one, f64.one))
    B = L.make(f64, 1, (f64.one, f64.one))
    out = L.tau_compose(f64, A, B)
    assert out.coeffs == (f64.one, f64.zero, f64.zero, f64.one)
    # as plain polynomials: (x^4+x^2+x) o (x^2+x) = x^8 + x
    assert L.to_sparse(f64, out) == P.from_text(f64, "x^8+x")


def test_tau_compose_identity(f9):
    rng = random.Random(2)
    ident = L.make(f9, 1, (f9.one,))
    for _ in range(20):
        a = rand_additive(f9, rng)
        assert L.tau_compose(f9, a, ident) == a


def test_tau_compose_matches_sparse_compose(f9, f64):
    for ctx, seed in ((f9, 5), (f64, 6)):
        rng = random.Random(seed)
        for _ in range(40):
            a = rand_additive(ctx, rng, 2)
            b = rand_additive(ctx, rng, 2)
            lhs = L.to_sparse(ctx, L.tau_compose(ctx, a, b))
            rhs = P.compose(ctx, L.to_sparse(ctx, a), L.to_sparse(ctx, b))
            assert lhs == rhs


@pytest.mark.parametrize("spec", ["3^2:1", "2^6:1", "2^4:2"])
def test_tau_compose_matches_the_pairwise_reference(spec):
    """At 2^4:2 the context level is 2, so one tau step is x -> x^(p^2)."""
    ctx = parse_field_spec(spec)
    rng = random.Random(ctx.Q)
    for base in sorted({1, ctx.k}):
        for _ in range(40):
            a, b = (L.make(ctx, base, [ctx.elem_from_int(rng.randrange(ctx.Q))
                                       for _ in range(rng.randrange(5))])
                    for _ in range(2))
            assert L.tau_compose(ctx, a, b) == tau_compose_pairwise(ctx, a, b)


def test_left_divide_trinomial(f64):
    A = L.make(f64, 1, (f64.one, f64.one, f64.one))
    C = L.binomial(f64, 3, f64.one)
    M, R = L.tau_left_divide(f64, C, A)
    assert R.is_zero()
    assert M.coeffs == (f64.one, f64.one)          # x^2 - x in char 2


def test_left_divide_self(f64):
    A = L.make(f64, 1, (f64.one, f64.one, f64.one))
    M, R = L.tau_left_divide(f64, A, A)
    assert M.coeffs == (f64.one,) and R.is_zero()


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_left_divide_roundtrip(params):
    ctx = make_field(*params)
    rng = random.Random(77)
    for _ in range(100):
        a = rand_additive(ctx, rng, 2)
        m = rand_additive(ctx, rng, 2)
        c = L.tau_compose(ctx, a, m)
        m2, r2 = L.tau_left_divide(ctx, c, a)
        assert r2.is_zero() and m2 == m


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 2)])
def test_left_divide_remainder_degree(params):
    ctx = make_field(*params)
    rng = random.Random(78)
    for _ in range(100):
        c = rand_additive(ctx, rng, 4)
        a = rand_additive(ctx, rng, 2)
        m, r = L.tau_left_divide(ctx, c, a)
        back = P.add(ctx, L.to_sparse(ctx, L.tau_compose(ctx, a, m)),
                     L.to_sparse(ctx, r))
        assert back == L.to_sparse(ctx, c)
        assert r.is_zero() or r.tau_deg() < a.tau_deg()


# -- kernels and splitting ----------------------------------------------------

def test_kernel_base_binomial(f64):
    basis, t = L.kernel(f64, L.binomial(f64, 1, f64.one))
    assert t == 1
    span = {f64.zero, basis[0]}
    assert span == set(f64.subfield_elements(1))


def test_kernel_trinomial_in_f8(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    basis, t = L.kernel(f64, a)
    assert t == 2
    roots = {v for v in f64.elements()
             if P.eval_at(f64, P.from_text(f64, "x^4+x^2+x"), v) == f64.zero}
    assert len(roots) == 4 and all(f64.in_subfield(v, 3) for v in roots)
    span = {f64.zero}
    for b in basis:
        span |= {f64.add(s, b) for s in span}
    assert span == roots


def test_kernel_subfield_binomial(f64):
    basis, t = L.kernel(f64, L.binomial(f64, 3, f64.one))
    assert t == 3
    span = {f64.zero}
    for b in basis:
        span |= {f64.add(s, b) for s in span}
    assert span == set(f64.subfield_elements(3))


def test_kernel_above_the_element_guard_scans_no_field(monkeypatch):
    """On F_{2^22}, past the element guard, the kernel of x^4 + x is a basis
    of F_4, found with no element scan: FqSpan's F_p-basis of F_2 is [1]."""
    ctx = PlainField(2, 1, 22)

    def refuse(self):
        raise AssertionError("element scan")

    monkeypatch.setattr(FieldCtx, "elements", refuse)
    basis, t = L.kernel(ctx, L.make(ctx, 1, [ctx.one, ctx.zero, ctx.one]))
    assert t == 2 and len(set(basis)) == 2 and ctx.zero not in basis
    assert all(ctx.frobenius_p(b, 2) == b for b in basis)


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2)],
                         ids=lambda p: "%d-%d-%d" % p)
def test_kernel_is_the_greedy_f_q_basis_of_the_f_p_nullspace(params):
    """kernel is the zeros of fp_nullspace that enlarge an FqSpan, in order,
    with t their number; at q = p that is the whole F_p-basis, returned as
    it is, and at q > p an F_q-basis of t members, t = log_q of the number
    of roots."""
    ctx = make_field(*params)
    rng = random.Random(sum(params))
    for t in range(1, ctx.n + 1):
        span, vs = FqSpan(ctx), []
        while len(vs) < t:
            v = ctx.elem_from_int(rng.randrange(1, ctx.Q))
            if span.add((v,)):
                vs.append(v)
        a = L.subspace_poly(ctx, vs)
        null = L.fp_nullspace(ctx, a)
        greedy = FqSpan(ctx)
        assert L.kernel(ctx, a) == ([w for w in null if greedy.add((w,))], t)
        assert len(null) == t * ctx.k


def test_kernel_bound_and_splitting(f64):
    # the split decision is made on A made monic, which has A's roots
    rng = random.Random(91)
    for _ in range(40):
        a = rand_additive(f64, rng, 3)
        _, t = L.kernel(f64, a)
        deg = 2 ** a.tau_deg()
        assert 2 ** t <= deg
        lead = f64.inv(a.coeffs[-1])
        monic = L.make(f64, a.base, [f64.mul(lead, c) for c in a.coeffs])
        admitted = deg > 2 or monic.coeffs == (f64.one, f64.one)
        assert (split_of(f64, monic) is not None) == \
            (a.coeffs[0] != f64.zero and 2 ** t == deg and admitted)


def test_splits_examples(f4, f64):
    a64 = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    assert split_of(f64, a64) is not None
    a4 = L.detect_additive(f4, P.from_text(f4, "x^4+x^2+x"))
    assert split_of(f4, a4) is None
    assert L.kernel(f4, a4)[1] == 0           # roots lie in F_8, not F_4
    # x^4 - g*x over F_4 as base field: g is not a cube
    ctx = make_field(2, 2, 1)
    g = ctx.elem_from_int(2)
    a = L.make(ctx, ctx.k, (ctx.neg(g), ctx.one))
    assert split_of(ctx, a) is None


def test_additivity_as_function(f64):
    rng = random.Random(101)
    a = L.to_sparse(f64, L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x")))
    for _ in range(50):
        x = f64.elem_from_int(rng.randrange(64))
        y = f64.elem_from_int(rng.randrange(64))
        assert P.eval_at(f64, a, f64.add(x, y)) == \
            f64.add(P.eval_at(f64, a, x), P.eval_at(f64, a, y))
        for c in f64.subfield_elements(1):
            assert P.eval_at(f64, a, f64.mul(c, x)) == \
                f64.mul(c, P.eval_at(f64, a, x))


# -- the checked split additive polynomial ------------------------------------

def test_split_additive_keeps_its_kernel(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    vp = M.split_additive(f64, a, "refused")
    assert vp.additive == L.as_context_base(f64, a) and vp.additive.tau_deg() == 2
    assert (list(vp.null), 2) == L.kernel(f64, a)
    assert split_of(f64, a) is vp


@pytest.mark.parametrize("field, text, admitted", [
    pytest.param(field, text, admitted, id=f"{field}-{text}") for field, text, admitted in [
        ("2^6:1", "g*x^4+x^2+x", False),    # not monic
        ("2^6:1", "x^2+x", True),           # degree 2: the q = 2 carve-out
        ("2^6:1", "x", False),              # degree 1
        ("2^6:1", "x^4+x^2", False),        # c_0 = 0
        ("2^2:1", "x^4+x^2+x", False),      # roots lie in F_8, not F_4
    ]])
def test_split_additive_refusals_match_the_lift(field, text, admitted):
    """The lift refuses every A that fails the standing hypothesis, and also
    the quadratic that the value polynomial check admits at q = 2."""
    ctx = parse_field_spec(field)
    a = L.detect_additive(ctx, P.from_text(ctx, text))
    with pytest.raises(InputError) as lifted:
        W.lift_pipeline(ctx, a)
    assert str(lifted.value) == L.STAR_REFUSAL
    with pytest.raises(InputError, match="^refused$"):
        M.split_additive(ctx, a, "refused")
    assert (split_of(ctx, a) is not None) == admitted
    if admitted:
        vp = M.split_additive(ctx, a, "refused", admit_quadratic=True)
        assert vp.additive.tau_deg() == 1
    else:
        with pytest.raises(InputError, match="^refused$"):
            M.split_additive(ctx, a, "refused", admit_quadratic=True)


# -- subspace polynomials -----------------------------------------------------

def test_subspace_poly_base_field(f64):
    m = L.subspace_poly(f64, f64.subfield_basis(1))
    assert m == L.make(f64, 1, (f64.neg(f64.one), f64.one))


def test_subspace_poly_subfield(f64, f729):
    for ctx, d in ((f64, 2), (f64, 3), (f729, 3)):
        m = L.subspace_poly(ctx, ctx.subfield_basis(d))
        assert L.to_sparse(ctx, m) == \
            {ctx.q ** d: ctx.one, 1: ctx.neg(ctx.one)}


def test_subspace_poly_kernel_roundtrip(f64):
    rng = random.Random(111)
    for _ in range(25):
        vs = []
        span = FqSpan(f64)
        while len(vs) < 2:
            v = f64.elem_from_int(rng.randrange(1, 64))
            if span.add((v,)):
                vs.append(v)
        m = L.subspace_poly(f64, vs)
        basis, t = L.kernel(f64, m)
        assert t == 2
        span = {f64.zero}
        for b in vs:
            span |= {f64.add(s, b) for s in span}
        kspan = {f64.zero}
        for b in basis:
            kspan |= {f64.add(s, b) for s in kspan}
        assert span == kspan


def test_subspace_poly_rejects_dependent(f64):
    with pytest.raises(InputError):
        L.subspace_poly(f64, [f64.one, f64.one])


# -- binomial multiples and factorization -------------------------------------

def test_minimal_binomial_example(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    assert L.minimal_binomial_multiple(f64, split_of(f64, a).null) == (3, f64.one)


def test_minimal_binomial_of_binomial(f64):
    for d in (2, 3, 6):
        a = L.binomial(f64, d, f64.one)
        assert L.minimal_binomial_multiple(f64, split_of(f64, a).null) == (d, f64.one)


def test_minimal_binomial_non_stable_subspace():
    ctx = make_field(2, 1, 4)
    found = None
    for i in range(2, 16):
        for j in range(i + 1, 16):
            vs = [ctx.elem_from_int(i), ctx.elem_from_int(j)]
            span = FqSpan(ctx)
            span.add((vs[0],))
            if not span.add((vs[1],)):
                continue
            span = {ctx.zero, vs[0], vs[1], ctx.add(vs[0], vs[1])}
            if {ctx.frobenius(v, 2) for v in span} != span:
                found = vs
                break
        if found:
            break
    vp = split_of(ctx, L.subspace_poly(ctx, found))
    d, alpha = L.minimal_binomial_multiple(ctx, vp.null)
    assert d == 4
    w = L.factor_through_binomial(ctx, vp.additive, d, alpha)
    assert w.t == 2 and w.M.tau_deg() == 2


def test_factor_example(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    w = L.factor_through_binomial(f64, split_of(f64, a).additive, 3, f64.one)
    assert L.to_sparse(f64, w.M) == P.from_text(f64, "x^2+x")
    assert w.gamma == f64.one and w.t == 2


def test_factor_binomial_itself(f64):
    a = L.binomial(f64, 3, f64.one)
    w = L.factor_through_binomial(f64, split_of(f64, a).additive, 3, f64.one)
    assert w.M.coeffs == (f64.one,) and w.gamma == f64.one


def test_factor_roundtrip_random_chain(f64):
    # build A0 with tau_compose(A0, M0) = tau^d - 1, then refactor
    rng = random.Random(121)
    for _ in range(20):
        vs = []
        while len(vs) < 1:
            v = f64.elem_from_int(rng.randrange(1, 64))
            vs.append(v)
        m0 = L.subspace_poly(f64, vs)
        for d in (2, 3, 6):
            c = L.binomial(f64, d, f64.one)
            a0, r = L.tau_left_divide(f64, c, m0)
            if not r.is_zero():
                continue
            # a0 o m0 may differ from m0 o a0; verify the one we built
            assert L.tau_compose(f64, m0, a0).coeffs == c.coeffs


def test_factor_nondivisor_raises(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    with pytest.raises(InputError):
        L.factor_through_binomial(f64, split_of(f64, a).additive, 2, f64.one)


def test_witness_alpha_twist(f64):
    # alpha != 1: scale a Frobenius-stable kernel by beta
    beta = f64.elem_from_int(5)
    alpha = f64.pow_elem(beta, 2 ** 3 - 1)
    if alpha != f64.one:
        a = L.binomial(f64, 3, alpha)
        vp = split_of(f64, a)
        assert vp is not None
        w = L.factor_through_binomial(f64, vp.additive, 3, alpha)
        assert w.t == 3 and w.M.tau_deg() == 0


def test_tau_text_roundtrip(f64):
    a = L.make(f64, 1, (f64.one, f64.elem_from_int(3), f64.one))
    s = L.tau_to_text(f64, a)
    assert L.tau_from_text(f64, s) == a


@pytest.mark.parametrize("spec", ["3^2:1", "2^6:1", "2^4:2"])
def test_tau_text_matches_the_termwise_reference(spec):
    """Coefficients are drawn from zero, one and the rest, so zero terms,
    unit terms and the zero polynomial all occur.  Each A is also taken
    at twice the context level, which the text writes at the context level."""
    ctx = parse_field_spec(spec)
    rng = random.Random(ctx.Q + 24)
    pool = [ctx.zero, ctx.one, ctx.one] + [ctx.elem_from_int(v) for v in range(2, ctx.Q)]
    for _ in range(300):
        coeffs = [rng.choice(pool) for _ in range(rng.randrange(6))]
        for base in (ctx.k, 2 * ctx.k):
            a = L.make(ctx, base, coeffs)
            text = L.tau_to_text(ctx, a)
            assert text == tau_to_text_termwise(ctx, a)
            assert L.tau_from_text(ctx, text) == L.as_context_base(ctx, a)


# -- roots from the nullspace ------------------------------------------------------------

def split_p_additive(ctx):
    """(t, A) for every split separable p-additive A of the field ctx, one
    per nonzero F_p-subspace of dimension t, built over the prime base."""
    prime = make_field(ctx.p, 1, ctx.N)         # same modulus, same elements
    for t in range(1, ctx.N + 1):
        for basis in O.subspaces(prime, t):
            yield t, L.subspace_poly(prime, basis)


@pytest.mark.parametrize("spec", ["2^4:1", "2^6:1", "2^4:2", "3^3:1", "3^4:1"])
def test_roots_match_field_scan(spec):
    """Every split separable p-additive T: the nullspace span is the scanned
    root set, also where T is not additive at the context base, and it is
    what the checked value polynomial keeps."""
    ctx = parse_field_spec(spec)
    count = 0
    for t, a in split_p_additive(ctx):
        T = L.to_sparse(ctx, a)
        roots = ctx.span_elements(L.fp_nullspace(ctx, a))
        assert roots == P.roots(ctx, T)
        assert len(roots) == ctx.p ** t
        if ctx.p ** t > 2:
            assert M.validate_value_poly(ctx, T).roots == roots
        count += 1
    assert count == {"2^4": 66, "2^6": 2824, "3^3": 27, "3^4": 211}[spec.split(":")[0]]


@pytest.mark.parametrize("spec", ["2^4:1", "2^6:1", "3^3:1", "2^4:2"])
def test_fp_nullspace_matches_the_reference_back_substitution(spec):
    """For every split separable p-additive A, fp_nullspace is the numpy
    reference nullspace of the digit matrix M[r][c] = digit r of A(y^c),
    basis and order exactly: entry c = 1 at each dependent input c, in
    increasing c, zero at the other dependent inputs."""
    ctx = parse_field_spec(spec)
    for _, a in split_p_additive(ctx):
        sa = L.to_sparse(ctx, a)
        cols = [P.eval_at(ctx, sa, ctx.elem_from_int(ctx.p ** c)) for c in range(ctx.N)]
        matrix = [[col[r] for col in cols] for r in range(ctx.N)]
        assert L.fp_nullspace(ctx, a) == [tuple(v) for v in nullspace(matrix, ctx.p)]

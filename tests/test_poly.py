import functools
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.errors import InputError
from mvspoly.gf import FieldCtx, PlainField, make_field
from mvsp_reference import affine_equivalent
from poly_reference import (compose_horner, fold_termwise, from_json_obj, from_text_char_loop,
                            interpolate, reduce_mod_field)


def rand_poly(ctx, rng, max_deg=8, terms=4):
    f = {}
    for _ in range(terms):
        e = rng.randrange(max_deg + 1)
        c = ctx.elem_from_int(rng.randrange(ctx.Q))
        if c != ctx.zero:
            f[e] = c
    return f


def test_compose_freshman(f64):
    out = P.compose(f64, P.from_text(f64, "x^2"), P.from_text(f64, "x+1"))
    assert out == P.from_text(f64, "x^2+1")


def test_mul_monomials(f64):
    assert P.mul(f64, {9: f64.one}, {9: f64.one}) == {18: f64.one}


def test_compose_degree_law(f9):
    rng = random.Random(3)
    for _ in range(40):
        f = rand_poly(f9, rng, 5)
        g = rand_poly(f9, rng, 4)
        if P.degree(f) in (P.NEG_INF, 0) or P.degree(g) in (P.NEG_INF, 0):
            continue
        assert P.degree(P.compose(f9, f, g)) == P.degree(f) * P.degree(g)


def test_derivative_examples(f64):
    assert P.derivative(f64, P.from_text(f64, "x^18+x^9")) == {8: f64.one}
    assert P.derivative(f64, P.from_text(f64, "x^4+x^2+x")) == {0: f64.one}
    # p-th powers die
    f = P.from_text(f64, "x^6+x^2")
    assert P.derivative(f64, P.frob_power(f64, f, 1)) == {}


def test_reduce_mod_field(f64):
    assert reduce_mod_field(f64, {64: f64.one}) == {1: f64.one}
    assert reduce_mod_field(f64, {67: f64.one}) == {4: f64.one}


def test_reduce_kills_field_poly_multiples(f64):
    rng = random.Random(11)
    xqx = {64: f64.one, 1: f64.neg(f64.one)}
    for _ in range(25):
        h = rand_poly(f64, rng, 64)
        assert reduce_mod_field(f64, P.mul(f64, xqx, h)) == {}


def test_reduce_agrees_as_function(f9):
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(f9, rng, 40)
        r = reduce_mod_field(f9, f)
        for a in f9.elements():
            assert P.eval_at(f9, f, a) == P.eval_at(f9, r, a)


def test_gcd_examples(f4, f64):
    f = P.from_text(f64, "x^2+x")
    assert P.gcd(f64, f, {}) == f
    assert P.gcd(f4, P.from_text(f4, "x^2+x"), P.from_text(f4, "x")) == {1: f4.one}


def test_gcd_with_field_poly_counts_roots(f9):
    rng = random.Random(17)
    for _ in range(25):
        f = rand_poly(f9, rng, 6)
        if not f or P.degree(f) == 0:
            continue
        roots = sum(1 for a in f9.elements() if P.eval_at(f9, f, a) == f9.zero)
        assert P.degree(P.field_gcd(f9, f)) == roots


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 2)])
def test_x_pow_p_mod_both_ways(params):
    """x^(p^m) mod f is taken termwise when p <= deg f and by squaring mod f
    otherwise; both agree with the termwise reference and with pow_mod."""
    ctx = make_field(*params)
    rng = random.Random(sum(params))
    for _ in range(30):
        f = rand_poly(ctx, rng, 5)
        f[rng.randrange(1, 7)] = ctx.one
        f = P.monic(ctx, f)
        ref = P.x_poly(ctx)
        for m in range(1, ctx.N + 1):
            ref = P.divmod_(ctx, P.frob_power(ctx, ref, 1), f)[1]
            assert P.x_pow_p_mod(ctx, f, m) == ref
            assert P.pow_mod(ctx, P.x_poly(ctx), ctx.p ** m, f) == ref


def test_value_set_examples(f4, f64):
    assert len(P.value_set(f64, {1: f64.one})) == 64
    v9 = P.value_set(f64, {9: f64.one})
    assert len(v9) == 8 and all(f64.in_subfield(a, 3) for a in v9)
    g = f4.elem_from_int(2)
    tr = {1: g, 2: f4.mul(g, g)}
    assert P.value_set(f4, tr) == frozenset(f4.subfield_elements(1))


def test_interpolate_constant(f9):
    c = f9.elem_from_int(4)
    pts = [(a, c) for a in f9.elements()[:3]]
    assert interpolate(f9, pts) == {0: c}


def test_interpolate_recovers_poly(f9):
    rng = random.Random(23)
    for _ in range(20):
        f = rand_poly(f9, rng, 5)
        pts = [(a, P.eval_at(f9, f, a)) for a in f9.elements()[:7]]
        if P.degree(f) is P.NEG_INF or P.degree(f) < 7:
            assert interpolate(f9, pts) == f


def test_interpolate_full_graph_degree(f8):
    rng = random.Random(29)
    table = [f8.elem_from_int(rng.randrange(8)) for _ in range(8)]
    f = interpolate(f8, list(zip(f8.elements(), table)))
    assert P.degree(f) is P.NEG_INF or P.degree(f) <= 7
    for a, y in zip(f8.elements(), table):
        assert P.eval_at(f8, f, a) == y


def test_interpolate_rejects_repeats(f9):
    with pytest.raises(InputError):
        interpolate(f9, [(f9.one, f9.one), (f9.one, f9.zero)])


def test_interpolate_full_graph_identity(f9):
    # any f of degree <= Q-1 is the unique interpolant of its own graph
    rng = random.Random(47)
    for _ in range(15):
        f = rand_poly(f9, rng, f9.Q - 1, terms=5)
        pts = [(a, P.eval_at(f9, f, a)) for a in f9.elements()]
        assert interpolate(f9, pts) == f


def test_product_and_chain_rule(f9, f8):
    for ctx, seed in ((f9, 31), (f8, 37)):
        rng = random.Random(seed)
        for _ in range(200):
            f = rand_poly(ctx, rng, 6)
            g = rand_poly(ctx, rng, 5)
            lhs = P.derivative(ctx, P.mul(ctx, f, g))
            rhs = P.add(ctx, P.mul(ctx, P.derivative(ctx, f), g),
                        P.mul(ctx, f, P.derivative(ctx, g)))
            assert lhs == rhs
            chain = P.derivative(ctx, P.compose(ctx, f, g))
            expect = P.mul(ctx, P.compose(ctx, P.derivative(ctx, f), g),
                           P.derivative(ctx, g))
            assert chain == expect


def test_eval_compose(f64):
    rng = random.Random(41)
    for _ in range(60):
        f = rand_poly(f64, rng, 9)
        g = rand_poly(f64, rng, 7)
        a = f64.elem_from_int(rng.randrange(64))
        assert P.eval_at(f64, P.compose(f64, f, g), a) == \
            P.eval_at(f64, f, P.eval_at(f64, g, a))


def test_exponent_overflow_guard(f4, f9):
    big = {1 << 62: f4.one}
    with pytest.raises(InputError):
        P.mul(f4, big, {1 << 62: f4.one})
    # pow_ refuses a power past 2^62 itself: its square has no such check
    with pytest.raises(InputError):
        P.pow_(f9, {(1 << 61) + 1: f9.one, 0: f9.one}, 2)
    assert P.degree(P.pow_(f9, {1 << 61: f9.one, 0: f9.one}, 2)) == 1 << 62
    # every product refusal is check_exponent's, with its one message
    P.check_exponent(1 << 62)
    for refuse in (lambda: P.check_exponent((1 << 62) + 1),
                   lambda: P.mul(f4, big, {1: f4.one}),
                   lambda: P.frob_power(f4, {1 << 61: f4.one}, 2),
                   lambda: P.compose(f4, {2: f4.one}, {(1 << 61) + 1: f4.one})):
        with pytest.raises(InputError, match=r"^exponent overflow beyond 2\^62$"):
            refuse()


@pytest.mark.parametrize("text", ["x^abc", "x^-3", "x^4^2", "x^", "x^4+x^2.5",
                                  "x^99999999999999999999999", f"x^{(1 << 62) + 1}"])
def test_from_text_rejects_bad_exponents(f64, text):
    with pytest.raises(InputError):
        P.from_text(f64, text)


def test_from_text_exponent_limit(f64):
    assert P.from_text(f64, f"x^{1 << 62}") == {1 << 62: f64.one}


def test_pow_matches_repeated_mul(f9):
    rng = random.Random(43)
    for _ in range(30):
        f = rand_poly(f9, rng, 4)
        out = {0: f9.one}
        for e in range(6):
            assert P.pow_(f9, f, e) == out
            out = P.mul(f9, out, f)


def test_text_roundtrip(f729):
    for s in ("x^9+x^3+x", "x^5+x^2+x", "2,1*x^4 + 1", "0"):
        f = P.from_text(f729, s)
        assert P.from_text(f729, P.to_text(f729, f)) == f


def test_text_minus(f9):
    assert P.from_text(f9, "x^3-x") == {3: f9.one, 1: f9.neg(f9.one)}


def test_json_roundtrip(f64):
    f = P.from_text(f64, "x^18+x^9")
    obj = P.to_json_obj(f64, f)
    assert [t["e"] for t in obj["terms"]] == [18, 9]
    assert from_json_obj(f64, obj) == f


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 8)),
                min_size=0, max_size=6))
def test_add_commutes_f9(pairs):
    ctx = make_field(3, 1, 2)
    f = {}
    g = {}
    for i, (e, c) in enumerate(pairs):
        tgt = f if i % 2 else g
        cc = ctx.elem_from_int(c)
        if cc != ctx.zero:
            tgt[e] = cc
    assert P.add(ctx, f, g) == P.add(ctx, g, f)
    assert P.mul(ctx, f, g) == P.mul(ctx, g, f)


# -- mul against the pair-by-pair sum ----------------------------------------------------

def mul_pairwise(ctx, f, g):
    """f*g adding each term pair's product into the result as it comes."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            s = ctx.add(out.get(e1 + e2, ctx.zero), ctx.mul(c1, c2))
            if s == ctx.zero:
                out.pop(e1 + e2, None)
            else:
                out[e1 + e2] = s
    return out


MUL_FIELDS = [(p, N, tables) for p, N in ((2, 4), (3, 2), (5, 2), (3, 6), (2, 8))
              for tables in (True, False)]


@functools.lru_cache(maxsize=None)
def mul_field(p, N, tables):
    return (FieldCtx if tables else PlainField)(p, 1, N)


TERMS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 10 ** 6)), max_size=8)


@pytest.mark.parametrize("p,N,tables", MUL_FIELDS)
@settings(max_examples=100, deadline=None)
@given(TERMS, TERMS)
def test_mul_matches_pairwise_sum(p, N, tables, fterms, gterms):
    ctx = mul_field(p, N, tables)
    f = {e: ctx.elem_from_int(v % ctx.Q) for e, v in fterms if v % ctx.Q}
    g = {e: ctx.elem_from_int(v % ctx.Q) for e, v in gterms if v % ctx.Q}
    assert P.mul(ctx, f, g) == mul_pairwise(ctx, f, g)


@pytest.mark.parametrize("tables", [True, False])
def test_mul_matches_pairwise_sum_when_terms_cancel(tables):
    """Products where most term pairs cancel or pile up: f*f at p = 2, whose
    cross terms cancel in pairs to leave the termwise square, and F^2 * F^3
    for a 26-term F on F_729 (2782 term pairs onto 279 exponents)."""
    ctx = mul_field(2, 8, tables)
    rng = random.Random(2026)
    for _ in range(20):
        f = rand_poly(ctx, rng, 40, 20)
        assert P.mul(ctx, f, f) == P.frob_power(ctx, f, 1) == mul_pairwise(ctx, f, f)
    ctx = mul_field(3, 6, tables)
    rng = random.Random(729)
    F = {e: ctx.elem_from_int(rng.randrange(1, ctx.Q)) for e in rng.sample(range(60), 26)}
    F2 = mul_pairwise(ctx, F, F)
    F3 = mul_pairwise(ctx, F2, F)
    assert P.mul(ctx, F2, F3) == mul_pairwise(ctx, F2, F3)
    assert P.pow_(ctx, F, 5) == mul_pairwise(ctx, F2, F3)


@pytest.mark.parametrize("bad", [(3, 0, 0, 0, 0, 0), (1, 0), (0,) * 7, (0, -1, 0, 0, 0, 0)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_mul_refuses_a_non_element(bad, side):
    """A coefficient that is not a field element raises KeyError on either
    side of the product, on a fresh table field, so the first-use log path
    refuses."""
    ctx = FieldCtx(3, 1, 6)
    f, g = {2: ctx.one, 0: ctx.neg(ctx.one)}, {1: bad, 0: ctx.one}
    with pytest.raises(KeyError):
        P.mul(ctx, f, g) if side == "right" else P.mul(ctx, g, f)


@pytest.mark.parametrize("tables", [True, False])
def test_mul_skips_a_stored_zero_coefficient(tables):
    """A zero coefficient stored against the dict invariant adds nothing."""
    ctx = mul_field(3, 2, tables)
    f, g = {3: ctx.one, 1: ctx.zero}, {2: ctx.elem_from_int(5), 0: ctx.zero}
    assert P.mul(ctx, f, g) == P.mul(ctx, g, f) == {5: ctx.elem_from_int(5)}


SQUARE_FIELDS = [(p, N, tables) for p, N in ((3, 2), (3, 3), (3, 6), (5, 3), (1021, 1), (2, 6))
                 for tables in (True, False)]


@pytest.mark.parametrize("p,N,tables", SQUARE_FIELDS)
def test_square_matches_mul_and_the_termwise_fold(p, N, tables):
    """ctx.square(f) equals poly.mul(f, f) and the term-pair reference fold
    on both back ends, for random f and for f whose products cancel: at
    x^3, a*d*x^3 + b*c*x^3 with a*d = -b*c, and at x^2, the diagonal e^2
    against the cross product 2*b*c' with c' = -e^2 / 2b (at odd p)."""
    ctx = mul_field(p, N, tables)
    rng = random.Random(p ** N)
    units = [ctx.elem_from_int(v) for v in rng.sample(range(1, ctx.Q), min(ctx.Q - 1, 40))]
    cases = [{}, {5: units[0]}] + [rand_poly(ctx, rng, 30, 12) for _ in range(20)]
    for _ in range(10):
        a, b, c, e = (rng.choice(units) for _ in range(4))
        d = ctx.neg(ctx.div(ctx.mul(b, c), a))
        cases.append({0: a, 1: b, 2: c, 3: d})
        if p > 2:
            cases.append({0: b, 1: e, 2: ctx.neg(ctx.div(ctx.mul(e, e), ctx.smul(2, b)))})
    cancelled = 0
    for f in cases:
        sq = ctx.square(f)
        assert sq == P.mul(ctx, f, f) == fold_termwise(ctx, f, [(e, c, 0) for e, c in f.items()])
        if p > 2:
            cancelled += len(sq) < len({e1 + e2 for e1 in f for e2 in f})
        else:
            assert sq == P.frob_power(ctx, f, 1)
    assert p == 2 or cancelled >= 10


@pytest.mark.parametrize("tables", [True, False])
def test_pow_and_pow_mod_square_once(monkeypatch, tables):
    """pow_ makes its first self-product by ctx.square, and pow_mod each of
    its squarings, with results equal to repeated products."""
    ctx = mul_field(5, 2, tables)
    f = rand_poly(ctx, random.Random(52), 9, 6)
    m = {7: ctx.one, 2: ctx.elem_from_int(3), 0: ctx.elem_from_int(11)}
    squares = []
    real = type(ctx).square
    monkeypatch.setattr(type(ctx), "square",
                        lambda c, g: squares.append(len(g)) or real(c, g))
    assert P.pow_(ctx, f, 3) == mul_pairwise(ctx, mul_pairwise(ctx, f, f), f)
    assert len(squares) == 1
    expected = {0: ctx.one}
    for _ in range(13):
        expected = P.divmod_(ctx, mul_pairwise(ctx, expected, f), m)[1]
    del squares[:]
    assert P.pow_mod(ctx, f, 13, m) == expected and len(squares) == 3


def test_compose_makes_no_product_by_one(monkeypatch, f729):
    """pow_ starts from its first factor, and its first self-product is a
    square.  T(F) for T = x^5 + x^2 + x on F_729 and a 4-term F makes g^2
    by one square (10 products; g^1 needs none) and no mul.  The rows of
    x^5 = x^(12_3) are g^2 times its coefficient, with no fold; the top
    digits make one fold of g by the rows of x^5 and x (11 rows, 44
    products) and one of g^2 by the row of x^2 (10): 64 products in all,
    where five muls made 80 when every digit was a product by a frob_power
    copy.  Every coefficient of T is 1, so no element product is made
    either."""
    calls = []
    products = []
    squares = []
    elem_products = []
    real_mul, real_fold, real_square = P.mul, FieldCtx.fold, FieldCtx.square
    real_elem_mul = FieldCtx.mul

    def counting_mul(ctx, f, g):
        calls.append((f, g))
        return real_mul(ctx, f, g)

    def counting_fold(ctx, f, rows):
        products.append(len(rows) * len(f))
        return real_fold(ctx, f, rows)

    def counting_square(ctx, f):
        squares.append(len(f) * (len(f) + 1) // 2)
        return real_square(ctx, f)

    T = P.from_text(f729, "x^5+x^2+x")
    F = P.from_text(f729, "x^28 + 2,1*x^4 + x + 1")
    expected = P.compose(f729, T, F)
    assert expected == compose_horner(f729, T, F)
    monkeypatch.setattr(P, "mul", counting_mul)
    monkeypatch.setattr(FieldCtx, "fold", counting_fold)
    monkeypatch.setattr(FieldCtx, "square", counting_square)
    monkeypatch.setattr(FieldCtx, "mul",
                        lambda ctx, a, b: elem_products.append(1) or real_elem_mul(ctx, a, b))
    assert P.compose(f729, T, F) == expected
    assert calls == [] and squares == [10] and sorted(products) == [10, 44]
    assert elem_products == []
    assert P.pow_(f729, F, 1) == F and P.pow_(f729, F, 3) == P.frob_power(f729, F, 1)
    assert calls == [] and squares == [10]


# -- compose against Horner's rule -------------------------------------------------------

COMPOSE_FIELDS = [(p, N, tables) for p, N in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 6),
                                                 (3, 6), (1021, 1))
                  for tables in (True, False)]
# an exponent as up to five base-p digits, each at most 4
EXPONENT = st.lists(st.integers(0, 4), max_size=5)
F_TERMS = st.lists(st.tuples(EXPONENT, st.integers(1, 10 ** 6)), min_size=1, max_size=4)
G_SHAPES = st.tuples(st.sampled_from(["zero", "constant", "monomial", "binomial"]),
                     st.integers(1, 6), st.integers(1, 10 ** 6))


@pytest.mark.parametrize("p,N,tables", COMPOSE_FIELDS)
@seed(20261021)
@settings(max_examples=40, deadline=None)
@given(F_TERMS, st.integers(0, 10 ** 6), G_SHAPES)
def test_compose_matches_horner(p, N, tables, fterms, const_term, g_shape):
    ctx = mul_field(p, N, tables)

    def elem(v):
        return ctx.elem_from_int(v % (ctx.Q - 1) + 1)     # nonzero

    kind, v, c = g_shape
    f = {sum(min(d, p - 1) * p ** j for j, d in enumerate(ds)): elem(v) for ds, v in fterms}
    if p > 64 and kind == "binomial":
        # a gap such as p - 1 between exponents costs Horner's pow_ p - 1
        # products of a growing binomial power, so exponents stay below 64
        f = {e % 64: c for e, c in f.items()}
    if const_term:
        f[0] = elem(const_term)
    g = {"zero": {}, "constant": {0: elem(c)}, "monomial": {v: elem(c)},
         "binomial": {v: ctx.one, 0: elem(c)}}[kind]
    assert P.compose(ctx, f, g) == compose_horner(ctx, f, g)


@pytest.mark.parametrize("e,v", [(1 << 31, 1 << 31), ((1 << 31) + 1, 1 << 31),
                                 (3, (1 << 61) + 1), (1 << 62, 1)])
def test_compose_exponent_limit(f4, e, v):
    """Past 2^62 both forms refuse with InputError; at 2^62 both answer."""
    f, g = {e: f4.one, 0: f4.one}, {v: f4.one, 0: f4.one}
    if e * v > 1 << 62:
        for fn in (P.compose, compose_horner):
            with pytest.raises(InputError):
                fn(f4, f, g)
    else:
        assert P.compose(f4, f, g) == compose_horner(f4, f, g)


def test_compose_callers_match_horner(monkeypatch, f8, f9, f729):
    """find_additive_reduction, power_lift and affine_equivalent give the
    same answers with the Horner reference in place of compose."""
    T8 = P.from_text(f8, "x^4+x^2+x")
    T729 = P.from_text(f729, "x^5+x^2+x")
    A729 = L.detect_additive(f729, P.from_text(f729, "x^9+x^3+x"))
    F729 = W.lift_pipeline(f729, A729).generators[1]
    F9 = P.from_text(f9, "x^4+x")
    G9 = P.compose(f9, F9, {1: f9.elem_from_int(5), 0: f9.elem_from_int(7)})

    def answers():
        return (M.find_additive_reduction(f8, T8), M.find_additive_reduction(f729, T729),
                M.power_lift(f729, F729, 2, T729), affine_equivalent(f9, F9, G9))

    ours = answers()
    monkeypatch.setattr(P, "compose", compose_horner)
    assert answers() == ours
    assert ours[0] and ours[1] and ours[3] == (f9.elem_from_int(5), f9.elem_from_int(7))


@pytest.mark.parametrize("text", ["x+", "x-", "x++1", "x+-1", "x^2 + + 1", "-", "+ -x"])
def test_text_empty_term_is_refused(f9, text):
    with pytest.raises(InputError):
        P.from_text(f9, text)


def test_text_leading_sign_and_difference(f9):
    minus_one = f9.neg(f9.one)
    assert P.from_text(f9, "-x") == {1: minus_one}
    assert P.from_text(f9, " - x^2 - 1") == {2: minus_one, 0: minus_one}
    assert P.from_text(f9, "x - 1") == {1: f9.one, 0: minus_one}


# -- the regex tokenizer against the character loop ------------------------------------

def parse_outcome(parse, ctx, text):
    """The parsed polynomial, or the InputError message."""
    try:
        return parse(ctx, text)
    except InputError as exc:
        return ("InputError", str(exc))


SIGNS = st.sampled_from(["", "+", "-", "--", " - ", "+-", "- +", " "])
TERM = st.tuples(SIGNS, st.sampled_from(["", "1,2", "g", "2", "0", "1,0,1", "3", "a", " 1 "]),
                 st.sampled_from(["", "*", " * ", "**"]),
                 st.sampled_from(["", "x", "x ", "X", "xx", "x^", "x^ 3", "x^12", "x^-1",
                                  "x^2.5", f"x^{1 << 62}", f"x^{(1 << 62) + 1}"]))
VALID_TERM = st.tuples(st.sampled_from(["+", "-", " + ", " - "]),
                       st.sampled_from(["", "1,2", "g", "2", "1,0", " 1 "]),
                       st.sampled_from(["", "*", " * "]),
                       st.sampled_from(["", "x", "x^3", "x^ 12", "x^0"]))
POLY_TEXT = st.one_of(
    st.tuples(st.sampled_from(["", "-", "+", " - "]), st.lists(VALID_TERM, min_size=1, max_size=5))
    .map(lambda st_ts: st_ts[0] + "".join("".join(t) for t in st_ts[1])[1:]),
    st.lists(TERM, max_size=5).map(lambda ts: "".join("".join(t) for t in ts)),
    st.text(alphabet="x^0123456789+-*, g", max_size=24),
    st.sampled_from(["-x", "--x", "-", "+", "-x^2+1", "=-x", "x+", "x-", "x+-1", "+ -x",
                     " - x^2 - 1", "0", " 0 ", "-0", "", "  ", "xx + 1", "x^2.5 - x", "x^ a + 1",
                     "3*x - 1"]))


@pytest.mark.parametrize("field", [(3, 1, 2), (2, 1, 6)])
@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(POLY_TEXT)
def test_from_text_matches_the_char_loop(field, text):
    """Same polynomial, or the same InputError message, as the tokenizer
    that read one character at a time, on valid and malformed texts."""
    ctx = make_field(*field)
    assert parse_outcome(P.from_text, ctx, text) == parse_outcome(from_text_char_loop, ctx, text)

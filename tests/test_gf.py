import ast
import importlib
import itertools
import math
import pathlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf_reference import (find_modulus_rabin, fp_basis_of_fq_trace, is_irreducible_rabin,
                          solve_power_scan, subfield_basis_scan, subfield_elements_scan)
from mvspoly import gf
from mvspoly.errors import GuardError, InputError
from mvspoly.gf import (FieldCtx, PlainField, find_modulus, is_prime, make_field,
                        parse_field_spec, prime_factors)
from mvspoly.linalg import FpSpan, fp_parts, fp_row
from poly_reference import fold_termwise


def brute_irreducible(coeffs, p):
    """Degree-2 irreducibility by root scan (independent of the library)."""
    return all(
        (coeffs[0] + coeffs[1] * a + a * a) % p != 0 for a in range(p)
    )


def test_f4_modulus_is_unique_quadratic():
    assert make_field(2, 1, 2).modulus == (1, 1, 1)


def test_f9_modulus_matches_lex_scan_oracle():
    # enumerate monic quadratics over F_3 in low-degree-first lex order
    expected = None
    for c0 in range(3):
        for c1 in range(3):
            if expected is None and brute_irreducible((c0, c1), 3):
                expected = (c0, c1, 1)
    assert expected == (1, 0, 1)
    assert make_field(3, 1, 2).modulus == expected


def test_f64_parameters():
    ctx = make_field(2, 1, 6)
    assert (ctx.q, ctx.n, ctx.Q - 1) == (2, 6, 63)


def test_make_field_deterministic():
    a = FieldCtx(3, 1, 3)
    b = FieldCtx(3, 1, 3)
    assert a.modulus == b.modulus
    assert a.generator == b.generator


def test_make_field_rejects_bad_input():
    with pytest.raises(InputError):
        make_field(4, 1, 2)
    with pytest.raises(InputError):
        make_field(2, 1, 100)


def test_make_field_picks_the_back_end_by_order(monkeypatch):
    """Tables up to 2^20 elements, a table-free PlainField above; FieldCtx
    itself refuses to build tables above 2^20."""
    assert type(make_field(2, 1, 16)) is FieldCtx
    for params in ((2, 1, 21), (1031, 1, 2)):
        plain = make_field(*params)
        assert type(plain) is PlainField
        assert not any(hasattr(plain, a) for a in ("_iexp", "_ilog", "_zech", "_exp", "_log"))
    with pytest.raises(GuardError):
        FieldCtx(2, 1, 21)
    # the limit itself, lowered so that no large table is built
    monkeypatch.setattr(gf, "TABLE_LIMIT", 64)
    assert type(make_field.__wrapped__(2, 1, 6)) is FieldCtx
    assert type(make_field.__wrapped__(2, 1, 7)) is PlainField
    with pytest.raises(GuardError):
        FieldCtx(2, 1, 7)


def test_plain_field_refuses_solve_power_after_its_checks():
    plain = PlainField(2, 1, 4)
    with pytest.raises(InputError):
        plain.solve_power(plain.zero, 3)
    with pytest.raises(InputError):
        plain.solve_power(plain.one, 0)
    with pytest.raises(GuardError, match=r"generator scan refused above 2\^20 elements"):
        plain.solve_power(plain.one, 3)


BACK_END_NAMES = {"PlainField", "_zech", "_iexp", "_ilog", "_exp", "_log", "_log_of",
                  "_intern", "_M"}


def test_only_gf_names_the_back_end():
    """No module but gf names a back-end class or table, as a name, an
    attribute, an import or a string."""
    src = pathlib.Path(gf.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "gf.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
        assert not named & BACK_END_NAMES, (path.name, named & BACK_END_NAMES)


def test_the_traced_ops_are_defined_on_the_table_class(monkeypatch):
    """The benchmark's tracer wraps only the functions in vars(FieldCtx), so
    every gf op it lists, and every public op PlainField replaces, must be
    defined in FieldCtx's own body."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    listed = {name.split(".", 1)[1] for name in spans.LEAF_OPS if name.startswith("gf.")}
    listed |= {name for name in vars(PlainField) if not name.startswith("_")}
    assert listed - set(vars(FieldCtx)) == set()


def test_parse_field_spec(f64):
    assert parse_field_spec("2^6:1") is f64
    assert parse_field_spec("2^4:2").q == 4
    with pytest.raises(InputError):
        parse_field_spec("2^5:2")


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_field_axioms_random(params):
    ctx = make_field(*params)
    rng = random.Random(1234)
    elems = ctx.elements()
    for _ in range(1000):
        a, b, c = (elems[rng.randrange(ctx.Q)] for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        if a != ctx.zero:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_table_and_schoolbook_agree():
    fast = make_field(3, 1, 3)
    slow = PlainField(3, 1, 3)
    rng = random.Random(7)
    for _ in range(300):
        a = fast.elem_from_int(rng.randrange(fast.Q))
        b = fast.elem_from_int(rng.randrange(fast.Q))
        assert fast.mul(a, b) == slow.mul(a, b)
        assert fast.pow_elem(a, 17) == slow.pow_elem(a, 17)
        if a != fast.zero:
            assert fast.inv(a) == slow.inv(a)


def test_frobenius_fixes_one(f64):
    for j in range(-3, 9):
        assert f64.frobenius(f64.one, j) == f64.one


def test_frobenius_generator_f4(f4):
    g = f4.elem_from_int(2)
    assert f4.frobenius(g, 1) == f4.add(g, f4.one)


def test_frobenius_group_law(f64):
    rng = random.Random(99)
    for _ in range(100):
        a = f64.elem_from_int(rng.randrange(f64.Q))
        j = rng.randrange(1, 6)
        assert f64.frobenius(f64.frobenius(a, j), f64.n - j) == a


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 2), (2, 2, 2)])
def test_frobenius_fixed_set_sizes(params):
    ctx = make_field(*params)
    for j in range(1, ctx.n + 1):
        fixed = sum(1 for a in ctx.elements() if ctx.frobenius(a, j) == a)
        assert fixed == ctx.q ** math.gcd(j, ctx.n)


def test_in_subfield_basics(f64):
    for d in (1, 2, 3, 6):
        assert f64.in_subfield(f64.zero, d)
        assert f64.in_subfield(f64.one, d)
    for a in f64.elements():
        assert f64.in_subfield(a, 3) == (f64.pow_elem(a, 8) == a)
    with pytest.raises(InputError):
        f64.in_subfield(f64.one, 4)


def test_subfield_counts(f64):
    for d in (1, 2, 3, 6):
        assert len(f64.subfield_elements(d)) == 2 ** d


def test_subfield_basis_examples(f4, f64):
    assert f4.subfield_basis(1) == [f4.one]
    assert f4.subfield_basis(2) == [f4.one, f4.elem_from_int(2)]
    for d in (1, 2, 3):
        basis = f64.subfield_basis(d)
        assert len(basis) == d
        # span has q^d elements
        span = {f64.zero}
        for b in basis:
            span = {f64.add(s, f64.mul(c, b))
                    for s in span for c in f64.subfield_elements(1)}
        assert len(span) == 2 ** d
        assert span == set(f64.subfield_elements(d))


def test_solve_power(f4, f9):
    assert f9.solve_power(f9.one, 5) is not None
    beta = f9.solve_power(f9.neg(f9.one), 2)
    assert beta is not None and f9.mul(beta, beta) == f9.neg(f9.one)
    g = f4.elem_from_int(2)
    assert f4.solve_power(g, 3) is None
    with pytest.raises(InputError):
        f4.solve_power(f4.zero, 2)


def test_solve_power_scans_generator_first(f9):
    # alpha = 1 must return the first power of the generator, namely 1
    assert f9.solve_power(f9.one, 2) == f9.one


@pytest.mark.parametrize("params", [(2, 1, 4), (2, 1, 6), (3, 1, 4)])
def test_table_and_schoolbook_paths_agree(params):
    table = FieldCtx(*params)
    plain = PlainField(*params)
    elems = table.elements()
    M = table.Q - 1
    exponents = (0, 1, 2, 3, 5, M - 1, M, M + 2)
    for a in elems:
        for b in elems:
            assert table.mul(a, b) == plain.mul(a, b)
        for e in exponents:
            assert table.pow_elem(a, e) == plain.pow_elem(a, e)
        if a == table.zero:
            continue
        assert table.inv(a) == plain.inv(a)
        for e in (2, 3, 4, 5, 7):
            assert table.solve_power(a, e) == solve_power_scan(plain, a, e)


def test_schoolbook_solve_power_finds_every_cube_root():
    # F_16: x -> x^3 has image the 5 cubes; each must get a root back
    plain = PlainField(2, 1, 4)
    cubes = {plain.pow_elem(a, 3) for a in plain.elements()[1:]}
    for alpha in plain.elements()[1:]:
        beta = solve_power_scan(plain, alpha, 3)
        assert (beta is not None) == (alpha in cubes)
        if beta is not None:
            assert plain.pow_elem(beta, 3) == alpha


def test_elem_text_roundtrip(f64):
    for i in (0, 1, 5, 63):
        a = f64.elem_from_int(i)
        assert f64.parse_elem(f64.format_elem(a)) == a
    assert f64.parse_elem("g") == f64.elem_from_int(2)
    assert f64.parse_elem("1") == f64.one
    with pytest.raises(InputError):
        f64.parse_elem("7")


def test_modulus_search_degree_one():
    assert find_modulus(5, 1) == (0, 1)


def has_small_factor(coeffs, p):
    """Does the monic polynomial (low degree first) have a monic factor of
    degree 1 .. deg/2?  Brute division by every such factor."""
    n = len(coeffs) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = low + (1,)
            r = list(coeffs)
            for i in range(n, d - 1, -1):
                c = r[i]
                if c:
                    for j in range(d + 1):
                        r[i - d + j] = (r[i - d + j] - c * g[j]) % p
            if not any(r[:d]):
                return True
    return False


SMALL_PRIMES = [p for p in range(2, 65) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p,N", [(p, N) for p in SMALL_PRIMES for N in range(2, 13)
                                 if p ** N <= 4096])
def test_find_modulus_is_the_least_irreducible(p, N):
    modulus = find_modulus(p, N)
    assert len(modulus) == N + 1 and modulus[-1] == 1 and modulus[0] != 0
    assert not has_small_factor(modulus, p)
    # candidates are ordered by (c_0, ..., c_{N-1}), c_0 first
    for low in itertools.product(range(p), repeat=N):
        if low == modulus[:-1]:
            break
        if low[0]:
            assert has_small_factor(low + (1,), p), low


@pytest.mark.parametrize("p,N,modulus", [
    (2, 6, (1, 0, 0, 0, 0, 1, 1)),
    (3, 6, (1, 0, 0, 0, 1, 1, 1)),
    (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
    (2, 20, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    (1048573, 2, (1, 3, 1)),
    (3, 12, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1)),
    (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    (2, 40, (1,) + (0,) * 34 + (1, 1, 1, 0, 0, 1)),
])
def test_find_modulus_pinned(p, N, modulus):
    assert find_modulus(p, N) == modulus


@pytest.mark.parametrize("p,N", [(p, N) for p in SMALL_PRIMES for N in range(1, 17)
                                 if p ** N <= 1 << 16])
def test_screened_search_finds_the_rabin_modulus(p, N):
    """The small-factor screen only refuses, so the search returns the
    modulus of Rabin's test alone."""
    assert find_modulus(p, N) == find_modulus_rabin(p, N)


@pytest.mark.parametrize("p,N", [(p, N) for p in (2, 3, 5, 7) for N in range(2, 11)
                                 if p ** N <= 1 << 10])
def test_screened_test_agrees_with_rabin_on_every_candidate(p, N):
    """Every monic candidate of degree N with c_0 != 0, on the prime field
    with and without tables."""
    rabin = PlainField(p, 1, 1)
    for low in itertools.product(range(p), repeat=N):
        if low[0]:
            expected = is_irreducible_rabin(rabin, low + (1,))
            for fp in (make_field(p, 1, 1), PlainField(p, 1, 1)):
                assert gf._is_irreducible(fp, low + (1,)) == expected, (fp, low)


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_miller_rabin_matches_trial_division():
    assert [m for m in range(1 << 16) if is_prime(m)] == [
        m for m in range(1 << 16) if m >= 2 and prime_factors(m) == [m]]
    # a Mersenne prime, a Carmichael number, the least strong pseudoprime to
    # the bases 2, 3, 5, 7, and the square of a prime
    assert is_prime(2 ** 61 - 1)
    assert not any(is_prime(m) for m in (561, 3215031751, (2 ** 31 - 1) ** 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 728), st.integers(0, 728))
def test_mul_commutes_f729(x, y):
    ctx = make_field(3, 1, 6)
    a, b = ctx.elem_from_int(x), ctx.elem_from_int(y)
    assert ctx.mul(a, b) == ctx.mul(b, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 63), st.integers(0, 5))
def test_frobenius_is_additive(x, j):
    ctx = make_field(2, 1, 6)
    a = ctx.elem_from_int(x)
    b = ctx.elem_from_int((x * 31 + 7) % 64)
    assert ctx.frobenius(ctx.add(a, b), j) == \
        ctx.add(ctx.frobenius(a, j), ctx.frobenius(b, j))


# -- exp/log tables against one schoolbook product per power --------------------------

def stepped_tables(ctx, gen):
    """exp/log by one _mul_raw per power of gen: the construction the chunk
    tables replace, kept here as the oracle."""
    exp, log = [], {}
    cur = ctx.one
    for i in range(ctx.Q - 1):
        exp.append(cur)
        log[cur] = i
        cur = ctx._mul_raw(cur, gen)
    return exp, log


def not_primitive_before(ctx, gen):
    """Every nonzero element before gen in canonical order has schoolbook
    powers that return to 1 before Q - 1."""
    for i in range(1, ctx.elem_to_int(gen)):
        a = cur = ctx.elem_from_int(i)
        for _ in range(ctx.Q - 2):
            if cur == ctx.one:
                break
            cur = ctx._mul_raw(cur, a)
        else:
            return False
    return True


def no_log(table):
    """A log table as a list, its -1 entries as None."""
    return [None if v == -1 else v for v in table]


TABLE_FIELDS = [(p, k, N // k) for p in (2, 3, 5, 7) for N in range(1, 13)
                if p ** N <= 1 << 12 for k in range(1, N + 1) if N % k == 0]


# 2^7, 2^8 and 2^9 (in TABLE_FIELDS) put one byte plane below, at and above
# its boundary; 2^17 has a one-bit top plane
@pytest.mark.parametrize("p,k,n", TABLE_FIELDS + [(2, 1, 16), (2, 1, 17)])
def test_tables_match_schoolbook_stepping(p, k, n):
    ctx = FieldCtx(p, k, n)
    assert ctx.elements() == [ctx.elem_from_int(i) for i in range(ctx.Q)]
    exp, log = stepped_tables(ctx, ctx.generator)
    # the tables are int arrays with -1 for "no log", read back with None
    assert list(ctx._iexp) == [ctx.elem_to_int(a) for a in exp]
    assert no_log(ctx._ilog) == [None] + [log[ctx.elem_from_int(v)] for v in range(1, ctx.Q)]
    # zech[n] = log(1 + g^n), None where 1 + g^n = 0
    assert no_log(ctx._zech) == [log.get(tuple((x + y) % p for x, y in zip(ctx.one, a)))
                                 for a in exp]
    # the generator is the first primitive element: its Q - 1 powers differ
    assert len(log) == ctx.Q - 1 and not_primitive_before(ctx, ctx.generator)


# -- log-domain arithmetic against the digit-tuple reference -------------------------

DIFF_FIELDS = [(p, k, N // k) for p in (2, 3, 5, 7) for N in range(1, 11)
               if p ** N <= 1 << 10 for k in range(1, N + 1) if N % k == 0] + [(1021, 1, 1)]


def diff_pairs(ctx, rng):
    """Every element pair for Q <= 64, a seeded sample of 1000 otherwise;
    the sample always holds pairs with a zero operand, a + b = 0 and a - b = 0."""
    elems = ctx.elements()
    if ctx.Q <= 64:
        return list(itertools.product(elems, repeat=2))
    pairs = [(elems[rng.randrange(ctx.Q)], elems[rng.randrange(ctx.Q)]) for _ in range(1000)]
    for a in rng.sample(elems, 20):
        pairs += [(a, ctx.zero), (ctx.zero, a), (a, ctx.neg(a)), (a, a)]
    return pairs


@pytest.mark.parametrize("p,k,n", DIFF_FIELDS)
def test_log_domain_ops_match_the_digit_reference(p, k, n):
    table = FieldCtx(p, k, n)
    plain = PlainField(p, k, n)
    assert len(table._zech) == table.Q - 1 and not hasattr(plain, "_zech")
    rng = random.Random(p * 1000 + k * 100 + n)
    M = table.Q - 1
    scalars = sorted({0, 1, 2, p - 1, p, p + 1, -1, -2, -p, -p - 1, 3 * p + 2})
    for a, b in diff_pairs(table, rng):
        for op in ("add", "sub", "mul"):
            assert getattr(table, op)(a, b) == getattr(plain, op)(a, b), (op, a, b)
        assert table.sum([a, b, a]) == plain.sum([a, b, a])
    for a in rng.sample(table.elements(), min(table.Q, 64)):
        assert table.neg(a) == plain.neg(a)
        for c in scalars:
            assert table.smul(c, a) == plain.smul(c, a), (c, a)
        for e in (0, 1, 2, 5, M - 1, M, M + 2):
            assert table.pow_elem(a, e) == plain.pow_elem(a, e)
        if a != table.zero:
            assert table.inv(a) == plain.inv(a)
    for c in scalars:
        assert table.int_elem(c) == plain.int_elem(c)


@pytest.mark.parametrize("p,k,n", DIFF_FIELDS)
def test_unit_parts_match_the_plain_products(p, k, n):
    """The table read of c * (y^j)^(p^m), j < N, equals the plain field's
    products with its unit images, packed by fp_parts (ints at p = 2), for
    every twist m <= N and c in 0, 1, the generator and a seeded sample."""
    table = FieldCtx(p, k, n)
    plain = PlainField(p, k, n)
    rng = random.Random(p * 1000 + k * 100 + n)
    elems = table.elements()
    for c in [table.zero, table.one, table.generator, *rng.sample(elems, min(table.Q, 8))]:
        for m in range(table.N + 1):
            parts = table.unit_parts(m, c)
            assert parts == plain.unit_parts(m, c), (m, c)
            assert parts == fp_parts(plain, [plain.mul(c, plain.frobenius_p(
                plain.elem_from_int(p ** j), m)) for j in range(table.N)])


@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 1, 6), (3, 1, 2), (2, 2, 2), (7, 1, 2)])
def test_log_domain_ops_refuse_a_non_element(p, k, n):
    # a shared context has most elements in `_log`; a fresh one refuses on
    # the first-use path
    for ctx in (make_field(p, k, n), FieldCtx(p, k, n)):
        refuse_non_elements(ctx)


def refuse_non_elements(ctx):
    p, zero, one = ctx.p, ctx.zero, ctx.one
    big_digit = (p,) + zero[1:]
    too_long = one + (0,)
    too_short = one[:-1] if ctx.N > 1 else ()
    for bad in (big_digit, too_long, too_short, zero + (0,)):
        calls = [(ctx.neg, bad), (ctx.inv, bad), (ctx.pow_elem, bad, 3), (ctx.mul, bad, one),
                 (ctx.mul, bad, zero), (ctx.mul, zero, bad), (ctx.square, {1: bad}),
                 (ctx.square, {2: one, 0: bad})]
        calls += [(ctx.smul, c, bad) for c in (0, 1, -1, p)]
        for other in (zero, one):
            calls += [(ctx.add, bad, other), (ctx.add, other, bad),
                      (ctx.sub, bad, other), (ctx.sub, other, bad)]
        for fn, *args in calls:
            with pytest.raises(KeyError):
                fn(*args)


@pytest.mark.parametrize("p,N", [(2, 10), (3, 6)])
def test_elem_to_int_matches_the_digit_loop(p, N):
    """The table read of an interned element, the digit loop of one not yet
    seen and the PlainField's digit loop give sum a_i * p^i for every
    element of F_{2^10} and F_{3^6}."""
    ctx, plain = FieldCtx(p, 1, N), PlainField(p, 1, N)
    elems = ctx.elements()
    fresh = elems[-1]                        # no op has made or seen it yet
    assert fresh not in ctx._log
    assert ctx.elem_to_int(fresh) == sum(d * p ** i for i, d in enumerate(fresh))
    assert fresh not in ctx._log
    for v, a in enumerate(elems):
        interned = ctx.mul(a, ctx.one)
        assert interned == a and (a == ctx.zero or interned in ctx._log)
        assert ctx.elem_to_int(interned) == ctx.elem_to_int(a) == plain.elem_to_int(a) == v
        assert sum(d * p ** i for i, d in enumerate(a)) == v


@pytest.mark.parametrize("p,k,n", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2)])
def test_fp_basis_of_fq_spans_the_subfield(p, k, n):
    """The F_p-basis of F_q read off the zeros of x^q - x starts with 1, has
    k members and spans the F_p-space of the subfield's elements, also where
    p | n."""
    ctx = FieldCtx(p, k, n)
    basis = ctx.fp_basis_of_fq()
    assert basis[0] == ctx.one and len(basis) == k
    span = FpSpan(p, ctx.N)
    # an FpSpan row is a packed int at p = 2 (digit i at bit i), a digit list at odd p
    row = (lambda a: sum(d << i for i, d in enumerate(a))) if p == 2 else list
    assert all(span.add(row(b)) for b in basis)
    zero = 0 if p == 2 else [0] * ctx.N
    assert all(span.reduce(row(a)) == zero for a in ctx.subfield_elements(1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subfields_match_the_frobenius_scan(p):
    """On every field F_{p^N}, Q <= 2^16, with every base F_q and every
    d | n: the subfield basis read off the zeros of x^(q^d) - x is the
    greedy basis of the canonical scan, and where Q <= 2^12 the listed
    subfield is the scan's fixed set.  The F_p-basis of F_q spans what the
    traces span."""
    N = 1
    while p ** N <= 1 << 16:
        for k in (k for k in range(1, N + 1) if N % k == 0):
            ctx = FieldCtx(p, k, N // k)
            for d in (d for d in range(1, ctx.n + 1) if ctx.n % d == 0):
                assert ctx.subfield_basis(d) == subfield_basis_scan(ctx, d), (k, N, d)
                if ctx.Q <= 1 << 12:
                    assert ctx.subfield_elements(d) == subfield_elements_scan(ctx, d)
            span = FpSpan(p, N)
            assert all(span.add(fp_row(ctx, (b,))) for b in ctx.fp_basis_of_fq())
            assert span.rank == k
            assert not any(span.add(fp_row(ctx, (t,))) for t in fp_basis_of_fq_trace(ctx))
        N += 1


# -- the polynomial fold ------------------------------------------------------------

@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 1, 6), (3, 1, 6)])
def test_fold_matches_termwise_reference(p, k, n, tables):
    """fold against the term-pair-by-term-pair sum, seeded, on rows with
    e0 != 0, repeated and distinct twists m (some past N), a zero c0, and a
    row followed by its negative, so that sums cancel to zero."""
    ctx = (FieldCtx if tables else PlainField)(p, k, n)
    rng = random.Random(100 * p + n)
    cancelled = 0
    for _ in range(40):
        f = {rng.randrange(30): ctx.elem_from_int(rng.randrange(ctx.Q))
             for _ in range(rng.randrange(1, 7))}
        rows = [(rng.randrange(20), ctx.elem_from_int(rng.randrange(1, ctx.Q)),
                 rng.choice([0, 0, 1, 2, ctx.N + 1])) for _ in range(rng.randrange(1, 6))]
        e0, c0, m = rows[0]
        rows += [(rng.randrange(1, 20), ctx.zero, m), (e0, ctx.neg(c0), m)]
        got = ctx.fold(f, rows)
        assert got == fold_termwise(ctx, f, rows)
        exponents = {e0 + e * p ** m for e0, _, m in rows for e in f}
        cancelled += len(exponents) > len(got)
    assert cancelled >= 20


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("p,k,n", [(2, 1, 6), (3, 1, 4)])
def test_fold_each_is_fold_on_each(p, k, n, tables):
    """fold_each on a list gives each polynomial's own fold and the termwise
    sum, in order, on rows with repeated and distinct twists and a zero c0;
    the empty list gives [] and a zero polynomial {}.  On tables a
    non-element raises KeyError wherever it stands, in a polynomial or in a
    row."""
    ctx = (FieldCtx if tables else PlainField)(p, k, n)
    rng = random.Random(2800 + 10 * p + n)
    fs = [{}] + [{rng.randrange(30): ctx.elem_from_int(rng.randrange(ctx.Q))
                  for _ in range(rng.randrange(1, 7))} for _ in range(8)] + [{}]
    rows = [(rng.randrange(20), ctx.elem_from_int(rng.randrange(1, ctx.Q)),
             rng.choice([0, 1, 2, ctx.N + 1])) for _ in range(4)]
    rows += [(3, ctx.zero, 1), (rows[0][0], ctx.neg(rows[0][1]), rows[0][2])]
    got = ctx.fold_each(fs, rows)
    assert got == [ctx.fold(f, rows) for f in fs] == [fold_termwise(ctx, f, rows) for f in fs]
    assert got[0] == got[-1] == {}
    assert ctx.fold_each([], rows) == []
    if tables:
        bad = (p,) + (0,) * (ctx.N - 1)
        for at in range(3):
            with pytest.raises(KeyError):
                ctx.fold_each(fs[:at] + [{1: bad}] + fs[at:], rows)
        with pytest.raises(KeyError):
            ctx.fold_each(fs, rows + [(0, bad, 0)])


# -- tables of canonical ints, tuples made on first use ------------------------------

def test_building_a_field_lists_no_elements(monkeypatch):
    scans = []
    elements = FieldCtx.elements
    monkeypatch.setattr(FieldCtx, "elements", lambda self: scans.append(1) or elements(self))
    ctx = FieldCtx(2, 1, 16)
    assert scans == [] and len(ctx._log) == 1 and ctx._exp.count(None) == ctx.Q - 1


def test_every_base_of_one_field_shares_its_int_tables(monkeypatch):
    """F_729 over F_3, F_9 and F_27 finds one generator and builds one set
    of int tables; each context keeps its own tuple tables."""
    monkeypatch.setattr(gf, "_TABLES", {})
    found = []
    find_generator = FieldCtx._find_generator
    monkeypatch.setattr(FieldCtx, "_find_generator",
                        lambda self: found.append(1) or find_generator(self))
    first, *others = [FieldCtx(3, k, 6 // k) for k in (1, 2, 3)]
    assert found == [1]
    for ctx in others:
        assert (ctx.modulus, ctx.generator) == (first.modulus, first.generator)
        assert all(getattr(ctx, t) is getattr(first, t) for t in ("_iexp", "_ilog", "_zech"))
        assert ctx._exp is not first._exp and ctx._log is not first._log


def test_fresh_tables_are_thread_safe():
    """Four threads fill the tuple tables of one fresh context at once and
    get what a single-threaded context gets."""
    rng = random.Random(12)
    ref = FieldCtx(2, 1, 12)
    pairs = [(ref.elem_from_int(rng.randrange(ref.Q)), ref.elem_from_int(rng.randrange(1, ref.Q)))
             for _ in range(3000)]

    def work(ctx):
        return [(ctx.mul(a, b), ctx.add(a, b), ctx.inv(b), ctx.pow_elem(a, 77)) for a, b in pairs]

    expected = work(ref)

    def fill(ctx, barrier, results, i):
        barrier.wait(timeout=60)
        results[i] = work(ctx)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared, barrier, results = FieldCtx(2, 1, 12), threading.Barrier(4), [None] * 4
            threads = [threading.Thread(target=fill, args=(shared, barrier, results, i))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)

import itertools
import math
import random

import pytest

from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import oracle as O
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.errors import GuardError, InputError
from mvspoly.gf import FieldCtx, make_field, parse_field_spec
from mvspoly.linalg import FpSpan, FqSpan
from poly_reference import reduce_mod_field
from wspace_reference import (lift_pipeline_per_element, membership_coordinates,
                              power_image_count_exact, reconstruct_from_coordinates)


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# -- orbit tables ---------------------------------------------------------------

def test_orbit_table_n3():
    t = W.orbit_table(2, 3)
    assert [o.size for o in t.orbits] == [1, 3, 3, 1]
    assert [o.exponent for o in t.orbits] == [0, 1, 3, 7]
    t5 = W.orbit_table(5, 3)
    assert [o.size for o in t5.orbits] == [1, 3, 3, 1]
    assert [o.exponent for o in t5.orbits] == [0, 1, 6, 31]


def test_orbit_table_n1():
    t = W.orbit_table(2, 1)
    assert len(t.orbits) == 2 and all(o.size == 1 for o in t.orbits)


def test_orbit_table_n6_burnside():
    t = W.orbit_table(2, 6)
    expected = sum(euler_phi(d) * 2 ** (6 // d) for d in (1, 2, 3, 6)) // 6
    assert len(t.orbits) == expected == 14
    assert sum(o.size for o in t.orbits) == 64


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_orbit_count_identity(n):
    t = W.orbit_table(2, n)
    assert sum(d * o for d, o in t.counts.items()) == 2 ** n
    for d in t.counts:
        assert n % d == 0


def test_orbit_representative_is_least_rotation():
    t = W.orbit_table(3, 4)
    M_ = 3 ** 4 - 1
    for o in t.orbits:
        e = o.exponent
        rots = {e}
        cur = e
        for _ in range(o.size - 1):
            cur = cur * 3 % M_ if cur else 0
            rots.add(cur)
        assert len(rots) == o.size
        assert min(rots) == e


# -- bases ------------------------------------------------------------------------

def test_basis_f4_structure(f4):
    wb = W.build_basis(f4, 1, f4.one)
    texts = {P.to_text(f4, b.elem) for b in wb.elems}
    g = f4.elem_from_int(2)
    expected = {
        P.to_text(f4, {0: f4.one}),
        P.to_text(f4, {1: f4.one, 2: f4.one}),
        P.to_text(f4, {1: g, 2: f4.mul(g, g)}),
        P.to_text(f4, {3: f4.one}),
    }
    assert texts == expected and wb.dim == 4


def test_basis_f64_d3_components(f64):
    wb = W.build_basis(f64, 3, f64.one)
    assert wb.dim == 12
    by_orbit = {}
    for b in wb.elems:
        by_orbit.setdefault(b.orbit_exponent, []).append(b)
    assert {k: len(v) for k, v in by_orbit.items()} == {0: 3, 1: 6, 9: 3}
    # orbit of exponent 1 gives alpha*x + (alpha*x)^(q^3)
    for b in by_orbit[1]:
        assert set(b.elem) == {1, 8}
        assert b.elem[8] == f64.frobenius(b.elem[1], 3)
    for b in by_orbit[9]:
        assert set(b.elem) == {9} and f64.in_subfield(b.elem[9], 3)


def test_basis_dim_formula(f64, f9):
    for ctx, d in ((f64, 1), (f64, 2), (f64, 3), (f64, 6), (f9, 1), (f9, 2)):
        wb = W.build_basis(ctx, d, ctx.one)
        assert wb.dim == d * 2 ** (ctx.n // d)


def test_basis_elements_verified_and_independent(f9):
    wb = W.build_basis(f9, 1, f9.one)
    T = W.target_binomial(f9, wb)
    span = FpSpan(f9.p, (f9.Q) * f9.N)
    exps = list(range(f9.Q))
    added = 0
    for b in wb.elems:
        assert M.mills_check(f9, b.elem, T).is_member
        vec = []
        for e in exps:
            vec.extend(b.elem.get(e, f9.zero))
        if span.add(vec):
            added += 1
    assert added == wb.dim == 4


def test_basis_direct_sum_disjoint_exponents(f64):
    wb = W.build_basis(f64, 3, f64.one)
    seen = {}
    for b in wb.elems:
        for e in b.elem:
            seen.setdefault(e, set()).add(b.orbit_exponent)
    for e, orbits in seen.items():
        assert len(orbits) == 1


def test_basis_alpha_twist(f64):
    beta = f64.elem_from_int(5)
    alpha = f64.pow_elem(beta, 7)
    wb = W.build_basis(f64, 3, alpha)
    T = W.target_binomial(f64, wb)
    assert wb.dim == 12
    for b in wb.elems:
        assert M.mills_check(f64, b.elem, T).is_member


def test_basis_rejects_nonsplitting_alpha():
    ctx = make_field(2, 2, 2)      # F_16 over F_4, q = 4
    g = ctx.elem_from_int(2)
    # (q^2 - 1)-th powers in F_16* are only 1, so alpha = g cannot split
    assert ctx.solve_power(g, 15) is None
    with pytest.raises(InputError):
        W.build_basis(ctx, 2, g)


# -- membership ---------------------------------------------------------------------

def test_membership_rejects_partial_orbit(f64):
    wb = W.build_basis(f64, 3, f64.one)
    G = P.from_text(f64, "x^18+x^9")
    assert membership_coordinates(f64, G, wb) is None


def test_membership_roundtrip_basis(f64):
    wb = W.build_basis(f64, 3, f64.one)
    for b in wb.elems:
        coords = membership_coordinates(f64, b.elem, wb)
        assert coords is not None
        assert reconstruct_from_coordinates(f64, wb, coords) == b.elem


def test_membership_x2_over_f4(f4):
    wb = W.build_basis(f4, 1, f4.one)
    assert membership_coordinates(f4, P.from_text(f4, "x^2"), wb) is None
    assert P.value_set(f4, P.from_text(f4, "x^2")) == frozenset(f4.elements())


def test_membership_random_combinations(f9):
    wb = W.build_basis(f9, 1, f9.one)
    rng = random.Random(19)
    fq = f9.subfield_elements(1)
    for _ in range(40):
        f = {}
        for b in wb.elems:
            c = fq[rng.randrange(3)]
            if c != f9.zero:
                f = P.add(f9, f, P.scale(f9, b.elem, c))
        coords = membership_coordinates(f9, f, wb)
        assert coords is not None
        assert reconstruct_from_coordinates(f9, wb, coords) == f


def admissible_bases(ctx):
    """The basis of W(x^(q^d) - alpha*x) for every d | n and every alpha
    that build_basis admits."""
    for d in range(1, ctx.n + 1):
        if ctx.n % d:
            continue
        for alpha in ctx.elements()[1:]:
            try:
                yield W.build_basis(ctx, d, alpha)
            except InputError:
                pass


def member_both_ways(ctx, F, wb):
    """Whether F is a member by its coordinates and by the Mills check, which
    must agree."""
    by_coords = membership_coordinates(ctx, F, wb) is not None
    assert by_coords == M.mills_check(ctx, F, W.target_binomial(ctx, wb)).is_member, F
    return by_coords


@pytest.mark.parametrize("spec", ["2^2:1", "2^2:2"])
def test_membership_matches_mills_on_every_reduced_f4_poly(spec):
    ctx = parse_field_spec(spec)
    polys = [{e: c for e, c in enumerate(cs) if c != ctx.zero}
             for cs in itertools.product(ctx.elements(), repeat=ctx.Q)]
    assert len(polys) == 256
    for wb in admissible_bases(ctx):
        members = sum(member_both_ways(ctx, F, wb) for F in polys)
        assert members == ctx.q ** wb.dim


@pytest.mark.parametrize("spec", ["2^3:1", "3^2:1", "2^4:1", "3^3:1", "5^2:1"])
def test_membership_matches_mills_on_seeded_samples(spec):
    """Basis combinations (members), the same with one coefficient changed,
    and random sparse polynomials, for every admissible binomial."""
    ctx = parse_field_spec(spec)
    rng = random.Random(spec)
    elems = ctx.elements()
    fq = ctx.subfield_elements(1)
    for wb in admissible_bases(ctx):
        for _ in range(3):
            f = {}
            for b in wb.elems:
                f = P.add(ctx, f, P.scale(ctx, b.elem, rng.choice(fq)))
            assert member_both_ways(ctx, f, wb)
            e = rng.randrange(ctx.Q)
            g = {**f, e: rng.choice([c for c in elems if c != f.get(e, ctx.zero)])}
            member_both_ways(ctx, {k: c for k, c in g.items() if c != ctx.zero}, wb)
            member_both_ways(ctx, {rng.randrange(ctx.Q): rng.choice(elems[1:])
                                   for _ in range(rng.randrange(1, 5))}, wb)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_membership_roundtrip_at_q_prime_2(N):
    """At q' = 2 the all-ones exponent Q-1 is a fixed point of the orbit
    walk, and x^(Q-1) is a basis element like any other."""
    ctx = make_field(2, 1, N)
    wb = W.build_basis(ctx, 1, ctx.one)
    assert {ctx.Q - 1: ctx.one} in [b.elem for b in wb.elems]
    for b in wb.elems:
        coords = membership_coordinates(ctx, b.elem, wb)
        assert coords == {b.orbit_exponent: b.elem[b.orbit_exponent]}
        assert reconstruct_from_coordinates(ctx, wb, coords) == b.elem


def test_reconstruct_refuses_keys_that_are_not_representatives(f8):
    # 2 is in the orbit of 1; 9 and 14 lie past Q - 1 = 7, where the orbit
    # walk of 9 would never return
    wb = W.build_basis(f8, 1, f8.one)
    for key in (2, 9, 14):
        with pytest.raises(InputError):
            reconstruct_from_coordinates(f8, wb, {key: f8.one})


# -- enumeration ----------------------------------------------------------------------

def test_enumerate_counts(f4, f8, f9):
    assert sum(1 for _ in W.enumerate_w(f4, W.build_basis(f4, 1, f4.one))) == 16
    assert sum(1 for _ in W.enumerate_w(f8, W.build_basis(f8, 1, f8.one))) == 256
    assert sum(1 for _ in W.enumerate_w(f9, W.build_basis(f9, 1, f9.one))) == 81


def test_enumerate_f8_covers_all_base_valued_functions(f8):
    wb = W.build_basis(f8, 1, f8.one)
    tables = set()
    for f in W.enumerate_w(f8, wb):
        tables.add(tuple(P.eval_at(f8, f, a) for a in f8.elements()))
    assert len(tables) == 256
    fq = set(f8.subfield_elements(1))
    assert all(set(t) <= fq for t in tables)


def test_enumerate_guard(f64):
    wb = W.build_basis(f64, 1, f64.one)
    with pytest.raises(GuardError):
        W.check_span_size(f64, wb.dim, 1 << 10)
    # 2^64 members pass the hard cap that enumerate_w checks itself
    with pytest.raises(GuardError):
        next(W.enumerate_w(f64, wb))


def test_member_function_properties(f8, f9):
    # every member is fixed by the q-power map mod x^Q - x and takes base
    # field values; nonconstant degrees sit in the required window
    for ctx in (f8, f9):
        wb = W.build_basis(ctx, 1, ctx.one)
        fq = set(ctx.subfield_elements(1))
        for f in W.enumerate_w(ctx, wb):
            assert reduce_mod_field(ctx, P.frob_power(ctx, f, ctx.k)) == f
            assert {P.eval_at(ctx, f, a) for a in ctx.elements()} <= fq
            d = P.degree(f)
            if d is not P.NEG_INF and d >= 1:
                assert ctx.q ** (ctx.n - 1) <= d <= (ctx.Q - 1) // (ctx.q - 1)


# -- lift pipeline ----------------------------------------------------------------------

def test_lift_example_f64(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    rep = W.lift_pipeline(f64, a)
    assert rep.dim_lower == 11
    assert rep.witness.d == 3 and rep.witness.t == 2
    assert rep.basis.dim == 12


def test_lift_checks_a_once(monkeypatch):
    """On a fresh context, the lift, the dimension oracle and the lift's own
    Mills checks on A make one nullspace of A between them and no field_gcd;
    the one other nullspace is M's kernel in verify_witness."""
    ctx = FieldCtx(2, 1, 6)
    nulls, gcds = [], []
    fp_nullspace, field_gcd = L.fp_nullspace, P.field_gcd

    def counting_nullspace(c, a):
        nulls.append(L.to_sparse(c, a))
        return fp_nullspace(c, a)

    def counting_gcd(c, f):
        gcds.append(f)
        return field_gcd(c, f)

    monkeypatch.setattr(L, "fp_nullspace", counting_nullspace)
    monkeypatch.setattr(P, "field_gcd", counting_gcd)
    a = L.detect_additive(ctx, P.from_text(ctx, "x^4+x^2+x"))
    rep = W.lift_pipeline(ctx, a)
    assert O.linear_dim_w(ctx, a) == rep.dim_lower == 11
    asp = L.to_sparse(ctx, a)
    assert all(M.mills_check(ctx, g, asp).is_member for g in rep.generators)
    assert nulls == [asp, L.to_sparse(ctx, rep.witness.M)]
    assert gcds == []


def test_basis_cache_keeps_one_read_only_basis():
    """build_basis keeps its last basis: a repeated call returns the same
    basis, the lift and a full enumeration leave it equal to one built
    fresh, and the cache never holds more than one."""
    ctx = FieldCtx(2, 1, 6)

    def cached(d, alpha):
        """The basis the cache returns for (ctx, d, alpha), which must be a hit."""
        hits = W.build_basis.cache_info().hits
        wb = W.build_basis(ctx, d, alpha)
        info = W.build_basis.cache_info()
        assert info.hits == hits + 1 and info.currsize == 1
        return wb

    cube = ctx.pow_elem(ctx.elem_from_int(2), 3)
    for d, alpha in ((6, ctx.one), (3, ctx.one), (2, cube), (2, ctx.one), (6, ctx.one)):
        wb = W.build_basis(ctx, d, alpha)
        assert (wb.d, wb.alpha) == (d, alpha)
        assert cached(d, alpha) is wb
    a = L.detect_additive(ctx, P.from_text(ctx, "x^4+x^2+x"))
    rep = W.lift_pipeline(ctx, a)
    wb = cached(3, ctx.one)
    assert rep.basis is wb and (wb.d, wb.alpha) == (3, ctx.one)
    assert sum(1 for _ in W.enumerate_w(ctx, wb)) == 2 ** wb.dim
    W.build_basis.cache_clear()
    fresh = W.build_basis(ctx, 3, ctx.one)
    assert fresh is not wb and fresh == wb


@pytest.mark.parametrize("spec", ["2^6:1", "3^4:2"])
def test_subfields_and_the_basis_scan_no_field(spec, monkeypatch):
    """On a fresh context, the subfield routines and build_basis read the
    subfields off the zeros of x^(q^d) - x: elements() is never called."""
    p, N, k = map(int, spec.replace("^", ":").split(":"))
    ctx = FieldCtx(p, k, N // k)
    scans = []
    elements = ctx.elements
    monkeypatch.setattr(ctx, "elements", lambda: scans.append(1) or elements())
    divisors = [d for d in range(1, ctx.n + 1) if ctx.n % d == 0]
    assert [len(ctx.subfield_elements(d)) for d in divisors] == [ctx.q ** d for d in divisors]
    assert [len(ctx.subfield_basis(d)) for d in divisors] == divisors
    assert len(ctx.fp_basis_of_fq()) == k
    assert [W.build_basis(ctx, d, ctx.one).dim for d in divisors] == \
        [d * 2 ** (ctx.n // d) for d in divisors]
    assert scans == []


@pytest.mark.parametrize("spec,d", [("2^22:1", 11), ("2^40:1", 20), ("1021^3:1", 3)])
def test_subfield_bases_above_2_20_are_fixed_and_independent(spec, d):
    """Above 2^20 elements, with no tables, the subfield basis is d members
    that the d-th q-Frobenius fixes and that are F_q-independent."""
    ctx = parse_field_spec(spec)
    basis = ctx.subfield_basis(d)
    span = FqSpan(ctx)
    assert len(basis) == d and all(span.add((b,)) for b in basis)
    assert all(ctx.frobenius(b, d) == b for b in basis) and basis[0] == ctx.one


def test_lift_binomial_identity(f64):
    rep = W.lift_pipeline(f64, L.binomial(f64, 3, f64.one))
    assert rep.dim_lower == 12
    assert L.to_sparse(f64, rep.witness.M) == {1: f64.one}


def test_lift_example_f729(f729):
    a = L.detect_additive(f729, P.from_text(f729, "x^9+x^3+x"))
    rep = W.lift_pipeline(f729, a)
    assert rep.dim_lower == 11
    assert rep.witness.d == 3 and rep.witness.t == 2


def test_lift_kernel_is_root_space(f8):
    # over F_8 with A of tau-degree 2 dividing x^8 - x: the members of the
    # binomial space mapping to zero are exactly the root space of M
    basis = None
    for cand in O.subspaces(f8, 2):
        basis = cand
        break
    a = L.subspace_poly(f8, basis)
    rep = W.lift_pipeline(f8, a)
    m = rep.witness.M
    zeros = 0
    for f in W.enumerate_w(f8, rep.basis):
        if reduce_mod_field(f8, L.apply_poly(f8, m, f)) == {}:
            zeros += 1
    d, t = rep.witness.d, rep.witness.t
    assert zeros == f8.q ** (d - t)
    # and those preimages are the constants from the root space of M
    roots = {v for v in f8.elements() if P.eval_at(f8, L.to_sparse(f8, m), v) == f8.zero}
    assert len(roots) == zeros


def seeded_split_additive(ctx, rng):
    """A monic split additive A of degree q^t > 2 vanishing on beta*V, for V
    a random t-dimensional F_q-subspace of F_{q^d}, d a random divisor of n
    and beta a random unit; so its lift has a d' | d and often d' < n with
    alpha != 1."""
    d = rng.choice([d for d in range(1, ctx.n + 1) if ctx.n % d == 0 and ctx.q ** d > 2])
    t = rng.randint(1 if ctx.q > 2 else 2, d)
    sub = ctx.subfield_elements(d)
    beta = rng.choice(ctx.elements()[1:])
    span, vs = FqSpan(ctx), []
    while len(vs) < t:
        v = rng.choice(sub)
        if span.add((v,)):
            vs.append(v)
    return L.subspace_poly(ctx, [ctx.mul(beta, v) for v in vs])


@pytest.mark.parametrize("spec", ["2^6:1", "2^4:2", "3^3:1", "5^2:1"])
def test_lift_matches_the_per_element_reference(spec):
    """The lift, which folds the whole basis through M with one row set,
    leaves M(b) unreduced and re-checks its generators through the Mills
    core, gives the whole LiftReport (witness, basis, generators in order,
    dim_lower) of the reference that reduces each M(b) on its own and
    re-checks through mills_check.  The seeded A include lifts with d < n
    and alpha != 1, whose basis elements have several terms."""
    ctx = parse_field_spec(spec)
    rng = random.Random(2600 + ctx.Q)
    twisted = several_terms = 0
    for _ in range(12):
        a = seeded_split_additive(ctx, rng)
        rep = W.lift_pipeline(ctx, a)
        assert rep == lift_pipeline_per_element(ctx, a), L.tau_to_text(ctx, a)
        assert all(max(g) < ctx.Q for g in rep.generators)
        twisted += rep.witness.d < ctx.n and rep.witness.alpha != ctx.one
        several_terms += any(len(b.elem) > 1 for b in rep.basis.elems)
    assert twisted >= 4 and several_terms >= 4


def test_lift_rechecks_every_generator(monkeypatch, f64):
    """A generator corrupted after the fold (one M(b) times an element off
    F_2, so its forced theta leaves the candidates) still spans the same
    rank, and the lift's Mills re-check, one core call on every kept
    generator, refuses it.  Only the basis fold is corrupted, not the
    re-check's own apply_each."""
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    assert W.lift_pipeline(f64, a).dim_lower == 11
    real = L.apply_each
    lam = f64.elem_from_int(2)
    folds = []

    def corrupting(ctx, m, fs):
        out = real(ctx, m, fs)
        if len(fs) > 1 and not folds:   # the basis fold, not an apply_poly
            folds.append(m)
            i = next(i for i, g in enumerate(out) if P.degree(g) >= 1)
            out[i] = P.scale(ctx, out[i], lam)
        return out

    monkeypatch.setattr(L, "apply_each", corrupting)
    with pytest.raises(AssertionError, match="lift generator failed verification"):
        W.lift_pipeline(f64, a)


def test_power_image_count_v1_full(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    rep = W.lift_pipeline(f64, a)
    T = L.to_sparse(f64, a)
    count = W.power_image_count(f64, T, 1, rep.generators)
    assert count == 2 ** 11
    # at v = 1 the images are the span itself, so the lower bound is tight
    assert power_image_count_exact(f64, T, 1, rep.generators, limit=1 << 12) == count


def test_power_image_count_guarded_bound(f729):
    a = L.detect_additive(f729, P.from_text(f729, "x^9+x^3+x"))
    rep = W.lift_pipeline(f729, a)
    T = P.from_text(f729, "x^5+x^2+x")
    bound = W.power_image_count(f729, T, 2, rep.generators, samples=20, seed=3)
    assert bound == (3 ** 11 - 1) // 2 + 1 == 88574


@pytest.mark.parametrize("gens", [[], [{}], [{}, {}]])
def test_a_span_with_no_nonzero_member_is_refused(gens, time_limit):
    # a zero combination is drawn again, so without the check both calls
    # would loop forever (or count the zero span): bound them
    ctx = make_field(2, 1, 4)
    with time_limit(5):
        with pytest.raises(InputError):
            W.random_span_member(ctx, gens, random.Random(0))
        with pytest.raises(InputError):
            W.power_image_count(ctx, {2: ctx.one, 1: ctx.one}, 2, gens, samples=0)


def test_degree_law_exhaustive(f8, f9):
    for ctx in (f8, f9):
        wb = W.build_basis(ctx, 1, ctx.one)
        for f in W.enumerate_w(ctx, wb):
            d = P.degree(f)
            if d is P.NEG_INF or d < 1:
                continue
            assert ctx.q ** (ctx.n - 1) <= d <= (ctx.Q - 1) // (ctx.q - 1)

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

import pytest

from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import oracle as O
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.gf import make_field
from mvspoly.linalg import FpSpan, FqSpan


def report(num, ok, detail, elapsed):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} [{elapsed:.1f}s]"
    print(line)
    assert ok, line


CENSUS_FIELDS = [(2, 1, 2), (2, 1, 3), (3, 1, 2)]


@pytest.fixture(scope="module")
def censuses(f9_census):
    return {params: f9_census if params == (3, 1, 2)
            else O.census_subfield_valued(make_field(*params))
            for params in CENSUS_FIELDS}


def fq_rank(ctx, polys):
    exps = sorted({e for f in polys for e in f})
    span = FpSpan(ctx.p, max(1, len(exps) * ctx.N))
    for f in polys:
        for u in ctx.fp_basis_of_fq():
            g = P.scale(ctx, f, u)
            digits = [d for e in exps for d in g.get(e, ctx.zero)]
            # an FpSpan row is packed at p = 2 (entry i at bit i)
            span.add(digits if ctx.p > 2 else sum(d << i for i, d in enumerate(digits)))
    assert span.rank % ctx.k == 0
    return span.rank // ctx.k


def test_criterion_1_binomial_space_dimension():
    t0 = time.perf_counter()
    fields = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
              (2, 2, 2), (5, 1, 2)]
    ok = True
    details = []
    for params in fields:
        ctx = make_field(*params)
        wb = W.build_basis(ctx, 1, ctx.one)
        T = W.target_binomial(ctx, wb)
        verified = all(M.mills_check(ctx, b.elem, T).is_member for b in wb.elems)
        rank = fq_rank(ctx, [b.elem for b in wb.elems])
        odim = O.linear_dim_w(ctx, L.binomial(ctx, 1, ctx.one))
        good = (wb.dim == 2 ** ctx.n == rank == odim) and verified
        ok = ok and good
        details.append(f"q={ctx.q},n={ctx.n}:{wb.dim}/{odim}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, ok, "basis and oracle dimension 2^n at " + " ".join(details), elapsed)


def test_criterion_2_census_equals_enumeration(censuses):
    t0 = time.perf_counter()
    expected = {(2, 1, 2): 16, (2, 1, 3): 256, (3, 1, 2): 81}
    ok = True
    details = []
    for params in CENSUS_FIELDS:
        ctx = make_field(*params)
        rep = censuses[params]
        wb = W.build_basis(ctx, 1, ctx.one)
        enum = {frozenset(f.items()) for f in W.enumerate_w(ctx, wb)}
        wit = {frozenset(f.items()) for f in rep.witnesses}
        good = rep.members == expected[params] and wit == enum
        ok = ok and good
        details.append(f"q={ctx.q},n={ctx.n}:{rep.members}")
    report(2, ok, "function censuses equal enumerated spaces " + " ".join(details),
           time.perf_counter() - t0)


def test_criterion_3_trinomial_lift_over_f64():
    t0 = time.perf_counter()
    ctx = make_field(2, 1, 6)
    wb = W.build_basis(ctx, 3, ctx.one)
    a = L.detect_additive(ctx, P.from_text(ctx, "x^4+x^2+x"))
    lift = W.lift_pipeline(ctx, a)
    asp = L.to_sparse(ctx, a)
    rng = random.Random(2024)
    fq = ctx.subfield_elements(1)
    samples = 0
    all_pass = True
    seen = set()
    for _ in range(1000):
        f = {}
        while not f:
            f = {}
            for g in lift.generators:
                if rng.randrange(2):
                    f = P.add(ctx, f, g)
        samples += 1
        seen.add(frozenset(f.items()))
        all_pass = all_pass and M.mills_check(ctx, f, asp).is_member
    odim = O.linear_dim_w(ctx, a)
    elapsed = time.perf_counter() - t0
    ok = (wb.dim == 12 and lift.dim_lower == 11 and all_pass
          and samples >= 1000 and odim == 11 and elapsed < 300)
    report(3, ok, f"dim W(x^8-x)={wb.dim}, lift rank={lift.dim_lower}, "
                  f"{samples} samples verified ({len(seen)} distinct), oracle={odim}",
           elapsed)


def test_criterion_4_trinomial_image_example():
    t0 = time.perf_counter()
    ctx = make_field(2, 1, 6)
    G = P.from_text(ctx, "x^18+x^9")
    rep = M.is_minimal(ctx, G)
    mills = M.mills_check(ctx, G, P.from_text(ctx, "x^4+x^2+x"))
    in_f8 = all(ctx.in_subfield(v, 3) for v in rep.value_set)
    form = M.extract_linearized_power_form(ctx, G)
    additive = L.detect_additive(ctx, G)
    ok = (rep.is_mvsp and rep.bound == 4 and len(rep.value_set) == 4
          and in_f8 and mills.is_member and mills.theta == ctx.one
          and form is None and additive is None)
    report(4, ok, f"x^18+x^9: mvsp={rep.is_mvsp}, |V|={len(rep.value_set)}, "
                  f"V in F_8={in_f8}, theta=1={mills.theta == ctx.one}, "
                  f"no classical form={form is None and additive is None}",
           time.perf_counter() - t0)


def test_criterion_5_odd_characteristic_power_lift():
    t0 = time.perf_counter()
    ctx = make_field(3, 1, 6)
    T = P.from_text(ctx, "x^5+x^2+x")
    wits = M.find_additive_reduction(ctx, T)
    A9 = P.from_text(ctx, "x^9+x^3+x")
    hit = any(w.v == 2 and w.gamma == ctx.zero and
              L.to_sparse(ctx, w.A) == A9 for w in wits)
    lift = W.lift_pipeline(ctx, L.detect_additive(ctx, A9))
    rng = random.Random(88)
    fq = ctx.subfield_elements(1)
    verified = 0
    seen = set()
    for _ in range(100):
        f = {}
        while not f:
            f = {}
            for g in lift.generators:
                c = fq[rng.randrange(3)]
                if c != ctx.zero:
                    f = P.add(ctx, f, P.scale(ctx, g, c))
        M.power_lift(ctx, f, 2, T)      # raises on any failure
        verified += 1
        seen.add(frozenset(f.items()))
    elapsed = time.perf_counter() - t0
    ok = hit and lift.dim_lower == 11 and verified >= 100 and elapsed < 300
    report(5, ok, f"reduction (v,gamma)=(2,0) found={hit}, rank={lift.dim_lower}, "
                  f"{verified} squared members verified ({len(seen)} distinct)",
           elapsed)


def test_criterion_6_degree_four_completeness_over_f9(f9_shift_forms):
    t0 = time.perf_counter()
    rep = f9_shift_forms
    ok = (rep.scanned == 52488 and rep.mvsp_count == 648
          and rep.form_family_size == 648 and rep.family_equal
          and rep.mismatches == 0)
    report(6, ok, f"52488 scanned, {rep.mvsp_count} minimal = "
                  f"{rep.form_family_size} shift-power family, equal={rep.family_equal}",
           time.perf_counter() - t0)


def test_criterion_7_condition_matrix(censuses):
    t0 = time.perf_counter()
    ok = True
    details = []
    for params in CENSUS_FIELDS:
        rep = censuses[params]
        ok = ok and rep.disagreements == 0
        details.append(f"q={params[0] ** params[1]},n={params[2]}:"
                       f"{rep.disagreements}")
    report(7, ok, "four-way membership conditions disagree on 0 functions "
                  + " ".join(details), time.perf_counter() - t0)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    failures = []

    # twisted left division round trips, 100 random instances per field
    for params in [(2, 1, 6), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
        ctx = make_field(*params)
        rng = random.Random(4242)
        for _ in range(100):
            def rand_add(max_tau):
                t = rng.randrange(1, max_tau + 1)
                cs = [ctx.elem_from_int(rng.randrange(ctx.Q)) for _ in range(t)]
                cs.append(ctx.elem_from_int(rng.randrange(1, ctx.Q)))
                return L.make(ctx, ctx.k, cs)
            a, m = rand_add(2), rand_add(2)
            c = L.tau_compose(ctx, a, m)
            m2, r2 = L.tau_left_divide(ctx, c, a)
            if not (r2.is_zero() and m2 == m):
                failures.append(f"division round trip at {params}")
                break

    # necklace count identity for n <= 20
    for n in range(1, 21):
        counts = W.orbit_table(2, n).counts
        if sum(d * o for d, o in counts.items()) != 2 ** n:
            failures.append(f"orbit count identity at n={n}")

    # kernel / subspace polynomial round trips
    for params in [(2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 3)]:
        ctx = make_field(*params)
        rng = random.Random(777)
        for _ in range(25):
            dim = rng.randrange(1, ctx.n + 1)
            vs = []
            span = FqSpan(ctx)
            while len(vs) < dim:
                v = ctx.elem_from_int(rng.randrange(1, ctx.Q))
                if span.add((v,)):
                    vs.append(v)
            m = L.subspace_poly(ctx, vs)
            basis, t = L.kernel(ctx, m)
            span = {ctx.zero}
            for b in vs:
                span |= {ctx.add(s, ctx.mul(c, b))
                         for s in span for c in ctx.subfield_elements(1)}
            kspan = {ctx.zero}
            for b in basis:
                kspan |= {ctx.add(s, ctx.mul(c, b))
                          for s in kspan for c in ctx.subfield_elements(1)}
            if t != dim or span != kspan:
                failures.append(f"subspace round trip at {params}")
                break

    # construction rank equals the exact-sequence bound for every monic split
    # separable additive polynomial over the sweep fields, and the dimension
    # oracle agrees whenever t >= n/2
    sweep_fields = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
                    (3, 1, 2), (3, 1, 3), (2, 2, 2), (5, 1, 2), (7, 1, 2)]
    total = 0
    attained = 0
    for params in sweep_fields:
        ctx = make_field(*params)
        recs = O.dimension_sweep(ctx)
        for r in recs:
            total += 1
            if r.rank != r.bound:
                failures.append(f"rank {r.rank} != bound {r.bound} at {params}, t={r.t}")
            if 2 * r.t >= ctx.n:
                if r.oracle_dim is None or r.oracle_dim != r.rank:
                    failures.append(f"oracle mismatch at {params}, t={r.t}")
            if r.attained:
                attained += 1

    elapsed = time.perf_counter() - t0
    ok = not failures
    report(8, ok, f"division/orbit/kernel suites clean, rank=bound on {total} "
                  f"additive polynomials ({attained} oracle-attained)"
                  + ("" if ok else f"; failures: {failures[:3]}"), elapsed)

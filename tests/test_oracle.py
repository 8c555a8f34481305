import functools
import math
import pathlib
import random
import re

import pytest

from linalg_reference import rank_mod
from mvspoly import linearized as L
from mvspoly import mvsp as M
from mvspoly import oracle as O
from mvspoly import poly as P
from mvspoly import wspace as W
from mvspoly.errors import GuardError, InputError
from mvspoly.gf import FieldCtx, make_field, parse_field_spec
from mvspoly.linalg import FqSpan
from oracle_reference import operator_rank_dense
from poly_reference import interpolate


# -- subfield-valued census -----------------------------------------------------

def test_census_f4(f4):
    rep = O.census_subfield_valued(f4)
    assert rep.total == 16 and rep.members == 16
    assert rep.disagreements == 0


def test_census_f8(f8):
    rep = O.census_subfield_valued(f8)
    assert rep.total == 256 and rep.members == 256
    assert rep.nonconstant_members == 254
    assert rep.disagreements == 0


def test_census_f9(f9_census):
    rep = f9_census
    assert rep.total == 3 ** 9 and rep.members == 81
    assert rep.disagreements == 0
    assert max(P.degree(w) for w in rep.witnesses if w) <= 4


@pytest.mark.parametrize("spec", ["2^2:1", "2^3:1", "3^2:1"])
def test_interpolate_table_matches_interpolate(spec):
    ctx = parse_field_spec(spec)
    elems = ctx.elements()
    rng = random.Random(ctx.Q)
    for _ in range(25):
        table = [elems[rng.randrange(ctx.Q)] for _ in elems]
        assert O.interpolate_table(ctx, table) == interpolate(ctx, list(zip(elems, table)))


def test_census_guard():
    with pytest.raises(GuardError):
        O.census_subfield_valued(make_field(2, 1, 6))


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2)])
def test_census_matches_enumeration(params, f9, f9_census):
    ctx = make_field(*params)
    rep = f9_census if ctx is f9 else O.census_subfield_valued(ctx)
    wb = W.build_basis(ctx, 1, ctx.one)
    enum = {frozenset(f.items()) for f in W.enumerate_w(ctx, wb)}
    wit = {frozenset(f.items()) for f in rep.witnesses}
    assert wit == enum


# -- exact dimension --------------------------------------------------------------

@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2)])
def test_linear_dim_base_binomial(params):
    ctx = make_field(*params)
    assert O.linear_dim_w(ctx, L.binomial(ctx, 1, ctx.one)) == 2 ** ctx.n


def test_linear_dim_examples(f64):
    a = L.detect_additive(f64, P.from_text(f64, "x^4+x^2+x"))
    assert O.linear_dim_w(f64, a) == 11
    assert O.linear_dim_w(f64, L.binomial(f64, 3, f64.one)) == 12


def test_linear_dim_matches_enumeration(f4, f8, f9):
    for ctx in (f4, f8, f9):
        dim = O.linear_dim_w(ctx, L.binomial(ctx, 1, ctx.one))
        count = sum(1 for _ in W.enumerate_w(ctx, W.build_basis(ctx, 1, ctx.one)))
        assert ctx.q ** dim == count


def test_linear_dim_vs_lift(f64, f729):
    for ctx, text in ((f64, "x^4+x^2+x"), (f729, "x^9+x^3+x")):
        a = L.detect_additive(ctx, P.from_text(ctx, text))
        rep = W.lift_pipeline(ctx, a)
        dim = O.linear_dim_w(ctx, a)
        assert dim >= rep.dim_lower
        assert dim == rep.dim_lower        # the bound is attained here


def reference_dim(ctx, a):
    """The operator built column by column through apply_poly and poly
    arithmetic, as a dense list of rows, ranked by the numpy reference."""
    aq = L.as_context_base(ctx, a)
    t = aq.tau_deg()
    theta = ctx.neg(aq.coeffs[0])
    D = (ctx.Q - 1) // (ctx.q ** t - 1)
    columns = []
    for e in range(D + 1):
        for j in range(ctx.N):
            u = tuple(1 if i == j else 0 for i in range(ctx.N))
            img = L.apply_poly(ctx, aq, {e: u})
            if e % ctx.p:
                c = ctx.mul(theta, ctx.smul(e, u))
                img = P.sub(ctx, img, {ctx.Q + e - 1: c})
                img = P.add(ctx, img, {e: c})
            columns.append(img)
    exps = sorted({e for img in columns for e in img})
    matrix = [[0] * len(columns) for _ in range(len(exps) * ctx.N)]
    for ci, img in enumerate(columns):
        for e, c in img.items():
            for r, digit in enumerate(c):
                matrix[exps.index(e) * ctx.N + r][ci] = digit
    nullity = len(columns) - rank_mod(matrix, ctx.p)
    return nullity // ctx.k


@pytest.mark.parametrize("params, t, count", [
    ((2, 1, 6), 2, 6), ((2, 1, 6), 3, 4), ((2, 1, 4), 2, 6), ((2, 2, 2), 1, 5),
    ((3, 1, 4), 2, 3), ((3, 1, 3), 1, 4), ((2, 1, 3), 1, 1),
    ((2, 2, 2), 2, 1), ((3, 1, 4), 1, 4), ((3, 1, 4), 3, 3), ((3, 1, 4), 4, 1),
])
def test_linear_dim_matches_the_reference_build(params, t, count):
    ctx = make_field(*params)
    polys = [L.subspace_poly(ctx, b) for b in O.subspaces(ctx, t)]
    if ctx.q ** t == 2:
        polys = [L.binomial(ctx, 1, ctx.one)]        # the carve-out x^2 - x
    for a in random.Random(7).sample(polys, min(count, len(polys))):
        assert O.linear_dim_w(ctx, a) == reference_dim(ctx, a)


@functools.lru_cache(maxsize=None)
def f64_sweep_strata():
    """Every split additive A of F_64 with 2 <= t <= 5, grouped by (t, d),
    d the degree of its least binomial multiple: the strata of the
    benchmark's sweep sample."""
    ctx = make_field(2, 1, 6)
    strata = {}
    for t in range(2, 6):
        for b in O.subspaces(ctx, t):
            a = L.subspace_poly(ctx, b)
            d, _ = L.minimal_binomial_multiple(ctx, M.split_additive(ctx, a, "not split").null)
            strata.setdefault((t, d), []).append(a)
    return strata


@pytest.mark.parametrize("t, d, count", [
    (2, 2, 3), (2, 3, 3), (2, 6, 3), (3, 3, 2), (3, 6, 3), (4, 6, 2), (5, 6, 2),
])
def test_linear_dim_matches_the_reference_build_on_every_f64_stratum(t, d, count):
    ctx = make_field(2, 1, 6)
    strata = f64_sweep_strata()
    assert sorted(strata) == [(2, 2), (2, 3), (2, 6), (3, 3), (3, 6), (4, 6), (5, 6)]
    for a in random.Random(11 * t + d).sample(strata[t, d], count):
        assert O.linear_dim_w(ctx, a) == reference_dim(ctx, a)


# the fields `scripts/dimension_sweep.py` runs by default
SWEEP_FIELDS = re.search(r'DEFAULT_FIELDS = "([^"]+)"', (pathlib.Path(__file__).parents[1] / "scripts"
                         / "dimension_sweep.py").read_text()).group(1).split(",")


def operator_ranks(ctx, a):
    """(D, steps, blocked rank, dense rank) of A's dimension operator."""
    aq = M.split_additive(ctx, a, "not split", admit_quadratic=True).additive
    theta = ctx.neg(aq.coeffs[0])
    D = (ctx.Q - 1) // (ctx.q ** aq.tau_deg() - 1)
    terms = [(i, c) for i, c in enumerate(aq.coeffs) if c != ctx.zero]
    steps = tuple(ctx.p ** (aq.base * i) for i, _ in terms)
    layout = O._operator_layout(ctx, D, steps)
    return (D, steps, O._operator_rank(ctx, aq.base, terms, theta, layout),
            operator_rank_dense(ctx, aq, theta, D))


def split_additive_samples(ctx, rng, per_t):
    """Per t, the binomial x^(q^t) - x when t | n, and per_t A vanishing on
    random t-dimensional F_q-subspaces; x^2 - x stands for t = 1 at q = 2.
    So one D comes with the steps of the binomial and of a full A."""
    out = []
    for t in range(1, ctx.n + 1):
        if ctx.n % t == 0:
            out.append(L.binomial(ctx, t, ctx.one))
        if ctx.q ** t <= 2:
            continue
        for _ in range(per_t):
            span, vs = FqSpan(ctx), []
            while len(vs) < t:
                v = ctx.elem_from_int(rng.randrange(1, ctx.Q))
                if span.add((v,)):
                    vs.append(v)
            out.append(L.subspace_poly(ctx, vs))
    return out


@pytest.mark.parametrize("spec", ["2^6:1", "2^8:1", "3^4:1", "2^4:2", "2^12:1",
                                  *sorted(set(SWEEP_FIELDS) - {"2^6:1", "2^4:2"})])
def test_blocked_rank_matches_the_dense_rank(spec):
    """The rank summed over the distinct block shapes, each ranked once and
    counted count times, equals the rank of the whole operator in one
    span, for binomials and random A of every t.  Where n has a divisor
    1 < t < n, the binomial and a full A share D with different steps."""
    ctx = parse_field_spec(spec)
    rng = random.Random(sum(map(ord, spec)))
    steps_by_D = {}
    for a in split_additive_samples(ctx, rng, 1 if ctx.Q > 256 else 3):
        D, steps, blocked, dense = operator_ranks(ctx, a)
        assert blocked == dense, (spec, L.tau_to_text(ctx, a))
        steps_by_D.setdefault(D, set()).add(steps)
    if any(ctx.n % t == 0 for t in range(2, ctx.n)):
        assert max(map(len, steps_by_D.values())) >= 2


def test_blocks_of_one_shape_are_counted_once():
    """At F_{2^12} with x^4 + x, blocks repeat: the layout ranks fewer
    shapes than it has blocks, and the blocks cover every e <= D once."""
    ctx = make_field(2, 1, 12)
    layout = O._operator_layout(ctx, 1365, (1, 4))
    assert len(layout) < sum(count for count, _, _ in layout)
    assert sum(count * len(shape) for count, _, shape in layout) == 1366
    assert O.linear_dim_w(ctx, L.detect_additive(ctx, P.from_text(ctx, "x^4+x"))) == 128


def test_the_two_guards_refuse_before_their_work(monkeypatch):
    """The layout work (D+1) * terms is refused before a layout is built,
    and the elimination work before any column is ranked; each admits its
    size exactly at the guard."""
    ctx = FieldCtx(2, 1, 12)
    a = L.detect_additive(ctx, P.from_text(ctx, "x^4+x^2+x"))
    built, ranked = [], []
    layout, rank = O._operator_layout, O._operator_rank
    monkeypatch.setattr(O, "_operator_layout", lambda *args: built.append(1) or layout(*args))
    monkeypatch.setattr(O, "_operator_rank", lambda *args: ranked.append(1) or rank(*args))
    with pytest.raises(GuardError, match="operator layout of 4098 column terms refused"):
        O.linear_dim_w(ctx, a, guard=4097)
    assert built == ranked == []
    work = sum(len(shape) * width for _, width, shape in layout(ctx, 1365, (1, 2, 4)))
    assert 4098 < work
    with pytest.raises(GuardError, match=f"operator elimination of {work} block cells refused"):
        O.linear_dim_w(ctx, a, guard=work - 1)
    assert built == [1] and ranked == []
    assert O.linear_dim_w(ctx, a, guard=work) == 47 and ranked == [1]


def test_operator_layouts_and_units_are_kept_on_first_use():
    """linear_dim_w keeps one layout per (D, steps) on the context, built on
    first use, and on a table field no unit images: its columns are read off
    the tables.  A fresh context holds neither, and dims on one context that
    keeps layouts equal dims on a fresh context per A.  The A are two of each
    (t, d) and of each set of nonzero terms, so one D is kept with several
    steps."""
    shared = FieldCtx(2, 1, 6)

    def kept(name):
        return {k for k in shared._caches if isinstance(k, tuple) and k[0] == name}

    assert kept("operator_layout") == kept("units") == set()
    picked = {}
    for (t, d), polys in sorted(f64_sweep_strata().items()):
        for a in polys:
            terms = tuple(c != shared.zero for c in a.coeffs)
            for key in ((t, d), terms):
                if len(picked.setdefault(key, [])) < 2:
                    picked[key].append(a)
    for a in {id(a): a for group in picked.values() for a in group}.values():
        assert O.linear_dim_w(shared, a) == O.linear_dim_w(FieldCtx(2, 1, 6), a)
    layouts = kept("operator_layout")
    ts = range(2, 6)
    assert {D for _, D, _ in layouts} == {63 // (2 ** t - 1) for t in ts}
    assert len(layouts) > len(ts)
    assert kept("units") == set()


# -- fixed value set census ---------------------------------------------------------

def test_census_fixed_reproduces_subfield(f8):
    S = f8.subfield_elements(1)
    rep = O.census_fixed_valueset(f8, S)
    full = O.census_subfield_valued(f8)
    assert rep.members == full.members == 256


def test_census_fixed_invalid_precondition():
    ctx = make_field(2, 1, 4)
    # the roots of x^4+x^2+x lie in F_8, which does not embed in F_16: the
    # realizable root set inside F_16 is just {0}, too small for the theory
    roots = [a for a in ctx.elements()
             if P.eval_at(ctx, P.from_text(ctx, "x^4+x^2+x"), a) == ctx.zero]
    assert roots == [ctx.zero]
    a = L.detect_additive(ctx, P.from_text(ctx, "x^4+x^2+x"))
    with pytest.raises(InputError, match="does not split"):
        M.validate_value_poly(ctx, L.to_sparse(ctx, a))
    rep = O.census_fixed_valueset(ctx, roots)
    assert "precondition" in rep.note and rep.members == 0


def test_census_fixed_non_coset_triple(f8):
    S = [f8.zero, f8.one, f8.elem_from_int(2)]
    rep = O.census_fixed_valueset(f8, S)
    assert rep.members == 3 and rep.nonconstant_members == 0


def test_census_affine_twist_invariance(f8):
    S = [f8.zero, f8.one, f8.elem_from_int(2)]
    a, b = f8.elem_from_int(3), f8.elem_from_int(5)
    S2 = [f8.add(f8.mul(a, s), b) for s in S]
    r1 = O.census_fixed_valueset(f8, S)
    r2 = O.census_fixed_valueset(f8, S2)
    assert r1.members == r2.members
    assert r1.nonconstant_members == r2.nonconstant_members


def test_census_fixed_poly_mode(f4, f9, f9_census):
    # over F_4 the 2^4 maps lie within the guard, so the scan runs over
    # functions; all members of the base space have degree <= 3, which is
    # what a poly scan to degree 3 would see; count matches 2^(2^2)
    rep = O.census_fixed_valueset(f4, f4.subfield_elements(1), max_deg=3)
    assert rep.note == "mode=functions" and max(rep.degree_histogram) <= 3
    assert rep.members == 16
    # over F_9 the 3^9 maps exceed the guard 3^9 - 1, so the scan runs over
    # the 9^4 coefficient tuples of degree <= 3
    rep = O.census_fixed_valueset(f9, f9.subfield_elements(1), max_deg=3, guard=3 ** 9 - 1)
    assert rep.note == "mode=polys" and rep.total == 9 ** 4
    low = {d: c for d, c in f9_census.degree_histogram.items() if d <= 3}
    assert rep.degree_histogram == low
    assert rep.members == sum(low.values()) == 27


# -- low degree form checks -----------------------------------------------------------

def test_forms_f9_shift_branch(f9_shift_forms):
    rep = f9_shift_forms
    assert rep.scanned == 52488
    assert rep.mvsp_count == 648
    assert rep.form_count == 648
    assert rep.mismatches == 0
    assert rep.form_family_size == 648 and rep.family_equal


def test_forms_f9_power_branch(f9):
    rep = O.verify_low_degree_forms(f9, branch="power")[0]
    assert rep.degrees == (1, 2, 3)
    assert rep.mismatches == 0


def test_forms_f4(f4):
    reports = O.verify_low_degree_forms(f4, branch="both")
    for rep in reports:
        assert rep.mismatches == 0
        if rep.branch == "shift":
            assert "skipped" in rep.note


def test_forms_rejects_nonsquare(f8):
    with pytest.raises(Exception):
        O.verify_low_degree_forms(f8)


# -- subspaces and the sweep ------------------------------------------------------------

def gaussian_binomial(n, t, q):
    num = den = 1
    for i in range(t):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("params,t", [((2, 1, 4), 2), ((3, 1, 2), 1),
                                      ((2, 1, 6), 3), ((2, 2, 2), 1)])
def test_subspace_counts(params, t):
    ctx = make_field(*params)
    count = sum(1 for _ in O.subspaces(ctx, t))
    assert count == gaussian_binomial(ctx.n, t, ctx.q)


def test_subspaces_are_distinct(f8):
    seen = set()
    for basis in O.subspaces(f8, 2):
        span = {f8.zero}
        for b in basis:
            span |= {f8.add(s, b) for s in span}
        key = frozenset(span)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 7


def test_sweep_small_fields():
    for params in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        ctx = make_field(*params)
        recs = O.dimension_sweep(ctx)
        assert recs, params
        for r in recs:
            assert r.rank == r.bound
            if r.oracle_dim is not None and 2 * r.t >= ctx.n:
                assert r.oracle_dim == r.rank

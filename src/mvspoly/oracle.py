"""Independent ground truth for the constructive machinery.

Nothing in this module reuses the basis construction or the lift pipeline:
membership is recomputed from scratch, either by enumerating whole function
spaces and interpolating, or by exact nullspace computation for the linear
operator F -> A(F) - theta*(x^Q - x)*F'.  The test suite then insists that
both worlds agree.

Both censuses feed their stream of members to one tally (`_tally`), and
both normal-form branches run through the one scan loop of
`verify_low_degree_forms`, a branch being its degrees and its extractor;
every requested branch is guarded before the first one is scanned.

The dimension oracle's operator is block diagonal up to a permutation, and
most of its column groups need no elimination.  It keeps on the context
only what does not depend on A: the layout of its operator under
("operator_layout", D, steps), built on first use.  The layout peels every
column group u*x^e that has a single, invertible term at an exponent no
other group left touches, which adds N to the rank with no arithmetic,
and keeps (count, width, shape) per distinct block shape of the core that
remains.  Per A the oracle reads each coefficient's columns off
`FieldCtx.unit_parts`, O(p) field operations, and ranks each distinct core
shape once, the N columns u*x^e of each e in one `FpSpan.add_sums`.  Its
guard bounds the layout work and the core's elimination work, each before
it is done.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import linearized as lin
from . import mvsp
from . import poly
from . import wspace
from .errors import GuardError, InputError
from .gf import power_exceeds
from .linalg import FpSpan

FUNCTION_SCAN_GUARD = 1 << 20
POLY_SCAN_GUARD = 1 << 22
DIM_GUARD = 1 << 16
WITNESS_KEEP = 4096

CONDITIONS = ("mvsp_onto_base", "mills_identity", "degree_window", "degree_bound")


@dataclass
class CensusReport:
    field_spec: str
    value_set_desc: str
    total: int
    members: int
    nonconstant_members: int
    degree_histogram: dict
    condition_counts: dict = field(default_factory=dict)
    disagreements: int = 0
    agreement: dict = field(default_factory=dict)
    witnesses: list | None = None
    note: str = ""


def interpolate_table(ctx, values) -> dict:
    """Interpolant of a full value table v given in canonical element order,
    zero first: f = v(0) + sum_{e >= 1} c_e x^e with c_e = -sum_a v(a) *
    a^(Q-1-e) and 0^0 = 1, read off a table of powers kept on the context."""
    powers = ctx.memo("powers", lambda: [[ctx.pow_elem(a, ctx.Q - 1 - e) for e in range(ctx.Q)]
                                         for a in ctx.elements()])
    zero = ctx.zero
    terms = [(v, row) for v, row in zip(values, powers) if v != zero]
    out = {0: values[0]} if values[0] != zero else {}
    for e in range(1, ctx.Q):
        acc = zero
        for v, row in terms:
            acc = ctx.add(acc, ctx.mul(v, row[e]))
        if acc != zero:
            out[e] = ctx.neg(acc)
    return out


def _tally(ctx, desc: str, total: int, members, note: str) -> CensusReport:
    """The census of a stream of members out of `total` candidates: their
    count, their degree histogram (a constant counts at degree 0), the
    nonconstant count and the first WITNESS_KEEP members as witnesses, kept
    only when no member was left out."""
    histogram = {}
    witnesses = []
    for f in members:
        d = poly.degree(f)
        d = 0 if d is poly.NEG_INF else d
        histogram[d] = histogram.get(d, 0) + 1
        if len(witnesses) < WITNESS_KEEP:
            witnesses.append(f)
    count = sum(histogram.values())
    return CensusReport(field_spec=ctx.spec_str(), value_set_desc=desc, total=total,
                        members=count, nonconstant_members=count - histogram.get(0, 0),
                        degree_histogram=histogram,
                        witnesses=witnesses if count <= WITNESS_KEEP else None, note=note)


def census_subfield_valued(ctx, guard=FUNCTION_SCAN_GUARD) -> CensusReport:
    """Scan every function F_{q^n} -> F_q, interpolate, and classify by the
    four equivalent membership conditions (minimality onto the base field,
    the Mills identity with theta = 1, the degree window, the degree bound).

    The conditions are evaluated independently so their agreement is data,
    not an assumption.  Total member count must equal q^(2^n)."""
    if power_exceeds(ctx.q, ctx.Q, guard):
        raise GuardError(f"function scan of {ctx.q}^{ctx.Q} maps refused")
    fq = ctx.subfield_elements(1)
    fq_set = frozenset(fq)
    xqx = {ctx.Q: ctx.one, 1: ctx.neg(ctx.one)}
    deg_cap = (ctx.Q - 1) // (ctx.q - 1)
    agreement = {}

    def members():
        for table in itertools.product(fq, repeat=ctx.Q):
            f = interpolate_table(ctx, table)
            d = poly.degree(f)
            if d is poly.NEG_INF or d == 0:
                # constants with a base-field value are members (roots of x^q - x)
                yield f
                continue
            vset = frozenset(table)
            c1 = vset == fq_set and len(vset) == (ctx.Q - 1) // d + 1
            c2 = poly.sub(ctx, poly.frob_power(ctx, f, ctx.k), f) == \
                poly.mul(ctx, xqx, poly.derivative(ctx, f))
            c3 = ctx.q ** (ctx.n - 1) <= d <= deg_cap
            c4 = 1 <= d <= deg_cap
            flags = (c1, c2, c3, c4)
            agreement[flags] = agreement.get(flags, 0) + 1
            if c2:
                yield f

    rep = _tally(ctx, f"F_{ctx.q}", ctx.q ** ctx.Q, members(), "")
    rep.condition_counts = {name: sum(v for flags, v in agreement.items() if flags[i])
                            for i, name in enumerate(CONDITIONS)}
    rep.disagreements = sum(v for flags, v in agreement.items() if len(set(flags)) > 1)
    rep.agreement = {"".join("1" if b else "0" for b in k): v
                     for k, v in sorted(agreement.items())}
    return rep


# ---------------------------------------------------------------------------
# exact dimension by linear algebra
# ---------------------------------------------------------------------------

def linear_dim_w(ctx, a: lin.AdditivePoly, guard=DIM_GUARD) -> int:
    """Exact F_q-dimension of the member space of a split additive A.

    Membership is linear in F because A is additive and theta is forced to
    -A'(0) = -c_0: build the operator F -> A(F) - theta*(x^Q - x)*F' on all
    polynomials of degree <= D = (Q-1)/(q^t - 1) and take its nullity.  A
    nonconstant kernel element must satisfy the identity (A(F) cannot vanish
    identically for nonconstant F), and every member has degree <= D, so
    the kernel is exactly the member space.

    Two sizes are held to the guard, each before the work it measures, and
    both count pairs (x^e, exponent), each pair N x N digits: the layout
    work (D+1) * terms, terms the nonzero terms of A, and the elimination
    work, the sum over the distinct block shapes of the layout's core of
    columns * width; a peeled group costs no elimination."""
    aq = mvsp.split_additive(ctx, a, "dimension oracle needs a monic split separable A "
                             "of degree > 2", admit_quadratic=True).additive
    D = (ctx.Q - 1) // (ctx.q ** aq.tau_deg() - 1)
    # c_0 = -theta != 0 (A is separable) leads the terms
    terms = [(i, c) for i, c in enumerate(aq.coeffs) if c != ctx.zero]
    if (D + 1) * len(terms) > guard:
        raise GuardError(f"operator layout of {(D + 1) * len(terms)} column terms refused")
    steps = tuple(ctx.p ** (aq.base * i) for i, _ in terms)
    layout = ctx.memo(("operator_layout", D, steps), lambda: _operator_layout(ctx, D, steps))
    work = sum(len(shape) * width for _, width, shape in layout[1])
    if work > guard:
        raise GuardError(f"operator elimination of {work} block cells refused")
    nullity = (D + 1) * ctx.N - _operator_rank(ctx, aq.base, terms, layout)
    assert nullity % ctx.k == 0
    return nullity // ctx.k


def _operator_layout(ctx, D, steps) -> tuple:
    """(peeled, core): the operator's column groups u*x^e (u = y^j,
    0 <= e <= D) that peel off, and the connected blocks of the rest.

    With s = e mod p, group e touches exponent e * m with one term per step
    m, and Q + e - 1 when s != 0; its term c_0(1 - s)*u at x = e is zero
    when s = 1 and left out.  Every other term is c*u^(p^m) with c != 0, an
    invertible N x N block, so a group with a single term at an exponent
    that no other remaining group touches has rank N, and removing it with
    that exponent leaves the rank of the rest unchanged (structured Gaussian
    elimination; LaMacchia and Odlyzko, CRYPTO '90).  Groups are peeled by
    a worklist of exponents touched once, each entry read once, and the
    peeled set does not depend on the order: a group peelable at one stage
    stays peelable.  peeled is their count.

    The core, the groups left, is grouped into the connected blocks of the
    graph between its e and the exponents their terms touch.  Each block is
    keyed by its shape, one (s, offsets) per e in increasing order, the
    offsets being N times the indices of its exponents numbered by first
    use within the block, and equal shapes are counted once: core is
    (count, width, shape) per distinct shape, width the number of the
    block's exponents.  Blocks of one shape are copies of one matrix, so
    the operator's rank is N * peeled plus the sum of count * rank over the
    shapes (a block diagonal form up to a permutation of rows and columns)."""
    p, Q, N = ctx.p, ctx.Q, ctx.N
    touched = []
    hits, sums = {}, {}         # exponent -> terms touching it, and the sum of their e
    for e in range(D + 1):
        s = e % p
        exps = [e * m for m in steps]
        if s == 1:
            del exps[0]             # c_0(1 - s)*u at x = e
        if s:
            exps.append(Q + e - 1)
        touched.append(exps)
        for x in exps:
            hits[x] = hits.get(x, 0) + 1
            sums[x] = sums.get(x, 0) + e
    core = [True] * (D + 1)
    work = [x for x, h in hits.items() if h == 1]
    while work:
        x = work.pop()
        if hits[x] != 1:
            continue
        e = sums[x]                 # the one group left at x, single there
        core[e] = False
        for y in touched[e]:
            hits[y] -= 1
            sums[y] -= e
            if hits[y] == 1:
                work.append(y)
    parent = list(range(D + 1))

    def find(e):
        while parent[e] != e:
            parent[e] = e = parent[parent[e]]
        return e

    owner = {}          # exponent -> the first core e whose terms touch it
    for e in itertools.compress(range(D + 1), core):
        for x in touched[e]:
            r, o = find(e), find(owner.setdefault(x, e))
            if r != o:
                parent[max(r, o)] = min(r, o)
    blocks = {}
    for e in itertools.compress(range(D + 1), core):
        blocks.setdefault(find(e), []).append(e)
    shapes = {}
    for es in blocks.values():
        pos = {}
        shape = tuple((e % p, tuple(N * pos.setdefault(x, len(pos)) for x in touched[e]))
                      for e in es)
        if shape in shapes:
            shapes[shape][0] += 1
        else:
            shapes[shape] = [1, len(pos)]
    peeled = D + 1 - sum(core)
    return peeled, [(count, width, shape) for shape, (count, width) in shapes.items()]


def _operator_rank(ctx, base, terms, layout) -> int:
    """F_p-rank of the operator on the F_p-basis u*x^e: N per peeled group,
    and one FpSpan per distinct block shape of the core, times the shape's
    count.

    With s = e mod p and theta = -c_0, u*x^e maps to c_0(1 - s)*u*x^e
    + sum_{i >= 1} c_i*u^(p^(base*i))*x^(e*p^(base*i)) + s*c_0*u*x^(Q+e-1):
    fixed coefficients per unit u and s, read off the tables
    (`ctx.unit_parts`) once per coefficient, the multiples of c_0 once each,
    and added at a column's offsets, its nonzero terms in the layout's
    order, where coefficients at a repeated exponent add
    (`FpSpan.add_sums`).  The layout depends only on D and the steps
    p^(base*i) of A's terms, and the rank itself is computed afresh for
    every A."""
    p = ctx.p
    peeled, core = layout
    c0 = terms[0][1]
    twisted = [ctx.unit_parts(base * i, c) for i, c in terms[1:]]
    multiples = [None] + [ctx.unit_parts(0, ctx.smul(j, c0)) for j in range(1, p)]
    by_s = []
    for s in range(p):
        first = [multiples[(1 - s) % p]] if s != 1 else []
        last = [multiples[s]] if s else []
        by_s.append(list(zip(*first, *twisted, *last)))
    rank = peeled * ctx.N
    for count, width, shape in core:
        span = FpSpan(p, width * ctx.N)
        for s, offsets in shape:
            span.add_sums(ctx, by_s[s], offsets)
        rank += count * span.rank
    return rank


# ---------------------------------------------------------------------------
# fixed value set census
# ---------------------------------------------------------------------------

def census_fixed_valueset(ctx, S, max_deg=None, guard=POLY_SCAN_GUARD) -> CensusReport:
    """Count members whose value set is exactly the given S, by brute scan.

    When |S|^Q is within the guard, mode "functions" scans all maps
    F_Q -> S; otherwise mode "polys" scans coefficient tuples up to max_deg.
    If T = prod(x - s) fails the standing hypothesis the census is empty by
    precondition."""
    if max_deg is not None and max_deg < 0:
        raise InputError("max_deg must be >= 0")
    s_list = sorted(set(S), key=ctx.elem_to_int)
    desc = "{" + ",".join(ctx.format_elem(a) for a in s_list) + "}"
    T = {0: ctx.one}
    for a in s_list:
        T = poly.mul(ctx, T, poly.linear(ctx, a))
    try:
        vp = mvsp.validate_value_poly(ctx, T)
    except InputError as exc:
        return _tally(ctx, desc, 0, (), f"empty by precondition: {exc}")
    if not power_exceeds(len(s_list), ctx.Q, guard):
        mode = "functions"
        total = len(s_list) ** ctx.Q
        candidates = (interpolate_table(ctx, table)
                      for table in itertools.product(s_list, repeat=ctx.Q))
    else:
        mode = "polys"
        if max_deg is None:
            raise InputError("poly scan needs max_deg")
        if power_exceeds(ctx.Q, max_deg + 1, guard):
            raise GuardError(f"coefficient scan of {ctx.Q}^{max_deg + 1} tuples refused")
        total = ctx.Q ** (max_deg + 1)
        candidates = ({e: c for e, c in enumerate(coeffs) if c != ctx.zero}
                      for coeffs in itertools.product(ctx.elements(), repeat=max_deg + 1))
    members = (f for f in candidates if mvsp.mills_core(ctx, [f], vp)[0][0] is None)
    return _tally(ctx, desc, total, members, f"mode={mode}")


# ---------------------------------------------------------------------------
# exhaustive check of the low degree normal forms
# ---------------------------------------------------------------------------

@dataclass
class FormCheckReport:
    field_spec: str
    branch: str
    degrees: tuple
    scanned: int
    mvsp_count: int
    form_count: int
    mismatches: int
    form_family_size: int | None = None
    family_equal: bool | None = None
    note: str = ""


def _iter_polys_of_degree(ctx, d):
    elems = ctx.elements()
    nonzero = elems[1:]
    for lead in nonzero:
        for rest in itertools.product(elems, repeat=d):
            f = {d: lead}
            for e, c in enumerate(rest):
                if c != ctx.zero:
                    f[e] = c
            yield f


def _check_scan_size(Q, degrees, guard):
    """Refuse a scan of every polynomial of the given degrees, (Q - 1) * Q^d
    of each degree d, when there are more than guard; the count is summed
    only while it stays within guard."""
    total = 0
    for d in degrees:
        if power_exceeds(Q, d, (guard - total) // (Q - 1)):
            raise GuardError(f"scan of more than {guard} polynomials refused")
        total += (Q - 1) * Q ** d


def verify_low_degree_forms(ctx, branch="both", guard=POLY_SCAN_GUARD):
    """Exhaustively compare minimality by definition (`mvsp.is_minimal`)
    against the normal form extractor on square fields.

    branch "power" scans degrees 1..sqrt(Q) against the linearized power
    shape alpha*L^v + gamma; branch "shift" scans degree sqrt(Q)+1 against
    alpha*(x+beta)^(sqrt(Q)+1) + gamma, and after the scan rebuilds that
    family explicitly to check set equality."""
    s = math.isqrt(ctx.Q)
    if s * s != ctx.Q:
        raise InputError("form verification is defined on square fields")
    forms = {"power": (tuple(range(1, s + 1)), mvsp.extract_linearized_power_form),
             "shift": ((s + 1,), mvsp.extract_shift_power_form)}
    out, scans = [], []
    for br in ("power", "shift") if branch == "both" else (branch,):
        if br not in forms:
            raise InputError(f"unknown branch {br!r}")
        degrees, extract = forms[br]
        rep = FormCheckReport(field_spec=ctx.spec_str(), branch=br, degrees=degrees,
                              scanned=0, mvsp_count=0, form_count=0, mismatches=0)
        out.append(rep)
        if br == "shift" and (ctx.Q - 1) // (s + 1) + 1 <= 2:
            rep.note = "skipped: bound <= 2 is outside the theory"
        else:
            # every branch to scan is guarded before the first scan starts
            _check_scan_size(ctx.Q, degrees, guard)
            scans.append((br, rep, degrees, extract))
    for br, rep, degrees, extract in scans:
        minimal = set()
        for d in degrees:
            for f in _iter_polys_of_degree(ctx, d):
                is_mv = mvsp.is_minimal(ctx, f).is_mvsp
                in_form = extract(ctx, f) is not None
                rep.scanned += 1
                rep.form_count += in_form
                rep.mismatches += is_mv != in_form
                if is_mv:
                    minimal.add(frozenset(f.items()))
        rep.mvsp_count = len(minimal)
        if br == "shift":
            family = set()
            for alpha in ctx.elements()[1:]:
                for beta in ctx.elements():
                    base = poly.linear(ctx, ctx.neg(beta))
                    power = poly.scale(ctx, poly.pow_(ctx, base, s + 1), alpha)
                    for gamma in ctx.elements():
                        family.add(frozenset(poly.add(ctx, power, poly.const(ctx, gamma)).items()))
            rep.form_family_size = len(family)
            rep.family_equal = minimal == family
    return out


# ---------------------------------------------------------------------------
# subspace enumeration and the dimension sweep
# ---------------------------------------------------------------------------

def subspaces(ctx, t: int):
    """All F_q-subspaces of F_{q^n} of dimension t, as basis lists, one per
    subspace via reduced echelon coordinate matrices (deterministic order)."""
    if t < 0 or t > ctx.n:
        raise InputError("subspace dimension out of range")
    if t == 0:
        yield []
        return
    basis_field = ctx.subfield_basis(ctx.n)
    fq = ctx.subfield_elements(1)
    for pivots in itertools.combinations(range(ctx.n), t):
        free_cols = [c for c in range(ctx.n) if c not in pivots]
        # free entries live at (row i, column c) with c > pivots[i], c free
        slots = [(i, c) for i in range(t) for c in free_cols if c > pivots[i]]
        for fill in itertools.product(fq, repeat=len(slots)):
            rows = [basis_field[c] for c in pivots]
            for (i, c), v in zip(slots, fill):
                if v != ctx.zero:
                    rows[i] = ctx.add(rows[i], ctx.mul(v, basis_field[c]))
            yield rows


@dataclass(frozen=True)
class SweepRecord:
    t: int
    d: int
    alpha: tuple
    rank: int
    bound: int
    oracle_dim: int | None
    attained: bool | None


def dimension_sweep(ctx, include_oracle=True):
    """Every monic split separable additive polynomial of degree > 2 over the
    context (one per subspace of each dimension), through the lift pipeline,
    with the exact dimension oracle alongside where its guard allows."""
    records = []
    for t in range(1, ctx.n + 1):
        if ctx.q ** t <= 2:
            continue
        for basis in subspaces(ctx, t):
            a = lin.subspace_poly(ctx, basis)
            rep = wspace.lift_pipeline(ctx, a)
            bound = rep.witness.d * 2 ** (ctx.n // rep.witness.d) - rep.witness.d + t
            oracle_dim = None
            attained = None
            if include_oracle:
                try:
                    oracle_dim = linear_dim_w(ctx, a)
                    attained = oracle_dim == rep.dim_lower
                except GuardError:
                    pass
            records.append(SweepRecord(t=t, d=rep.witness.d, alpha=rep.witness.alpha,
                                       rank=rep.dim_lower, bound=bound,
                                       oracle_dim=oracle_dim, attained=attained))
    return records

"""Explicit structure of the member spaces W(x^(q^d) - alpha*x | F_{q^n}).

Members with values in a Frobenius-stable subfield are sums of orbit traces
of monomials whose exponents have 0/1 digits base q', q' = q^d.  The orbit
decomposition of those exponent vectors under cyclic digit rotation gives a
direct sum of components, one per necklace, and an explicit F_q-basis of
size d * 2^(n/d).  An orbit of size s seeds its traces with an F_q-basis
of F_{q^(ds)}, read off the zeros of x^(q^(ds)) - x
(`FieldCtx.subfield_basis`), so the basis scans no field and is guarded by
its dimension alone.  Each seed's conjugates are made once per orbit
size and shared by every orbit of that size.

The lift pipeline pushes that basis through M(x) from a binomial
factorization gamma * A(M(x)) to generate the member space of a general
split additive polynomial A, with rank d*2^(n/d) - d + t.  It folds
the whole basis through M on one row set (`linearized.apply_each`), and it
re-checks all kept generators in one call of the Mills core,
`mvsp.mills_core`, with the checked ValuePoly of A that it already holds.

Every orbit is one walk, `_orbit`: e -> e*q' mod (Q-1), which is the
exponent rule of reduction mod x^Q - x applied to (x^e)^q', with its two
fixed points 0 (the constant) and Q-1 (x^(Q-1), the all-ones exponent at
q' = 2).  Membership is decided by the Mills identity (`mvsp.mills_core`);
the coordinate read-off at the orbit representatives is the tests'
independent reference for it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from . import linearized as lin
from . import mvsp
from . import poly
from .errors import GuardError, InputError
from .gf import TABLE_LIMIT, power_exceeds
from .linalg import FqSpan

ENUM_HARD_GUARD = 1 << 24      # the cap on every guard, --guard-max included
ORBIT_GUARD = 24
EMPTY_SPAN = "the generators span no nonzero polynomial"


@dataclass(frozen=True)
class Orbit:
    bits: tuple        # digits of the representative, low q-power first
    exponent: int      # its value sum bits[i] * q^i (the least in the orbit)
    size: int


@dataclass(frozen=True)
class OrbitTable:
    q: int
    n: int
    orbits: tuple
    counts: dict       # orbit size -> number of orbits of that size


def _necklaces(n: int):
    """All binary necklaces of length n with their periods, lex order
    (the classic prenecklace generation, constant amortized time)."""
    a = [0] * (n + 1)
    out = []

    def gen(t, per):
        if t > n:
            if n % per == 0:
                out.append((tuple(a[1:n + 1]), per))
            return
        a[t] = a[t - per]
        gen(t + 1, per)
        for v in range(a[t - per] + 1, 2):
            a[t] = v
            gen(t + 1, t)

    gen(1, 1)
    return out


def _orbit(e: int, qd: int, M: int) -> list:
    """e, e*qd, e*qd^2, ... mod M up to the first repeat; 0 and M are fixed
    points, as in the reduction of (x^e)^qd mod x^(M+1) - x."""
    orbit = [e]
    # off 0 and M the walk never hits 0 mod M, so `or e` fires only there
    while (nxt := orbit[-1] * qd % M or e) != e:
        orbit.append(nxt)
    return orbit


def _trace(ctx, e: int, conjugates, d: int) -> dict:
    """The orbit trace sum_l c^(q'^l) x^(e*q'^l) mod x^Q - x, q' = q^d,
    from the conjugates c^(q'^l) of c, one per exponent of the orbit."""
    return dict(zip(_orbit(e, ctx.q ** d, ctx.Q - 1), conjugates))


def _conjugates(ctx, c, d: int, size: int) -> list:
    """c, c^q', ..., c^(q'^(size-1)), q' = q^d, each the q'-th power of the
    one before."""
    out = [c]
    for _ in range(size - 1):
        out.append(ctx.frobenius(out[-1], d))
    return out


def orbit_table(q: int, n: int) -> OrbitTable:
    """Necklace orbits of {0,1}^n under digit rotation, i.e. of 0/1-digit
    exponents under e -> q*e mod (q^n - 1).  The stored representative is
    the rotation with the smallest exponent value."""
    if q < 2:
        raise InputError("q must be at least 2")
    if n < 1:
        raise InputError("n must be positive")
    if n > ORBIT_GUARD:
        raise GuardError(f"orbit enumeration refused beyond n = {ORBIT_GUARD}")
    M = q ** n - 1
    orbits = []
    counts = {}
    for bits, per in _necklaces(n):
        best = min(_orbit(sum(b * q ** i for i, b in enumerate(bits)), q, M))
        digits = tuple((best // q ** i) % q for i in range(n))
        orbits.append(Orbit(bits=digits, exponent=best, size=per))
        counts[per] = counts.get(per, 0) + 1
    orbits.sort(key=lambda o: o.exponent)
    return OrbitTable(q=q, n=n, orbits=tuple(orbits), counts=counts)


# ---------------------------------------------------------------------------
# the explicit basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElem:
    elem: dict          # the reduced polynomial
    orbit_exponent: int
    orbit_size: int
    beta: tuple         # the subfield scalar that seeds the orbit trace


@dataclass(frozen=True)
class WBasis:
    d: int
    alpha: tuple
    scale: tuple        # beta with beta^(q^d - 1) = alpha; members are beta * (plain members)
    elems: tuple
    dim: int


@functools.lru_cache(maxsize=1)
def build_basis(ctx, d: int, alpha) -> WBasis:
    """F_q-basis of W(x^(q^d) - alpha*x | F_{q^n}).

    Per orbit of exponents with 0/1 digits base q' = q^d and per F_q-basis
    element beta_j of F_{q'^size}, emit the orbit trace
    sum_l (beta_j x^k)^(q'^l) reduced mod x^Q - x, then scale everything by
    a beta with beta^(q'-1) = alpha when alpha != 1.

    The last basis built is kept, one entry per process keyed by (ctx, d,
    alpha), and returned again for the same key: it is shared, so it is
    read-only."""
    beta = binomial_scale(ctx, d, alpha)
    nprime = ctx.n // d
    dim = d * 2 ** nprime
    # 2^20 is the largest dimension of a field of at most 2^20 elements
    # (q = 2, n = 20, d = 1); refused before the orbit table is built
    if dim > TABLE_LIMIT:
        raise GuardError(f"basis of dimension {dim} refused above 2^20")
    table = orbit_table(ctx.q ** d, nprime)
    seeds = {}          # orbit size -> the conjugates of each seed, made once
    elems = []
    for orbit in table.orbits:
        if orbit.size not in seeds:
            seeds[orbit.size] = [_conjugates(ctx, bj, d, orbit.size)
                                 for bj in ctx.subfield_basis(d * orbit.size)]
        for conjugates in seeds[orbit.size]:
            f = _trace(ctx, orbit.exponent, conjugates, d)
            if beta != ctx.one:
                f = poly.scale(ctx, f, beta)
            elems.append(BasisElem(elem=f, orbit_exponent=orbit.exponent,
                                   orbit_size=orbit.size, beta=conjugates[0]))
    assert len(elems) == dim
    return WBasis(d=d, alpha=alpha, scale=beta, elems=tuple(elems), dim=dim)


def binomial_scale(ctx, d: int, alpha):
    """beta with beta^(q^d - 1) = alpha, for x^(q^d) - alpha*x a split
    binomial with d | n that W is defined for; InputError otherwise."""
    if d < 1 or ctx.n % d != 0:
        raise InputError(f"d = {d} is not a positive divisor of n = {ctx.n}")
    if not lin.binomial_admissible(ctx, d, alpha):
        raise InputError("binomial degree must exceed 2 (only x^2 - x at q = 2 is admitted)")
    beta = ctx.solve_power(alpha, ctx.q ** d - 1) if alpha != ctx.one else ctx.one
    if beta is None:
        raise InputError("alpha is not a (q^d - 1)-th power; the binomial does not split")
    return beta


def target_binomial(ctx, wb: WBasis) -> dict:
    return lin.to_sparse(ctx, lin.binomial(ctx, wb.d, wb.alpha))


def span_iter(ctx, polys):
    """All F_q-linear combinations of the given polynomials, no duplicates
    when the inputs are independent; refused above the hard cap."""
    check_span_size(ctx, len(polys), ENUM_HARD_GUARD)
    for digits in itertools.product(ctx.subfield_elements(1), repeat=len(polys)):
        yield _combine(ctx, digits, polys)


def check_span_size(ctx, dim: int, limit) -> None:
    """Refuse a span of q^dim elements above limit, or above the hard cap."""
    if power_exceeds(ctx.q, dim, min(limit, ENUM_HARD_GUARD)):
        raise GuardError(f"enumeration of {ctx.q}^{dim} span elements refused")


def _combine(ctx, digits, polys) -> dict:
    """sum_i digits[i] * polys[i]."""
    f = {}
    for c, g in zip(digits, polys):
        if c != ctx.zero:
            f = poly.add(ctx, f, poly.scale(ctx, g, c))
    return f


def enumerate_w(ctx, wb: WBasis):
    """Stream of all members of the basis span."""
    return span_iter(ctx, [b.elem for b in wb.elems])


# ---------------------------------------------------------------------------
# the lift pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftReport:
    witness: lin.LiftWitness
    basis: WBasis
    generators: tuple
    dim_lower: int


def lift_pipeline(ctx, a: lin.AdditivePoly) -> LiftReport:
    """Generators of the member space of A from the binomial one.

    Composes M from the binomial factorization with every basis element of
    the binomial space, with M's fold rows built once, and removes
    F_q-dependencies; the surviving rank is exactly d*2^(n/d) - d + t (the
    kernel of the map is the root space of M, which consists of constants),
    and every generator is re-verified against A by the Mills core.  A must
    satisfy the standing hypothesis without the quadratic carve-out."""
    vp = mvsp.split_additive(ctx, a, lin.STAR_REFUSAL)
    d, alpha = lin.minimal_binomial_multiple(ctx, vp.null)
    witness = lin.factor_through_binomial(ctx, vp.additive, d, alpha)
    wb = build_basis(ctx, d, alpha)
    # q^d >= deg A > 2, so M(b) has degree at most q^(d-t) * (Q-1)/(q^d - 1)
    # < Q: it is already reduced mod x^Q - x
    raw = lin.apply_each(ctx, witness.M, [b.elem for b in wb.elems])
    exponents = sorted({e for f in raw for e in f})
    span = FqSpan(ctx, len(exponents))
    kept = [g for g in raw if span.add([g.get(e, ctx.zero) for e in exponents])]
    bound = d * 2 ** (ctx.n // d) - d + witness.t
    if len(kept) != bound:
        raise AssertionError(f"lift rank {len(kept)} != expected {bound}")
    if any(cause is not None for cause, _ in mvsp.mills_core(ctx, kept, vp)):
        raise AssertionError("lift generator failed verification")
    return LiftReport(witness=witness, basis=wb, generators=tuple(kept),
                      dim_lower=len(kept))


def power_image_count(ctx, T: dict, v: int, generators, *, samples=200, seed=0) -> int:
    """The guaranteed lower bound (q^dim - 1)/v + 1 on the number of distinct
    F^v over the span of the generators, after a seeded sample of images is
    verified against T in one call of the Mills core."""
    gens = list(generators)
    if not any(gens):
        raise InputError(EMPTY_SPAN)
    vp = mvsp.validate_value_poly(ctx, T)
    rng = random.Random(seed)
    images = [poly.pow_(ctx, random_span_member(ctx, gens, rng), v) for _ in range(samples)]
    if any(cause is not None for cause, _ in mvsp.mills_core(ctx, images, vp)):
        raise AssertionError("power image failed verification")
    return (ctx.q ** len(gens) - 1) // v + 1


def random_span_member(ctx, generators, rng) -> dict:
    """A nonzero F_q-combination of the generators, each coefficient drawn
    uniformly from F_q by rng; a zero combination is drawn again."""
    if not any(generators):
        raise InputError(EMPTY_SPAN)
    fq = ctx.subfield_elements(1)
    f = {}
    while not f:
        f = _combine(ctx, [fq[rng.randrange(len(fq))] for _ in generators], generators)
    return f

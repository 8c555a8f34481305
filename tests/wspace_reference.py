"""Reference member-space routines, kept for the tests only.

- `membership_coordinates` and `reconstruct_from_coordinates`: the paper's
  explicit description of W read as coordinates, one per orbit
  representative of the basis, with traces made by `orbit_trace`, which
  takes each conjugate as its own Frobenius power.  They are the
  independent side of the differential against `mvspoly.mvsp.mills_check`.
- `power_image_count_exact`: the number of distinct F^v over a span by
  enumeration, the branch `mvspoly.wspace.power_image_count` had before it
  always returned the sampled lower bound.
- `lift_pipeline_per_element`: `mvspoly.wspace.lift_pipeline` as it was
  before the basis was folded with one row set: one `apply_poly` and one
  `reduce_mod_field` per basis element, and one `mills_check` per kept
  generator.
"""

from mvspoly import linearized as lin
from mvspoly import mvsp, poly
from mvspoly.errors import InputError
from mvspoly.linalg import FqSpan
from mvspoly.wspace import LiftReport, WBasis, build_basis, check_span_size, span_iter
from poly_reference import reduce_mod_field


def membership_coordinates(ctx, F: dict, wb: WBasis):
    """Per-orbit coordinates of F in the basis, or None.

    After unscaling, the coordinate of an orbit is the coefficient at its
    representative when that lies in F_{q'^size}; F is a member exactly
    when the coordinates reconstruct it."""
    for e in F:
        if e < 0 or e > ctx.Q - 1:
            raise InputError("membership needs a polynomial reduced mod x^Q - x")
    g = F if wb.scale == ctx.one else poly.scale(ctx, F, ctx.inv(wb.scale))
    sizes = {b.orbit_exponent: b.orbit_size for b in wb.elems}
    coords = {e: g[e] for e, size in sizes.items()
              if e in g and ctx.in_subfield(g[e], wb.d * size)}
    return coords if reconstruct_from_coordinates(ctx, wb, coords) == F else None


def reconstruct_from_coordinates(ctx, wb: WBasis, coords: dict) -> dict:
    """The member with the given coordinates, keyed by orbit representative."""
    if not coords.keys() <= {b.orbit_exponent for b in wb.elems}:
        raise InputError("coordinates are keyed by the basis's orbit representatives")
    f = {}
    for rep, c in coords.items():
        f.update(orbit_trace(ctx, rep, c, wb.d))
    if wb.scale != ctx.one:
        f = poly.scale(ctx, f, wb.scale)
    return {e: c for e, c in f.items() if c != ctx.zero}


def orbit_trace(ctx, e: int, c, d: int) -> dict:
    """sum_l c^(q'^l) x^(e*q'^l) mod x^Q - x, q' = q^d, each term made by
    its own Frobenius power: the walk e -> e*q' mod (Q-1) stops at its first
    repeat, and Q-1 (the exponent of x^(Q-1)) maps to itself."""
    qd, M = ctx.q ** d, ctx.Q - 1
    f, k = {}, e
    for l in range(ctx.n):
        f[k] = ctx.frobenius(c, d * l)
        k = k * qd % M if k != M else M
        if k == e:
            break
    return f


def power_image_count_exact(ctx, T: dict, v: int, generators, limit=1 << 16) -> int:
    """Number of distinct F^v over the span of the generators, every image
    verified against T; the span is enumerated up to `limit` members."""
    check_span_size(ctx, len(generators), limit)
    images = set()
    for f in span_iter(ctx, list(generators)):
        img = poly.pow_(ctx, f, v)
        if not mvsp.mills_check(ctx, img, T).is_member:
            raise AssertionError("power image failed verification")
        images.add(frozenset(img.items()))
    return len(images)


def lift_pipeline_per_element(ctx, a) -> LiftReport:
    """The lift of A, each basis element pushed through M on its own."""
    vp = mvsp.split_additive(ctx, a, lin.STAR_REFUSAL)
    d, alpha = lin.minimal_binomial_multiple(ctx, vp.null)
    witness = lin.factor_through_binomial(ctx, vp.additive, d, alpha)
    wb = build_basis(ctx, d, alpha)
    raw = [reduce_mod_field(ctx, lin.apply_poly(ctx, witness.M, b.elem))
           for b in wb.elems]
    exponents = sorted({e for f in raw for e in f})
    span = FqSpan(ctx, len(exponents))
    kept = [g for g in raw if span.add([g.get(e, ctx.zero) for e in exponents])]
    bound = d * 2 ** (ctx.n // d) - d + witness.t
    if len(kept) != bound:
        raise AssertionError(f"lift rank {len(kept)} != expected {bound}")
    asp = lin.to_sparse(ctx, vp.additive)
    for g in kept:
        if not mvsp.mills_check(ctx, g, asp).is_member:
            raise AssertionError("lift generator failed verification")
    return LiftReport(witness=witness, basis=wb, generators=tuple(kept),
                      dim_lower=len(kept))

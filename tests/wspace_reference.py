"""Reference member-space routines, kept for the tests only.

- `membership_coordinates` and `reconstruct_from_coordinates`: the paper's
  explicit description of W read as coordinates, one per orbit
  representative of the basis.  They are the independent side of the
  differential against `mvspoly.mvsp.mills_check`.
- `power_image_count_exact`: the number of distinct F^v over a span by
  enumeration, the branch `mvspoly.wspace.power_image_count` had before it
  always returned the sampled lower bound.
"""

from mvspoly import mvsp, poly
from mvspoly.errors import InputError
from mvspoly.wspace import WBasis, _trace, check_span_size, span_iter


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
        f.update(_trace(ctx, rep, c, wb.d))
    if wb.scale != ctx.one:
        f = poly.scale(ctx, f, wb.scale)
    return {e: c for e, c in f.items() if c != ctx.zero}


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

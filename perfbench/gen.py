"""Seeded inputs and independently known answers for one benchmark workload.

    python3 perfbench/gen.py --workload verify --seed 7 > inputs.json

Runs in its own process, so the measuring process starts with every mvspoly
cache cold and receives only argv lists or polynomial coefficients plus the
expected answers.  The answers never come from the code path that is timed:

- verify: members are members by construction (the lift span of an additive
  T, squares of lift-span members under the power lift x -> x^2, the explicit
  basis of W(x^16 - x)).  Degree non-members fail deg T * deg F = Q + deg F',
  checked here by integer arithmetic.  Shift non-members F + c are confirmed
  by the exhaustive value set oracle `mvsp.is_minimal` (F_64, F_729) or, at
  F_{2^16}, by c lying outside the root subfield F_16 of x^16 + x.
- sweep: SWEEP_OPS of the polynomials, the head of a seeded order that keeps
  the mix of (t, d) the same in every stretch of it.  The expected rank
  d*2^(n/d) - d + t takes t from the subspace and d from a direct scan of
  the subspace (least d | n with U inside u0*F_{q^d}).
- census: the counts follow from the field size by formula.
"""

from __future__ import annotations

import argparse
import json
import math
import random

from common import load_mvspoly

# each field's requests cycle member, degree non-member, member, shift non-member
VERIFY_FIELDS = ("2^6:1", "3^6:1", "2^16:1")
VERIFY_T = {"2^6:1": "x^4+x^2+x", "3^6:1": "x^5+x^2+x", "2^16:1": "x^16+x"}
VERIFY_PATTERN = ("member", "degree", "member", "shift")
VERIFY_CYCLES = 16
SWEEP_FIELD = "2^6:1"
SWEEP_OPS = 192         # a 20-second run makes about ten passes over them
CENSUS_FIELD = "3^2:1"


def _span_member(ctx, poly, gens, rng):
    """A random nonconstant F_q-combination of the generators."""
    fq = ctx.subfield_elements(1)
    while True:
        f = {}
        for g in gens:
            c = fq[rng.randrange(len(fq))]
            if c != ctx.zero:
                f = poly.add(ctx, f, poly.scale(ctx, g, c))
        if f and poly.degree(f) >= 1:
            return f


def _deriv_degree(ctx, f):
    """deg F' from the exponents alone: e*c vanishes exactly when p | e."""
    live = [e for e in f if e % ctx.p]
    return max(live) - 1 if live else None


def _verify_members(mv, spec, ctx):
    """Generators whose span consists of members for (spec, T), and the
    power applied to a span element."""
    lin, poly, wspace = mv.linearized, mv.poly, mv.wspace
    if spec == "2^6:1":
        a = lin.detect_additive(ctx, poly.from_text(ctx, VERIFY_T[spec]))
        return list(wspace.lift_pipeline(ctx, a).generators), 1
    if spec == "3^6:1":
        # x^5+x^2+x at x^2, divided by x, is the additive x^9+x^3+x
        a = lin.detect_additive(ctx, poly.from_text(ctx, "x^9+x^3+x"))
        return list(wspace.lift_pipeline(ctx, a).generators), 2
    wb = wspace.build_basis(ctx, 4, ctx.one)
    return [b.elem for b in wb.elems], 1


def _degree_non_member(ctx, poly, f, deg_t, rng):
    """F + c*x^e, e > deg F, with deg T * deg G != Q + deg G'."""
    while True:
        e = rng.randrange(max(f) + 1, max(f) + 64)
        g = poly.add(ctx, f, {e: ctx.elements()[rng.randrange(1, ctx.Q)]})
        dgp = _deriv_degree(ctx, g)
        if dgp is None or deg_t * e != ctx.Q + dgp:
            return g


def _shift_non_member(ctx, mv, f, roots, rng):
    """F + c whose value set is not the root set of T: checked exhaustively
    when the roots are given, else (T = x^16 + x, roots F_16) by c not in F_16."""
    while True:
        c = ctx.elements()[rng.randrange(1, ctx.Q)]
        g = mv.poly.add(ctx, f, {0: c})
        if (mv.mvsp.is_minimal(ctx, g).value_set != roots if roots is not None
                else not ctx.in_subfield(c, 4)):
            return g


def gen_verify(mv, seed):
    poly = mv.poly
    rng = random.Random(seed)
    per_field = {}
    warmup = []
    for spec in VERIFY_FIELDS:
        ctx = mv.gf.parse_field_spec(spec)
        T = poly.from_text(ctx, VERIFY_T[spec])
        roots = None
        if ctx.Q <= 729:
            roots = frozenset(a for a in ctx.elements() if poly.eval_at(ctx, T, a) == ctx.zero)
        gens, power = _verify_members(mv, spec, ctx)

        def request(f, kind):
            return {"field": spec, "kind": kind, "member": kind == "member",
                    "argv": ["verify", "--field", spec, "--T", VERIFY_T[spec],
                             "--F", poly.to_text(ctx, f)]}

        def member():
            return poly.pow_(ctx, _span_member(ctx, poly, gens, rng), power)

        warmup.append(request(member(), "member"))
        reqs = []
        for _ in range(VERIFY_CYCLES):
            for kind in VERIFY_PATTERN:
                f = member()
                if kind == "degree":
                    f = _degree_non_member(ctx, poly, f, max(T), rng)
                elif kind == "shift":
                    f = _shift_non_member(ctx, mv, f, roots, rng)
                reqs.append(request(f, kind))
        per_field[spec] = reqs
    # interleave the fields so every prefix of the stream has the same mix
    ops = [per_field[spec][i] for i in range(len(VERIFY_PATTERN) * VERIFY_CYCLES)
           for spec in VERIFY_FIELDS]
    return {"fields": list(VERIFY_FIELDS), "warmup": warmup, "ops": ops}


def _least_binomial_degree(ctx, basis):
    """Least d | n with the span of basis inside u0 * F_{q^d}, where the
    binomial x^(q^d) - alpha*x, alpha = u0^(q^d - 1), is admissible (degree
    > 2, or x^2 - x at q = 2)."""
    u0 = basis[0]
    ratios = [ctx.div(u, u0) for u in basis]
    for d in range(1, ctx.n + 1):
        qd = ctx.q ** d
        if ctx.n % d or not all(ctx.pow_elem(r, qd) == r for r in ratios):
            continue
        if qd > 2 or ctx.pow_elem(u0, qd - 1) == ctx.one:
            return d
    raise AssertionError("d = n always works")


def gen_sweep(mv, seed):
    gf, lin, oracle = mv.gf, mv.linearized, mv.oracle
    ctx = gf.parse_field_spec(SWEEP_FIELD)
    ops = []
    for t in range(1, ctx.n + 1):
        if ctx.q ** t <= 2:
            continue
        for basis in oracle.subspaces(ctx, t):
            a = lin.subspace_poly(ctx, basis)
            d = _least_binomial_degree(ctx, basis)
            rank = d * 2 ** (ctx.n // d) - d + t
            ops.append({"t": t, "base": a.base, "coeffs": [list(c) for c in a.coeffs],
                        "d": d, "rank": rank, "dim_exact": 2 * t >= ctx.n})
    # shuffle within each (t, d) stratum, then spread every stratum evenly
    # over the stream, so that any prefix of it has the population's mix
    rng = random.Random(seed)
    strata = {}
    for op in ops:
        strata.setdefault((op["t"], op["d"]), []).append(op)
    keyed = []
    for key, group in sorted(strata.items()):
        rng.shuffle(group)
        keyed += [((j + 0.5) / len(group), key, op) for j, op in enumerate(group)]
    keyed.sort(key=lambda item: item[:2])
    return {"field": SWEEP_FIELD, "ops": [op for _, _, op in keyed[:SWEEP_OPS]]}


def gen_census(mv, seed):
    ctx = mv.gf.parse_field_spec(CENSUS_FIELD)
    q, n, Q = ctx.q, ctx.n, ctx.Q
    s = math.isqrt(Q)
    return {"field": CENSUS_FIELD, "ops": [
        # every F_Q -> F_q map; members are the q^(2^n) elements of W
        {"call": "census", "items": q ** Q,
         "expect": {"total": q ** Q, "members": q ** (2 ** n), "disagreements": 0}},
        # every degree sqrt(Q)+1 polynomial; the minimal ones are exactly the
        # alpha*(x+beta)^(sqrt(Q)+1) + gamma family, (Q-1)*Q*Q of them
        {"call": "forms", "items": (Q - 1) * Q ** (s + 1),
         "expect": {"scanned": (Q - 1) * Q ** (s + 1), "mvsp_count": (Q - 1) * Q * Q,
                    "form_family_size": (Q - 1) * Q * Q, "family_equal": True,
                    "mismatches": 0}},
    ]}


GENERATORS = {"verify": gen_verify, "sweep": gen_sweep, "census": gen_census}


def generate(workload, seed):
    return {"workload": workload, "seed": seed,
            **GENERATORS[workload](load_mvspoly(), seed)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed)))


if __name__ == "__main__":
    main()

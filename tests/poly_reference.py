"""Reference polynomial routines, kept for the tests only.

- `compose_horner`: Horner's rule over f's exponents in decreasing order, the
  gaps bridged with `poly.pow_`: the form `mvspoly.poly.compose` had before
  it summed base-p powers of g.
- `from_text_char_loop`: the text parser with the character-by-character
  tokenizer `mvspoly.poly.from_text` had before it split on a regex.
- `fold_termwise`: `FieldCtx.fold` summed term pair by term pair with
  `ctx.mul`, `ctx.frobenius_p` and `ctx.add` only.
- `lagrange_basis` and `interpolate`: interpolation through the Lagrange
  basis, the routine `mvspoly.oracle.interpolate_table` used before it read
  the coefficients off a table of powers.
- `from_json_obj`: the inverse of `mvspoly.poly.to_json_obj`, which no
  command reads back.
- `reduce_mod_field`: the canonical representative mod x^Q - x, which the
  lift made of every image M(b) before it was shown to have degree below Q.
"""

from mvspoly.errors import InputError
from mvspoly.poly import (EXP_LIMIT, _add_term, add, const, derivative, divmod_, eval_at, linear,
                          mul, pow_, scale)


def compose_horner(ctx, f: dict, g: dict) -> dict:
    """f(g(x)) by Horner steps; the gaps are bridged with base-p powers of g."""
    if not f:
        return {}
    exps = sorted(f, reverse=True)
    out = const(ctx, f[exps[0]])
    prev = exps[0]
    for e in exps[1:]:
        out = mul(ctx, out, pow_(ctx, g, prev - e))
        out = add(ctx, out, const(ctx, f[e]))
        prev = e
    if prev:
        out = mul(ctx, out, pow_(ctx, g, prev))
    return out


def from_text_char_loop(ctx, s: str) -> dict:
    """Parse "c*x^e + ..." into a polynomial, tokenizing one character at a time."""
    text = s.strip()
    if not text:
        raise InputError("empty polynomial text")
    if text == "0":
        return {}
    terms = []
    sign = 1
    buf = ""
    for i, ch in enumerate(text):
        if ch in "+-":
            if buf.strip():
                terms.append((sign, buf.strip()))
            elif i:                   # only a leading sign has no term before it
                raise InputError(f"empty term in polynomial text {s!r}")
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if not buf.strip():
        raise InputError(f"empty term in polynomial text {s!r}")
    terms.append((sign, buf.strip()))
    out = {}
    for sg, term in terms:
        cpart, _, xpart = term.partition("x")
        cpart = cpart.strip().rstrip("*").strip()
        if _ == "":                       # no x: constant term
            c = ctx.parse_elem(cpart)
            e = 0
        else:
            c = ctx.parse_elem(cpart) if cpart else ctx.one
            xpart = xpart.strip()
            if xpart == "":
                e = 1
            elif xpart.startswith("^"):
                digits = xpart[1:].strip()
                if not (digits.isascii() and digits.isdigit()):
                    raise InputError(f"bad exponent in term {term!r}")
                e = int(digits)
                if e > EXP_LIMIT:
                    raise InputError(f"exponent in term {term!r} exceeds 2^62")
            else:
                raise InputError(f"bad term {term!r}")
        if sg < 0:
            c = ctx.neg(c)
        cur = ctx.add(out.get(e, ctx.zero), c)
        if cur == ctx.zero:
            out.pop(e, None)
        else:
            out[e] = cur
    return out


def fold_termwise(ctx, f: dict, rows) -> dict:
    """`FieldCtx.fold` one term pair at a time: c0 * c^(p^m) is added at
    x^(e0 + e * p^m) for each row (e0, c0, m) and each term (e, c) of f."""
    acc = {}
    for e0, c0, m in rows:
        for e, c in f.items():
            key = e0 + e * ctx.p ** m
            acc[key] = ctx.add(acc.get(key, ctx.zero), ctx.mul(c0, ctx.frobenius_p(c, m)))
    return {e: c for e, c in acc.items() if c != ctx.zero}


def lagrange_basis(ctx, xs) -> list:
    """For distinct abscissae xs, the polynomials l_a of degree < len(xs)
    with l_a(a) = 1 and l_a(b) = 0 for the other b, in the order of xs."""
    if len(set(xs)) != len(xs):
        raise InputError("repeated abscissa")
    master = {0: ctx.one}
    for a in xs:
        master = mul(ctx, master, linear(ctx, a))
    dm = derivative(ctx, master)
    return [scale(ctx, divmod_(ctx, master, linear(ctx, a))[0],
                  ctx.inv(eval_at(ctx, dm, a))) for a in xs]


def interpolate(ctx, points) -> dict:
    """Unique polynomial of degree < len(points) through the given
    (abscissa, value) pairs."""
    pts = list(points)
    out = {}
    for (_, y), li in zip(pts, lagrange_basis(ctx, [a for a, _ in pts])):
        out = add(ctx, out, scale(ctx, li, y))
    return out


def from_json_obj(ctx, obj) -> dict:
    out = {}
    for t in obj["terms"]:
        e = int(t["e"])
        c = tuple(int(d) for d in t["c"])
        if len(c) != ctx.N or any(d < 0 or d >= ctx.p for d in c):
            raise InputError("bad coefficient digits")
        if c != ctx.zero:
            out[e] = c
    return out


def reduce_mod_field(ctx, f: dict) -> dict:
    """Canonical representative of f mod (x^Q - x): exponent 0 is fixed and
    e >= 1 maps to ((e-1) mod (Q-1)) + 1."""
    M = ctx.Q - 1
    out = {}
    for e, c in f.items():
        r = 0 if e == 0 else ((e - 1) % M) + 1
        _add_term(ctx, out, r, c)
    return out

"""Sparse univariate polynomials over a FieldCtx.

A polynomial is a plain dict mapping exponent -> coefficient tuple, with no
zero coefficients stored.  The zero polynomial is the empty dict; its degree
is the marker NEG_INF.  Exponents may be huge (up to 2^62), which is the
point of the sparse form: the interesting polynomials here look like
x^(q^4+q) - x^(q^3+1).
"""

from __future__ import annotations

import re

from .errors import GuardError, InputError

NEG_INF = float("-inf")
EXP_LIMIT = 1 << 62
DENSE_GUARD = 1 << 20
_SIGN = re.compile(r"([+-])")


def check_exponent(n: int) -> None:
    """Refuse a product whose degree n would pass 2^62."""
    if n > EXP_LIMIT:
        raise InputError("exponent overflow beyond 2^62")


def const(ctx, c) -> dict:
    return {} if c == ctx.zero else {0: c}


def x_poly(ctx) -> dict:
    return {1: ctx.one}


def linear(ctx, a) -> dict:
    """The monic linear factor x - a."""
    return {1: ctx.one, 0: ctx.neg(a)} if a != ctx.zero else {1: ctx.one}


def degree(f: dict):
    return max(f) if f else NEG_INF


def lc(ctx, f: dict):
    """Leading coefficient; zero element for the zero polynomial."""
    return f[max(f)] if f else ctx.zero


def add(ctx, f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        _add_term(ctx, out, e, c)
    return out


def _add_term(ctx, out: dict, e: int, c) -> None:
    """out += c*x^e in place, dropping a coefficient that cancels to zero."""
    s = ctx.add(out.get(e, ctx.zero), c)
    if s == ctx.zero:
        out.pop(e, None)
    else:
        out[e] = s


def neg(ctx, f: dict) -> dict:
    return {e: ctx.neg(c) for e, c in f.items()}


def sub(ctx, f: dict, g: dict) -> dict:
    return add(ctx, f, neg(ctx, g))


def scale(ctx, f: dict, c) -> dict:
    if c == ctx.zero:
        return {}
    return {e: ctx.mul(v, c) for e, v in f.items()}


def mul(ctx, f: dict, g: dict) -> dict:
    """f*g, as one ctx.fold of g's terms by the rows of f's terms."""
    if not f or not g:
        return {}
    check_exponent(degree(f) + degree(g))
    return ctx.fold(g, [(e, c, 0) for e, c in f.items()])


def frob_power(ctx, f: dict, m: int) -> dict:
    """f^(p^m), computed termwise (valid in characteristic p)."""
    if m == 0:
        return dict(f)
    pe = ctx.p ** m
    if f:
        check_exponent(degree(f) * pe)
    return {e * pe: ctx.frobenius_p(c, m) for e, c in f.items()}


def pow_(ctx, f: dict, e: int) -> dict:
    """f^e using the base-p digits of e, so p-th powers stay termwise; the
    product starts from the first factor, not from 1, and its first
    self-product is a ctx.square."""
    if e < 0:
        raise InputError("negative exponent")
    if e == 0:
        return {0: ctx.one}
    if not f:
        return {}
    check_exponent(degree(f) * e)
    out = None
    level = dict(f)
    while e:
        d = e % ctx.p
        for _ in range(d):
            out = (level if out is None else ctx.square(out) if out is level
                   else mul(ctx, out, level))
        e //= ctx.p
        if e:
            level = frob_power(ctx, level, 1)
    return out


def compose(ctx, f: dict, g: dict) -> dict:
    """f(g(x)) as the sum of c_e * g^e over f's terms.  Each g^e is the
    product of the twists (g^d)^(p^j) over the base-p digits d of e (place
    j); each g^d, d < p, is made once per call, and only for the digits that
    occur.  A term's rows start as the twist of g^d for its lowest digit,
    times c_e (a term with one digit has the one row c_e), and each further
    digit but the top multiplies them by one ctx.fold.  The top digits cost
    one fold per digit value d: g^d by the rows of every term whose top digit
    is d, each row twisted by its own place."""
    if not f:
        return {}
    if g:
        check_exponent(degree(f) * degree(g))
    p = ctx.p
    small = {}                           # g^d for the digits d that occur

    def power(d):
        if d not in small:
            small[d] = pow_(ctx, g, d)
        return small[d]

    tops = {}                            # top digit d -> rows (e0, c0, place)
    for e, c in f.items():
        digits, j = [], 0                # the nonzero digits (d, place), low first
        while e:
            e, d = divmod(e, p)
            if d:
                digits.append((d, j))
            j += 1
        if not digits:
            continue                     # the constant term, added below
        top, place = digits.pop()
        rows = {0: c}
        if digits:
            d, j = digits[0]
            rows = frob_power(ctx, power(d), j)
            if c != ctx.one:             # a monic T's top term makes no product by 1
                rows = scale(ctx, rows, c)
            for d, j in digits[1:]:
                rows = ctx.fold(power(d), [(e0, c0, j) for e0, c0 in rows.items()])
        tops.setdefault(top, []).extend((e0, c0, place) for e0, c0 in rows.items())
    out = {}
    for i, (d, rows) in enumerate(tops.items()):
        part = ctx.fold(power(d), rows)
        out = add(ctx, out, part) if i else part
    if 0 in f:
        _add_term(ctx, out, 0, f[0])
    return out


def derivative(ctx, f: dict) -> dict:
    out = {}
    for e, c in f.items():
        if e == 0:
            continue
        s = ctx.smul(e, c)
        if s != ctx.zero:
            out[e - 1] = s
    return out


def divmod_(ctx, f: dict, g: dict):
    if not g:
        raise InputError("division by the zero polynomial")
    df, dg = degree(f), degree(g)
    if df == NEG_INF or df < dg:
        return {}, dict(f)
    if df - dg > DENSE_GUARD:
        raise GuardError("quotient degree beyond the dense guard")
    inv_lead = ctx.inv(lc(ctx, g))
    r = dict(f)
    qout = {}
    while r:
        dr = degree(r)
        if dr < dg:
            break
        c = ctx.mul(r[dr], inv_lead)
        e = dr - dg
        qout[e] = c
        for eg, cg in g.items():
            ee = eg + e
            s = ctx.sub(r.get(ee, ctx.zero), ctx.mul(c, cg))
            if s == ctx.zero:
                r.pop(ee, None)
            else:
                r[ee] = s
    return qout, r


def monic(ctx, f: dict) -> dict:
    if not f:
        return {}
    return scale(ctx, f, ctx.inv(lc(ctx, f)))


def gcd(ctx, f: dict, g: dict) -> dict:
    if not f and not g:
        raise InputError("gcd(0, 0) is undefined")
    a, b = dict(f), dict(g)
    while b:
        a, b = b, divmod_(ctx, a, b)[1]
    return monic(ctx, a)


def field_gcd(ctx, f: dict) -> dict:
    """gcd(f, x^Q - x) without materialising x^Q - x: reduce x^Q mod f by N
    successive p-th powers, then run Euclid on polynomials of degree < deg f."""
    if not f:
        raise InputError("gcd(0, x^Q - x) is undefined")
    if degree(f) == 0:
        return {0: ctx.one}
    return gcd(ctx, f, sub(ctx, x_pow_p_mod(ctx, f, ctx.N), x_poly(ctx)))


def x_pow_p_mod(ctx, f: dict, m: int) -> dict:
    """x^(p^m) mod f, by m successive p-th powers."""
    s = x_poly(ctx)
    for _ in range(m):
        s = pth_power_mod(ctx, s, f)
    return s


def pth_power_mod(ctx, s: dict, f: dict) -> dict:
    """s^p mod f.  The p-th power is taken termwise while p <= deg f; for a
    larger p the termwise power would need a quotient of degree about
    p * deg f, so it is taken by squaring mod f."""
    if ctx.p <= degree(f):
        return divmod_(ctx, frob_power(ctx, s, 1), f)[1]
    return pow_mod(ctx, s, ctx.p, f)


def pow_mod(ctx, g: dict, e: int, f: dict) -> dict:
    """g^e mod f for e >= 1, by square-and-multiply."""
    out, base = None, divmod_(ctx, g, f)[1]
    while e:
        if e & 1:
            out = base if out is None else divmod_(ctx, mul(ctx, out, base), f)[1]
        e >>= 1
        if e:
            base = divmod_(ctx, ctx.square(base), f)[1]
    return out


def eval_at(ctx, f: dict, a):
    acc = ctx.zero
    for e, c in f.items():
        acc = ctx.add(acc, ctx.mul(c, ctx.pow_elem(a, e)))
    return acc


def value_set(ctx, f: dict) -> frozenset:
    return frozenset(eval_at(ctx, f, a) for a in ctx.elements())


def roots(ctx, f: dict) -> tuple:
    """The distinct roots of f in the field, in canonical element order."""
    return tuple(a for a in ctx.elements() if eval_at(ctx, f, a) == ctx.zero)


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

def to_text(ctx, f: dict) -> str:
    if not f:
        return "0"
    parts = []
    for e in sorted(f, reverse=True):
        c = f[e]
        cs = ctx.format_elem(c)
        if e == 0:
            parts.append(cs)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == ctx.one else f"{cs}*{xs}")
    return " + ".join(parts)


def from_text(ctx, s: str) -> dict:
    """Parse "c*x^e + ..." with coefficients as comma digit strings or "g";
    a bare coefficient is a constant and a bare x power has coefficient 1.
    Minus signs negate the following term."""
    text = s.strip()
    if not text:
        raise InputError("empty polynomial text")
    if text == "0":
        return {}
    # tokenize into signed terms: text before the first sign is a + term,
    # and may be empty only when the text starts with its sign
    parts = _SIGN.split(text)
    terms = [(1, parts[0].strip())] if parts[0] else []
    for sg, term in zip(parts[1::2], parts[2::2]):
        term = term.strip()
        if not term:
            raise InputError(f"empty term in polynomial text {s!r}")
        terms.append((-1 if sg == "-" else 1, term))
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
        _add_term(ctx, out, e, c)
    return out


def to_json_obj(ctx, f: dict) -> dict:
    return {"terms": [{"e": e, "c": list(f[e])} for e in sorted(f, reverse=True)]}

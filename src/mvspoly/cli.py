"""Command line front end.

Exit codes: 0 verified/true, 1 negative mathematical result, 2 input error,
3 guard refusal.  All output is deterministic for identical inputs; --jobs
is accepted for interface compatibility but computations run serially, which
the desk-scale guards make cheap anyway.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from dataclasses import asdict

from . import linearized as lin
from . import mvsp
from . import oracle
from . import poly
from . import wspace
from .errors import GuardError, InputError
from .gf import is_prime, make_field, parse_field_spec


def _elems(ctx, items):
    return [list(a) for a in sorted(items, key=ctx.elem_to_int)]


def _parse_additive(ctx, text):
    if "T" in text:
        a = lin.tau_from_text(ctx, text)
    else:
        a = lin.detect_additive(ctx, poly.from_text(ctx, text))
        if a is None:
            raise InputError(f"{text!r} is not an additive polynomial")
    return lin.as_context_base(ctx, a)


def _guard(args, default):
    """--guard-max when it is given, else the verb's own guard."""
    return default if args.guard_max is None else args.guard_max


def _emit(args, payload, text_lines, csv_rows=None):
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            for row in csv_rows or [[json.dumps(payload)]]:
                writer.writerow(row)
            sys.stdout.write(buf.getvalue())
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        _stdout_closed()


def _stdout_closed():
    """The reader of stdout has gone (`mvspoly ... | head`): what is left
    goes to os.devnull, so neither a later write nor the flush at exit
    raises, and the command keeps its exit code."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    ctx = parse_field_spec(args.field)
    T = poly.from_text(ctx, args.T)
    F = poly.from_text(ctx, args.F)
    rep = mvsp.mills_check(ctx, F, T)
    payload = {
        "kind": "verify",
        "field": ctx.spec_str(),
        "T": poly.to_text(ctx, T),
        "F": poly.to_text(ctx, F),
        "is_member": rep.is_member,
        "is_mvsp": rep.is_mvsp,
        "deg": rep.deg,
        "bound": rep.bound,
        "theta": list(rep.theta) if rep.theta is not None else None,
        "theta_candidates": [list(t) for t in rep.theta_candidates],
        "value_set": _elems(ctx, rep.value_set) if rep.value_set is not None else None,
        "reason": rep.reason,
    }
    _emit(args, payload, text_lines=[
        f"member: {rep.is_member}" + (f" ({rep.reason})" if rep.reason else "")])
    return 0 if rep.is_member else 1


def cmd_classify(args) -> int:
    ctx = parse_field_spec(args.field)
    F = poly.from_text(ctx, args.F)
    w = mvsp.classify_low_degree(ctx, F)
    payload = {
        "kind": "classify",
        "field": ctx.spec_str(),
        "F": poly.to_text(ctx, F),
        "found": w is not None,
        "shape": w.shape if w else None,
        "alpha": list(w.alpha) if w else None,
        "v": w.v if w else None,
        "gamma": list(w.gamma) if w else None,
        "L": poly.to_text(ctx, w.L) if w else None,
        "beta": list(w.beta) if w and w.beta is not None else None,
    }
    _emit(args, payload, text_lines=[f"form found: {w is not None}"])
    return 0 if w else 1


def cmd_reduce(args) -> int:
    ctx = parse_field_spec(args.field)
    T = poly.from_text(ctx, args.T)
    wits = mvsp.find_additive_reduction(ctx, T)
    payload = {
        "kind": "reduce",
        "field": ctx.spec_str(),
        "T": poly.to_text(ctx, T),
        "count": len(wits),
        "witnesses": [{**asdict(w), "A": poly.to_text(ctx, lin.to_sparse(ctx, w.A))}
                      for w in wits],
    }
    _emit(args, payload, text_lines=[f"witnesses: {len(wits)}"])
    return 0 if wits else 1


def cmd_profile(args) -> int:
    ctx = parse_field_spec(args.field)
    T = poly.from_text(ctx, args.T)
    F = poly.from_text(ctx, args.F)
    rep = mvsp.mills_profile(ctx, F, T)
    payload = {
        "kind": "profile",
        "field": ctx.spec_str(),
        "T": poly.to_text(ctx, T),
        "F": poly.to_text(ctx, F),
        **asdict(rep),
    }
    ok = rep.multiplicities_coprime_p and rep.has_required_simple_roots
    _emit(args, payload, text_lines=[f"profile ok: {ok}"])
    return 0 if ok else 1


def _parse_binomial_args(ctx, args):
    d, alpha = args.d, args.alpha
    if args.binomial:
        spec = args.binomial
        if "alpha=" in spec:
            left, _, astr = spec.partition("alpha=")
            alpha = astr
            spec = left.rstrip(",")
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            if key.strip() != "d":
                raise InputError(f"bad binomial spec part {part!r}")
            try:
                d = int(val)
            except ValueError as exc:
                raise InputError(f"bad binomial spec part {part!r}") from exc
    if d is None:
        raise InputError("missing d (use --d or --binomial d=...,alpha=...)")
    alpha_elem = ctx.parse_elem(alpha) if alpha is not None else ctx.one
    return int(d), alpha_elem


def cmd_basis(args) -> int:
    ctx = parse_field_spec(args.field)
    d, alpha = _parse_binomial_args(ctx, args)
    wb = wspace.build_basis(ctx, d, alpha)
    payload = {
        "kind": "basis",
        "field": ctx.spec_str(),
        "d": wb.d,
        "alpha": list(wb.alpha),
        "scale": list(wb.scale),
        "dim": wb.dim,
        "elements": [{
            "poly": poly.to_json_obj(ctx, b.elem),
            "text": poly.to_text(ctx, b.elem),
            "orbit_exponent": b.orbit_exponent,
            "orbit_size": b.orbit_size,
            "beta": list(b.beta),
        } for b in wb.elems],
    }
    rows = [["orbit_exponent", "orbit_size", "polynomial"]]
    rows += [[b.orbit_exponent, b.orbit_size, poly.to_text(ctx, b.elem)] for b in wb.elems]
    _emit(args, payload, csv_rows=rows,
          text_lines=[f"dim {wb.dim}"] + [poly.to_text(ctx, b.elem) for b in wb.elems])
    return 0


def cmd_orbits(args) -> int:
    if args.field and args.q is None and args.n is None:
        ctx = parse_field_spec(args.field)
        q, n = ctx.q, ctx.n
    elif args.field or args.q is None or args.n is None:
        raise InputError("orbits needs either --field or both --q and --n")
    else:
        q, n = args.q, args.n
    table = wspace.orbit_table(q, n)
    payload = {
        "kind": "orbits",
        "q": q,
        "n": n,
        "orbit_count": len(table.orbits),
        "orbits": [{
            "bits": "".join(str(b) for b in o.bits),
            "exponent": o.exponent,
            "size": o.size,
        } for o in table.orbits],
        "counts": {str(k): v for k, v in sorted(table.counts.items())},
    }
    rows = [["n", "representative_bits", "exponent", "size"]]
    rows += [[n, "".join(str(b) for b in o.bits), o.exponent, o.size]
             for o in table.orbits]
    _emit(args, payload, csv_rows=rows,
          text_lines=[f"{o.exponent} size {o.size}" for o in table.orbits])
    return 0


def cmd_lift(args) -> int:
    ctx = parse_field_spec(args.field)
    a = _parse_additive(ctx, args.A)
    rep = wspace.lift_pipeline(ctx, a)
    payload = {
        "kind": "lift",
        "field": ctx.spec_str(),
        "A": poly.to_text(ctx, lin.to_sparse(ctx, a)),
        "d": rep.witness.d,
        "alpha": list(rep.witness.alpha),
        "gamma": list(rep.witness.gamma),
        "M": lin.tau_to_text(ctx, rep.witness.M),
        "t": rep.witness.t,
        "basis_dim": rep.basis.dim,
        "dim_lower": rep.dim_lower,
        "generators": [poly.to_json_obj(ctx, g) for g in rep.generators],
    }
    _emit(args, payload, text_lines=[
        f"d={rep.witness.d} t={rep.witness.t} dim_lower={rep.dim_lower}"])
    return 0


def cmd_enumerate(args) -> int:
    ctx = parse_field_spec(args.field)
    d, alpha = _parse_binomial_args(ctx, args)
    # the span has q^(d * 2^(n/d)) members: refuse it before building its basis
    wspace.binomial_scale(ctx, d, alpha)
    wspace.check_span_size(ctx, d * 2 ** (ctx.n // d), _guard(args, wspace.ENUM_HARD_GUARD))
    wb = wspace.build_basis(ctx, d, alpha)
    # the basis is independent, so its span has q^dim distinct members
    count = ctx.q ** wb.dim
    members = None
    if count <= 4096:
        members = [poly.to_json_obj(ctx, f) for f in wspace.enumerate_w(ctx, wb)]
    payload = {
        "kind": "enumerate",
        "field": ctx.spec_str(),
        "d": d,
        "alpha": list(alpha),
        "count": count,
        "members": members,
    }
    _emit(args, payload, text_lines=[f"count {count}"])
    return 0


def cmd_oracle_census(args) -> int:
    ctx = parse_field_spec(args.field)
    if args.values is not None:
        S = [ctx.parse_elem(s) for s in args.values.split(";")]
        rep = oracle.census_fixed_valueset(ctx, S, max_deg=args.max_deg,
                                           guard=_guard(args, oracle.POLY_SCAN_GUARD))
    else:
        rep = oracle.census_subfield_valued(ctx, guard=_guard(args, oracle.FUNCTION_SCAN_GUARD))
    payload = {
        "kind": "census",
        "field": rep.field_spec,
        "value_set": rep.value_set_desc,
        "total": rep.total,
        "members": rep.members,
        "nonconstant_members": rep.nonconstant_members,
        "degree_histogram": {str(k): v for k, v in sorted(rep.degree_histogram.items())},
        "condition_counts": rep.condition_counts,
        "disagreements": rep.disagreements,
        "agreement": rep.agreement,
        "note": rep.note,
    }
    rows = [["degree", "polynomial"]]
    if rep.witnesses:
        rows += [[poly.degree(w) if w else 0, poly.to_text(ctx, w)] for w in rep.witnesses]
    _emit(args, payload, csv_rows=rows,
          text_lines=[f"members {rep.members} of {rep.total}"])
    return 0 if rep.disagreements == 0 else 1


def cmd_oracle_dim(args) -> int:
    ctx = parse_field_spec(args.field)
    a = _parse_additive(ctx, args.A)
    dim = oracle.linear_dim_w(ctx, a, guard=_guard(args, oracle.DIM_GUARD))
    payload = {
        "kind": "dim",
        "field": ctx.spec_str(),
        "A": poly.to_text(ctx, lin.to_sparse(ctx, a)),
        "dim": dim,
    }
    _emit(args, payload, text_lines=[f"dim {dim}"])
    return 0


def cmd_oracle_theorems(args) -> int:
    ctx = parse_field_spec(args.field)
    reports = oracle.verify_low_degree_forms(ctx, branch=args.branch,
                                             guard=_guard(args, oracle.POLY_SCAN_GUARD))
    payload = {
        "kind": "forms",
        "field": ctx.spec_str(),
        "reports": [{k: v for k, v in asdict(r).items() if k != "field_spec"}
                    for r in reports],
    }
    bad = sum(r.mismatches for r in reports)
    _emit(args, payload, text_lines=[f"mismatches {bad}"])
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# the worked examples
# ---------------------------------------------------------------------------

def _examples_section1(ctx, q):
    table = wspace.orbit_table(q, 3)
    wb = wspace.build_basis(ctx, 1, ctx.one)
    components = []
    for o in table.orbits:
        elems = [b for b in wb.elems if b.orbit_exponent == o.exponent]
        components.append({
            "bits": "".join(str(b) for b in o.bits),
            "exponent": o.exponent,
            "size": o.size,
            "dim": len(elems),
            "basis": [poly.to_text(ctx, b.elem) for b in elems],
        })
    ok = wb.dim == 2 ** 3 and sorted(o.size for o in table.orbits) == [1, 1, 3, 3]
    return {
        "orbit_sizes": [o.size for o in table.orbits],
        "components": components,
        "total_dim": wb.dim,
    }, ok


def _examples_section2(ctx, q):
    wb = wspace.build_basis(ctx, 3, ctx.one)
    vp = mvsp.validate_value_poly(ctx, wspace.target_binomial(ctx, wb))
    verified = all(cause is None for cause, _ in
                   mvsp.mills_core(ctx, [b.elem for b in wb.elems], vp))
    A = lin.make(ctx, ctx.k, (ctx.one, ctx.one, ctx.one))       # x^(q^2)+x^q+x
    rep = wspace.lift_pipeline(ctx, A)
    try:
        odim = oracle.linear_dim_w(ctx, A)
    except GuardError:
        odim = None
    ok = wb.dim == 12 and verified and rep.dim_lower == 11 and odim in (None, 11)
    return {
        "dim_w_binomial": wb.dim,
        "binomial_basis_verified": verified,
        "dim_lower": rep.dim_lower,
        "oracle_dim": odim,
        "M": lin.tau_to_text(ctx, rep.witness.M),
    }, ok


def _examples_section3(ctx, q):
    G = {q ** 4 + q: ctx.one, q ** 3 + 1: ctx.neg(ctx.one)}
    rep = mvsp.is_minimal(ctx, G)
    in_sub = all(ctx.in_subfield(a, 3) for a in rep.value_set)
    A = lin.to_sparse(ctx, lin.make(ctx, ctx.k, (ctx.one, ctx.one, ctx.one)))
    mills = mvsp.mills_check(ctx, G, A)
    form = mvsp.extract_linearized_power_form(ctx, G)
    additive_shift = lin.detect_additive(ctx, G) is not None
    deg_cap = (ctx.Q - 1) // (q ** 3 - 1)
    ok = (rep.is_mvsp and in_sub and mills.is_member and form is None
          and not additive_shift and rep.deg > deg_cap)
    return {
        "G": poly.to_text(ctx, G),
        "is_mvsp": rep.is_mvsp,
        "deg": rep.deg,
        "values": len(rep.value_set),
        "value_set_in_subfield_degree": 3,
        "value_set_in_subfield": in_sub,
        "mills_member_of_additive_space": mills.is_member,
        "theta": list(mills.theta) if mills.theta else None,
        "classical_power_form_found": form is not None,
        "scaled_additive_form_found": additive_shift,
        "subfield_value_degree_cap": deg_cap,
        "degree_exceeds_subfield_cap": rep.deg > deg_cap,
    }, ok


def _examples_section4(ctx, q, seed, samples):
    if q % 2 == 0:
        raise InputError("section 4 needs odd q")
    if samples < 0:
        raise InputError("samples must be >= 0")
    T = {(q * q + 1) // 2: ctx.one, (q + 1) // 2: ctx.one, 1: ctx.one}
    wits = mvsp.find_additive_reduction(ctx, T)
    target = lin.make(ctx, ctx.k, (ctx.one, ctx.one, ctx.one))
    hit = next((w for w in wits
                if lin.to_sparse(ctx, lin.as_context_base(ctx, w.A)) ==
                lin.to_sparse(ctx, target) and w.v == 2), None)
    rep = wspace.lift_pipeline(ctx, target)
    rng = random.Random(seed)
    verified = 0
    for _ in range(samples):
        f = wspace.random_span_member(ctx, rep.generators, rng)
        mvsp.power_lift(ctx, f, 2, T)       # raises if the image fails
        verified += 1
    bound = wspace.power_image_count(ctx, T, 2, rep.generators, samples=8, seed=seed)
    ok = hit is not None and rep.dim_lower == 11 and verified == samples
    return {
        "T": poly.to_text(ctx, T),
        "reduction_found": hit is not None,
        "reduction": {"v": hit.v, "base": hit.base, "gamma": list(hit.gamma)}
        if hit else None,
        "A": poly.to_text(ctx, lin.to_sparse(ctx, target)),
        "dim_lower": rep.dim_lower,
        "samples": samples,
        "verified": verified,
        "image_count_lower_bound": bound,
    }, ok


def cmd_examples(args) -> int:
    section = args.section
    if section not in (1, 2, 3, 4):
        raise InputError("section must be 1, 2, 3 or 4")
    q = args.q if args.q is not None else (3 if section == 4 else 2)
    if not is_prime(q):
        raise InputError("the examples run at prime q")
    n = 3 if section == 1 else 6
    ctx = make_field(q, 1, n)
    if section == 1:
        detail, ok = _examples_section1(ctx, q)
    elif section == 2:
        detail, ok = _examples_section2(ctx, q)
    elif section == 3:
        detail, ok = _examples_section3(ctx, q)
    else:
        detail, ok = _examples_section4(ctx, q, args.seed, args.samples)
    payload = {"kind": "examples", "section": section, "q": q,
               "field": ctx.spec_str(), "ok": ok}
    payload.update(detail)
    _emit(args, payload, text_lines=[f"section {section} ok: {ok}"])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; execution is serial")
    sp.add_argument("--guard-max", dest="guard_max", type=int, default=None,
                    help=f"replace the verb's scan guard, capped at {wspace.ENUM_HARD_GUARD}")


_REQUIRED = dict(required=True)
_BASIS_FLAGS = {"--field": _REQUIRED, "--d": dict(type=int, default=None),
                "--alpha": dict(default=None), "--binomial": dict(default=None)}
# verb -> (handler, flags); each verb also takes the common flags
VERBS = {
    "verify": (cmd_verify, {"--field": _REQUIRED, "--T": _REQUIRED, "--F": _REQUIRED}),
    "classify": (cmd_classify, {"--field": _REQUIRED, "--F": _REQUIRED}),
    "reduce": (cmd_reduce, {"--field": _REQUIRED, "--T": _REQUIRED}),
    "profile": (cmd_profile, {"--field": _REQUIRED, "--T": _REQUIRED, "--F": _REQUIRED}),
    "basis": (cmd_basis, _BASIS_FLAGS),
    "enumerate": (cmd_enumerate, _BASIS_FLAGS),
    "orbits": (cmd_orbits, {"--field": dict(default=None), "--q": dict(type=int, default=None),
                            "--n": dict(type=int, default=None)}),
    "lift": (cmd_lift, {"--field": _REQUIRED, "--A": _REQUIRED}),
}
# `mvspoly wspace VERB` is an alias of `mvspoly VERB`
WSPACE_VERBS = ("basis", "enumerate", "orbits", "lift")
ORACLE_VERBS = {
    "census": (cmd_oracle_census, {
        "--field": _REQUIRED,
        "--values": dict(default=None,
                         help="semicolon separated elements for a fixed value set"),
        "--max-deg": dict(dest="max_deg", type=int, default=None)}),
    "dim": (cmd_oracle_dim, {"--field": _REQUIRED, "--A": _REQUIRED}),
    "theorems": (cmd_oracle_theorems, {
        "--field": _REQUIRED,
        "--branch": dict(choices=["power", "shift", "both"], default="both")}),
}
EXAMPLES_FLAGS = {"--section": dict(type=int, required=True),
                  "--q": dict(type=int, default=None),
                  "--seed": dict(type=int, default=0),
                  "--samples": dict(type=int, default=128)}


def _add_verbs(sub, verbs):
    for name, (fn, flags) in verbs.items():
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        _add_common(sp)
        sp.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mvspoly",
        description="minimal value set polynomials over finite fields")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_verbs(sub, VERBS)
    for group, verbs in (("wspace", {v: VERBS[v] for v in WSPACE_VERBS}),
                         ("oracle", ORACLE_VERBS)):
        _add_verbs(sub.add_parser(group).add_subparsers(dest="subcommand", required=True),
                   verbs)
    _add_verbs(sub, {"examples": (cmd_examples, EXAMPLES_FLAGS)})
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.guard_max is not None and args.guard_max > wspace.ENUM_HARD_GUARD:
        args.guard_max = wspace.ENUM_HARD_GUARD
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InputError("--jobs must be >= 1")
        if args.guard_max is not None and args.guard_max < 0:
            raise InputError("--guard-max must be >= 0")
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return 3


def entry():
    code = main()
    try:
        sys.stdout.flush()      # argparse's --help is written outside _emit
    except BrokenPipeError:
        _stdout_closed()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()

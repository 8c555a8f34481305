import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest

from mvspoly import cli, gf
from mvspoly.cli import main
from mvspoly.errors import InputError
from mvspoly.gf import FieldCtx, parse_field_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())
# exit code and stdout of every README command, as the benchmark's README check holds them
README_GOLDEN = json.loads((ROOT / "perfbench" / "readme_golden.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


def test_verify_positive_example():
    code, d = run_json(["verify", "--field", "2^6:1",
                        "--T", "x^4+x^2+x", "--F", "x^18+x^9"])
    assert code == 0
    assert d["is_member"] and d["theta"] == [1, 0, 0, 0, 0, 0]


def test_verify_negative_example():
    code, d = run_json(["verify", "--field", "2^6:1",
                        "--T", "x^4+x^2+x", "--F", "x^2"])
    assert code == 1 and d["reason"] == "value set mismatch"


def test_verify_input_error():
    code, out, err = run(["verify", "--field", "2^6:1",
                          "--T", "x^3+x", "--F", "x"])
    assert code == 2 and "input error" in err


def test_verify_checks_each_value_poly_once(monkeypatch):
    """A second request with the same T reuses the checked value polynomial
    kept on the field context: no whole-field root scan.  A refused T is
    refused on every request, before any scan."""
    ctx = parse_field_spec("2^16:1")
    argv = ["verify", "--field", "2^16:1", "--T", "x^16+x",
            "--F", "x^4096+x^256+x^16+x"]
    assert run(argv)[0] == 0
    scans = []
    elements = ctx.elements
    monkeypatch.setattr(ctx, "elements", lambda: scans.append(1) or elements())
    assert run(argv)[0] == 0
    bad = ["verify", "--field", "2^16:1", "--T", "x^16+x^2", "--F", "x"]
    for _ in range(2):
        code, out, err = run(bad)
        assert code == 2 and err.startswith("input error: ")
    assert scans == []


def test_a_verify_makes_few_element_tuples(monkeypatch):
    """A 2^16 verify fills a small part of the tuple tables of a fresh
    context: the tables hold ints, and tuples are made on first use."""
    ctx = FieldCtx(2, 1, 16)
    monkeypatch.setattr(gf, "make_field", lambda p, k, n: ctx)
    assert run(["verify", "--field", "2^16:1", "--T", "x^16+x",
                "--F", "x^4096+x^256+x^16+x"])[0] == 0
    assert 1 < len(ctx._log) < ctx.Q // 100
    assert 0 < ctx.Q - 1 - ctx._exp.count(None) < ctx.Q // 100


@pytest.mark.parametrize("case", README_GOLDEN, ids=[c["command"] for c in README_GOLDEN])
def test_readme_command_output_is_unchanged(case):
    code, out, _ = run(shlex.split(case["command"]))
    assert (code, out) == (case["exit"], case["stdout"])


def assert_input_error(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("F", ["x^abc", "x^-3", "x^4^2", "x^99999999999999999999999"])
def test_verify_bad_exponent_is_an_input_error(F):
    assert_input_error(["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", F])


@pytest.mark.parametrize("argv", [
    ["orbits", "--q", "0", "--n", "3"],
    ["orbits", "--q", "1", "--n", "3"],
    ["wspace", "orbits", "--q", "1", "--n", "3"],
    ["basis", "--field", "2^6:1", "--binomial", "d=0"],
    ["basis", "--field", "2^6:1", "--d", "0"],
    ["basis", "--field", "2^6:1", "--d", "-2"],
    ["basis", "--field", "2^6:1", "--binomial", "d=x"],
    ["enumerate", "--field", "2^6:1", "--binomial", "d=0"],
    ["enumerate", "--field", "2^6:1", "--d", "0"],
    ["enumerate", "--field", "2^2:1", "--d", "1", "--guard-max", "-1"],
    ["oracle", "census", "--field", "2^2:1", "--guard-max", "-5"],
    ["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "x^9",
     "--guard-max", "-1"],
    ["verify", "--field", "2^6:0", "--T", "x^4+x^2+x", "--F", "x"],
    ["orbits", "--q", "2", "--n", "3", "--jobs", "0"],
    ["examples", "--section", "4", "--samples", "-1"],
    ["oracle", "census", "--field", "3^2:1", "--values", "0;1;2", "--max-deg", "-3",
     "--guard-max", "10"],
    ["oracle", "census", "--field", "3^2:1", "--values", "0;1;2", "--max-deg", "-1",
     "--guard-max", "10"],
    ["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "x+"],
    ["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "x++1"],
    ["verify", "--field", "2^6:1", "--T", "x^4+x^2+x+", "--F", "x"],
    ["lift", "--field", "2^6:1", "--A", "T^2+T+-1"],
    ["orbits", "--field", "2^6:1", "--q", "3", "--n", "2"],
    ["orbits", "--field", "2^6:1", "--n", "6"],
])
def test_bad_arguments_are_refused(argv):
    assert_input_error(argv)


def test_value_starting_with_a_minus_is_passed_with_equals():
    # argparse reads "--F -x" as two options; the README says to write "--F=-x"
    code, d = run_json(["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F=-x"])
    assert code in (0, 1) and d["F"] == "x"
    code, d = run_json(["verify", "--field", "3^2:1", "--T", "x^3-x", "--F=-x^3"])
    assert code in (0, 1) and d["F"] == "2,0*x^3"
    code, out, err = run(["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "-x"])
    assert code == 2 and out == "" and "expected one argument" in err


@pytest.mark.parametrize("argv,code", [
    (["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F=-x"], 1),
    (["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "x^18+x^9",
      "--format", "text"], 0),
    (["--help"], 0),
])
def test_closed_stdout_exits_quietly_with_the_exit_code(argv, code):
    """`mvspoly ... | head -c 200`: the reader closes the pipe before the
    output is written; the command still exits with main's code and writes
    no traceback."""
    src = ROOT / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-c", "from mvspoly.cli import entry; entry()",
                               *argv], env=env, stdout=w, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(w)
    assert done.returncode == code
    assert done.stderr == ""


def test_basis_binomial_example():
    code, d = run_json(["basis", "--field", "2^6:1", "--binomial", "d=3,alpha=1"])
    assert code == 0 and d["dim"] == 12 and len(d["elements"]) == 12


def test_basis_d_alpha_flags():
    code, d = run_json(["basis", "--field", "2^6:1", "--d", "3", "--alpha", "1"])
    assert code == 0 and d["dim"] == 12


def test_orbits_csv():
    code, out, err = run(["orbits", "--q", "2", "--n", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["n", "representative_bits", "exponent", "size"]
    assert lines[1:] == ["3,000,0,1", "3,100,1,3", "3,110,3,3", "3,111,7,1"]


def test_orbits_json_counts():
    code, d = run_json(["orbits", "--q", "2", "--n", "6"])
    assert code == 0 and d["orbit_count"] == 14
    assert sum(int(k) * v for k, v in d["counts"].items()) == 64


def test_wspace_group_aliases():
    code, d = run_json(["wspace", "orbits", "--q", "2", "--n", "3"])
    assert code == 0 and d["kind"] == "orbits"
    code, d = run_json(["wspace", "basis", "--field", "2^2:1", "--d", "1"])
    assert code == 0 and d["dim"] == 4


def test_lift_command_tau_input():
    code, d = run_json(["lift", "--field", "2^6:1", "--A", "T^2+T+1"])
    assert code == 0
    assert d["dim_lower"] == 11 and d["M"] == "T + 1,0,0,0,0,0"


@pytest.mark.parametrize("argv", [
    ["lift", "--field", "2^6:1", "--A", "T^2+x+1"],
    ["oracle", "dim", "--field", "2^6:1", "--A", "x+T^2+1"],
], ids=["lift", "oracle-dim"])
def test_twisted_form_with_an_x_is_an_input_error(argv):
    """Text with a T is read as twisted form, where an x is refused rather
    than read as T."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {argv[-1]!r}: twisted form is written in T, not x\n"



@pytest.mark.parametrize("argv", [
    ["lift", "--field", "2^6:1", "--A", "T^99999999999"],
    ["oracle", "dim", "--field", "2^6:1", "--A", "T^99999999999+T"],
], ids=["lift", "oracle-dim"])
def test_a_huge_twisted_exponent_is_an_input_error(argv, time_limit):
    """T^e stands for x^(q^e), which is refused past 2^62 as an x exponent
    is, before a coefficient list of e + 1 entries is made."""
    with time_limit(5):
        code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {argv[-1]!r}: a term T^e has degree q^e beyond 2^62\n"


def test_lift_command_sparse_input():
    code, d = run_json(["lift", "--field", "2^6:1", "--A", "x^4+x^2+x"])
    assert code == 0 and d["d"] == 3 and d["t"] == 2


def test_enumerate_counts():
    code, d = run_json(["enumerate", "--field", "2^2:1", "--d", "1"])
    assert code == 0 and d["count"] == 16 and len(d["members"]) == 16


def test_enumerate_guard_refusal():
    code, out, err = run(["enumerate", "--field", "2^6:1", "--d", "1",
                          "--guard-max", "1024"])
    assert code == 3 and "guard refusal" in err


NON_CUBE = ",".join(["1", "1"] + ["0"] * 14)      # 1 + y in F_2^16, not a cube


@pytest.mark.parametrize("args,code", [
    (["--d", "1"], 3),
    (["--d", "3"], 2),                       # d does not divide n
    (["--d", "1", "--alpha", "0"], 2),       # x^2 - 0*x is not admitted
    (["--d", "2", "--alpha", NON_CUBE], 2),  # the binomial does not split
])
def test_enumerate_refuses_before_building_a_basis(monkeypatch, args, code):
    """The span's size q^(d * 2^(n/d)) is known from the arguments, so the
    guard refuses it with no basis built; a bad d or alpha is an input
    error first."""
    def no_basis(*_):
        raise AssertionError("build_basis called")
    monkeypatch.setattr(cli.wspace, "build_basis", no_basis)
    got, out, err = run(["enumerate", "--field", "2^16:1", *args])
    assert got == code and out == ""
    assert err.startswith("guard refusal: " if code == 3 else "input error: ")


def test_enumerate_counts_past_the_member_listing(monkeypatch):
    """The basis is independent, so a span too large to list is counted as
    q^dim with no member built."""
    def no_member(*_):
        raise AssertionError("a member was built")
    monkeypatch.setattr(cli.wspace, "_combine", no_member)
    for field, d, count in (("3^4:2", "1", 6561), ("2^9:3", "3", 262144)):
        code, got = run_json(["enumerate", "--field", field, "--d", d])
        assert code == 0 and got["count"] == count and got["members"] is None


def test_classify_example():
    code, d = run_json(["classify", "--field", "3^2:1", "--F", "x^4"])
    assert code == 0 and d["shape"] == "sqrt_plus_one_power"
    code, d = run_json(["classify", "--field", "3^2:1", "--F", "x^4+x"])
    assert code == 1 and not d["found"]


def test_reduce_example():
    code, d = run_json(["reduce", "--field", "3^6:1", "--T", "x^5+x^2+x"])
    assert code == 0
    assert any(w["v"] == 2 and w["A"] == "x^9 + x^3 + x" for w in d["witnesses"])


def test_profile_example():
    code, d = run_json(["profile", "--field", "2^6:1",
                        "--T", "x^8+x", "--F", "x^9"])
    assert code == 0
    assert d["multiplicities_coprime_p"] and d["has_required_simple_roots"]


def test_oracle_census():
    code, d = run_json(["oracle", "census", "--field", "2^3:1"])
    assert code == 0 and d["members"] == 256 and d["disagreements"] == 0


def test_oracle_census_fixed_values():
    code, d = run_json(["oracle", "census", "--field", "2^3:1",
                        "--values", "0;1;0,1"])
    assert code == 0 and d["members"] == 3


def test_oracle_census_fixed_values_scans_polys_past_the_function_guard():
    # 3^9 maps F_9 -> F_3 exceed --guard-max 3^9 - 1, so the census scans
    # the 9^4 polynomials of degree <= 3
    code, d = run_json(["oracle", "census", "--field", "3^2:1", "--values", "0;1;2",
                        "--max-deg", "3", "--guard-max", str(3 ** 9 - 1)])
    assert code == 0 and d["note"] == "mode=polys"
    assert d["total"] == 9 ** 4 and d["members"] == 27
    assert d["degree_histogram"] == {"0": 3, "3": 24}


def test_oracle_census_refuses_empty_values():
    # an empty --values is a bad element, not a request for the subfield census
    code, out, err = run(["oracle", "census", "--field", "2^2:1", "--values", ""])
    assert (code, out, err) == (2, "", "input error: bad element ''\n")


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "-1", "1,,0", "1 0", "3,\u0661"])
def test_element_digits_are_ascii_decimal(text):
    # int() alone reads "1_0" as 10 and "+3" and the Arabic-Indic digit as 3
    with pytest.raises(InputError, match="^bad element "):
        parse_field_spec("11^2:1").parse_elem(text)


def test_element_digits_may_have_spaces_around():
    ctx = parse_field_spec("11^2:1")
    assert ctx.parse_elem(" 10 , 3 ") == (10, 3)
    assert ctx.parse_elem("10") == (10, 0)


def test_an_underscored_digit_is_a_bad_element():
    code, out, err = run(["basis", "--field", "11^2:1", "--d", "2", "--alpha", "1_0"])
    assert (code, out, err) == (2, "", "input error: bad element '1_0'\n")


def test_quadratic_carve_out_exit_codes():
    """x^2 + x at q = 2 is admitted as a value polynomial and by the
    dimension oracle, and the lift refuses it."""
    code, out, err = run(["lift", "--field", "2^6:1", "--A", "x^2+x"])
    assert (code, out) == (2, "")
    assert err == "input error: lift pipeline needs a monic split separable A of degree > 2\n"
    code, d = run_json(["oracle", "dim", "--field", "2^6:1", "--A", "x^2+x"])
    assert code == 0 and d["dim"] == 64
    code, d = run_json(["verify", "--field", "2^6:1", "--T", "x^2+x", "--F", "x^63"])
    assert code == 0 and d["is_member"] and d["theta"] == [1, 0, 0, 0, 0, 0]


def test_oracle_dim():
    code, d = run_json(["oracle", "dim", "--field", "2^6:1", "--A", "x^4+x^2+x"])
    assert code == 0 and d["dim"] == 11


def test_oracle_theorems():
    code, d = run_json(["oracle", "theorems", "--field", "2^2:1"])
    assert code == 0
    assert all(r["mismatches"] == 0 for r in d["reports"])


def test_examples_section1():
    code, d = run_json(["examples", "--section", "1"])
    assert code == 0 and d["ok"]
    assert d["orbit_sizes"] == [1, 3, 3, 1] and d["total_dim"] == 8


def test_examples_section1_q5():
    code, d = run_json(["examples", "--section", "1", "--q", "5"])
    assert code == 0 and d["orbit_sizes"] == [1, 3, 3, 1]


def test_examples_section2():
    code, d = run_json(["examples", "--section", "2"])
    assert code == 0
    assert (d["dim_w_binomial"], d["dim_lower"], d["oracle_dim"]) == (12, 11, 11)


def test_examples_section3():
    code, d = run_json(["examples", "--section", "3"])
    assert code == 0
    assert d["is_mvsp"] and d["deg"] == 18 and d["values"] == 4
    assert not d["classical_power_form_found"]
    assert d["degree_exceeds_subfield_cap"]


def test_examples_section4_small_sample():
    code, d = run_json(["examples", "--section", "4", "--samples", "8"])
    assert code == 0
    assert d["reduction"] == {"v": 2, "base": 1, "gamma": [0, 0, 0, 0, 0, 0]}
    assert d["dim_lower"] == 11 and d["verified"] == 8
    assert d["image_count_lower_bound"] == 88574


def test_examples_bad_section():
    code, out, err = run(["examples", "--section", "7"])
    assert code == 2


def test_outputs_byte_identical():
    argv = ["basis", "--field", "2^6:1", "--d", "3", "--alpha", "1"]
    _, out1, _ = run(argv)
    _, out2, _ = run(argv + ["--jobs", "4"])
    assert out1 == out2


# sha256 of the stdout of each script run; a change to these bytes is a
# change to the outputs, argued for where it is made
SCRIPT_DIGESTS = {
    ("run_examples.py",):
        "da4c1ab2a4f6aac3762bcb7b68ae7a78156ed9276e1c19c060624527d82d1050",
    ("dimension_sweep.py", "--fields", "2^4:1,3^3:1,2^4:2,5^2:1,7^2:1,2^5:1"):
        "97a845d15aee59299bcc376e7ab43ffabc05c115940052e26b27be3875f231c0",
}


@pytest.mark.parametrize("argv", list(SCRIPT_DIGESTS), ids=lambda argv: argv[0])
def test_script_output_bytes_are_unchanged(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == SCRIPT_DIGESTS[argv]


# sha256 of the stdout of CLI commands at q' = 2, where the orbit of the
# all-ones exponent is x^(Q-1) alone; the README commands cover no such orbit
CLI_DIGESTS = {
    ("basis", "--field", "2^4:1", "--d", "1"):
        "1ddb17d540110bfb1f44fcac28c31a010d614e505dc7b58780d2142d9bab7883",
    ("enumerate", "--field", "2^3:1", "--d", "1"):
        "254cee933d7216783a58cf0fedbd4267b84c32f206b39f7f1e252f9107608d2c",
}


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=lambda argv: argv[0])
def test_cli_output_bytes_at_q_prime_2_are_unchanged(argv):
    code, out, _ = run(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[argv]


# sha256 of the csv stdout of census commands, which lists the witnesses in
# scan order; the README commands print no census as csv
CENSUS_CSV_DIGESTS = {
    ("oracle", "census", "--field", "2^2:1", "--format", "csv"):
        "06f5bd0ff4ab6289420c703e43b6111622c5a378f44af1da0af45187410f9c40",
    ("oracle", "census", "--field", "2^3:1", "--values", "0;1", "--format", "csv"):
        "e984445587398e5e5d63ec360ef64e5230b4beaebce9e2cae341b47064e2f8f8",
    ("oracle", "census", "--field", "3^2:1", "--values", "0;1;2", "--max-deg", "3",
     "--guard-max", "19682", "--format", "csv"):
        "46f55361d534883f670c0cc187f3779724b7bd0265db7dc5cf237af91d8423d3",
}


@pytest.mark.parametrize("argv", list(CENSUS_CSV_DIGESTS), ids=lambda argv: argv[3])
def test_census_csv_bytes_are_unchanged(argv):
    code, out, _ = run(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_CSV_DIGESTS[argv]


def test_guard_max_replaces_the_verb_guard(time_limit):
    """--guard-max replaces the dimension oracle's own guard on both of its
    sizes: 4098 column terms (1366 exponents e times 3 terms) are within
    --guard-max 20000, and so are the 9829 block cells, while --guard-max
    4097 refuses the layout."""
    argv = ["oracle", "dim", "--field", "2^12:1", "--A", "x^4+x^2+x"]
    with time_limit(20):
        code, d = run_json(argv + ["--guard-max", "20000"])
        assert code == 0 and d["dim"] == 47
        assert run(argv + ["--guard-max", "4097"]) == (
            3, "", "guard refusal: operator layout of 4098 column terms refused\n")
        assert run(argv + ["--guard-max", "9828"]) == (
            3, "", "guard refusal: operator elimination of 9829 block cells refused\n")


@pytest.mark.parametrize("argv, dim", [
    (["oracle", "dim", "--field", "2^16:1", "--A", "x^4+x"], 512),
    (["oracle", "dim", "--field", "2^12:1", "--A", "x^4+x^2+x"], 47),
    (["oracle", "dim", "--field", "2^16:1", "--A", "x^16+x"], 64),
], ids=["2^16-t2", "2^12-t2", "2^16-t4"])
def test_oracle_dim_answers_by_blocks_within_its_own_guard(argv, dim, time_limit):
    """With no --guard-max these exited 3 (their dense operators had 349520,
    16380 and 69920 coordinates, over 4096); ranked by distinct block
    shapes they answer at once."""
    parse_field_spec(argv[argv.index("--field") + 1])
    with time_limit(5):
        code, d = run_json(argv)
    assert code == 0 and d["dim"] == dim


# exit code and sha256 of the stdout of outputs the README commands do not
# reach: a skipped shift report (null fields), a reduce with no witness, and
# lifts whose M has coefficients other than 0 and 1
PAYLOAD_DIGESTS = {
    ("oracle", "theorems", "--field", "2^2:1"):
        (0, "807f29f2291ba9abaf231b4a3ec5e5ec8251952810dce5a22cbe177beb714230"),
    ("reduce", "--field", "3^2:1", "--T", "x^4+x^3+x^2+x"):
        (1, "645f04d1ead1206a2c5ad577151aec1b21258d75a2ba4d0276d82fe94fbe5696"),
    ("lift", "--field", "2^4:1", "--A", "T^2 + 1,1,1,0*T + 0,1,1,0"):
        (0, "973fc8a9b52501dea00a0dd6ee9feed63865bcf69eacef30d677a840bd9e60f0"),
    ("lift", "--field", "3^3:1", "--A", "T^2 + 0,2,2*T + 2,1,1"):
        (0, "c9fc5c5965f527dade4f09b5a502e02b55542037c3a2d60d587145b3b2bb91f9"),
}


@pytest.mark.parametrize("argv", list(PAYLOAD_DIGESTS),
                         ids=lambda argv: f"{argv[0]}-{argv[argv.index('--field') + 1]}")
def test_payload_bytes_are_unchanged(argv):
    code, out, _ = run(list(argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PAYLOAD_DIGESTS[argv]


def test_unknown_flag_rejected():
    code, out, err = run(["verify", "--field", "2^2:1", "--T", "x^2+x",
                          "--F", "x^2+x", "--bogus", "1"])
    assert code == 2


def test_jobs_validation():
    code, out, err = run(["orbits", "--q", "2", "--n", "3", "--jobs", "0"])
    assert code == 2


def test_csv_census_witness_dump():
    code, out, err = run(["oracle", "census", "--field", "2^2:1",
                          "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,polynomial"
    assert len(lines) == 17


VERIFY_OK = ["verify", "--field", "2^6:1", "--T", "x^4+x^2+x", "--F", "x^18+x^9"]


@pytest.mark.parametrize("first", [
    ["--help"],
    ["verify", "--help"],
    ["verify", "--field", "2^6:1"],                       # argparse error
    ["verify", "--field", "2^6:1", "--T", "x^3+x", "--F", "x"],   # input error
])
def test_parser_reuse_keeps_output_bytes(first):
    """main builds its parser once per process; a call after a help, usage
    or input error prints the same bytes as it does on a fresh parser."""
    separate = []
    for argv in (first, VERIFY_OK, first):
        cli._parser.cache_clear()
        separate.append(run(argv))
    assert separate[0][0] in (0, 2) and separate[1][0] == 0
    in_a_row = [run(argv) for argv in (first, VERIFY_OK, first)]
    assert in_a_row == separate


def test_parser_is_built_once(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["--help"], VERIFY_OK, ["verify", "--field", "2^6:1"], VERIFY_OK):
        run(argv)
    cli._parser.cache_clear()
    assert built == [1]


def test_help_is_the_built_parsers_help():
    code, out, err = run(["--help"])
    assert code == 0 and out == cli.build_parser().format_help()


# the trace from F_{2^22} to F_4 is a member of the space of x^4 + x
TRACE_2_22 = "+".join(f"x^{4 ** i}" for i in range(11))


@pytest.mark.parametrize("F,code", [(TRACE_2_22, 0), (TRACE_2_22 + "+g", 1),
                                    (TRACE_2_22 + "+x^3", 1)])
def test_verify_beyond_the_table_limit(monkeypatch, F, code):
    """Above 2^20 elements the additive value polynomial's roots come from
    its nullspace, so verify answers with no element scan."""
    ctx = parse_field_spec("2^22:1")
    scans = []
    monkeypatch.setattr(ctx, "elements", lambda: scans.append(1) or [])
    got, d = run_json(["verify", "--field", "2^22:1", "--T", "x^4+x", "--F", F])
    assert got == code and d["is_member"] is (code == 0)
    assert len(d["theta_candidates"]) == 1 and scans == []
    if code == 0:
        assert len(d["value_set"]) == 4


@pytest.mark.parametrize("argv", [
    ["oracle", "theorems", "--field", "2^22:1"],
    ["oracle", "theorems", "--field", "2^40:1"],
    ["oracle", "theorems", "--field", "2^40:1", "--branch", "shift"],
    ["oracle", "census", "--field", "2^22:1"],
    ["oracle", "census", "--field", "2^40:1", "--values", "0;1", "--max-deg", "9"],
    ["basis", "--field", "2^22:1", "--d", "1"],
    ["enumerate", "--field", "2^22:1", "--d", "1"],
    ["reduce", "--field", "2^40:1", "--T", "x^4+x"],
    ["verify", "--field", "2^40:1", "--T", "x^1099511627776+x", "--F", "x"],
    ["verify", "--field", "2^22:1", "--T", "x^4194304+x", "--F", "x"],
    # without --guard-max each verb keeps its own guard: 15728640 polynomials,
    # an operator layout of 699052 column terms, and an elimination of 71913
    # block cells are refused
    ["oracle", "theorems", "--field", "2^4:1", "--branch", "shift"],
    ["oracle", "dim", "--field", "2^20:1", "--A", "x^4+x"],
    ["oracle", "dim", "--field", "3^10:1", "--A", "x^3-x"],
    # the field size is checked before T's 2^20 roots are listed
    ["reduce", "--field", "2^40:1", "--T", "x^1048576+x"],
    ["profile", "--field", "2^40:1", "--T", "x^1048576+x", "--F", "x"],
])
def test_large_fields_are_refused_at_once(argv, time_limit):
    """Guards compare sizes like q^Q without building them and refuse
    before the expensive work; the field itself is built beforehand."""
    parse_field_spec(argv[argv.index("--field") + 1])
    t0 = time.perf_counter()
    with time_limit(5):
        code, out, err = run(argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("guard refusal: ")


def test_every_form_branch_is_guarded_before_the_first_scan(monkeypatch, time_limit):
    """With both branches requested over F_16, the shift branch's
    15 * 16^5 polynomials are refused before the power branch's 1,048,560
    are scanned: no polynomial is tested, with the message and exit code
    of the shift branch alone."""
    from mvspoly import mvsp
    parse_field_spec("2^4:1")
    tested = []
    monkeypatch.setattr(mvsp, "is_minimal", lambda ctx, f: tested.append(f))
    t0 = time.perf_counter()
    with time_limit(5):
        both = run(["oracle", "theorems", "--field", "2^4:1"])
    assert time.perf_counter() - t0 < 1.0
    assert both == (3, "", "guard refusal: scan of more than 4194304 polynomials refused\n")
    assert both == run(["oracle", "theorems", "--field", "2^4:1", "--branch", "shift"])
    assert tested == []


@pytest.mark.parametrize("argv,code,err", [
    (["basis", "--field", "2^22:1", "--d", "2", "--alpha", "0"], 2,
     "input error: solve_power needs a nonzero target\n"),
    (["basis", "--field", "2^22:1", "--d", "2", "--alpha", "g"], 3,
     "guard refusal: generator scan refused above 2^20 elements\n"),
    (["lift", "--field", "2^22:1", "--A", "x^4+x"], 3,
     "guard refusal: generator scan refused above 2^20 elements\n"),
], ids=["basis-alpha-0", "basis-alpha-g", "lift"])
def test_solve_power_without_tables_exit_codes(argv, code, err):
    """Above 2^20 elements solve_power checks its arguments (exit 2) and
    then refuses the generator scan (exit 3), at once."""
    parse_field_spec("2^22:1")
    t0 = time.perf_counter()
    assert run(argv) == (code, "", err)
    assert time.perf_counter() - t0 < 1.0



# exit code and sha256 of the stdout of requests above 2^20 elements that
# read their subfields off the zeros of x^(q^d) - x, with no field scan, or
# that answer a Mills non-member with no listing of T's roots
LARGE_FIELD_DIGESTS = {
    ("basis", "--field", "2^22:1", "--d", "11"):
        (0, "bdcf722eb5c8926bdcf0ca0ffb3dbb9a42feeba9dc74b91541a2bc626bc120fb"),
    ("basis", "--field", "2^40:1", "--d", "20"):
        (0, "4d8c1623ee56e6ba4f966c80b6dc6d97bdfe9c256832e13fe8a32295448dc659"),
    ("examples", "--section", "1", "--q", "1021"):
        (0, "a8b17f9ca06295e4969c08073fd05ed63df5b83df979e921a1829f2e43f8e443"),
    ("verify", "--field", "2^40:1", "--T", "x^1048576+x", "--F", "x"):
        (1, "436ff61dd7899b6d0abb929e7a05eb93dd4404a3b9fce19b2d4a4219b73d13b2"),
}


@pytest.mark.parametrize("argv", list(LARGE_FIELD_DIGESTS),
                         ids=["basis-2^22", "basis-2^40", "examples-1021", "verify-2^40"])
def test_large_field_bases_answer_at_once(argv, time_limit):
    with time_limit(5):
        code, out, _ = run(list(argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == LARGE_FIELD_DIGESTS[argv]


@pytest.mark.parametrize("N,T", [(40, "x^1048576+x"), (42, "x^2097152+x")], ids=["2^40", "2^42"])
def test_a_degree_equation_non_member_lists_no_roots(N, T, monkeypatch, time_limit):
    """F = x fails the degree equation against an additive T with 2^20 or
    2^21 roots, which needs deg T only: a fresh context answers exit 1 at
    once, with no call to span_elements."""
    ctx = gf.make_field.__wrapped__(2, 1, N)
    monkeypatch.setattr(gf, "make_field", lambda p, k, n: ctx)
    listed = []
    span_elements = FieldCtx.span_elements
    monkeypatch.setattr(FieldCtx, "span_elements",
                        lambda self, basis: listed.append(1) or span_elements(self, basis))
    t0 = time.perf_counter()
    with time_limit(5):
        code, out, _ = run(["verify", "--field", f"2^{N}:1", "--T", T, "--F", "x"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and json.loads(out)["reason"] == "value set mismatch"
    assert listed == []


def test_a_basis_above_2_20_members_is_refused_by_its_dimension():
    """d * 2^(n/d) > 2^20 is refused before the orbit table is built; no
    field of at most 2^20 elements has a basis that large."""
    parse_field_spec("2^22:1")
    t0 = time.perf_counter()
    assert run(["basis", "--field", "2^22:1", "--d", "1"]) == (
        3, "", "guard refusal: basis of dimension 4194304 refused above 2^20\n")
    assert time.perf_counter() - t0 < 1.0


def test_a_large_prime_field_is_refused_at_once():
    """p = 2^61 - 1 is under the size limit, and Miller-Rabin proves it prime
    at once; the field build is timed with the refusal."""
    t0 = time.perf_counter()
    code, out, err = run(["verify", "--field", "2305843009213693951^1:1",
                          "--T", "x^3-x", "--F", "x"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err == "guard refusal: full element scan refused above 2^20 elements\n"

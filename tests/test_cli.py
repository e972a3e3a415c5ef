"""End-to-end runs of the command-line driver, in process via main(argv) and,
where the interpreter's own stdout matters, as fresh ``python -m transmute.cli``
processes: the one harness for the CLI's exit codes, stderr and output."""

import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from transmute import cli, conditions, goursat, kernels, quadrature
from transmute.cli import main
from transmute.expr import evaluate

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the custom case file the README shows
(README_FILE,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)

CASE_FILE = """\
# hand-written telegraph pair
[case]
name = telegraph
kernel = "besselj(0, mu*sqrt(x^2-t^2))"
f0 = "cos(omega*t)"
f1 = "sin(sqrt(omega^2+mu^2)*x)/sqrt(omega^2+mu^2)"
x_max = 2.0

[operatorA]
c = "omega^2"

[operatorB]
c = "omega^2+mu^2"
"""

SOLVER_FILE = """\
[operatorA]
c = "0"

[operatorB]
c = "mu^2"

[solver]
x = 2
h = 0.03125
reference = "besselj(0, mu*sqrt(x^2-t^2))"
"""


# a = -1 on both sides: the same pair with sigma = -1, whose kernel is I0
I0_FILE = SOLVER_FILE.replace('c = "', 'a = "-1"\nc = "').replace("besselj", "besseli")

# sonin at its defaults (mu = nu = 1/2), stated by its factors
SONIN_FILE = """\
[case]
name = sonin
kernel_smooth = "(x+t)^nu/(x^nu*2^nu*gamma(nu+1))"
p_diag = 0.5
f0_smooth = "bessel_clifford(mu, -t^2/4)/2^mu"
f0_t_exponent = 2
f1 = "x^(mu+1)*besselj(mu+nu+1, x)"

[operatorA]
b = "-(2*mu+1)/t"
c = "1"

[operatorB]
b = "-(2*mu+1)/x"
c = "1-nu*(nu+2*mu+2)/x^2"
"""

# K = sqrt(2/pi) (x^2 - t^2)^0.5 / x^0.5 stated whole, next to factors of another kernel
TWICE_FILE = """\
[case]
kernel = "sqrt(2/pi)*(x^2-t^2)^0.5/x^0.5"
p_diag = 0.5
kernel_smooth = "sqrt(2/pi)*(x+t)^0.6/x^0.5"
f0 = "cos(t)"
f1 = "sqrt(x)*besselj(1, x)"

[operatorA]
c = "1"

[operatorB]
c = "1-0.75/x^2"
"""

# config files for test_usage_errors_exit_2, written under tmp_path
BAD_CONFIGS = {
    "kappa_nan.cfg": SOLVER_FILE.replace("h = 0.03125", "h = 0.03125\nkappa = nan"),
    "x_max_inf.cfg": CASE_FILE.replace("x_max = 2.0", "x_max = inf"),
    "leading_two.cfg": SOLVER_FILE.replace('c = "', 'a = "2"\nc = "'),
    # a = 1 at t = 0.3, 0.7 and 1.1, but not a constant
    "variable_a.cfg": SOLVER_FILE.replace(
        "[operatorA]\n", '[operatorA]\na = "1+(t-0.3)*(t-0.7)*(t-1.1)"\n'
    ),
    "stray_x.cfg": CASE_FILE.replace('c = "omega^2"\n', 'c = "x"\n', 1),
    "readme.cfg": README_FILE,
    "x_min_negative.cfg": CASE_FILE.replace("x_max = 2.0", "x_min = -1"),
    "x_max_50.cfg": CASE_FILE.replace("x_max = 2.0", "x_max = 50"),
    # constant coefficients that do not evaluate
    "a0_log0.cfg": SOLVER_FILE.replace("[operatorA]\n", '[operatorA]\na = "log(0)"\n'),
    "b0_log0.cfg": SOLVER_FILE.replace("[operatorA]\n", '[operatorA]\nb = "log(0)"\n'),
    "case_a0_log0.cfg": CASE_FILE.replace("[operatorA]\n", '[operatorA]\na = "log(0)"\n'),
    # b1 - b0 that is not rho/x + smooth near 0
    "pole_squared.cfg": SOLVER_FILE.replace("[operatorB]\n", '[operatorB]\nb = "1/x^2"\n'),
    "exp_pole.cfg": SOLVER_FILE.replace("[operatorB]\n", '[operatorB]\nb = "exp(1/x)"\n'),
    "no_solver.cfg": CASE_FILE,
    # b0 = -+1/t^1.01: singular at t = 0 but not -r/t + smooth, so the wall has no r
    "wall_power.cfg": '[operatorA]\nb = "1/t^1.01"\nc = "1"\n[operatorB]\nb = "1/x^1.01"\nc = "1 - x"\n'
                      '[solver]\nx = 2\nh = 0.015625\n',
    "wall_negative_power.cfg": '[operatorA]\nb = "-1/t^1.01"\nc = "1"\n[operatorB]\nb = "-1/x^1.01"\n'
                               'c = "1 - x"\n[solver]\nx = 2\nh = 0.015625\n',
    # rho = 1: K(x,x) = kappa x^(-1/2) blows up at the lattice's vertex x = 0
    "vertex_blowup.cfg": '[operatorA]\n[operatorB]\nb = "1/x"\n[solver]\nx = 1\nh = 0.0625\n',
    # a b0 singular at t = 0 closes the wall by K_t = 0, which would drop h0
    "h0_singular_wall.cfg": '[operatorA]\nb = "-3/t"\nc = "1"\nh = 0.5\n[operatorB]\nb = "-3/x"\nc = "1"\n'
                            '[solver]\nx = 1\nh = 0.0625\n',
    # files that run, given a parameter none of their expressions reads
    "case.cfg": CASE_FILE,
    "solver.cfg": SOLVER_FILE,
    "no_reference.cfg": SOLVER_FILE.replace('reference = "besselj(0, mu*sqrt(x^2-t^2))"\n', ""),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.splitlines() == [
        "gegenbauer", "poisson_bessel", "sonin", "sine_to_bessel", "sinh_cosh",
        "lowndes", "epd_bessel", "vekua_telegraph", "cosh_1f2",
    ]


def test_catalog_list_json_is_valid(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cases"]) == 9
    assert payload["tool_version"]


def test_catalog_show_carries_tags(capsys):
    code, out, _ = run(capsys, "catalog", "show", "vekua_telegraph")
    assert code == 0
    assert "5.4.11" in out
    assert "K(x,t)" in out


def test_catalog_show_json_has_the_fields_of_describe(capsys):
    for name in kernels.list_cases():
        code, out, _ = run(capsys, "catalog", "show", name, "--format", "json", "--no-timestamp")
        assert code == 0
        payload = json.loads(out)
        case = kernels.get_case(name)
        assert payload == {**kernels.case_record(case), "tool_version": cli.__version__}
        assert payload["tags"] == list(case.refs) and payload["parameters"] == dict(case.params)
        text = kernels.describe(case)
        for key, label in (("kernel", "K(x,t) = "), ("f0", "f0(t)  = "), ("f1", "f1(x)  = ")):
            assert label + payload[key] in text
        for label, op in payload["operators"].items():
            rows = "".join(f"\n    {slot} = {op[slot]}" for slot in "abc")
            assert f"\n  {label} ({op['form']}, d/d{op['var']}):{rows}\n" in text
        assert "h0 =" not in text if payload["h0"] == 0.0 else f"h0 = {payload['h0']!r}" in text
        assert f"lambda = {payload['lambda']!r}" in text
        shift = payload["shifted_pair"]  # null for the one case without a shifted pair
        assert ("shifted pair" not in text if shift is None
                else f"A' f0 = {shift['lambda_a']!r} f0, B' f1 = {shift['lambda_b']!r} f1" in text)
        assert f"p_diag = {payload['p_diag']!r}, p_zero = {payload['p_zero']!r}" in text
        assert "x range: [{!r}, {!r}]".format(*payload["x_range"]) in text
        assert payload["notes"] in text and payload["name"] == name
        assert "generated_at" not in payload


def test_catalog_show_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2
    assert "unknown case" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--case", "poisson_bessel",
                       "--params", "nu=1")
    assert code == 0
    assert "overall: PASS" in out
    assert out.count("[PASS]") == 7


def test_verify_corruption_hook_fails(capsys):
    code, out, _ = run(capsys, "verify", "--case", "poisson_bessel",
                       "--params", "nu=1", "--corrupt", "c1:+0.1")
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_constraint_violation_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--case", "sonin", "--params", "mu=-2")
    assert code == 2
    assert "Re mu > -1 violated" in err


def test_verify_json_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "--case", "sonin",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "sonin"
    assert report["overall_pass"] is True
    assert {r["id"] for r in report["conditions"]} == {
        "4a", "4b1", "4b2", "4c", "4d", "eigenA", "eigenB"
    }
    for row in report["conditions"]:
        assert row["pass"] is True
        assert row["max_residual"] >= 0.0
    assert "generated_at" not in report
    assert report["tool_version"]


def test_verify_reports_are_deterministic(tmp_path):
    paths = []
    for k in (0, 1):
        out = tmp_path / f"report{k}.json"
        code = main(["verify", "--case", "epd_bessel", "--format", "json",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def _floats(value):
    """Every float of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in _floats(v)]
    return [value] if isinstance(value, float) else []


def _json_report(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    assert code == 0
    return json.loads(out)


def _assert_bit_for_bit(payload, pairs):
    """Each (JSON value, library value) pair agrees, a float as the same double, sign
    included, and every float of ``payload`` is in a pair."""
    assert len(_floats(payload)) == sum(isinstance(got, float) for got, _ in pairs)
    for got, want in pairs:
        assert isinstance(got, float) == isinstance(want, float), (got, want)
        assert got.hex() == float(want).hex() if isinstance(got, float) else got == want, (got, want)


@pytest.mark.parametrize("name", ["gegenbauer", "sonin", "vekua_telegraph"])
def test_json_numbers_are_the_library_floats_bit_for_bit(capsys, name):
    case = kernels.get_case(name)
    payload = _json_report(capsys, "verify", "--case", name)
    report = conditions.verify_all(case)
    pairs = [(payload["params"][k], v) for k, v in report.params.items()]
    for row, rec in zip(payload["conditions"], report.records, strict=True):
        pairs += [(value, getattr(rec, "passed" if key == "pass" else key)) for key, value in row.items()]
    _assert_bit_for_bit(payload, pairs)

    payload = _json_report(capsys, "apply", "--case", name)
    xs = conditions.sample_points(case)
    lhs, f1, rel = conditions.identity_rows(case, xs, quadrature.RULE_ORDER)
    pairs = [(payload["params"][k], v) for k, v in case.params.items()]
    pairs += [(payload["max_rel_error"], rel.max()), (payload["tolerance"], 1e-8)]
    for row, want in zip(payload["rows"], zip(xs, lhs, f1, rel), strict=True):
        pairs += zip(row.values(), want, strict=True)
    _assert_bit_for_bit(payload, pairs)


def test_solve_json_numbers_are_the_library_floats_bit_for_bit(capsys):
    payload = _json_report(capsys, "solve", "--case", "vekua_telegraph")
    case = kernels.get_case("vekua_telegraph")
    problem = goursat.problem_from_case(case, X=2.0, h=1.0 / 128.0)
    stats = goursat.compare(goursat.solve(problem), case.kernel, problem.params)
    pairs = [(payload[key], getattr(problem, key)) for key in ("X", "h", "sigma", "rho")]
    pairs += [(payload["max_error"], stats["max"]), (payload["l2_error"], stats["l2"]), (payload["tolerance"], 1e-3)]
    _assert_bit_for_bit(payload, pairs)


def test_verify_timestamp_present_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--case", "vekua_telegraph",
                       "--format", "json")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--case", "sinh_cosh", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("id,max_residual,mean_residual")
    assert len(lines) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),                                           # no case
        ("verify", "--case", "sonin", "--grid", "20"),         # bad grid
        ("verify", "--case", "sonin", "--params", "mu=abc"),   # bad value
        ("verify", "--case", "sonin", "--tol-residual", "-1"),
        ("verify", "--case", "sonin", "--corrupt", "c9:+0.1"),
        ("verify", "--case", "sonin", "--corrupt", "c1"),
        ("verify", "--case", "sonin", "--x-max", "5"),         # needs --unsafe-range
        ("apply", "--case", "vekua_telegraph", "--x", "0"),
        ("apply", "--case", "vekua_telegraph", "--quad-order", "4"),
        ("solve",),
        ("verify", "--case", "sonin", "--params", "mu=nan"),
        ("verify", "--case", "sonin", "--params", "mu=inf"),
        ("apply", "--case", "sonin", "--params", "mu=-inf"),
        ("solve", "--case", "vekua_telegraph", "--params", "mu=NaN"),
        ("verify", "--case", "sonin", "--tol-residual", "nan"),
        ("verify", "--case", "sonin", "--tol-residual", "0"),
        ("apply", "--case", "sonin", "--tol-identity", "inf"),
        ("apply", "--case", "sonin", "--tol-identity", "abc"),
        ("solve", "--case", "vekua_telegraph", "--tol-solver", "nan"),
        ("solve", "--custom", "kappa_nan.cfg", "--params", "mu=1"),
        ("verify", "--custom", "x_max_inf.cfg", "--params", "mu=1,omega=1"),
        ("solve", "--case", "vekua_telegraph", "--solver-h", "1e-7"),  # lattice budget
        ("verify", "--case", "vekua_telegraph", "--x-min", "nan"),
        ("verify", "--case", "vekua_telegraph", "--x-max", "nan"),
        ("verify", "--case", "vekua_telegraph", "--x-max", "inf", "--unsafe-range"),
        ("apply", "--case", "vekua_telegraph", "--x-count", "-3"),
        ("solve", "--custom", "leading_two.cfg", "--params", "mu=1"),  # sigma is not +-1
        ("solve", "--case", "sine_to_bessel", "--params", "beta=1"),  # K = 0 on t = 0
        ("solve", "--custom", "variable_a.cfg", "--params", "mu=1"),
        ("verify", "--custom", "stray_x.cfg", "--params", "mu=1,omega=1"),  # c0 reads x
        ("verify", "--custom", "readme.cfg"),  # mu and omega undeclared
        ("apply", "--custom", "readme.cfg"),
        ("verify", "--custom", "x_min_negative.cfg", "--params", "mu=1,omega=1"),
        ("apply", "--custom", "x_min_negative.cfg", "--params", "mu=1,omega=1"),
        ("verify", "--custom", "x_max_50.cfg", "--params", "mu=1,omega=1"),  # needs --unsafe-range
        ("apply", "--custom", "x_max_50.cfg", "--params", "mu=1,omega=1"),
        ("solve", "--custom", "a0_log0.cfg", "--params", "mu=1"),
        ("solve", "--custom", "b0_log0.cfg", "--params", "mu=1"),
        ("verify", "--custom", "case_a0_log0.cfg", "--params", "mu=1,omega=1"),
        ("apply", "--case", "sonin", "--x-count", "0"),
        ("verify", "--case", "sonin", "--params", "nu=1,nu=2"),
        ("solve", "--custom", "pole_squared.cfg", "--params", "mu=1"),
        ("solve", "--custom", "exp_pole.cfg", "--params", "mu=1"),
        ("verify", "--case", "sonin", "--params", "mu"),  # no "="
        ("verify", "--case", "sonin", "--corrupt", "c1:abc"),
        ("verify", "--case", "sonin", "--corrupt", "c1:nan"),
        ("verify", "--case", "sonin", "--corrupt", "c1:inf"),
        ("solve", "--custom", "no_solver.cfg", "--params", "mu=1,omega=1"),
        ("verify", "--case", "sonin", "--x-min", "2", "--x-max", "1"),
        ("apply", "--case", "sonin", "--x", "5"),  # needs --unsafe-range
        ("verify", "--case", "vekua_telegraph", "--params", "mu=1e155"),  # mu^2 overflows
        ("apply", "--case", "poisson_bessel", "--params", "nu=1e6"),  # Jacobi weights overflow
        ("apply", "--case", "gegenbauer", "--params", "lambda=1e6"),
        ("solve", "--custom", "vertex_blowup.cfg"),
        ("solve", "--custom", "h0_singular_wall.cfg"),
        ("verify", "--custom", "case.cfg", "--params", "mu=1,omega=1,zzz=3"),
        ("apply", "--custom", "case.cfg", "--params", "mu=1,omega=1,zzz=3"),
        ("solve", "--custom", "solver.cfg", "--params", "mu=1,zzz=3"),
        ("solve", "--custom", "no_reference.cfg", "--params", "mu=1,zzz=3"),
        ("solve", "--case", "epd_bessel", "--params", "nu=-0.3"),  # (x - t)^-0.3 has no K(x,x)
        ("solve", "--custom", "wall_power.cfg"),
        ("solve", "--custom", "wall_negative_power.cfg"),
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    for name, text in BAD_CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_CONFIGS else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize("argv,text", [
    (("verify", "--case", "sonin"), CASE_FILE),
    (("apply", "--case", "sonin"), CASE_FILE),
    (("solve", "--case", "vekua_telegraph"), SOLVER_FILE),
], ids=["verify", "apply", "solve"])
def test_a_command_takes_exactly_one_of_case_and_custom(capsys, tmp_path, argv, text):
    cfg = tmp_path / "given.cfg"
    cfg.write_text(text)
    params = ("--params", "mu=1,omega=1" if text is CASE_FILE else "mu=1")
    assert run(capsys, argv[0], "--custom", str(cfg), *params)[0] == 0  # the file alone runs
    code, out, err = run(capsys, *argv, "--custom", str(cfg), *params)
    assert code == 2 and not out and "Traceback" not in err
    assert err.endswith("error: argument --custom: not allowed with argument --case\n")
    code, out, err = run(capsys, argv[0], *params)
    assert code == 2 and not out
    assert err.endswith("error: one of the arguments --case --custom is required\n")


@pytest.mark.parametrize(
    "argv,needle",
    [
        (("--x", "nan"), "--x must be a finite number, got nan"),
        (("--x", "inf", "--unsafe-range"), "--x must be a finite number, got inf"),
        (("--x-count", "0"), "--x-count must be at least 1"),
        (("--params", "nu=1,nu=2"), "duplicate parameter 'nu'"),
    ],
)
def test_apply_refusal_names_the_input(capsys, argv, needle):
    code, out, err = run(capsys, "apply", "--case", "sonin", *argv)
    assert code == 2 and not out
    assert needle in err and "array(" not in err


@pytest.mark.parametrize(
    "argv,line",
    [
        (("verify", "--case", "sonin", "--params", "mu=abc"), "error: parameter 'mu' must be a finite number, got 'abc'"),
        (("verify", "--case", "sonin", "--params", "mu=inf"), "error: parameter 'mu' must be a finite number, got 'inf'"),
        (("verify", "--case", "sonin", "--tol-residual", "abc"),
         "error: argument --tol-residual: a tolerance must be a finite number, got 'abc'"),
        (("solve", "--case", "vekua_telegraph", "--solver-X", "nan"), "error: X must be a finite number, got nan"),
        (("solve", "--case", "vekua_telegraph", "--solver-h", "inf"), "error: h must be a finite number, got inf"),
        (("verify", "--custom", "x_max_text.cfg", "--params", "mu=1,omega=1"),
         "error: x_max_text.cfg:7: 'x_max' must be a finite number, got 'abc'"),
    ],
    ids=["params_text", "params_inf", "tolerance_text", "solver_X_nan", "solver_h_inf", "file_x_max_text"],
)
def test_a_number_that_is_not_finite_is_refused_in_one_line(capsys, tmp_path, monkeypatch, argv, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x_max_text.cfg").write_text(CASE_FILE.replace("x_max = 2.0", "x_max = abc"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.splitlines()[-1].endswith(line)


@pytest.mark.parametrize(
    "argv,line",
    [
        (("verify", "--case", "sonin", "--tol-residual", "0"),
         "error: argument --tol-residual: a tolerance must be a positive finite number, got '0'"),
        (("apply", "--case", "sonin", "--tol-identity=-1e-9"),
         "error: argument --tol-identity: a tolerance must be a positive finite number, got '-1e-9'"),
        (("solve", "--case", "vekua_telegraph", "--tol-solver", "0"),
         "error: argument --tol-solver: a tolerance must be a positive finite number, got '0'"),
        (("solve", "--case", "vekua_telegraph", "--solver-X", "0"),
         "error: X must be a positive finite number, got 0.0"),
        (("solve", "--case", "vekua_telegraph", "--solver-h", "-0.1"),
         "error: h must be a positive finite number, got -0.1"),
        (("apply", "--case", "sonin", "--x", "0"), "error: --x must be a positive finite number, got 0.0"),
        (("verify", "--case", "sonin", "--x-min", "-0.0"), "error: x_min must be a positive finite number, got -0.0"),
        (("verify", "--custom", "x_min_negative.cfg", "--params", "mu=1,omega=1"),
         "error: x_min must be a positive finite number, got -1.0"),
    ],
    ids=["tol_residual_0", "tol_identity_negative", "tol_solver_0", "solver_X_0", "solver_h_negative", "x_0",
         "x_min_negative_zero", "file_x_min_negative"],
)
def test_a_number_that_is_not_positive_is_refused_in_one_line(capsys, tmp_path, monkeypatch, argv, line):
    # the solver's sizes ended in "need X > 0 and h > 0", x in "... must be positive"
    # and a tolerance in "must be a positive finite number", without naming it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x_min_negative.cfg").write_text(BAD_CONFIGS["x_min_negative.cfg"])
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.splitlines()[-1].endswith(line)


def test_a_diagonal_that_blows_up_at_the_vertex_asks_for_kappa_0(capsys, tmp_path):
    # every lattice holds x = 0, so keeping x > 0 is no way out for a solve
    cfg = tmp_path / "vertex_blowup.cfg"
    cfg.write_text(BAD_CONFIGS["vertex_blowup.cfg"])
    code, out, err = run(capsys, "solve", "--custom", str(cfg))
    assert code == 2 and not out
    assert err == "error: diagonal data blows up at the lattice vertex x = 0 (rho/(2 sigma) > 0); set kappa = 0\n"


@pytest.mark.parametrize(
    "name,needle",
    [
        ("", "--params entry '=2' has no name"),
        ("x", "--params cannot set 'x': it is a kernel variable"),
        ("t", "--params cannot set 't': it is a kernel variable"),
        ("pi", "--params cannot set 'pi': it is the reserved constant"),
        ("zzz", "unknown parameter 'zzz' for "),  # read by no expression
    ],
)
@pytest.mark.parametrize(
    "argv,declared",
    [
        (("solve", "--case", "vekua_telegraph"), ""),
        (("verify", "--case", "vekua_telegraph"), ""),
        (("apply", "--case", "vekua_telegraph"), ""),
        (("solve", "--custom", "solver.cfg"), "mu=1,"),
        (("verify", "--custom", "case.cfg"), "mu=1,omega=1,"),
        (("apply", "--custom", "case.cfg"), "mu=1,omega=1,"),
    ],
)
def test_params_names_the_expressions_cannot_take(capsys, tmp_path, argv, declared, name, needle):
    # a binding of x or t would be overwritten by the points, one of pi ignored
    for file_name, text in (("solver.cfg", SOLVER_FILE), ("case.cfg", CASE_FILE)):
        (tmp_path / file_name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    code, out, err = run(capsys, *argv, "--params", f"{declared}{name}=2")
    assert code == 2 and not out
    assert needle in err


def test_quad_order_above_the_cap_exits_2(capsys, monkeypatch):
    # without numpy an attempt to build the rule fails with a traceback
    monkeypatch.setattr(quadrature, "np", None)
    code, _, err = run(capsys, "apply", "--case", "poisson_bessel",
                       "--quad-order", "100000")
    assert code == 2
    assert "exceeds the maximum" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--case", "lowndes", "--grid", "2000x2000"),
        ("verify", "--case", "lowndes", "--x-count", "100000"),
        ("apply", "--case", "lowndes", "--x-count", "1000000000"),
        ("apply", "--case", "lowndes", "--x-count", "2000"),
    ],
)
def test_point_budget_exits_2_before_any_work(capsys, monkeypatch, argv):
    # refused up front: evaluating anything at all fails the test
    def no_work(*args, **kwargs):
        raise AssertionError("evaluated before the size check")

    monkeypatch.setattr(conditions, "evaluate_jet", no_work)
    monkeypatch.setattr(quadrature, "evaluate", no_work)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "maximum" in err and "Traceback" not in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "verify", "--frobnicate")[0] == 2


def test_numerical_failure_exits_3(capsys):
    # pushing the sample window past the Bessel box trips RangeError
    code, _, err = run(capsys, "verify", "--case", "poisson_bessel",
                       "--x-max", "25", "--unsafe-range")
    assert code == 3
    assert "numerical failure" in err


def test_apply_closed_form_row(capsys):
    code, out, _ = run(capsys, "apply", "--case", "vekua_telegraph",
                       "--params", "mu=1,omega=0", "--x", "1.0")
    assert code == 0
    assert out.count("0.8414710") == 2  # transform and f1 agree at sin(1)


def test_apply_poisson_half_integer(capsys):
    code, out, _ = run(capsys, "apply", "--case", "poisson_bessel",
                       "--params", "nu=0.5", "--x", "2")
    assert code == 0
    assert "0.7255144" in out


def test_apply_json_and_csv(capsys):
    code, out, _ = run(capsys, "apply", "--case", "sonin", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_error"] <= 1e-8
    assert len(payload["rows"]) == 20

    code, out, _ = run(capsys, "apply", "--case", "sonin", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,transform,f1,rel_error"


def test_apply_honors_identity_tolerance(capsys):
    # absurdly tight tolerance turns floor noise into a reported failure
    code, out, _ = run(capsys, "apply", "--case", "sonin",
                       "--tol-identity", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_solve_catalog_case(capsys):
    code, out, _ = run(capsys, "solve", "--case", "vekua_telegraph",
                       "--solver-h", "0.015625")
    assert code == 0
    assert "PASS" in out


def test_solve_catalog_case_fits_kappa(capsys):
    # the transport data are scaled to the case's own K(x,x)
    code, out, _ = run(capsys, "solve", "--case", "poisson_bessel", "--params", "nu=0.5",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["max_error"] <= 1e-12
    code, _, err = run(capsys, "solve", "--case", "sine_to_bessel")
    assert code == 2
    assert "K(x,x)" in err and "vanishes" in err
    # p_diag = nu - 1/2 < 0: (x - t)^p_diag has no value at t = x
    code, _, err = run(capsys, "solve", "--case", "poisson_bessel", "--params", "nu=0.3")
    assert code == 2
    assert "K(x,x) of case 'poisson_bessel'" in err and "does not evaluate" in err


def test_solve_custom_file(tmp_path, capsys):
    cfg = tmp_path / "telegraph.cfg"
    cfg.write_text(SOLVER_FILE)
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--params", "mu=1")
    assert code == 0
    assert "max |K - reference|" in out


def test_solve_takes_sigma_from_the_operators(tmp_path, capsys):
    cfg = tmp_path / "i0.cfg"
    cfg.write_text(I0_FILE)
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--params", "mu=1",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == -1.0
    assert payload["max_error"] <= 1e-5


def test_solve_trivial_config_is_exact(tmp_path, capsys):
    cfg = tmp_path / "trivial.cfg"
    cfg.write_text(
        "[operatorA]\nc = \"0\"\n\n[operatorB]\nc = \"0\"\n\n"
        "[solver]\nx = 1\nh = 0.125\nreference = \"1\"\n"
    )
    code, out, _ = run(capsys, "solve", "--custom", str(cfg))
    assert code == 0
    assert "max |K - reference| = 0.000000e+00" in out


def test_a_solve_without_a_reference_reports_no_verdict(tmp_path, capsys):
    # nothing is compared, so nothing passes and nothing fails: null, and exit 0
    cfg = tmp_path / "no_reference.cfg"
    cfg.write_text('[operatorA]\n\n[operatorB]\nc = "-x"\n\n[solver]\nx = 1\nh = 0.015625\n')
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert (payload["max_error"], payload["l2_error"], payload["overall_pass"]) == (None, None, None)
    code, out, _ = run(capsys, "solve", "--custom", str(cfg))
    assert code == 0
    assert out.splitlines()[-1] == "[UNCHECKED] no reference to compare against"
    assert "PASS" not in out


def test_a_lattice_that_diverges_at_a_singular_wall_is_never_printed(tmp_path, capsys):
    # b0 = -r/t with r = 6 > 4; with no reference, only the solver itself can refuse
    cfg = tmp_path / "singular_wall.cfg"
    cfg.write_text('[operatorA]\nb = "-6/t"\nc = "1"\n\n[operatorB]\nb = "-6/x"\nc = "1 - x"\n\n'
                   '[solver]\nx = 2\nh = 0.0078125\n')
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "csv")
    assert code == 3 or np.abs(np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)[:, 2]).max() < 1e3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: no guard measures a c0 pole at the wall;"
                                       " at h = 1/64 the lattice reaches |K| = 1.4e173 under [UNCHECKED]")
def test_a_lattice_that_diverges_at_a_c0_pole_of_the_wall_is_never_printed(tmp_path, capsys):
    # b0 = -1/t passes the r/sigma >= 4 guard, but c0 = 5/t^2 is a pole of its own; at h = 1/128 it exits 3
    cfg = tmp_path / "c0_wall.cfg"
    cfg.write_text('[operatorA]\nb = "-1/t"\nc = "5/t^2"\n\n[operatorB]\nb = "-1/x"\nc = "5/x^2"\n\n'
                   '[solver]\nx = 2\nh = 0.015625\n')
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "csv")
    assert code in (2, 3) or np.abs(np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)[:, 2]).max() < 1e3


@pytest.mark.filterwarnings("error")
def test_an_overflowing_unsafe_range_ends_in_one_line_without_a_numpy_warning(capsys):
    # x_max = 1e308 gave inf samples, x = 1e308 inf nodes, each with numpy warnings on stderr;
    # one sample's midpoint of [1e308, 1.7e308] is 1.35e308, whose nodes overflow as x = 1e308's do
    code, out, err = run(capsys, "verify", "--case", "vekua_telegraph", "--x-max", "1e308", "--unsafe-range")
    assert (code, out, err) == (2, "", "error: 20 sample points over [0.2, 1e+308]: a sample overflows"
                                       " the float range\n")
    for x in (("--x-min", "1e308", "--x-max", "1.7e308", "--x-count", "1"), ("--x", "1e308")):
        code, out, err = run(capsys, "apply", "--case", "sonin", *x, "--unsafe-range")
        assert (code, out) == (3, "") and err.startswith("numerical failure: ") and err.count("\n") == 1


def test_the_telegraph_lattice_keeps_its_bytes(capsys):
    # the lattice every solver change is checked against; it takes only +, -, *, /
    # and exp(0) = 1, so its bytes do not depend on numpy's SIMD exp or log
    code, out, _ = run(capsys, "solve", "--case", "vekua_telegraph", "--format", "csv")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "2530d7107994a629c4dcbc5fd7c01a7a"


def test_solve_grid_csv_export(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    # (N + 1)^2 data rows for N = X/h steps: 16 at h = 1/8, 256 at the defaults X = 2, h = 1/128
    for step, steps in ((["--solver-h", "0.125"], 16), ([], 256)):
        code = main(["solve", "--case", "vekua_telegraph", *step, "--format", "csv", "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,t,K"
        assert len(lines) - 1 == (steps + 1) ** 2


def test_the_lattice_csv_streams_in_the_memory_of_the_json_report():
    # the CSV is written a run of the lattice at a time, not built whole first:
    # at h = 1/512 its 46 MB body once took the process to 167 MB, JSON to 40 MB
    def solve(fmt):
        """(peak MB, first line, lines after it) of the h = 1/512 solve's stdout, read as it streams."""
        script = (
            "import resource, sys\n"
            "from transmute.cli import main\n"
            "code = main(['solve', '--case', 'vekua_telegraph',"
            f" '--solver-h', '0.001953125', '--format', {fmt!r}])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            rows = sum(block.count(b"\n") for block in iter(lambda: proc.stdout.read(1 << 20), b""))
            err = proc.stderr.read().decode()
        code, kb = err.split()[-2:]
        assert code == "0" and "Traceback" not in err, err
        return int(kb) / 1024, first, rows  # ru_maxrss is in kB on Linux

    csv_mb, header, rows = solve("csv")
    # N = X/h = 1024 steps at X = 2, h = 1/512: 1025^2 data rows
    assert (header, rows) == (b"x,t,K\n", 1050625)
    assert csv_mb <= solve("json")[0] + 20


def test_solve_json_stats(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--case", "vekua_telegraph",
                       "--solver-h", "0.03125", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["max_error"] <= 1e-3
    # the closure, sigma and rho the march used
    assert (payload["boundary"], payload["sigma"], payload["rho"]) == ("neumann", 1.0, 0.0)


def test_solve_json_reports_resolved_robin_closure(tmp_path, capsys):
    # b0 = 0 and h0 = 1/2 leave theta = 1/2 at t = 0, so the wall takes Robin
    cfg = tmp_path / "robin.cfg"
    cfg.write_text(
        "[operatorA]\nc = \"0\"\nh = 0.5\n\n[operatorB]\nb = \"-1\"\nc = \"0.25\"\n\n"
        "[solver]\nx = 2\nh = 0.015625\nreference = \"exp(t/2)\"\n"
    )
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "json",
                       "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert (payload["boundary"], payload["sigma"], payload["rho"]) == ("robin", 1.0, 0.0)
    code, out, _ = run(capsys, "solve", "--custom", str(cfg))
    assert "boundary=robin sigma=1 rho=0" in out


def test_solve_derives_rho_from_the_operators(tmp_path, capsys):
    # b1 = -1/x: rho = -1, so K(x,x) = kappa sqrt(x), 0 at the vertex
    cfg = tmp_path / "pole.cfg"
    cfg.write_text('[operatorA]\n\n[operatorB]\nb = "-1/x"\n\n[solver]\nx = 1\nh = 0.0625\n')
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "json", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["rho"] == -1.0
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "csv")
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in out.splitlines()[1:]}
    assert (rows["0", "0"], rows["1", "1"]) == (0.0, 1.0)


def test_malformed_expression_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[operatorA]\nc = \"besselj(0,\"\n[operatorB]\nc = \"0\"\n"
                   "[solver]\n")
    code, _, err = run(capsys, "solve", "--custom", str(cfg))
    assert code == 2
    assert "broken.cfg:2" in err
    assert "offset" in err
    # expressions past the parser's depth limit: one line each, not a RecursionError
    kernel = "besselj(0, mu*sqrt(x^2-t^2))"
    for command, params, text, line in [
        ("verify", "mu=1,omega=1", CASE_FILE.replace(kernel, "+".join(["x"] * 300)), 4),
        ("verify", "mu=1,omega=1", CASE_FILE.replace(kernel, "(" * 1500 + "x" + ")" * 1500), 4),
        ("solve", "mu=1", SOLVER_FILE.replace('c = "0"', 'b = "' + "+".join(["t"] * 300) + '"'), 2),
    ]:
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--custom", str(cfg), "--params", params)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}:{line}: ") and "nested deeper than 100 levels at offset" in err
        assert err.count("\n") == 1


def test_custom_case_verify_and_apply(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CASE_FILE)
    code, out, _ = run(capsys, "verify", "--custom", str(cfg),
                       "--params", "mu=1,omega=1")
    assert code == 0
    assert "case telegraph" in out

    code, out, _ = run(capsys, "apply", "--custom", str(cfg),
                       "--params", "mu=1,omega=1", "--x", "1.0")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "text,needle",
    [
        ("kernel = \"x\"\n", "before any"),
        ("[case]\nkernel = \"x\"\nkernel = \"x\"\n", "duplicate key"),
        ("[weird]\nkernel = \"x\"\n", "unknown section"),
        ("[case]\nkernel\n", "key = value"),
        ("[case\nkernel = \"x\"\n", "unterminated"),
        # keys the operator pair fixes, and a misspelt one
        ("[operatorA]\nform = divergence\n", "bad.cfg:2: unknown key 'form' in [operatora]"),
        ("[solver]\nsigma = 1\n", "bad.cfg:2: unknown key 'sigma' in [solver]"),
        ("[solver]\nrho = 1\n", "bad.cfg:2: unknown key 'rho' in [solver]"),
        ("[solver]\nboundary = robin\n", "bad.cfg:2: unknown key 'boundary' in [solver]"),
        ("[operatorB]\nh = 0.5\n", "bad.cfg:2: unknown key 'h' in [operatorb]"),
        ("[case]\nname = x\nkernal = \"x\"\n", "bad.cfg:3: unknown key 'kernal' in [case]"),
        # sections and keys a case needs
        ("[operatorA]\n[operatorB]\n", "bad.cfg: missing [case] section"),
        ("[case]\nkernel = \"1\"\nf0 = \"1\"\n[operatorA]\n[operatorB]\n",
         "bad.cfg: missing required expression 'f1'"),
        ("[case]\nkernel = \"1\"\nf0 = \"1\"\nf1 = \"x\"\n[operatorB]\n",
         "bad.cfg: missing [operatorA] section"),
        # the kernel and f0, each stated once
        (TWICE_FILE, "bad.cfg:3: state the kernel once"),
        (TWICE_FILE.replace('kernel_smooth = "sqrt(2/pi)*(x+t)^0.6/x^0.5"\n', ""),
         "bad.cfg:3: state the kernel once: 'kernel' is its smooth factor with every exponent 0,"
         " so 'p_diag' states it again"),
        (CASE_FILE.replace("x_max = 2.0", "kernel_t_exponent = 1"), "state the kernel once"),
        (CASE_FILE.replace("x_max = 2.0", 'f0_smooth = "cos(omega*t)"'), "bad.cfg:7: state the f0 once"),
        (CASE_FILE.replace("x_max = 2.0", "f0_t_exponent = 0"), "state the f0 once"),
        (CASE_FILE.replace("kernel = ", "# kernel = "),
         "bad.cfg: missing required expression 'kernel' or 'kernel_smooth'"),
        (CASE_FILE.replace("f0 = ", "# f0 = "), "bad.cfg: missing required expression 'f0' or 'f0_smooth'"),
    ],
)
def test_config_file_diagnostics(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    for command in ("verify", "apply"):
        code, out, err = run(capsys, command, "--custom", str(cfg))
        assert code == 2 and not out
        assert needle in err and err.count("\n") == 1


def test_a_case_stated_by_its_factors_reports_as_the_catalog_case(tmp_path, capsys):
    cfg = tmp_path / "sonin.cfg"
    cfg.write_text(SONIN_FILE)
    reports = {}
    for source in (("--case", "sonin"), ("--custom", str(cfg), "--params", "mu=0.5,nu=0.5")):
        for command in ("verify", "apply"):
            code, out, _ = run(capsys, command, *source, "--format", "json", "--no-timestamp")
            assert code == 0
            reports.setdefault(command, []).append(out)
    assert reports["apply"][0] == reports["apply"][1]
    # a file cannot state the shifted eigen pair, so the eigen records differ
    catalog, custom = (json.loads(out) for out in reports["verify"])
    assert catalog["conditions"][:5] == custom["conditions"][:5]
    assert custom["conditions"][5]["max_residual"] <= catalog["conditions"][5]["max_residual"]


def test_an_overflowing_corruption_prints_only_the_failure_line():
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "--case", "sonin", "--corrupt", "c1:1e308"])
    assert code == 3
    assert err.getvalue().startswith("numerical failure: ") and err.getvalue().count("\n") == 1


INF_LADDER_CASE = 'kernel = "1/t"\nf0 = "1e300"\nf1 = "1"'


@pytest.mark.parametrize("case, argv", [
    # K's jet rule for (t*1e-300)^0.5 divides by an underflowing u^2
    ('kernel = "(t*1e-300)^0.5 + 1/(x-1)"\nf0 = "cos(t)"\nf1 = "sin(x)"', ["verify"]),
    # the transform's terms overflow
    ('kernel = "1e300"\nf0 = "1e300"\nf1 = "1"', ["apply", "--format", "json"]),
    # the terms are finite, but their fsum overflows
    ('kernel = "1.7e308"\nf0 = "1"\nf1 = "1"', ["apply", "--x", "2"]),
    # the 4c bracket times f0 overflows at small eps, so the limit ladder holds inf
    (INF_LADDER_CASE, ["verify"]),
], ids=["jet_divisor_underflows", "terms_overflow", "fsum_overflows", "limit_ladder_holds_inf"])
def test_a_non_finite_number_prints_only_the_failure_line(tmp_path, case, argv):
    config = tmp_path / "case.cfg"
    config.write_text(f"[case]\n{case}\n[operatorA]\n[operatorB]\n")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--custom", str(config)])
    assert code == 3 and not out.getvalue()
    assert err.getvalue().startswith("numerical failure: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("h0, level", [(-64, 2), (-96, 4)])
def test_a_zero_robin_wall_factor_prints_only_the_failure_line(tmp_path, h0, level):
    # theta = h0 at h = 1/64: 1 + h theta (level 2) or 3 + 2 h theta (level 4 on) is 0.0
    config = tmp_path / "wall.cfg"
    config.write_text(f'[operatorA]\nc = "0"\nh = {h0}\n\n[operatorB]\nb = "-1"\nc = "0.25"\n\n'
                      '[solver]\nx = 2\nh = 0.015625\nreference = "exp(t/2)"\n')
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--custom", str(config)])
    assert code == 3 and not out.getvalue()
    assert err.getvalue() == f"numerical failure: non-finite lattice value at level {level}\n"


def test_an_x_side_eigen_failure_names_only_x(tmp_path):
    # f1 reads x alone; the eigen check binds t as one number, which is not named
    config = tmp_path / "cancel.cfg"
    config.write_text(
        '[case]\nkernel = "1"\nf0 = "1"\nf1 = "hyp1f2(0.5, 0.5, 2.5, -100*x^2)"\n[operatorA]\n[operatorB]\n')
    for command in ("verify", "apply"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--custom", str(config)])
        assert code == 3
        assert re.search(r" in hyp1f2\(0\.5, 0\.5, 2\.5, -100\*x\^2\) at x=[0-9.]+\n$", err.getvalue())


@pytest.mark.parametrize("spec", ["c0:1e308", "a0:1e308", "b1:1e308", "a1:-1e308"])
def test_a_corruption_whose_mean_overflows_ends_in_an_exit_code(spec):
    # residuals near 1e308 are finite, but their fsum overflows: each mean
    # is then taken as the sum of value / n, so the report is written
    codes = {}
    for fmt in ("json", "text"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[fmt] = code = main(["verify", "--case", "sonin", "--corrupt", spec, "--format", fmt, "--no-timestamp"])
        assert code in (1, 3)
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert not out.getvalue() and err.getvalue().startswith("numerical failure: ")
            assert err.getvalue().count("\n") == 1
        elif fmt == "json":
            assert json.loads(out.getvalue(), parse_constant=_no_constant)["overall_pass"] is False
        else:
            assert out.getvalue().endswith("overall: FAIL\n")
    assert codes["json"] == codes["text"]


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    ver = parser.parse_args(["verify", "--case", "sonin"])
    config = conditions.VerifyConfig()
    assert ver.grid == (config.nx, config.nt) and ver.params == {}
    assert (ver.x_count, ver.tol_residual) == (config.n_samples, config.tol_4a)
    # flags are parsed where they are declared, an empty --params entry skipped
    assert parser.parse_args(["verify", "--case", "sonin", "--params", "nu=1,"]).params == {"nu": 1.0}
    app = parser.parse_args(["apply", "--case", "sonin"])
    assert app.x_count == config.n_samples
    assert app.quad_order == quadrature.RULE_ORDER
    for fn in (quadrature.transform, quadrature.apply_transmutation, conditions.identity_error):
        assert inspect.signature(fn).parameters["n"].default == quadrature.RULE_ORDER
    assert inspect.signature(conditions.sample_points).parameters["n"].default == config.n_samples
    assert np.array_equal(conditions.triangle_grid(), conditions.triangle_grid(config.nx, config.nt, config.x_max))


def test_readme_example_runs(tmp_path, capsys):
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(README_FILE)
    code, out, _ = run(capsys, "verify", "--custom", str(cfg), "--params", "mu=1,omega=1")
    assert code == 0
    assert "overall: PASS" in out


def test_commands_run_without_the_test_oracles(tmp_path):
    # numpy is the only runtime dependency: scipy and mpmath serve the tests
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(README_FILE)
    argvs = [
        ["verify", "--custom", str(cfg), "--params", "mu=1,omega=1"],
        ["apply", "--case", "poisson_bessel", "--x-count", "5"],
        ["solve", "--case", "vekua_telegraph", "--solver-h", "0.0625"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['mpmath'] = None\n"
        "from transmute.cli import main\n"
        f"print([main(argv) for argv in {argvs!r}])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0]"


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--case", "sonin", "--out", str(target))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write {target}:") and err.count("\n") == 1


def test_config_that_is_not_utf8_exits_2(capsys, tmp_path):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe[case]\n")
    code, out, err = run(capsys, "verify", "--custom", str(cfg))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot read {cfg}:") and err.count("\n") == 1


def test_a_gegenbauer_degree_above_the_cap_exits_3_before_its_recurrence(capsys):
    # an odd degree passes the case's own check; its recurrence took one step per degree
    code, out, err = run(capsys, "verify", "--case", "gegenbauer", "--params", "p=1000000001")
    assert code == 3 and not out and err.count("\n") == 1
    assert "gegenbauer degree 1000000001.0 is above the supported 1024" in err


def _no_constant(token):
    raise ValueError(f"{token} in the JSON output")


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from([("verify",), ("apply",), ("solve", "--solver-h", "0.125")]),
    name_key=st.sampled_from(
        [(name, key) for name in kernels.list_cases() for key in kernels.get_case(name).params]
    ),
    value=st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e155, -1e155, 1e300, -1e300])
    | st.floats(-10.0, 10.0),
)
def test_any_parameter_value_ends_in_an_exit_code(command, name_key, value):
    name, key = name_key
    argv = [command[0], "--case", name, "--params", f"{key}={value!r}", *command[1:],
            "--format", "json", "--no-timestamp"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert not out.getvalue() and err.getvalue().count("\n") == 1


# values the [case] fuzz draws for each key: expressions in the key's variables
# (some pass verify with A = B = d2 + 1), in the wrong ones or malformed, and
# numbers in and out of range
_BAD = ["y", "1e308*x", "x*("]
_NUMBERS = ["0", "1", "-1", "0.5", "-0.5", "2", "-1.5", "nan", "inf", "1e308", "abc"]
FUZZ_KEYS = {
    **dict.fromkeys(("kernel", "kernel_smooth"), ["1", "x-t", "cos(x-t)", "x+t", "(x+t)^0.5", "1/(x-t)",
                                                  "besselj(0, x-t)", "sqrt(x-t)", "t^(-3)", "log(t)", *_BAD]),
    **dict.fromkeys(("f0", "f0_smooth"), ["cos(t)", "sin(t)", "1", "t", "log(t)", "x", *_BAD]),
    "f1": ["sin(x)", "cos(x)", "x", "t", *_BAD],
    **dict.fromkeys(("p_diag", "kernel_t_exponent", "f0_t_exponent"), _NUMBERS),
}
# key sets that state K and f0 once, each by the whole or by its factors
_ONCE = [
    ("kernel", "f0", "f1"),
    ("kernel_smooth", "p_diag", "f0", "f1"),
    ("kernel_smooth", "kernel_t_exponent", "f0_smooth", "f0_t_exponent", "f1"),
    ("kernel", "f0_smooth", "f1"),
]


@st.composite
def _case_lines(draw):
    """The lines of a [case] section: any subset of FUZZ_KEYS, most often one of _ONCE."""
    if draw(st.sampled_from([True, True, True, False])):
        keys = draw(st.sampled_from(_ONCE))
    else:
        keys = draw(st.sets(st.sampled_from(sorted(FUZZ_KEYS))))
    lines = {}
    for key in keys:
        if FUZZ_KEYS[key] is _NUMBERS:
            lines[key] = draw(st.sampled_from(_NUMBERS) | st.floats(-2.0, 3.0).map(repr))
        else:
            lines[key] = f'"{draw(st.sampled_from(FUZZ_KEYS[key]))}"'
    return lines


@settings(max_examples=100, deadline=None)
@given(lines=_case_lines())
def test_any_case_section_ends_in_an_exit_code_and_verifies_the_applied_kernel(lines):
    text = "[case]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
    text += '[operatorA]\nc = "1"\n[operatorB]\nc = "1"\n'
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        codes = {}
        for command in ("verify", "apply"):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no warning may reach the user
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes[command] = main([command, "--custom", str(cfg), "--format", "json", "--no-timestamp"])
            assert codes[command] in (0, 1, 2, 3)
            if codes[command] in (0, 1):
                json.loads(out.getvalue(), parse_constant=_no_constant)
            else:
                assert not out.getvalue() and err.getvalue().count("\n") == 1
        if codes["verify"] == 0:
            # the K that passed is the product whose smooth factor apply weights by
            # (x-t)^p_diag t^kernel_t_exponent
            case, _ = cli._case_from_config(str(cfg), {})
            x, t = np.array(conditions.triangle_grid()).T
            smooth = evaluate(case.kernel_smooth, {"x": x, "t": t})
            weighted = (x - t) ** case.p_diag * t ** case.kernel_t_exponent * smooth
            assert evaluate(case.kernel, {"x": x, "t": t}) == pytest.approx(weighted, rel=1e-13, abs=0.0)


# values the solver-file fuzz draws for each key of [operatorA], [operatorB] and
# [solver]; {v} is the side's own variable, t for A and x for B
_LEADING = ["1", "-1", "2", "0", "{v}", "1+{v}", "mu", "log(0)", "y", "{v}*("]
_LOWER = ["0", "1", "-1", "mu^2", "{v}", "2*{v}", "1/{v}", "-1/{v}", "-3/{v}", "1/{v}^2", "sin({v})", "{v}^2",
          "exp({v})", "exp(1/{v})", "sqrt({v})", "log({v})", "1e8", "-1e8", "1e308*{v}", "log(0)", "y", "{v}*("]
_SOLVER_KEYS = {
    "x": ["1", "2", "0.5", "1.5", "0", "-1", "nan", "inf", "1e308", "abc"],
    # non-dyadic steps among them, and ones that miss X/h = an integer
    "h": ["0.0625", "0.125", "0.03125", "0.1", "0.01", "0.3", "0.0123", "0", "-0.1", "nan", "inf", "1e-300", "abc"],
    "kappa": ["1", "0", "-2", "1e-320", "1e308", "nan", "inf", "abc"],
    "reference": ['"1"', '"exp(t/2)"', '"besselj(0, mu*sqrt(x^2-t^2))"', '"1/(x-t)"', '"log(t)"', '"y"', '"x*("'],
}


@st.composite
def _solver_file(draw):
    """A solver file: any subset of each section's keys, each with a drawn value."""
    sections = {"operatorA": {}, "operatorB": {}, "solver": {}}
    for section, v in (("operatorA", "t"), ("operatorB", "x")):
        for key, values in (("a", _LEADING), ("b", _LOWER), ("c", _LOWER)):
            if draw(st.booleans()):
                sections[section][key] = f'"{draw(st.sampled_from(values)).format(v=v)}"'
    if draw(st.booleans()):
        sections["operatorA"]["h"] = draw(st.sampled_from(["0", "0.5", "-1", "-64", "nan", "inf", "1e308", "abc"])
                                          | st.floats(-3.0, 3.0).map(repr))
    for key, values in _SOLVER_KEYS.items():
        if draw(st.booleans()):
            sections["solver"][key] = draw(st.sampled_from(values))
    return sections


@settings(max_examples=100, deadline=None)
@given(sections=_solver_file())
def test_any_solver_file_ends_in_an_exit_code(sections):
    solver = sections["solver"]
    try:  # X = 1 and h = 1/64 unless the file sets them
        steps = float(solver.get("x", "1")) / float(solver.get("h", "0.015625"))
    except (ValueError, ZeroDivisionError):
        steps = 0.0
    assume(not 128.5 < steps <= goursat.MAX_STEPS + 0.5)  # the fuzz stays near a second
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may reach the user
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["solve", "--custom", str(cfg), "--params", "mu=1", "--format", "json", "--no-timestamp"])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert not out.getvalue() and err.getvalue().count("\n") == 1


def _flag_value(strategy, *extreme):
    """Text of a flag value: a drawn one, or one of the ``extreme`` texts."""
    return st.sampled_from(extreme) | strategy


_BAD_NUMBERS = ("0", "-0.0", "-1", "1e-320", "nan", "inf", "-inf", "1e308", "abc", "")
# lattices of at most 128 steps or beyond MAX_STEPS, grids of at most 40 x 40 or
# beyond MAX_POINTS, so that the fuzz runs in about a second
_FLAG_DRAWS = st.one_of(
    st.tuples(st.just(("verify", "--grid")), _flag_value(
        st.builds("{}x{}".format, st.integers(-1, 40), st.integers(-1, 40)),
        "300x300", "65537x1", "1x65537", "100000x100000", "20", "20x", "x20", "ax3", "4X4", " 4x4", "2.5x3", "")),
    st.tuples(st.just(("verify", "--corrupt")), _flag_value(
        st.builds("{}:{!r}".format, st.sampled_from((*kernels.COEFFICIENT_NAMES, "d0", "")), st.floats(-10.0, 10.0)),
        *(f"{c}:{v}" for c in kernels.COEFFICIENT_NAMES for v in _BAD_NUMBERS), "c1", "c1:+0.1:2", ":1")),
    st.tuples(st.just(("apply", "--x")), _flag_value(
        st.floats(0.0, 3.5).map(repr), *_BAD_NUMBERS, "3", "3.0000000000000004", "5e-324")),
    st.tuples(st.sampled_from([("solve", "--solver-X"), ("solve", "--solver-h")]), _flag_value(
        st.sampled_from([2.0, 1.0, 0.5, 1.0 / 8.0, 1.0 / 16.0, 1.0 / 64.0, 0.3, 1e-7, 1e300]).map(repr),
        *_BAD_NUMBERS)),
)


@settings(max_examples=60, deadline=None)
@given(command_flag_value=_FLAG_DRAWS, name=st.sampled_from(kernels.list_cases()))
def test_any_flag_value_ends_in_an_exit_code(command_flag_value, name):
    (command, flag), value = command_flag_value
    flags = {flag: value}
    if command == "solve":  # the other one at X = 2 or h = 1/16
        flags = {"--solver-X": "2.0", "--solver-h": "0.0625", **flags}
        try:
            steps = float(flags["--solver-X"]) / float(flags["--solver-h"])
        except (ValueError, ZeroDivisionError):
            steps = 0.0
        assume(not 128.5 < steps <= goursat.MAX_STEPS + 0.5)
    argv = [command, "--case", name, *(f"{k}={v}" for k, v in flags.items()), "--format", "json", "--no-timestamp"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may reach the user
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert not out.getvalue() and err.getvalue() and "Traceback" not in err.getvalue()


# the grammar of the generated --custom files: numbers (extreme ones among them),
# a parameter, calls of the DSL's functions and its binary operators
_LEAVES = ["0", "1", "-1", "0.5", "2", "3", "1e300", "1e-300", "mu", "pi"]
_CALLS = ["sin({})", "cos({})", "exp({})", "log({})", "sqrt({})", "abs({})", "gamma({})", "sinh({})",
          "besselj(0, {})", "besseli(1, {})", "bessel_clifford(0.5, {})", "hyp1f2(1, 1.5, 2, {})"]


def _expression(rng, variables, depth=2):
    """A random expression over ``variables`` (a string of them), at most ``depth`` deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([*variables * 3, *_LEAVES])
    if roll < 0.55:
        return rng.choice(_CALLS).format(_expression(rng, variables, depth - 1))
    left, right = (_expression(rng, variables, depth - 1) for _ in range(2))
    return f"({left}){rng.choice('+-*/^')}({right})"


def _generated_file(rng):
    """A --custom file: K, f0 and f1, b and c of each operator at random, and
    at random lambda, x_max, [operatorA] h and a small [solver] lattice."""
    case = {key: f'"{_expression(rng, v)}"' for key, v in (("kernel", "xt"), ("f0", "t"), ("f1", "x"))}
    if rng.random() < 0.3:
        case["lambda"] = rng.choice(["0", "1", "-1", "2.5", "1e300"])
    if rng.random() < 0.3:
        case["x_max"] = rng.choice(["0.5", "1", "2", "3", "5"])
    sections = {"case": case}
    for name, v in (("operatorA", "t"), ("operatorB", "x")):
        sections[name] = {key: f'"{_expression(rng, v, 1)}"' for key in "bc" if rng.random() < 0.6}
    if rng.random() < 0.3:
        sections["operatorA"]["h"] = rng.choice(["0", "0.5", "-1", "2"])
    if rng.random() < 0.5:
        sections["solver"] = {"x": rng.choice(["0.5", "1", "2"]), "h": rng.choice(["0.0625", "0.125", "0.25"])}
        if rng.random() < 0.5:
            sections["solver"]["reference"] = f'"{_expression(rng, "xt", 1)}"'
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_any_generated_custom_file_ends_in_an_exit_code(seed, tmp_path):
    # 200 generated files per seed, about a second, each run by verify, apply
    # or solve at a random --format and --params; the first is a fixed row
    rng = random.Random(f"cli_generator:{seed}")
    config = tmp_path / "gen.cfg"
    texts = [f"[case]\n{INF_LADDER_CASE}\n[operatorA]\n[operatorB]\n"]
    texts += (_generated_file(rng) for _ in range(200))
    for text in texts:
        config.write_text(text)
        params = rng.choice(["mu=1", "mu=0.5", "mu=-2", "mu=1e300"]) if "mu" in text else ""
        if rng.random() < 0.1:  # a missing or unread parameter
            params = rng.choice(["", "nu=1", "mu=1"])
        argv = [rng.choice(["verify", "apply", "solve"]), "--custom", str(config), "--params", params,
                "--format", rng.choice(["text", "json", "csv"]), "--no-timestamp"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may reach the user
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3), (argv, text)
        if code in (2, 3):
            assert err.getvalue().splitlines()[-1].startswith(("error:", "numerical failure:")), (argv, text)


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--custom", "/does/not/exist.cfg")
    assert code == 2
    assert "cannot read" in err


def test_entry_raises_system_exit(capsys, monkeypatch):
    # entry exits with main's code and freezes what is left; main leaves the
    # collector alone, since tests and other callers run it many times
    for argv, expected in [
        (["catalog", "list"], 0),
        (["verify", "--case", "poisson_bessel", "--params", "nu=1", "--corrupt", "c1:+0.1"], 1),
        (["verify", "--case", "sonin", "--params", "mu=-2"], 2),
        (["verify", "--case", "poisson_bessel", "--x-max", "25", "--unsafe-range"], 3),
    ]:
        before = gc.get_freeze_count()
        assert main(argv) == expected and gc.get_freeze_count() == before
        monkeypatch.setattr(sys, "argv", ["transmute", *argv])
        try:
            with pytest.raises(SystemExit) as stop:
                cli.entry()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()  # this process goes on collecting
        assert stop.value.code == expected and frozen > before


# b1 - b0 = 2x varies, so the transport integral runs over panels of h/2 = 0.005
B_2X_FILE = '[operatorA]\n[operatorB]\nb = "2*x"\n[solver]\nx = 1\nh = 0.01\n'

_MODULE_ARGVS = [
    ["catalog", "list"],
    *([command, "--case", "vekua_telegraph", "--format", "json", "--no-timestamp"]
      for command in ("verify", "apply", "solve")),
    # the paired update at a step that is not dyadic
    pytest.param(["solve", "--case", "vekua_telegraph", "--solver-h", "0.01", "--format", "json", "--no-timestamp"],
                 id="solve_h_0.01"),
    pytest.param(["solve", "--custom", "b_2x.cfg"], id="solve_b1_2x"),
]


def _module_run(*argv, stdout=subprocess.PIPE, **popen):
    """A fresh ``python -m transmute.cli`` process, its stdout and stderr as bytes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "transmute.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, **popen)


@pytest.mark.parametrize("argv", _MODULE_ARGVS, ids=lambda argv: argv[0])
def test_a_module_run_prints_what_main_prints(capsys, tmp_path, argv):
    # and nothing on stderr: no traceback, warning or "Exception ignored" at exit
    (tmp_path / "b_2x.cfg").write_text(B_2X_FILE)
    argv = [str(tmp_path / a) if a == "b_2x.cfg" else a for a in argv]
    done = _module_run(*argv)
    code, out, err = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")
    assert code == 0 and not err


def test_a_module_run_ends_through_entry():
    # what ``python -m`` does, with a hook that reads the freeze count at exit
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv[1:] = ['catalog', 'list']\n"
        "runpy.run_module('transmute.cli', run_name='__main__', alter_sys=True)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert int(done.stderr.split()[-1]) > 0


def _assert_refused_write(done):
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert err.startswith("error: cannot write stdout:") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv", [
    # the lattice CSV fails while it is written, the short report when it is flushed
    ["solve", "--case", "vekua_telegraph", "--format", "csv"],
    ["verify", "--case", "sonin", "--format", "json"],
], ids=["csv", "json"])
def test_a_closed_pipe_on_stdout_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _module_run(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    _assert_refused_write(done)


@pytest.mark.parametrize("argv", [["catalog", "list"], ["--help"]], ids=lambda argv: argv[0])
def test_a_closed_stdout_exits_2(argv):
    # fd 1 closed before the interpreter starts, so sys.stdout is None
    _assert_refused_write(_module_run(*argv, stdout=None, preexec_fn=lambda: os.close(1)))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_full_disk_on_stdout_exits_2(monkeypatch, unbuffered):
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    # a report, and the help that argparse prints and would otherwise exit 0 after losing
    for argv in (["verify", "--case", "sonin", "--format", "json"], ["--help"], ["verify", "--help"]):
        with open("/dev/full", "wb") as full:
            done = _module_run(*argv, stdout=full)
        _assert_refused_write(done)

"""End-to-end runs of the command-line driver, in process via main(argv)."""

import contextlib
import inspect
import io
import json
import os
import pathlib
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
    # rho = 1: K(x,x) = kappa x^(-1/2) blows up at the lattice's vertex x = 0
    "vertex_blowup.cfg": '[operatorA]\n[operatorB]\nb = "1/x"\n[solver]\nx = 1\nh = 0.0625\n',
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
    code, out, _ = run(capsys, "catalog", "show", "sonin", "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    case = kernels.get_case("sonin")
    assert payload["tags"] == list(case.refs) and payload["parameters"] == dict(case.params)
    text = kernels.describe(case)
    for key, label in (("kernel", "K(x,t) = "), ("f0", "f0(t)  = "), ("f1", "f1(x)  = ")):
        assert label + payload[key] in text
    assert f"lambda = {payload['lambda']!r}" in text
    assert f"p_diag = {payload['p_diag']!r}, p_zero = {payload['p_zero']!r}" in text
    assert payload["notes"] in text and payload["name"] == "sonin"
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
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    for name, text in BAD_CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_CONFIGS else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err


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


def test_solve_grid_csv_export(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code = main(["solve", "--case", "vekua_telegraph", "--solver-h", "0.125",
                 "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,t,K"
    assert len(lines) == 1 + sum(min(i, 32 - i) + 1 for i in range(33))


def test_the_lattice_csv_streams_in_the_memory_of_the_json_report():
    # the CSV is written a run of the lattice at a time, not built whole first:
    # at h = 1/512 its 46 MB body once took the process to 167 MB, JSON to 40 MB
    def peak_mb(fmt):
        script = (
            "import resource, sys\n"
            "from transmute.cli import main\n"
            "code = main(['solve', '--case', 'vekua_telegraph',"
            f" '--solver-h', '0.001953125', '--format', {fmt!r}])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=env)
        code, kb = done.stderr.split()[-2:]
        assert code == "0", done.stderr
        return int(kb) / 1024  # ru_maxrss is in kB on Linux

    assert peak_mb("csv") <= peak_mb("json") + 20


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


@pytest.mark.parametrize("case, argv", [
    # K's jet rule for (t*1e-300)^0.5 divides by an underflowing u^2
    ('kernel = "(t*1e-300)^0.5 + 1/(x-1)"\nf0 = "cos(t)"\nf1 = "sin(x)"', ["verify"]),
    # the transform's terms overflow
    ('kernel = "1e300"\nf0 = "1e300"\nf1 = "1"', ["apply", "--format", "json"]),
    # the terms are finite, but their fsum overflows
    ('kernel = "1.7e308"\nf0 = "1"\nf1 = "1"', ["apply", "--x", "2"]),
], ids=["jet_divisor_underflows", "terms_overflow", "fsum_overflows"])
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--case", "sonin", "--corrupt", spec, "--format", "json", "--no-timestamp"])
    assert code in (1, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert json.loads(out.getvalue(), parse_constant=_no_constant)["overall_pass"] is False
    else:
        assert not out.getvalue() and err.getvalue().startswith("numerical failure: ")
        assert err.getvalue().count("\n") == 1


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    ver = parser.parse_args(["verify"])
    config = conditions.VerifyConfig()
    assert ver.grid == f"{config.nx}x{config.nt}"
    assert (ver.x_count, ver.tol_residual) == (config.n_samples, config.tol_4a)
    app = parser.parse_args(["apply"])
    assert app.x_count == config.n_samples
    assert app.quad_order == quadrature.RULE_ORDER
    for fn in (quadrature.transform, quadrature.apply_transmutation, quadrature.identity_error):
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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--custom", "/does/not/exist.cfg")
    assert code == 2
    assert "cannot read" in err


def test_entry_raises_system_exit(capsys):
    from transmute.cli import entry
    import sys

    old = sys.argv
    sys.argv = ["transmute", "catalog", "list"]
    try:
        with pytest.raises(SystemExit) as stop:
            entry()
        assert stop.value.code == 0
    finally:
        sys.argv = old

"""End-to-end runs of the command-line driver, in process via main(argv)."""

import json

import pytest

from transmute import conditions, quadrature
from transmute.cli import main

CASE_FILE = """\
# hand-written telegraph pair
[case]
name = telegraph
kernel = "besselj(0, mu*sqrt(x^2-t^2))"
f0 = "cos(omega*t)"
f1 = "sin(sqrt(omega^2+mu^2)*x)/sqrt(omega^2+mu^2)"
x_max = 2.0

[operatorA]
form = divergence
c = "omega^2"

[operatorB]
form = nondivergence
c = "omega^2+mu^2"
"""

SOLVER_FILE = """\
[operatorA]
c = "0"

[operatorB]
c = "mu^2"

[solver]
sigma = 1
x = 2
h = 0.03125
reference = "besselj(0, mu*sqrt(x^2-t^2))"
"""


# config files for test_usage_errors_exit_2, written under tmp_path
BAD_CONFIGS = {
    "kappa_nan.cfg": SOLVER_FILE.replace("h = 0.03125", "h = 0.03125\nkappa = nan"),
    "x_max_inf.cfg": CASE_FILE.replace("x_max = 2.0", "x_max = inf"),
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
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    for name, text in BAD_CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_CONFIGS else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err


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


def test_solve_trivial_config_is_exact(tmp_path, capsys):
    cfg = tmp_path / "trivial.cfg"
    cfg.write_text(
        "[operatorA]\nc = \"0\"\n\n[operatorB]\nc = \"0\"\n\n"
        "[solver]\nsigma = 1\nx = 1\nh = 0.125\nreference = \"1\"\n"
    )
    code, out, _ = run(capsys, "solve", "--custom", str(cfg))
    assert code == 0
    assert "max |K - reference| = 0.000000e+00" in out


def test_solve_grid_csv_export(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code = main(["solve", "--case", "vekua_telegraph", "--solver-h", "0.125",
                 "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,t,K"
    assert len(lines) == 1 + sum(min(i, 32 - i) + 1 for i in range(33))


def test_solve_json_stats(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--case", "vekua_telegraph",
                       "--solver-h", "0.03125", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["max_error"] <= 1e-3
    # the closure the march used, not the "auto" that was asked for
    assert (payload["boundary"], payload["sigma"], payload["rho"]) == ("neumann", 1.0, 0.0)


def test_solve_json_reports_resolved_robin_closure(tmp_path, capsys):
    # b0 = 0 and h0 = 1/2 leave theta = 1/2 at t = 0, so "auto" resolves to Robin
    cfg = tmp_path / "robin.cfg"
    cfg.write_text(
        "[operatorA]\nc = \"0\"\nh = 0.5\n\n[operatorB]\nb = \"-1\"\nc = \"0.25\"\n\n"
        "[solver]\nsigma = 1\nx = 2\nh = 0.015625\nreference = \"exp(t/2)\"\n"
    )
    code, out, _ = run(capsys, "solve", "--custom", str(cfg), "--format", "json",
                       "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert (payload["boundary"], payload["sigma"], payload["rho"]) == ("robin", 1.0, 0.0)
    code, out, _ = run(capsys, "solve", "--custom", str(cfg))
    assert "boundary=robin sigma=1 rho=0" in out


def test_malformed_expression_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[operatorA]\nc = \"besselj(0,\"\n[operatorB]\nc = \"0\"\n"
                   "[solver]\nsigma = 1\n")
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
    ],
)
def test_config_file_diagnostics(tmp_path, capsys, text, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = run(capsys, "verify", "--custom", str(cfg))
    assert code == 2
    assert needle in err


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

import dataclasses
import math

import numpy as np
import pytest

from transmute.conditions import (
    CONDITION_IDS,
    ConditionRecord,
    VerifyConfig,
    check_boundary_t0,
    check_diagonal,
    check_eigen,
    check_hyperbolic,
    check_vertex,
    hyperbolic_terms,
    sample_points,
    transport_residual,
    triangle_grid,
    verify_all,
)
from transmute.errors import NumericalError, UsageError
from transmute.expr import BinOp, Num, parse
from transmute.kernels import COEFFICIENT_NAMES, corrupt_case, get_case


def test_triangle_grid_stays_inside_the_triangle():
    grid = triangle_grid(nx=12, nt=7, x_max=2.0)
    assert len(grid) == 12 * 7
    for x, t in grid:
        assert 0.0 < t < x <= 2.0


def test_sample_points_honor_the_case_range():
    case = get_case("gegenbauer")
    xs = sample_points(case, 15)
    assert len(xs) == 15
    assert xs[0] == pytest.approx(case.x_range[0])
    assert xs[-1] == pytest.approx(case.x_range[1])
    assert all(b > a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(nx=0), "at least one point"),
        (dict(n_samples=1), "two sample points"),
        (dict(eps_seq=(0.1, 0.2)), "decreasing"),
        (dict(delta_rel=()), "delta_rel"),
        (dict(tol_4a=math.nan), "tol_4a"),
        (dict(tol_4b1=0.0), "tol_4b1"),
        (dict(tol_eigen=-1e-8), "tol_eigen"),
        (dict(transport_drop=math.inf), "transport_drop"),
        (dict(decay_drop=-math.inf), "decay_drop"),
        (dict(tiny=0.0), "tiny"),
    ],
)
def test_config_validation(kwargs, needle):
    with pytest.raises(UsageError, match=needle):
        VerifyConfig(**kwargs)


def test_record_validation():
    with pytest.raises(UsageError, match="unknown condition id"):
        ConditionRecord("9z", "grid", 0.0, 0.0, 1e-8, True)
    with pytest.raises(NumericalError):
        ConditionRecord("4a", "grid", float("nan"), 0.0, 1e-8, True)
    with pytest.raises(NumericalError):
        ConditionRecord("4a", "grid", -1.0, 0.0, 1e-8, True)


def test_hyperbolic_residual_small_on_catalog_case():
    out = check_hyperbolic(get_case("poisson_bessel"))
    assert out["max"] <= 1e-12
    assert out["mean"] <= out["max"]
    assert out["count"] == 400
    assert out["failures"] == []


def test_hyperbolic_terms_balance():
    case = get_case("sonin")
    x, t = np.array([1.4, 1.9]), np.array([0.6, 0.3])
    lhs, rhs, terms = hyperbolic_terms(case, x, t)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    assert len(terms) == 6


def test_hyperbolic_rejects_bad_grids():
    case = get_case("poisson_bessel")
    with pytest.raises(UsageError, match="outside 0 < t < x"):
        check_hyperbolic(case, grid=[(1.0, 1.5)])
    with pytest.raises(UsageError, match="non-empty"):
        check_hyperbolic(case, grid=[])


@pytest.mark.parametrize("coefficient", COEFFICIENT_NAMES)
def test_any_coefficient_corruption_is_detected(coefficient):
    bent = corrupt_case(get_case("poisson_bessel"), coefficient, 0.1)
    out = check_hyperbolic(bent)
    assert out["max"] >= 1e-3


def test_diagonal_records():
    rec_a, rec_t = check_diagonal(get_case("poisson_bessel"))
    assert rec_a.id == "4b1" and rec_a.passed
    assert rec_a.max_residual == 0.0
    assert rec_t.id == "4b2" and rec_t.passed
    assert rec_t.decay_slope == pytest.approx(1.5, abs=0.2)


def test_diagonal_detects_mismatched_principal_parts():
    bent = corrupt_case(get_case("poisson_bessel"), "a1", 1e-6)
    rec_a, _ = check_diagonal(bent)
    assert not rec_a.passed
    assert rec_a.max_residual == pytest.approx(1e-6, rel=1e-3)


def test_transport_residual_scaling():
    case = get_case("poisson_bessel")
    raw, scaled = transport_residual(case, np.array([1.3, 2.1]), np.array([1e-4, 2e-4]))
    assert np.all(scaled <= raw)  # scaled divides by 1 + |K|
    assert np.all(raw <= 1e-5)


def test_boundary_record_slope():
    rec = check_boundary_t0(get_case("sine_to_bessel"))
    assert rec.id == "4c"
    assert rec.passed
    assert rec.decay_slope is not None and rec.decay_slope > 0.1


def test_vertex_decay_and_informational_branch():
    dec = check_vertex(get_case("sonin"))
    assert dec.passed and not dec.informational

    info = check_vertex(get_case("vekua_telegraph"))
    assert info.passed and info.informational
    assert info.limit == pytest.approx(1.0, abs=1e-6)


def test_eigen_records_fold_shifted_pairs():
    rec_a, rec_b = check_eigen(get_case("lowndes"))
    assert rec_a.id == "eigenA" and rec_b.id == "eigenB"
    assert rec_a.passed and rec_b.passed
    assert "shifted" in rec_a.grid


def test_eigen_without_shift():
    rec_a, rec_b = check_eigen(get_case("gegenbauer"))
    assert rec_a.passed and rec_b.passed
    assert "shifted" not in rec_a.grid


@pytest.mark.parametrize("name", ["poisson_bessel", "gegenbauer", "cosh_1f2"])
def test_verify_all_shape(name):
    report = verify_all(get_case(name))
    assert report.case == name
    assert tuple(r.id for r in report.records) == CONDITION_IDS
    assert report.overall_pass
    assert report.record("4a").max_residual <= 1e-8


def test_report_accessor_rejects_unknown_id():
    report = verify_all(get_case("poisson_bessel"))
    with pytest.raises(UsageError, match="no record"):
        report.record("zz")


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_verdicts_survive_kernel_rescaling(scale):
    # residuals are relative, so a huge or tiny overall kernel amplitude
    # must not flip any verdict
    case = get_case("epd_bessel")
    scaled = dataclasses.replace(
        case, kernel=BinOp("*", Num(scale), case.kernel)
    )
    base = verify_all(case)
    bent_records = (
        check_hyperbolic(scaled)["max"],
        check_diagonal(scaled)[1].passed,
        check_vertex(scaled).passed,
    )
    assert bent_records[0] <= 10 * max(base.record("4a").max_residual, 1e-14)
    assert bent_records[1] == base.record("4b2").passed
    assert bent_records[2] == base.record("4d").passed


def test_custom_grid_and_tolerance_flow_through():
    case = get_case("sinh_cosh")
    tiny = check_hyperbolic(case, grid=[(1.0, 0.5), (1.5, 0.2)], tol=1e-6)
    assert tiny["count"] == 2
    config = VerifyConfig(nx=5, nt=4, n_samples=6)
    report = verify_all(case, config)
    assert report.overall_pass
    assert "5x4" in report.record("4a").grid


def test_hyperbolic_lists_the_points_that_fail():
    # K/(x-1) divides by zero on the x = 1 column of the 20x20 triangle
    # only: the array walk stops there, and the point walk lists each one
    case = get_case("poisson_bessel")
    bent = dataclasses.replace(case, kernel=BinOp("/", case.kernel, parse("x-1")))
    grid = triangle_grid()
    out = check_hyperbolic(bent, grid)
    bad = [(x, t) for x, t in grid if x == 1.0]
    assert len(bad) == 20
    assert [(x, t) for x, t, _ in out["failures"]] == bad
    assert all("division by zero" in why for _, _, why in out["failures"])
    assert out["count"] + len(out["failures"]) == 400
    rec = verify_all(bent).record("4a")
    assert not rec.passed
    first = out["failures"][0]
    assert rec.detail == (
        f"20 points failed to evaluate; first at ({first[0]!r}, {first[1]!r}): {first[2]}"
    )

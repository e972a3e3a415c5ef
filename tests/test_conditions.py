import dataclasses
import math
import random

import numpy as np
import pytest

import transmute.conditions as conditions
import transmute.operators as operators
import transmute.quadrature as quadrature
from transmute.conditions import (
    CONDITION_IDS,
    MAX_POINTS,
    DECAY_DROP,
    EPS_SEQ,
    TRANSPORT_DROP,
    ConditionRecord,
    VerifyConfig,
    _limit_record,
    check_boundary_t0,
    check_diagonal,
    check_eigen,
    check_hyperbolic,
    check_vertex,
    sample_points,
    triangle_grid,
    verify_all,
)
from transmute.errors import AdmissibilityError, DomainError, NumericalError, TransmuteError, UsageError
from transmute.expr import BinOp, Jet2, Num, evaluate, evaluate_jet, parse
from transmute.kernels import COEFFICIENT_NAMES, corrupt_case, get_case, list_cases
from transmute.operators import _jet, _terms, apply
from transmute.quadrature import identity_error, identity_rows


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
    assert sample_points(case, 1) == [0.5 * (case.x_range[0] + case.x_range[1])]


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(nx=0), "at least one point"),
        (dict(n_samples=1), "two sample points"),
        (dict(nt=0), "at least one point"),
        (dict(tol_4a=0.0), "tol_4a"),
        (dict(tol_4a=math.nan), "tol_4a"),
        (dict(tol_4a=-1e-8), "tol_4a"),
        (dict(tol_4a=math.inf), "tol_4a"),
        (dict(tol_4a=-math.inf), "tol_4a"),
        (dict(n_samples=0), "two sample points"),
        (dict(nx=1, nt=MAX_POINTS + 1), "grid"),
        (dict(nx=2000, nt=2000), "2000x2000 grid"),
        (dict(nx=MAX_POINTS + 1, nt=1), "grid"),
        (dict(n_samples=MAX_POINTS + 1), "samples"),
    ],
)
def test_config_validation(kwargs, needle):
    with pytest.raises(UsageError, match=needle):
        VerifyConfig(**kwargs)


def test_point_budget_admits_its_own_bound():
    VerifyConfig(nx=256, nt=MAX_POINTS // 256, n_samples=MAX_POINTS)
    assert len(sample_points(get_case("sonin"), MAX_POINTS)) == MAX_POINTS
    with pytest.raises(UsageError, match="sample points exceed"):
        sample_points(get_case("sonin"), MAX_POINTS + 1)


def test_record_validation():
    with pytest.raises(UsageError, match="unknown condition id"):
        ConditionRecord("9z", "grid", 0.0, 0.0, 1e-8, True)
    with pytest.raises(NumericalError):
        ConditionRecord("4a", "grid", float("nan"), 0.0, 1e-8, True)
    with pytest.raises(NumericalError):
        ConditionRecord("4a", "grid", -1.0, 0.0, 1e-8, True)
    with pytest.raises(NumericalError, match="mean"):
        ConditionRecord("4a", "grid", 0.0, math.inf, 1e-8, True)


def test_hyperbolic_residual_small_on_catalog_case():
    out = check_hyperbolic(get_case("poisson_bessel"))
    assert out["max"] <= 1e-12
    assert out["mean"] <= out["max"]
    assert out["count"] == 400
    assert out["failures"] == []


def test_hyperbolic_terms_balance():
    # the six terms balance to rounding on a catalog kernel; with c0 shifted
    # by 0.1, the raw residual |lhs - rhs| is the extra term 0.1 |K|
    case = get_case("sonin")
    x, t = np.array([1.4, 1.9]), np.array([0.6, 0.3])
    raw, scaled = conditions._hyperbolic_residuals(case, x, t)
    assert raw.shape == scaled.shape == (2,)
    assert np.all(raw <= 1e-12) and np.all(scaled <= raw)
    raw, _ = conditions._hyperbolic_residuals(corrupt_case(case, "c0", 0.1), x, t)
    k = evaluate(case.kernel, {**case.params, "x": x, "t": t})
    assert raw == pytest.approx(0.1 * np.abs(k), rel=1e-10)


@pytest.mark.parametrize(
    "run,needle",
    [
        (lambda case: check_diagonal(case, []), "diagonal check needs sample points"),
        (lambda case: check_boundary_t0(case, []), "needs sample points and an eps sequence"),
        (lambda case: check_boundary_t0(case, eps_seq=[]), "needs sample points and an eps sequence"),
        (lambda case: check_vertex(case, []), r"vertex check needs \(eps, delta\) pairs"),
        (lambda case: check_vertex(case, [(0.1, 0.01), (0.05, 0.05)]), "0 < delta < eps, got"),
    ],
    ids=["diagonal_no_xs", "boundary_no_xs", "boundary_no_eps", "vertex_no_pairs", "vertex_delta_eps"],
)
def test_limit_checks_refuse_empty_or_inverted_inputs(run, needle):
    with pytest.raises(UsageError, match=needle):
        run(get_case("sonin"))


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
    # 4b2's raw residual is |2 a (dK/dx + dK/dt) + (b1 - b0) K| and its record
    # divides it by 1 + |K|: with K = 1, both slopes 1/4 and b1 - b0 = 0.1 that
    # is 1.1 raw and 0.55 scaled at every point
    bent = corrupt_case(get_case("poisson_bessel"), "b1", 0.1)
    shape = (len(conditions.DELTA_REL), 2)
    jet = Jet2(np.ones(shape), dx=np.full(shape, 0.25), dt=np.full(shape, 0.25))
    rec = check_diagonal(bent, [1.3, 2.1], jet=jet)[1]
    assert rec.grid.endswith("raw final 1.100e+00")
    assert rec.max_residual == rec.mean_residual == pytest.approx(0.55, rel=1e-15)
    rec = check_diagonal(get_case("poisson_bessel"), [1.3, 2.1])[1]
    assert rec.passed and rec.max_residual <= 1e-5


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
    # one eps given twice: no spread in log eps to fit a slope over
    assert check_vertex(get_case("sonin"), [(0.1, 0.01), (0.1, 0.01)]).decay_slope is None


def test_vertex_label_says_delta_is_eps_squared_only_when_it_is():
    case = get_case("sonin")
    assert check_vertex(case).grid == "13 pairs, delta = eps^2, eps down to 2.441e-05"
    assert check_vertex(case, [(0.1, 0.1 * 0.1), (0.02, 0.02 * 0.02)]).grid == (
        "2 pairs, delta = eps^2, eps down to 2.000e-02")
    given_pairs = check_vertex(case, [(0.1, 0.05), (0.05, 0.01), (0.02, 0.001)]).grid
    assert given_pairs == "3 pairs (eps, delta) as given, down to (2.000e-02, 1.000e-03)"


def _limit_records(name, params=None, **fields):
    case = dataclasses.replace(get_case(name, params), **fields)
    rec_4b2 = check_diagonal(case)[1]
    return rec_4b2, check_boundary_t0(case), check_vertex(case)


def test_limit_records_at_the_rounding_floor():
    # at nu = 1/2 the transport and boundary residuals vanish exactly
    for rec in _limit_records("poisson_bessel", {"nu": 0.5})[:2]:
        assert rec.passed and not rec.informational
        assert rec.max_residual == rec.mean_residual == 0.0
        assert rec.decay_slope is None
        assert rec.detail == "at rounding floor"


def test_limit_records_decaying_pass_and_fixed_drop_failure():
    rec_4b2, _, rec_4d = _limit_records("poisson_bessel", {"nu": 0.5317})
    assert rec_4b2.passed and rec_4b2.detail == ""
    assert rec_4b2.tolerance == 0.1
    assert rec_4b2.decay_slope == pytest.approx(1.0206, abs=1e-4)
    # the vertex product decays like eps^(2 nu - 1): too slowly for the fixed drop
    assert not rec_4d.passed and not rec_4d.informational
    assert rec_4d.tolerance == 1e-3 and rec_4d.limit is None
    assert rec_4d.detail == (
        "final 4.141e-01 above 0.001 x initial 6.970e-01;"
        f" slope {rec_4d.decay_slope!r} <= 0.1"
    )
    assert rec_4d.decay_slope == pytest.approx(2 * 0.5317 - 1.0, abs=1e-4)


def test_limit_record_growing_tail():
    rec_4d = _limit_records("vekua_telegraph", kernel_smooth=parse("1/x"))[2]
    assert not rec_4d.passed and not rec_4d.informational
    assert rec_4d.detail.startswith("tail not decreasing; final 4.096e+04 above 0.001 x initial")
    assert rec_4d.detail.endswith(f"; slope {rec_4d.decay_slope!r} <= 0.1")


def test_limit_record_informational_vertex():
    rec_4d = _limit_records("vekua_telegraph")[2]
    assert rec_4d.passed and rec_4d.informational
    assert rec_4d.limit == rec_4d.max_residual
    assert rec_4d.detail == f"vertex product tends to {rec_4d.limit!r}, not 0"
    assert rec_4d.tolerance == 1e-3


def test_only_4d_passes_a_settled_finite_limit():
    # the same settled values: 4b2 and 4c fail on their drop and slope, 4d
    # passes them as informational; a limit that has not settled fails 4d
    settled = [0.5] * len(EPS_SEQ)
    for cond_id, drop in (("4b2", TRANSPORT_DROP), ("4c", DECAY_DROP)):
        rec = _limit_record(cond_id, "g", EPS_SEQ, settled)
        assert (rec.passed, rec.informational, rec.limit, rec.tolerance) == (False, False, None, drop)
        assert rec.detail == f"final 5.000e-01 above {drop:g} x initial 5.000e-01; slope 0.0 <= 0.1"
    rec = _limit_record("4d", "g", EPS_SEQ, settled)
    assert (rec.passed, rec.informational, rec.limit, rec.tolerance) == (True, True, 0.5, DECAY_DROP)
    assert rec.detail == "vertex product tends to 0.5, not 0" and rec.decay_slope == 0.0
    drifting = settled[:-1] + [0.5 * (1.0 - 4e-6)]
    assert not _limit_record("4d", "g", EPS_SEQ, drifting).passed
    assert not _limit_record("4d", "g", EPS_SEQ[:2], settled[:2]).passed  # too short to settle


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


# The telegraph's length scale is 1/omega, but the limit checks sample at the
# fixed eps = 0.1 * 2^-k, so their verdict moves with omega while the kernel
# stays right: the ladder defect of ROADMAP item 1, whose fix must flip the xfails.
def _telegraph(omega):
    return get_case("vekua_telegraph", {"mu": 1.0, "omega": omega})


@pytest.mark.parametrize("omega", [2.0, 5.0, 10.0, 15.0, 20.0, 40.0])
def test_the_telegraph_kernel_is_right_at_every_omega(omega):
    case = _telegraph(omega)
    assert identity_error(case) <= 1e-14
    report = verify_all(case)
    for rid in ("4a", "4b1", "4b2", "eigenA", "eigenB"):
        assert report.record(rid).passed, rid


@pytest.mark.parametrize("omega", [
    2.0, 5.0, 10.0, 20.0,
    pytest.param(15.0, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: 4c's final 1.2e-5 is above 1e-3 x its initial 3.5e-3")),
    pytest.param(40.0, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: 4d's tail, which starts at 0.65, is not decreasing")),
])
def test_the_telegraph_verdict_passes_at_every_omega(omega):
    assert verify_all(_telegraph(omega)).overall_pass


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
        case, kernel_smooth=BinOp("*", Num(scale), case.kernel_smooth)
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
    # K/(x-1), from W/(x-1), divides by zero on the x = 1 column of the
    # 20x20 triangle only: the array walk stops there, and the point walk
    # lists each one
    case = get_case("poisson_bessel")
    bent = dataclasses.replace(case, kernel_smooth=BinOp("/", case.kernel_smooth, parse("x-1")))
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


def _from_checks(case, cfg=VerifyConfig()):
    """verify_all's records built from the five public check_* calls, or the
    (type, message) of the first error they raise."""
    xs = sample_points(case, cfg.n_samples)
    try:
        hyp = check_hyperbolic(case, triangle_grid(cfg.nx, cfg.nt, cfg.x_max), tol=cfg.tol_4a)
        failures = hyp["failures"]
        rec_4a = ConditionRecord(
            id="4a",
            grid=f"{cfg.nx}x{cfg.nt} interior triangle, x <= {cfg.x_max:g}",
            max_residual=hyp["max"],
            mean_residual=hyp["mean"],
            tolerance=cfg.tol_4a,
            passed=hyp["max"] <= cfg.tol_4a and not failures,
            detail=(f"{len(failures)} points failed to evaluate;"
                    " first at ({!r}, {!r}): {}".format(*failures[0]) if failures else ""),
        )
        return (rec_4a, *check_diagonal(case, xs, cfg), check_boundary_t0(case, xs, None, cfg),
                check_vertex(case, None, cfg), *check_eigen(case, xs, cfg))
    except TransmuteError as exc:
        return type(exc), str(exc)


def _verified(case, cfg=None):
    try:
        return verify_all(case, cfg).records
    except TransmuteError as exc:
        return type(exc), str(exc)


_PINNED = {"gegenbauer": ("lambda", "p"), "cosh_1f2": ("alpha",)}


def _sweep_cases(seed, rounds=3):
    """Catalog cases at seeded parameters: each free one scaled by a
    factor in [0.5, 1.5), inadmissible draws skipped."""
    rng = random.Random(f"equivalence:{seed}")
    for name in list_cases():
        defaults = dict(get_case(name).params)
        for _ in range(rounds):
            params = {p: v if p in _PINNED.get(name, ()) else v * rng.uniform(0.5, 1.5)
                      for p, v in defaults.items()}
            try:
                yield get_case(name, params)
            except AdmissibilityError:
                pass


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_verify_all_equals_the_separate_checks(seed):
    # one kernel jet over the union of the 4a, 4b2, 4c and 4d points, f0 once
    # at t = EPS_SEQ, one f jet per eigen side: every record field equals the
    # separate calls' exactly, for each case and its six +0.1 corruptions
    cases = [get_case(n) for n in list_cases()] if seed is None else list(_sweep_cases(seed))
    assert len(cases) >= 9
    for case in cases:
        for bent in (case, *(corrupt_case(case, c, 0.1) for c in COEFFICIENT_NAMES)):
            assert _verified(bent) == _from_checks(bent), (bent.name, dict(bent.params))


def _spy_walks(monkeypatch):
    """[(node, "jet" or "value", points)] of every evaluate and evaluate_jet call
    that the checks, the eigen residuals and the identity rows make; the
    transform's walks at the rule's nodes, which bind t, are left out."""
    walks = []

    def spy(module, name):
        real = getattr(module, name)

        def walk(node, *args):
            if name == "evaluate_jet":
                walks.append((node, "jet", np.broadcast(args[0], args[1]).size))
            elif not (module is quadrature and "t" in args[0]):
                walks.append((node, "value", np.broadcast(args[0].get("x", 0.0), args[0].get("t", 0.0)).size))
            return real(node, *args)
        monkeypatch.setattr(module, name, walk)

    for module in (conditions, operators, quadrature):
        for name in ("evaluate", "evaluate_jet"):
            if hasattr(module, name):
                spy(module, name)
    return walks


def _of(walks, node):
    return [(kind, size) for n, kind, size in walks if n is node]


@pytest.mark.parametrize("name", list_cases())
def test_verify_all_walks_k_once_and_f0_once(name, monkeypatch):
    # one jet of K over all 773 default points; one jet of f0 over t = the 20
    # samples then EPS_SEQ, serving eigen A, 4c and 4d; one jet of f1 over the
    # samples, whose values identity_error then reads on the same case object
    case = get_case(name)
    walks = _spy_walks(monkeypatch)
    verify_all(case)
    identity_error(case)
    assert _of(walks, case.kernel) == [("jet", 773)]
    assert _of(walks, case.f0) == [("jet", 20 + len(EPS_SEQ))]
    assert _of(walks, case.f1) == [("jet", 20)]


def test_identity_rows_on_a_fresh_case_walks_f1_once_as_values(monkeypatch):
    walks = _spy_walks(monkeypatch)
    for name in list_cases():
        case = get_case(name)
        identity_rows(case, sample_points(case))
        assert _of(walks, case.f1) == [("value", 20)], name
        assert case._walks is None, name


def test_a_copy_or_other_abscissae_walk_afresh(monkeypatch):
    case = get_case("sonin")
    walks = _spy_walks(monkeypatch)
    verify_all(case)
    del walks[:]
    # the slot is no field: a replaced copy equals the case and reads alike, and
    # neither it nor a corrupted copy holds a walk
    copies = (dataclasses.replace(case), corrupt_case(case, "c1", 0.1))
    assert copies[0] == case and repr(copies[0]) == repr(case)
    for copy in copies:
        assert copy._walks is None
        identity_error(copy)
        verify_all(copy)
        assert _of(walks, copy.f1) == [("value", 20), ("jet", 20)]
        assert _of(walks, copy.f0) == [("jet", 20 + len(EPS_SEQ))]
        del walks[:]
    # abscissae other than those walked: each caller walks on its own
    xs = [0.5, 1.0]
    check_eigen(case, xs)
    identity_rows(case, xs)
    assert _of(walks, case.f0) == [("jet", 2)]
    assert _of(walks, case.f1) == [("jet", 2), ("value", 2)]
    del walks[:]
    fresh = get_case("sonin")
    verify_all(fresh, VerifyConfig(n_samples=7))
    identity_error(fresh)
    assert _of(walks, fresh.f0) == [("jet", 7 + len(EPS_SEQ))]
    assert _of(walks, fresh.f1) == [("jet", 7), ("value", 20)]
    # the walks are read-only: no caller can change what the next one reads
    for jet in case._walks[1:]:
        with pytest.raises(ValueError):
            jet.value[0] = 0.0


def test_an_f0_whose_jet_fails_at_an_eps_point_gives_the_separate_checks(monkeypatch):
    # 1e300/sqrt(t) has a finite value at every eps but its second derivative
    # overflows below t = 4e-4: 4c and 4d walk f0 on their own, eigen A f0's jet
    case = dataclasses.replace(get_case("vekua_telegraph"), f0_smooth=parse("1e300/sqrt(t)"))
    with pytest.raises(DomainError):
        evaluate_jet(case.f0, 0.0, np.array(EPS_SEQ), case.params)
    walks = _spy_walks(monkeypatch)
    records = _verified(case)
    assert _of(walks, case.f0) == [("jet", 20 + len(EPS_SEQ)), ("value", len(EPS_SEQ)),
                                   ("value", len(EPS_SEQ)), ("jet", 20)]
    assert records == _from_checks(dataclasses.replace(case))
    assert records[-2:] == _old_eigen(case, sample_points(case))
    assert [r.passed for r in records] == [True, True, True, False, False, False, True]


def _old_eigen(case, xs):
    """check_eigen as it was with two walks of f per operator: apply's jet,
    and evaluate for lam f, each operator on its own.  The residual is
    |A f - lam f| / (1 + max |term|) over A f's three terms and lam f."""
    def stats(op, f, lam):
        s = np.array(xs)
        lhs = apply(op, f, s, case.params)
        terms = _terms(op, _jet(f, op.var, s, case.params), s, case.params)
        target = lam * evaluate(f, {**case.params, op.var: s}) if lam else 0.0
        scale = np.max(np.abs(np.broadcast_arrays(*terms, target)), axis=0)
        r = np.abs(lhs - target) / (1.0 + scale)
        return float(r.max()), math.fsum(r.tolist()) / len(r)

    shift = case.eigen_shift
    out = []
    for cond_id, op, f, shifted in (
        ("eigenA", case.opA, case.f0, shift and (shift.opA, shift.lam_a)),
        ("eigenB", case.opB, case.f1, shift and (shift.opB, shift.lam_b)),
    ):
        worst, mean = stats(op, f, case.lam)
        desc = f"lambda={case.lam:g}"
        if shifted:
            w2, m2 = stats(shifted[0], f, shifted[1])
            worst, mean = max(worst, w2), 0.5 * (mean + m2)
            desc += f", shifted lambda={shifted[1]:g}"
        out.append(ConditionRecord(
            id=cond_id, grid=f"{len(xs)} points in [{xs[0]:g}, {xs[-1]:g}]; {desc}",
            max_residual=worst, mean_residual=mean, tolerance=1e-8, passed=worst <= 1e-8))
    return tuple(out)


@pytest.mark.parametrize("seed", [None, 1])
def test_shared_f_jet_changes_no_eigen_bit(seed):
    cases = [get_case(n) for n in list_cases()] if seed is None else list(_sweep_cases(seed))
    for case in cases:
        xs = sample_points(case)
        assert check_eigen(case) == _old_eigen(case, xs), case.name


@pytest.mark.parametrize("name,params", [
    ("cosh_1f2", {"beta": 8.0}),
    ("cosh_1f2", {"beta": 16.0}),
    ("cosh_1f2", {"mu": 8.0}),
    ("cosh_1f2", {"mu": 10.0}),
    ("sine_to_bessel", {"beta": 12.0}),
])
def test_eigen_residual_is_rounding_where_the_terms_cancel(name, params):
    # T f0 = f1 holds to rounding on these draws, but A f and B f are sums of
    # large terms that cancel: scaled by 1 + |lam f| alone (absolute at
    # lam = 0) they failed eigenB at 4e-8 .. 0.84, and eigenA too at mu = 10.
    # Scaled by 1 + max |term|, as 4a is, they are rounding.
    case = get_case(name, params)
    assert identity_error(case) <= 1e-14
    for record in check_eigen(case):
        assert record.passed and record.max_residual <= 1e-15, record


def test_kernel_failing_at_a_4c_point_fails_as_the_separate_checks():
    # K/(t - 0.05), from W/(t - 0.05), divides by zero at eps = 0.1/2, a 4c
    # point only: the union evaluation fails, and each check runs on its own
    case = get_case("sine_to_bessel")
    bent = dataclasses.replace(case, kernel_smooth=BinOp("/", case.kernel_smooth, parse("t-0.05")))
    got = _verified(bent)
    assert got == _from_checks(bent)
    assert got[0] is DomainError
    assert "division by zero" in got[1] and "t=0.05" in got[1]


def test_kernel_failing_at_a_4d_point_fails_as_the_separate_checks():
    # K/(x - 0.025), from W/(x - 0.025), divides by zero at the vertex pair
    # eps = 0.1/4 only: no 4a, 4b2 or 4c point has x = 0.025
    case = get_case("sonin")
    bent = dataclasses.replace(case, kernel_smooth=BinOp("/", case.kernel_smooth, parse("x-0.025")))
    got = _verified(bent)
    assert got == _from_checks(bent)
    assert got[0] is DomainError
    assert "division by zero" in got[1] and "x=0.025" in got[1]


def test_union_above_max_points_takes_the_per_check_path(monkeypatch):
    # 51200 grid points plus 18 x 1000 limit points exceed MAX_POINTS: no
    # evaluation may span the union, and the records stay the same
    cfg = VerifyConfig(nx=256, nt=200, n_samples=1000)
    assert cfg.nx * cfg.nt + 18 * cfg.n_samples > MAX_POINTS
    case = get_case("sinh_cosh")
    sizes = []
    real = conditions.evaluate_jet

    def counted(node, x, t, params):
        sizes.append(np.broadcast(x, t).size)
        return real(node, x, t, params)

    monkeypatch.setattr(conditions, "evaluate_jet", counted)
    got = verify_all(case, cfg).records
    assert max(sizes) <= MAX_POINTS
    monkeypatch.undo()
    assert got == _from_checks(case, cfg)

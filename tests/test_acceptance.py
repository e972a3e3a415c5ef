"""The ten shipping criteria, one test and one printed verdict line each.

Every test prints its own [PASS]/[FAIL] line through capsys.disabled() so
the verdicts land in the console regardless of capture settings, then
asserts, so a failed criterion is both visible and red.
"""

import json
import math
import time

import pytest

from transmute.cli import main
from transmute.conditions import (
    check_boundary_t0,
    check_eigen,
    check_hyperbolic,
    check_vertex,
    identity_error,
)
from transmute.expr import evaluate
from transmute.goursat import compare, problem_from_case, solve
from transmute.kernels import COEFFICIENT_NAMES, corrupt_case, get_case, list_cases
from transmute.quadrature import apply_transmutation, jacobi_rule

ALL_CASES = tuple(list_cases())


def _verdict(capsys, ok, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


def test_criterion_01_hyperbolic_residuals(capsys):
    """Condition (4.a) holds at 1e-8 on the 20x20 triangle for all cases."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ALL_CASES:
        worst = max(worst, check_hyperbolic(get_case(name))["max"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(capsys, ok,
             f"criterion 1: hyperbolic residual, 9 cases, 20x20 triangle "
             f"(max {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_identity_reproduction(capsys):
    """T f0 matches the closed-form f1 at 1e-8 over 20 points, order 64."""
    worst = {}
    for name in ALL_CASES:
        worst[name] = identity_error(get_case(name), n=64)
    bad = {k: v for k, v in worst.items() if v > 1e-8}
    _verdict(capsys, not bad,
             f"criterion 2: transform identity, 9 closed forms "
             f"(worst {max(worst.values()):.2e})")


def test_criterion_03_poisson_half_integer(capsys):
    """nu = 1/2 collapses the Poisson image to sqrt(2/pi) sin x."""
    case = get_case("poisson_bessel", {"nu": 0.5})
    worst = 0.0
    for k in range(10):
        x = 0.2 + (3.0 - 0.2) * k / 9.0
        want = math.sqrt(2.0 / math.pi) * math.sin(x)
        worst = max(worst, abs(apply_transmutation(case, x) - want))
    _verdict(capsys, worst <= 1e-12,
             f"criterion 3: Poisson nu=1/2 reduction to sine "
             f"(max abs gap {worst:.2e})")


def test_criterion_04_gegenbauer_constant(capsys):
    """beta=1, lambda=3, p=3 gives c0 = c1 = -56 and a vanishing residual."""
    case = get_case("gegenbauer", {"beta": 1.0, "lambda": 3.0, "p": 3.0})
    c0 = [evaluate(case.opA.c, {**case.params, "t": t}) for t in (0.1, 0.5, 0.9)]
    c1 = [evaluate(case.opB.c, {**case.params, "x": x}) for x in (0.3, 0.8)]
    residual = check_hyperbolic(case)["max_raw"]
    ok = (all(v == pytest.approx(-56.0, abs=1e-12) for v in c0 + c1)
          and residual <= 1e-12)
    _verdict(capsys, ok,
             f"criterion 4: Gegenbauer constant coefficients -56 "
             f"(raw 4.a residual {residual:.2e})")


def test_criterion_05_eigen_relations(capsys):
    """A f0 = lambda_A f0 and B f1 = lambda_B f1, shifted variants included."""
    worst = 0.0
    for name in ALL_CASES:
        rec_a, rec_b = check_eigen(get_case(name))
        worst = max(worst, rec_a.max_residual, rec_b.max_residual)
    _verdict(capsys, worst <= 1e-8,
             f"criterion 5: eigen relations incl. shifted pairs "
             f"(max residual {worst:.2e})")


def test_criterion_06_boundary_and_vertex(capsys):
    """(4.c) and (4.d) pass everywhere, with slopes; Vekua is informational."""
    ok = True
    slopes = []
    for name in ALL_CASES:
        rec_c = check_boundary_t0(get_case(name))
        rec_d = check_vertex(get_case(name))
        ok = ok and rec_c.passed and rec_d.passed
        if rec_c.decay_slope is not None:
            slopes.append(rec_c.decay_slope)
        if name == "vekua_telegraph":
            ok = ok and rec_d.informational and rec_d.limit is not None
        else:
            ok = ok and not rec_d.informational
    _verdict(capsys, ok and slopes,
             f"criterion 6: boundary/vertex decay, slopes "
             f"{min(slopes):.2f}..{max(slopes):.2f}, Vekua informational")


def test_criterion_07_goursat_solver(capsys):
    """Telegraph kernel at h=1/128 within 1e-3 and second-order in h."""
    case = get_case("vekua_telegraph")
    errs = []
    for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        problem = problem_from_case(case, X=2.0, h=h)
        errs.append(compare(solve(problem), case.kernel, case.params)["max"])
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    t0 = time.perf_counter()
    solve(problem_from_case(case, X=2.0, h=1.0 / 256.0))
    fine_time = time.perf_counter() - t0
    ok = (errs[-1] <= 1e-3
          and all(1.8 <= o <= 2.2 for o in orders)
          and fine_time < 30.0)
    _verdict(capsys, ok,
             f"criterion 7: Goursat telegraph solve "
             f"(err {errs[-1]:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}, "
             f"h=1/256 in {fine_time:.2f}s)")


def _moment(alpha, beta, k):
    # integral of (1-s)^alpha (1+s)^beta s^k over [-1,1], via s = (1+s) - 1;
    # the alternating sum cancels catastrophically in floats, so the oracle
    # runs at 40 digits and only then rounds
    import mpmath as mp

    with mp.workdps(40):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        total = mp.mpf(0)
        for j in range(k + 1):
            total += (
                mp.binomial(k, j)
                * (-1) ** (k - j)
                * mp.mpf(2) ** (a + b + j + 1)
                * mp.gamma(a + 1)
                * mp.gamma(b + j + 1)
                / mp.gamma(a + b + j + 2)
            )
        return float(total)


def test_criterion_08_quadrature_machinery(capsys):
    """Rules hit every moment of degree <= 2n-1 and the Beta weight sums."""
    worst = 0.0
    for alpha, beta in ((-0.5, 0.0), (0.5, 0.5), (1.5, 0.0)):
        for n in (1, 4, 9):
            rule = jacobi_rule(n, alpha, beta)
            for k in range(2 * n):
                got = math.fsum(
                    w * s ** k for s, w in zip(rule.nodes, rule.weights)
                )
                want = _moment(alpha, beta, k)
                scale = max(1.0, abs(want))
                worst = max(worst, abs(got - want) / scale)
        weight_sum = math.fsum(jacobi_rule(16, alpha, beta).weights)
        worst = max(worst, abs(weight_sum - _moment(alpha, beta, 0)))
    _verdict(capsys, worst <= 1e-12,
             f"criterion 8: Gauss-Jacobi moments and Beta weight sums "
             f"(worst gap {worst:.2e})")


def test_criterion_09_corruption_sensitivity(capsys):
    """Every single-coefficient +0.1 perturbation is caught by (4.a)."""
    weakest = math.inf
    for name in ALL_CASES:
        for coefficient in COEFFICIENT_NAMES:
            bent = corrupt_case(get_case(name), coefficient, 0.1)
            weakest = min(weakest, check_hyperbolic(bent)["max"])
    _verdict(capsys, weakest >= 1e-3,
             f"criterion 9: corruption sensitivity, 9 cases x 6 coefficients "
             f"(weakest response {weakest:.2e})")


def test_criterion_10_cli_contract(capsys, tmp_path):
    """Exit codes 0/1/2/3 and byte-identical JSON with --no-timestamp."""
    checks = [
        (["verify", "--case", "poisson_bessel", "--params", "nu=1"], 0),
        (["verify", "--case", "poisson_bessel", "--corrupt", "c1:+0.1"], 1),
        (["verify", "--case", "sonin", "--params", "mu=-2"], 2),
        (["verify", "--case", "poisson_bessel", "--x-max", "25",
          "--unsafe-range"], 3),
        (["apply", "--case", "vekua_telegraph", "--x", "0"], 2),
        (["catalog", "show", "nope"], 2),
        (["solve", "--case", "vekua_telegraph", "--solver-h", "0.03125"], 0),
    ]
    got = []
    with capsys.disabled():
        pass
    for argv, want in checks:
        code = main(list(argv))
        got.append((argv[0], code, want))
    capsys.readouterr()  # swallow the accumulated command output

    blobs = []
    for k in (0, 1):
        out = tmp_path / f"criterion10-{k}.json"
        assert main(["verify", "--case", "lowndes", "--format", "json",
                     "--no-timestamp", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    json.loads(blobs[0].decode())

    ok = all(code == want for _, code, want in got) and blobs[0] == blobs[1]
    detail = ", ".join(f"{cmd}:{code}" for cmd, code, _ in got)
    _verdict(capsys, ok,
             f"criterion 10: CLI exit codes ({detail}) and deterministic JSON")

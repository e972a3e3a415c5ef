"""Per-layer probes: each library layer timed through its public functions.

    python3 bench/layers.py --seed N --seconds T

Runs in a fresh interpreter (started by ``bench/run.py --trace 1``), so
the Gauss-Jacobi rule cache starts empty and the first rule of each key
is genuinely cold. Inputs are the workloads' own: the first round of the
catalog_sweep draws, the first goursat_ladder draw, and CLI commands of
the cli_cold mix. Like the end-to-end times, every timing is reported at
the reference host speed: each group of probes is scaled by REFERENCE_S
/ the mean of the host-speed probes run just before and after it. Prints
one line per probe and one line of the timings as measured, then a JSON
object of metrics as the last stdout line.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

from hostspeed import REFERENCE_S, probe
from tracing import Tracer, now
import workloads as W
from transmute import (
    apply_transmutation,
    evaluate,
    evaluate_jet,
    get_case,
    identity_error,
    jacobi_rule,
    parse,
    problem_from_case,
    solve,
    specfun,
    to_string,
)
from transmute.conditions import sample_points, triangle_grid
from transmute.expr import BinOp, Call, Neg
from transmute.goursat import compare, diagonal_values
from transmute.operators import eigen_residual

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TIME_UNITS = ("ms", "us")
SPECFUN = {"besselj": specfun.bessel_j, "besseli": specfun.bessel_i, "hyp1f2": specfun.hyp1f2}


def clock(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    start = now()
    result = fn(*args, **kwargs)
    return result, now() - start


def median_of(repeats, fn):
    """Median over ``repeats`` calls of fn() -> seconds."""
    return statistics.median(fn() for _ in range(repeats))


def case_expressions(case):
    """Every expression tree a case carries."""
    ops = [case.opA, case.opB]
    if case.eigen_shift is not None:
        ops += [case.eigen_shift.opA, case.eigen_shift.opB]
    trees = [case.kernel, case.kernel_smooth, case.f0, case.f0_smooth, case.f1]
    return trees + [getattr(op, slot) for op in ops for slot in "abc"]


def calls_in(node, names):
    """Call nodes of the given function names, outermost first."""
    if isinstance(node, Call):
        found = [node] if node.name in names else []
        for arg in node.args:
            found += calls_in(arg, names)
        return found
    if isinstance(node, BinOp):
        return calls_in(node.left, names) + calls_in(node.right, names)
    if isinstance(node, Neg):
        return calls_in(node.arg, names)
    return []


def specfun_arguments(cases):
    """{function: [argument tuples]} that evaluating f0, f1 and K passes to specfun.

    f0 and f1 run over the case's sample abscissae and K over the 20x20
    triangle, as in the sweep's checks.
    """
    args = {name: [] for name in SPECFUN}
    for case in cases:
        xs = sample_points(case, 20)
        for expr, var in ((case.f0, "t"), (case.f1, "x"), (case.kernel, "xt")):
            points = triangle_grid() if var == "xt" else [(s, s) for s in xs]
            for call in calls_in(expr, SPECFUN):
                for x, t in points:
                    bind = {**case.params, "x": x, "t": t}
                    args[call.name].append(tuple(evaluate(a, bind) for a in call.args))
    return args


def probe_quadrature(cases, rng, out):
    keys = list(dict.fromkeys(W.rule_key(c) for c in cases))
    cold = [clock(jacobi_rule, *key)[1] for key in keys]
    out["quadrature.jacobi_rule.cold_ms"] = 1e3 * statistics.fmean(cold)
    key256 = (256, rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
    out["quadrature.jacobi_rule.cold_ms_n256"] = 1e3 * clock(jacobi_rule, *key256)[1]
    warm = [median_of(5, lambda k=k: clock(jacobi_rule, *k)[1]) for k in keys]
    out["quadrature.jacobi_rule.warm_us"] = 1e6 * statistics.fmean(warm)
    print(f"jacobi_rule: {len(keys)} sweep keys cold {[round(1e3 * c, 1) for c in cold]} ms;"
          f" n=256 at ({key256[1]:.3f}, {key256[2]:.3f})")
    apply_ms = [median_of(3, lambda c=c: clock(apply_transmutation, c, sum(c.x_range) / 2, 64)[1])
                for c in cases]
    out["quadrature.apply_transmutation.ms"] = 1e3 * statistics.fmean(apply_ms)
    out["quadrature.identity_error.max"] = max(identity_error(c, n=64) for c in cases)


def probe_expr(cases, out):
    corpus = [to_string(e) for c in cases for e in case_expressions(c)]
    per = median_of(5, lambda: sum(clock(parse, s)[1] for s in corpus) / len(corpus))
    out["expr.parse.us_per_expr"] = 1e6 * per
    grid = triangle_grid()

    def walk(fn):
        return sum(clock(fn, c)[1] for c in cases) / (len(cases) * len(grid))

    def values(case):
        for x, t in grid:
            evaluate(case.kernel, {**case.params, "x": x, "t": t})

    def jets(case):
        for x, t in grid:
            evaluate_jet(case.kernel, x, t, case.params)

    out["expr.evaluate.us_per_point"] = 1e6 * median_of(3, lambda: walk(values))
    out["expr.evaluate_jet.us_per_point"] = 1e6 * median_of(3, lambda: walk(jets))
    per_case = {c.name: round(1e6 * clock(jets, c)[1] / len(grid), 1) for c in cases}
    print(f"evaluate_jet us/point over the 20x20 triangle, per case: {per_case}")


def probe_specfun(cases, out):
    for name, calls in specfun_arguments(cases).items():
        fn = SPECFUN[name]

        def batch(fn=fn, calls=calls):
            start = now()
            for a in calls:
                fn(*a)
            return (now() - start) / len(calls)

        metric = {"besselj": "bessel_j", "besseli": "bessel_i", "hyp1f2": "hyp1f2"}[name]
        out[f"specfun.{metric}.us_per_call"] = 1e6 * median_of(5, batch)
        print(f"specfun.{metric}: {len(calls)} sweep arguments")


def probe_conditions(draws, cases, out):
    out["kernels.get_case.ms"] = 1e3 * median_of(
        5, lambda: sum(clock(get_case, n, p)[1] for n, p in draws) / len(draws))
    tracer = Tracer(True)
    evaluated = failed_points = failed_verdicts = 0
    for case in cases:
        records, hyp = W.split_verify(case, tracer)
        evaluated += hyp["count"] + len(hyp["failures"])
        failed_points += len(hyp["failures"])
        failed_verdicts += sum(not r.passed for r in records)
    for name, (calls, total, _) in tracer.self_times().items():
        out[f"{name}.ms"] = 1e3 * total / calls
    out["conditions.points_evaluated"] = evaluated
    out["conditions.points_failed"] = failed_points
    out["conditions.verdicts_failed"] = failed_verdicts
    eig = []
    for c in cases:
        xs = sample_points(c, 20)
        eig.append(clock(eigen_residual, c.opA, c.f0, c.lam, xs, c.params)[1])
        eig.append(clock(eigen_residual, c.opB, c.f1, c.lam, xs, c.params)[1])
    out["operators.eigen_residual.ms"] = 1e3 * statistics.fmean(eig)


def probe_goursat(params, out):
    case = get_case("vekua_telegraph", params)
    tracer = Tracer(True)
    errors, points = W.ladder_errors(case, tracer)
    spans = tracer.self_times()
    for steps in W.LADDER:
        out[f"goursat.solve.ms.h{steps}"] = 1e3 * spans[f"goursat.solve.h{steps}"][1]
        problem = problem_from_case(case, X=W.LADDER_X, h=1.0 / steps)
        xs = [d * problem.h / 2.0 for d in range(2 * problem.steps + 1)]
        out[f"goursat.diagonal_values.ms.h{steps}"] = 1e3 * clock(diagonal_values, problem, xs)[1]
    out["goursat.lattice_points"] = points
    out["goursat.max_error.h1024"] = errors[-1]
    out["goursat.observed_order"] = W.observed_order(errors)
    problem = problem_from_case(case, X=W.LADDER_X, h=1.0 / 128)
    grid = solve(problem)
    stats, took = clock(compare, grid, case.kernel, problem.params)
    out["goursat.compare.us_per_point"] = 1e6 * took / stats["count"]
    print(f"goursat: telegraph {params}, errors {errors}, compare over {stats['count']} points")


def probe_cli(rng, root, out):
    cases = rng.sample(W.CASES, 2)
    mix = [("catalog", "list")] + [(v, "--case", c) for c in cases for v in ("verify", "apply")]
    mix.append(("solve", "--case", "vekua_telegraph"))
    imports, mains, walls = [], [], []
    for cmd in mix:
        spawned = now()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "cli_wrap.py"), *cmd, *W.CLI_FLAGS],
            cwd=root, capture_output=True, timeout=120,
        )
        walls.append(now() - spawned)
        if proc.returncode != W.CLI_EXPECTED_EXIT:
            raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        stamps = json.loads(proc.stderr.decode().strip().splitlines()[-1])
        imports.append(stamps["import_end"] - stamps["start"])
        mains.append(stamps["main_end"] - stamps["import_end"])
    out["cli.import_ms"] = 1e3 * statistics.median(imports)
    out["cli.main.ms"] = 1e3 * statistics.median(mains)
    out["cli.startup_share"] = sum(w - m for w, m in zip(walls, mains)) / sum(walls)
    print(f"cli: {len(mix)} wrapped processes, cases {cases}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    rng = random.Random(f"layers:{args.seed}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    draws = W.sweep_draws(args.seed, W.plan("catalog_sweep", args.seconds))[: len(W.CASES)]
    cases = [get_case(n, p) for n, p in draws]
    ladder = W.ladder_draws(args.seed, W.plan("goursat_ladder", args.seconds))
    groups = (
        (probe_quadrature, cases, rng),  # first, while every rule is cold
        (probe_expr, cases),
        (probe_specfun, cases),
        (probe_conditions, draws, cases),
        (probe_goursat, ladder[0]),
        (probe_cli, rng, ROOT),
    )
    out, raw = {}, {}
    probe()  # untimed warm-up of the host-speed probe
    for group, *group_args in groups:
        before = probe()
        metrics = {}
        group(*group_args, metrics)
        factor = 2.0 * REFERENCE_S / (before + probe())
        for name, value in metrics.items():
            if units.get(name) in TIME_UNITS:
                raw[name] = value
                value *= factor
            out[name] = value
    print("as measured: " + json.dumps(raw))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark harness at its smallest size.

    python3 bench/selfcheck.py

One op of each workload through the same op functions the client runs,
every correctness gate made to pass and to fail, the traced sweep's
split checks compared with verify_all, one short ``run.py`` whose result
line is checked against BENCHMARK.json, and ``run.py`` in a directory
without the library, which must fail without printing a result. Exits 1
if any check fails. Takes about half a minute; it is not part of the
repository's test suite.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from client import _cli_runner  # noqa: E402
from run import child_env, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from transmute import get_case, parse, verify_all  # noqa: E402
from transmute.kernels import corrupt_case  # noqa: E402

os.environ.update(child_env())
problems = []


def check(cond, what):
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        problems.append(what)


def sweep():
    ok, known, _ = W.sweep_op(("vekua_telegraph", {"mu": 1.0, "omega": 1.0}), Tracer(False))
    check(ok and not known, "catalog_sweep: one op at default telegraph passes")
    tracer = Tracer(True)
    ok, _, _ = W.sweep_op(("lowndes", dict(get_case("lowndes").params)), tracer)
    names = set(tracer.self_times())
    check(ok and {f"conditions.{c}" for c in ("check_hyperbolic", "check_diagonal",
          "check_boundary_t0", "check_vertex", "check_eigen")} <= names,
          "catalog_sweep: traced op passes and records the five check_* spans")
    for name in W.CASES:
        case = get_case(name)
        split, _ = W.split_verify(case, Tracer(False))
        check(split == verify_all(case).records, f"split check_* records equal verify_all ({name})")

    case = get_case("epd_bessel")
    broken = corrupt_case(case, "c1", 0.1)
    ok, known, detail = W.sweep_gate(verify_all(broken).records, 0.0)
    check(not ok and not known, f"sweep gate fails a corrupted operator as unexpected ({detail[:60]})")
    wrong_f1 = dataclasses.replace(case, f1=parse(f"2*({case.f1})"))
    ok, known, detail = W.sweep_gate(verify_all(case).records, W.identity_error(wrong_f1, n=64))
    check(not ok and not known, f"sweep gate fails a wrong image ({detail[:60]})")
    ok, known, detail = W.sweep_op(("poisson_bessel", {"nu": 0.81}), Tracer(False))
    check(not ok and known, f"sweep gate counts the decay-verdict defect as a known failure ({detail[:40]})")
    ok, known, detail = W.sweep_op(("poisson_bessel", {"nu": 0.534}), Tracer(False))
    check(not ok and known, f"sweep gate counts the defect with a slope below min_slope as known ({detail[:40]})")
    records = verify_all(get_case("poisson_bessel", {"nu": 0.81})).records
    rec = next(r for r in records if r.id == "4d")
    for what, bad in (
        ("a tail that does not decrease", dataclasses.replace(rec, detail="tail not decreasing; " + rec.detail)),
        ("a slope <= 0", dataclasses.replace(rec, decay_slope=-0.2)),
        ("a slope failure alone", dataclasses.replace(rec, detail="slope 0.05 <= 0.1")),
        ("a failed record outside 4b2/4c/4d", dataclasses.replace(rec, id="4a")),
    ):
        ok, known, _ = W.sweep_gate([bad if r is rec else r for r in records], 0.0)
        check(not ok and not known, f"sweep gate fails {what} as unexpected")


def ladder():
    ok, _, detail = W.ladder_op({"mu": 1.0, "omega": 1.0}, Tracer(False))
    check(ok, f"goursat_ladder: one op at default telegraph passes {detail}")
    check(W.ladder_gate([4e-6, 1e-6, 2.5e-7])[0], "ladder gate passes errors of order 2")
    check(not W.ladder_gate([4e-3, 1e-3, 2.5e-4])[0], "ladder gate fails an error above 1e-3")
    check(not W.ladder_gate([1e-6, 1e-6, 1e-6])[0], "ladder gate fails order 0")
    check(not W.ladder_gate([6.4e-5, 8e-6, 1e-6])[0], "ladder gate fails order 3")


def cli():
    for traced in (False, True):
        tracer = Tracer(traced)
        op = _cli_runner(tracer, ROOT)
        cmd = ["catalog", "list", *W.CLI_FLAGS]
        with tracer.span("op"):
            first = op(cmd, tracer)
            again = op(cmd, tracer)
        check(first[0] and again[0], f"cli_cold: one command passes twice (traced={traced})")
        if traced:
            check({"startup.interpreter", "startup.import_cli", "cli.main"} <= set(tracer.self_times()),
                  "cli_cold: traced op records interpreter, import and main spans")
        bad = op(["verify", "--case", "sonin", "--corrupt", "c1:+0.1", *W.CLI_FLAGS], tracer)
        check(not bad[0], f"cli gate fails an unexpected exit code ({bad[2][:50]})")
    seen = {}
    check(W.cli_gate(["x"], 0, b"{}", seen)[0], "cli gate passes JSON output")
    check(not W.cli_gate(["x"], 0, b"{\"a\": 1}", seen)[0], "cli gate fails output that changed")
    check(not W.cli_gate(["y"], 0, b"not json", seen)[0], "cli gate fails output that is not JSON")
    check(not W.cli_gate(["y"], 3, b"{}", seen)[0], "cli gate fails exit code 3")


def harness():
    check(tail([float(i) for i in range(20)]) == (9.0, 50.0, 20), "tail keeps ten samples beyond it")
    check(tail([1.0, 2.0]) == (2.0, 100.0, 2), "tail falls back to the maximum below 11 samples")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "goursat_ladder", "--seed", "7",
         "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, timeout=170)
    result = json.loads(proc.stdout.decode().splitlines()[-1]) if proc.returncode == 0 else {}
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["attempted"] == 1 and result["correct"]
          and set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "run.py prints one result line with every end-to-end metric for a one-op run")

    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = child_env()
    env.pop("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, capture_output=True, timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without the library exits non-zero and prints no result")
    shutil.rmtree(bare)


def main():
    sweep()
    ladder()
    cli()
    harness()
    print(f"{len(problems)} failed" if problems else "all self-checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

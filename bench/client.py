"""The client process of one workload run: a closed loop, one op at a time.

    python3 bench/client.py --workload W --seed N --seconds T --trace 0|1
                            [--setup-only] [--spans FILE]

``bench/run.py`` starts this in a fresh interpreter with ``src`` on
PYTHONPATH and BLAS/OpenMP threads pinned to 1. With ``--setup-only`` it
builds the inputs and prints the host-monotonic time at which the first
op could start, followed by three host-speed probes. Otherwise it runs every op, checks each against its
gate, and prints one JSON summary as its last stdout line. With
``--trace 1`` it also records spans around each library call and writes
them to ``--spans``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

from tracing import Tracer, now
import hostspeed
import workloads as W

BENCH = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120


def _cli_runner(tracer, root):
    """Op of cli_cold: one fresh CLI process, timed from spawn to exit."""
    seen = {}
    if tracer.enabled:
        prefix = [sys.executable, os.path.join(BENCH, "cli_wrap.py")]
    else:
        prefix = [sys.executable, "-m", "transmute.cli"]

    def op(cmd, tracer):
        spawned = now()
        proc = subprocess.Popen(
            prefix + cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return False, False, f"{' '.join(cmd)}: no exit within {CLI_TIMEOUT_S} s"
        if tracer.enabled:
            stamps = json.loads(err.decode().strip().splitlines()[-1])
            parent = tracer.current()
            tracer.add("startup.interpreter", spawned, stamps["start"], parent)
            tracer.add("startup.import_cli", stamps["start"], stamps["import_end"], parent)
            tracer.add("cli.main", stamps["import_end"], stamps["main_end"], parent)
        ok, detail = W.cli_gate(cmd, proc.returncode, out, seen)
        if not ok:
            detail = f"{' '.join(cmd)}: {detail}; stderr {err.decode()[-300:]!r}"
        return ok, False, detail

    return op


def _transform_hit_share(workload, inputs):
    """Share of transform calls whose rule key was already seen in the process."""
    if workload == "goursat_ladder":
        return 0.0  # the ladder makes no transform calls
    calls = 20  # identity_error and `apply` use 20 sample abscissae
    if workload == "cli_cold":
        applies = sum(1 for cmd in inputs if cmd[0] == "apply")
        return (calls - 1) / calls if applies else 0.0
    seen = set()
    hits = 0
    for name, params in inputs:
        key = W.rule_key(W.get_case(name, params))
        hits += calls if key in seen else calls - 1
        seen.add(key)
    return hits / (calls * len(inputs))


def _check_split_records(inputs):
    """In the traced sweep, the five check_* calls must rebuild verify_all."""
    for name, params in inputs[: len(W.CASES)]:
        case = W.get_case(name, params)
        split, _ = W.split_verify(case, Tracer(False))
        if split != W.verify_all(case).records:
            return f"{name} {params}: check_* records differ from verify_all"
    return ""


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    root = os.path.dirname(BENCH)

    inputs = W.build_inputs(args.workload, args.seed, args.seconds)
    ready = now()
    if args.setup_only:
        print(json.dumps({"ready": ready, "probes_s": [hostspeed.probe() for _ in range(3)]}))
        return 0

    tracer = Tracer(args.trace == 1)
    unexpected = []
    if tracer.enabled and args.workload == "catalog_sweep":
        mismatch = _check_split_records(inputs)
        if mismatch:
            unexpected.append(mismatch)
    op = {
        "catalog_sweep": W.sweep_op,
        "goursat_ladder": W.ladder_op,
        "cli_cold": _cli_runner(tracer, root),
    }[args.workload]

    latencies = []
    probes = [hostspeed.probe()]
    failures = []
    loop_start = now()
    for item in inputs:
        start = now()
        with tracer.span("op"):
            try:
                ok, known, detail = op(item, tracer)
            except Exception as exc:  # an op that raises is a failed op
                ok, known, detail = False, False, f"{type(exc).__name__}: {exc}"
        latencies.append(now() - start)
        probes.append(hostspeed.probe())
        if not ok:
            failures.append({"op": len(latencies) - 1, "input": item, "known": known, "detail": detail})
            if not known:
                unexpected.append(detail)
    wall = now() - loop_start

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    summary = {
        "attempted": len(latencies),
        "failed": len(failures),
        "unexpected": unexpected,
        "failures": failures,
        "latencies_s": latencies,
        "probes_s": probes,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "rule_cache_hit_share": _transform_hit_share(args.workload, inputs),
    }
    if tracer.enabled:
        summary["self_times"] = tracer.self_times()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

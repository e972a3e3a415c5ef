"""Benchmark of the transmute pipeline: catalog -> checks -> transform -> solver.

    python3 bench/run.py --workload catalog_sweep|goursat_ladder|cli_cold \\
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
measured with tracing off: set-up time as the median of several fresh
interpreters, then one closed-loop client process. With ``--trace 1`` it
prints every per-layer metric: the same client run untraced and traced
(the difference is the tracing overhead), self time per layer from the
traced spans, and ``bench/layers.py``'s probes. The last stdout line is
one JSON object: correct, attempted, failed and metrics. See
bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from hostspeed import REFERENCE_S
from tracing import layer_self_times, now

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("catalog_sweep", "goursat_ladder", "cli_cold")
SETUP_SAMPLES = 7
LAYERS = ("harness", "kernels", "conditions", "quadrature", "goursat", "expr", "startup", "cli")
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env):
    """(stdout lines, spawn stamp) of a child that must exit 0."""
    spawned = now()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return proc.stdout.decode().splitlines(), spawned


def run_client(args, env, trace, spans=None):
    argv = [os.path.join(BENCH, "client.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if spans:
        argv += ["--spans", spans]
    lines, _ = run_child(argv, env)
    return json.loads(lines[-1])


def setup_seconds(args, env):
    """Median time from spawning a fresh client to its first op being ready,
    each sample scaled to the reference host speed by the probes it ran next."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        lines, spawned = run_child(
            [os.path.join(BENCH, "client.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"], env)
        ready = json.loads(lines[-1])
        samples.append((ready["ready"] - spawned, statistics.median(ready["probes_s"])))
    return statistics.median(s * REFERENCE_S / p for s, p in samples), samples


def tail(latencies):
    """(value, percentile, samples): latency at the highest percentile with
    at least ten samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k] if n > 10 else ordered[-1], 100.0 * (k + 1) / n if n > 10 else 100.0, n


def at_reference_speed(latencies, probes):
    """Each op latency scaled by REFERENCE_S / the mean of the host-speed
    probes run just before and just after it."""
    return [lat * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, lat in enumerate(latencies)]


def end_to_end(args, env):
    run_child(["-c", "import transmute.cli"], env)  # untimed: bytecode caches filled
    setup, samples = setup_seconds(args, env)
    s = run_client(args, env, 0)
    raw = s["latencies_s"]
    lat = at_reference_speed(raw, s["probes_s"])
    tail_s, pct, n = tail(lat)
    print(f"setup_s samples as measured: {[round(t, 4) for t, _ in samples]},"
          f" median probe {[round(1e3 * p, 3) for _, p in samples]} ms")
    print(f"op_tail_ms is p{pct:.1f} of {n} samples; wall {s['wall_s']:.3f} s")
    print(f"times before scaling to the reference host speed (probe {1e3 * REFERENCE_S:g} ms):")
    print("as measured: " + json.dumps({
        "setup_s": statistics.median(t for t, _ in samples),
        "ops_per_s": s["attempted"] / sum(raw),
        "op_p50_ms": 1e3 * statistics.median(raw),
        "op_tail_ms": 1e3 * tail(raw)[0],
        "probe_ms": 1e3 * statistics.median(s["probes_s"]),
    }))
    metrics = {
        "setup_s": setup,
        "ops_per_s": s["attempted"] / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - s["failed"] / s["attempted"],
        "peak_rss_mb": s["peak_rss_mb"],
    }
    return s, metrics


def per_layer(args, env):
    plain = run_client(args, env, 0)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    s = run_client(args, env, 1, spans)
    lines, _ = run_child([os.path.join(BENCH, "layers.py"), "--seed", str(args.seed),
                          "--seconds", str(args.seconds)], env)
    for line in lines[:-1]:
        print(line)
    metrics = json.loads(lines[-1])

    layers = layer_self_times(s["self_times"])
    op_total = s["self_times"]["op"][1]
    print(f"self time per layer on {args.workload} (seed {args.seed}), spans in {spans}:")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {secs:9.3f} s  {100 * secs / op_total:5.1f} %")
    for name, (calls, total, self_s) in sorted(s["self_times"].items()):
        print(f"    {name:34s} calls {calls:6d}  total {total:9.3f} s  self {self_s:9.3f} s")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layers.get(layer, 0.0) / op_total
    traced, untraced = (sum(at_reference_speed(c["latencies_s"], c["probes_s"])) for c in (s, plain))
    metrics["trace.overhead_s"] = traced - untraced
    print(f"tracing overhead at the reference host speed: traced {traced:.3f} s - untraced {untraced:.3f} s"
          f" (as measured: {s['wall_s']:.3f} s - {plain['wall_s']:.3f} s)")
    metrics["quadrature.rule_cache.hit_share"] = s["rule_cache_hit_share"]
    s["unexpected"] += plain["unexpected"]
    return s, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "transmute", "__init__.py")):
        print(f"no library source at {os.path.join(ROOT, 'src', 'transmute')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = child_env()
    try:
        s, metrics = (per_layer if args.trace else end_to_end)(args, env)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    for f in s["failures"]:
        print(f"failed op {f['op']} ({'known defect' if f['known'] else 'UNEXPECTED'}):"
              f" {f['input']}: {f['detail']}")
    for msg in s["unexpected"]:
        print(f"unexpected: {msg}")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not s["unexpected"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

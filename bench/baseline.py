"""Write bench/BASELINE.json from a steadiness run plus one traced run per workload.

    python3 bench/steady.py --out steady.json
    python3 bench/baseline.py --steady steady.json --commit SHA

The end-to-end baseline is each metric's median and quartiles over the
steadiness runs, with the median as measured before scaling to the
reference host speed next to each time; the per-layer baseline is one
``--trace 1`` run per workload at seed 1. The commit is passed in because a benchmark
checkout need not be a git repository.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from hostspeed import REFERENCE_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PER_LAYER_SEED = 1
UNSCALED = "as measured: "  # layers.py's line of unscaled timings
# Layers predicted to stay flat on each workload whatever the planned
# optimisations (one vectorised evaluator; Golub-Welsch rules) do.
FLAT = {
    "catalog_sweep": ["goursat (no solve runs)", "startup (paid once, in set-up)"],
    "goursat_ladder": [
        "quadrature.jacobi_rule (one cached 32-point Legendre rule per process)",
        "specfun (only the reference kernel, about 5% of an op)",
        "conditions (no checks run)",
    ],
    "cli_cold": [
        "goursat.solve at h <= 1/256 (only h = 1/128 runs)",
        "quadrature.rule_cache across ops (every process starts cold)",
    ],
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--steady", required=True)
    ap.add_argument("--commit", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(args.steady, encoding="utf-8") as fh:
        steady = json.load(fh)
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, check=True).stdout.decode().strip()

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(PER_LAYER_SEED),
             "--seconds", str(spec["run_seconds"]), "--trace", "1"],
            cwd=ROOT, capture_output=True, check=True, timeout=600)
        lines = proc.stdout.decode().splitlines()
        traced = json.loads(lines[-1])
        unscaled = next(json.loads(ln[len(UNSCALED):]) for ln in lines if ln.startswith(UNSCALED))
        workloads[name] = {
            "why": w["why"],
            "predicted_flat": FLAT[name],
            "end_to_end": {
                r["metric"]: {k: r[k] for k in ("unit", "median", "q1", "q3", "spread", "bound", "runs",
                                                "unscaled_median")}
                for r in steady["summary"] if r["workload"] == name
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_unscaled": unscaled,
            "traced_run": {k: traced[k] for k in ("correct", "attempted", "failed")},
        }
    out = {
        "commit": args.commit,
        "seeds_end_to_end": sorted({r["seed"] for r in steady["runs"]}),
        "seed_per_layer": PER_LAYER_SEED,
        "reference_probe_ms": 1e3 * REFERENCE_S,
        "run_seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workloads": workloads,
    }
    with open(os.path.join(BENCH, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

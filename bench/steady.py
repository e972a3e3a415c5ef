"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed 1-10 and workload of
BENCHMARK.json (seeds in the outer loop, so machine noise spreads over
every workload), then prints, per workload and metric, the median, the
quartiles of ``statistics.quantiles(values, n=4)``, and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A
spread above its bound is flagged. The median of each time as measured,
before scaling to the reference host speed, is kept next to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)
UNSCALED = "as measured: "  # run.py's line of unscaled times


def summarize(spec, runs):
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            unscaled = [r["unscaled"][metric["name"]] for r in mine if metric["name"] in r["unscaled"]]
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
                "over_bound": spread > metric["bound"], "runs": len(values),
                "unscaled_median": statistics.median(unscaled) if unscaled else None,
            })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    runs = []
    for seed in SEEDS:
        for w in spec["workloads"]:
            name = w["name"]
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
            lines = proc.stdout.decode().splitlines()
            result = json.loads(lines[-1])
            unscaled = next(json.loads(ln[len(UNSCALED):]) for ln in lines if ln.startswith(UNSCALED))
            runs.append({"workload": name, "seed": seed, **result, "unscaled": unscaled, "log": lines[:-1]})
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    rows = summarize(spec, runs)
    print(f"{'workload':15s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for r in rows:
        flag = "  OVER BOUND" if r["over_bound"] else ""
        print(f"{r['workload']:15s} {r['metric']:12s} {r['median']:11.5g} {r['q1']:11.5g} {r['q3']:11.5g}"
              f" {r['spread']:7.4f} {r['bound']:6.2f}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

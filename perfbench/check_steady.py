#!/usr/bin/env python3
"""Steadiness check for the step benchmark.

    python3 perfbench/check_steady.py [--runs 5] [--sets 2] [--workloads a,b]

Run from the repository root.  Runs the BENCHMARK.json command with
--trace 0 for every workload, `--runs` times per set with a fresh seed
each time, for `--sets` sets (workloads interleaved so host drift hits
them alike).  For every end-to-end metric it prints each set's median and
interquartile range (IQR, as a share of the median), the pooled spread
over all runs, and whether the sets agree within the metric's bound:

  * each set's spread is within the bound (setup_s is exempt, as in the
    benchmark contract), and
  * no later set's median is worse than the first set's by more than the
    bound.

It also prints the bound the measured spread supports (three times the
largest spread seen, at least 0.01), which is how the bounds in
BENCHMARK.json were set.  Exits 1 when any metric disagrees or any run is
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """IQR as a share of the median (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    context = [json.loads(l[len("context "):]) for l in lines
               if l.startswith("context ")]
    result["steal_s"] = context[-1].get("host_steal_s") if context else None
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    # results[workload][set] = list of result dicts
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    incorrect = 0
    seed = args.seed_base
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                seed += 1
                r = run_once(spec["command"], w, seed, args.seconds)
                results[w][s].append(r)
                incorrect += not r["correct"]
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                    for m in metrics) + f", host steal {r['steal_s']} s",
                    flush=True)

    agree = incorrect == 0
    print()
    for w in workloads:
        print(w)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            sets = [[r["metrics"][name]["value"] for r in rs]
                    for rs in results[w]]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            pooled = spread([x for v in sets for x in v])
            worse = [sign * (med - meds[0]) / meds[0] if meds[0] else 0.0
                     for med in meds[1:]]
            ok = all(x <= bound for x in worse) and (
                name == "setup_s" or all(sp <= bound for sp in spreads))
            agree &= ok
            cells = "  ".join(f"med {med:.6g} iqr {sp:.3f}"
                              for med, sp in zip(meds, spreads))
            shift = max(worse, default=0.0)
            print(f"  {name:12s} {cells}  pooled iqr {pooled:.3f}  "
                  f"worst shift {shift:+.3f}  bound {bound}  "
                  f"supported {max(0.01, 3 * max(spreads + [pooled])):.3f}  "
                  f"{'ok' if ok else 'DISAGREE'}")
    if incorrect:
        print(f"{incorrect} incorrect runs")
    print("steady" if agree else "NOT steady")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

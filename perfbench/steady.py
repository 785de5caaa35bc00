#!/usr/bin/env python3
"""Steadiness check: runs workloads several times and reports the spread.

    python3 perfbench/steady.py --workload chstone-flows --runs 10 [--seconds S]
        [--first-seed N] [--workload ...]

Run from the root of a checkout.  Each run uses another seed (first-seed,
first-seed + 1, ...).  With several workloads, every round runs each of
them once and the order alternates from round to round, so slow drift of
the host does not line up with one workload or one seed.  For each
end-to-end metric it prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, (max - min) / median, and the metric's bound from
BENCHMARK.json.  A spread at or above a third of the bound is flagged;
the exit status is 1 if any spread is flagged or any run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def summarise(per_workload, bounds):
    ok = True
    for wl, results in per_workload.items():
        incorrect = sum(1 for r in results if not r["correct"])
        print("%s: %d runs, %d incorrect" % (wl, len(results), incorrect))
        if incorrect:
            ok = False
        names = list(results[0]["metrics"])
        print("  %-20s %12s %12s %12s %8s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and iqr >= bound / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(
                "  %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6s%s"
                % (name, med, q1, q3, iqr, rng, "-" if bound is None else "%.3g" % bound, flag)
            )
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    per_workload = {}
    seconds = args.seconds or bench["run_seconds"]
    for k in range(args.runs):
        seed = args.first_seed + k
        order = args.workload if k % 2 == 0 else list(reversed(args.workload))
        for wl in order:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("run failed: %s" % " ".join(cmd))
            result = last_json(out.stdout)
            per_workload.setdefault(wl, []).append(result)
            print("%s seed=%d correct=%s" % (wl, seed, result["correct"]), file=sys.stderr)
    return 0 if summarise(per_workload, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())

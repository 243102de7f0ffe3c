#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                                    [--seconds N] [--json out.json]

For each workload and metric it prints the median over the seeds, the
spread (distance between the first and third quartile as a share of the
median, as `statistics.quantiles(values, n=4)` gives them) and, for
end-to-end metrics, the bound from BENCHMARK.json. It exits non-zero if
any run fails or reports `correct: false`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            started = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - started
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
            runs.append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} ({took:.1f} s)", file=sys.stderr)
        if not runs:
            continue
        rows = {}
        print(f"\n{w} ({len(runs)} runs, {seconds} s each)")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            shown = f"bound {bound}" if bound is not None else ""
            print(f"  {name:<32} median {med:>16.4f} {first['unit']:<10} "
                  f"spread {spread:7.4f} {shown}{flag}")
            rows[name] = {"unit": first["unit"], "median": med, "spread": spread,
                          "values": values}
        out[w] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

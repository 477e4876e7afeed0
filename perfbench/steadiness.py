#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload (one
run at a time) and prints, per metric, the median and the spread: the
distance between the first and third quartile as a share of the median,
as `statistics.quantiles(values, n=4)` gives them. Run from the
repository root:

    python3 perfbench/steadiness.py [--seeds 10] [--workloads a,b] [--record out.json]

`--record` appends the medians and spreads, with the machine's available
parallelism, to the proofs in the given file; perfbench/steadiness.json
holds the proofs that earned the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for w in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{w} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect output\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
        summary[w] = {}
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            summary[w][name] = {"median": med, "spread": round(spread, 4), "values": v}
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w:18} {name:24} median {med:14.4f} spread {spread:7.2%} bound {bound}{flag}")
    record = {
        "available_parallelism": len(os.sched_getaffinity(0)),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "spread": "(q3 - q1) / median over the seeds, statistics.quantiles(n=4)",
        "workloads": summary,
    }
    print(json.dumps(record))
    if args.record:
        doc = {
            "note": "Run-to-run spread of every end-to-end metric, one proof per "
            "set of runs of the same code, from perfbench/steadiness.py.",
            "proofs": [],
        }
        if os.path.exists(args.record):
            with open(args.record) as f:
                doc = json.load(f)
        doc["proofs"].append(record)
        with open(args.record, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/tools/check.py determinism [--seed N]
        Runs every workload (untraced and traced) under GPM_THREADS=1 and
        GPM_THREADS=2 and requires identical determinism digests, i.e.
        bit-identical modeled seconds, makespans, cuts and every
        gpu.*/phase.*/mg.* count.

    python3 perfbench/tools/check.py steadiness
        Runs each workload ten times (seeds 1..10, untraced) and reports, per
        end-to-end metric, the median and the spread: the distance between
        the first and third quartiles (statistics.quantiles, n=4) as a share
        of the median, against the metric's bound in BENCHMARK.json.

Results are printed as JSON; --out writes them to a file as well.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10


def run(workload, seed, trace, threads=None):
    env = dict(os.environ)
    if threads is not None:
        env["GPM_THREADS"] = str(threads)
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-4000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = re.search(r"determinism-digest: (\w+)", p.stderr)
    return result, digest.group(1) if digest else None


def determinism(args):
    out = {}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            digests = {t: run(w, args.seed, trace, t)[1] for t in (1, 2)}
            same = digests[1] == digests[2] and digests[1] is not None
            ok &= same
            out[f"{w} trace={trace}"] = {"threads1": digests[1], "threads2": digests[2], "same": same}
            print(w, trace, digests, file=sys.stderr)
    return out, ok


def steadiness(_args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    ok = True
    for w in WORKLOADS:
        values = {m: [] for m in bounds}
        for seed in range(1, RUNS + 1):
            result, _ = run(w, seed, 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(w, seed, {m: v[-1] for m, v in values.items()}, file=sys.stderr)
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            steady = m == "setup_s" or spread < bounds[m] / 3
            ok &= steady
            rows[m] = {"median": med, "spread": spread, "bound": bounds[m],
                       "steady": steady, "values": vs}
        out[w] = rows
    return out, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("check", choices=["determinism", "steadiness"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    out, ok = (determinism if args.check == "determinism" else steadiness)(args)
    text = json.dumps({"check": args.check, "ok": ok, "results": out}, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

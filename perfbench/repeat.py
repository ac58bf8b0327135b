#!/usr/bin/env python3
"""Repeatability tool: run workloads over many seeds and judge the spread.

    python3 perfbench/repeat.py run --workloads engine_mem,sim_racked \
        --seeds 1-10 [--trace 0] [--seconds N] --out set_a.json
    python3 perfbench/repeat.py compare set_a.json set_b.json

`run` executes perfbench/run.py once per workload and seed, in sequence, and
prints for every metric the median, the quartiles and the spread (quartile
distance over median, as statistics.quantiles(values, n=4) gives them). A
spread above the metric's bound in BENCHMARK.json is marked FAIL, one above a
third of it (the tuning target) is marked WIDE. `compare` checks that a second
set of runs agrees with a first: every spread within its bound (setup_s
exempt), no median worse than the first set's by more than the bound, and the
same share of failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("inf")}


def run_set(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            elapsed = time.time() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["elapsed_s"] = seed, elapsed
            runs.append(result)
            print(f"{workload} seed={seed} {elapsed:.1f}s correct="
                  f"{result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
        results[workload] = runs
    report(results, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


def bounds_of(spec):
    return {m["name"]: m for m in spec["end_to_end"]}


def report(results, spec):
    bounds = bounds_of(spec)
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{failed_share(runs)}")
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name, {}).get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                mark = ("FAIL" if s["spread"] > bound else
                        "WIDE" if s["spread"] > bound / 3 else "ok")
            print(f"  {name:<20} median {s['median']:<14.6g} q1 "
                  f"{s['q1']:<14.6g} q3 {s['q3']:<14.6g} spread "
                  f"{s['spread']:.4f} {mark}")


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return f"{sum(r['failed'] for r in runs)}/{attempted}"


def compare(args):
    spec = load_spec()
    bounds = bounds_of(spec)
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        a, b = first[workload], second.get(workload)
        if b is None:
            print(f"{workload}: missing from the second set")
            ok = False
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if share_a != share_b:
            print(f"{workload}: failed share {share_a} vs {share_b}")
            ok = False
        for name, m in bounds.items():
            sa = summarize([r["metrics"][name]["value"] for r in a])
            sb = summarize([r["metrics"][name]["value"] for r in b])
            lower = m["better"] == "lower"
            worse = ((sb["median"] - sa["median"]) if lower else
                     (sa["median"] - sb["median"])) / sa["median"]
            verdict = "ok"
            if worse > m["bound"]:
                verdict, ok = "WORSE", False
            for s in (sa, sb):
                if name != "setup_s" and s["spread"] > m["bound"]:
                    verdict, ok = "SPREAD", False
            print(f"{workload:<15} {name:<17} {sa['median']:<12.6g} -> "
                  f"{sb['median']:<12.6g} worse {worse:+.4f} spreads "
                  f"{sa['spread']:.4f}/{sb['spread']:.4f} bound "
                  f"{m['bound']} {verdict}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--seconds", type=int, default=0,
                   help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = parser.parse_args()
    if args.mode == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())

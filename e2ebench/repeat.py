#!/usr/bin/env python3
"""Repeat-run summary for the end-to-end benchmark.

Runs the command in BENCHMARK.json several times per workload, each run
with another seed, and prints for every workload and metric the median,
the first and third quartiles (statistics.quantiles with n=4) and the
spread, (q3 - q1) / median, next to the metric's bound. Run it from the
repository root:

    python3 e2ebench/repeat.py --runs 10 --first-seed 1

Every run measures BENCHMARK.json's run_seconds, so the summary describes
the run length the bounds apply to. With --trace 1 it summarises the
per-layer metrics of traced runs instead.

A run that fails, prints a wrong answer or exits non-zero stops the script
with exit code 1.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    defs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in defs}

    rows = []
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics = run_once(bench["command"], w, seed, seconds, args.trace)
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{n}={m['value']:.6g}" for n, m in sorted(metrics.items()))
            print(f"# {w} seed {seed}: {shown}", file=sys.stderr, flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append((w, name, len(vs), med, q1, q3, spread, bounds.get(name)))

    out = [f"{args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
           f"{seconds} s per run, trace {args.trace}", "",
           "| workload | metric | n | median | q1 | q3 | spread | bound | spread <= bound/3 |",
           "|---|---|---|---|---|---|---|---|---|"]
    for w, name, n, med, q1, q3, spread, bound in rows:
        ok = "" if bound is None else ("yes" if spread <= bound / 3 else "NO")
        b = "" if bound is None else f"{bound:g}"
        out.append(f"| {w} | {name} | {n} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {b} | {ok} |")
    print("\n".join(out))


if __name__ == "__main__":
    main()

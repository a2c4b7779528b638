#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs every workload repeatedly, workloads interleaved, one seed per round,
then prints for each metric its median, quartiles and quartile spread
(IQR / median) against the metric's bound, flagging any spread over the
bound (and, as a warning, over a third of it). A held-out seed runs once per
workload and its values print beside the medians.

With --passes 2 every (round, workload) runs twice back to back with the
same seed, so the two passes see the same inputs and the same host
conditions; each pass gets its own spreads, and a metric whose second-pass
median is worse than the first by more than its bound is flagged. The
median of the host probe (a fixed memory-latency loop the benchmark times
before and after each run) prints per pass, so a shift of every time metric
at once can be checked against the host.

Run from the repository root:

    python3 perfbench/steady.py                  # 10 rounds, seeds 1..10
    python3 perfbench/steady.py --passes 2 --first-seed 401
    python3 perfbench/steady.py --rounds 5 --workloads serve_log_churn
    python3 perfbench/steady.py --trace 1 --rounds 3   # per-layer spreads

Exits 1 if any flag was raised or any op failed.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

PROBE = re.compile(r"# host probe (?:before|after), ms: ([0-9.]+)")


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probes = [float(m.group(1)) for m in map(PROBE.match, lines) if m]
    return result, wall, probes


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if not first:
        return 0.0
    d = (second - first) if better == "lower" else (first - second)
    return d / abs(first)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--passes", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--heldout", type=int, default=1000,
                    help="seed run once per workload beside the rounds (0: skip)")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seconds", type=float, default=0, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    passes = range(args.passes)

    values = {(w, p): {m["name"]: [] for m in metrics} for w in names for p in passes}
    probes = {(w, p): [] for w in names for p in passes}
    failed = {w: 0 for w in names}
    walls = []
    for r in range(args.rounds):
        seed = args.first_seed + r
        for w in names:
            for p in passes:
                res, wall, pr = run_once(cmd, w, seed, seconds, args.trace)
                walls.append(wall)
                failed[w] += res["failed"]
                probes[(w, p)].extend(pr)
                for m in metrics:
                    values[(w, p)][m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"round {r + 1}/{args.rounds} {w} seed {seed} pass {p + 1}: "
                      f"{wall:.1f} s, failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr)

    held = {}
    if args.heldout:
        for w in names:
            res, wall, _ = run_once(cmd, w, args.heldout, seconds, args.trace)
            walls.append(wall)
            failed[w] += res["failed"]
            held[w] = {k: v["value"] for k, v in res["metrics"].items()}

    flagged = 0
    for w in names:
        print(f"\n{w}  (failed ops over all runs: {failed[w]})")
        for p in passes:
            pr = probes[(w, p)]
            probe = f"{statistics.median(pr):.2f} ms" if pr else "none"
            print(f" pass {p + 1}, host probe median {probe}")
            if pr:
                print(f"  {'host probe ms (before, after)':<34} runs: "
                      + " ".join(f"{x:.3g}" for x in pr))
            print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6} {'held-out':>12}")
            for m in metrics:
                v = values[(w, p)][m["name"]]
                if len(v) < 2:
                    continue
                med, q1, q3, s = spread(v)
                bound = m.get("bound")
                flag = ""
                if bound is not None:
                    if s > bound:
                        flag = "  OVER BOUND"
                        flagged += 1
                    elif s > bound / 3:
                        flag = "  over a third"
                hv = held.get(w, {}).get(m["name"]) if p == 0 else None
                hs = f"{hv:12.4f}" if hv is not None else " " * 12
                bs = f"{bound:6.2f}" if bound is not None else " " * 6
                print(f"  {m['name']:<34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{s:8.3f} {bs} {hs}{flag}")
                print(f"  {'':<34} runs: " + " ".join(f"{x:.4g}" for x in v))
        if args.passes == 2:
            print(" pass 2 against pass 1 (share worse; flagged over the bound)")
            for m in metrics:
                a, b = values[(w, 0)][m["name"]], values[(w, 1)][m["name"]]
                if len(a) < 2 or "bound" not in m:
                    continue
                d = worse_by(statistics.median(a), statistics.median(b), m["better"])
                flag = ""
                if d > m["bound"]:
                    flag = "  PASSES DISAGREE"
                    flagged += 1
                print(f"  {m['name']:<34} {d:+8.3f} {m['bound']:6.2f}{flag}")
    print(f"\nruns: {len(walls)}, mean wall {statistics.mean(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    sys.exit(1 if flagged or any(failed.values()) else 0)


if __name__ == "__main__":
    main()

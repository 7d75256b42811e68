#!/usr/bin/env python3
"""Check that the benchmark repeats: two sets of runs of the same build.

    python3 perfbench/steady.py [--runs 10] [--workload tile-wall ...] [--seconds S]

For every workload in BENCHMARK.json it makes two sets of runs, each over
seeds 1..runs. The runs of the two sets alternate (A1 B1 A2 B2 ...), so a
spell of slow host time falls on both sets alike instead of on one. Per
end-to-end metric it prints the median and quartiles of each set, the
spread (quartile distance over the median) and the drift of set B's
median from set A's. It fails when any spread, setup_s's included,
exceeds the metric's bound; when either set's median is worse than the
other's by more than the bound, judged both ways; when the share of
failed operations differs between the sets; or when a virtual-time metric
differs between two runs of the same seed. Run it from the root of the
repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"steady: {' '.join(argv)} exited {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"steady: {workload} seed {seed} reported incorrect output")
    return res


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (distinct seeds)")
    ap.add_argument("--workload", action="append", help="workload to check (default: all)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in names:
        sets = [[], []]
        for seed in range(1, args.runs + 1):
            for runs in sets:
                runs.append(run_once(bench["command"], w, seed, args.seconds))
        print(f"\n{w}: {args.runs} seeds x 2 sets, {args.seconds} s each")
        print(f"  {'metric':22s} {'bound':>6s} {'median A [q1, q3]':>34s} {'spread':>7s}"
              f" {'median B [q1, q3]':>34s} {'spread':>7s} {'drift':>7s}")
        for name, m in metrics.items():
            cols, spreads = [], []
            for runs in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
                spreads.append(spread)
            med_a = statistics.median(r["metrics"][name]["value"] for r in sets[0])
            med_b = statistics.median(r["metrics"][name]["value"] for r in sets[1])
            drift = (med_b - med_a) / med_a
            # The gate must not depend on which set ran first: the larger of
            # the two medians over the smaller is judged against the bound.
            gap = max(med_a, med_b) / min(med_a, med_b) - 1
            bad = gap > m["bound"] or max(spreads) > m["bound"]
            if "virtual" in name:
                for a, b in zip(*sets):
                    if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                        bad = True
            ok = ok and not bad
            print(f"  {name:22s} {m['bound']:6.2f} {cols[0]:>34s} {spreads[0]:7.4f}"
                  f" {cols[1]:>34s} {spreads[1]:7.4f} {drift:+7.4f}{'  FAIL' if bad else ''}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        print(f"  failed share: {shares[0]:.6g} / {shares[1]:.6g}")
        ok = ok and shares[0] == shares[1]
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

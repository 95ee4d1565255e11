#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs two sets of untraced runs of every workload, alternating the sets run
by run (A, B, A, B, ...) so that slow drift of the host lands in both, each
run with its own seed. For every end-to-end metric it reports, per set, the
median and the spread (distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the median),
and the drift of set B's median against set A's in the metric's worse
direction. Each run's host record (nproc, GOMAXPROCS, CPU model, Go
version, commit, calibration loop time) is kept beside its numbers, so a
host that slowed down shows as such.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --out perfbench/STEADINESS.json

It exits 1 when a spread (setup_s excepted) or a drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    host = None
    for line in proc.stderr.splitlines():
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, host, result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=0, help="seconds per run (default: run_seconds)")
    ap.add_argument("--workloads", default="", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--out", default="", help="write the full record as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = []
    for i in range(args.runs):
        for s, base in (("A", 1000), ("B", 2000)):
            for w in workloads:
                code, host, result = run_once(w, base + i, seconds)
                runs.append({"set": s, "workload": w, "seed": base + i, "exit": code,
                             "host": host, "result": result})
                status = "ok" if code == 0 and result and result["correct"] else "FAILED"
                print(f"set {s} {w:10s} seed {base + i}: {status}", file=sys.stderr, flush=True)

    summary, ok = {}, True
    for w in workloads:
        summary[w] = {}
        for m in metrics:
            name = m["name"]
            sets = {}
            for s in ("A", "B"):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["set"] == s and r["workload"] == w and r["exit"] == 0 and r["result"]]
                sets[s] = vals
            row = {"bound": m["bound"], "better": m["better"]}
            for s, vals in sets.items():
                row[s] = {"values": vals,
                          "median": statistics.median(vals) if vals else None,
                          "spread": spread(vals) if len(vals) >= 2 else None}
            ma, mb = row["A"]["median"], row["B"]["median"]
            if ma and mb:
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                row["drift_worse"] = worse
                if worse > m["bound"]:
                    ok = False
            for s in ("A", "B"):
                sp = row[s]["spread"]
                if name != "setup_s" and (sp is None or sp > m["bound"]):
                    ok = False
            summary[w][name] = row
    failed = [r for r in runs if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
    if failed:
        ok = False

    print(f"{'workload':10s} {'metric':22s} {'bound':>6s} {'medA':>12s} {'sprA':>6s} {'medB':>12s} {'sprB':>6s} {'drift':>7s}")
    for w, rows in summary.items():
        for name, row in rows.items():
            def fmt(v, p):
                return f"{v:{p}}" if v is not None else "-"
            print(f"{w:10s} {name:22s} {row['bound']:6.2f} {fmt(row['A']['median'], '12.3f')} "
                  f"{fmt(row['A']['spread'], '6.3f')} {fmt(row['B']['median'], '12.3f')} "
                  f"{fmt(row['B']['spread'], '6.3f')} {fmt(row.get('drift_worse'), '+7.3f')}")
    print(f"failed runs: {len(failed)}; steady within bounds: {ok}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "runs_per_set": args.runs, "summary": summary,
                       "runs": runs, "steady": ok}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

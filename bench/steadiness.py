"""Steadiness of the end-to-end metrics: two sets of runs, taken one after the other.

    python3 bench/steadiness.py

Two sets of ten runs of every workload, each run one ``bench/run.py``
process of ``run_seconds``.  Set 1 runs seeds 1..10 and set 2 seeds
11..20, so the second set runs a whole set's time after the first.  For
each workload and end-to-end metric it prints each set's quartiles and
median, its spread (interquartile range over median) and the gap between
the set medians, next to the bound in BENCHMARK.json, and marks OVER every
spread or gap (in either direction) beyond the bound.  It also checks that
the share of failed jobs is the same in every run.  The runs are kept in
bench/out/steadiness.json; the exit code is 1 if anything was marked.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(line) if proc.returncode in (0, 1) else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "started": t0, "result": result}


def summarize(runs, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    sets = sorted({r["set"] for r in runs})
    for workload in (w["name"] for w in bench["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        shares = {r["result"]["failed"] / r["result"]["attempted"]
                  for r in mine if r["result"]}
        bad = [r for r in mine if r["exit"] != 0 or not r["result"].get("correct")]
        print(f"\n{workload}: {len(mine)} runs, failed share {sorted(shares)}"
              f"{'' if not bad else f', {len(bad)} runs incorrect or exited nonzero'}")
        ok &= not bad and len(shares) == 1
        print(f"  {'metric':14s} {'set':>3s} {'q1':>10s} {'median':>10s} {'q3':>10s}"
              f" {'spread':>7s} {'gap':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in mine
                        if r["set"] == s and r["result"]]
                if len(vals) < 2:
                    continue
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2
                medians.append(q2)
                gap = (q2 - medians[0]) / medians[0] if len(medians) > 1 else 0.0
                flag = "" if spread <= bound and abs(gap) <= bound else "  OVER"
                ok &= not flag
                print(f"  {name:14s} {s:3d} {q1:10.4g} {q2:10.4g} {q3:10.4g}"
                      f" {spread:7.3f} {gap:+7.3f} {bound:6.2f}{flag}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out = os.path.join(HERE, "out", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    seconds = bench["run_seconds"]
    runs = []
    for s in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            for i in range(RUNS):
                seed = s * RUNS + i + 1
                rec = run_once(workload, seed, seconds)
                rec["set"] = s + 1
                runs.append(rec)
                res = rec["result"]
                e2e = {k: round(v["value"], 4) for k, v in res.get("metrics", {}).items()}
                print(f"set {s + 1} {workload} seed {seed}: exit {rec['exit']} {e2e}",
                      flush=True)
                with open(out, "w") as fh:
                    json.dump({"seconds": seconds, "runs": runs}, fh, indent=1)
    return 0 if summarize(runs, bench) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of hopfact: seeded workloads, checked outputs, end-to-end metrics.

    python3 bench/run.py --workload exact-q --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload

Run from the root of a checkout; the program is imported from ``src``.
A run sets up (``setup_s``, measured in fresh processes), then repeats
rounds of its workload's job list, one job at a time, until the next round
would end after ``--seconds`` (at least three rounds).  With ``--trace 1``
untraced and traced rounds alternate, and the run reports per-layer
metrics and the tracing overhead instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--workload all`` prints the
whole output of each workload in turn, each ending in its JSON line.  The
exit code is 0 when every checked output was correct and no job outside
the known faults failed, 1 otherwise, and 2 when the program source is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as w  # noqa: E402  (the benchmark's own module, beside this file)

WORKLOADS = ("exact-q", "lattice-fp", "cli-oneshot")
MIN_ROUNDS = 3
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
WORKSPACE_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = bench_json()["run_seconds"]
    return args


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- set-up --------------------------------------------------------------------

class SetupProbes:
    """Set-up cost in fresh processes: import + verified load of ``paths``.

    The probes are spread over the run, between rounds, so that their
    median samples the machine over the whole run rather than its start.
    """

    def __init__(self, paths, want_objects):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC] + paths
        self.want_objects = want_objects
        self.times = []

    def probe(self):
        code, out, _ = w.run_child(self.argv, w.child_env(SRC), os.path.join(OUT, "setup.stderr"))
        if code != 0:
            raise SystemExit(f"bench: set-up probe exited {code}; see bench/out/setup.stderr")
        probe = json.loads(out)
        if probe["objects"] != self.want_objects:
            raise SystemExit(f"bench: set-up loaded {probe['objects']} objects, "
                             f"want {self.want_objects}")
        self.times.append(probe["setup_s"])

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.times)


def import_ms():
    """A fresh ``import hopfact.cli`` minus a bare interpreter start (medians)."""
    env = w.child_env(SRC)

    def wall(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf_counter() - t0

    bare = statistics.median(wall("pass") for _ in range(IMPORT_REPEATS))
    full = statistics.median(wall("import hopfact.cli") for _ in range(IMPORT_REPEATS))
    return (full - bare) * 1000.0


def timed_round(jobs, totals, recorder=None):
    """One round, after a collection outside the timed region; its seconds."""
    gc.collect()
    mark = recorder.start() if recorder else None
    t0 = perf_counter()
    res = w.run_round(jobs)
    t1 = perf_counter()
    if recorder:
        recorder.end(mark)
    totals.add(res)
    return t1 - t0


def run_rounds(jobs, seconds, totals, probes):
    """Whole rounds until the next one would end after ``seconds``, with the
    set-up probes spread between them."""
    times = []
    start = perf_counter()
    stride = 1
    while True:
        times.append(timed_round(jobs, totals))
        if len(times) == 1:
            stride = max(1, int(seconds / times[0] / SETUP_REPEATS))
        if len(times) % stride == 0 and len(probes.times) < SETUP_REPEATS:
            probes.probe()
        now = perf_counter()
        if len(times) >= MIN_ROUNDS and (now - start) + statistics.median(times) > seconds:
            return times


class LayerRecorder:
    """Per-round per-layer figures from the tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.rounds = []

    def start(self):
        return self.tracer.mark()

    def end(self, mark):
        t = self.tracer
        self_ms, calls = t.figures(mark)
        visited = t.enum_visited
        self.rounds.append({
            "linalg.field_ops.q": t.field_ops[0],
            "linalg.field_ops.fp": t.field_ops[1],
            "linalg.elim.calls": calls["linalg.elim"],
            "linalg.elim.self_ms": self_ms["linalg.elim"],
            "linalg.enum.calls": calls["linalg.enum"],
            "linalg.enum.self_ms": self_ms["linalg.enum"],
            "linalg.enum.visited": visited,
            "linalg.enum.kept": t.enum_kept,
            "linalg.enum.kept_ratio": t.enum_kept / visited if visited else 0.0,
            "hopf.verify.self_ms": self_ms["hopf.verify"],
            "hopf.build.self_ms": self_ms["hopf.build"],
            "action.verify.self_ms": self_ms["action.verify"],
            "convolution.build.self_ms": self_ms["convolution.build"],
            "convolution.identities.self_ms": self_ms["convolution.identities"],
            "convolution.lattice.self_ms": self_ms["convolution.lattice"],
            "ideals.core.self_ms": self_ms["ideals.core"],
            "ideals.spectrum.self_ms": self_ms["ideals.spectrum"],
            "ideals.factor.calls": calls["ideals.factor"],
            "ideals.factor.self_ms": self_ms["ideals.factor"],
            "ideals.semiprime.self_ms": self_ms["ideals.semiprime"],
            "lie.self_ms": self_ms["lie"],
            "cli.command.self_ms": self_ms["cli.command"],
            "cli.emit.self_ms": self_ms["cli.emit"],
            "gc.collections": t.gc_collections,
            "gc.pause_ms": t.gc_pause_s * 1000.0,
        })

    def medians(self):
        return {k: statistics.median(r[k] for r in self.rounds) for k in self.rounds[0]}


# -- one workload ----------------------------------------------------------------

def prepare(name, seed):
    """(plan, fixture files loaded at set-up)."""
    if name == "cli-oneshot":
        plan = w.CliPlan(seed, OUT)
        plan.write()
        return plan, [os.path.join(plan.dir, f) for f in sorted(os.listdir(plan.dir))]
    names = w.EXACT_Q_FIXTURES if name == "exact-q" else w.LATTICE_FP_FIXTURES
    plan_fn = w.exact_q_plan if name == "exact-q" else w.lattice_fp_plan
    return plan_fn(seed, ROOT), [os.path.join(w.fixture_dir(ROOT), f"{n}.json")
                                 for n in names]


def fixture_objects(paths):
    """Objects a load registers: one per file, two for a Hopf algebra file
    whose algebra is registered under the same name."""
    n = 0
    for p in paths:
        with open(p) as fh:
            obj = json.load(fh)
        n += 2 if ("group_table" in obj or "comul" in obj) else 1
    return n


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    plan, paths = prepare(args.workload, args.seed)

    import hopfact
    if not os.path.abspath(hopfact.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported hopfact from {hopfact.__file__}, not {SRC}")

    totals = w.RoundResult()
    if args.workload == "cli-oneshot":
        jobs = (w.cli_inprocess_plan(plan) if args.trace
                else w.cli_child_plan(plan, SRC, OUT))
    else:
        jobs = plan

    if not args.trace:
        probes = SetupProbes(paths, fixture_objects(paths))
        probes.probe()
        times = run_rounds(jobs, args.seconds, totals, probes=probes)
        setup_s = probes.median()
        if args.workload == "cli-oneshot":
            rss = totals.child_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": metric(setup_s, "s"),
                   "round_p50_s": metric(statistics.median(times), "s"),
                   "peak_rss_mb": metric(rss, "MB")}
        rounds = len(times)
    else:
        metrics, rounds = traced(args, jobs, paths, totals)
    return totals, metrics, rounds


def traced(args, jobs, paths, totals):
    """Untraced and traced rounds in turn, so that the overhead compares
    rounds run at nearly the same time; per-layer medians of the traced ones."""
    from tracer import Tracer
    from hopfact.workspace import Workspace
    tracer = Tracer()
    recorder = LayerRecorder(tracer)
    load_ms = []
    tracer.install()
    try:
        for _ in range(WORKSPACE_REPEATS):
            gc.collect()
            mark = tracer.mark()
            Workspace.load(paths, verify=True)
            load_ms.append(tracer.figures(mark)[0]["workspace.load"])
    finally:
        tracer.uninstall()
    untraced, traced_times = [], []
    start = perf_counter()
    while True:
        untraced.append(timed_round(jobs, totals))
        tracer.install()
        try:
            traced_times.append(timed_round(jobs, totals, recorder))
        finally:
            tracer.uninstall()
        pair = statistics.median(untraced) + statistics.median(traced_times)
        if len(untraced) >= MIN_ROUNDS and perf_counter() - start + pair > args.seconds:
            break
    write_trace(tracer, args)
    values = recorder.medians()
    values["workspace.load.self_ms"] = statistics.median(load_ms)
    values["workspace.fixtures"] = len(paths)
    values["cli.import_ms"] = import_ms()
    values["trace.overhead"] = statistics.median(traced_times) / statistics.median(untraced)
    units = {m["name"]: m["unit"] for m in bench_json()["per_layer"]}
    metrics = {k: metric(values[k], units[k]) for k in units}
    return metrics, len(untraced) + len(traced_times)


def write_trace(tracer, args):
    """All spans of the run as [layer, start_us, end_us, parent, busy_us]."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"layers": tracer.layers,
                   "spans": [[lid, round((s - t0) * 1e6), round((e - t0) * 1e6), parent,
                              round(busy * 1e6)]
                             for lid, s, e, parent, busy in tracer.spans]},
                  fh, separators=(",", ":"))


# -- entry points ----------------------------------------------------------------

def report(args, totals, metrics, rounds):
    correct = not totals.wrong
    for line in totals.wrong[:10]:
        print(f"bench: WRONG {line}", file=sys.stderr)
    for line in sorted(set(totals.errors))[:10]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}"
          f"  attempted {totals.attempted}  failed {totals.failed}"
          f"  correct {str(correct).lower()}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": totals.attempted,
                      "failed": totals.failed, "metrics": metrics}))
    if totals.unexpected:
        print(f"bench: {totals.unexpected} failed jobs outside the known faults",
              file=sys.stderr)
    return 0 if correct and not totals.unexpected else 1


def run_all(args):
    """Every workload in its own process, its output passed through;
    exit 1 if any of them exited non-zero."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv)
        status = 1 if proc.returncode else status
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfact", "__init__.py")):
        print(f"bench: no program source at {os.path.join(SRC, 'hopfact')}; "
              "run from the root of a hopfact checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    totals, metrics, rounds = run_workload(args)
    return report(args, totals, metrics, rounds)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CarbonEdge benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the carbonedge library plus the carbonedge_perf
workload binary) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs about --seconds seconds of repetitions
of the workload over a fixed pool of input sets. Every repetition is a
fresh `cold` process into an empty store directory followed by a fresh
`resume` process over that store; the directory is removed afterwards. A
repetition the hypervisor stole CPU time from is made again while the
run's time allows. The last line of stdout is one JSON object: with
--trace 0 the end-to-end metrics (timings are means over the pool),
with --trace 1 the per-layer metrics (from traced repetitions, each paired
with an untraced one on the same inputs).
Workloads, metrics and checks are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cdn_us", "serve_replay_cdn_us", "place_continent")
DEFAULT_SEED = 0
REP_TIMEOUT_S = 90
# Nominal seconds of one repetition on a 4-core host: --seconds divided by
# it fixes the repetition count before anything runs.
NOMINAL_REP_S = {"sweep_cdn_us": 5.0, "serve_replay_cdn_us": 2.5, "place_continent": 15.0}
# A repetition during which the hypervisor took more than STEAL_LIMIT of
# the time its vCPUs had work (steal in /proc/stat) timed the host, not the
# program: shared hosts go through minute-long spells of 50-75% steal that
# triple wall times. Such a repetition is made again on the same inputs
# while the run is on course to end within RETRY_BUDGET x --seconds.
STEAL_LIMIT = 0.10
RETRY_BUDGET = 1.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "resume_s": "s",
    "placements_per_s": "1/s",
    "events_per_s": "1/s",
    "window_p50_ms": "ms",
    "window_p97_ms": "ms",
    "decision_p50_ms": "ms",
    "decision_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "carbon_kg": "kg",
    "mean_rtt_ms": "ms",
    "served_ratio": "ratio",
}

PER_LAYER = {
    "carbon.add_region_ms": "ms",
    "carbon.syntheses": "count",
    "carbon.trace_cache.hits": "count",
    "geo.latency_build_ms": "ms",
    "geo.latency_entries": "count",
    "core.epoch_step.self_ms": "ms",
    "core.epoch_step.calls": "count",
    "core.place.self_ms": "ms",
    "core.place.calls": "count",
    "core.build_problem_ms": "ms",
    "core.migration_veto_ratio": "ratio",
    "solver.solve_ms": "ms",
    "solver.solve.self_ms": "ms",
    "solver.milp.self_ms": "ms",
    "solver.components": "count",
    "solver.exact_shards": "count",
    "solver.flow_shards": "count",
    "solver.heuristic_shards": "count",
    "solver.heuristic_share": "ratio",
    "solver.milp_nodes": "count",
    "sim.apps_placed": "count",
    "sim.apps_rejected": "count",
    "sim.migrations": "count",
    "sim.server_failures": "count",
    "sim.source_pull_ms": "ms",
    "serve.ingest.self_ms": "ms",
    "serve.window_flush.self_ms": "ms",
    "serve.ingest.accepted": "count",
    "serve.ingest.dropped": "count",
    "runner.cells": "count",
    "runner.busy_ratio": "ratio",
    "store.write.self_ms": "ms",
    "store.read.self_ms": "ms",
    "store.bytes_written": "B",
    "store.sweep.hits": "count",
    "store.write_failures": "count",
    "util.peak_lanes": "count",
    "obs.trace_overhead_ratio": "ratio",
    "obs.trace_coverage": "ratio",
}

# Serve counters recorded at the default seed (perfbench/reference/).
SERVE_COUNTERS = ("ingest_accepted", "apps_placed", "apps_rejected", "apps_expired_deferred",
                  "migrations", "migrations_skipped", "server_failures",
                  "app_downtime_epochs")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base if os.path.isabs(base) else os.path.join(ROOT, base), "perfbench")


def lanes(workload=None):
    """CARBONEDGE_THREADS for a workload. serve runs one cell on one lane:
    on a shared host its parallel sections wait on vCPUs the hypervisor has
    taken away, which swung window_p97_ms from 21 to 62 ms at 2 and 4
    lanes against 18 to 22 ms at 1. The sweep's cell parallelism is what
    that workload measures, so it keeps min(4, nproc)."""
    if workload == "serve_replay_cdn_us":
        return 1
    return min(4, os.cpu_count() or 1)


def build():
    """Configure (once) and build carbonedge_perf; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no {needed} at {ROOT}: not a CarbonEdge checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "carbonedge_perf", "-j", str(lanes())],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "carbonedge_perf")


def child_env(workload):
    env = dict(os.environ)
    env["CARBONEDGE_THREADS"] = str(lanes(workload))
    for name in ("CARBONEDGE_STORE_DIR", "CARBONEDGE_SMOKE_EPOCHS"):
        env.pop(name, None)
    return env


def call(binary, workload, phase, seed, store, traced):
    """One fresh process; its JSON report, or None if it failed."""
    command = [binary, workload, phase, "--seed", str(seed), "--store", store]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=child_env(workload),
                              timeout=REP_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} {phase} timed out")
        return None
    if done.returncode != 0:
        log(f"perfbench: {workload} {phase} exited {done.returncode}")
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} {phase} printed no report")
        return None


def cpu_times():
    """(steal, busy + steal) jiffies summed over all CPUs; None where
    /proc/stat is missing."""
    try:
        with open("/proc/stat") as f:
            user, nice, system, idle, iowait, irq, softirq, steal = (
                int(v) for v in f.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before, after):
    """Share of the time the vCPUs had work that the hypervisor took."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def run_rep(binary, workload, instance, traced, store):
    os.makedirs(store)
    before = cpu_times()
    try:
        cold = call(binary, workload, "cold", instance, store, traced)
        resume = call(binary, workload, "resume", instance, store, traced) if cold else None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    steal = steal_share(before, cpu_times())
    if cold and resume:
        log(f"perfbench rep: instance {instance} traced {int(traced)} setup_s {cold['setup_s']:.3f} "
            f"wall_s {cold['wall_s']:.3f} resume_s {resume['resume_s']:.3f} steal {steal:.3f} "
            f"ok {cold['ok']}")
    return {"instance": instance, "traced": traced, "cold": cold, "resume": resume,
            "steal": steal}


def run_plan(binary, args, scratch):
    """Every planned repetition, in order; stops at the first that fails.
    A repetition the host stole from is made again if the rest of the plan
    still fits in RETRY_BUDGET x --seconds at the mean repetition time."""
    planned = plan(args.workload, args.seed, args.seconds, args.trace)
    start = time.monotonic()
    deadline = start + RETRY_BUDGET * args.seconds
    reps = []
    attempts = 0
    for index, (instance, traced) in enumerate(planned):
        while True:
            rep = run_rep(binary, args.workload, instance, traced,
                          os.path.join(scratch, f"store-{attempts}"))
            attempts += 1
            completed = rep["cold"] and rep["resume"]
            now = time.monotonic()
            rest = (len(planned) - index) * (now - start) / attempts
            if not completed or rep["steal"] <= STEAL_LIMIT or now + rest > deadline:
                break
            log(f"perfbench: the host stole {rep['steal']:.0%} of the CPU time during "
                f"instance {instance}; making it again")
        reps.append(rep)
        if not completed:
            break
    return reps


def plan(workload, seed, seconds, trace):
    """(instance, traced) per repetition: a pure function of the arguments,
    so one seed always names the same inputs. A run covers the pool of
    input sets 0 .. count-1 (instance 0 is the CLI scenario), starting at
    input set seed mod count: B&B cost swings up to 2x between input sets,
    so runs that covered different sets would differ by more than any
    bound, while runs over one pool differ only by measurement noise.
    Traced runs pair an untraced and a traced repetition on each instance."""
    count = max(2, round(seconds / NOMINAL_REP_S[workload]))
    pool = [(seed + k) % count for k in range(count)]
    if not trace:
        return [(instance, False) for instance in pool]
    return [(instance, traced) for instance in pool[:max(1, count // 2)]
            for traced in (False, True)]


def percentile(samples, p):
    """Nearest-rank percentile: at least (1 - p) of the samples lie at or above."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def read_reference(workload):
    suffix = ".txt" if workload == "sweep_cdn_us" else ".json"
    with open(os.path.join(HERE, "reference", workload + suffix)) as f:
        return f.read() if suffix == ".txt" else json.load(f)


def reference_checks(workload, cold):
    """Default-seed outputs against the recorded reference."""
    reference = read_reference(workload)
    if workload == "sweep_cdn_us":
        return {"reference_table": cold["output"] == reference}
    if workload == "serve_replay_cdn_us":
        return {"reference_counters": all(cold[k] == reference[k] for k in SERVE_COUNTERS),
                "reference_carbon_kg": cold["carbon_kg"] == reference["carbon_kg"]}
    return {"reference_objective_sum": cold["objective_sum"] == reference["objective_sum"]}


def run_checks(workload, reps):
    """Per-repetition checks, and the reference at instance 0; {name: passed}."""
    checks = {"every_rep_completed": all(r["cold"] and r["resume"] for r in reps)}
    for rep in (r for r in reps if r["cold"] and r["resume"]):
        for phase in ("cold", "resume"):
            for name, passed in rep[phase]["checks"].items():
                checks[name] = checks.get(name, True) and passed
        # sweep: the resumed summary table; serve/place: the carbon digest.
        same = rep["cold"]["output"] == rep["resume"]["output"]
        checks["resume_matches_cold"] = checks.get("resume_matches_cold", True) and same
        if rep["instance"] == 0:
            for name, passed in reference_checks(workload, rep["cold"]).items():
                checks[name] = checks.get(name, True) and passed
    return checks


def end_to_end(reps):
    """Every run covers the same pool of input sets, whose costs differ by
    up to 1.6x, so timings over the pool are means: a median would jump
    between input sets as noise reorders them (sweep, ten seeds: spread
    0.14 as a median, 0.05 as a mean). Repetitions the host stole from were
    made again. Percentiles are taken per repetition by nearest rank over
    its own windows and decisions. Set-up, resume and memory do not depend
    on the input set and are medians."""
    colds = [r["cold"] for r in reps]
    total = lambda key: sum(c[key] for c in colds)
    mean = statistics.fmean
    median = statistics.median
    values = {
        "setup_s": median(c["setup_s"] for c in colds),
        "wall_s": total("wall_s") / len(colds),
        "resume_s": median(r["resume"]["resume_s"] for r in reps),
        "placements_per_s": total("placed") / total("wall_s"),
        "events_per_s": total("events") / total("wall_s"),
        "window_p50_ms": mean(percentile(c["window_ms"], 0.50) for c in colds),
        "window_p97_ms": mean(percentile(c["window_ms"], 0.97) for c in colds),
        "decision_p50_ms": mean(percentile(c["decision_ms"], 0.50) for c in colds),
        "decision_p95_ms": mean(percentile(c["decision_ms"], 0.95) for c in colds),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in colds),
        "carbon_kg": total("carbon_kg") / len(colds),
        "mean_rtt_ms": total("mean_rtt_ms") / len(colds),
        "served_ratio": total("placed") / (total("placed") + total("rejected")),
    }
    log(f"perfbench: {len(colds)} reps, "
        f"{sum(len(c['window_ms']) for c in colds)} windows, "
        f"{sum(len(c['decision_ms']) for c in colds)} decisions")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    values = {}
    for name in PER_LAYER:
        samples = [r[phase]["layers"][name] for r in traced for phase in ("cold", "resume")
                   if name in r[phase]["layers"]]
        values[name] = statistics.fmean(samples) if samples else 0.0
    # Same instances on both sides, so the ratio is the timers' cost alone.
    wall = lambda group: sum(r["cold"]["wall_s"] for r in group)
    values["obs.trace_overhead_ratio"] = (
        wall(traced) / wall([r for r in reps if not r["traced"]]) - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2^40)")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    scratch = os.path.join(build_dir(), f"tmp-{os.getpid()}")
    try:
        reps = run_plan(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    good = [r for r in reps if r["cold"] and r["resume"]]
    if not good or (args.trace and not (any(r["traced"] for r in good) and
                                        any(not r["traced"] for r in good))):
        log("perfbench: no usable repetition")
        return 1
    checks = run_checks(args.workload, reps)
    failed_checks = sorted(name for name, passed in checks.items() if not passed)
    if failed_checks:
        log(f"perfbench: FAILED checks: {', '.join(failed_checks)}")
    for rep in good:
        log(f"perfbench counts instance {rep['instance']}: "
            + json.dumps(rep["cold"]["counts"], sort_keys=True))

    attempts = [r["cold"]["placed"] + r["cold"]["rejected"] for r in good]
    attempted = sum(attempts) + (len(reps) - len(good))
    failed = (len(reps) - len(good)) + (0 if not failed_checks else sum(attempts))
    metrics = per_layer(good) if args.trace else end_to_end(good)
    print(json.dumps({"correct": not failed_checks, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())

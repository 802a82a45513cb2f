#!/usr/bin/env python3
"""RootStress benchmark: builds the library and benchmark binary, runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/interaction_map.json):
replay_nov2015, campaign_whatif, wire_loopback.

The first run configures and builds into .bench_build/ (about a minute
and a half on 4 cores); later runs only re-check the build. The binary
measures for --seconds, checks its outputs, and reports raw
samples, counts and per-layer values; this script turns them into the
benchmark's metrics, prints them with their units and the host record,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
run's repetitions); with --trace 1 they are the per-layer ones. Exit
status is 0 only when every output check passed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
TARGET = "rootstress_bench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(name):
    with open(os.path.join(BENCH_DIR, name)) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", TARGET],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, TARGET)


def host_record():
    """Cores, compiler, build type and source revision of this run."""
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"],
                                         capture_output=True, text=True)
                    compiler = out.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    revision = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True)
        revision = out.stdout.strip() or revision
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_describe": revision,
    }


def summarize(values):
    """Median and quartiles (statistics.quantiles, n=4) of samples."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end_metrics(bench, report):
    """The end-to-end metrics: medians of the run's samples."""
    metrics = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        samples = report["samples"].get(name, [])
        if not samples:
            raise ValueError("no samples for " + name)
        stats = summarize(samples)
        metrics[name] = (stats["median"], spec["unit"], stats)
    return metrics


def per_layer_metrics(bench, imap, workload, report):
    """The per-layer metrics. A layer the workload leaves idle (per the
    interaction map) reports 0; a missing metric of an exercised layer is
    an error."""
    measured = dict(report["counts"])
    measured.update(report["layers"])
    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name in measured:
            value = measured[name]
        elif workload in imap["per_layer"][name]["workloads"]:
            raise ValueError("per-layer metric %s missing on %s"
                             % (name, workload))
        else:
            value = 0
        metrics[name] = (value, spec["unit"], None)
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json("../BENCHMARK.json")
    imap = load_json("interaction_map.json")
    reference = load_json("reference.json")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload", args.workload)
        return 2

    binary = build()
    scratch = os.path.join(BUILD_DIR, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(BENCH_DIR, "reference.json"),
           "--scratch", scratch]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("rootstress_bench printed no report; exit status", proc.returncode)
        return 1
    report = json.loads(lines[-1])

    correct = bool(report["correct"]) and proc.returncode == 0
    if args.trace:
        metrics = per_layer_metrics(bench, imap, args.workload, report)
    else:
        metrics = end_to_end_metrics(bench, report)

    record = {
        "host": host_record(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": reference["held_out_seed"],
        "reference_seed": reference["seed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "sample_counts": {k: len(v) for k, v in report["samples"].items()},
        "report": report,
    }
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1)

    host = record["host"]
    print("host: %d cores, %s, %s, %s" % (host["cores"], host["compiler"],
                                         host["build_type"],
                                         host["git_describe"]))
    print("workload %s  seed %d  (reference seed %d, held-out seed %d)  "
          "samples %s" % (args.workload, args.seed, reference["seed"],
                          reference["held_out_seed"],
                          record["sample_counts"]))
    aliases = imap["end_to_end_aliases"].get(args.workload, {})
    for name, (value, unit, stats) in metrics.items():
        line = "  %-40s %.6g %s" % (name, value, unit)
        if stats is not None:
            line += "   (q1 %.6g, q3 %.6g, n=%d)" % (stats["q1"], stats["q3"],
                                                   stats["n"])
        if name in aliases:
            line += "   = " + aliases[name]
        print(line)
    if args.seed == reference["seed"]:
        baseline = reference["workloads"][args.workload].get(
            "baseline_costs", {})
        for name, base in baseline.items():
            now = report["counts"].get(name)
            if now is not None and now != base:
                print("  cost moved vs baseline: %s %r -> %r"
                      % (name, base, now))
    for check in report["checks"]:
        if not check["ok"]:
            print("  FAILED check %s: %s" % (check["name"], check["detail"]))
    print("checks: %d run, %d failed; operations: %d attempted, %d failed"
          % (len(report["checks"]),
             sum(1 for c in report["checks"] if not c["ok"]),
             report["attempted"], report["failed"]))

    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("benchmark failed:", e)
        sys.exit(1)

#!/usr/bin/env python3
"""AutoPilot benchmark: time-to-design on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload bo-dense --seed 1 --seconds 30 --trace 0

Builds the AutoPilot libraries and the benchmark's job binary from source
(into $CARGO_TARGET_DIR, default .bench_build), then runs the workload as
one fresh process per repetition over seed-derived inputs for --seconds,
checks every output, and prints one JSON object as the last line of
standard output.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics instead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("bo-dense", "cycle-nsga2", "serve-mix")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "turnaround_p50_s": "s",
    "peak_rss_mb": "MB",
    "front_hv": "hv",
    "selected_missions": "missions",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "airlearning.phase1_s": "s",
    "dse.optimize_s": "s",
    "dse.optimizer.self_s": "s",
    "dse.optimizer.bo_screen_s": "s",
    "dse.optimizer.bo_fit_s": "s",
    "dse.optimizer.hv_update_s": "s",
    "dse.evaluator.self_s": "s",
    "dse.evaluator.hit_ratio": "ratio",
    "dse.evaluator.requests": "count",
    "dse.backend.busy_s": "s",
    "dse.backend.points": "count",
    "dse.backend.us_per_point": "us",
    "core.phase3_s": "s",
    "systolic.cycle.layer_sim_s": "s",
    "systolic.sim_cycles": "count",
    "dram.layer_sim_s": "s",
    "dram.sim_cycles": "count",
    "dram.row_hit_ratio": "ratio",
    "dse.tiered.promote_ratio": "ratio",
    "util.pool.queue_wait_mean_ms": "ms",
    "util.pool.busy_frac": "ratio",
    "io.journal_rows": "count",
    "io.journal_bytes": "bytes",
    "runner.admit_wait_mean_s": "s",
    "trace_overhead_frac": "ratio",
}

# Counts that must repeat exactly between traced repetitions of an input.
EXACT_LAYER_COUNTS = ("systolic.sim_cycles", "dram.sim_cycles")

JOB_TIMEOUT_S = 150

# Seconds one input takes on the reference host (4 vCPU, RelWithDebInfo);
# a run covers FILL of --seconds with distinct inputs, so the per-seed
# spread of a single task averages out.
NOMINAL_INPUT_S = {"bo-dense": 0.72, "cycle-nsga2": 1.5, "serve-mix": 2.8}
FILL = 0.9


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail_setup(message):
    log("perfbench: " + message)
    sys.exit(2)


def build(repo, build_dir):
    """Configure once, then build incrementally; returns the job binary."""
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        fail_setup("no AutoPilot sources (src/CMakeLists.txt) next to "
                   "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(repo, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_job", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            fail_setup("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_job")


def run_job(binary, workload, seed, index, threads, trace, work_dir):
    """One repetition in a fresh process; returns its parsed JSON line."""
    # Clearing the previous repetition's files is the benchmark's own
    # bookkeeping, so it happens before the set-up clock starts.
    shutil.rmtree(work_dir, ignore_errors=True)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed), "--input",
         str(index), "--threads", str(threads), "--dir", work_dir,
         "--spawn-ns", str(spawn_ns), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "repetition timed out"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "job exited %d: %s" % (proc.returncode,
                                             err.strip()[-500:])
    return json.loads(lines[-1]), None


def file_sha(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_ledger(build_dir, binary, workload, seed, digests):
    """Digests of earlier runs of this binary on these inputs must match.

    Returns a list of problems; records the new digests.
    """
    ledger_dir = os.path.join(build_dir, "digests")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, workload + ".json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as handle:
            ledger = json.load(handle)
    known = ledger.setdefault(file_sha(binary), {})
    problems = []
    for index, digest in digests.items():
        key = "%d/%d" % (seed, index)
        if known.get(key, digest) != digest:
            problems.append("archive_digest %s of seed %d input %d differs "
                            "from %s of an earlier run"
                            % (digest, seed, index, known[key]))
        known[key] = digest
    with open(path + ".tmp", "w") as handle:
        json.dump(ledger, handle)
    os.replace(path + ".tmp", path)
    return problems


def mean(values):
    values = list(values)
    return sum(values) / len(values)


def input_count(workload, seconds, trace):
    """Inputs per run: one pass over them fills most of --seconds here."""
    per_input = NOMINAL_INPUT_S[workload] * (2 if trace else 1)
    return max(1, int(FILL * seconds / per_input))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the wrapper self-test only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(repo, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(repo, build_dir)
    if args.selftest:
        selftest = os.path.join(build_dir, "perfbench_selftest")
        sys.exit(subprocess.run([selftest]).returncode)

    threads = max(1, min(4, os.cpu_count() or 1))
    runs_dir = os.path.join(build_dir, "runs")
    inputs = input_count(args.workload, args.seconds, args.trace)
    plan = [0, 1] if args.trace else [0]
    lines = {index: {0: [], 1: []} for index in range(inputs)}
    problems = []
    attempted = failed = 0

    def repetition(index, trace):
        nonlocal attempted, failed
        work_dir = os.path.join(
            runs_dir, "%s-%s" % (args.workload,
                                 "traced" if trace else "untraced"))
        line, error = run_job(binary, args.workload, args.seed, index,
                              threads, trace, work_dir)
        if line is None:
            attempted += 1
            failed += 1
            problems.append(error)
            return None
        attempted += line["attempted"]
        failed += line["failed"]
        problems.extend("input %d: %s" % (index, p)
                        for p in line["problems"])
        return line

    # The first process after a pause runs slow (cold page cache and
    # clocks), so one unmeasured repetition of input 0 warms up; its
    # digest still joins input 0's repeat check.
    warmup = repetition(0, 0)

    # One pass over the inputs, then more passes while time remains.
    start = time.monotonic()
    rep = 0
    while rep < inputs or time.monotonic() - start < args.seconds:
        index = rep % inputs
        rep += 1
        for trace in plan:
            line = repetition(index, trace)
            if line is not None:
                lines[index][trace].append(line)
        if failed and not any(lines[i][0] for i in lines):
            break
    measured_s = time.monotonic() - start

    if any(not lines[i][0] or (args.trace and not lines[i][1])
           for i in lines):
        problems.append("some input produced no result")
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        for problem in problems:
            log("  CHECK FAILED: " + problem)
        sys.exit(1)

    digests = {}
    for index, by_trace in lines.items():
        repeats = by_trace[0] + by_trace[1]
        if index == 0 and warmup is not None:
            repeats.append(warmup)
        seen = {l["digest"] for l in repeats}
        if len(seen) > 1:
            problems.append("archive_digest differs between repetitions "
                            "of input %d: %s" % (index, ", ".join(seen)))
        for key in EXACT_LAYER_COUNTS:
            if len({l["layers"][key] for l in by_trace[1]}) > 1:
                problems.append("%s differs between repetitions of input "
                                "%d" % (key, index))
        digests[index] = by_trace[0][0]["digest"]
    problems.extend(check_ledger(build_dir, binary, args.workload,
                                 args.seed, digests))
    run_digest = hashlib.sha256(
        ",".join(digests[i] for i in range(inputs)).encode()).hexdigest()

    untraced = [l for i in lines for l in lines[i][0]]
    traced = [l for i in lines for l in lines[i][1]]
    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace_overhead_frac":
                value = (sum(l["wall_s"] for l in traced) /
                         sum(l["wall_s"] for l in untraced) - 1.0)
            else:
                value = mean(mean(l["layers"].get(name, 0.0)
                                  for l in lines[i][1]) for i in lines)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(l["setup_s"] for l in untraced),
            "wall_s": mean(statistics.median(l["wall_s"]
                                             for l in lines[i][0])
                           for i in lines),
            "turnaround_p50_s": mean(statistics.median(
                statistics.median(l["turnaround_s"]) for l in lines[i][0])
                for i in lines),
            "peak_rss_mb": mean(statistics.median(l["peak_rss_mb"]
                                                  for l in lines[i][0])
                                for i in lines),
            "front_hv": mean(lines[i][0][0]["front_hv"] for i in lines),
            "selected_missions": mean(lines[i][0][0]["selected_missions"]
                                      for i in lines),
            "ok_frac": (attempted - failed) / attempted,
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}

    print("workload %s seed %d: %d inputs, %d untraced + %d traced "
          "repetitions in %.1f s, %d threads"
          % (args.workload, args.seed, inputs, len(untraced), len(traced),
             measured_s, threads))
    print("  archive_digest %s" % run_digest)
    if not args.trace:
        print("  turnaround_p50_s: mean over %d inputs of the median of "
              "%d samples" % (inputs, sum(len(l["turnaround_s"])
                                          for l in untraced)))
    for name, metric in metrics.items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if args.workload != "serve-mix":
        print("  largest relative hypervolume-history dip %.3g (rounding "
              "allowance 1e-12)" % max(l["worst_hv_dip"]
                                       for l in untraced + traced))
    if traced:
        coverage = [l["layers"]["trace.blocking_coverage"] for l in traced
                    if "trace.blocking_coverage" in l["layers"]]
        if coverage:
            print("  layer self times cover %.1f%%-%.1f%% of wall_s"
                  % (100 * min(coverage), 100 * max(coverage)))
        print("  Chrome trace of the last traced repetition: %s"
              % os.path.join(runs_dir, args.workload + "-traced",
                             "trace.json"))
    for problem in problems:
        print("  CHECK FAILED: " + problem)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

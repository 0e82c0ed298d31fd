#!/usr/bin/env python3
"""Run the REX benchmark.

    python3 rexbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds rexbench/ (librex from src/ plus the
workload runner) into .bench_build/, runs each workload in processes of its
own (an untraced run of a single-worker workload starts one copy per CPU at
once, see ledger.copies), checks their outputs and prints the metrics with
their units; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics; --trace 1 makes the separate
traced run that yields the per-layer metrics, writes its spans to
.bench_build/out/ and prints the tracing overhead against the last untraced
run of the workload. With --workload all the last line maps each workload to
its object. Exits 0 only when every output check passed; a build failure
exits 2 without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# The runner must end well inside the 180 s a run may take.
RUNNER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the runner; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(len(os.sched_getaffinity(0)))
    steps = (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", str(build_dir), "-j", jobs],
    )
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            log("build: cannot run %s: %s" % (step[0], error))
            return None
        if done.returncode != 0:
            log("build: '%s' failed with exit code %d" % (" ".join(step), done.returncode))
            return None
    return build_dir / "rexbench_workload"


def parse_result(stdout, returncode):
    """The runner's document: the last line of its standard output."""
    lines = stdout.decode(errors="replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "runner exited %d without a result" % returncode}
    if returncode != 0 and not doc.get("error"):
        doc["error"] = "runner exited %d" % returncode
    return doc


def run_copies(binary, workload, seed, seconds, trace, out_dir, count):
    """Runs `count` copies of one workload process at once; returns their
    documents. Every copy is waited for, and killed first if it overruns."""
    deadline = time.monotonic() + RUNNER_TIMEOUT_S
    procs = []
    docs = []
    try:
        for k in range(count):
            command = [
                str(binary), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out-dir", str(out_dir / ("report-%s-seed%d-copy%d" % (workload, seed, k))),
            ]
            procs.append(subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr))
        for proc in procs:
            try:
                stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                docs.append({"error": "runner exceeded %d s" % RUNNER_TIMEOUT_S})
                continue
            docs.append(parse_result(stdout, proc.returncode))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return docs


def write_trace(doc, path):
    """Spans as Chrome trace-event JSON (complete events, microseconds)."""
    events = [
        {
            "name": span["name"], "ph": "X", "pid": 1, "tid": span["run"],
            "ts": span["start_s"] * 1e6, "dur": (span["end_s"] - span["start_s"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"], "run": span["run"]},
        }
        for span in doc.get("spans", [])
    ]
    path.write_text(json.dumps({"traceEvents": events}))


def untraced_cache(out_dir, workload, seed):
    return out_dir / ("untraced-%s-seed%d.json" % (workload, seed))


def tracing_overhead(out_dir, workload, seed, traced_run_s):
    """(traced sim.run_s minus the untraced median of the same seed, the
    number of copies that untraced run started at once), or None."""
    cache = untraced_cache(out_dir, workload, seed)
    if not cache.exists():
        return None
    untraced = json.loads(cache.read_text())
    return traced_run_s - untraced["run_s_median"], untraced["copies"]


def print_metrics(metrics):
    for name, metric in metrics.items():
        print("  %-36s %16.6g %s" % (name, metric["value"], metric["unit"]))


def run_workload(binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload; prints its report and returns its result object."""
    count = 1 if trace else ledger.copies(workload, len(os.sched_getaffinity(0)))
    docs = run_copies(binary, workload, seed, seconds, trace, out_dir, count)
    (out_dir / ("run-%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(docs))
    correct, attempted, failed, network_failed = ledger.ledger(docs)
    print("%s (seed %d, %s, %d cop%s at once, %s repetition(s), %s worker(s) each)" % (
        workload, seed, "traced" if trace else "untraced", count, "y" if count == 1 else "ies",
        "+".join(str(len(doc.get("reps", []))) for doc in docs),
        docs[0].get("threads", "?")))
    for failure in ledger.check_failures(docs):
        print("  CHECK FAILED %s" % failure)
    metrics = {}
    if correct:
        reps = docs[0]["reps"]
        det = reps[0]["det"]
        metrics = ledger.per_layer(docs[0]) if trace else ledger.end_to_end(docs)
        print("  operations: %d attempted, %d lost by the simulated network "
              "(failed_frac %.6f)" % (attempted, network_failed, network_failed / attempted))
        if trace:
            write_trace(docs[0], out_dir / ("trace-%s-seed%d.json" % (workload, seed)))
            overhead = tracing_overhead(out_dir, workload, seed, reps[0]["run_s"])
            print("  tracing overhead: %s" % (
                "%+.4f s of sim.run_s against the untraced median (%d cop%s at once)" % (
                    overhead[0], overhead[1], "y" if overhead[1] == 1 else "ies")
                if overhead is not None else "unknown (no untraced run of this seed here)"))
            for name, _unit in ledger.MICROTIMINGS:
                t = ledger.summarize_timing(reps[0]["micro"][name]["samples"])
                print("  %-28s median %.6g, p%s %.6g, %d samples of %d op(s)" % (
                    name, t["median"], t["tail_pct"], t["tail"] if t["tail"] is not None else
                    float("nan"), t["count"], reps[0]["micro"][name]["ops_per_sample"]))
        else:
            untraced_cache(out_dir, workload, seed).write_text(json.dumps(
                {"run_s_median": statistics.median(r["run_s"] for r in reps), "copies": count}))
            if "sim_time_to_target_s" not in metrics:
                print("  sim_time_to_target_s: MISSING (target %.4f never reached)"
                      % det["target_rmse"])
            if det["queries_issued"]:
                print("  serving: query_p99_sim_ms %.6f over %d served queries, "
                      "query_stale_frac %.6f" % (
                          det["query_latency_p99_s"] * 1e3, det["query_latency_count"],
                          det["queries_stale"] / det["queries_served"]))
        print_metrics(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=ledger.WORKLOADS + ledger.BY_HAND + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = Path.cwd() / ".bench_build"
    binary = build(build_dir)
    if binary is None:
        return 2
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    names = ledger.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(binary, out_dir, name, args.seed, args.seconds, args.trace)
        for name in names
    }
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

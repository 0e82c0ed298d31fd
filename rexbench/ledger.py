"""The benchmark's arithmetic: raw runner output in, named metrics out.

rexbench_workload (workload.cpp) prints sums and durations; everything
derived from them -- medians over repetitions, per-node and per-epoch
ratios, the agreement of copies run at once, microtiming percentiles, the
operation ledger behind success_frac -- is computed here so that
test_ledger.py can pin it down.
"""

import math
import statistics

# The workloads BENCHMARK.json declares, in its order.
WORKLOADS = ("paper-sgx", "paper-native")
# Runnable with --workload, but not declared: see README.md.
BY_HAND = ("learn-10k", "mega-100k", "serve-churn")

# Copies of a single-worker workload that one untraced run starts at the
# same time, one per CPU at most. On a host shared with other machines, one
# busy CPU's speed drifts by up to a third from one minute to the next, and
# copies on several CPUs average that drift out, as the thread pool of
# paper-sgx does. learn-10k stops at two copies: each holds 1.4 GiB.
COPIES = {"learn-10k": 2, "serve-churn": 4}


def copies(workload, cpus):
    """How many copies of `workload` one untraced run starts at once."""
    return max(1, min(COPIES.get(workload, 1), cpus))


# (name, unit, better) of every end-to-end metric; --trace 0 prints these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("epochs_per_s", "node-epochs/s", "higher"),
    ("peak_rss_kib_per_node", "KiB", "lower"),
    ("final_rmse", "rmse", "lower"),
    ("sim_time_to_target_s", "sim_s", "lower"),
    ("wire_bytes_per_node_epoch", "B", "lower"),
    ("success_frac", "fraction", "higher"),
)

# Microtimed layers: each is reported as its median (the bare name), the
# highest percentile with at least MIN_BEYOND samples beyond it (.tail) and
# the sample count (.samples).
MICROTIMINGS = (
    ("support.queue_op_ns", "ns"),
    ("crypto.seal_ns_per_byte", "ns/B"),
    ("crypto.open_ns_per_byte", "ns/B"),
    ("core.encode_us", "us"),
    ("core.decode_us", "us"),
    ("ml.train_epoch_us", "us"),
    ("ml.rmse_us", "us"),
    ("ml.topk_us", "us"),
)

# (name, unit, better) of every per-layer metric; --trace 1 prints these.
PER_LAYER = (
    ("data.prepare_s", "s", "lower"),
    ("sim.assemble_s", "s", "lower"),
    ("enclave.attest_s", "s", "lower"),
    ("enclave.attest_rounds", "count", "lower"),
    ("enclave.sessions", "count", "higher"),
    ("core.init_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.node_epochs", "count", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.batches", "count", "lower"),
    ("sim.events_per_batch", "ratio", "higher"),
    ("sim.queue_peak", "count", "lower"),
    ("sim.queue_resizes", "count", "lower"),
    ("sim.queue_direct_searches", "count", "lower"),
    ("support.pool_speedup", "ratio", "higher"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.bytes_per_message", "B", "lower"),
    ("enclave.ecalls_per_epoch", "count", "lower"),
    ("enclave.sealed_bytes_per_epoch", "B", "lower"),
    ("enclave.peak_resident_kib_max", "KiB", "lower"),
    ("core.duplicate_ratio", "fraction", "lower"),
    ("core.discarded", "count", "lower"),
    ("sim.queries_issued", "count", "higher"),
    ("sim.queries_served", "count", "higher"),
    ("sim.query_p50_sim_ms", "sim_ms", "lower"),
    ("sim.query_p99_sim_ms", "sim_ms", "lower"),
    ("sim.query_stale_frac", "fraction", "lower"),
    ("sim.staleness_p99_sim_ms", "sim_ms", "lower"),
    ("sim.deliveries_dropped", "count", "lower"),
    ("sim.deliveries_elided", "count", "lower"),
    ("sim.rejoins", "count", "lower"),
    ("sim.rejoin_timeouts", "count", "lower"),
    ("sim.rejoin_latency_mean_sim_ms", "sim_ms", "lower"),
    ("sim.resync_tx_bytes", "B", "lower"),
    ("sim.link_delay_mean_sim_ms", "sim_ms", "lower"),
    ("report.write_s", "s", "lower"),
    ("mem.rss_after_setup_kib_per_node", "KiB", "lower"),
) + tuple(
    item
    for name, unit in MICROTIMINGS
    for item in (
        (name, unit, "lower"),
        (name + ".tail", unit, "lower"),
        (name + ".samples", "count", "higher"),
    )
)

# Percentile ladder for timings; MIN_BEYOND samples must lie beyond the one
# reported as the tail.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(samples, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` samples beyond it.

    Nearest-rank definition: the p-th percentile of n sorted samples is the
    ceil(p/100 * n)-th smallest, and the samples beyond it are the ones
    ranked after it. Returns (p, value, beyond), or None when fewer than
    2 * min_beyond samples leave no percentile with enough behind it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        beyond = n - rank
        if beyond >= min_beyond:
            best = (p, ordered[rank - 1], beyond)
    return best


def summarize_timing(samples):
    """Median, tail percentile and count of one microtiming's samples."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples) if samples else None,
        "tail_pct": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
        "count": len(samples),
    }


def rss_kib_per_node(rss_kib, nodes):
    """Resident set size (KiB, as getrusage reports it) divided over nodes."""
    if nodes <= 0:
        raise ValueError("node count must be positive")
    return rss_kib / nodes


def operations(det):
    """(attempted, failed) operations of one repetition.

    Attempted: envelopes released (elided ones included), queries issued and
    attestation sessions opened. Failed: deliveries dropped in flight or
    elided, queries dropped at an offline replica, rejoin watchdog timeouts,
    protocol inputs discarded, and sessions left unattested.
    """
    attempted = (
        det["net_messages"]
        + det["deliveries_elided"]
        + det["queries_issued"]
        + det["sessions_opened"]
    )
    failed = (
        det["deliveries_dropped"]
        + det["deliveries_elided"]
        + det["queries_dropped_offline"]
        + det["rejoin_timeouts"]
        + det["discarded"]
        + (det["sessions_opened"] - det["sessions_attested"])
    )
    return attempted, failed


def success_frac(attempted, failed):
    """Share of attempted operations that did not fail (1 - failed_frac)."""
    if attempted <= 0:
        raise ValueError("no operation attempted")
    return 1.0 - failed / attempted


def check_failures(docs):
    """Names (with detail) of the failed output checks, plus any error.

    `docs` holds the runner documents of the copies run at once: each copy
    must pass its own checks, and every copy must reproduce the first
    copy's deterministic outputs.
    """
    failures = []
    for k, doc in enumerate(docs):
        copy = "copy %d: " % k if len(docs) > 1 else ""
        failures += [
            "%s%s: %s" % (copy, c["name"], c["detail"])
            for c in doc.get("checks", []) if not c["ok"]
        ]
        if doc.get("error"):
            failures.append("%sexception: %s" % (copy, doc["error"]))
        if not doc.get("reps"):
            failures.append("%sno repetition completed" % copy)
    if not failures:
        reference = docs[0]["reps"][0]["det"]
        failures += [
            "deterministic: copy %d differs from copy 0" % k
            for k, doc in enumerate(docs) if doc["reps"][0]["det"] != reference
        ]
    return failures


def ledger(docs):
    """Operation totals over the repetitions of every copy of a run.

    Returns (correct, attempted, failed, network_failed): a run with a
    failed check or an exception counts every attempted operation as
    failed; otherwise `failed` is 0 and `network_failed` holds the
    operations the simulated network lost (the success_frac numerator).
    """
    attempted = 0
    network_failed = 0
    for doc in docs:
        for rep in doc.get("reps", []):
            a, f = operations(rep["det"])
            attempted += a
            network_failed += f
    attempted = max(1, attempted)
    correct = not check_failures(docs)
    return correct, attempted, (0 if correct else attempted), network_failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(docs):
    """End-to-end metrics of an untraced run, from its copies' documents.

    epochs_per_s is each copy's sum of node-epochs over its sum of
    run_epochs wall time, averaged over the copies. Pooling the
    repetitions makes it a time average, which follows a host that
    alternates between faster and slower spells more steadily than a
    median of a few repetitions does. Each copy leaves out its first
    repetition when it has others: that one runs on a cold process (fresh
    pages, empty allocator caches) and is slower by a few percent.
    setup_s is the median over every set-up of every copy, set-up-only
    probes included. peak_rss_kib_per_node is the median over the copies
    (each its own process) of the peak after the first repetition.
    sim_time_to_target_s comes from result().time_to_reach, which is null
    when the target was never reached; the metric is then left out:
    missing, not 0.
    """
    det = docs[0]["reps"][0]["det"]
    nodes = det["nodes"]
    units = {name: unit for name, unit, _ in END_TO_END}
    setups = [r["setup_s"] for doc in docs for r in doc["reps"]] + [
        s for doc in docs for s in doc.get("setup_probes_s", [])
    ]
    rates = []
    for doc in docs:
        timed = doc["reps"][1:] or doc["reps"]
        rates.append(sum(r["det"]["node_epochs"] for r in timed) / sum(r["run_s"] for r in timed))
    out = {
        "setup_s": statistics.median(setups),
        "epochs_per_s": statistics.mean(rates),
        "peak_rss_kib_per_node": statistics.median(
            rss_kib_per_node(doc["reps"][0]["peak_rss_kib"], nodes) for doc in docs
        ),
        "final_rmse": det["final_rmse"],
        "sim_time_to_target_s": det["time_to_target_s"],
        "wire_bytes_per_node_epoch": det["net_bytes_in_out"] / det["node_epochs"],
    }
    attempted, failed = operations(det)
    out["success_frac"] = success_frac(attempted, failed)
    return {name: _metric(value, units[name]) for name, value in out.items() if value is not None}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(doc):
    """Per-layer metrics of a traced run.

    reps[0] is the traced repetition at the workload's worker count; reps[1],
    when present, the same repetition at the other worker count of the pair
    (1, pool width). support.pool_speedup is run_s at one worker over run_s
    at the pool width, whichever of the two the workload measures.
    """
    rep = doc["reps"][0]
    det = rep["det"]
    nodes = det["nodes"]
    run_s_by_threads = {r["threads"]: r["run_s"] for r in doc["reps"]}
    pool_speedup = _ratio(run_s_by_threads[min(run_s_by_threads)],
                          run_s_by_threads[max(run_s_by_threads)])
    appended = det["store_end"] - det["store_after_init"]
    out = {
        "data.prepare_s": rep["prepare_s"],
        "sim.assemble_s": rep["make_s"] - rep["prepare_s"],
        "enclave.attest_s": rep["attest_s"],
        "enclave.attest_rounds": det["attest_rounds"],
        "enclave.sessions": det["sessions_attested"],
        "core.init_s": rep["init_s"],
        "sim.run_s": rep["run_s"],
        "sim.node_epochs": det["node_epochs"],
        "sim.events": det["events"],
        "sim.events_per_s": _ratio(det["events"], rep["run_s"]),
        "sim.batches": det["batches"],
        "sim.events_per_batch": _ratio(det["events"], det["batches"]),
        "sim.queue_peak": det["queue_peak"],
        "sim.queue_resizes": det["queue_resizes"],
        "sim.queue_direct_searches": det["queue_direct_searches"],
        "support.pool_speedup": pool_speedup,
        "net.messages": det["net_messages"],
        "net.bytes": det["net_bytes"],
        "net.bytes_per_message": _ratio(det["net_bytes"], det["net_messages"]),
        "enclave.ecalls_per_epoch": det["ecalls_last_epoch"] / nodes,
        "enclave.sealed_bytes_per_epoch": det["sealed_bytes_last_epoch"] / nodes,
        "enclave.peak_resident_kib_max": det["peak_resident_bytes_max"] / 1024.0,
        "core.duplicate_ratio": _ratio(
            det["duplicates_dropped"], det["duplicates_dropped"] + appended
        ),
        "core.discarded": det["discarded"],
        "sim.queries_issued": det["queries_issued"],
        "sim.queries_served": det["queries_served"],
        "sim.query_p50_sim_ms": det["query_latency_p50_s"] * 1e3,
        "sim.query_p99_sim_ms": det["query_latency_p99_s"] * 1e3,
        "sim.query_stale_frac": _ratio(det["queries_stale"], det["queries_served"]),
        "sim.staleness_p99_sim_ms": det["query_staleness_p99_s"] * 1e3,
        "sim.deliveries_dropped": det["deliveries_dropped"],
        "sim.deliveries_elided": det["deliveries_elided"],
        "sim.rejoins": det["rejoins"],
        "sim.rejoin_timeouts": det["rejoin_timeouts"],
        "sim.rejoin_latency_mean_sim_ms": _ratio(
            det["rejoin_latency_sum_s"], det["rejoins_completed"]
        )
        * 1e3,
        "sim.resync_tx_bytes": det["resync_tx_bytes"],
        "sim.link_delay_mean_sim_ms": _ratio(det["link_delay_sum_s"], det["link_deliveries"])
        * 1e3,
        "report.write_s": rep["report_s"],
        "mem.rss_after_setup_kib_per_node": rss_kib_per_node(rep["rss_after_setup_kib"], nodes),
    }
    for name, _unit in MICROTIMINGS:
        timing = summarize_timing(rep["micro"][name]["samples"])
        out[name] = timing["median"]
        out[name + ".tail"] = timing["tail"] if timing["tail"] is not None else timing["median"]
        out[name + ".samples"] = timing["count"]
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: _metric(out[name], units[name]) for name, _, _ in PER_LAYER}

// Event-driven simulation engine.
//
// Replaces the fixed barrier loop as the core of the simulation stack: a
// deterministic simulated-time event queue of per-node events (deliver,
// train, share, test, churn-up, rejoin-deadline, reattest-sweep, query)
// driven by the CostModel, so each node advances at its own simulated speed
// instead of waiting on the slowest peer. Two scheduling disciplines:
//
//   kBarrier      the paper's synchronized rounds (§III-D). Each round runs
//                 every node's epoch concurrently (ThreadPool::
//                 parallel_shards: workers claim nodes one at a time, no
//                 queue); the round clock advances by the slowest node's
//                 stage total plus one propagation latency. Metrics are
//                 bit-identical to the historical `deliver_and_run_round`
//                 loop for the same seed.
//
//   kEventDriven  fully asynchronous. A node's protocol run is placed on
//                 its own timeline: the epoch starts when its trigger event
//                 fires (RMW: the period timer, §III-C1; D-PSGD: the last
//                 neighbor delivery), shares hit the wire when the node's
//                 share stage completes, and every envelope is delivered
//                 per edge after that edge's link latency. Per-node speed
//                 factors, log-normal stragglers and churn (NodeDynamics)
//                 make heterogeneous deployments expressible — fast nodes
//                 simply complete more epochs.
//
// Both disciplines share one record path (each node epoch folds into a
// per-epoch EpochBucket, one bucket becomes one RoundRecord) and one serving
// path (draw_query / answer_query / account_query). Secure runs attest
// before either starts, in a bounded loop outside simulated time.
//
// Links: delivery times come from the injected sim::LinkModel. Under the
// homogeneous default every edge shares the CostModel's global latency and
// metrics are bit-identical to the single-latency engine; under a WAN
// profile (CostParams::wan) each delivery pays its edge's drawn latency and
// the sender serializes the envelope through its per-node TxQueue — a
// share to k neighbors occupies the uplink for the sum of the k
// transmission times (DESIGN.md §5). Every release happens at the current
// event time, a TxQueue only moves forward and an edge's latency is fixed,
// so each directed pair's deliveries arrive in release order — the FIFO
// the receiver's watermark requires. Per-edge delivery counters feed
// report.cpp's write_edge_csv.
//
// Determinism: all event processing at one timestamp is split into a
// parallel math phase over per-node batches (nodes own disjoint state;
// ThreadPool::parallel_shards) and a single-threaded scheduling phase that
// visits nodes in id order — so event sequence numbers, RNG draws, and
// therefore entire ExperimentResults are identical for a given seed
// regardless of worker-thread count.
//
// Scale: the queue is a bucketed calendar queue (O(1) amortized vs the
// binary heap's O(log n), identical (time, seq) pop order — see
// support/calendar_queue.hpp), per-event state lives in SlotPool slots
// addressed by Event::slot instead of seq-keyed hash maps, the per-batch
// grouping containers are recycled across batches, and run_epochs tracks
// an incremental below-target node counter instead of rescanning all n
// nodes per batch. Together these keep the scheduler's cost per event flat
// in the node count (profiled at 10k nodes by
// `bench_async_stragglers --paper-scale`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/untrusted_host.hpp"
#include "data/partition.hpp"
#include "graph/graph.hpp"
#include "net/transport.hpp"
#include "sim/cost_model.hpp"
#include "sim/event.hpp"
#include "sim/link_model.hpp"
#include "sim/metrics.hpp"
#include "sim/percentile.hpp"
#include "sim/query_load.hpp"
#include "support/arena.hpp"
#include "support/calendar_queue.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rex::sim {

class ScenarioHarness;

enum class EngineMode {
  kBarrier,      // synchronized rounds (paper §III-D); the default
  kEventDriven,  // per-node timelines over the event queue
};

/// Heterogeneity and failure knobs for event-driven runs (all inert at
/// their defaults; the barrier engine honors the speed/straggler knobs when
/// computing round times so barrier-vs-async comparisons are fair).
struct NodeDynamics {
  /// Log-normal sigma of the static per-node slowdown factor (0 = all nodes
  /// identical). A node's compute stages are scaled by exp(sigma * N(0,1)).
  double speed_lognormal_sigma = 0.0;
  /// Per-epoch probability that a node straggles for that epoch.
  double straggler_probability = 0.0;
  /// Log-normal sigma of the per-epoch straggler slowdown multiplier
  /// exp(sigma * |N(0,1)|) >= 1.
  double straggler_lognormal_sigma = 1.0;
  /// Per-epoch probability that a node drops offline after finishing an
  /// epoch (event-driven runs only). In-flight deliveries to an offline
  /// node are lost; envelopes released while it is known to be down are
  /// elided (DESIGN.md §6 "Offline shares"); on return the node runs the
  /// rejoin protocol (re-attestation + state resync) before training again.
  double churn_probability = 0.0;
  /// Mean offline duration in simulated seconds (exponential).
  double churn_downtime_s = 0.0;
  /// Rejoin watchdog (simulated seconds): a returning node waits at most
  /// this long for its re-attestation + resync exchange (a contacted
  /// neighbor may churn away mid-handshake) before training resumes anyway.
  double rejoin_timeout_s = 0.5;
  /// Re-attestation sweep cadence in simulated seconds (secure event-driven
  /// runs only; 0 = off). Each sweep scans online neighbor pairs for
  /// sessions left unattested by a mid-run handshake (DESIGN.md §8
  /// "Re-attestation sweep") and restarts the handshake so broken pairs
  /// heal before the next rejoin forces them.
  double reattest_interval_s = 0.0;

  [[nodiscard]] bool heterogeneous() const {
    return speed_lognormal_sigma > 0.0 || straggler_probability > 0.0;
  }
  [[nodiscard]] bool churning() const { return churn_probability > 0.0; }
};

class SimEngine {
 public:
  struct Config {
    EngineMode mode = EngineMode::kBarrier;
    NodeDynamics dynamics;
    std::uint64_t seed = 1;
    /// Open-loop serving traffic (DESIGN.md §9). Disabled by default:
    /// no kQuery events exist, so schedule sequence numbers — and the
    /// golden dumps they pin — are untouched.
    QueryLoadConfig query_load;
  };

  /// Per-node engine-side state, exposed for tests and benches. All of a
  /// node's scheduling state lives in this one struct (not parallel
  /// vectors) on purpose: at 10k+ nodes every event lands on a random node,
  /// and each extra array means another cold cache line per event. The
  /// field order is cache-line-conscious (DESIGN.md §10): the per-event
  /// hot set — the fields schedule/post_epoch/note_epochs_done and the
  /// run_epochs target spin touch on essentially every event — packs into
  /// the first 64 bytes; colder churn/rejoin/serving state follows.
  struct NodeStatus {
    // ----- hot per-event section (first cache line) -----
    double slowdown = 1.0;           // static speed factor (duration scale)
    bool online = true;
    /// Rejoin protocol state (DESIGN.md §6): set at kChurnUp, cleared when
    /// the node's re-attestation + resync exchange completes (or the
    /// watchdog fires) and its train timer restarts.
    bool rejoining = false;
    std::uint32_t trains_pending = 0;      // kTrain events in the queue
    SimTime busy_until;
    std::uint64_t epochs_done = 0;   // kTest events processed
    /// Math-time epoch watermark (epochs the engine has accounted for).
    std::uint64_t epochs_seen = 0;
    /// run_epochs() goal (valid while targets are active).
    std::uint64_t epoch_target = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t deliveries_dropped = 0;  // lost to churn

    // ----- cold churn/rejoin/config section -----
    /// Epochs whose metrics were folded into the next record because two
    /// protocol runs landed in one same-timestamp batch (rare exact ties;
    /// counted so epoch targets stay consistent).
    std::uint64_t epochs_folded = 0;
    /// Start of the current outage (valid while !online): churn takes
    /// effect when the churning epoch *ends*, so deliveries that arrive
    /// while the node is still simulated-computing are not dropped.
    SimTime offline_since;
    /// Watchdog generation: a kRejoinDeadline whose slot does not match is
    /// left over from a previous outage and ignored.
    std::uint32_t rejoin_gen = 0;
    SimTime rejoin_started;
    std::uint64_t rejoins = 0;             // outages ended (kChurnUp events)
    std::uint64_t rejoins_completed = 0;   // exchanges finished (incl. via
                                           // watchdog); a run can end with
                                           // a rejoin still in progress
    std::uint64_t rejoin_timeouts = 0;     // rejoins force-completed
    std::uint64_t resync_bytes = 0;        // resync wire bytes received
    std::uint64_t deliveries_elided = 0;   // envelopes never sent to it
    /// Sum over completed rejoins of (completion - kChurnUp) — the
    /// re-attestation + resync latency; mean = sum / rejoins_completed.
    double rejoin_latency_sum_s = 0.0;
    /// Cumulative traffic at the node's last epoch record (per-epoch
    /// deltas, both disciplines).
    net::TrafficStats traffic_mark;
    /// Sender-side wire-occupancy queue (WAN profiles only): outgoing
    /// envelopes serialize through this.
    TxQueue tx;
    /// Healed partition/regional-outage windows whose cut traffic touched
    /// this node (stamped by sim::ScenarioHarness, DESIGN.md §8).
    std::uint64_t partitions_survived = 0;

    // ===== Serving counters (DESIGN.md §9; all stay 0 with the query
    // load disabled) =====
    std::uint64_t queries_issued = 0;   // kQuery events processed
    std::uint64_t queries_served = 0;   // answered (node online)
    std::uint64_t queries_stale = 0;    // served with staleness > threshold
    std::uint64_t queries_dropped_offline = 0;  // arrived during an outage
    /// When the node's current model became current (its last recorded
    /// epoch end) — the staleness zero point served to queries.
    SimTime model_fresh_at;
  };

  /// Per-undirected-edge delivery counters, kept only when the LinkModel is
  /// heterogeneous (indexed by LinkModel::edge_id; see write_edge_csv).
  struct EdgeTraffic {
    std::uint64_t deliveries = 0;  // envelopes released onto this edge
    std::uint64_t bytes = 0;       // wire bytes across those deliveries
    /// Sum over deliveries of (delivery time - share release time): queued
    /// transmission plus propagation; mean = delay_sum_s / deliveries.
    double delay_sum_s = 0.0;
  };

  /// Scheduler-overhead counters for the scale benches: how much engine
  /// bookkeeping ran around the node math.
  struct SchedulerStats {
    std::uint64_t events = 0;            // events executed
    std::uint64_t batches = 0;           // same-timestamp batches
    std::uint64_t queue_resizes = 0;     // calendar bucket re-fits
    std::uint64_t direct_searches = 0;   // calendar ring misses
    std::size_t queue_peak = 0;          // high-water queued events
    std::size_t delivery_slots = 0;      // in-flight envelope pool size
    std::size_t share_slots = 0;         // share batch pool size
    std::size_t epoch_slots = 0;         // pending epoch pool size
  };

  /// The engine borrows everything: the Simulator (or a test rig) owns the
  /// hosts, transport, topology, cost model, pool and result sink, which
  /// must outlive the engine.
  SimEngine(const core::RexConfig& rex, const graph::Graph& topology,
            ObjectArena<core::UntrustedHost>& hosts,
            net::Transport& transport, const CostModel& cost_model,
            const LinkModel& links, ThreadPool& pool,
            ExperimentResult& result, Config config);

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Pre-protocol mutual attestation (no-op in native mode): delivery steps
  /// until the handshakes quiesce, each counted as one processed event.
  /// Throws if any pair fails to attest within a bounded number of steps.
  void run_attestation();

  /// ecall_init on every node (epoch 0: first local training + share).
  void initialize(std::vector<data::NodeShard> shards);

  /// Barrier mode: runs `epochs` synchronized rounds after epoch 0. Event
  /// mode: pumps the queue until every node completed `epochs` epochs
  /// beyond its target at the previous call (epoch 0 included in the first
  /// call's target, matching the barrier's epoch count; fast nodes
  /// overshoot — that is the point).
  void run_epochs(std::size_t epochs);

  [[nodiscard]] EngineMode mode() const { return config_.mode; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] SimTime now() const { return clock_; }
  [[nodiscard]] std::size_t attestation_rounds() const {
    return attestation_rounds_;
  }
  [[nodiscard]] const NodeStatus& node_status(core::NodeId id) const {
    return nodes_.at(id);
  }
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Engine-wide resync traffic totals (DESIGN.md §6). Conservation
  /// invariant at any quiescent point: tx == rx + in_flight + dropped —
  /// every resync byte released onto the wire is received, still in the
  /// queue, or lost to the receiver churning again.
  struct ResyncTotals {
    std::uint64_t tx_bytes = 0;        // released onto the wire
    std::uint64_t rx_bytes = 0;        // delivered
    std::uint64_t in_flight_bytes = 0; // scheduled, not yet delivered
    std::uint64_t dropped_bytes = 0;   // receiver offline at delivery
  };
  [[nodiscard]] const ResyncTotals& resync_totals() const {
    return resync_totals_;
  }
  [[nodiscard]] SchedulerStats scheduler_stats() const;
  [[nodiscard]] const LinkModel& link_model() const { return links_; }
  /// One entry per LinkModel edge for heterogeneous models (empty
  /// otherwise). Only event-driven runs release envelopes per edge; barrier
  /// rounds deliver at the batch barrier and leave these at zero.
  [[nodiscard]] const std::vector<EdgeTraffic>& edge_traffic() const {
    return edge_traffic_;
  }

  /// Install (or clear, with nullptr) an adversarial fault harness
  /// (DESIGN.md §8). The harness is borrowed and must outlive the run; its
  /// hooks run only on the serial phase, so installing one does not perturb
  /// thread determinism. Event-driven mode only — the barrier path never
  /// releases per-edge envelopes for the harness to intercept.
  void set_harness(ScenarioHarness* harness) { harness_ = harness; }
  /// Read-only host access for the harness/invariant layer (per-node
  /// rejection counters live on the trusted side).
  [[nodiscard]] const core::UntrustedHost& host(core::NodeId id) const {
    return hosts_.at(id);
  }
  /// Mutable host access for tests that drive the serving entry point
  /// (TrustedNode::query_topk reuses per-node scratch, so it is non-const).
  [[nodiscard]] core::UntrustedHost& host_mutable(core::NodeId id) {
    return hosts_.at(id);
  }
  /// Harness callback: a healed partition/outage window cut traffic that
  /// touched this node.
  void note_partition_survived(core::NodeId id) {
    ++nodes_.at(id).partitions_survived;
  }
  /// Handshakes restarted by the re-attestation sweep (kReattestSweep).
  [[nodiscard]] std::uint64_t reattest_heals() const {
    return reattest_heals_;
  }
  /// Active dynamics knobs (the harness gates its strict-accounting
  /// invariants on churning(): churn drops legitimately absorb replays).
  [[nodiscard]] const NodeDynamics& dynamics() const {
    return config_.dynamics;
  }

  // ===== Serving observability (DESIGN.md §9) =====

  /// Engine-wide query counters. Conservation invariant at any quiescent
  /// point: issued == served + dropped_offline — every processed arrival
  /// was answered or dropped at an offline replica, nothing vanishes.
  struct QueryTotals {
    std::uint64_t issued = 0;
    std::uint64_t served = 0;
    std::uint64_t stale = 0;
    std::uint64_t dropped_offline = 0;
  };
  [[nodiscard]] QueryTotals query_totals() const;
  /// Streaming percentile estimators over every served query, in simulated
  /// seconds. Latency = replica wait (the node is mid-epoch) + scoring
  /// compute; staleness = answer age (arrival - model_fresh_at; 0 when the
  /// query waited for the in-flight epoch).
  [[nodiscard]] const PercentileEstimator& query_latency() const {
    return query_latency_;
  }
  [[nodiscard]] const PercentileEstimator& query_staleness() const {
    return query_staleness_;
  }
  [[nodiscard]] const QueryLoad& query_load() const { return query_load_; }

 private:
  // ===== shared =====
  void require_initialized() const;
  void schedule(SimTime time, core::NodeId node, EventKind kind,
                std::uint32_t slot = 0);
  /// schedule(kTrain) + the per-node pending-timer count that keeps churn
  /// recovery from spawning parallel timer chains.
  void schedule_train(SimTime time, core::NodeId node);
  /// Duration multiplier for one node epoch: static slowdown x straggler
  /// draw (one draw sequence per node per epoch, identical in both modes).
  [[nodiscard]] double epoch_slowdown(core::NodeId id);
  /// Advances a node's epochs_done and maintains the incremental
  /// below-target counter run_epochs spins on.
  void note_epochs_done(core::NodeId id, std::uint64_t count);

  /// Per-epoch-index aggregation: every node epoch of either discipline
  /// folds into one of these, and one bucket becomes one RoundRecord.
  struct EpochBucket {
    std::size_t contributors = 0;
    /// Sum over contributors of the online fraction at their fold time
    /// (reachable_fraction = reachable_sum / contributors).
    double reachable_sum = 0.0;
    double rmse_sum = 0.0;
    double rmse_min = 0.0;
    double rmse_max = 0.0;
    StageTimes stage_sum;
    double bytes_sum = 0.0;
    double mem_sum = 0.0;
    double mem_max = 0.0;
    double store_sum = 0.0;
    std::uint64_t duplicates = 0;
    std::uint64_t bytes_saved = 0;  // wire bytes avoided by compression
    SimTime duration_sum;
    SimTime duration_max;  // the slowest contributor's epoch
    SimTime last_end;      // event-driven only: latest contributor end
  };
  /// Folds node `id`'s epoch (counters, slowdown-scaled stages, simulated
  /// duration, wire bytes moved) into `bucket`.
  void fold_epoch(EpochBucket& bucket, core::NodeId id,
                  const core::EpochCounters& counters,
                  const StageTimes& stages, SimTime duration,
                  std::uint64_t bytes) const;
  /// The bucket's record; round_time and cumulative_time stay per
  /// discipline and are left to the caller.
  [[nodiscard]] static RoundRecord bucket_record(std::size_t epoch,
                                                 const EpochBucket& bucket);

  // ===== barrier mode =====
  void run_barrier_round();
  /// Folds every node's round into one record, advances the round clock
  /// and serves the pre-drawn queries that arrived before the round's end.
  void collect_round_record();

  // ===== event mode =====
  /// Pops and executes every event at the earliest queued timestamp:
  /// parallel per-node math phase, then serial scheduling phase in node-id
  /// order. Returns false when the queue is empty.
  bool process_next_batch();
  /// Math side of one event (runs inside the parallel phase).
  void apply_event_math(const Event& event);
  /// Engine-side half of one delivery: churn-drop check, arrival stamping
  /// and receive accounting. Returns the envelope to hand to the host, or
  /// nullptr when the delivery was dropped (receiver offline).
  net::Envelope* prepare_delivery(const Event& event);
  /// Post-math bookkeeping for a node that completed a protocol run at
  /// `start`: capture counters, stage times and queued shares; schedule the
  /// kShare and kTest events; for RMW, schedule the next train timer.
  void post_epoch(core::NodeId id, SimTime start);
  void serial_event_hook(const Event& event);
  /// One record per epoch index any node reached.
  void finalize_async_records();
  /// Releases one envelope at `release`, in one straight line: harness
  /// filter, elision when the destination's outage has begun (no
  /// transmission, nothing accounted; DESIGN.md §6), per-edge tx through
  /// the sender's uplink queue + latency, then its kDeliver.
  void release_envelope(net::Envelope env, SimTime release);
  /// Drains a node's outbox of control traffic (attestation, resync) and
  /// releases it at `now`. Only post_epoch may leave protocol shares in an
  /// outbox; any other producer is a bug this checks for.
  void flush_control(core::NodeId id, SimTime now);
  /// Rejoin completion sweep for one node: if its trusted side finished the
  /// re-attestation + resync exchange this batch, record the latency and
  /// restart its train timer.
  void check_rejoin(core::NodeId id, SimTime now);
  void complete_rejoin(core::NodeId id, SimTime now);
  /// kReattestSweep handler: scan online neighbor pairs for sessions a
  /// mid-run handshake left unattested and restart the handshake
  /// (DESIGN.md §8 "Re-attestation sweep").
  void run_reattest_sweep(SimTime now);

  // ===== serving path (DESIGN.md §9), both disciplines =====
  /// One query: the arrival time and user pick are drawn in the serial
  /// phase; answer_query fills in the answer fields. Event-driven runs
  /// address in-flight jobs through Event::slot, barrier runs keep each
  /// node's next pre-drawn job in barrier_query_next_.
  struct QueryJob {
    SimTime arrival;
    /// Raw u64 draw, mapped onto the node's local-user list when answered
    /// (the list is fixed after ecall_init, so the mapping is
    /// schedule-independent).
    std::uint64_t user_pick = 0;
    double latency_s = 0.0;
    double staleness_s = 0.0;
    bool dropped = false;  // replica offline at arrival
  };
  /// Draws `node`'s next arrival (strictly after `after`) plus its user
  /// pick from the node's serving RNG stream. Serial phase only.
  [[nodiscard]] QueryJob draw_query(core::NodeId node, SimTime after);
  /// draw_query + the kQuery event that carries the job.
  void schedule_query(core::NodeId node, SimTime after);
  /// Offline drop check, top-k inference against the node's current model,
  /// latency/staleness into `job`. Touches only the node's own state, so
  /// kQuery events run it in the parallel math phase.
  void answer_query(core::NodeId node, QueryJob& job);
  /// Per-node counters and the percentile estimators. Serial phase only.
  void account_query(core::NodeId node, const QueryJob& job);

  /// One completed node epoch awaiting its kTest timestamp.
  struct PendingEpoch {
    core::EpochCounters counters;
    StageTimes stages;  // already scaled by the epoch's slowdown
    SimTime start;
    SimTime end;
  };

  const core::RexConfig& rex_;
  const graph::Graph& topology_;
  ObjectArena<core::UntrustedHost>& hosts_;
  net::Transport& transport_;
  const CostModel& cost_model_;
  const LinkModel& links_;
  ThreadPool& pool_;
  ExperimentResult& result_;
  Config config_;

  /// Sharded calendar queue: identical (time, seq) pop order at any shard
  /// count (support/calendar_queue.hpp), shards scaled to the node
  /// population in the ctor (DESIGN.md §10).
  ShardedCalendarQueue<Event, EventCalendarKey> queue_;
  std::uint64_t next_seq_ = 0;
  SimTime clock_;
  std::size_t attestation_rounds_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t batches_processed_ = 0;
  bool initialized_ = false;

  std::vector<NodeStatus> nodes_;
  std::vector<EdgeTraffic> edge_traffic_;  // heterogeneous LinkModel only
  /// Borrowed fault harness (nullptr in benign runs — the default; every
  /// harness hook site is gated on this so the benign fast path is
  /// unchanged).
  ScenarioHarness* harness_ = nullptr;
  /// Re-attestation sweep grace ledger: pairs ((u<<32)|v, u<v) seen mid-
  /// handshake, keyed to the sweep that first saw them — healed only if
  /// still unattested one full sweep later (an in-flight handshake is not a
  /// broken one).
  std::map<std::uint64_t, std::uint64_t> pending_heal_;
  std::uint64_t reattest_sweeps_ = 0;
  std::uint64_t reattest_heals_ = 0;
  std::vector<Rng> jitter_rngs_;        // one independent stream per node
  // ===== Serving state (DESIGN.md §9; all empty with the load off) =====
  QueryLoad query_load_;
  std::vector<Rng> query_rngs_;         // one serving stream per node
  SlotPool<QueryJob> query_slots_;      // kQuery
  std::vector<QueryJob> barrier_query_next_;  // barrier mode only
  PercentileEstimator query_latency_{1e-6, 1e3};
  PercentileEstimator query_staleness_{1e-6, 1e5};
  /// Queued events that are NOT kQuery. Query chains reschedule only while
  /// this is positive, and the re-attestation sweep chain checks it instead
  /// of queue_.empty(): otherwise the two kinds of self-rescheduling chains
  /// would keep each other — and a finished run — alive forever.
  std::uint64_t non_query_queued_ = 0;
  std::size_t online_count_ = 0;        // nodes currently online
  ResyncTotals resync_totals_;          // engine-wide resync conservation
  /// Recycled scratch for flush_control / the kChurnUp neighbor census
  /// (serial phase only).
  std::vector<net::Envelope> control_scratch_;
  std::vector<core::NodeId> online_peers_scratch_;
  /// Whether run_epochs() targets are in force (epoch_target fields valid).
  bool targets_active_ = false;
  /// Nodes with epochs_done < epoch_target — re-censused when targets
  /// change, decremented as nodes cross their target; run_epochs spins on
  /// this instead of an O(n) all-nodes rescan per batch.
  std::size_t nodes_below_target_ = 0;

  // Per-event state, slot-addressed through Event::slot (no hash maps on
  // the event path). Released slots keep their heap capacity, so share
  // batch vectors recycle across epochs.
  SlotPool<net::Envelope> delivery_slots_;             // kDeliver
  SlotPool<std::vector<net::Envelope>> share_slots_;   // kShare
  SlotPool<PendingEpoch> epoch_slots_;                 // kTest
  std::vector<EpochBucket> buckets_;  // event-driven records, by epoch

  // Recycled batch scratch (process_next_batch): cleared, never shrunk.
  std::vector<Event> batch_;
  std::vector<std::vector<const Event*>> groups_;
  std::size_t groups_used_ = 0;
  /// Per-node batch-grouping tag + group index, lazily reset via the stamp
  /// (one cache line per node instead of two parallel arrays).
  struct GroupRef {
    std::uint64_t stamp = 0;
    std::uint32_t slot = 0;
  };
  std::vector<GroupRef> group_refs_;
  std::uint64_t batch_stamp_ = 0;
  std::vector<core::NodeId> batch_nodes_;
};

}  // namespace rex::sim

#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "ml/topk.hpp"
#include "sim/scenario.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace rex::sim {

namespace {
/// Calendar-queue shard count for a node population: one shard per ~16k
/// nodes, capped at 8. Pop order is provably identical at any shard count
/// (seq keys are unique, pop is argmin over shard tops), so this only
/// affects push/pop contention and bucket sizes (DESIGN.md §10).
std::size_t queue_shards(std::size_t nodes) {
  return std::clamp<std::size_t>(nodes / 16384, std::size_t{1},
                                 std::size_t{8});
}
}  // namespace

SimEngine::SimEngine(const core::RexConfig& rex, const graph::Graph& topology,
                     ObjectArena<core::UntrustedHost>& hosts,
                     net::Transport& transport, const CostModel& cost_model,
                     const LinkModel& links, ThreadPool& pool,
                     ExperimentResult& result, Config config)
    : rex_(rex),
      topology_(topology),
      hosts_(hosts),
      transport_(transport),
      cost_model_(cost_model),
      links_(links),
      pool_(pool),
      result_(result),
      config_(config),
      queue_(queue_shards(hosts.size())) {
  const std::size_t n = hosts_.size();
  REX_REQUIRE(n >= 1, "engine needs at least one node");
  REX_REQUIRE(topology_.node_count() == n, "topology/hosts size mismatch");
  nodes_.resize(n);
  online_count_ = n;
  if (links_.heterogeneous()) edge_traffic_.resize(links_.edge_count());
  group_refs_.assign(n, GroupRef{});
  jitter_rngs_.reserve(n);
  Rng master(config_.seed ^ 0x0E7E27D21FE27ULL);  // independent jitter seed
  for (std::size_t id = 0; id < n; ++id) {
    jitter_rngs_.push_back(master.derive(id));
    if (config_.dynamics.speed_lognormal_sigma > 0.0) {
      nodes_[id].slowdown = std::exp(config_.dynamics.speed_lognormal_sigma *
                                     jitter_rngs_[id].normal());
    }
  }
  query_load_ = QueryLoad(config_.query_load, n);
  if (query_load_.enabled()) {
    // One serving stream per node, independent of the jitter streams: an
    // enabled query load must not perturb straggler/churn draws.
    query_rngs_.reserve(n);
    Rng query_master(config_.seed ^ 0x5EF21C0DE5E21FULL);
    for (std::size_t id = 0; id < n; ++id) {
      query_rngs_.push_back(query_master.derive(id));
    }
  }
}

void SimEngine::require_initialized() const {
  REX_REQUIRE(initialized_, "call initialize() before running epochs");
}

void SimEngine::schedule(SimTime time, core::NodeId node, EventKind kind,
                         std::uint32_t slot) {
  Event event;
  event.time = time;
  event.seq = next_seq_++;
  event.node = node;
  event.kind = kind;
  event.slot = slot;
  if (kind != EventKind::kQuery) ++non_query_queued_;
  queue_.push(event);
}

void SimEngine::schedule_train(SimTime time, core::NodeId node) {
  ++nodes_[node].trains_pending;
  schedule(time, node, EventKind::kTrain);
}

double SimEngine::epoch_slowdown(core::NodeId id) {
  double factor = nodes_[id].slowdown;
  const NodeDynamics& dyn = config_.dynamics;
  if (dyn.straggler_probability > 0.0) {
    Rng& rng = jitter_rngs_[id];
    if (rng.bernoulli(dyn.straggler_probability)) {
      factor *= std::exp(dyn.straggler_lognormal_sigma *
                         std::abs(rng.normal()));
    }
  }
  return factor;
}

void SimEngine::note_epochs_done(core::NodeId id, std::uint64_t count) {
  NodeStatus& status = nodes_[id];
  const std::uint64_t before = status.epochs_done;
  status.epochs_done += count;
  if (targets_active_ && before < status.epoch_target &&
      status.epochs_done >= status.epoch_target) {
    REX_CHECK(nodes_below_target_ > 0, "below-target counter underflow");
    --nodes_below_target_;
  }
}

SimEngine::SchedulerStats SimEngine::scheduler_stats() const {
  SchedulerStats stats;
  stats.events = events_processed_;
  stats.batches = batches_processed_;
  stats.queue_resizes = queue_.stats().resizes;
  stats.direct_searches = queue_.stats().direct_searches;
  stats.queue_peak = queue_.stats().max_size;
  stats.delivery_slots = delivery_slots_.slots_allocated();
  stats.share_slots = share_slots_.slots_allocated();
  stats.epoch_slots = epoch_slots_.slots_allocated();
  return stats;
}

// ===== Attestation (pre-protocol phase, §III-A) =====

void SimEngine::run_attestation() {
  if (rex_.security == enclave::SecurityMode::kNative) return;
  const std::size_t n = hosts_.size();
  // Each node touches only its own sessions, DRBG and outbox, and
  // flush_round routes in sender order, so both phases run on the pool
  // (key generation first, then every delivery step) with output
  // identical at any worker count. The lower id of a pair initiates, so a
  // step's X25519 work is skewed towards one end of the id range; workers
  // claim nodes one at a time, which absorbs that skew.
  pool_.parallel_shards(n, [&](std::size_t id) {
    const auto node = static_cast<core::NodeId>(id);
    hosts_[id].start_attestation(std::vector<core::NodeId>(
        topology_.neighbors(node).begin(), topology_.neighbors(node).end()));
  });
  // Delivers every inbox; true if any envelope arrived.
  const auto deliver_all = [&] {
    std::atomic<bool> any_delivered{false};
    pool_.parallel_shards(n, [&](std::size_t id) {
      static thread_local std::vector<net::Envelope> drained;
      transport_.drain_inbox(static_cast<core::NodeId>(id), drained);
      if (!drained.empty()) {
        any_delivered.store(true, std::memory_order_relaxed);
      }
      for (const net::Envelope& env : drained) hosts_[id].on_deliver(env);
      drained.clear();  // release payload refs before the next node
    });
    return any_delivered.load(std::memory_order_relaxed);
  };
  // The 3-message handshake needs 3 delivery steps; allow slack for odd
  // schedules, then verify. Attestation precedes simulated time in both
  // modes: the clock does not advance and the event queue stays empty, but
  // each step counts as one processed event.
  constexpr std::size_t kMaxSteps = 8;
  bool any_delivered = true;
  while (any_delivered && attestation_rounds_ < kMaxSteps) {
    ++events_processed_;
    ++attestation_rounds_;
    transport_.flush_round();
    any_delivered = deliver_all();
  }
  transport_.flush_round();  // deliver stragglers of the final step
  (void)deliver_all();
  for (core::NodeId id = 0; id < n; ++id) {
    REX_REQUIRE(hosts_[id].trusted().fully_attested(),
                "mutual attestation failed for node " + std::to_string(id));
  }
}

// ===== Epoch 0 =====

void SimEngine::initialize(std::vector<data::NodeShard> shards) {
  REX_REQUIRE(!initialized_, "engine already initialized");
  const std::size_t n = hosts_.size();
  REX_REQUIRE(shards.size() == n, "one shard per node required");
  pool_.parallel_shards(n, [&](std::size_t id) {
    hosts_[id].runtime().reset_epoch_counters();
    core::TrustedInit init;
    init.local_train = std::move(shards[id].train);
    init.local_test = std::move(shards[id].test);
    init.neighbors.assign(
        topology_.neighbors(static_cast<core::NodeId>(id)).begin(),
        topology_.neighbors(static_cast<core::NodeId>(id)).end());
    hosts_[id].initialize(std::move(init));
    ++nodes_[id].events_processed;
  });
  events_processed_ += n;
  // Attestation traffic stays out of the epoch accounting: epoch 0 starts
  // from here in both disciplines.
  for (core::NodeId id = 0; id < n; ++id) {
    nodes_[id].traffic_mark = transport_.stats(id);
  }
  if (config_.mode == EngineMode::kBarrier) {
    if (query_load_.enabled()) {
      // Pre-draw each node's first arrival; collect_round_record serves
      // each round's window after the round's math.
      barrier_query_next_.reserve(n);
      for (core::NodeId id = 0; id < n; ++id) {
        barrier_query_next_.push_back(draw_query(id, SimTime{0.0}));
      }
    }
    transport_.flush_round();
    collect_round_record();
  } else {
    // Event mode: every node starts epoch 0 on its own timeline at t = 0.
    for (core::NodeId id = 0; id < n; ++id) {
      post_epoch(id, SimTime{0.0});
    }
    // Re-attestation sweep timer (DESIGN.md §8): one chain, anchored on
    // node 0; the sweep itself visits every online pair.
    if (config_.dynamics.reattest_interval_s > 0.0 &&
        rex_.security != enclave::SecurityMode::kNative) {
      schedule(SimTime{config_.dynamics.reattest_interval_s}, 0,
               EventKind::kReattestSweep);
    }
    // Serving (DESIGN.md §9): every node's query chain starts at its first
    // drawn arrival. Scheduled last — and only when enabled — so the seq
    // numbers of all protocol events above are untouched by the flag.
    if (query_load_.enabled()) {
      for (core::NodeId id = 0; id < n; ++id) {
        schedule_query(id, SimTime{0.0});
      }
    }
  }
  initialized_ = true;
}

// ===== Barrier mode =====

void SimEngine::run_barrier_round() {
  // One synchronized round == one batch of same-timestamp kTrain events,
  // one per node, executed concurrently: deliveries from round r-1 are
  // drained at the barrier, D-PSGD runs its epoch on the last arrival, RMW
  // trains because the round *is* its period.
  const std::size_t n = hosts_.size();
  // Nodes claim workers one at a time: epoch costs differ (store sizes,
  // degrees) and the round waits for the last node to finish, so a static
  // split would idle every worker that drew cheap nodes.
  pool_.parallel_shards(n, [&](std::size_t id) {
    hosts_[id].runtime().reset_epoch_counters();
    // Recycled per-worker drain buffer: the historical loop allocated (and
    // freed) one vector per node per round, n allocations a round at 10k
    // nodes for what is always the same few envelopes' worth of capacity.
    static thread_local std::vector<net::Envelope> drained;
    transport_.drain_inbox(static_cast<core::NodeId>(id), drained);
    for (const net::Envelope& env : drained) {
      hosts_[id].on_deliver(env);
    }
    drained.clear();  // release payload refs; keep capacity for the next node
    if (rex_.algorithm == core::Algorithm::kRmw) {
      hosts_[id].on_train_due();
    }
    ++nodes_[id].events_processed;
  });
  events_processed_ += n;
  transport_.flush_round();
  collect_round_record();
}

void SimEngine::collect_round_record() {
  const std::size_t n = hosts_.size();
  const SimTime round_start = clock_;
  EpochBucket bucket;
  for (core::NodeId id = 0; id < n; ++id) {
    const core::UntrustedHost& host = hosts_[id];
    StageTimes stages = cost_model_.stage_times(host);
    if (config_.dynamics.heterogeneous()) {
      // Same per-node draw sequence as the event engine, so barrier-vs-async
      // comparisons see the same straggler realizations.
      stages = stages * epoch_slowdown(id);
    }
    note_epochs_done(id, 1);
    // Serving bookkeeping (DESIGN.md §9): the node computes over
    // [round_start, round_start + its stage total]; the model it serves
    // afterwards became current at that compute end.
    NodeStatus& status = nodes_[id];
    status.busy_until = round_start + stages.total();
    status.model_fresh_at = status.busy_until;
    const net::TrafficStats& cumulative = transport_.stats(id);
    fold_epoch(bucket, id, host.trusted().last_epoch(), stages,
               stages.total(),
               cumulative.bytes_total() - status.traffic_mark.bytes_total());
    status.traffic_mark = cumulative;
  }
  RoundRecord record = bucket_record(result_.rounds.size(), bucket);
  // Homogeneous: the historical global propagation latency, bit-identical.
  // WAN profiles: the barrier waits for its slowest link every round.
  record.round_time = bucket.duration_max + links_.round_latency();
  clock_ += record.round_time;
  record.cumulative_time = clock_;
  result_.rounds.push_back(record);
  if (!query_load_.enabled()) return;
  // Every pre-drawn arrival before the round's end, nodes in id order.
  for (core::NodeId id = 0; id < n; ++id) {
    QueryJob& next = barrier_query_next_[id];
    while (next.arrival < clock_) {
      answer_query(id, next);
      account_query(id, next);
      next = draw_query(id, next.arrival);
    }
  }
}

void SimEngine::fold_epoch(EpochBucket& bucket, core::NodeId id,
                           const core::EpochCounters& counters,
                           const StageTimes& stages, SimTime duration,
                           std::uint64_t bytes) const {
  const bool first = bucket.contributors == 0;
  ++bucket.contributors;
  // Partition-aware sample: the fraction of the network online while this
  // record was collected (barrier and churn-free runs stay at exactly 1.0).
  bucket.reachable_sum += static_cast<double>(online_count_) /
                          static_cast<double>(nodes_.size());
  bucket.rmse_sum += counters.rmse;
  bucket.rmse_min =
      first ? counters.rmse : std::min(bucket.rmse_min, counters.rmse);
  bucket.rmse_max = std::max(bucket.rmse_max, counters.rmse);
  bucket.stage_sum += stages;
  bucket.bytes_sum += static_cast<double>(bytes);
  const double memory =
      static_cast<double>(hosts_[id].runtime().stats().resident_bytes);
  bucket.mem_sum += memory;
  bucket.mem_max = std::max(bucket.mem_max, memory);
  bucket.store_sum += static_cast<double>(counters.store_size);
  bucket.duplicates += counters.duplicates_dropped;
  bucket.bytes_saved += counters.bytes_saved_compression;
  bucket.duration_sum += duration;
  bucket.duration_max = std::max(bucket.duration_max, duration);
}

RoundRecord SimEngine::bucket_record(std::size_t epoch,
                                     const EpochBucket& bucket) {
  const double dn = static_cast<double>(bucket.contributors);
  RoundRecord record;
  record.epoch = epoch;
  record.nodes_reporting = bucket.contributors;
  record.reachable_fraction = bucket.reachable_sum / dn;
  record.mean_rmse = bucket.rmse_sum / dn;
  record.min_rmse = bucket.rmse_min;
  record.max_rmse = bucket.rmse_max;
  record.mean_bytes_in_out = bucket.bytes_sum / dn;
  record.mean_stages = bucket.stage_sum / dn;
  record.mean_memory_bytes = bucket.mem_sum / dn;
  record.max_memory_bytes = bucket.mem_max;
  record.mean_store_size = bucket.store_sum / dn;
  record.duplicates_dropped = bucket.duplicates;
  record.bytes_saved_compression = bucket.bytes_saved;
  return record;
}

// ===== Event mode =====

net::Envelope* SimEngine::prepare_delivery(const Event& event) {
  NodeStatus& status = nodes_[event.node];
  net::Envelope& env = delivery_slots_[event.slot];
  REX_CHECK(env.dst == event.node, "deliver event/envelope mismatch");
  REX_CHECK(env.deliver_at_s == event.time.seconds,
            "envelope delivered off its stamped timestamp");
  if (env.fault == FaultTag::kLost) {
    // Harness-injected loss (DESIGN.md §8): the envelope crossed the wire
    // (paying the sender's uplink and the edge) but vanishes here. Not a
    // churn drop — the fault ledger, not deliveries_dropped, accounts it.
    env.dropped = true;
    return nullptr;
  }
  // Recorded on the envelope, not recomputed in the serial phase: a
  // kChurnUp hook in the same batch may already have flipped `online`.
  if (!status.online && event.time >= status.offline_since) {
    ++status.deliveries_dropped;  // lost to churn
    env.dropped = true;
    return nullptr;
  }
  transport_.record_delivery(env);
  return &env;
}

void SimEngine::apply_event_math(const Event& event) {
  NodeStatus& status = nodes_[event.node];
  ++status.events_processed;
  switch (event.kind) {
    case EventKind::kDeliver: {
      if (net::Envelope* env = prepare_delivery(event)) {
        hosts_[event.node].on_deliver(*env);
      }
      return;
    }
    case EventKind::kTrain: {
      --status.trains_pending;     // this timer left the queue
      if (!status.online) return;  // churned: kChurnUp restarts the timer
      if (rex_.algorithm == core::Algorithm::kDpsgd &&
          hosts_[event.node].trusted().epochs_completed() >
              status.epochs_seen) {
        // A delivery in this same batch already ran an epoch; running the
        // catch-up now would fold two epochs into one metrics record.
        // post_epoch reschedules it if the next round is still buffered.
        return;
      }
      // RMW: the period timer. D-PSGD: a pipeline catch-up epoch if a full
      // round is already buffered (no-op otherwise).
      hosts_[event.node].on_train_due();
      return;
    }
    case EventKind::kQuery: {
      answer_query(event.node, query_slots_[event.slot]);
      return;
    }
    // Pure scheduling/bookkeeping events: handled in the serial phase.
    case EventKind::kShare:
    case EventKind::kTest:
    case EventKind::kChurnUp:
    case EventKind::kRejoinDeadline:
    case EventKind::kReattestSweep:
      return;
  }
}

void SimEngine::serial_event_hook(const Event& event) {
  switch (event.kind) {
    case EventKind::kDeliver: {
      net::Envelope& env = delivery_slots_[event.slot];
      if (harness_ != nullptr && env.fault != FaultTag::kNone) {
        harness_->on_fault_settled(env, !env.dropped);
      }
      if (env.kind == net::MessageKind::kResync) {
        // Resync conservation (DESIGN.md §6): every released byte lands
        // here — delivered or dropped to the receiver churning again.
        const std::uint64_t wire = env.wire_size();
        resync_totals_.in_flight_bytes -= wire;
        if (env.dropped) {
          resync_totals_.dropped_bytes += wire;
        } else {
          resync_totals_.rx_bytes += wire;
          nodes_[event.node].resync_bytes += wire;
        }
      }
      // Drop the payload reference now (returning pooled storage to the
      // sender side) rather than when the slot is next overwritten.
      env = net::Envelope{};
      delivery_slots_.release(event.slot);
      return;
    }
    case EventKind::kShare: {
      std::vector<net::Envelope>& batch = share_slots_[event.slot];
      for (net::Envelope& env : batch) {
        release_envelope(std::move(env), event.time);
      }
      batch.clear();
      share_slots_.release(event.slot);
      return;
    }
    case EventKind::kTest: {
      const PendingEpoch& pe = epoch_slots_[event.slot];
      NodeStatus& status = nodes_[event.node];
      note_epochs_done(event.node, 1);
      // The model this record describes is what queries arriving from here
      // on are answered with (DESIGN.md §9).
      status.model_fresh_at = pe.end;

      const std::size_t epoch = static_cast<std::size_t>(pe.counters.epoch);
      if (buckets_.size() <= epoch) buckets_.resize(epoch + 1);
      EpochBucket& bucket = buckets_[epoch];
      const net::TrafficStats& cumulative = transport_.stats(event.node);
      fold_epoch(bucket, event.node, pe.counters, pe.stages, pe.end - pe.start,
                 cumulative.bytes_total() - status.traffic_mark.bytes_total());
      status.traffic_mark = cumulative;
      bucket.last_end = std::max(bucket.last_end, pe.end);
      epoch_slots_.release(event.slot);
      return;
    }
    case EventKind::kChurnUp: {
      NodeStatus& status = nodes_[event.node];
      status.online = true;
      ++online_count_;
      ++status.rejoins;
      // Rejoin protocol (DESIGN.md §6): re-attest with the online
      // neighbors and pull their current model state before training
      // resumes. The train timer restarts in complete_rejoin — either when
      // the exchange finishes or when the watchdog fires.
      status.rejoining = true;
      ++status.rejoin_gen;
      status.rejoin_started = event.time;
      online_peers_scratch_.clear();
      for (const core::NodeId peer : topology_.neighbors(event.node)) {
        if (nodes_[peer].online) online_peers_scratch_.push_back(peer);
      }
      hosts_[event.node].begin_rejoin(online_peers_scratch_);
      if (hosts_[event.node].trusted().rejoining()) {
        schedule(event.time + SimTime{config_.dynamics.rejoin_timeout_s},
                 event.node, EventKind::kRejoinDeadline, status.rejoin_gen);
      }
      // Challenges / resync requests leave, and an immediate completion
      // (full partition) restarts the timer, in this batch's node sweep.
      return;
    }
    case EventKind::kRejoinDeadline: {
      NodeStatus& status = nodes_[event.node];
      if (!status.rejoining || status.rejoin_gen != event.slot) {
        return;  // completed in time, or a previous outage's watchdog
      }
      ++status.rejoin_timeouts;
      hosts_[event.node].trusted().finish_rejoin();
      complete_rejoin(event.node, event.time);
      return;
    }
    case EventKind::kReattestSweep: {
      run_reattest_sweep(event.time);
      // Reschedule only while other (non-query) work is queued: a sweep
      // chain must not keep an otherwise-finished run alive — and query
      // chains, which apply the same rule, must not count as "other work"
      // or the two kinds of chains would sustain each other forever.
      if (non_query_queued_ > 0) {
        schedule(event.time + SimTime{config_.dynamics.reattest_interval_s},
                 0, EventKind::kReattestSweep);
      }
      return;
    }
    case EventKind::kQuery: {
      account_query(event.node, query_slots_[event.slot]);
      query_slots_.release(event.slot);
      // Chain the node's next arrival only while non-query work remains:
      // when training/churn/WAN activity has quiesced, the chains drain and
      // the run ends (N open-loop chains would otherwise keep each other
      // alive).
      if (non_query_queued_ > 0) schedule_query(event.node, event.time);
      return;
    }
    case EventKind::kTrain:
      return;  // math-phase event: nothing to do here
  }
}

void SimEngine::release_envelope(net::Envelope env, SimTime release) {
  if (harness_ != nullptr && env.fault == FaultTag::kNone) {
    // Adversarial filter (DESIGN.md §8): may tag the envelope lost, tamper
    // its ciphertext, stash it for replay, or queue injected copies —
    // drained below so they pay the same uplink as organic traffic.
    // Already-faulted envelopes (injected copies) pass through untouched.
    harness_->on_release(env, release);
  }
  NodeStatus& dst = nodes_[env.dst];
  if (!dst.online && release >= dst.offline_since) {
    // The sender knows the peer is down (its outage has begun): shares and
    // control traffic alike are elided — the peer re-initiates when it
    // returns (DESIGN.md §6 "Offline shares").
    if (harness_ != nullptr && env.fault != FaultTag::kNone) {
      harness_->on_fault_elided(env);
    }
    ++dst.deliveries_elided;  // never transmitted: no uplink accounting
    return;                   // payload reference drops with env
  }
  transport_.record_send(env);  // the envelope actually hits the wire
  SimTime sent = release;
  SimTime deliver_at;
  if (links_.heterogeneous()) {
    const std::size_t e = links_.edge_id(env.src, env.dst);
    const SimTime tx{static_cast<double>(env.wire_size()) /
                     links_.edge_bandwidth_bytes_per_s(e)};
    // Transmissions serialize on the sender's uplink (sum of tx times),
    // data shares and control traffic alike: they share one wire. Releases
    // come in event-time order and the edge latency is fixed, so a pair's
    // deliveries keep their release order (ties schedule by seq).
    sent = nodes_[env.src].tx.transmit(release, tx);
    deliver_at = sent + SimTime{links_.edge_latency_s(e)};
    EdgeTraffic& edge = edge_traffic_[e];
    ++edge.deliveries;
    edge.bytes += env.wire_size();
    edge.delay_sum_s += (deliver_at - release).seconds;
  } else {
    deliver_at = release + links_.latency(env.src, env.dst);
  }
  if (env.kind == net::MessageKind::kResync) {
    resync_totals_.tx_bytes += env.wire_size();
    resync_totals_.in_flight_bytes += env.wire_size();
  }
  env.sent_at_s = sent.seconds;
  env.deliver_at_s = deliver_at.seconds;
  const std::uint32_t slot = delivery_slots_.acquire();
  delivery_slots_[slot] = std::move(env);
  schedule(deliver_at, delivery_slots_[slot].dst, EventKind::kDeliver, slot);
  if (harness_ != nullptr) {
    // Injected duplicate/replay copies ride the wire like organic traffic:
    // released here (recursively — a copy of a faulted envelope is itself
    // faulted and passes the filter untouched) they queue behind this
    // transmission on the same uplink and edge FIFO, so delivery of a
    // duplicate always follows its original.
    net::Envelope extra;
    while (harness_->pop_injected(extra)) {
      release_envelope(std::move(extra), release);
    }
  }
}

void SimEngine::flush_control(core::NodeId id, SimTime now) {
  if (transport_.outbox_size(id) == 0) return;
  control_scratch_.clear();
  transport_.take_outbox(id, control_scratch_);
  for (net::Envelope& env : control_scratch_) {
    REX_CHECK(env.kind != net::MessageKind::kProtocol,
              "protocol share queued outside an epoch");
    release_envelope(std::move(env), now);
  }
  control_scratch_.clear();
}

void SimEngine::check_rejoin(core::NodeId id, SimTime now) {
  if (!nodes_[id].rejoining) return;
  if (hosts_[id].trusted().rejoining()) return;  // exchange still running
  complete_rejoin(id, now);
}

void SimEngine::complete_rejoin(core::NodeId id, SimTime now) {
  NodeStatus& status = nodes_[id];
  status.rejoining = false;
  ++status.rejoins_completed;
  status.rejoin_latency_sum_s += (now - status.rejoin_started).seconds;
  // Training resumes — same restart rule kChurnUp used before the rejoin
  // protocol existed: only if no timer survived the outage, and for D-PSGD
  // only if a full round is already buffered (deliveries accepted during
  // the exchange count).
  if (status.trains_pending == 0 &&
      (rex_.algorithm == core::Algorithm::kRmw ||
       hosts_[id].trusted().round_ready())) {
    schedule_train(now, id);
  }
}

void SimEngine::run_reattest_sweep(SimTime now) {
  // Scan online neighbor pairs for attestation sessions a mid-run handshake
  // left broken — a failed verify (kFailed), or an asymmetric pair where one
  // side attested and the other did not (its quote was lost or corrupted in
  // flight) — and restart the handshake from the stuck side (DESIGN.md §8
  // "Re-attestation sweep"). A pair where *both* sides are mid-handshake may
  // simply be in flight: it gets one full sweep interval of grace
  // (pending_heal_) before being declared stuck. Nodes that are offline or
  // running the rejoin protocol are skipped — rejoin owns its own handshake.
  ++reattest_sweeps_;
  const std::size_t n = hosts_.size();
  for (core::NodeId u = 0; u < n; ++u) {
    if (!nodes_[u].online || nodes_[u].rejoining) continue;
    for (const core::NodeId v : topology_.neighbors(u)) {
      if (v <= u) continue;
      if (!nodes_[v].online || nodes_[v].rejoining) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
      const enclave::AttestationState su =
          hosts_[u].trusted().session_state(v);
      const enclave::AttestationState sv =
          hosts_[v].trusted().session_state(u);
      const bool u_ok = su == enclave::AttestationState::kAttested;
      const bool v_ok = sv == enclave::AttestationState::kAttested;
      if (u_ok && v_ok) {
        pending_heal_.erase(key);
        continue;
      }
      const bool failed = su == enclave::AttestationState::kFailed ||
                          sv == enclave::AttestationState::kFailed;
      if (!failed && !u_ok && !v_ok) {
        const auto [it, fresh] = pending_heal_.emplace(key, reattest_sweeps_);
        if (fresh || it->second == reattest_sweeps_) continue;  // grace
      }
      pending_heal_.erase(key);
      // Restart from the side that cannot make progress: a failed session,
      // or the unattested half of an asymmetric pair.
      core::NodeId initiator = u;
      if (su == enclave::AttestationState::kFailed) {
        initiator = u;
      } else if (sv == enclave::AttestationState::kFailed) {
        initiator = v;
      } else if (u_ok && !v_ok) {
        initiator = v;
      }
      const core::NodeId target = initiator == u ? v : u;
      hosts_[initiator].trusted().heal_attestation(target);
      ++reattest_heals_;
      flush_control(initiator, now);  // the challenge leaves immediately
    }
  }
}

// ===== Serving path (DESIGN.md §9) =====

SimEngine::QueryJob SimEngine::draw_query(core::NodeId node, SimTime after) {
  QueryJob job;
  job.arrival = query_load_.next_arrival(node, after, query_rngs_[node]);
  job.user_pick = query_rngs_[node].next_u64();
  return job;
}

void SimEngine::schedule_query(core::NodeId node, SimTime after) {
  const std::uint32_t slot = query_slots_.acquire();
  QueryJob& job = query_slots_[slot];
  job = draw_query(node, after);
  schedule(job.arrival, node, EventKind::kQuery, slot);
}

void SimEngine::answer_query(core::NodeId node, QueryJob& job) {
  const NodeStatus& status = nodes_[node];
  if (!status.online && job.arrival >= status.offline_since) {
    // Same rule as prepare_delivery: the replica's outage has begun, the
    // request has nowhere to go (routing to a warm peer is future work).
    job.dropped = true;
    return;
  }
  core::TrustedNode& trusted = hosts_[node].trusted();
  const std::size_t users = trusted.local_user_count();
  const data::UserId user =
      users > 0 ? trusted.local_user(
                      static_cast<std::size_t>(job.user_pick % users))
                : 0;
  // Real inference against the node's current model — the scoring loop and
  // the partial-sort select actually run (this is the wall-clock hot path
  // bench_serving measures), even though the simulated service time below
  // comes from the cost model.
  (void)trusted.query_topk(user, query_load_.config().top_k);
  const SimTime compute = cost_model_.query_time(
      ml::TopKIndex::flops_per_query(trusted.model()), status.slowdown);
  // Open-loop replica model: a query arriving while the node is mid-epoch
  // waits for the compute to finish (training and serving share the
  // replica's one simulated core), then is answered by the epoch that was
  // in flight — fresh, so staleness 0. A query hitting an idle replica is
  // answered immediately by the last recorded model. Queries never extend
  // busy_until: serving does not slow training down, which keeps training
  // metrics byte-identical with the load on.
  const double wait =
      std::max(0.0, (status.busy_until - job.arrival).seconds);
  job.latency_s = wait + compute.seconds;
  job.staleness_s =
      wait > 0.0
          ? 0.0
          : std::max(0.0, (job.arrival - status.model_fresh_at).seconds);
}

void SimEngine::account_query(core::NodeId node, const QueryJob& job) {
  NodeStatus& status = nodes_[node];
  ++status.queries_issued;
  if (job.dropped) {
    ++status.queries_dropped_offline;
    return;
  }
  ++status.queries_served;
  query_latency_.record(job.latency_s);
  query_staleness_.record(job.staleness_s);
  if (job.staleness_s > query_load_.config().stale_threshold_s) {
    ++status.queries_stale;
  }
}

SimEngine::QueryTotals SimEngine::query_totals() const {
  QueryTotals totals;
  for (const NodeStatus& status : nodes_) {
    totals.issued += status.queries_issued;
    totals.served += status.queries_served;
    totals.stale += status.queries_stale;
    totals.dropped_offline += status.queries_dropped_offline;
  }
  return totals;
}

void SimEngine::post_epoch(core::NodeId id, SimTime start) {
  core::UntrustedHost& host = hosts_[id];
  NodeStatus& status = nodes_[id];

  const StageTimes stages =
      cost_model_.stage_times(host) * epoch_slowdown(id);

  const SimTime begin = std::max(start, status.busy_until);
  const SimTime share_release =
      begin + stages.merge + stages.train + stages.share;
  const SimTime end = share_release + stages.test;
  status.busy_until = end;

  // Shares queued during the protocol run hit the wire when the share
  // stage completes; each envelope then propagates per edge. The batch
  // vector is a recycled slot — drained outboxes cost no allocation once
  // the pool is warm. Control traffic the node raised in the same batch
  // (rejoin handshake replies, resync responses — DESIGN.md §6) does not
  // wait for the share stage: it is released immediately.
  const std::uint32_t share_slot = share_slots_.acquire();
  std::vector<net::Envelope>& outbox = share_slots_[share_slot];
  outbox.clear();
  transport_.take_outbox(id, outbox);
  std::size_t kept = 0;
  for (net::Envelope& env : outbox) {
    if (env.kind == net::MessageKind::kProtocol) {
      if (kept != static_cast<std::size_t>(&env - outbox.data())) {
        outbox[kept] = std::move(env);
      }
      ++kept;
    } else {
      release_envelope(std::move(env), start);
    }
  }
  outbox.resize(kept);
  if (!outbox.empty()) {
    schedule(share_release, id, EventKind::kShare, share_slot);
  } else {
    share_slots_.release(share_slot);
  }

  {
    const std::uint32_t epoch_slot = epoch_slots_.acquire();
    PendingEpoch& pe = epoch_slots_[epoch_slot];
    pe.counters = host.trusted().last_epoch();
    pe.stages = stages;
    pe.start = begin;
    pe.end = end;
    schedule(end, id, EventKind::kTest, epoch_slot);
  }

  host.runtime().reset_epoch_counters();
  // Two protocol runs can land in one same-timestamp batch on rare exact
  // time ties (catch-up train + last arrival). Their metrics fold into this
  // one record; count the folded epochs so run_epochs targets stay exact.
  const std::uint64_t completed = host.trusted().epochs_completed();
  const std::uint64_t delta = completed - status.epochs_seen;
  if (delta > 1) {
    note_epochs_done(id, delta - 1);
    status.epochs_folded += delta - 1;
  }
  status.epochs_seen = completed;

  // RMW trains on its period (a real timer); 0 = self-paced back-to-back.
  if (rex_.algorithm == core::Algorithm::kRmw) {
    const double period = rex_.rmw_period_s;
    const SimTime next =
        period > 0.0 ? std::max(start + SimTime{period}, end) : end;
    schedule_train(next, id);
  } else if (status.trains_pending == 0 && host.trusted().round_ready()) {
    // D-PSGD pipeline catch-up: the next round is fully buffered already,
    // so no further arrival will trigger it — train when the node frees up.
    schedule_train(end, id);
  }

  // Churn: the node may drop offline when this epoch ends. Marked now
  // (only event times decide behavior) with the outage starting at `end`,
  // so deliveries landing while the node still computes are accepted. A
  // node already in an outage (this epoch was completed by an in-flight
  // delivery) keeps its current outage window — no overlapping draws.
  const NodeDynamics& dyn = config_.dynamics;
  if (dyn.churning() && status.online &&
      jitter_rngs_[id].bernoulli(dyn.churn_probability)) {
    status.online = false;
    --online_count_;
    status.offline_since = end;
    const double u = jitter_rngs_[id].uniform01();
    const SimTime downtime{-std::log(1.0 - u) * dyn.churn_downtime_s};
    // The node computes nothing during the outage: an epoch triggered by a
    // delivery that slipped in before the outage is placed after recovery
    // (its math already ran, but its simulated start, shares and record
    // wait for the node to come back).
    status.busy_until = std::max(status.busy_until, end + downtime);
    schedule(end + downtime, id, EventKind::kChurnUp);
  }
}

bool SimEngine::process_next_batch() {
  if (queue_.empty()) return false;
  batch_.clear();
  queue_.pop_time_batch(batch_);
  for (const Event& event : batch_) {
    if (event.kind != EventKind::kQuery) --non_query_queued_;
  }
  const SimTime t = batch_.front().time;
  clock_ = std::max(clock_, t);
  events_processed_ += batch_.size();
  ++batches_processed_;

  // Math phase. Fast path: most batches hold a single event (distinct
  // timestamps), for which grouping and the worker handoff are pure
  // overhead — one event is trivially "in seq order within its node".
  batch_nodes_.clear();
  if (batch_.size() == 1) {
    apply_event_math(batch_.front());
    batch_nodes_.push_back(batch_.front().node);
  } else {
    // Parallel: group by node (nodes own disjoint state), one
    // work-stealing shard per node, events within a node in seq order. The
    // grouping containers are all recycled: stamps make the per-node lookup
    // table reset lazily instead of O(n) per batch.
    for (std::size_t g = 0; g < groups_used_; ++g) groups_[g].clear();
    groups_used_ = 0;
    ++batch_stamp_;
    for (const Event& event : batch_) {  // batch is already seq-sorted
      GroupRef& ref = group_refs_[event.node];
      if (ref.stamp != batch_stamp_) {
        ref.stamp = batch_stamp_;
        ref.slot = static_cast<std::uint32_t>(groups_used_);
        if (groups_used_ == groups_.size()) groups_.emplace_back();
        ++groups_used_;
      }
      groups_[ref.slot].push_back(&event);
    }
    pool_.parallel_shards(groups_used_, [&](std::size_t g) {
      for (const Event* event : groups_[g]) apply_event_math(*event);
    });
    for (std::size_t g = 0; g < groups_used_; ++g) {
      batch_nodes_.push_back(groups_[g].front()->node);
    }
    std::sort(batch_nodes_.begin(), batch_nodes_.end());
  }

  // Serial scheduling phase: event hooks in seq order, then completed
  // protocol runs in node-id order — deterministic regardless of threads.
  // Only nodes that processed an event this batch can have completed an
  // epoch, so sweep those, not all n (batches are usually a single event).
  for (const Event& event : batch_) serial_event_hook(event);
  for (const core::NodeId id : batch_nodes_) {
    if (hosts_[id].trusted().epochs_completed() > nodes_[id].epochs_seen) {
      post_epoch(id, t);
    } else {
      flush_control(id, t);  // rejoin traffic raised this batch
    }
    check_rejoin(id, t);
  }
  if (harness_ != nullptr) harness_->on_batch(clock_);
  return true;
}

void SimEngine::run_epochs(std::size_t epochs) {
  require_initialized();
  if (config_.mode == EngineMode::kBarrier) {
    for (std::size_t e = 0; e < epochs; ++e) run_barrier_round();
    return;
  }
  const std::size_t n = hosts_.size();
  // First call: epochs + 1 total (epoch 0 is scheduled but not recorded
  // yet) — the same count a barrier run of `epochs` rounds after
  // initialize() produces; the max() keeps "epochs further" correct for a
  // node that already recorded some. Later calls extend the target.
  if (!targets_active_) {
    targets_active_ = true;
    for (std::size_t id = 0; id < n; ++id) {
      nodes_[id].epoch_target =
          std::max<std::uint64_t>(epochs + 1, nodes_[id].epochs_done + epochs);
    }
  } else {
    for (NodeStatus& status : nodes_) status.epoch_target += epochs;
  }
  // Census once per call (O(n)); process_next_batch then maintains the
  // counter incrementally as nodes cross their targets.
  nodes_below_target_ = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (nodes_[id].epochs_done < nodes_[id].epoch_target) ++nodes_below_target_;
  }
  // Runaway guard: orders of magnitude above any legitimate schedule.
  const std::uint64_t cap =
      events_processed_ + 1'000'000 +
      static_cast<std::uint64_t>(epochs) * n * 1000;
  while (nodes_below_target_ > 0) {
    if (events_processed_ >= cap) {
      // Name a culprit: the first node still below its target, with the
      // scheduling state that usually explains a spin (a timer chain
      // firing without progress, or a rejoin that never completes).
      std::string detail = "event engine runaway after " +
                           std::to_string(events_processed_) + " events";
      for (std::size_t id = 0; id < n; ++id) {
        const NodeStatus& s = nodes_[id];
        if (s.epochs_done >= s.epoch_target) continue;
        detail += ": node " + std::to_string(id) + " at " +
                  std::to_string(s.epochs_done) + "/" +
                  std::to_string(s.epoch_target) + " epochs, " +
                  std::to_string(s.trains_pending) +
                  " pending train timer(s), " +
                  (s.online ? (s.rejoining ? "rejoining" : "online")
                            : "offline") +
                  "; " + std::to_string(queue_.size()) +
                  " events queued";
        break;
      }
      detail += " — check period/churn configuration";
      REX_REQUIRE(events_processed_ < cap, detail);
    }
    if (!process_next_batch()) {
      // Queue drained before the targets were met — e.g. a D-PSGD
      // neighborhood stalled on deliveries lost to churn. Results are
      // truncated; say so rather than letting a sweep plot them silently.
      REX_LOG_WARN(
          "event engine stalled before epoch target: queue drained at "
          "t=%.6fs (results truncated)",
          clock_.seconds);
      break;
    }
  }
  finalize_async_records();
}

void SimEngine::finalize_async_records() {
  result_.rounds.clear();
  SimTime completed_by;  // running max: keeps the time axis monotone
  for (std::size_t epoch = 0; epoch < buckets_.size(); ++epoch) {
    const EpochBucket& bucket = buckets_[epoch];
    if (bucket.contributors == 0) continue;
    RoundRecord record = bucket_record(epoch, bucket);
    record.round_time = SimTime{bucket.duration_sum.seconds /
                                static_cast<double>(bucket.contributors)};
    // The time by which this epoch index was complete across all reporting
    // nodes. A slow node's late epoch e can outlast fast nodes' epoch e+1,
    // so take a running max to keep total_time()/time_to_reach() on a
    // monotone axis.
    completed_by = std::max(completed_by, bucket.last_end);
    record.cumulative_time = completed_by;
    result_.rounds.push_back(record);
  }
}

}  // namespace rex::sim

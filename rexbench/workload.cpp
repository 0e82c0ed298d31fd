// rexbench_workload: runs one REX benchmark workload in its own process and
// prints its raw measurements as one JSON object on stdout.
//
//   rexbench_workload --workload NAME --seed N --seconds S --trace 0|1
//                     --out-dir DIR
//
// Untraced (--trace 0): repeats the workload (set-up, run_epochs, output
// checks) while the next repetition is predicted to end within S seconds,
// at least once. Each repetition times the four public set-up calls and
// run_epochs and reads the engine's public counters.
//
// Traced (--trace 1): one repetition with spans kept in memory around every
// public call, the report writers run into DIR, microtimings of single
// layers taken on the trained state, then the same repetition at the other
// worker count of the pair (1, pool width) — the pool-speedup pass. The
// spans are written out once, with the rest, at the end.
//
// The benchmark only calls public librex functions and reads public
// counters: every layer is measured from the outside. Sums over nodes are
// taken here; every ratio, median and percentile is computed by
// rexbench/ledger.py, which carries the tests for that arithmetic.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/payload.hpp"
#include "crypto/aead.hpp"
#include "data/movielens.hpp"
#include "serialize/json.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/experiment.hpp"
#include "sim/link_model.hpp"
#include "sim/report.hpp"
#include "support/calendar_queue.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;
using serialize::Json;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_kib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss);  // Linux: KiB
}

double current_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

// ===== workloads =====

struct Workload {
  sim::Scenario scenario;
  std::size_t epochs = 0;
  /// Worker threads of the measured runs (already capped at nproc).
  std::size_t threads = 1;
  /// Pool width that the traced run's second pass compares one worker
  /// against (support.pool_speedup); 1 skips that pass.
  std::size_t pool = 1;
  /// sim_time_to_target_s target as a constant share of the run's own
  /// epoch-0 RMSE (dataset draws move the RMSE level, not the relative
  /// descent); placed where every seed crosses it at the same epoch.
  double target_ratio = 0.0;
  /// write_node_csv decimation in the traced run (the mega profile's
  /// O(active) default stride, a full dump elsewhere).
  std::size_t node_csv_stride = 1;
  /// Peak-RSS budget per node (the lean-memory acceptance bar); 0 = none.
  double rss_budget_kib_per_node = 0.0;
};

/// Seed 1 of the existing benches: the experiment seed of every workload
/// whose seed draws the dataset, and the dataset seed of paper-sgx.
constexpr std::uint64_t kBenchSeed = 1;

/// Shared shape of learn-10k and mega-100k: one-user nodes on 100 items,
/// event-driven D-PSGD raw shares with tiny MF models and log-normal
/// stragglers (bench_async_stragglers' learning cell). The seed draws the
/// ratings; the straggler schedule stays that of the experiment seed, so
/// every seed runs an engine schedule of the same shape.
sim::Scenario learning_cell(std::uint64_t seed, std::size_t nodes) {
  sim::Scenario s;
  s.dataset.n_users = nodes;
  s.dataset.n_items = 100;
  s.dataset.n_ratings = nodes * 10;
  s.dataset.min_ratings_per_user = 5;
  s.dataset.seed = seed ^ 0xDA7A;
  s.seed = kBenchSeed;
  s.nodes = 0;
  s.topology = sim::TopologyKind::kSmallWorld;
  s.model = sim::ModelKind::kMf;
  s.mf_embedding_dim = 2;
  s.mf_sgd_steps_per_epoch = 4;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.data_points_per_epoch = 4;
  s.engine_mode = sim::EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.25;
  s.dynamics.straggler_probability = 0.3;
  s.dynamics.straggler_lognormal_sigma = 1.0;
  return s;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  const std::size_t pool = std::min<std::size_t>(4, available_cpus());
  Workload w;
  w.pool = pool;
  if (name == "learn-10k") {
    // One worker: at four, most of its 2.7-event batches wait on a pool
    // wake-up, and on a shared 4-vCPU host the run time then jumps between
    // two modes about 1.7x apart. The traced run still measures the pool.
    w.scenario = learning_cell(seed, 10000);
    w.epochs = 10;
    w.threads = 1;
    w.target_ratio = 0.9962;
  } else if (name == "mega-100k") {
    w.scenario = learning_cell(seed, 100000);
    w.scenario.lean_memory = true;
    w.epochs = 1;
    w.threads = 1;
    w.pool = 1;  // the lean path bypasses the pool
    w.target_ratio = 0.9992;
    w.node_csv_stride = 1000;
    w.rss_budget_kib_per_node = 40.0;
  } else if (name == "paper-sgx" || name == "paper-native") {
    // The paper runs Table II on one dataset; here the seed draws the
    // experiment (split, ER topology, model init) on the fixed dataset.
    // paper-native is the same cell without the enclave: it bypasses the
    // attestation, sealing and AEAD layers that paper-sgx exercises.
    sim::Scenario& s = w.scenario;
    s.dataset = data::movielens_latest_config();
    s.dataset.seed = kBenchSeed ^ 0xDA7A;
    s.nodes = 0;
    s.topology = sim::TopologyKind::kErdosRenyi;
    s.model = sim::ModelKind::kMf;
    s.rex.algorithm = core::Algorithm::kDpsgd;
    s.rex.sharing = core::SharingMode::kRawData;
    s.rex.data_points_per_epoch = 300;
    s.rex.security = name == "paper-sgx" ? enclave::SecurityMode::kSgxSimulated
                                         : enclave::SecurityMode::kNative;
    s.seed = seed;
    w.epochs = 10;
    w.threads = pool;
    w.target_ratio = 0.9928;
  } else if (name == "serve-churn") {
    // The seed draws the ratings; churn, link and query draws stay those
    // of the experiment seed.
    sim::Scenario& s = w.scenario;
    s.dataset.n_users = 128;
    s.dataset.n_items = 1200;
    s.dataset.n_ratings = 9600;
    s.dataset.seed = seed ^ 0xDA7A;
    s.nodes = 0;
    s.topology = sim::TopologyKind::kSmallWorld;
    s.model = sim::ModelKind::kMf;
    s.mf_sgd_steps_per_epoch = 100;
    s.rex.algorithm = core::Algorithm::kRmw;
    s.rex.sharing = core::SharingMode::kRawData;
    s.rex.data_points_per_epoch = 20;
    s.seed = kBenchSeed;
    s.engine_mode = sim::EngineMode::kEventDriven;
    s.dynamics.speed_lognormal_sigma = 0.3;
    s.dynamics.churn_probability = 0.2;
    s.dynamics.churn_downtime_s = 0.002;
    s.costs.wan = sim::make_wan_profile("geo");
    s.query_load.rate_hz = 40000.0;
    s.query_load.top_k = 10;
    s.query_load.zipf_s = 0.8;
    s.query_load.diurnal_amplitude = 0.5;
    s.query_load.diurnal_period_s = 0.25;
    s.query_load.stale_threshold_s = 0.25;
    w.epochs = 30;
    // One worker: with 1.05 events per batch the pool has nothing to
    // spread (support.pool_speedup is about 1).
    w.threads = 1;
    w.target_ratio = 0.985;
  } else {
    return std::nullopt;
  }
  w.scenario.label = name;
  return w;
}

// ===== spans =====

/// Spans (name, start, end, parent, run id) kept in memory and written out
/// once at the end. Disabled tracers still time their spans — the untraced
/// runs need the durations — but keep nothing.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), name_(name), start_(Clock::now()),
          parent_(tracer.open_.empty() ? -1 : tracer.open_.back()) {
      tracer_.open_.push_back(static_cast<int>(tracer_.next_id_++));
      id_ = tracer_.open_.back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (!closed_) close();
    }
    /// Ends the span; returns its duration in seconds.
    double close() {
      const Clock::time_point end = Clock::now();
      closed_ = true;
      tracer_.open_.pop_back();
      if (tracer_.enabled_) {
        Json span = Json::object();
        span["name"] = name_;
        span["id"] = id_;
        span["parent"] = parent_;
        span["run"] = tracer_.run_;
        span["start_s"] = seconds_between(tracer_.origin_, start_);
        span["end_s"] = seconds_between(tracer_.origin_, end);
        tracer_.spans_.push_back(std::move(span));
      }
      return seconds_between(start_, end);
    }

   private:
    Tracer& tracer_;
    const char* name_;
    Clock::time_point start_;
    int parent_;
    int id_ = 0;
    bool closed_ = false;
  };

  void set_run(int run) { run_ = run; }
  [[nodiscard]] Json spans() const { return Json(spans_); }

 private:
  bool enabled_;
  Clock::time_point origin_;
  int run_ = 0;
  std::size_t next_id_ = 0;
  std::vector<int> open_;
  serialize::JsonArray spans_;
};

// ===== output checks =====

class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail) {
    Json check = Json::object();
    check["name"] = name;
    check["ok"] = ok;
    check["detail"] = detail;
    list_.push_back(std::move(check));
  }
  [[nodiscard]] Json json() const { return Json(list_); }

 private:
  serialize::JsonArray list_;
};

// ===== microtimings (traced run only) =====

/// Times `op` in blocks of a calibrated size (about 20 us per block, so the
/// clock read is noise) and returns one per-op sample per block, divided by
/// `per_op_units` (bytes for per-byte rates, 1 otherwise).
template <class Op>
Json sample_blocks(Op&& op, double per_op_units, double scale_to_unit,
                   const char* unit, std::size_t samples) {
  for (int i = 0; i < 16; ++i) op();  // warm caches before calibrating
  std::size_t block = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < block; ++i) op();
    if (seconds_between(t0, Clock::now()) >= 20e-6 || block >= (1u << 20)) {
      break;
    }
    block *= 2;
  }
  serialize::JsonArray values;
  values.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < block; ++i) op();
    const double per_op = seconds_between(t0, Clock::now()) /
                          static_cast<double>(block);
    values.emplace_back(per_op * scale_to_unit / per_op_units);
  }
  Json out = Json::object();
  out["unit"] = unit;
  out["ops_per_sample"] = static_cast<std::uint64_t>(block);
  out["samples"] = Json(std::move(values));
  return out;
}

/// A node with both train and test ratings, picked from the seed.
std::size_t pick_node(const std::vector<data::NodeShard>& shards,
                      std::uint64_t seed) {
  const std::size_t n = shards.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = (seed + k) % n;
    if (!shards[id].train.empty() && !shards[id].test.empty()) return id;
  }
  return 0;
}

/// Microtimings of single layers on the trained state of `simulator`;
/// `det` (the repetition's deterministic outputs) sizes the inputs.
Json run_microtimings(const Workload& w, sim::Simulator& simulator,
                      const Json& det, Tracer& tracer) {
  constexpr std::size_t kSamples = 1000;
  const sim::Scenario& scenario = w.scenario;
  Rng rng(scenario.seed ^ 0xB3AC);
  Json micro = Json::object();
  std::uint64_t sink = 0;

  {
    // Calendar-queue hold model at the run's peak occupancy: pop the
    // earliest event, push one at its time plus an exponential gap whose
    // mean keeps the queue's event rate at the run's own rate.
    Tracer::Scope span(tracer, "micro.support.queue");
    const std::size_t occupancy =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     det.at("queue_peak").as_number()));
    const double events = std::max(1.0, det.at("events").as_number());
    const double horizon = std::max(1e-9, det.at("sim_now_s").as_number());
    const double mean_gap = static_cast<double>(occupancy) * horizon / events;
    const std::size_t shards =
        std::clamp<std::size_t>(simulator.node_count() / 16384, 1, 8);
    ShardedCalendarQueue<sim::Event, sim::EventCalendarKey> queue(shards);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < occupancy; ++i) {
      sim::Event e;
      e.time = SimTime{rng.uniform01() * mean_gap};
      e.seq = seq++;
      e.node = static_cast<net::NodeId>(i % simulator.node_count());
      queue.push(e);
    }
    micro["support.queue_op_ns"] = sample_blocks(
        [&] {
          sim::Event e = queue.pop();
          e.time = SimTime{e.time.seconds -
                           mean_gap * std::log(1.0 - rng.uniform01())};
          e.seq = seq++;
          queue.push(e);
        },
        1.0, 1e9, "ns", kSamples);
  }

  // Inputs for the node-level layers: the scenario's own shards (prepared
  // again, untimed — the simulator consumed its copy) and a trained node.
  const sim::ScenarioInputs inputs = sim::prepare_scenario(scenario);
  const std::size_t node = pick_node(inputs.shards, scenario.seed);
  const data::NodeShard& shard = inputs.shards[node];

  {
    Tracer::Scope span(tracer, "micro.crypto.aead");
    const double messages = std::max(1.0, det.at("net_messages").as_number());
    const std::size_t size = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(det.at("net_bytes").as_number() / messages)));
    crypto::ChaChaKey key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(256));
    Bytes plaintext(size);
    for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.uniform(256));
    const std::array<std::uint8_t, 8> aad{1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t sequence = 0;
    micro["crypto.seal_ns_per_byte"] = sample_blocks(
        [&] {
          const Bytes sealed = crypto::aead_seal(
              key, crypto::nonce_from_sequence(sequence++, 0), aad,
              plaintext);
          sink += sealed.size();
        },
        static_cast<double>(size), 1e9, "ns/B", kSamples);
    const Bytes sealed = crypto::aead_seal(
        key, crypto::nonce_from_sequence(7, 0), aad, plaintext);
    micro["crypto.open_ns_per_byte"] = sample_blocks(
        [&] {
          const std::optional<Bytes> opened = crypto::aead_open(
              key, crypto::nonce_from_sequence(7, 0), aad, sealed);
          sink += opened ? opened->size() : 0;
        },
        static_cast<double>(size), 1e9, "ns/B", kSamples);
    micro["crypto.message_bytes"] = static_cast<std::uint64_t>(size);
  }

  {
    // One raw-data share of the workload's size, drawn from the node's
    // own ratings.
    Tracer::Scope span(tracer, "micro.core.payload");
    core::ProtocolPayload share;
    share.kind = core::PayloadKind::kRawData;
    share.epoch = 1;
    share.sender_degree = static_cast<std::uint32_t>(
        simulator.host(static_cast<core::NodeId>(node))
            .trusted()
            .neighbors()
            .size());
    const std::size_t points =
        std::max<std::size_t>(1, scenario.rex.data_points_per_epoch);
    for (std::size_t i = 0; i < points; ++i) {
      share.ratings.push_back(shard.train[i % shard.train.size()]);
    }
    Bytes scratch;
    micro["core.encode_us"] = sample_blocks(
        [&] {
          scratch = share.encode(std::move(scratch));
          sink += scratch.size();
        },
        1.0, 1e6, "us", kSamples);
    const Bytes wire = share.encode();
    core::ProtocolPayload decoded;
    micro["core.decode_us"] = sample_blocks(
        [&] {
          core::ProtocolPayload::decode_into(wire, decoded);
          sink += decoded.ratings.size();
        },
        1.0, 1e6, "us", kSamples);
    micro["core.share_ratings"] = static_cast<std::uint64_t>(points);
  }

  {
    Tracer::Scope span(tracer, "micro.ml.model");
    const std::unique_ptr<ml::RecModel> model =
        simulator.host(static_cast<core::NodeId>(node))
            .trusted()
            .model()
            .clone();
    Rng train_rng(scenario.seed ^ 0x7A1);
    micro["ml.train_epoch_us"] = sample_blocks(
        [&] { model->train_epoch(shard.train, train_rng); }, 1.0, 1e6, "us",
        kSamples);
    double acc = 0.0;
    micro["ml.rmse_us"] = sample_blocks(
        [&] { acc += model->rmse(shard.test); }, 1.0, 1e6, "us", kSamples);
    sink += static_cast<std::uint64_t>(acc);
    micro["ml.node"] = static_cast<std::uint64_t>(node);
  }

  {
    // Top-k queries on the trained replicas, one timed query per sample;
    // the replica is Zipf(0.8)-sampled over node ids like the query load.
    Tracer::Scope span(tracer, "micro.ml.topk");
    const std::size_t n = simulator.node_count();
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -0.8);
      cdf[i] = total;
    }
    serialize::JsonArray values;
    constexpr std::size_t kQueries = 2000;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const double u = rng.uniform01() * total;
      const std::size_t id = std::min<std::size_t>(
          n - 1, static_cast<std::size_t>(
                     std::upper_bound(cdf.begin(), cdf.end(), u) -
                     cdf.begin()));
      core::TrustedNode& trusted =
          simulator.engine()
              .host_mutable(static_cast<core::NodeId>(id))
              .trusted();
      if (trusted.local_user_count() == 0) continue;
      const data::UserId user = trusted.local_user(0);
      const Clock::time_point t0 = Clock::now();
      const core::TrustedNode::QueryAnswer answer = trusted.query_topk(user, 10);
      values.emplace_back(seconds_between(t0, Clock::now()) * 1e6);
      sink += answer.items.size();
    }
    Json topk = Json::object();
    topk["unit"] = "us";
    topk["ops_per_sample"] = 1;
    topk["samples"] = Json(std::move(values));
    micro["ml.topk_us"] = std::move(topk);
  }
  micro["sink"] = static_cast<std::uint64_t>(sink % 2);
  return micro;
}

// ===== one repetition =====

struct RepOptions {
  std::size_t threads = 1;
  bool traced = false;        // standalone prepare, reports, microtimings
  std::string report_dir;     // traced only
};

Json run_rep(const Workload& w, const RepOptions& options, Tracer& tracer,
             Checks& checks) {
  sim::Scenario scenario = w.scenario;
  scenario.threads = options.threads;
  Json rep = Json::object();
  rep["threads"] = static_cast<std::uint64_t>(options.threads);
  Tracer::Scope rep_span(tracer, "rep");

  if (options.traced) {
    // make_scenario_simulator prepares the inputs itself; this standalone
    // call splits the data layer out of its span (sim.assemble_s is the
    // difference). An untimed call first, so that both timed preparations
    // run on a warm allocator.
    (void)sim::prepare_scenario(scenario);
    Tracer::Scope span(tracer, "data.prepare");
    const sim::ScenarioInputs prepared = sim::prepare_scenario(scenario);
    rep["prepare_s"] = span.close();
  }

  sim::ScenarioInputs inputs;
  Tracer::Scope make_span(tracer, "sim.make_scenario_simulator");
  sim::Simulator simulator = sim::make_scenario_simulator(scenario, inputs);
  rep["make_s"] = make_span.close();
  {
    Tracer::Scope span(tracer, "enclave.run_attestation");
    simulator.run_attestation();
    rep["attest_s"] = span.close();
  }
  {
    Tracer::Scope span(tracer, "core.initialize_nodes");
    simulator.initialize_nodes();
    rep["init_s"] = span.close();
  }
  rep["rss_after_setup_kib"] = current_rss_kib();

  const std::size_t n = simulator.node_count();
  const sim::SimEngine& engine = simulator.engine();
  std::uint64_t store_after_init = 0;
  for (core::NodeId id = 0; id < n; ++id) {
    store_after_init += simulator.host(id).trusted().store_size();
  }
  {
    Tracer::Scope span(tracer, "sim.run_epochs");
    simulator.run_epochs(w.epochs);
    rep["run_s"] = span.close();
  }
  rep["peak_rss_kib"] = peak_rss_kib();

  // ----- deterministic outputs: identical across repetitions, thread
  // counts and runs of one seed -----
  Json det = Json::object();
  const sim::ExperimentResult& result = simulator.result();
  const sim::SimEngine::SchedulerStats stats = engine.scheduler_stats();
  std::uint64_t node_epochs = 0;
  std::uint64_t first_short_node = n;  // n: every node reached its target
  std::uint64_t dropped = 0, elided = 0, rejoins = 0, rejoins_completed = 0;
  std::uint64_t rejoin_timeouts = 0;
  double rejoin_latency_sum = 0.0;
  std::uint64_t messages = 0, bytes_in_out = 0, discarded = 0, plaintext = 0;
  std::uint64_t sessions_opened = 0, sessions_attested = 0, store_end = 0;
  std::uint64_t ecalls = 0, sealed = 0;
  double peak_resident = 0.0;
  const bool secure =
      scenario.rex.security == enclave::SecurityMode::kSgxSimulated;
  const std::uint64_t epoch_goal = w.epochs + 1;  // epoch 0 + w.epochs
  for (core::NodeId id = 0; id < n; ++id) {
    const sim::SimEngine::NodeStatus& s = engine.node_status(id);
    node_epochs += s.epochs_done;
    if (s.epochs_done < epoch_goal && first_short_node == n) first_short_node = id;
    dropped += s.deliveries_dropped;
    elided += s.deliveries_elided;
    rejoins += s.rejoins;
    rejoins_completed += s.rejoins_completed;
    rejoin_timeouts += s.rejoin_timeouts;
    rejoin_latency_sum += s.rejoin_latency_sum_s;
    messages += simulator.transport().stats(id).messages_sent;
    bytes_in_out += simulator.transport().stats(id).bytes_total();
    const core::UntrustedHost& host = simulator.host(id);
    const core::TrustedNode& trusted = host.trusted();
    discarded += trusted.inputs_discarded_rekey() +
                 trusted.resync_discarded() +
                 trusted.shares_skipped_unattested();
    plaintext += trusted.plaintext_shares_sent();
    store_end += trusted.store_size();
    if (secure) {
      for (const core::NodeId peer : trusted.neighbors()) {
        ++sessions_opened;
        if (trusted.attested_with(peer)) ++sessions_attested;
      }
    }
    const enclave::RuntimeStats& rs = host.runtime().stats();
    ecalls += rs.ecalls;
    sealed += rs.sealed_bytes;
    peak_resident =
        std::max(peak_resident, static_cast<double>(rs.peak_resident_bytes));
  }
  std::uint64_t duplicates = 0;
  Json rmse_series = Json::array();
  Json time_series = Json::array();
  Json reporting_series = Json::array();
  for (const sim::RoundRecord& r : result.rounds) {
    duplicates += r.duplicates_dropped;
    rmse_series.push_back(r.mean_rmse);
    time_series.push_back(r.cumulative_time.seconds);
    reporting_series.push_back(static_cast<std::uint64_t>(r.nodes_reporting));
  }
  const double first_rmse =
      result.rounds.empty() ? 0.0 : result.rounds.front().mean_rmse;
  const double target_rmse = w.target_ratio * first_rmse;
  const std::optional<SimTime> reached = result.time_to_reach(target_rmse);
  const sim::SimEngine::QueryTotals queries = engine.query_totals();
  const sim::SimEngine::ResyncTotals& resync = engine.resync_totals();
  double link_delay_sum = 0.0;
  std::uint64_t link_deliveries = 0;
  for (const sim::SimEngine::EdgeTraffic& e : engine.edge_traffic()) {
    link_delay_sum += e.delay_sum_s;
    link_deliveries += e.deliveries;
  }

  det["nodes"] = static_cast<std::uint64_t>(n);
  det["node_epochs"] = node_epochs;
  det["events"] = engine.events_processed();
  det["batches"] = stats.batches;
  det["queue_peak"] = static_cast<std::uint64_t>(stats.queue_peak);
  det["queue_resizes"] = stats.queue_resizes;
  det["queue_direct_searches"] = stats.direct_searches;
  // The last record every node reported: event-driven runs keep recording
  // the epochs that fast nodes run ahead, and on the largest workload the
  // last of those records covers a handful of nodes.
  double final_rmse = first_rmse;
  for (const sim::RoundRecord& r : result.rounds) {
    if (r.nodes_reporting == n) final_rmse = r.mean_rmse;
  }
  det["final_rmse"] = final_rmse;
  det["first_rmse"] = first_rmse;
  det["rmse_series"] = std::move(rmse_series);
  det["sim_time_series"] = std::move(time_series);
  det["reporting_series"] = std::move(reporting_series);
  det["target_rmse"] = target_rmse;
  det["time_to_target_s"] =
      reached ? Json(reached->seconds) : Json(nullptr);
  det["net_bytes_in_out"] = bytes_in_out;
  det["mean_epoch_traffic"] = result.mean_epoch_traffic();
  det["sim_now_s"] = engine.now().seconds;
  det["net_messages"] = messages;
  det["net_bytes"] = simulator.transport().total_bytes_sent();
  det["attest_rounds"] = static_cast<std::uint64_t>(simulator.attestation_rounds());
  det["sessions_opened"] = sessions_opened;
  det["sessions_attested"] = sessions_attested;
  det["ecalls_last_epoch"] = ecalls;
  det["sealed_bytes_last_epoch"] = sealed;
  det["peak_resident_bytes_max"] = peak_resident;
  det["duplicates_dropped"] = duplicates;
  det["store_end"] = store_end;
  det["discarded"] = discarded;
  det["plaintext_shares_sent"] = plaintext;
  det["deliveries_dropped"] = dropped;
  det["deliveries_elided"] = elided;
  det["rejoins"] = rejoins;
  det["rejoins_completed"] = rejoins_completed;
  det["rejoin_timeouts"] = rejoin_timeouts;
  det["rejoin_latency_sum_s"] = rejoin_latency_sum;
  det["resync_tx_bytes"] = resync.tx_bytes;
  det["link_delay_sum_s"] = link_delay_sum;
  det["link_deliveries"] = link_deliveries;
  det["queries_issued"] = queries.issued;
  det["queries_served"] = queries.served;
  det["queries_stale"] = queries.stale;
  det["queries_dropped_offline"] = queries.dropped_offline;
  det["query_latency_count"] = engine.query_latency().count();
  det["query_latency_p50_s"] = engine.query_latency().quantile(0.50);
  det["query_latency_p99_s"] = engine.query_latency().quantile(0.99);
  det["query_staleness_p99_s"] = engine.query_staleness().quantile(0.99);

  // ----- output checks (public accessors only) -----
  checks.expect(first_short_node == n, "epoch_target",
                first_short_node == n
                    ? "every node completed " + std::to_string(epoch_goal) +
                          " epochs"
                    : "node " + std::to_string(first_short_node) + " completed " +
                          std::to_string(engine.node_status(
                              static_cast<core::NodeId>(first_short_node))
                                             .epochs_done) +
                          " of " + std::to_string(epoch_goal) + " epochs");
  checks.expect(queries.issued == queries.served + queries.dropped_offline,
                "query_conservation",
                "issued " + std::to_string(queries.issued) + ", served " +
                    std::to_string(queries.served) + ", dropped offline " +
                    std::to_string(queries.dropped_offline));
  checks.expect(resync.tx_bytes == resync.rx_bytes + resync.in_flight_bytes +
                                       resync.dropped_bytes,
                "resync_conservation",
                "tx " + std::to_string(resync.tx_bytes) + ", rx " +
                    std::to_string(resync.rx_bytes) + ", in flight " +
                    std::to_string(resync.in_flight_bytes) + ", dropped " +
                    std::to_string(resync.dropped_bytes));
  if (secure) {
    checks.expect(plaintext == 0, "no_plaintext_shares",
                  std::to_string(plaintext) + " plaintext shares sent");
  }
  if (w.rss_budget_kib_per_node > 0.0) {
    const double per_node = rep.at("peak_rss_kib").as_number() /
                            static_cast<double>(n);
    checks.expect(per_node <= w.rss_budget_kib_per_node, "rss_budget",
                  std::to_string(per_node) + " KiB/node peak RSS, budget " +
                      std::to_string(w.rss_budget_kib_per_node));
  }
  checks.expect(std::isfinite(final_rmse) && final_rmse < first_rmse,
                "rmse_improves",
                "final " + std::to_string(final_rmse) + ", epoch 0 " +
                    std::to_string(first_rmse));

  det["store_after_init"] = store_after_init;
  if (options.traced) {
    Tracer::Scope span(tracer, "report.write");
    const std::filesystem::path dir(options.report_dir);
    std::filesystem::create_directories(dir);
    sim::write_csv(result, (dir / "epochs.csv").string());
    sim::write_node_csv(engine, (dir / "nodes.csv").string(),
                        w.node_csv_stride);
    sim::write_edge_csv(engine, (dir / "edges.csv").string());
    sim::write_query_csv(engine, (dir / "queries.csv").string());
    rep["report_s"] = span.close();
    rep["micro"] = run_microtimings(w, simulator, det, tracer);
  }
  rep["det"] = std::move(det);
  rep["setup_s"] = rep.at("make_s").as_number() +
                   rep.at("attest_s").as_number() +
                   rep.at("init_s").as_number();
  return rep;
}

/// A set-up-only repetition; returns the set-up time (make + attest + init)
/// and, through `total_s`, the time including the teardown.
double run_setup_probe(const Workload& w, std::size_t threads,
                       double& total_s) {
  sim::Scenario scenario = w.scenario;
  scenario.threads = threads;
  const Clock::time_point start = Clock::now();
  double setup_s = 0.0;
  {
    sim::ScenarioInputs inputs;
    sim::Simulator simulator = sim::make_scenario_simulator(scenario, inputs);
    simulator.run_attestation();
    simulator.initialize_nodes();
    setup_s = seconds_between(start, Clock::now());
  }
  total_s = seconds_between(start, Clock::now());
  return setup_s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rexbench_workload --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  const std::optional<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const Clock::time_point start = Clock::now();
  Tracer tracer(args.trace, start);
  Checks checks;
  Json out = Json::object();
  out["workload"] = args.workload;
  out["seed"] = args.seed;
  out["epochs"] = static_cast<std::uint64_t>(w.epochs);
  out["threads"] = static_cast<std::uint64_t>(w.threads);
  out["traced"] = args.trace;
  serialize::JsonArray reps;
  serialize::JsonArray probes;
  int exit_code = 0;
  try {
    if (args.trace) {
      RepOptions options;
      options.threads = w.threads;
      options.traced = true;
      options.report_dir = args.out_dir;
      reps.push_back(run_rep(w, options, tracer, checks));
      if (w.pool > 1) {
        // The pool-speedup pass: the same repetition at the other worker
        // count of the pair (1, pool).
        tracer.set_run(1);
        options.threads = w.threads == 1 ? w.pool : 1;
        options.traced = false;
        reps.push_back(run_rep(w, options, tracer, checks));
      }
    } else {
      RepOptions options;
      options.threads = w.threads;
      for (;;) {
        tracer.set_run(static_cast<int>(reps.size()));
        reps.push_back(run_rep(w, options, tracer, checks));
        const double elapsed = seconds_between(start, Clock::now());
        const double per_rep = elapsed / static_cast<double>(reps.size());
        if (elapsed + per_rep > args.seconds) break;
      }
      // setup_s is the median of every set-up in the run: where the
      // remaining time allows, add set-up-only probes up to kSetups.
      constexpr std::size_t kSetups = 9;
      double probe_cost = reps.front().at("setup_s").as_number();
      while (reps.size() + probes.size() < kSetups &&
             seconds_between(start, Clock::now()) + probe_cost <=
                 args.seconds) {
        probes.push_back(run_setup_probe(w, w.threads, probe_cost));
      }
    }
    // Every repetition of one seed — at any worker count — must agree on
    // every deterministic output.
    const std::string reference = reps.front().at("det").dump();
    for (std::size_t i = 1; i < reps.size(); ++i) {
      const bool same = reps[i].at("det").dump() == reference;
      checks.expect(same, "deterministic",
                    "repetition " + std::to_string(i) + " at " +
                        std::to_string(static_cast<std::uint64_t>(
                            reps[i].at("threads").as_number())) +
                        " worker(s) " +
                        (same ? "matches" : "differs from") + " repetition 0");
    }
  } catch (const std::exception& e) {
    out["error"] = std::string(e.what());
    exit_code = 1;
  }
  out["reps"] = Json(std::move(reps));
  out["setup_probes_s"] = Json(std::move(probes));
  out["checks"] = checks.json();
  if (args.trace) out["spans"] = tracer.spans();
  out["wall_s"] = seconds_between(start, Clock::now());
  std::cout << out.dump() << "\n";
  return exit_code;
}

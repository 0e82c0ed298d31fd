// Simulated-time cost model (DESIGN.md §4 "Simulated time").
//
// Converts the trusted node's per-epoch work counters plus the enclave
// runtime's transition/crypto counters into the per-stage durations the
// paper charts (merge / train / share / test — Figs 5a, 6a, 7a). Constants
// are calibrated to 2019-era Xeon servers (the paper's testbed, §IV-A5):
// a few GFLOP/s effective per core, ~1 Gbps links, ~8 µs enclave
// transitions, ~1 GB/s in-enclave AEAD. The EPC paging multiplier comes
// from the runtime's EpcModel.
#pragma once

#include <algorithm>

#include "core/epoch_counters.hpp"
#include "core/untrusted_host.hpp"
#include "sim/link_model.hpp"
#include "support/sim_clock.hpp"

namespace rex::sim {

struct CostParams {
  // Compute.
  double flop_ns = 0.5;             // ~2 GFLOP/s effective
  /// Fixed per-SGD-sample cost on top of the flops: random access into the
  /// embedding tables misses cache on nearly every step (the tables span
  /// megabytes), plus sampling/bookkeeping. Dominates MF steps at small k.
  double sgd_sample_overhead_ns = 2000.0;
  /// Fixed per-test-prediction cost (embedding row fetches, same cache
  /// behaviour as training without the update half).
  double prediction_overhead_ns = 400.0;
  double merge_param_ns = 2.0;      // weighted-average per parameter
  double store_append_ns = 80.0;    // dedup check + append per rating
  double serialize_byte_ns = 0.4;
  double deserialize_byte_ns = 0.4;

  // Network (per message / per byte; §IV experiments use a LAN).
  double link_latency_s = 100e-6;
  double bandwidth_bytes_per_s = 125e6;  // 1 Gbps
  /// Per-edge WAN heterogeneity (DESIGN.md §5): inert unless wan.enabled,
  /// in which case the Simulator builds a LinkModel over the topology and
  /// the engine charges per-edge latency plus sender-queued transmission
  /// instead of the single global latency above.
  LinkParams wan;

  // SGX (applied only when the runtime is in kSgxSimulated mode).
  double transition_ns = 8000.0;    // one ecall or ocall round trip
  /// Per-byte cost of sealing/opening payloads in the enclave: AEAD plus
  /// the marshalling copies across the enclave boundary (~250 MB/s on
  /// SGXv1 — raw ChaCha20-Poly1305 is ~1 GB/s, the boundary copies and
  /// EPC write pressure eat the rest). This is what makes model sharing
  /// expensive under SGX (Table IV: up to 135% overhead) while REX's tiny
  /// payloads keep its overhead low.
  double crypto_byte_ns = 4.0;
  double sgx_compute_factor = 1.1;  // MEE overhead on memory-bound compute

  // Serving (DESIGN.md §9): fixed per-query cost on top of the scoring
  // flops — request decode, the seen-mask check, response encode, and (in
  // SGX mode, folded into the same constant) the ecall round trip.
  double query_overhead_ns = 20000.0;
};

/// Durations of the four protocol stages for one node epoch.
struct StageTimes {
  SimTime merge;
  SimTime train;
  SimTime share;
  SimTime test;

  [[nodiscard]] SimTime total() const { return merge + train + share + test; }

  // Elementwise: every operator applies to each stage on its own.
  StageTimes& operator+=(const StageTimes& other) {
    merge += other.merge;
    train += other.train;
    share += other.share;
    test += other.test;
    return *this;
  }
  friend StageTimes operator*(const StageTimes& t, double factor) {
    return {t.merge * factor, t.train * factor, t.share * factor,
            t.test * factor};
  }
  friend StageTimes operator/(const StageTimes& t, double count) {
    return {SimTime{t.merge.seconds / count}, SimTime{t.train.seconds / count},
            SimTime{t.share.seconds / count}, SimTime{t.test.seconds / count}};
  }
};

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(const CostParams& params) : params_(params) {}

  [[nodiscard]] const CostParams& params() const { return params_; }

  /// Stage times for one node epoch. Reads the epoch counters, the model's
  /// per-sample flop costs, the runtime's transition counters (reset per
  /// epoch by the simulator) and its EPC slowdown.
  [[nodiscard]] StageTimes stage_times(
      const core::EpochCounters& counters,
      const enclave::RuntimeStats& epoch_runtime_stats,
      double memory_slowdown, bool secure, std::size_t flops_per_sample,
      std::size_t flops_per_prediction) const;

  /// Convenience overload pulling everything from a host.
  [[nodiscard]] StageTimes stage_times(const core::UntrustedHost& host) const;

  /// Sender-side wire occupancy of `bytes` over `messages` messages.
  [[nodiscard]] SimTime network_time(std::uint64_t bytes,
                                     std::uint64_t messages) const;

  /// Service time of one top-k query (DESIGN.md §9): score `query_flops`
  /// (catalog x flops_per_prediction) at the node's effective speed plus
  /// the fixed per-query overhead. `slowdown` is the node's heterogeneity
  /// multiplier (same one training pays).
  [[nodiscard]] SimTime query_time(std::size_t query_flops,
                                   double slowdown) const {
    return SimTime{slowdown *
                   (static_cast<double>(query_flops) * params_.flop_ns +
                    params_.query_overhead_ns) *
                   1e-9};
  }

  /// Time of one centralized training epoch over `samples` samples.
  [[nodiscard]] SimTime centralized_epoch_time(
      std::uint64_t samples, std::size_t flops_per_sample,
      std::uint64_t test_predictions,
      std::size_t flops_per_prediction) const;

 private:
  CostParams params_;
};

}  // namespace rex::sim

// REX node configuration (paper §III).
#pragma once

#include <cstddef>
#include <string>

#include "enclave/epc.hpp"
#include "enclave/runtime.hpp"

namespace rex::core {

/// What a node shares each epoch (§III-C): raw data items (REX) or the
/// model parameters (the MS baseline of the evaluation).
enum class SharingMode {
  kRawData,  // REX
  kModel,    // model sharing (FL/DLS style baseline)
};

/// Who receives the share (§III-C1/2): one random neighbor (random model
/// walk / gossip learning) or all neighbors (D-PSGD with
/// Metropolis–Hastings merge weights).
enum class Algorithm {
  kRmw,
  kDpsgd,
};

[[nodiscard]] inline const char* to_string(SharingMode mode) {
  return mode == SharingMode::kRawData ? "REX" : "MS";
}
[[nodiscard]] inline const char* to_string(Algorithm algorithm) {
  return algorithm == Algorithm::kRmw ? "RMW" : "D-PSGD";
}

struct RexConfig {
  SharingMode sharing = SharingMode::kRawData;
  Algorithm algorithm = Algorithm::kDpsgd;
  /// Raw data items sampled per epoch (a hyperparameter, §III-E; the paper
  /// uses 300 for MF and 40 for the DNN).
  std::size_t data_points_per_epoch = 300;
  /// §III-E fixed-batches rule: take a constant number of SGD steps per
  /// epoch regardless of store growth, keeping epoch time constant. Turning
  /// this off (full pass over the whole store every epoch) reproduces the
  /// "very long training times as the model begins to reach convergence"
  /// behaviour the paper engineered away (ablation bench).
  bool fixed_batches_per_epoch = true;
  /// §IV-E-e extension: encode raw-data shares with the compressed codec
  /// (delta ids + nibble-packed half-star codes, ~3x smaller payloads)
  /// instead of fixed 12-byte triplets. Off by default to match the paper's
  /// evaluated configuration.
  bool compress_raw_data = false;
  /// Wire-compression knob for the MS baseline: serialize model shares with
  /// the quantized codec (q8 affine per tensor, ~4x smaller) instead of raw
  /// f32. Lossy — the documented RMSE budget lives with the WAN bench. Off
  /// by default to match the paper's evaluated configuration.
  bool quantize_model_shares = false;
  /// RMW's training period (§III-C1) in simulated seconds, realized as a
  /// scheduled timer by the event engine. 0 = self-paced: each node starts
  /// its next epoch the moment the previous one finishes. Ignored by the
  /// synchronous barrier engine, where one round == one period.
  double rmw_period_s = 0.0;
  /// Byzantine-fault tolerance (DESIGN.md §8): when true, a tampered,
  /// replayed or duplicated secure share is *counted and discarded* (the
  /// per-node tampered_rejected / replays_rejected counters) instead of
  /// aborting the run — what a deployed node must do, since a malicious
  /// peer can always put garbage on the wire. Off by default: in benign
  /// runs those conditions are engine bugs and must stay fatal.
  bool tolerate_byzantine = false;
  enclave::SecurityMode security = enclave::SecurityMode::kNative;
  enclave::EpcConfig epc = {};
};

}  // namespace rex::core

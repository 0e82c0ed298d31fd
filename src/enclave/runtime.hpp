// Enclave runtime: the trusted/untrusted boundary with cost accounting.
//
// REX compiles the same protocol code for native and SGX runs (paper
// §III-E); here the difference is the Runtime handed to a node. The SGX
// runtime counts every ecall/ocall transition and tracks resident enclave
// memory (for the EPC model); the native runtime is free. The simulation's
// CostModel converts these counters into the simulated-time overheads of
// Figs 6/7 and Table IV.
#pragma once

#include <cstdint>

#include "enclave/epc.hpp"

namespace rex::enclave {

enum class SecurityMode {
  kNative,        // no SGX: plaintext payloads, no transition costs
  kSgxSimulated,  // enclave semantics: encrypted payloads, counted costs
};

/// Transition and memory counters for one enclave.
struct RuntimeStats {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t sealed_bytes = 0;     // AEAD-processed payload bytes
  std::size_t resident_bytes = 0;     // current enclave heap residency
  std::size_t peak_resident_bytes = 0;
};

class Runtime {
 public:
  Runtime(SecurityMode mode, const EpcConfig& epc = {})
      : mode_(mode), epc_(epc) {}

  [[nodiscard]] SecurityMode mode() const { return mode_; }
  [[nodiscard]] bool secure() const {
    return mode_ == SecurityMode::kSgxSimulated;
  }

  /// Boundary crossings (no-ops for accounting purposes in native mode —
  /// a native build has plain function calls here). Inline: the learning
  /// cell crosses the boundary millions of times per run and these are
  /// two-instruction counter bumps.
  void record_ecall() {
    if (secure()) ++stats_.ecalls;
  }
  void record_ocall() {
    if (secure()) ++stats_.ocalls;
  }

  /// Payload bytes passed through the channel AEAD.
  void record_crypto(std::size_t bytes) {
    if (!secure()) return;
    stats_.sealed_bytes += bytes;
  }

  /// Enclave heap accounting: the trusted partition's current residency
  /// (the peak is tracked alongside).
  void set_resident(std::size_t bytes) {
    stats_.resident_bytes = bytes;
    if (stats_.resident_bytes > stats_.peak_resident_bytes) {
      stats_.peak_resident_bytes = stats_.resident_bytes;
    }
  }

  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  [[nodiscard]] const EpcModel& epc() const { return epc_; }

  /// Current paging slowdown for memory-bound work (1.0 in native mode).
  [[nodiscard]] double memory_slowdown() const;

  /// Resets the per-epoch counters (resident memory is preserved).
  void reset_epoch_counters();

 private:
  SecurityMode mode_;
  EpcModel epc_;
  RuntimeStats stats_;
};

}  // namespace rex::enclave

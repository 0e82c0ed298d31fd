// Enclave Page Cache model (paper §II-C, §IV-D).
//
// SGXv1 machines have a fixed EPC (128 MiB on the paper's Xeon E-2288G, of
// which 93.5 MiB are usable by enclaves). When resident enclave memory
// exceeds that, pages are encrypted/evicted to regular RAM and faulted back
// on access — the mechanism behind the Table IV overhead jump from the
// 610-user to the 15 000-user dataset. The model exposes a smooth slowdown
// factor for memory-bound work as a function of the overcommit ratio.
#pragma once

#include <cstddef>

namespace rex::enclave {

struct EpcConfig {
  /// Usable by enclaves after SGX metadata (§IV-D cites 93.5 MiB).
  std::size_t available_bytes = static_cast<std::size_t>(93.5 * 1024 * 1024);
  /// Paging slowdown at 2x overcommit; the factor interpolates linearly in
  /// the overcommit ratio: factor = 1 + paging_penalty * max(0, ratio - 1).
  /// Calibrated against the Table IV native-vs-SGX overhead jump.
  double paging_penalty = 0.55;
};

class EpcModel {
 public:
  EpcModel() = default;
  explicit EpcModel(const EpcConfig& config) : config_(config) {}

  [[nodiscard]] const EpcConfig& config() const { return config_; }

  /// Overcommit ratio: resident / available (1.0 = exactly full).
  [[nodiscard]] double occupancy(std::size_t resident_bytes) const {
    return static_cast<double>(resident_bytes) /
           static_cast<double>(config_.available_bytes);
  }

  [[nodiscard]] bool beyond_epc(std::size_t resident_bytes) const {
    return resident_bytes > config_.available_bytes;
  }

  /// Multiplier (>= 1) applied to memory-bound stage costs.
  [[nodiscard]] double slowdown_factor(std::size_t resident_bytes) const {
    const double over = occupancy(resident_bytes) - 1.0;
    return over <= 0.0 ? 1.0 : 1.0 + config_.paging_penalty * over;
  }

 private:
  EpcConfig config_;
};

}  // namespace rex::enclave

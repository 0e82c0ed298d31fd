#include "enclave/runtime.hpp"

namespace rex::enclave {

double Runtime::memory_slowdown() const {
  if (!secure()) return 1.0;
  return epc_.slowdown_factor(stats_.resident_bytes);
}

void Runtime::reset_epoch_counters() {
  stats_.ecalls = 0;
  stats_.ocalls = 0;
  stats_.sealed_bytes = 0;
}

}  // namespace rex::enclave

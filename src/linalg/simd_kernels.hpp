// Runtime-dispatched SIMD kernels behind the BLAS-1 layer (DESIGN.md §7).
//
// The kernels come in two contract classes:
//
//  * Elementwise (axpy / scale / weighted_sum / fill / mf_sgd_rows): every
//    backend performs the *same* IEEE-754 operation per lane in the same
//    order — one multiply, one add per term, no fused multiply-add — so
//    AVX2/NEON results are bit-identical to the scalar loops the portable
//    build auto-vectorizes. Switching backends never moves a golden dump.
//
//  * Reductions (dot / l2_norm / l1_distance): one exact left-to-right
//    scalar loop on every backend. A multi-lane vector sum reassociates,
//    which is NOT bit-identical, so there is no vector reduction path.
//
// Dispatch is resolved once (first use) from the CPU and environment:
// REX_SCALAR_KERNELS forces the scalar backend end to end — the escape
// hatch that reproduces the pre-SIMD build exactly on any machine.
#pragma once

#include <cstddef>

namespace rex::linalg::simd {

enum class Backend {
  kScalar,  // portable loops (the escape hatch; exact reference)
  kAvx2,    // x86-64 AVX2 (no FMA in elementwise kernels)
  kAvx512,  // x86-64 AVX-512F: the AVX2 math kernels, wider cipher passes
  kNeon,    // aarch64 Advanced SIMD
};

/// The backend in effect (resolved once from CPU + environment).
[[nodiscard]] Backend active_backend();

/// Test hook: force a backend (must be supported by this CPU). Not
/// thread-safe against concurrent kernel calls; tests only.
void set_backend(Backend backend);

/// Human-readable backend name ("scalar" / "avx2" / "avx512" / "neon").
[[nodiscard]] const char* backend_name(Backend backend);

// ===== Elementwise kernels (bit-identical across backends) =====

/// y += alpha * x
void axpy(float alpha, const float* x, float* y, std::size_t n);

/// x *= alpha
void scale(float* x, float alpha, std::size_t n);

/// dst = w_dst * dst + w_src * src
void weighted_sum(float* dst, float w_dst, const float* src, float w_src,
                  std::size_t n);

/// x[i] = value
void fill(float* x, float value, std::size_t n);

/// Fused MF SGD row update (the coupled user/item gradient step):
///   x_old = x[l]
///   x[l] += lr * (error * y[l] - lambda * x[l])
///   y[l] += lr * (error * x_old - lambda * y[l])
/// Lanes are independent (x_old is captured per lane), so the vector
/// backends reproduce the scalar rounding sequence exactly.
void mf_sgd_rows(float* x, float* y, std::size_t n, float error, float lr,
                 float lambda);

// ===== Reductions (exact scalar on every backend) =====

/// Σ a[i] * b[i] — float accumulator, left-to-right (exact contract).
[[nodiscard]] float dot(const float* a, const float* b, std::size_t n);

/// sqrt(Σ x[i]^2) — double accumulator, left-to-right (exact contract).
[[nodiscard]] float l2_norm(const float* x, std::size_t n);

/// Σ |x[i] - y[i]| — double accumulator, left-to-right (exact contract).
[[nodiscard]] float l1_distance(const float* x, const float* y,
                                std::size_t n);

}  // namespace rex::linalg::simd

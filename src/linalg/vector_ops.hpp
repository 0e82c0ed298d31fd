// BLAS-1 style kernels over contiguous float spans.
//
// These are the hot loops of MF/DNN training and of model merging. Small
// inputs (under one or two vector widths — MF embedding rows are 2..20
// floats) stay on the inline scalar loops; larger inputs route to the
// runtime-dispatched SIMD layer (simd_kernels.hpp, DESIGN.md §7). The two
// paths are bit-identical for the elementwise kernels, so the split never
// moves a result; the reduction (dot) is one exact left-to-right loop at
// every size. float (not double) matches the paper's model-size
// accounting.
#pragma once

#include <span>

#include "linalg/simd_kernels.hpp"
#include "support/error.hpp"

namespace rex::linalg {

/// Inputs shorter than this skip the dispatch call: at MF dimensions the
/// call overhead exceeds any vector win (one AVX2 lane is 8 floats).
inline constexpr std::size_t kSimdThreshold = 16;

/// Σ a[i] * b[i], float accumulator, left to right (exact contract).
[[nodiscard]] inline float dot(std::span<const float> a,
                               std::span<const float> b) {
  REX_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

/// y += alpha * x
inline void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  REX_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  if (x.size() < kSimdThreshold) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
    return;
  }
  simd::axpy(alpha, x.data(), y.data(), x.size());
}

/// x *= alpha
inline void scale(std::span<float> x, float alpha) {
  if (x.size() < kSimdThreshold) {
    for (float& v : x) v *= alpha;
    return;
  }
  simd::scale(x.data(), alpha, x.size());
}

/// dst = w_dst * dst + w_src * src   (merge kernel)
inline void weighted_sum_inplace(std::span<float> dst, float w_dst,
                                 std::span<const float> src, float w_src) {
  REX_REQUIRE(dst.size() == src.size(), "weighted_sum: size mismatch");
  if (dst.size() < kSimdThreshold) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = w_dst * dst[i] + w_src * src[i];
    }
    return;
  }
  simd::weighted_sum(dst.data(), w_dst, src.data(), w_src, dst.size());
}

}  // namespace rex::linalg

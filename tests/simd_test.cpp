// SIMD kernel equivalence (DESIGN.md §7): the dispatched backend must be
// bit-identical to the scalar escape hatch for every elementwise kernel —
// across fuzzed shapes that cover full vector blocks, remainder lanes and
// the empty case.
// The scalar backend is the reference the golden dumps were recorded
// against, so exact equality here is what makes REX_SCALAR_KERNELS a true
// escape hatch rather than a separate numerics mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/simd_kernels.hpp"
#include "support/rng.hpp"

namespace rex::linalg::simd {
namespace {

/// Shapes chosen to hit: empty, single lane, sub-vector sizes, exact AVX2
/// (8) and NEON (4) block multiples, block+remainder combinations, and
/// sizes past any unrolled prologue.
const std::size_t kShapes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                               24, 31, 32, 33, 63, 64, 65, 100, 257};

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 2.5));
  return v;
}

/// Runs `op` under the dispatched backend and under kScalar, restoring the
/// dispatched backend afterwards, and returns the pair of outputs.
template <class Op>
void backends_bitwise_equal(const char* what, Op&& op) {
  const Backend dispatched = active_backend();
  std::vector<float> vector_out = op();
  set_backend(Backend::kScalar);
  std::vector<float> scalar_out = op();
  set_backend(dispatched);
  ASSERT_EQ(vector_out.size(), scalar_out.size()) << what;
  for (std::size_t i = 0; i < vector_out.size(); ++i) {
    // Bitwise comparison: EXPECT_EQ on floats would pass -0.0f == 0.0f and
    // miss NaN payload differences; the golden contract is byte identity.
    std::uint32_t va = 0, vb = 0;
    std::memcpy(&va, &vector_out[i], sizeof va);
    std::memcpy(&vb, &scalar_out[i], sizeof vb);
    ASSERT_EQ(va, vb) << what << " lane " << i << " of "
                      << vector_out.size();
  }
}

TEST(SimdKernels, DispatchReportsAConsistentBackend) {
  const Backend backend = active_backend();
  EXPECT_STRNE(backend_name(backend), "");
  // The escape hatch must always be forceable.
  set_backend(Backend::kScalar);
  EXPECT_EQ(active_backend(), Backend::kScalar);
  set_backend(backend);
  EXPECT_EQ(active_backend(), backend);
}

TEST(SimdKernels, AxpyBitIdenticalAcrossBackends) {
  Rng rng(0xA5EED);
  for (const std::size_t n : kShapes) {
    const std::vector<float> x = random_vec(rng, n);
    const std::vector<float> y = random_vec(rng, n);
    const float alpha = static_cast<float>(rng.normal(0.0, 1.0));
    backends_bitwise_equal("axpy", [&] {
      std::vector<float> out = y;
      axpy(alpha, x.data(), out.data(), n);
      return out;
    });
  }
}

TEST(SimdKernels, ScaleBitIdenticalAcrossBackends) {
  Rng rng(0x5CA1E);
  for (const std::size_t n : kShapes) {
    const std::vector<float> x = random_vec(rng, n);
    const float alpha = static_cast<float>(rng.normal(0.0, 1.0));
    backends_bitwise_equal("scale", [&] {
      std::vector<float> out = x;
      scale(out.data(), alpha, n);
      return out;
    });
  }
}

TEST(SimdKernels, WeightedSumBitIdenticalAcrossBackends) {
  Rng rng(0x3E16);
  for (const std::size_t n : kShapes) {
    const std::vector<float> dst = random_vec(rng, n);
    const std::vector<float> src = random_vec(rng, n);
    const float w_dst = static_cast<float>(rng.uniform01());
    const float w_src = 1.0f - w_dst;
    backends_bitwise_equal("weighted_sum", [&] {
      std::vector<float> out = dst;
      weighted_sum(out.data(), w_dst, src.data(), w_src, n);
      return out;
    });
  }
}

TEST(SimdKernels, MfSgdRowsBitIdenticalAcrossBackends) {
  Rng rng(0x56D);
  for (const std::size_t n : kShapes) {
    const std::vector<float> x = random_vec(rng, n);
    const std::vector<float> y = random_vec(rng, n);
    const float error = static_cast<float>(rng.normal(0.0, 1.0));
    backends_bitwise_equal("mf_sgd_rows(x)", [&] {
      std::vector<float> xs = x, ys = y;
      mf_sgd_rows(xs.data(), ys.data(), n, error, 0.05f, 0.02f);
      return xs;
    });
    backends_bitwise_equal("mf_sgd_rows(y)", [&] {
      std::vector<float> xs = x, ys = y;
      mf_sgd_rows(xs.data(), ys.data(), n, error, 0.05f, 0.02f);
      return ys;
    });
  }
}

}  // namespace
}  // namespace rex::linalg::simd

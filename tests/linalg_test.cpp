// Linear algebra tests: BLAS-1 kernels and the dense matrix ops used by
// MF/DNN.
#include <gtest/gtest.h>

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace rex::linalg {
namespace {

TEST(VectorOps, Dot) {
  const std::vector<float> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
  EXPECT_FLOAT_EQ(dot(std::span<const float>{}, std::span<const float>{}),
                  0.0f);
}

TEST(VectorOps, DotSizeMismatchThrows) {
  const std::vector<float> a{1, 2}, b{1};
  EXPECT_THROW((void)dot(a, b), Error);
}

TEST(VectorOps, Axpy) {
  const std::vector<float> x{1, 2, 3};
  std::vector<float> y{10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
}

TEST(VectorOps, Scale) {
  std::vector<float> x{1, -2, 4};
  scale(x, 0.5f);
  EXPECT_EQ(x, (std::vector<float>{0.5f, -1.0f, 2.0f}));
}

TEST(VectorOps, WeightedSumInplace) {
  std::vector<float> dst{2, 4};
  const std::vector<float> src{10, 20};
  weighted_sum_inplace(dst, 0.5f, src, 0.25f);
  EXPECT_EQ(dst, (std::vector<float>{3.5f, 7.0f}));
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(3, 2, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m(2, 1), 1.5f);
  m(1, 0) = -7.0f;
  EXPECT_EQ(m(1, 0), -7.0f);
  EXPECT_EQ(m.byte_size(), 6 * sizeof(float));
}

TEST(Matrix, RowViewsAliasStorage) {
  Matrix m(2, 3);
  auto r1 = m.row(1);
  r1[2] = 9.0f;
  EXPECT_EQ(m(1, 2), 9.0f);
  const Matrix& cm = m;
  EXPECT_EQ(cm.row(1)[2], 9.0f);
}

TEST(Matrix, RandomizeNormalStatistics) {
  Rng rng(17);
  Matrix m(100, 100);
  m.randomize_normal(rng, 0.1f);
  double sum = 0.0, sum_sq = 0.0;
  for (float v : m.flat()) {
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.005);
  EXPECT_NEAR(sum_sq / n, 0.01, 0.002);
}

TEST(Matrix, RandomizeUniformBounds) {
  Rng rng(18);
  Matrix m(50, 50);
  m.randomize_uniform(rng, 0.25f);
  for (float v : m.flat()) {
    EXPECT_GE(v, -0.25f);
    EXPECT_LT(v, 0.25f);
  }
}

TEST(Matrix, Matvec) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6]
  float k = 1.0f;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = k++;
  const std::vector<float> x{1, 0, -1};
  std::vector<float> y(2);
  matvec(m, x, y);
  EXPECT_EQ(y, (std::vector<float>{-2, -2}));
}

TEST(Matrix, MatvecTransposed) {
  Matrix m(2, 3);
  float k = 1.0f;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = k++;
  const std::vector<float> x{1, 1};
  std::vector<float> y(3);
  matvec_transposed(m, x, y);
  EXPECT_EQ(y, (std::vector<float>{5, 7, 9}));
}

TEST(Matrix, Rank1Update) {
  Matrix m(2, 2, 0.0f);
  const std::vector<float> a{1, 2}, b{3, 4};
  rank1_update(m, 2.0f, a, b);
  EXPECT_EQ(m(0, 0), 6.0f);
  EXPECT_EQ(m(0, 1), 8.0f);
  EXPECT_EQ(m(1, 0), 12.0f);
  EXPECT_EQ(m(1, 1), 16.0f);
}

TEST(Matrix, MatvecShapeMismatchThrows) {
  Matrix m(2, 3);
  std::vector<float> x(2), y(2);
  EXPECT_THROW(matvec(m, x, y), Error);
}

}  // namespace
}  // namespace rex::linalg

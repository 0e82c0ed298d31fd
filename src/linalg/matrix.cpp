#include "linalg/matrix.hpp"

#include <algorithm>

#include "linalg/vector_ops.hpp"
#include "support/error.hpp"

namespace rex::linalg {

void Matrix::randomize_normal(Rng& rng, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
}

void Matrix::randomize_uniform(Rng& rng, float bound) {
  for (float& v : data_) {
    v = static_cast<float>(rng.uniform_real(-bound, bound));
  }
}

void matvec(const Matrix& m, std::span<const float> x, std::span<float> y) {
  REX_REQUIRE(x.size() == m.cols() && y.size() == m.rows(),
              "matvec: shape mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    y[r] = dot(m.row(r), x);
  }
}

void matvec_transposed(const Matrix& m, std::span<const float> x,
                       std::span<float> y) {
  REX_REQUIRE(x.size() == m.rows() && y.size() == m.cols(),
              "matvec_transposed: shape mismatch");
  std::ranges::fill(y, 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(x[r], m.row(r), y);
  }
}

void rank1_update(Matrix& m, float alpha, std::span<const float> a,
                  std::span<const float> b) {
  REX_REQUIRE(a.size() == m.rows() && b.size() == m.cols(),
              "rank1_update: shape mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(alpha * a[r], b, m.row(r));
  }
}

}  // namespace rex::linalg

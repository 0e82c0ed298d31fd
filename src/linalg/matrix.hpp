// Dense row-major float matrix.
//
// MF embedding tables (n_users x k, n_items x k) and DNN weight matrices are
// Matrix instances; row(i) views are the per-user/per-item embeddings.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace rex::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float value = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) {
    return std::span<float>(data_.data() + r * cols_, cols_);
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    return std::span<const float>(data_.data() + r * cols_, cols_);
  }

  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

  /// Fills with N(0, stddev) entries (embedding initialization).
  void randomize_normal(Rng& rng, float stddev);

  /// Fills with U(-bound, bound) entries (DNN layer initialization).
  void randomize_uniform(Rng& rng, float bound);

  /// Bytes occupied by the payload (model-size accounting).
  [[nodiscard]] std::size_t byte_size() const {
    return data_.size() * sizeof(float);
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// y = M * x (dense mat-vec; DNN forward pass).
void matvec(const Matrix& m, std::span<const float> x, std::span<float> y);

/// y = M^T * x (DNN backward pass).
void matvec_transposed(const Matrix& m, std::span<const float> x,
                       std::span<float> y);

/// Rank-1 update: M += alpha * a * b^T (DNN gradient accumulation).
void rank1_update(Matrix& m, float alpha, std::span<const float> a,
                  std::span<const float> b);

}  // namespace rex::linalg

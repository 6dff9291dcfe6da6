// Dense row-major float32 matrix — the numeric substrate of the GNN.
//
// Design notes:
//  * float32 storage (matches the PyTorch default the paper trained with);
//    accumulations happen in double where it matters (reductions).
//  * matmul uses an i-k-j loop order so the inner loop is a contiguous
//    saxpy, executed by the runtime-dispatched SIMD kernel layer
//    (tensor/simd.hpp); a split over rows kicks in for large
//    products. Model training parallelises over *graphs*, so the per-graph
//    matmuls here stay serial unless used standalone.
//  * Storage is 32-byte aligned with capacity padded to whole 8-float
//    vectors (the simd.hpp alignment contract), so vector kernels get
//    aligned row starts whenever the row width is a lane multiple.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/align.hpp"

namespace pg::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  static Matrix zeros(std::size_t rows, std::size_t cols) { return {rows, cols}; }
  static Matrix full(std::size_t rows, std::size_t cols, float v) {
    return {rows, cols, v};
  }
  /// 1 x n row vector from values.
  static Matrix row(std::span<const float> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float& operator()(std::size_t r, std::size_t c);
  [[nodiscard]] const float& operator()(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }
  [[nodiscard]] std::span<float> row_span(std::size_t r);
  [[nodiscard]] std::span<const float> row_span(std::size_t r) const;

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Re-shapes in place; contents are unspecified afterwards. Grow-only in
  /// capacity terms: shrinking or re-using a previously seen size performs
  /// no allocation (the GraphBatch packer's steady-state contract).
  void reshape(std::size_t rows, std::size_t cols);

  // In-place elementwise updates.
  Matrix& add_(const Matrix& other);
  Matrix& sub_(const Matrix& other);
  Matrix& mul_(const Matrix& other);  // Hadamard
  Matrix& scale_(float s);
  /// this += s * other (the optimiser's workhorse).
  Matrix& axpy_(float s, const Matrix& other);

  [[nodiscard]] bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  [[nodiscard]] double sum() const;
  [[nodiscard]] double squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float, simd::AlignedAllocator<float>> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (without materialising the transpose).
Matrix matmul_transpose_a(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_transpose_b(const Matrix& a, const Matrix& b);

// Allocation-free variants writing into caller-owned (workspace) storage.
// `_into` defines every element of the pre-shaped destination; `_acc`
// accumulates on top of it (the gradient-buffer pattern).
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_transpose_a_acc(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_transpose_b_into(Matrix& c, const Matrix& a, const Matrix& b);
void column_sums_acc(Matrix& out, const Matrix& a);
void row_mean_into(Matrix& out, const Matrix& a);
/// Per-segment mean over rows: out.row(b) = mean of a rows
/// [offsets[b], offsets[b+1]). out is [offsets.size()-1 x a.cols()]. Each
/// segment's sum/scale follows exactly row_mean_into's operation order, so a
/// one-segment call is bitwise-identical to row_mean_into — the invariant
/// the fused GraphBatch read-out relies on. Segments must be non-empty.
void segment_row_mean_into(Matrix& out, const Matrix& a,
                           std::span<const std::uint32_t> offsets);

Matrix transpose(const Matrix& a);
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);

/// Sum over rows -> 1 x cols (bias gradients).
Matrix column_sums(const Matrix& a);
/// Mean over rows -> 1 x cols (graph read-out pooling).
Matrix row_mean(const Matrix& a);

}  // namespace pg::tensor

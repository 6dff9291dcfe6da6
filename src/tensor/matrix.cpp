// Row-major float32 matrix ops; the vectorisable bodies (matmul, the
// transpose-A accumulate and transpose-B product, column sums, segmented
// mean) live in the runtime-dispatched SIMD kernel layer — see
// tensor/simd.hpp for the bitwise-determinism contract. matmul splits its
// rows across threads above a size threshold.
#include "tensor/matrix.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "tensor/simd.hpp"

namespace pg::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols) {
  data_.reserve(simd::padded_floats(rows * cols));
  data_.resize(rows * cols, fill);
}

Matrix Matrix::row(std::span<const float> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

float& Matrix::operator()(std::size_t r, std::size_t c) {
  check(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

const float& Matrix::operator()(std::size_t r, std::size_t c) const {
  check(r < rows_ && c < cols_, "matrix index out of range");
  return data_[r * cols_ + c];
}

std::span<float> Matrix::row_span(std::size_t r) {
  check(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<const float> Matrix::row_span(std::size_t r) const {
  check(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector keeps capacity: grow-only allocation, padded per the simd
  // alignment contract so growth lands on whole-vector boundaries. The
  // contents are unspecified, so growth drops them rather than copying.
  const std::size_t n = rows * cols;
  if (n > data_.capacity()) {
    data_.clear();
    data_.reserve(simd::padded_floats(n));
  }
  data_.resize(n);
}

Matrix& Matrix::add_(const Matrix& other) {
  check(same_shape(other), "add_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::sub_(const Matrix& other) {
  check(same_shape(other), "sub_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::mul_(const Matrix& other) {
  check(same_shape(other), "mul_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::scale_(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::axpy_(float s, const Matrix& other) {
  check(same_shape(other), "axpy_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
  return *this;
}

double Matrix::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return acc;
}

double Matrix::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_into(c, a, b);
  return c;
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimensions differ");
  check(c.rows() == a.rows() && c.cols() == b.cols(),
        "matmul_into: destination shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  // Dense/sparse-hybrid i-k-j body lives in the dispatched kernel layer;
  // every level performs identical FP operations in identical order, and
  // rows are independent, so the row split never changes a bit. Products
  // above 2^20 multiply-adds split their rows across the team; smaller
  // ones stay serial.
  const std::size_t grain = m * k * n > (std::size_t{1} << 20) ? 1 : m;
  parallel_for_blocks(m, grain, [&](std::size_t lo, std::size_t hi) {
    simd::kernels().matmul(a.data().data() + lo * k, b.data().data(),
                           c.data().data() + lo * n, hi - lo, k, n);
  });
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_transpose_a_acc(c, a, b);
  return c;
}

void matmul_transpose_a_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_transpose_a: row counts differ");
  check(c.rows() == a.cols() && c.cols() == b.cols(),
        "matmul_transpose_a_acc: destination shape mismatch");
  // C[i,j] = sum_kk A[kk,i] * B[kk,j]; kk-outer body in the kernel layer.
  simd::kernels().matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                 c.data().data(), a.cols(), a.rows(),
                                 b.cols());
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_transpose_b_into(c, a, b);
  return c;
}

void matmul_transpose_b_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_transpose_b: col counts differ");
  check(c.rows() == a.rows() && c.cols() == b.rows(),
        "matmul_transpose_b_into: destination shape mismatch");
  // C[i,j] = float(sum_kk double(A[i,kk]) * B[j,kk]), j lanes over a staged
  // B^T in the kernel layer.
  simd::kernels().matmul_t_b(a.data().data(), b.data().data(),
                             c.data().data(), a.rows(), a.cols(), b.rows(),
                             nullptr);
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.add_(b);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.sub_(b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.mul_(b);
  return c;
}

Matrix column_sums(const Matrix& a) {
  Matrix out(1, a.cols());
  column_sums_acc(out, a);
  return out;
}

void column_sums_acc(Matrix& out, const Matrix& a) {
  check(out.rows() == 1 && out.cols() == a.cols(),
        "column_sums_acc: destination shape mismatch");
  simd::kernels().column_sums_acc(out.data().data(), a.data().data(), a.rows(),
                                  a.cols());
}

Matrix row_mean(const Matrix& a) {
  Matrix out(1, a.cols());
  row_mean_into(out, a);
  return out;
}

void row_mean_into(Matrix& out, const Matrix& a) {
  check(a.rows() > 0, "row_mean of empty matrix");
  out.zero();
  column_sums_acc(out, a);
  out.scale_(1.0f / static_cast<float>(a.rows()));
}

void segment_row_mean_into(Matrix& out, const Matrix& a,
                           std::span<const std::uint32_t> offsets) {
  check(offsets.size() >= 1 && out.rows() == offsets.size() - 1 &&
            out.cols() == a.cols(),
        "segment_row_mean_into: destination shape mismatch");
  check(offsets.empty() || offsets.back() == a.rows(),
        "segment_row_mean_into: offsets do not span the rows");
  for (std::size_t b = 0; b + 1 < offsets.size(); ++b)
    check(offsets[b] < offsets[b + 1], "segment_row_mean_into: empty segment");
  // Per-segment sum then scale, row order preserved — the kernel keeps a
  // one-segment call bitwise-identical to row_mean_into at every level.
  // Segment-range split: each segment reads its own row range (absolute
  // offsets) and writes its own out row, so the cut never changes values;
  // the per-segment reduction order is untouched.
  const std::size_t cols = a.cols();
  parallel_for_blocks(offsets.size() - 1, 8, [&](std::size_t lo,
                                                 std::size_t hi) {
    simd::kernels().segment_row_mean(out.data().data() + lo * cols,
                                     a.data().data(), offsets.data() + lo,
                                     hi - lo, cols);
  });
}

}  // namespace pg::tensor

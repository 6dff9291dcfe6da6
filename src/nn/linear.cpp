// Dense layer forward/backward; backward is re-entrant so trainer threads
// can share one layer with private gradient buffers.
#include "nn/linear.hpp"

#include "support/check.hpp"
#include "tensor/simd.hpp"

namespace pg::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, pg::Rng& rng)
    : w_(in_features, out_features), b_(1, out_features) {
  tensor::glorot_uniform(w_, rng);
}

tensor::Matrix Linear::forward(const tensor::Matrix& x) const {
  check(x.cols() == w_.rows(), "Linear::forward: feature dim mismatch");
  tensor::Matrix y = tensor::matmul(x, w_);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    auto row = y.row_span(i);
    auto bias = b_.row_span(0);
    for (std::size_t j = 0; j < row.size(); ++j) row[j] += bias[j];
  }
  return y;
}

const tensor::Matrix& Linear::forward(const tensor::Matrix& x,
                                      tensor::Workspace& ws) const {
  check(x.cols() == w_.rows(), "Linear::forward: feature dim mismatch");
  tensor::Matrix& y = ws.acquire_uninit(x.rows(), w_.cols());
  tensor::matmul_into(y, x, w_);
  tensor::simd::kernels().add_bias_rows(y.data().data(), b_.data().data(),
                                        y.rows(), y.cols());
  return y;
}

void Linear::backward_params(const tensor::Matrix& x, const tensor::Matrix& dy,
                             std::span<tensor::Matrix> grads) const {
  check(grads.size() == num_params(), "Linear::backward: bad grad span");
  check(grads[0].same_shape(w_) && grads[1].same_shape(b_),
        "Linear::backward: grad shapes mismatch");
  tensor::matmul_transpose_a_acc(grads[0], x, dy);
  tensor::column_sums_acc(grads[1], dy);
}

tensor::Matrix Linear::backward(const tensor::Matrix& x, const tensor::Matrix& dy,
                                std::span<tensor::Matrix> grads) const {
  backward_params(x, dy, grads);
  return tensor::matmul_transpose_b(dy, w_);
}

tensor::Matrix& Linear::backward(const tensor::Matrix& x, const tensor::Matrix& dy,
                                 std::span<tensor::Matrix> grads,
                                 tensor::Workspace& ws) const {
  backward_params(x, dy, grads);
  tensor::Matrix& dx = ws.acquire_uninit(dy.rows(), w_.rows());
  tensor::matmul_transpose_b_into(dx, dy, w_);
  return dx;
}

std::vector<tensor::Matrix*> Linear::parameters() { return {&w_, &b_}; }

std::vector<const tensor::Matrix*> Linear::parameters() const {
  return {&w_, &b_};
}

}  // namespace pg::nn

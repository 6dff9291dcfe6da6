// Fully-connected layer with explicit (thread-safe) backward.
//
// The layer is immutable during training passes: forward takes the input,
// backward takes the cached input and a gradient span. This lets the
// trainer run many graphs in parallel, each with its own gradient buffer.
#pragma once

#include <span>
#include <vector>

#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/workspace.hpp"

namespace pg::nn {

class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, pg::Rng& rng);

  /// y = x W + b, with x: [n x in].
  [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& x) const;

  /// Allocation-free forward: y lives in `ws` until its next reset().
  const tensor::Matrix& forward(const tensor::Matrix& x,
                                tensor::Workspace& ws) const;

  /// Given dL/dy and the forward input x, accumulates dW into grads[0] and
  /// db into grads[1], returns dL/dx. `grads` must have `num_params()`
  /// matrices shaped like `parameters()`.
  tensor::Matrix backward(const tensor::Matrix& x, const tensor::Matrix& dy,
                          std::span<tensor::Matrix> grads) const;

  /// Allocation-free backward: dL/dx lives in `ws` until its next reset().
  tensor::Matrix& backward(const tensor::Matrix& x, const tensor::Matrix& dy,
                           std::span<tensor::Matrix> grads,
                           tensor::Workspace& ws) const;

  /// The parameter half of backward() alone — for a layer whose input is
  /// a constant, so dL/dx is never formed. The gradients it accumulates are
  /// byte-equal to backward()'s.
  void backward_params(const tensor::Matrix& x, const tensor::Matrix& dy,
                       std::span<tensor::Matrix> grads) const;

  [[nodiscard]] static constexpr std::size_t num_params() { return 2; }
  [[nodiscard]] std::vector<tensor::Matrix*> parameters();
  [[nodiscard]] std::vector<const tensor::Matrix*> parameters() const;

  [[nodiscard]] std::size_t in_features() const { return w_.rows(); }
  [[nodiscard]] std::size_t out_features() const { return w_.cols(); }
  [[nodiscard]] const tensor::Matrix& weight() const { return w_; }
  [[nodiscard]] const tensor::Matrix& bias() const { return b_; }

 private:
  tensor::Matrix w_;  // [in x out]
  tensor::Matrix b_;  // [1 x out]
};

}  // namespace pg::nn

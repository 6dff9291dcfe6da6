// Order-keyed Matrix arena: acquire/reset with grow-only slot storage.
#include "tensor/workspace.hpp"

#include <cstdint>

#include "support/check.hpp"

namespace pg::tensor {

Matrix& Workspace::acquire(std::size_t rows, std::size_t cols) {
  Matrix& m = acquire_uninit(rows, cols);
  m.zero();
  return m;
}

Matrix& Workspace::acquire_uninit(std::size_t rows, std::size_t cols) {
  check(rows < (std::uint64_t{1} << 32) && cols < (std::uint64_t{1} << 32),
        "Workspace::acquire: dimension too large");
  ++num_acquires_;
  if (next_ == slots_.size()) slots_.push_back(std::make_unique<Slot>());
  Slot& slot = *slots_[next_++];
  const std::size_t n = rows * cols;
  if (n > slot.high_water) {
    bytes_reserved_ += (n - slot.high_water) * sizeof(float);
    slot.high_water = n;
  }
  slot.matrix.reshape(rows, cols);
  return slot.matrix;
}

}  // namespace pg::tensor

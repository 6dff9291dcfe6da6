// Grow-only arena of Matrix buffers, keyed by acquisition order — the
// allocation-free substrate under every forward/backward pass.
//
// Usage contract:
//   * acquire(r, c) hands out a zero-filled r x c Matrix, distinct from every
//     other matrix acquired since the last reset(). Slot i is the i-th
//     acquire since reset(), reshaped in place to the requested shape.
//   * A borrowed Matrix object lives as long as the owning Workspace, but
//     nothing borrowed may be read across a reset(): the next pass may
//     reshape the slot and move its storage (ASan reports a span held across
//     a reset() into a slot that grew as a heap-use-after-free).
//   * A repeated identical pass touches the exact same memory —
//     bitwise-deterministic. A pass allocates only for slots it needs larger
//     than ever before, so once the largest pass has run, none does,
//     whatever mix of shapes follows.
//   * The arena never shrinks. Each slot keeps the largest size it was
//     handed out at; num_slots()/bytes_reserved() expose growth so callers
//     (and tests) can assert a hot loop has reached steady state.
//
// Not thread-safe: one Workspace per thread at a time (the trainer keeps
// one per gradient chunk, the InferenceEngine one per parallel_for
// worker).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/matrix.hpp"

namespace pg::tensor {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Borrows a zero-filled rows x cols matrix until the next reset().
  Matrix& acquire(std::size_t rows, std::size_t cols);

  /// Like acquire(), but the contents are unspecified — for destinations
  /// every element of which is written before being read (matmul_into /
  /// relu_into style); skips the hot-path memset that acquire() would
  /// spend on them.
  Matrix& acquire_uninit(std::size_t rows, std::size_t cols);

  /// Returns every borrowed matrix to the pool; capacity is retained.
  void reset() { next_ = 0; }

  /// Total slots ever created (== most acquires in one pass; flat once
  /// warmed up).
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  /// Sum over slots of the largest matrix each was handed out as, in bytes.
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// acquire() calls over the workspace's lifetime.
  [[nodiscard]] std::size_t num_acquires() const { return num_acquires_; }

 private:
  struct Slot {
    Matrix matrix;
    std::size_t high_water = 0;  // largest rows * cols handed out
  };

  std::vector<std::unique_ptr<Slot>> slots_;  // stable addresses on growth
  std::size_t next_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t num_acquires_ = 0;
};

}  // namespace pg::tensor

// The process's one parallel runtime. Every parallel loop in the library
// goes through here, and parallel.cpp is the only code that touches
// OpenMP, so the team size, nesting, scheduling and exception rules below
// hold at every site.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

namespace pg {

/// Team size a parallel_for started on this thread would use: 1 inside a
/// running parallel_for, else the calling thread's thread count (the
/// OMP_NUM_THREADS default or the core count until set_thread_count).
[[nodiscard]] int thread_count();

/// Sets the calling thread's thread count (n >= 1). The setting is per
/// thread: a new std::thread starts from the process default.
void set_thread_count(int n);

namespace detail {

using IndexBody = void (*)(void* fn, std::size_t i, int worker);

/// Runs body(fn, i, worker) over [0, n) on a team of thread_count()
/// threads, in chunks of `chunk` handed out dynamically or, when
/// `dynamic` is false, dealt round-robin (chunk c to worker c mod team),
/// then rethrows the lowest-index exception.
void run_team(std::size_t n, std::size_t chunk, bool dynamic, void* fn,
              IndexBody body);

/// parallel_for's body: inline at one thread, nested or for one chunk,
/// else run_team.
template <typename Fn>
void run_indexed(std::size_t n, std::size_t chunk, bool dynamic, Fn& fn) {
  if (n <= chunk || thread_count() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  auto* target = std::addressof(fn);
  using Target = decltype(target);
  run_team(n, chunk, dynamic,
           const_cast<void*>(static_cast<const void*>(target)),
           [](void* f, std::size_t i, int worker) {
             (*static_cast<Target>(f))(i, worker);
           });
}

}  // namespace detail

/// Calls fn(i, worker) for every i in [0, n). Chunks of `chunk`
/// consecutive indices are handed out dynamically; `worker`, below
/// thread_count(), names the thread running the call, for per-worker
/// scratch. The loop runs inline on the calling thread, in ascending order
/// with worker 0, when nested inside another parallel_for (it would
/// oversubscribe the cores that loop owns), at one thread, or for a single
/// chunk. An exception thrown by fn does not escape a worker: after the
/// join the exception of the lowest failing index, the one a sequential
/// pass would have hit first, is rethrown. Indices above a known failure
/// may be skipped.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t chunk, Fn&& fn) {
  detail::run_indexed(n, std::max<std::size_t>(chunk, 1), true, fn);
}

/// Runs fn(lo, hi) over an even cut of [0, n) into at most thread_count()
/// blocks of at least `grain` units (rows, groups, elements), so
/// n < 2 * grain stays serial. fn must write only outputs indexed by its
/// own [lo, hi) — every split point in the predict path partitions
/// independent outputs (node rows, destination groups, pooled segments) —
/// so each block computes exactly the FP operations the serial loop would
/// and the result is bitwise-identical to fn(0, n). Block b always runs on
/// worker b, so successive split points over the same rows keep them in
/// one core's cache.
template <typename Fn>
void parallel_for_blocks(std::size_t n, std::size_t grain, Fn&& fn) {
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t blocks =
      n < 2 * grain ? 1
                    : std::min<std::size_t>(
                          static_cast<std::size_t>(thread_count()), n / grain);
  auto block = [&](std::size_t b, int) {
    fn(n * b / blocks, n * (b + 1) / blocks);
  };
  detail::run_indexed(blocks, 1, false, block);
}

}  // namespace pg

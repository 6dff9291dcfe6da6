// OpenMP behind support/parallel.hpp: the only translation unit in the
// library that includes <omp.h> or opens a parallel region.
#include "support/parallel.hpp"

#include <omp.h>

#include <atomic>
#include <exception>
#include <mutex>

#include "support/check.hpp"

namespace pg {

int thread_count() { return omp_in_parallel() ? 1 : omp_get_max_threads(); }

void set_thread_count(int n) {
  check(n >= 1, "set_thread_count: thread count must be at least 1");
  omp_set_num_threads(n);
}

namespace detail {

void run_team(std::size_t n, std::size_t chunk, bool dynamic, void* fn,
              IndexBody body) {
  // first_failure only ever falls, so every index below the final one
  // runs and the rethrown exception does not depend on the schedule.
  std::atomic<std::size_t> first_failure{n};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto run = [&](std::size_t i) {
    if (i > first_failure.load(std::memory_order_relaxed)) return;
    try {
      body(fn, i, omp_get_thread_num());
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (i < first_failure.load(std::memory_order_relaxed)) {
        first_failure.store(i, std::memory_order_relaxed);
        error = std::current_exception();
      }
    }
  };
  // The team is always the full thread count, even with fewer chunks than
  // threads: libgomp re-forms its thread pool whenever a team is smaller
  // than the last one, which cost about 100 us per shrink and regrow on 4
  // vCPUs (gcc 12) against 4 us for a fork-join at a steady team size.
  if (dynamic) {
#pragma omp parallel for schedule(dynamic, chunk)
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
#pragma omp parallel for schedule(static, chunk)
    for (std::size_t i = 0; i < n; ++i) run(i);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace detail
}  // namespace pg

#include "hostspeed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench::hostspeed {
namespace {

constexpr int kRepeats = 9;
constexpr std::size_t kTableSlots = 1u << 13;  // open-addressed, 64 KiB
constexpr std::size_t kChaseSlots = 1u << 18;  // 1 MiB of 32-bit links
constexpr std::size_t kSortItems = 2048;
constexpr int kMatrix = 48;

struct Buffers {
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kTableSlots);
  std::vector<std::uint32_t> chase = std::vector<std::uint32_t>(kChaseSlots);
  std::vector<std::uint32_t> unsorted = std::vector<std::uint32_t>(kSortItems);
  std::vector<std::uint32_t> sorted = std::vector<std::uint32_t>(kSortItems);
  std::vector<float> a = std::vector<float>(kMatrix * kMatrix);
  std::vector<float> b = std::vector<float>(kMatrix * kMatrix);
  std::vector<float> c = std::vector<float>(kMatrix * kMatrix);

  Buffers() {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    // One random cycle through every chase slot (Sattolo's shuffle).
    for (std::size_t i = 0; i < kChaseSlots; ++i)
      chase[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kChaseSlots - 1; i > 0; --i)
      std::swap(chase[i], chase[next() % i]);
    for (auto& v : unsorted) v = static_cast<std::uint32_t>(next());
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(i % 7) * 0.5f;
      b[i] = static_cast<float>(i % 5) * 0.25f;
    }
  }
};

/// One unit of work; returns a value that depends on all of it.
std::uint64_t work(Buffers& m) {
  // Hash-table inserts and lookups: integer and branch work in L1/L2.
  std::fill(m.table.begin(), m.table.end(), 0);
  std::uint64_t h = 1469598103934665603ull, found = 0;
  for (std::uint64_t i = 1; i <= kTableSlots / 2; ++i) {
    h = (h ^ i) * 1099511628211ull;
    std::size_t slot = h & (kTableSlots - 1);
    while (m.table[slot] != 0) slot = (slot + 1) & (kTableSlots - 1);
    m.table[slot] = h | 1;
  }
  for (std::uint64_t i = 1; i <= kTableSlots / 2; ++i) {
    h = (h ^ i) * 1099511628211ull;
    std::size_t slot = h & (kTableSlots - 1);
    while (m.table[slot] != 0 && m.table[slot] != (h | 1))
      slot = (slot + 1) & (kTableSlots - 1);
    found += m.table[slot] != 0;
  }
  // Dependent loads through a cycle larger than L1: memory latency.
  std::uint32_t p = 0;
  for (int i = 0; i < 20000; ++i) p = m.chase[p];
  // Comparison sort.
  std::copy(m.unsorted.begin(), m.unsorted.end(), m.sorted.begin());
  std::sort(m.sorted.begin(), m.sorted.end());
  // Dense float multiply-adds.
  std::fill(m.c.begin(), m.c.end(), 0.0f);
  for (int i = 0; i < kMatrix; ++i)
    for (int k = 0; k < kMatrix; ++k) {
      const float x = m.a[i * kMatrix + k];
      for (int j = 0; j < kMatrix; ++j)
        m.c[i * kMatrix + j] += x * m.b[k * kMatrix + j];
    }
  return found + p + m.sorted[kSortItems / 2] +
         static_cast<std::uint64_t>(m.c[kMatrix + 1]);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Timeline::probe() {
  static Buffers buffers;
  static volatile std::uint64_t sink = 0;
  Probe p;
  p.start_ns = now_ns();
  std::int64_t best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    sink = sink + work(buffers);
    const std::int64_t took = now_ns() - t0;
    if (r == 0 || took < best) best = took;
  }
  p.end_ns = now_ns();
  p.seconds = static_cast<double>(best) * 1e-9;
  probes_.push_back(p);
}

double Timeline::corrected_seconds(std::int64_t start_ns,
                                   std::int64_t end_ns) const {
  if (probes_.empty() || end_ns <= start_ns) return 0.0;
  // Length of [lo, hi] that falls inside [start_ns, end_ns].
  auto overlap = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<double>(
               std::max<std::int64_t>(0, std::min(hi, end_ns) -
                                             std::max(lo, start_ns))) *
           1e-9;
  };
  const Probe& first = probes_.front();
  const Probe& last = probes_.back();
  double total = overlap(start_ns, first.start_ns) *
                     (kReferenceSeconds / first.seconds) +
                 overlap(last.end_ns, end_ns) *
                     (kReferenceSeconds / last.seconds);
  for (std::size_t i = 0; i + 1 < probes_.size(); ++i) {
    const Probe& a = probes_[i];
    const Probe& b = probes_[i + 1];
    total += overlap(a.end_ns, b.start_ns) *
             (kReferenceSeconds / (0.5 * (a.seconds + b.seconds)));
  }
  return total;
}

double Timeline::factor(std::int64_t start_ns, std::int64_t end_ns) const {
  return corrected_seconds(start_ns, end_ns) /
         (static_cast<double>(end_ns - start_ns) * 1e-9);
}

}  // namespace perfbench::hostspeed

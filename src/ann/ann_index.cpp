// nn-descent construction + greedy graph search + brute-force reference.
// Persistence lives in ann_io.cpp; both halves share the private layout.
#include "ann/ann_index.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <queue>
#include <utility>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace pg::ann {
namespace {

/// Reverse-neighbor lists are capped at this many entries per node (first
/// arrivals in node order — deterministic). Hub nodes in clustered corpora
/// otherwise accumulate thousands of reverse edges and the local join goes
/// quadratic in the hub degree.
constexpr std::size_t kReverseCap = 16;

/// Scored candidate ordered by (distance, index): the one comparison rule
/// used for neighbor lists, search frontiers, and brute-force winners, so
/// FP ties always break the same way.
using Scored = std::pair<float, std::uint32_t>;

/// Per-node init stream: splitmix-style spread of (seed, node) so node
/// streams are independent and the fan-out over nodes stays deterministic.
std::uint64_t node_seed(std::uint64_t seed, std::uint64_t node) {
  return seed ^ (0x9e3779b97f4a7c15ull * (node + 1));
}

}  // namespace

float l2_distance_sq(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "l2_distance_sq: dimension mismatch");
  double acc = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    acc += d * d;
  }
  return static_cast<float>(acc);
}

std::span<const std::uint32_t> AnnIndex::neighbors(std::size_t u) const {
  check(u < size(), "AnnIndex::neighbors: node out of range");
  return std::span<const std::uint32_t>(neighbors_).subspan(u * k_, k_);
}

void AnnIndex::compute_norms() {
  norms_.resize(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const auto row = embeddings_.row_span(i);
    double acc = 0.0;
    for (const float v : row) acc += static_cast<double>(v) * v;
    norms_[i] = static_cast<float>(acc);
  }
}

AnnIndex AnnIndex::build(const tensor::Matrix& embeddings,
                         const AnnConfig& config,
                         std::uint64_t checkpoint_fingerprint) {
  const std::size_t n = embeddings.rows();
  const std::size_t dim = embeddings.cols();
  check(n >= 1 && dim >= 1, "AnnIndex::build: empty corpus");

  AnnIndex index;
  index.embeddings_ = embeddings;
  index.config_ = config;
  index.fingerprint_ = checkpoint_fingerprint;
  index.k_ = std::min(config.k, n - 1);
  index.compute_norms();
  const std::size_t k = index.k_;
  if (k == 0) return index;  // single-row corpus: no graph to build

  auto dist = [&](std::size_t a, std::size_t b) {
    return l2_distance_sq(embeddings.row_span(a), embeddings.row_span(b));
  };

  // Seeded init: k distinct random neighbors per node, kept sorted by
  // (distance, index). Each node draws from its own derived stream, so the
  // result is independent of how the loop is scheduled.
  std::vector<std::uint32_t> cur(n * k);
  std::vector<float> cur_dist(n * k);
  // Per-worker scratch, reused across nodes and iterations.
  struct Scratch {
    std::vector<std::uint32_t> pool;
    std::vector<Scored> scored;
  };
  std::vector<Scratch> scratch(static_cast<std::size_t>(thread_count()));
  parallel_for(n, 256, [&](std::size_t u, int worker) {
    auto& scored = scratch[static_cast<std::size_t>(worker)].scored;
    Rng rng(node_seed(config.seed, u));
    scored.clear();
    while (scored.size() < k) {
      const auto c = static_cast<std::uint32_t>(rng.index(n));
      if (c == u) continue;
      bool dup = false;
      for (const Scored& s : scored) dup = dup || s.second == c;
      if (dup) continue;
      scored.emplace_back(dist(u, c), c);
    }
    std::sort(scored.begin(), scored.end());
    for (std::size_t j = 0; j < k; ++j) {
      cur[u * k + j] = scored[j].second;
      cur_dist[u * k + j] = scored[j].first;
    }
  });

  // Synchronous nn-descent: next[u] is the best-k of the local join over
  // the *previous* generation (neighbors, reverse neighbors, and their
  // adjacency), double-buffered — a pure function of the previous state,
  // so any schedule produces identical bytes.
  std::vector<std::uint32_t> next(n * k);
  std::vector<float> next_dist(n * k);
  std::vector<std::uint32_t> rev(n * kReverseCap);
  std::vector<std::uint32_t> rev_len(n);
  for (std::size_t it = 0; it < config.iterations; ++it) {
    // Reverse lists from the current graph, serial in node order: node v's
    // edges land in its neighbors' lists first-come-first-kept.
    std::fill(rev_len.begin(), rev_len.end(), 0u);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t w = cur[v * k + j];
        if (rev_len[w] < kReverseCap)
          rev[w * kReverseCap + rev_len[w]++] = static_cast<std::uint32_t>(v);
      }
    }

    std::atomic<bool> changed{false};
    parallel_for(n, 64, [&](std::size_t u, int worker) {
      Scratch& mine = scratch[static_cast<std::size_t>(worker)];
      auto& pool = mine.pool;
      auto& scored = mine.scored;
      pool.clear();
      auto push_with_adjacency = [&](std::uint32_t v) {
        pool.push_back(v);
        for (std::size_t j = 0; j < k; ++j) pool.push_back(cur[v * k + j]);
        for (std::size_t j = 0; j < rev_len[v]; ++j)
          pool.push_back(rev[v * kReverseCap + j]);
      };
      for (std::size_t j = 0; j < k; ++j)
        push_with_adjacency(cur[u * k + j]);
      for (std::size_t j = 0; j < rev_len[u]; ++j)
        push_with_adjacency(rev[u * kReverseCap + j]);
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

      scored.clear();
      for (const std::uint32_t c : pool)
        if (c != u) scored.emplace_back(dist(u, c), c);
      std::sort(scored.begin(), scored.end());

      bool u_changed = false;
      for (std::size_t j = 0; j < k; ++j) {
        next[u * k + j] = scored[j].second;
        next_dist[u * k + j] = scored[j].first;
        u_changed = u_changed || next[u * k + j] != cur[u * k + j];
      }
      if (u_changed) changed.store(true, std::memory_order_relaxed);
    });
    cur.swap(next);
    cur_dist.swap(next_dist);
    if (!changed.load(std::memory_order_relaxed)) break;
  }

  index.neighbors_ = std::move(cur);
  index.build_search_adjacency();
  return index;
}

void AnnIndex::build_search_adjacency() {
  const std::size_t n = size();
  adjacency_.clear();
  adj_offsets_.assign(n + 1, 0);
  if (k_ == 0) return;

  // Count both directions of every stored edge, prefix-sum into CSR
  // offsets, scatter, then sort + dedup each node's span — serial and in
  // node order throughout, so the adjacency is as deterministic as the
  // neighbor lists it derives from.
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t j = 0; j < k_; ++j) {
      ++adj_offsets_[u + 1];
      ++adj_offsets_[neighbors_[u * k_ + j] + 1];
    }
  for (std::size_t u = 0; u < n; ++u) adj_offsets_[u + 1] += adj_offsets_[u];
  adjacency_.resize(adj_offsets_[n]);
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t j = 0; j < k_; ++j) {
      const std::uint32_t v = neighbors_[u * k_ + j];
      adjacency_[cursor[u]++] = v;
      adjacency_[cursor[v]++] = static_cast<std::uint32_t>(u);
    }
  std::size_t write = 0;
  std::uint32_t read = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto begin = adjacency_.begin() + read;
    const auto end = adjacency_.begin() + adj_offsets_[u + 1];
    read = adj_offsets_[u + 1];
    std::sort(begin, end);
    const auto unique_end = std::unique(begin, end);
    for (auto it = begin; it != unique_end; ++it)
      adjacency_[write++] = *it;
    adj_offsets_[u + 1] = static_cast<std::uint32_t>(write);
  }
  adjacency_.resize(write);
}

std::vector<Neighbor> AnnIndex::search(std::span<const float> query,
                                       std::size_t k, std::size_t ef) const {
  check(query.size() == dim(), "AnnIndex::search: query dimension mismatch");
  const std::size_t n = size();
  if (n == 0 || k == 0) return {};
  if (k_ == 0 || n <= kBruteForceFallback) return brute_force(query, k);
  if (ef == 0) ef = std::max<std::size_t>(8 * k, 128);
  ef = std::max(ef, k);

  auto dist_to = [&](std::uint32_t c) {
    return l2_distance_sq(query, embeddings_.row_span(c));
  };

  // Frontier (min-heap: closest unexpanded candidate first) and result
  // (max-heap of the best ef so far); both ordered by (distance, index) so
  // FP ties cannot make the walk schedule-dependent.
  std::priority_queue<Scored, std::vector<Scored>, std::greater<>> frontier;
  std::priority_queue<Scored> result;
  std::vector<char> visited(n, 0);

  // Deterministic entry points spread across the corpus: graph ordinals are
  // corpus order, so a fixed stride covers distinct regions cheaply. The
  // count grows with N so large corpora keep seeding every region — a few
  // hundred extra distance evals, nothing next to the walk itself.
  const std::size_t entries =
      std::min(n, std::max<std::size_t>(16, n / 512));
  for (std::size_t s = 0; s < entries; ++s) {
    const auto e = static_cast<std::uint32_t>(s * (n - 1) / (entries - 1));
    if (visited[e]) continue;
    visited[e] = 1;
    const Scored cand{dist_to(e), e};
    frontier.push(cand);
    result.push(cand);
  }
  while (result.size() > ef) result.pop();

  while (!frontier.empty()) {
    const Scored best = frontier.top();
    frontier.pop();
    if (result.size() >= ef && result.top() < best) break;
    const auto adj = std::span<const std::uint32_t>(adjacency_)
                         .subspan(adj_offsets_[best.second],
                                  adj_offsets_[best.second + 1] -
                                      adj_offsets_[best.second]);
    for (const std::uint32_t w : adj) {
      if (visited[w]) continue;
      visited[w] = 1;
      const Scored cand{dist_to(w), w};
      if (result.size() < ef || cand < result.top()) {
        frontier.push(cand);
        result.push(cand);
        if (result.size() > ef) result.pop();
      }
    }
  }

  std::vector<Scored> sorted;
  sorted.reserve(result.size());
  while (!result.empty()) {
    sorted.push_back(result.top());
    result.pop();
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() > k) sorted.resize(k);
  std::vector<Neighbor> out;
  out.reserve(sorted.size());
  for (const Scored& s : sorted) out.push_back(Neighbor{s.second, s.first});
  return out;
}

std::vector<Neighbor> AnnIndex::brute_force(std::span<const float> query,
                                            std::size_t k) const {
  check(query.size() == dim(), "AnnIndex::brute_force: dimension mismatch");
  tensor::Matrix q(1, dim());
  std::memcpy(q.row_span(0).data(), query.data(), dim() * sizeof(float));
  return brute_force_batch(q, k).front();
}

std::vector<std::vector<Neighbor>> AnnIndex::brute_force_batch(
    const tensor::Matrix& queries, std::size_t k) const {
  check(queries.cols() == dim(),
        "AnnIndex::brute_force_batch: dimension mismatch");
  const std::size_t m = queries.rows();
  const std::size_t n = size();
  const std::size_t kk = std::min(k, n);
  std::vector<std::vector<Neighbor>> out(m);
  if (m == 0 || kk == 0) return out;

  // Rank by the dot-product surrogate |x|^2 - 2 q.x (monotone in the true
  // distance, constant |q|^2 dropped): one SIMD matmul per corpus block
  // against all queries, a per-query max-heap of the best kk surrogates.
  constexpr std::size_t kBlockRows = 2048;
  std::vector<std::vector<Scored>> heaps(m);
  tensor::Matrix block, dots;
  for (std::size_t lo = 0; lo < n; lo += kBlockRows) {
    const std::size_t hi = std::min(n, lo + kBlockRows);
    const std::size_t b = hi - lo;
    block.reshape(b, dim());
    std::memcpy(block.data().data(), embeddings_.row_span(lo).data(),
                b * dim() * sizeof(float));
    dots.reshape(m, b);
    tensor::matmul_transpose_b_into(dots, queries, block);
    for (std::size_t qi = 0; qi < m; ++qi) {
      auto& heap = heaps[qi];
      const auto row = dots.row_span(qi);
      for (std::size_t j = 0; j < b; ++j) {
        const Scored cand{norms_[lo + j] - 2.0f * row[j],
                          static_cast<std::uint32_t>(lo + j)};
        if (heap.size() < kk) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end());
        } else if (cand < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
  }

  // Rescore winners with the scalar kernel so reported distances match the
  // graph-search path bit for bit, then order by (distance, index).
  for (std::size_t qi = 0; qi < m; ++qi) {
    std::vector<Scored> final_scored;
    final_scored.reserve(heaps[qi].size());
    for (const Scored& s : heaps[qi])
      final_scored.emplace_back(
          l2_distance_sq(queries.row_span(qi), embeddings_.row_span(s.second)),
          s.second);
    std::sort(final_scored.begin(), final_scored.end());
    out[qi].reserve(final_scored.size());
    for (const Scored& s : final_scored)
      out[qi].push_back(Neighbor{s.second, s.first});
  }
  return out;
}

}  // namespace pg::ann

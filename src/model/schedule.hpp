// Deterministic cost-model chunk scheduling for the fused batch paths.
//
// The engine and trainer both cut a batch of encoded graphs into contiguous
// chunks, pack each chunk into one block-diagonal GraphBatch, and fan the
// chunks out across worker threads. Counting *graphs* per chunk balances
// nothing when graph sizes are skewed: one 10k-node graph costs ~100x a
// 100-node one. Per-graph node/edge counts are already known at pack time,
// so chunks are balanced by a linear work estimate instead (GRAPHOPT-style
// constrained scheduling over irregular graphs, arXiv 2105.01976).
//
// Determinism contract: every function here is a pure function of its
// inputs — costs in, boundaries out. Thread *count* may feed the target
// cost a caller picks (the engine equalises chunks across cores; chunking
// never affects values because fused predictions are bitwise-equal per
// graph), but thread *timing* never can: no boundary depends on execution
// order. The trainer goes further and derives its target from the batch
// alone, keeping gradient reduction order machine-independent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/encoding.hpp"

namespace pg::model::schedule {

// Linear work estimate for one encoded graph through the RGAT stack:
// projections and activations scale with node rows, attention softmax and
// the gated scatter with edge slots (two passes), plus a fixed per-graph
// pack/dispatch overhead so zero-edge graphs still cost something.
inline constexpr std::uint64_t kNodeCost = 1;
inline constexpr std::uint64_t kEdgeCost = 2;
inline constexpr std::uint64_t kGraphCost = 16;

/// The cost model over one graph's known-at-pack-time shape.
[[nodiscard]] std::uint64_t graph_cost(std::size_t nodes, std::size_t edges);
[[nodiscard]] std::uint64_t graph_cost(const EncodedGraph& graph);

/// Greedy prefix-sum partition of `costs` into contiguous chunks: a chunk
/// closes once adding the next graph would push its cost past
/// `target_cost` (a single graph costlier than the target gets a chunk of
/// its own), or once it holds `max_graphs` graphs. `bounds` is overwritten
/// with the chunk boundaries: size num_chunks + 1, bounds.front() == 0,
/// bounds.back() == costs.size(), strictly increasing (every chunk
/// non-empty). An empty batch yields the single boundary {0}. Grow-only:
/// the output vector's capacity is reused across calls.
///
/// Pure function of (costs, target_cost, max_graphs) — never of thread
/// timing — so a plan is reproducible and unit-testable in isolation.
void partition_by_cost(std::span<const std::uint64_t> costs,
                       std::uint64_t target_cost, std::size_t max_graphs,
                       std::vector<std::uint32_t>& bounds);

/// Sum of costs[lo, hi) for one chunk of a plan.
[[nodiscard]] std::uint64_t chunk_cost(std::span<const std::uint64_t> costs,
                                       std::uint32_t lo, std::uint32_t hi);

/// Cost imbalance of a plan: max chunk cost / mean chunk cost (>= 1.0; 1.0
/// is a perfectly equalised cut). 1.0 for empty or zero-cost plans. With
/// `schedule(dynamic)` stealing, wall clock approaches
/// total / threads * imbalance-bounded-tail, so this is the number the
/// scheduler stats expose.
[[nodiscard]] double plan_imbalance(std::span<const std::uint64_t> costs,
                                    std::span<const std::uint32_t> bounds);

}  // namespace pg::model::schedule

// InferenceEngine: per-worker GraphBatch/workspace state + chunk-fused
// batch prediction. Chunk boundaries come from the deterministic cost model
// in model/schedule.hpp. Cheap chunks fan out across the parallel_for team
// with dynamic stealing; an oversized chunk — a single graph past the intra
// threshold — runs in a serial phase where the fused forward's intra-batch
// split points use the whole machine. Results never depend on the cut,
// because the fused forward is bitwise-equal per graph.
#include "model/engine.hpp"

#include <algorithm>
#include <cstring>

#include "model/schedule.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace pg::model {
namespace {

/// Most graphs fused per chunk: deep enough for tiny graphs to amortise
/// per-call dispatch and packing, shallow enough to keep the per-worker
/// workspace arena modest. The cost budget below usually binds first.
constexpr std::size_t kFuseChunk = 64;

/// Cache-footprint cap per chunk, in cost units (nodes + 2*edges +
/// overhead). A fused chunk's intermediates grow with its node-row count
/// (~1.4 KB/node at hidden 24 across the conv stack), so chunks far beyond
/// a few hundred rows — roughly 2048 cost at the corpus's typical edge
/// density — evict the per-core working set and run slower per graph than
/// smaller fusions. A chunk's cost never exceeds this unless a single graph
/// does.
constexpr std::uint64_t kChunkCostBudget = 2048;

/// Smallest cost target the planner aims at: below this, packing overhead
/// dominates and per-graph chunks stop paying for their dispatch.
constexpr std::uint64_t kChunkCostFloor = 512;

/// Chunks per thread the cost planner aims for (when the budget allows):
/// oversubscription gives schedule(dynamic) room to steal around the tail.
constexpr std::uint64_t kChunkOversubscribe = 4;

/// A chunk at least this costly (only a single giant graph can exceed the
/// budget) is excluded from the chunk-parallel phase and run serially, so
/// the intra-batch split points inside the fused forward can fan its rows
/// out instead — one big graph must scale past one core.
constexpr std::uint64_t kIntraCostThreshold = 4 * kChunkCostBudget;

}  // namespace

InferenceEngine::InferenceEngine(const ParaGraphModel& model)
    : model_(&model), pool_(1) {}

double InferenceEngine::predict_one(const EncodedGraph& graph,
                                    std::span<const float> aux) {
  return model_->predict(graph, aux, pool_[0].ws);
}

void InferenceEngine::run_chunk(std::span<const EncodedGraph* const> graphs,
                                std::span<const std::array<float, 2>> aux,
                                std::span<double> out,
                                tensor::Matrix* embed_out, std::size_t lo,
                                std::size_t hi, std::size_t worker) {
  WorkerState& ts = pool_[worker];
  ts.batch.pack(graphs.subspan(lo, hi - lo));
  if (embed_out != nullptr) {
    // Embed-only pass: stop at the pooled rows and scatter them into the
    // caller's matrix. Pure copies, so the chunking stays bitwise-neutral.
    model_->embed_batch(ts.batch, ts.embed, ts.ws);
    const std::size_t width = ts.embed.cols();
    for (std::size_t i = lo; i < hi; ++i)
      std::memcpy(embed_out->row_span(i).data(),
                  ts.embed.row_span(i - lo).data(), width * sizeof(float));
  } else {
    ts.aux.reshape(hi - lo, 2);
    for (std::size_t i = lo; i < hi; ++i) {
      auto row = ts.aux.row_span(i - lo);
      row[0] = aux[i][0];
      row[1] = aux[i][1];
    }
    model_->predict_batch(ts.batch, ts.aux, out.subspan(lo, hi - lo), ts.ws);
  }
}

void InferenceEngine::run_chunked(std::span<const EncodedGraph* const> graphs,
                                  std::span<const std::array<float, 2>> aux,
                                  std::span<double> out,
                                  tensor::Matrix* embed_out) {
  const std::size_t n = graphs.size();
  WorkerState& caller = pool_[0];

  // Per-graph cost model (known at pack time). Cheap relative to a
  // forward: one pass over the relation headers per graph.
  auto& costs = caller.costs;
  costs.clear();
  std::uint64_t total_cost = 0;
  std::uint64_t total_rows = 0;
  for (const EncodedGraph* g : graphs) {
    const std::uint64_t c = schedule::graph_cost(*g);
    costs.push_back(c);
    total_cost += c;
    total_rows += g->features.rows();
  }

  // The pool grows to the team before the fan-out, and the plan uses the
  // same count the team runs with.
  const auto threads = static_cast<std::uint64_t>(thread_count());
  if (pool_.size() < threads) pool_.resize(threads);

  // Cost-balanced cut: aim for kChunkOversubscribe chunks per thread so
  // dynamic stealing can absorb the tail, bounded below by the packing-
  // overhead floor and above by the cache budget. Boundaries are a pure
  // function of (batch, thread *count*) — never of thread timing — and the
  // cut never affects values.
  auto& bounds = caller.bounds;
  const std::uint64_t target =
      std::min(kChunkCostBudget,
               std::max(kChunkCostFloor,
                        total_cost / (kChunkOversubscribe * threads)));
  schedule::partition_by_cost(costs, target, kFuseChunk, bounds);
  const std::size_t num_chunks = bounds.size() - 1;

  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  stat_graphs_.fetch_add(n, std::memory_order_relaxed);
  stat_chunks_.fetch_add(num_chunks, std::memory_order_relaxed);
  stat_rows_.fetch_add(total_rows, std::memory_order_relaxed);
  stat_last_imbalance_.store(schedule::plan_imbalance(costs, bounds),
                             std::memory_order_relaxed);

  // Two-phase execution. Phase 1: cheap chunks fan out across threads,
  // dynamic stealing balances the (cost-equalised) tail. Phase 2: chunks
  // past the intra threshold — single giant graphs — run serially, where
  // the fused forward's row/group split points parallelise *inside* the
  // chunk instead.
  auto& small = caller.small_chunks;
  auto& big = caller.big_chunks;
  small.clear();
  big.clear();
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t cost =
        schedule::chunk_cost(costs, bounds[c], bounds[c + 1]);
    const bool intra = threads > 1 && cost >= kIntraCostThreshold;
    (intra ? big : small).push_back(static_cast<std::uint32_t>(c));
  }

  parallel_for(small.size(), 1, [&](std::size_t i, int worker) {
    const std::uint32_t c = small[i];
    run_chunk(graphs, aux, out, embed_out, bounds[c], bounds[c + 1],
              static_cast<std::size_t>(worker));
  });
  for (const std::uint32_t c : big)
    run_chunk(graphs, aux, out, embed_out, bounds[c], bounds[c + 1], 0);
  stat_intra_chunks_.fetch_add(big.size(), std::memory_order_relaxed);
}

void InferenceEngine::predict_batch(std::span<const EncodedGraph> graphs,
                                    std::span<const std::array<float, 2>> aux,
                                    std::span<double> out) {
  check(graphs.size() == aux.size() && graphs.size() == out.size(),
        "InferenceEngine::predict_batch: span length mismatch");
  check(model_->config().aux_dim == 2,
        "InferenceEngine::predict_batch: engine batches 2-feature aux");
  if (graphs.empty()) return;
  WorkerState& caller = pool_[0];
  caller.ptrs.clear();
  caller.ptrs.reserve(graphs.size());
  for (const EncodedGraph& g : graphs) caller.ptrs.push_back(&g);
  run_chunked(caller.ptrs, aux, out, nullptr);
}

void InferenceEngine::embed_batch(std::span<const EncodedGraph> graphs,
                                  tensor::Matrix& out) {
  out.reshape(graphs.size(), model_->config().hidden_dim);
  if (graphs.empty()) return;
  WorkerState& caller = pool_[0];
  caller.ptrs.clear();
  caller.ptrs.reserve(graphs.size());
  for (const EncodedGraph& g : graphs) caller.ptrs.push_back(&g);
  run_chunked(caller.ptrs, {}, {}, &out);
}

std::vector<double> InferenceEngine::predict_samples_us(
    std::span<const TrainingSample> samples, const SampleSet& set) {
  std::vector<double> predictions(samples.size());
  const std::size_t n = samples.size();
  if (n == 0) return predictions;
  WorkerState& caller = pool_[0];
  caller.ptrs.clear();
  caller.ptrs.reserve(n);
  caller.aux_gather.clear();
  caller.aux_gather.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    caller.ptrs.push_back(&samples[i].graph);
    caller.aux_gather.push_back(samples[i].aux);
  }
  run_chunked(caller.ptrs, caller.aux_gather, predictions, nullptr);
  for (double& p : predictions) p = set.from_target(p);
  return predictions;
}

ScheduleStats InferenceEngine::schedule_stats() const {
  ScheduleStats s;
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.graphs = stat_graphs_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.rows = stat_rows_.load(std::memory_order_relaxed);
  s.intra_chunks = stat_intra_chunks_.load(std::memory_order_relaxed);
  s.last_imbalance = stat_last_imbalance_.load(std::memory_order_relaxed);
  return s;
}

std::size_t InferenceEngine::workspace_slots() const {
  std::size_t total = 0;
  for (const auto& ts : pool_) total += ts.ws.num_slots();
  return total;
}

std::size_t InferenceEngine::workspace_bytes() const {
  std::size_t total = 0;
  for (const auto& ts : pool_) total += ts.ws.bytes_reserved();
  return total;
}

}  // namespace pg::model

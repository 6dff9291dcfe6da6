// Batched inference engine over a trained ParaGraphModel: per-worker
// fused-batch state (grow-only Workspace + GraphBatch packer) plus a
// parallel_for fan-out over batch chunks (support/parallel.hpp), so
// steady-state prediction — the advisor's "rank every candidate variant"
// loop and the trainer's validation pass — performs zero heap allocations
// per graph AND amortises per-graph dispatch:
// each chunk of graphs is packed into one block-diagonal GraphBatch and run
// through a single fused model forward instead of one forward per graph.
//
// Chunk boundaries come from a deterministic cost model over per-graph
// node/edge counts (model/schedule.hpp): chunk costs equalise, so
// schedule(dynamic) stealing balances skewed batches instead of serialising
// behind the biggest graph. A chunk too big to share — a single giant
// graph — runs in a serial phase where the fused forward's intra-batch
// split points (support/parallel.hpp) fan its rows out across the cores.
// The cut never affects values: fused predictions are bitwise-equal per
// graph however the batch is chunked or threaded.
//
// The engine does not own the model; keep the model alive for the engine's
// lifetime. An engine is not thread-safe: concurrent callers each need
// their own (the serve daemon keeps one per worker). Model parameters may
// change between calls (the trainer reuses one engine across epochs) —
// predictions always read the current weights.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "model/graph_batch.hpp"
#include "model/paragraph_model.hpp"
#include "model/sample.hpp"
#include "tensor/workspace.hpp"

namespace pg::model {

/// Scheduler counters, cumulative over an engine's lifetime. Monitoring
/// only — reads are racy-but-consistent snapshots of relaxed atomics and
/// never affect predictions. rows/chunks gives mean fused rows per chunk;
/// intra_chunks counts chunks run in the serial intra-parallel phase.
struct ScheduleStats {
  std::uint64_t batches = 0;       ///< run_chunked invocations
  std::uint64_t graphs = 0;        ///< graphs predicted
  std::uint64_t chunks = 0;        ///< fused chunks dispatched
  std::uint64_t rows = 0;          ///< node rows packed into fused batches
  std::uint64_t intra_chunks = 0;  ///< chunks given intra-batch parallelism
  double last_imbalance = 1.0;     ///< max/mean chunk cost of the last plan
};

class InferenceEngine {
 public:
  explicit InferenceEngine(const ParaGraphModel& model);

  /// One scaled-domain prediction through worker 0's workspace.
  [[nodiscard]] double predict_one(const EncodedGraph& graph,
                                   std::span<const float> aux);

  /// Batched scaled-domain predictions: graphs are packed into
  /// block-diagonal GraphBatch chunks and each chunk runs one fused model
  /// forward (parallel across chunks). graphs/aux/out must have
  /// equal lengths. Bitwise-identical to calling predict_one per element:
  /// the fused forward performs the same per-graph FP operations in the
  /// same order (engine_test pins this), and workspace history never leaks
  /// into results because every borrowed buffer is either zero-filled on
  /// acquire or fully overwritten before being read.
  void predict_batch(std::span<const EncodedGraph> graphs,
                     std::span<const std::array<float, 2>> aux,
                     std::span<double> out);

  /// Microsecond-domain predictions for a sample list, honouring the set's
  /// target transform (linear or log) and the physical floor (>= 0). Runs
  /// the same fused chunked path as predict_batch.
  [[nodiscard]] std::vector<double> predict_samples_us(
      std::span<const TrainingSample> samples, const SampleSet& set);

  /// Pooled per-graph embeddings: reshapes `out` to [graphs.size() x
  /// hidden_dim] and fills each row with the conv-stack + segmented-mean
  /// embedding of the corresponding graph. Runs the same cost-model chunk
  /// fan-out as predict_batch; rows are bitwise-identical to the pooled
  /// rows the predict path computes internally, for any chunking or thread
  /// count (ann_test pins this), so a row is a stable ANN key however its
  /// graph was batched.
  void embed_batch(std::span<const EncodedGraph> graphs, tensor::Matrix& out);

  [[nodiscard]] const ParaGraphModel& model() const { return *model_; }

  /// Cumulative scheduler counters (relaxed-atomic snapshot).
  [[nodiscard]] ScheduleStats schedule_stats() const;

  // Aggregate arena statistics over the worker pool — flat counts between
  // two calls mean the steady state (zero allocation) has been reached.
  [[nodiscard]] std::size_t workspace_slots() const;
  [[nodiscard]] std::size_t workspace_bytes() const;

 private:
  /// Per-worker fused-batch state; everything grow-only. Worker 0 is the
  /// calling thread: the entry points keep their ptrs/aux_gather/plan
  /// buffers there.
  struct WorkerState {
    tensor::Workspace ws;
    GraphBatch batch;
    tensor::Matrix aux;                          // [chunk x aux_dim]
    tensor::Matrix embed;                        // [chunk x hidden] scratch
    std::vector<const EncodedGraph*> ptrs;       // batch gather scratch
    std::vector<std::array<float, 2>> aux_gather;  // predict_samples_us
    std::vector<std::uint64_t> costs;      // per-graph cost-model scratch
    std::vector<std::uint32_t> bounds;     // chunk boundaries scratch
    std::vector<std::uint32_t> small_chunks;  // phase-1 (chunk-parallel)
    std::vector<std::uint32_t> big_chunks;    // phase-2 (intra-parallel)
  };

  /// Packs graphs [lo, hi) with `worker`'s state and runs one fused pass
  /// into out[lo, hi). When `embed_out` is non-null the pass stops at the
  /// pooled embedding and writes rows [lo, hi) of `embed_out` instead
  /// (aux/out may be empty).
  void run_chunk(std::span<const EncodedGraph* const> graphs,
                 std::span<const std::array<float, 2>> aux,
                 std::span<double> out, tensor::Matrix* embed_out,
                 std::size_t lo, std::size_t hi, std::size_t worker);
  /// The shared chunk fan-out: plans cost-balanced chunk boundaries, runs
  /// cheap chunks in parallel with dynamic stealing, then runs
  /// oversized chunks serially so the fused forward's intra-batch split
  /// points can use the whole machine. All public batch entry points
  /// (predict and embed) route through here so the threading policy cannot
  /// diverge between them.
  void run_chunked(std::span<const EncodedGraph* const> graphs,
                   std::span<const std::array<float, 2>> aux,
                   std::span<double> out, tensor::Matrix* embed_out);

  const ParaGraphModel* model_;
  // One per parallel_for worker, grown to the team before each fan-out; a
  // deque, so growth never moves the caller's state.
  std::deque<WorkerState> pool_;

  // Scheduler counters (ScheduleStats): relaxed — monitoring only.
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_graphs_{0};
  std::atomic<std::uint64_t> stat_chunks_{0};
  std::atomic<std::uint64_t> stat_rows_{0};
  std::atomic<std::uint64_t> stat_intra_chunks_{0};
  std::atomic<double> stat_last_imbalance_{1.0};
};

}  // namespace pg::model

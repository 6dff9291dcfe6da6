// The ParaGraph runtime-prediction model (paper §IV-B):
//   three RGAT convolution layers -> mean-pool -> two FC layers (ReLU);
//   the two auxiliary features (num_teams, num_threads) are embedded by a
//   separate FC layer; both embeddings are concatenated and a final FC
//   layer produces the (MinMax-scaled) runtime.
//
// Every forward/backward borrows all its buffers from a caller-supplied
// Workspace, so a warmed-up predict/accumulate_gradients performs zero heap
// allocations. The Workspace-free overloads are conveniences over a
// thread-local workspace; hot loops (trainer, InferenceEngine) pass their
// own per-chunk or per-worker workspaces explicitly.
//
// The forward/backward core is batched: it runs over a (possibly
// block-diagonal) relational graph with per-graph node offsets and a
// [B x aux_dim] auxiliary matrix, producing B predictions from ONE pass —
// one projection matmul per relation over the concatenated active rows, one
// segmented softmax, one segmented mean-pool, and batched FC-head matmuls.
// The single-graph predict()/accumulate_gradients() are the B=1 case of the
// same code path, so fused batch predictions are bitwise-identical to
// per-graph ones.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "model/encoding.hpp"
#include "model/graph_batch.hpp"
#include "nn/linear.hpp"
#include "nn/rgat.hpp"
#include "tensor/workspace.hpp"

namespace pg::model {

struct ModelConfig {
  std::size_t node_feature_dim = kNodeFeatureDim;
  std::size_t num_relations = graph::kNumEdgeTypes;
  std::size_t hidden_dim = 24;
  std::size_t aux_dim = 2;        // num_teams, num_threads
  std::size_t aux_embed_dim = 8;
  std::uint64_t seed = 42;
};

class ParaGraphModel {
 public:
  explicit ParaGraphModel(const ModelConfig& config);

  /// Forward pass; aux must be MinMax-scaled, size == config().aux_dim.
  /// Resets `ws` and borrows every intermediate from it — allocation-free
  /// once the workspace has seen this graph's shapes.
  [[nodiscard]] double predict(const EncodedGraph& graph,
                               std::span<const float> aux,
                               tensor::Workspace& ws) const;

  /// Convenience overload over a thread-local workspace.
  [[nodiscard]] double predict(const EncodedGraph& graph,
                               std::span<const float> aux) const;

  /// Fused batch forward over a packed GraphBatch: one pass produces
  /// out.size() == batch.size() scaled predictions, bitwise-identical to
  /// predicting each packed graph on its own. `aux` is [B x aux_dim].
  void predict_batch(const GraphBatch& batch, const tensor::Matrix& aux,
                     std::span<double> out, tensor::Workspace& ws) const;

  /// Conv stack + segmented mean-pool only: reshapes `out` to
  /// [batch.size() x hidden_dim] and fills it with the pooled per-graph
  /// embedding rows. These are the exact rows the predict path pools
  /// internally — predict_batch runs this same embed core before the FC
  /// head — so they are bitwise-identical to it (pinned by ann_test).
  /// `out` must not be borrowed from `ws` (this call resets `ws`).
  void embed_batch(const GraphBatch& batch, tensor::Matrix& out,
                   tensor::Workspace& ws) const;

  /// Forward + backward for one sample under MSE against `target` (scaled).
  /// Accumulates `grad_scale * dL/dtheta` into `grads` (one Matrix per
  /// parameter, same order as parameters()). Returns the prediction.
  /// Resets `ws`; thread-safe when each thread passes its own workspace —
  /// concurrent calls only read the model.
  double accumulate_gradients(const EncodedGraph& graph,
                              std::span<const float> aux, double target,
                              double grad_scale,
                              std::span<tensor::Matrix> grads,
                              tensor::Workspace& ws) const;

  /// Convenience overload over a thread-local workspace.
  double accumulate_gradients(const EncodedGraph& graph,
                              std::span<const float> aux, double target,
                              double grad_scale,
                              std::span<tensor::Matrix> grads) const;

  /// Fused batch forward + backward: one pass accumulates the summed
  /// per-sample MSE gradients (each scaled by `grad_scale`) into `grads`
  /// and returns the sum of squared errors over the batch (scaled domain).
  /// `aux` is [B x aux_dim]; `targets` has batch.size() entries. The
  /// accumulation order is fixed by the batch contents alone — independent
  /// of any thread count — which is what makes the trainer's chunked
  /// reduction bitwise-reproducible across machines.
  double accumulate_gradients_batch(const GraphBatch& batch,
                                    const tensor::Matrix& aux,
                                    std::span<const double> targets,
                                    double grad_scale,
                                    std::span<tensor::Matrix> grads,
                                    tensor::Workspace& ws) const;

  [[nodiscard]] std::vector<tensor::Matrix*> parameters();
  [[nodiscard]] std::vector<const tensor::Matrix*> parameters() const;
  [[nodiscard]] std::size_t num_params() const;
  [[nodiscard]] const ModelConfig& config() const { return config_; }

 private:
  struct ForwardState;
  /// The batched core: features/relations may be one graph or a
  /// block-diagonal batch; `offsets` (size B+1) marks per-graph node blocks
  /// and `aux_in` is [B x aux_dim]. Fills state; predictions are
  /// state.out(b, 0). Composed of run_embed (conv stack + pool) followed by
  /// run_head (FC head), so embed_batch shares the predict path's exact FP
  /// operations by construction.
  void run_forward(const tensor::Matrix& features,
                   const nn::RelationalGraph& relations,
                   std::span<const std::uint32_t> offsets,
                   const tensor::Matrix& aux_in, ForwardState& state,
                   tensor::Workspace& ws) const;
  /// Conv stack + segmented mean-pool: fills state.h1..h3 and state.pooled.
  void run_embed(const tensor::Matrix& features,
                 const nn::RelationalGraph& relations,
                 std::span<const std::uint32_t> offsets, ForwardState& state,
                 tensor::Workspace& ws) const;
  /// FC head from state.pooled: fills state.f1..out.
  void run_head(const tensor::Matrix& aux_in, ForwardState& state,
                tensor::Workspace& ws) const;
  /// Matching batched backward; `dout` is [B x 1] (dL/dprediction per
  /// graph, already loss-scaled).
  void run_backward(const nn::RelationalGraph& relations,
                    std::span<const std::uint32_t> offsets,
                    const ForwardState& state, const tensor::Matrix& dout,
                    std::span<tensor::Matrix> grads,
                    tensor::Workspace& ws) const;

  ModelConfig config_;
  nn::RgatConv conv1_;
  nn::RgatConv conv2_;
  nn::RgatConv conv3_;
  nn::Linear fc1_;      // pooled graph embedding -> hidden
  nn::Linear fc2_;      // hidden -> hidden
  nn::Linear aux_fc_;   // aux features -> aux embedding
  nn::Linear out_fc_;   // [hidden + aux_embed] -> 1
};

}  // namespace pg::model

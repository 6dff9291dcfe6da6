// Tests for the batched InferenceEngine and the fused GraphBatch path:
// exact (bitwise) agreement between the fused block-diagonal forward,
// predict_one, and the model's own predict; span validation; warm-pool
// steady state; batches after a thread-count increase; the
// microsecond-domain sample path against predict_all; and
// thread-count-independent training.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/trainer.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace pg::model {
namespace {

graph::ProgramGraph small_graph() {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        double x = 1.0;
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  return graph::build_graph(r.root(), {});
}

/// A batch whose elements genuinely differ: the same program graph encoded
/// at different weight scales, with varying aux features.
std::pair<std::vector<EncodedGraph>, std::vector<std::array<float, 2>>>
make_batch(std::size_t n) {
  const auto g = small_graph();
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(n);
    graphs.push_back(encode_graph(g, 40.0 + 400.0 * t));
    aux.push_back({static_cast<float>(t), static_cast<float>(1.0 - t)});
  }
  return {std::move(graphs), std::move(aux)};
}

TEST(InferenceEngine, PredictOneMatchesModelPredict) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 3});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(4);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(engine.predict_one(graphs[i], aux[i]), m.predict(graphs[i], aux[i]));
}

TEST(InferenceEngine, BatchMatchesSequentialPredictOneBitwise) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 5});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(17);  // not a multiple of the chunk size
  std::vector<double> batched(graphs.size());
  engine.predict_batch(graphs, aux, batched);

  InferenceEngine sequential(m);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(batched[i], sequential.predict_one(graphs[i], aux[i])) << i;
}

TEST(InferenceEngine, RepeatedBatchIsDeterministic) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(8);
  std::vector<double> first(graphs.size()), second(graphs.size());
  engine.predict_batch(graphs, aux, first);
  engine.predict_batch(graphs, aux, second);
  EXPECT_EQ(first, second);
}

TEST(InferenceEngine, WarmPoolStopsGrowing) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(8);
  std::vector<double> out(graphs.size());
  engine.predict_batch(graphs, aux, out);
  const std::size_t slots = engine.workspace_slots();
  const std::size_t bytes = engine.workspace_bytes();
  EXPECT_GT(slots, 0u);
  engine.predict_batch(graphs, aux, out);
  EXPECT_EQ(engine.workspace_slots(), slots);
  EXPECT_EQ(engine.workspace_bytes(), bytes);
}

TEST(InferenceEngine, EmptyBatchIsANoOp) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  InferenceEngine engine(m);
  engine.predict_batch({}, {}, {});
  EXPECT_EQ(engine.workspace_slots(), 0u);
}

TEST(InferenceEngine, SpanLengthMismatchThrows) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(3);
  std::vector<double> bad(2);
  EXPECT_THROW(engine.predict_batch(graphs, aux, bad), InternalError);
}

TEST(GraphBatch, FusedForwardIsBitwiseEqualToPerGraphPredict) {
  // The tentpole invariant: packing B graphs block-diagonally and running
  // ONE fused forward yields bit-for-bit the predictions of B independent
  // forwards.
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 11});
  auto [graphs, aux] = make_batch(5);

  GraphBatch batch;
  batch.pack(graphs);
  ASSERT_EQ(batch.size(), graphs.size());
  tensor::Matrix aux_m(graphs.size(), 2);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    aux_m(i, 0) = aux[i][0];
    aux_m(i, 1) = aux[i][1];
  }
  std::vector<double> fused(graphs.size());
  tensor::Workspace ws;
  m.predict_batch(batch, aux_m, fused, ws);

  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(fused[i], m.predict(graphs[i], aux[i])) << i;
}

TEST(GraphBatch, BlockDiagonalPackingIsExact) {
  auto [graphs, aux] = make_batch(3);
  (void)aux;
  GraphBatch batch;
  batch.pack(graphs);

  // Node offsets partition the concatenated id space.
  const auto offsets = batch.node_offsets();
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[3], batch.features().rows());
  EXPECT_EQ(batch.relations().num_nodes, batch.features().rows());

  // Every relation is the per-graph relations concatenated with offsets:
  // expanding the packed CSR must reproduce each graph's triples shifted
  // into its node block.
  for (std::size_t r = 0; r < batch.relations().relations.size(); ++r) {
    std::vector<nn::RelEdge> expected;
    for (std::size_t b = 0; b < graphs.size(); ++b)
      for (nn::RelEdge e : graphs[b].relations.relations[r].to_edges()) {
        e.src += offsets[b];
        e.dst += offsets[b];
        expected.push_back(e);
      }
    EXPECT_EQ(batch.relations().relations[r].to_edges(), expected) << "rel " << r;
  }

  // Repacking reuses capacity: no shape drift.
  batch.pack(graphs);
  EXPECT_EQ(batch.size(), graphs.size());
  EXPECT_EQ(batch.node_offsets()[3], offsets[3]);
}

TEST(InferenceEngine, MultiChunkBatchMatchesPredictOneBitwise) {
  // More graphs than one fuse chunk (64): exercises the chunked fan-out and
  // its boundary handling.
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 13});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(67);
  std::vector<double> batched(graphs.size());
  engine.predict_batch(graphs, aux, batched);

  InferenceEngine sequential(m);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(batched[i], sequential.predict_one(graphs[i], aux[i])) << i;
}

TEST(InferenceEngine, BatchAfterThreadCountIncreaseMatchesOneThread) {
  // The engine's worker pool grows when the thread count rises after its
  // first batch. 67 graphs is more than one fuse chunk, so a multi-thread
  // plan fans out.
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 17});
  auto [graphs, aux] = make_batch(67);
  const int saved_threads = thread_count();
  set_thread_count(1);
  InferenceEngine engine(m);
  std::vector<double> reference(graphs.size());
  engine.predict_batch(graphs, aux, reference);

  set_thread_count(3);
  std::vector<double> out(graphs.size());
  engine.predict_batch(graphs, aux, out);
  set_thread_count(saved_threads);
  EXPECT_EQ(out, reference);
}

TEST(Trainer, TrainingIsIndependentOfThreadCount) {
  // The cost-chunked fused gradient accumulation must make train_model
  // bitwise-reproducible whatever the thread count: same history, same final
  // validation predictions for 1 thread and for several.
  SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 10; ++i) {
    TrainingSample s;
    const double t = static_cast<double>(i) / 10.0;
    s.graph = encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    (i % 3 == 0 ? set.validation : set.train).push_back(std::move(s));
  }
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;

  const int saved_threads = thread_count();
  auto run = [&](int threads) {
    set_thread_count(threads);
    ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 21});
    return train_model(m, set, config);
  };
  const TrainResult one = run(1);
  const TrainResult three = run(3);
  set_thread_count(saved_threads);

  ASSERT_EQ(one.history.size(), three.history.size());
  for (std::size_t e = 0; e < one.history.size(); ++e) {
    EXPECT_EQ(one.history[e].train_mse_scaled, three.history[e].train_mse_scaled)
        << "epoch " << e;
    EXPECT_EQ(one.history[e].val_rmse_us, three.history[e].val_rmse_us)
        << "epoch " << e;
  }
  EXPECT_EQ(one.val_predictions_us, three.val_predictions_us);
}

TEST(InferenceEngine, PredictSamplesUsMatchesPredictAll) {
  SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 12; ++i) {
    TrainingSample s;
    const double t = static_cast<double>(i) / 12.0;
    s.graph = encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    set.validation.push_back(std::move(s));
  }
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 9});

  InferenceEngine engine(m);
  const auto engine_preds = engine.predict_samples_us(set.validation, set);
  const auto trainer_preds = predict_all(m, set.validation, set);
  ASSERT_EQ(engine_preds.size(), set.validation.size());
  EXPECT_EQ(engine_preds, trainer_preds);
  for (double p : engine_preds) EXPECT_GE(p, 0.0);  // physical floor
}

}  // namespace
}  // namespace pg::model

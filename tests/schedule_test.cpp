// Tests for the cost-model chunk scheduler (model/schedule.hpp) and the
// engine's parallel schedule built on it: deterministic partition
// boundaries and their prefix-sum invariants, degenerate inputs, scheduler
// stats, and — the load-bearing property — bitwise parity of engine
// predictions across 1 vs N threads under uniform / zipf / one-giant batch
// mixes.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <vector>

#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "model/schedule.hpp"
#include "nn/relational_graph.hpp"
#include "support/parallel.hpp"

namespace pg::model {
namespace {

using schedule::graph_cost;
using schedule::partition_by_cost;
using schedule::plan_imbalance;

// ---------------------------------------------------------- cost model ---

TEST(Schedule, GraphCostIsLinearInNodesAndEdges) {
  EXPECT_EQ(graph_cost(0, 0), schedule::kGraphCost);
  EXPECT_EQ(graph_cost(10, 0), schedule::kGraphCost + 10);
  EXPECT_EQ(graph_cost(10, 7),
            schedule::kGraphCost + 10 + 2 * 7);
}

// ---------------------------------------------------------- partitioner ---

std::vector<std::uint32_t> partition(const std::vector<std::uint64_t>& costs,
                                     std::uint64_t target,
                                     std::size_t max_graphs) {
  std::vector<std::uint32_t> bounds;
  partition_by_cost(costs, target, max_graphs, bounds);
  return bounds;
}

TEST(Schedule, PartitionIsDeterministic) {
  const std::vector<std::uint64_t> costs = {5, 9, 1, 14, 3, 3, 3, 20, 2};
  const auto first = partition(costs, 12, 64);
  const auto second = partition(costs, 12, 64);
  EXPECT_EQ(first, second);
}

TEST(Schedule, PartitionBoundsAreMonotonePrefixSums) {
  // Property over a spread of targets and caps: boundaries are strictly
  // increasing, span [0, n], and every chunk respects the cap; a chunk
  // exceeds the target cost only when a single graph does.
  std::vector<std::uint64_t> costs;
  std::uint64_t state = 42;
  for (int i = 0; i < 200; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    costs.push_back(1 + (state >> 33) % 500);
  }
  for (const std::uint64_t target : {1ull, 17ull, 250ull, 1000ull, 100000ull}) {
    for (const std::size_t cap : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
      const auto bounds = partition(costs, target, cap);
      ASSERT_GE(bounds.size(), 2u);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), costs.size());
      for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
        ASSERT_LT(bounds[c], bounds[c + 1]);  // strictly increasing
        EXPECT_LE(bounds[c + 1] - bounds[c], cap);
        const std::uint64_t cost =
            schedule::chunk_cost(costs, bounds[c], bounds[c + 1]);
        if (bounds[c + 1] - bounds[c] > 1) {
          EXPECT_LE(cost, target);
        }
      }
    }
  }
}

TEST(Schedule, PartitionDegenerateCases) {
  // Empty batch: the single boundary 0.
  EXPECT_EQ(partition({}, 100, 64), (std::vector<std::uint32_t>{0}));
  // One graph, even one far above target, lands in one chunk.
  EXPECT_EQ(partition({1000}, 10, 64), (std::vector<std::uint32_t>{0, 1}));
  // Zero target degrades to per-graph chunks (never an empty chunk).
  EXPECT_EQ(partition({5, 5, 5}, 0, 64),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // max_graphs = 1 forces per-graph chunks regardless of target.
  EXPECT_EQ(partition({1, 1, 1}, 1000, 1),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // A huge target fuses everything.
  EXPECT_EQ(partition({5, 5, 5, 5}, 1000, 64),
            (std::vector<std::uint32_t>{0, 4}));
}

TEST(Schedule, PartitionEqualCostsCutsEvenly) {
  // 12 equal-cost graphs at a 3-graph target: four chunks of three.
  const std::vector<std::uint64_t> costs(12, 10);
  EXPECT_EQ(partition(costs, 30, 64),
            (std::vector<std::uint32_t>{0, 3, 6, 9, 12}));
}

TEST(Schedule, ImbalanceIsOneForPerfectCutsAndAboveOneForSkew) {
  const std::vector<std::uint64_t> even(8, 10);
  EXPECT_DOUBLE_EQ(plan_imbalance(even, partition(even, 20, 64)), 1.0);
  // One chunk of 100 vs one of 10: max/mean = 100 / 55.
  const std::vector<std::uint64_t> skew = {100, 10};
  const auto bounds = partition(skew, 50, 64);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(plan_imbalance(skew, bounds), 100.0 / 55.0);
  // Empty plans report neutral balance.
  EXPECT_DOUBLE_EQ(plan_imbalance({}, partition({}, 10, 64)), 1.0);
}

// --------------------------------------------------- engine integration ---

/// Deterministic splitmix64 for synthetic graphs.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Synthetic encoded graph with a tree relation, a chain relation, and
/// sparse random relations — enough structure to exercise every kernel.
EncodedGraph make_graph(std::size_t nodes, std::uint64_t seed) {
  EncodedGraph g;
  const std::size_t feat = kNodeFeatureDim;
  g.features = tensor::Matrix(nodes, feat);
  std::uint64_t rng = seed;
  for (std::size_t i = 0; i < nodes; ++i) {
    auto row = g.features.row_span(i);
    row[mix64(rng) % (feat - 1)] = 1.0f;
    row[feat - 1] = static_cast<float>(mix64(rng) % 5) * 0.5f;
  }
  const std::size_t num_relations = ModelConfig{}.num_relations;
  g.relations.num_nodes = nodes;
  g.relations.relations.resize(num_relations);
  std::vector<nn::RelEdge> edges;
  for (std::size_t r = 0; r < num_relations; ++r) {
    edges.clear();
    if (r == 0) {
      for (std::uint32_t i = 1; i < nodes; ++i)
        edges.push_back({i, static_cast<std::uint32_t>(i / 2), 0.5f});
    } else if (r == 1) {
      for (std::uint32_t i = 0; i + 1 < nodes; ++i)
        edges.push_back({i, i + 1, 1.0f});
    } else {
      for (std::size_t e = 0; e < nodes / 4; ++e)
        edges.push_back({static_cast<std::uint32_t>(mix64(rng) % nodes),
                         static_cast<std::uint32_t>(mix64(rng) % nodes),
                         1.0f});
    }
    g.relations.relations[r] = nn::RelationEdges::from_edges(edges);
  }
  return g;
}

struct MixFixture {
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
};

MixFixture make_mix(const std::vector<std::size_t>& sizes) {
  MixFixture mix;
  std::uint64_t rng = 0xfeedface;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    mix.graphs.push_back(make_graph(sizes[i], mix64(rng)));
    const float t =
        static_cast<float>(i + 1) / static_cast<float>(sizes.size());
    mix.aux.push_back({t, 1.0f - t});
  }
  return mix;
}

std::vector<MixFixture> all_mixes() {
  std::vector<MixFixture> mixes;
  mixes.push_back(make_mix(std::vector<std::size_t>(24, 60)));  // uniform
  std::vector<std::size_t> zipf;
  for (std::size_t i = 0; i < 24; ++i)
    zipf.push_back(std::max<std::size_t>(10, 600 / (i + 1)));
  mixes.push_back(make_mix(zipf));
  std::vector<std::size_t> giant(12, 20);
  giant[0] = 1500;  // past the intra threshold: cost ~ 1500 + 2*~5.5k edges
  mixes.push_back(make_mix(giant));
  return mixes;
}

class EngineParity : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = thread_count(); }
  void TearDown() override { set_thread_count(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(EngineParity, BitwiseAcrossThreadCountsForAllMixes) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 21});
  for (const MixFixture& mix : all_mixes()) {
    // Reference: 1 thread.
    set_thread_count(1);
    std::vector<double> reference(mix.graphs.size());
    {
      InferenceEngine engine(m);
      engine.predict_batch(mix.graphs, mix.aux, reference);
    }
    for (int threads : {1, 2, 3}) {
      set_thread_count(threads);
      InferenceEngine engine(m);
      std::vector<double> out(mix.graphs.size());
      engine.predict_batch(mix.graphs, mix.aux, out);
      EXPECT_EQ(out, reference) << "threads=" << threads;
    }
  }
}

TEST_F(EngineParity, ScheduleStatsCountBatchesChunksAndRows) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 9});
  const MixFixture mix = make_mix(std::vector<std::size_t>(16, 50));
  std::size_t total_rows = 0;
  for (const EncodedGraph& g : mix.graphs) total_rows += g.features.rows();

  InferenceEngine engine(m);
  EXPECT_EQ(engine.schedule_stats().batches, 0u);
  std::vector<double> out(mix.graphs.size());
  engine.predict_batch(mix.graphs, mix.aux, out);

  const ScheduleStats stats = engine.schedule_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.graphs, mix.graphs.size());
  EXPECT_EQ(stats.rows, total_rows);
  EXPECT_GE(stats.chunks, 1u);
  EXPECT_LE(stats.chunks, mix.graphs.size());
  EXPECT_GE(stats.last_imbalance, 1.0);

  engine.predict_batch(mix.graphs, mix.aux, out);
  EXPECT_EQ(engine.schedule_stats().batches, 2u);
  EXPECT_EQ(engine.schedule_stats().graphs, 2 * mix.graphs.size());
}

TEST_F(EngineParity, GiantGraphRunsInIntraParallelPhase) {
  // With >1 thread, the one-giant mix must route its oversized chunk
  // through the serial intra-parallel phase (stats.intra_chunks > 0) and
  // still match the 1-thread reference bitwise (covered above). On a
  // 1-core runner the engine never promises an intra phase — chunk-level
  // serial execution already uses the whole machine — so gate on threads.
  if (thread_count() < 2) set_thread_count(2);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 33});
  std::vector<std::size_t> sizes(8, 20);
  sizes[0] = 1500;
  const MixFixture mix = make_mix(sizes);
  InferenceEngine engine(m);
  std::vector<double> out(mix.graphs.size());
  engine.predict_batch(mix.graphs, mix.aux, out);
  EXPECT_GE(engine.schedule_stats().intra_chunks, 1u);
}

}  // namespace
}  // namespace pg::model

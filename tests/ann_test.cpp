// ANN subsystem suite (src/ann, docs/FORMAT.md .pgann):
//   * embed_batch row stability — every batched row is bit-for-bit the
//     graph embedded alone, across batch sizes and SIMD levels, so rows are
//     stable ANN keys however their graphs were batched;
//   * nn-descent determinism — same seed, any thread count, byte-
//     identical .pgann output;
//   * search vs brute force — small-N fallback exactness and recall;
//   * .pgann round trips, checkpoint-fingerprint staleness rejection, and
//     reader rejection of corrupt containers with section + offset context.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ann/ann_index.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace pg {
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

std::pair<std::vector<model::EncodedGraph>, std::vector<std::array<float, 2>>>
make_batch(std::size_t n) {
  const auto g = small_graph();
  std::vector<model::EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(n);
    graphs.push_back(model::encode_graph(g, 40.0 + 400.0 * t));
    aux.push_back({static_cast<float>(t), static_cast<float>(1.0 - t)});
  }
  return {std::move(graphs), std::move(aux)};
}

/// Uniform random embedding matrix — AnnIndex is agnostic to where rows
/// come from, so most index tests run on synthetic corpora.
tensor::Matrix random_embeddings(std::size_t n, std::size_t dim,
                                 std::uint64_t seed) {
  tensor::Matrix m(n, dim);
  Rng rng(seed);
  for (float& v : m.data())
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return m;
}

std::string index_bytes(const ann::AnnIndex& index) {
  std::ostringstream os(std::ios::binary);
  index.save(os);
  return os.str();
}

// --- embed_batch rows -----------------------------------------------------

TEST(EmbedBatch, RowsMatchEachGraphEmbeddedAlone) {
  namespace simd = tensor::simd;
  const simd::SimdLevel saved = simd::active_level();
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::max_supported_level()}) {
    simd::set_active_level(level);
    model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
    model::InferenceEngine engine(m);
    for (const std::size_t n : {1u, 3u, 16u, 33u}) {
      auto [graphs, aux] = make_batch(n);
      tensor::Matrix pooled;
      engine.embed_batch(graphs, pooled);
      ASSERT_EQ(pooled.rows(), n);
      ASSERT_EQ(pooled.cols(), m.config().hidden_dim);
      tensor::Matrix alone;
      for (std::size_t i = 0; i < n; ++i) {
        engine.embed_batch({&graphs[i], 1}, alone);
        ASSERT_EQ(alone.rows(), 1u);
        EXPECT_EQ(std::memcmp(pooled.row_span(i).data(), alone.data().data(),
                              pooled.cols() * sizeof(float)),
                  0)
            << simd::level_name(level) << " batch " << n << " row " << i;
      }
    }
  }
  simd::set_active_level(saved);
}

TEST(EmbedBatch, ParityHoldsAcrossSimdLevels) {
  namespace simd = tensor::simd;
  const simd::SimdLevel saved = simd::active_level();
  auto [graphs, aux] = make_batch(9);
  std::vector<std::vector<double>> per_level;
  std::vector<std::string> per_level_pooled;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::max_supported_level()}) {
    simd::set_active_level(level);
    model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
    model::InferenceEngine engine(m);
    tensor::Matrix pooled;
    engine.embed_batch(graphs, pooled);
    std::vector<double> predicted(graphs.size());
    engine.predict_batch(graphs, aux, predicted);
    per_level.push_back(std::move(predicted));
    per_level_pooled.emplace_back(
        reinterpret_cast<const char*>(pooled.data().data()),
        pooled.size() * sizeof(float));
  }
  simd::set_active_level(saved);
  // The levels themselves agree bitwise (the kernel-layer contract), so
  // embeddings are stable keys across dispatch decisions.
  EXPECT_EQ(per_level[0], per_level[1]);
  EXPECT_EQ(per_level_pooled[0], per_level_pooled[1]);
}

// --- index build / search -------------------------------------------------

TEST(AnnIndex, BuildIsByteIdenticalForAnyThreadCount) {
  const auto embeddings = random_embeddings(600, 12, 77);
  ann::AnnConfig config;
  config.k = 6;
  const int saved = thread_count();
  auto build_bytes = [&](int threads) {
    set_thread_count(threads);
    return index_bytes(ann::AnnIndex::build(embeddings, config, 123));
  };
  const std::string one = build_bytes(1);
  const std::string four = build_bytes(4);
  set_thread_count(saved);
  EXPECT_EQ(one, four);
}

TEST(AnnIndex, SmallCorpusSearchIsExact) {
  // At or below kBruteForceFallback rows search() IS brute force.
  const auto embeddings = random_embeddings(100, 8, 5);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  const auto query = random_embeddings(1, 8, 6);
  const auto via_search = index.search(query.row_span(0), 5);
  const auto exact = index.brute_force(query.row_span(0), 5);
  ASSERT_EQ(via_search.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(via_search[i].index, exact[i].index) << i;
    EXPECT_EQ(via_search[i].distance, exact[i].distance) << i;
  }
}

TEST(AnnIndex, GraphSearchRecallOnRandomCorpus) {
  const auto embeddings = random_embeddings(2000, 16, 11);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  const auto queries = random_embeddings(50, 16, 12);
  std::size_t found = 0;
  std::size_t wanted = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto exact = index.brute_force(queries.row_span(q), 10);
    const auto approx = index.search(queries.row_span(q), 10);
    for (const ann::Neighbor& e : exact) {
      ++wanted;
      for (const ann::Neighbor& a : approx)
        if (a.index == e.index) {
          ++found;
          break;
        }
    }
  }
  EXPECT_GE(static_cast<double>(found) / static_cast<double>(wanted), 0.9);
}

TEST(AnnIndex, BruteForceBatchMatchesSingleQueries) {
  const auto embeddings = random_embeddings(300, 8, 21);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  const auto queries = random_embeddings(7, 8, 22);
  const auto batched = index.brute_force_batch(queries, 4);
  ASSERT_EQ(batched.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto single = index.brute_force(queries.row_span(q), 4);
    ASSERT_EQ(batched[q].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batched[q][i].index, single[i].index);
      EXPECT_EQ(batched[q][i].distance, single[i].distance);
    }
  }
}

TEST(AnnIndex, SingleRowCorpusHasNoNeighbors) {
  const auto embeddings = random_embeddings(1, 8, 1);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  EXPECT_EQ(index.k(), 0u);
  const auto hits = index.search(embeddings.row_span(0), 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 0u);
}

// --- persistence ----------------------------------------------------------

TEST(AnnIo, RoundTripPreservesEverything) {
  const auto embeddings = random_embeddings(400, 10, 31);
  ann::AnnConfig config;
  config.k = 8;
  const auto index = ann::AnnIndex::build(embeddings, config, 0xfeedu);
  const std::string bytes = index_bytes(index);
  const auto loaded = ann::AnnIndex::load(bytes.data(), bytes.size(), 0xfeedu);

  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.dim(), index.dim());
  EXPECT_EQ(loaded.k(), index.k());
  EXPECT_EQ(loaded.fingerprint(), index.fingerprint());
  EXPECT_EQ(std::memcmp(loaded.embeddings().data().data(),
                        index.embeddings().data().data(),
                        index.size() * index.dim() * sizeof(float)),
            0);
  for (std::size_t u = 0; u < index.size(); ++u) {
    const auto a = index.neighbors(u);
    const auto b = loaded.neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << u;
  }
  // Save -> load -> save is a fixed point.
  EXPECT_EQ(index_bytes(loaded), bytes);
}

TEST(AnnIo, StaleFingerprintIsRejected) {
  const auto embeddings = random_embeddings(50, 6, 41);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 111);
  const std::string bytes = index_bytes(index);
  EXPECT_NO_THROW(ann::AnnIndex::load(bytes.data(), bytes.size(), 111));
  EXPECT_NO_THROW(ann::AnnIndex::load(bytes.data(), bytes.size()));
  try {
    ann::AnnIndex::load(bytes.data(), bytes.size(), 222);
    FAIL() << "stale index accepted";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
}

TEST(AnnIo, CorruptEmbeddingNamesSectionAndOffset) {
  const auto embeddings = random_embeddings(80, 6, 51);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  std::string bytes = index_bytes(index);
  // Flip a byte early in the embedding payload (the section follows the
  // ~110-byte prologue + meta and spans 80*6 floats, so offset 200 is well
  // inside it). Any f32 bit pattern decodes, so only the checksum notices.
  ASSERT_GT(bytes.size(), 400u);
  bytes[200] = static_cast<char>(bytes[200] ^ 0x10);
  try {
    ann::AnnIndex::load(bytes.data(), bytes.size());
    FAIL() << "corrupt index accepted";
  } catch (const io::FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(AnnIo, TruncationAndBadMagicAreRejected) {
  const auto embeddings = random_embeddings(40, 4, 61);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 0);
  const std::string bytes = index_bytes(index);

  std::string truncated = bytes.substr(0, bytes.size() / 3);
  EXPECT_THROW(ann::AnnIndex::load(truncated.data(), truncated.size()),
               io::FormatError);

  std::string mangled = bytes;
  mangled[0] = 'X';
  EXPECT_THROW(ann::AnnIndex::load(mangled.data(), mangled.size()),
               io::FormatError);
}

TEST(AnnIo, FileRoundTripViaMmap) {
  const auto embeddings = random_embeddings(120, 8, 71);
  const auto index = ann::AnnIndex::build(embeddings, ann::AnnConfig{}, 7);
  const std::string path =
      testing::TempDir() + "/ann_roundtrip.pgann";
  index.save_file(path);
  const auto loaded = ann::AnnIndex::load_file(path, 7);
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(index_bytes(loaded), index_bytes(index));
}

}  // namespace
}  // namespace pg

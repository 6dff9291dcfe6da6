// Bitwise parity harness for the runtime-dispatched SIMD kernel layer
// (tensor/simd.hpp): every kernel, run under PARAGRAPH_SIMD=scalar and under
// the best dispatched level this machine supports, must produce BYTE-
// identical outputs — including remainder lanes (n % 8 != 0), empty inputs,
// single-row matrices, and the dense/sparse hybrid paths. Also pins the
// dispatch probe's clean fallback behaviour and end-to-end model/trainer
// parity (predictions and trained checkpoints byte-equal across levels).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/trainer.hpp"
#include "nn/adam.hpp"
#include "nn/relational_graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace pg::tensor::simd {
namespace {

const KernelTable& scalar_table() { return kernels_for(SimdLevel::kScalar); }
const KernelTable& best_table() { return kernels_for(max_supported_level()); }

/// Restores the process-wide active level when a test that re-selects it
/// (the end-to-end parity tests) finishes.
struct LevelGuard {
  SimdLevel saved = active_level();
  ~LevelGuard() { set_active_level(saved); }
};

/// Random matrix; `sparsity` in [0,1] zeroes that fraction of entries so
/// both sides of the dense/sparse hybrid run.
Matrix random_matrix(std::size_t rows, std::size_t cols, pg::Rng& rng,
                     double sparsity = 0.0) {
  Matrix m(rows, cols);
  uniform_init(m, rng, -2.0f, 2.0f);
  if (sparsity > 0.0)
    for (float& v : m.data())
      if (rng.uniform() < sparsity) v = 0.0f;
  return m;
}

void expect_bytes_equal(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)),
            0)
      << what;
}

// Shape grid: remainder lanes (not multiples of 4 or 8), the templated
// widths (8/16/24/32), single rows/columns, and a width > any lane count.
constexpr std::array<std::array<std::size_t, 3>, 10> kShapes = {{
    {1, 1, 1},
    {1, 3, 5},
    {2, 7, 8},
    {3, 5, 13},
    {4, 24, 24},
    {5, 32, 16},
    {7, 10, 31},
    {9, 6, 40},
    {6, 17, 32},
    {1, 24, 24},  // single-row matrix on the templated width
}};

TEST(KernelParity, MatmulAllShapesAndDensities) {
  pg::Rng rng(11);
  for (const auto [m, k, n] : kShapes) {
    for (const double sparsity : {0.0, 0.7}) {
      const Matrix a = random_matrix(m, k, rng, sparsity);
      const Matrix b = random_matrix(k, n, rng);
      Matrix c_scalar(m, n, 0.5f);  // pre-filled garbage: must be overwritten
      Matrix c_simd(m, n, -0.5f);
      scalar_table().matmul(a.data().data(), b.data().data(),
                            c_scalar.data().data(), m, k, n);
      best_table().matmul(a.data().data(), b.data().data(),
                          c_simd.data().data(), m, k, n);
      expect_bytes_equal(c_scalar, c_simd, "matmul");
    }
  }
}

TEST(KernelParity, MatmulTransposeAAccumulate) {
  pg::Rng rng(13);
  for (const auto [k, m, n] : kShapes) {  // k rows of A, m cols, n cols of B
    const Matrix a = random_matrix(k, m, rng, 0.4);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c0 = random_matrix(m, n, rng);  // accumulate on identical bases
    Matrix c1 = c0;
    scalar_table().matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                  c0.data().data(), m, k, n);
    best_table().matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                c1.data().data(), m, k, n);
    expect_bytes_equal(c0, c1, "matmul_t_a_acc");
  }
}

TEST(KernelParity, ColumnSumsAccumulate) {
  pg::Rng rng(17);
  for (const std::size_t cols : {1u, 5u, 8u, 13u, 24u, 31u}) {
    const Matrix a = random_matrix(9, cols, rng);
    Matrix s0 = random_matrix(1, cols, rng);
    Matrix s1 = s0;
    scalar_table().column_sums_acc(s0.data().data(), a.data().data(), 9, cols);
    best_table().column_sums_acc(s1.data().data(), a.data().data(), 9, cols);
    expect_bytes_equal(s0, s1, "column_sums_acc");
  }
}

TEST(KernelParity, SegmentRowMeanRaggedSegments) {
  pg::Rng rng(19);
  for (const std::size_t cols : {1u, 7u, 8u, 24u, 29u}) {
    // Ragged segments including length-1; last offset == rows.
    const std::vector<std::uint32_t> offsets = {0, 1, 4, 9, 10, 16};
    const Matrix a = random_matrix(16, cols, rng);
    Matrix o0(offsets.size() - 1, cols, 1.0f);
    Matrix o1(offsets.size() - 1, cols, -1.0f);
    scalar_table().segment_row_mean(o0.data().data(), a.data().data(),
                                    offsets.data(), offsets.size() - 1, cols);
    best_table().segment_row_mean(o1.data().data(), a.data().data(),
                                  offsets.data(), offsets.size() - 1, cols);
    expect_bytes_equal(o0, o1, "segment_row_mean");
  }
  // Single-row matrix, one segment: the row_mean_into-equivalence case.
  const Matrix single = random_matrix(1, 24, rng);
  const std::vector<std::uint32_t> one = {0, 1};
  Matrix s0(1, 24), s1(1, 24);
  scalar_table().segment_row_mean(s0.data().data(), single.data().data(),
                                  one.data(), 1, 24);
  best_table().segment_row_mean(s1.data().data(), single.data().data(),
                                one.data(), 1, 24);
  expect_bytes_equal(s0, s1, "segment_row_mean single");
}

TEST(KernelParity, SegmentRowMeanRejectsEmptySegmentsAtEveryLevel) {
  // The wrapper's precondition fires before dispatch, so the contract is
  // level-independent by construction — pin it anyway.
  LevelGuard guard;
  pg::Rng rng(23);
  const Matrix a = random_matrix(4, 8, rng);
  const std::vector<std::uint32_t> offsets = {0, 2, 2, 4};  // empty middle
  for (const SimdLevel level : {SimdLevel::kScalar, max_supported_level()}) {
    set_active_level(level);
    Matrix out(offsets.size() - 1, 8);
    EXPECT_THROW(segment_row_mean_into(out, a, offsets), pg::InternalError)
        << level_name(level);
  }
}

TEST(KernelParity, AddBiasRows) {
  pg::Rng rng(37);
  for (const std::size_t cols : {1u, 7u, 8u, 24u, 26u}) {
    const Matrix bias = random_matrix(1, cols, rng);
    Matrix y0 = random_matrix(5, cols, rng);
    Matrix y1 = y0;
    scalar_table().add_bias_rows(y0.data().data(), bias.data().data(), 5, cols);
    best_table().add_bias_rows(y1.data().data(), bias.data().data(), 5, cols);
    expect_bytes_equal(y0, y1, "add_bias_rows");
  }
}

TEST(KernelParity, ActivationsIncludingRemainderLanes) {
  pg::Rng rng(29);
  for (const std::size_t n : {1u, 3u, 8u, 15u, 32u, 37u}) {
    const Matrix x = random_matrix(1, n, rng, 0.3);  // zeros hit x > 0 edges
    const Matrix dy = random_matrix(1, n, rng);
    Matrix a0(1, n), a1(1, n);

    scalar_table().relu(a0.data().data(), x.data().data(), n);
    best_table().relu(a1.data().data(), x.data().data(), n);
    expect_bytes_equal(a0, a1, "relu");

    scalar_table().relu_backward(a0.data().data(), dy.data().data(),
                                 x.data().data(), n);
    best_table().relu_backward(a1.data().data(), dy.data().data(),
                               x.data().data(), n);
    expect_bytes_equal(a0, a1, "relu_backward");

    scalar_table().leaky_relu(a0.data().data(), x.data().data(), 0.2f, n);
    best_table().leaky_relu(a1.data().data(), x.data().data(), 0.2f, n);
    expect_bytes_equal(a0, a1, "leaky_relu");

    scalar_table().leaky_relu_grad(a0.data().data(), x.data().data(), 0.2f, n);
    best_table().leaky_relu_grad(a1.data().data(), x.data().data(), 0.2f, n);
    expect_bytes_equal(a0, a1, "leaky_relu_grad");
  }
}

TEST(KernelParity, AdamUpdateSequences) {
  pg::Rng rng(31);
  for (const double weight_decay : {0.0, 0.013}) {
    const std::size_t n = 37;  // remainder lanes on every vector width
    Matrix t0 = random_matrix(1, n, rng);
    Matrix m0(1, n), v0(1, n);
    Matrix t1 = t0, m1 = m0, v1 = v0;
    AdamStep step;
    step.weight_decay = weight_decay;
    for (int s = 1; s <= 3; ++s) {
      const Matrix g = random_matrix(1, n, rng);
      step.bias1 = 1.0 - std::pow(step.beta1, s);
      step.bias2 = 1.0 - std::pow(step.beta2, s);
      scalar_table().adam_update(t0.data().data(), g.data().data(),
                                 m0.data().data(), v0.data().data(), n, step);
      best_table().adam_update(t1.data().data(), g.data().data(),
                               m1.data().data(), v1.data().data(), n, step);
    }
    expect_bytes_equal(t0, t1, "adam theta");
    expect_bytes_equal(m0, m1, "adam m");
    expect_bytes_equal(v0, v1, "adam v");
  }
}

// ------------------------------------------------------- backward ---------
//
// The backward kernels are pinned to literal transcriptions of the scalar
// loops they replaced, at the scalar table and at every vector level.

/// Every supported level's table, scalar first.
std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2})
    if (level_supported(level)) levels.push_back(level);
  return levels;
}

/// Sorted unique row ids: every `stride`-th of [0, count * stride).
std::vector<std::uint32_t> strided_rows(std::size_t count, std::size_t stride) {
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < count; ++i)
    rows.push_back(static_cast<std::uint32_t>(i * stride + 1));
  return rows;
}

/// C = A * B^T the way Linear/RGAT dx used to be formed (rows == nullptr),
/// or the RGAT scatter C[rows[i]] += (A * B^T)[i].
void reference_t_b(const Matrix& a, const Matrix& b, Matrix& c,
                   const std::uint32_t* rows) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto dst = c.row_span(rows != nullptr ? rows[i] : i);
    auto arow = a.row_span(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      auto brow = b.row_span(j);
      double acc = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk)
        acc += static_cast<double>(arow[kk]) * brow[kk];
      if (rows != nullptr)
        dst[j] += static_cast<float>(acc);
      else
        dst[j] = static_cast<float>(acc);
    }
  }
}

TEST(KernelParity, MatmulTransposeBMatchesScalarChain) {
  pg::Rng rng(41);
  // n: the templated widths 8/24, the runtime width 10 and 45 (the node
  // encoding width: remainder lanes at every level); m = 0 is a no-op.
  for (const std::size_t n : {8u, 10u, 24u, 45u}) {
    for (const std::size_t k : {8u, 10u, 24u}) {
      for (const std::size_t m : {0u, 1u, 7u}) {
        Matrix a = random_matrix(m, k, rng, 0.3);
        if (m > 2)
          for (float& v : a.row_span(2)) v = 0.0f;  // an all-zero row
        const Matrix b = random_matrix(n, k, rng);
        Matrix expected(m, n, 0.5f);
        reference_t_b(a, b, expected, nullptr);
        for (const SimdLevel level : supported_levels()) {
          Matrix c(m, n, -0.5f);  // garbage: must be overwritten
          kernels_for(level).matmul_t_b(a.data().data(), b.data().data(),
                                        c.data().data(), m, k, n, nullptr);
          expect_bytes_equal(expected, c, level_name(level));
        }
      }
    }
  }
}

TEST(KernelParity, MatmulTransposeBScatterMatchesScalarChain) {
  pg::Rng rng(43);
  for (const std::size_t n : {8u, 10u, 24u, 45u}) {
    for (const std::size_t k : {8u, 10u, 24u}) {
      for (const std::size_t na : {0u, 3u, 11u}) {
        const std::vector<std::uint32_t> rows = strided_rows(na, 2);
        Matrix dg = random_matrix(na, k, rng, 0.2);
        if (na > 1)
          for (float& v : dg.row_span(1)) v = 0.0f;
        const Matrix w = random_matrix(n, k, rng);
        const Matrix base = random_matrix(2 * na + 3, n, rng);
        Matrix expected = base;
        reference_t_b(dg, w, expected, rows.data());
        for (const SimdLevel level : supported_levels()) {
          Matrix dx = base;
          kernels_for(level).matmul_t_b(dg.data().data(), w.data().data(),
                                        dx.data().data(), na, k, n,
                                        rows.data());
          expect_bytes_equal(expected, dx, level_name(level));
        }
      }
    }
  }
}

TEST(KernelParity, GatheredOuterProductMatchesScalarLoop) {
  pg::Rng rng(47);
  // m = in (45 / 24 / 10), n = out (8 / 10 / 24), k = active rows.
  for (const std::size_t in : {10u, 24u, 45u}) {
    for (const std::size_t out : {8u, 10u, 24u}) {
      for (const std::size_t na : {0u, 5u, 13u}) {
        const std::vector<std::uint32_t> nodes = strided_rows(na, 3);
        Matrix x = random_matrix(3 * na + 2, in, rng, 0.6);
        if (na > 2)
          for (float& v : x.row_span(nodes[2])) v = 0.0f;  // skipped whole
        const Matrix dg = random_matrix(na, out, rng);
        const Matrix base = random_matrix(in, out, rng);
        Matrix expected = base;
        for (std::size_t i = 0; i < na; ++i) {
          auto x_row = x.row_span(nodes[i]);
          auto dg_row = dg.row_span(i);
          for (std::size_t kk = 0; kk < in; ++kk) {
            const float aval = x_row[kk];
            if (aval == 0.0f) continue;
            auto dw_row = expected.row_span(kk);
            for (std::size_t j = 0; j < out; ++j)
              dw_row[j] += aval * dg_row[j];
          }
        }
        for (const SimdLevel level : supported_levels()) {
          Matrix dw = base;
          kernels_for(level).matmul_t_a_acc(x.data().data(), nodes.data(),
                                            dg.data().data(), dw.data().data(),
                                            in, na, out);
          expect_bytes_equal(expected, dw, level_name(level));
        }
      }
    }
  }
}

/// Output buffers of one relation's attention backward.
struct EdgeGrads {
  Matrix dscore, dg, ds_src, ds_dst, da_src, da_dst;
};

/// The RGAT attention backward as the scalar loop in RgatConv::backward
/// ran it before it moved into the kernel table.
void reference_edge_backward(const nn::RelationEdges& rel, const Matrix& alpha,
                             const Matrix& lrg, const Matrix& g,
                             const Matrix& dpre, const Matrix& a_src,
                             const Matrix& a_dst, EdgeGrads& o) {
  const std::size_t out = g.cols();
  for (std::size_t group = 0; group < rel.num_groups(); ++group) {
    const std::size_t lo = rel.group_offsets[group];
    const std::size_t hi = rel.group_offsets[group + 1];
    const std::uint32_t v_local = rel.group_dst[group];
    auto dpre_row = dpre.row_span(rel.nodes[v_local]);
    double weighted_sum = 0.0;
    for (std::size_t e = lo; e < hi; ++e) {
      const std::uint32_t src = rel.src_local[e];
      auto g_row = g.row_span(src);
      double acc = 0.0;
      for (std::size_t j = 0; j < out; ++j)
        acc += static_cast<double>(dpre_row[j]) * g_row[j];
      o.dscore(0, e) = rel.gate[e] * static_cast<float>(acc);
      weighted_sum += static_cast<double>(alpha(0, e)) * o.dscore(0, e);
      const float scale = alpha(0, e) * rel.gate[e];
      auto dg_row = o.dg.row_span(src);
      for (std::size_t j = 0; j < out; ++j) dg_row[j] += scale * dpre_row[j];
    }
    for (std::size_t e = lo; e < hi; ++e) {
      const float dlogit =
          alpha(0, e) * (o.dscore(0, e) - static_cast<float>(weighted_sum));
      const float draw = dlogit * lrg(0, e);
      o.ds_src(0, rel.src_local[e]) += draw;
      o.ds_dst(0, v_local) += draw;
    }
  }
  for (std::size_t i = 0; i < rel.num_active_nodes(); ++i) {
    auto dg_row = o.dg.row_span(i);
    auto g_row = g.row_span(i);
    if (o.ds_src(0, i) != 0.0f)
      for (std::size_t j = 0; j < out; ++j) {
        dg_row[j] += o.ds_src(0, i) * a_src(0, j);
        o.da_src(0, j) += o.ds_src(0, i) * g_row[j];
      }
    if (o.ds_dst(0, i) != 0.0f)
      for (std::size_t j = 0; j < out; ++j) {
        dg_row[j] += o.ds_dst(0, i) * a_dst(0, j);
        o.da_dst(0, j) += o.ds_dst(0, i) * g_row[j];
      }
  }
}

TEST(KernelParity, RgatEdgeBackwardMatchesScalarLoop) {
  pg::Rng rng(53);
  for (const std::size_t out : {8u, 10u, 24u}) {
    // Edge counts: empty, a lone edge, and fan-ins of up to ~9 edges per
    // destination (4-edge blocks plus remainders), duplicates included.
    for (const std::size_t m : {0u, 1u, 40u}) {
      const std::size_t n = 12;
      std::vector<nn::RelEdge> edges;
      for (std::size_t e = 0; e < m; ++e)
        edges.push_back({static_cast<std::uint32_t>(rng.uniform_int(0, 11)),
                         static_cast<std::uint32_t>(rng.uniform_int(0, 4)),
                         static_cast<float>(rng.uniform(0.1, 1.0))});
      const nn::RelationEdges rel = nn::RelationEdges::from_edges(edges);
      const std::size_t na = rel.num_active_nodes();
      const Matrix alpha = random_matrix(1, m, rng);
      Matrix lrg(1, m);
      for (float& v : lrg.data()) v = rng.uniform() < 0.5 ? 1.0f : 0.2f;
      const Matrix g = random_matrix(na, out, rng, 0.2);
      Matrix dpre = random_matrix(n, out, rng);
      for (float& v : dpre.row_span(3)) v = 0.0f;  // a zero dy row
      const Matrix a_src = random_matrix(1, out, rng);
      const Matrix a_dst = random_matrix(1, out, rng);
      const EdgeGrads base{Matrix(1, m), random_matrix(na, out, rng),
                           Matrix(1, na), Matrix(1, na),
                           random_matrix(1, out, rng),
                           random_matrix(1, out, rng)};
      EdgeGrads expected = base;
      reference_edge_backward(rel, alpha, lrg, g, dpre, a_src, a_dst,
                              expected);
      for (const SimdLevel level : supported_levels()) {
        EdgeGrads got = base;
        RgatEdgeBackward args;
        args.group_offsets = rel.group_offsets.data();
        args.group_dst = rel.group_dst.data();
        args.num_groups = rel.num_groups();
        args.nodes = rel.nodes.data();
        args.num_active = na;
        args.src_local = rel.src_local.data();
        args.gates = rel.gate.data();
        args.alpha = alpha.data().data();
        args.lrg = lrg.data().data();
        args.g = g.data().data();
        args.dpre = dpre.data().data();
        args.a_src = a_src.data().data();
        args.a_dst = a_dst.data().data();
        args.dscore = got.dscore.data().data();
        args.dg = got.dg.data().data();
        args.ds_src = got.ds_src.data().data();
        args.ds_dst = got.ds_dst.data().data();
        args.da_src = got.da_src.data().data();
        args.da_dst = got.da_dst.data().data();
        args.out = out;
        kernels_for(level).rgat_edge_backward(args);
        const char* name = level_name(level);
        expect_bytes_equal(expected.dscore, got.dscore, name);
        expect_bytes_equal(expected.dg, got.dg, name);
        expect_bytes_equal(expected.ds_src, got.ds_src, name);
        expect_bytes_equal(expected.ds_dst, got.ds_dst, name);
        expect_bytes_equal(expected.da_src, got.da_src, name);
        expect_bytes_equal(expected.da_dst, got.da_dst, name);
      }
    }
  }
}

// ------------------------------------------------------ end-to-end ---------

graph::ProgramGraph small_graph() {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        for (int j = 0; j < 8; j++) {
          double x = 1.0;
        }
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  return graph::build_graph(r.root(), {});
}

/// Predictions + full gradient buffers under one dispatch level.
std::pair<std::vector<double>, std::vector<Matrix>> run_model_pass(
    SimdLevel level, std::size_t hidden) {
  LevelGuard guard;
  set_active_level(level);
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = hidden, .seed = 3});
  const auto g = small_graph();
  std::vector<Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  std::vector<double> preds;
  Workspace ws;
  for (int i = 0; i < 4; ++i) {
    const double t = 0.2 * (i + 1);
    const auto enc = model::encode_graph(g, 40.0 + 100.0 * t);
    const std::array<float, 2> aux = {static_cast<float>(t),
                                      static_cast<float>(1.0 - t)};
    preds.push_back(m.predict(enc, aux, ws));
    preds.push_back(
        m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws));
  }
  return {std::move(preds), std::move(grads)};
}

TEST(EndToEndParity, ForwardAndBackwardBitwiseAcrossLevels) {
  // hidden 8/24 exercise the templated widths, 10 the runtime-width path.
  for (const std::size_t hidden : {8u, 10u, 24u}) {
    const auto [scalar_preds, scalar_grads] =
        run_model_pass(SimdLevel::kScalar, hidden);
    const auto [simd_preds, simd_grads] =
        run_model_pass(max_supported_level(), hidden);
    EXPECT_EQ(scalar_preds, simd_preds) << "hidden " << hidden;
    ASSERT_EQ(scalar_grads.size(), simd_grads.size());
    for (std::size_t p = 0; p < scalar_grads.size(); ++p)
      expect_bytes_equal(scalar_grads[p], simd_grads[p], "gradient");
  }
}

/// Trains a small model under `level`; returns the flattened parameters.
std::vector<float> train_and_flatten(SimdLevel level) {
  LevelGuard guard;
  set_active_level(level);
  model::SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 10; ++i) {
    model::TrainingSample s;
    const double t = static_cast<double>(i) / 10.0;
    s.graph = model::encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    (i % 3 == 0 ? set.validation : set.train).push_back(std::move(s));
  }
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 21});
  model::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;
  (void)model::train_model(m, set, config);
  std::vector<float> flat;
  for (const auto* p : std::as_const(m).parameters())
    flat.insert(flat.end(), p->data().begin(), p->data().end());
  return flat;
}

TEST(EndToEndParity, TrainedCheckpointBitwiseAcrossLevels) {
  const std::vector<float> scalar_params =
      train_and_flatten(SimdLevel::kScalar);
  const std::vector<float> simd_params =
      train_and_flatten(max_supported_level());
  ASSERT_EQ(scalar_params.size(), simd_params.size());
  EXPECT_EQ(std::memcmp(scalar_params.data(), simd_params.data(),
                        scalar_params.size() * sizeof(float)),
            0);
}

/// FNV-1a over `n` bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The golden .psample graphs, in file-name order.
std::vector<model::TrainingSample> golden_samples() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(PG_GOLDEN_DIR))
    if (entry.path().extension() == ".psample")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  std::vector<model::TrainingSample> samples;
  for (const std::string& path : paths)
    samples.push_back(io::read_sample_file(path));
  return samples;
}

/// One fused forward+backward over the golden graphs packed into a single
/// GraphBatch under `level`: FNV-1a over the loss, every prediction and
/// every gradient byte.
std::uint64_t golden_batch_gradient_hash(SimdLevel level, std::size_t hidden) {
  LevelGuard guard;
  set_active_level(level);
  const std::vector<model::TrainingSample> samples = golden_samples();
  std::vector<const model::EncodedGraph*> graphs;
  Matrix aux(samples.size(), 2);
  std::vector<double> targets;
  for (std::size_t b = 0; b < samples.size(); ++b) {
    graphs.push_back(&samples[b].graph);
    aux(b, 0) = samples[b].aux[0];
    aux(b, 1) = samples[b].aux[1];
    targets.push_back(samples[b].target_scaled);
  }
  model::GraphBatch batch;
  batch.pack(graphs);
  model::ParaGraphModel m(
      model::ModelConfig{.hidden_dim = hidden, .seed = 1234});
  std::vector<Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  Workspace ws;
  const double loss =
      m.accumulate_gradients_batch(batch, aux, targets, 0.25, grads, ws);
  std::vector<double> preds(samples.size());
  m.predict_batch(batch, aux, preds, ws);
  std::uint64_t h = fnv1a(&loss, sizeof loss);
  h = fnv1a(preds.data(), preds.size() * sizeof(double), h);
  for (const Matrix& g : grads) h = fnv1a(g.data().data(), g.size() * 4, h);
  return h;
}

TEST(EndToEndParity, GoldenBatchGradientHashPinnedAtEveryLevel) {
  // The constants were recorded before the backward moved into the kernel
  // table; any change to a gradient bit at any level changes them. hidden
  // 24 runs the templated widths, 10 the runtime-width paths.
  ASSERT_EQ(golden_samples().size(), 4u);
  const std::array<std::pair<std::size_t, std::uint64_t>, 2> pins = {{
      {24, 0x5f1e1b85fd0d0b27ull},
      {10, 0x9781eddd34bb91eeull},
  }};
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (!level_supported(level)) continue;
    for (const auto& [hidden, expected] : pins)
      EXPECT_EQ(golden_batch_gradient_hash(level, hidden), expected)
          << level_name(level) << " hidden " << hidden << " got 0x" << std::hex
          << golden_batch_gradient_hash(level, hidden);
  }
}

// --------------------------------------------------- dispatch probe --------

TEST(DispatchProbe, UnknownNamesFallBackCleanly) {
  EXPECT_EQ(level_from_name("avx512"), std::nullopt);
  EXPECT_EQ(level_from_name(""), std::nullopt);
  EXPECT_EQ(level_from_name("SCALAR"), std::nullopt);  // names are exact
  // Unknown env/CLI value -> the probe's own choice, never a crash.
  EXPECT_EQ(resolve_level("bogus", max_supported_level()),
            max_supported_level());
  EXPECT_EQ(resolve_level("", SimdLevel::kScalar), SimdLevel::kScalar);
}

TEST(DispatchProbe, KnownLevelsResolveAndClamp) {
  EXPECT_EQ(resolve_level("scalar", max_supported_level()),
            SimdLevel::kScalar);
  // A known-but-unsupported level clamps down to the best supported one;
  // a supported one resolves to itself.
  const SimdLevel avx2 = resolve_level("avx2", SimdLevel::kScalar);
  EXPECT_LE(static_cast<int>(avx2), static_cast<int>(max_supported_level()));
  EXPECT_TRUE(level_supported(avx2));
  EXPECT_TRUE(level_supported(SimdLevel::kScalar));
}

TEST(DispatchProbe, SetActiveLevelClampsToSupported) {
  LevelGuard guard;
  set_active_level(SimdLevel::kAvx2);  // may not be supported here
  EXPECT_TRUE(level_supported(active_level()));
  set_active_level(SimdLevel::kScalar);
  EXPECT_EQ(active_level(), SimdLevel::kScalar);
  // The scalar and best tables are distinct objects unless scalar IS best.
  if (max_supported_level() != SimdLevel::kScalar) {
    EXPECT_NE(&scalar_table(), &best_table());
  }
}

TEST(DispatchProbe, LevelNamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    const auto parsed = level_from_name(level_name(level));
    ASSERT_TRUE(parsed.has_value()) << level_name(level);
    EXPECT_EQ(*parsed, level) << level_name(level);
  }
}

}  // namespace
}  // namespace pg::tensor::simd

// Per-kernel microbenchmarks for the SIMD dispatch layer: every dispatched
// kernel timed under PARAGRAPH_SIMD=scalar and under the best level this
// machine supports (median of 3 timed repetitions each), plus the
// substrate-level numbers (warm single-graph predict, engine batch
// throughput, forward vs forward+backward per graph on a packed batch of
// 32) under both levels. Emits BENCH_kernels.json (`--json <path>`
// overrides) so the per-kernel scalar-vs-SIMD ratios are recorded across
// PRs, not asserted. Plain main(): no google-benchmark dependency.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dataset/generator.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/paragraph_model.hpp"
#include "nn/relational_graph.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace pg;
using tensor::Matrix;
using tensor::simd::KernelTable;

/// Mean ns/call over `iters` calls after one untimed warm-up.
template <typename Fn>
double mean_ns(std::size_t iters, Fn&& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                 .count()) /
         static_cast<double>(iters);
}

/// Median of 3 repetitions of mean_ns.
template <typename Fn>
double median_ns(std::size_t iters, Fn&& fn) {
  std::array<double, 3> runs = {mean_ns(iters, fn), mean_ns(iters, fn),
                                mean_ns(iters, fn)};
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

Matrix random_matrix(std::size_t rows, std::size_t cols, pg::Rng& rng) {
  Matrix m(rows, cols);
  tensor::uniform_init(m, rng, -1.0f, 1.0f);
  return m;
}

/// Adds <name>_ns_scalar / _ns_simd / _speedup (and optional GFLOP/s from
/// `flops` per call) for one kernel invocation timed under both tables.
template <typename Fn>
void report_kernel(bench::JsonReport& report, const std::string& name,
                   std::size_t iters, double flops, Fn&& run) {
  const KernelTable& scalar =
      tensor::simd::kernels_for(tensor::simd::SimdLevel::kScalar);
  const KernelTable& best =
      tensor::simd::kernels_for(tensor::simd::max_supported_level());
  const double scalar_ns = median_ns(iters, [&] { run(scalar); });
  const double simd_ns = median_ns(iters, [&] { run(best); });
  report.add(name + "_ns_scalar", scalar_ns);
  report.add(name + "_ns_simd", simd_ns);
  report.add(name + "_speedup", scalar_ns / simd_ns);
  if (flops > 0.0) {
    report.add(name + "_gflops_scalar", flops / scalar_ns);
    report.add(name + "_gflops_simd", flops / simd_ns);
  }
}

const model::EncodedGraph& mm_encoded() {
  static const model::EncodedGraph enc = [] {
    const auto& suite = dataset::benchmark_suite();
    std::string source;
    for (const auto& spec : suite)
      if (spec.kernel == "matmul")
        source = dataset::instantiate_source(
            spec, dataset::Variant::kGpuCollapseMem, spec.default_sizes[3],
            256, 256);
    const auto parsed = frontend::parse_source(source);
    const auto g = graph::build_graph(parsed.root(), {});
    return model::encode_graph(g, g.max_child_weight());
  }();
  return enc;
}

/// 32 encoded graphs of the benchmark suite (CPU and GPU variants at the
/// first and last default sizes): the packed-batch shape the trainer runs.
const std::vector<model::EncodedGraph>& suite_batch32() {
  static const std::vector<model::EncodedGraph> graphs = [] {
    std::vector<model::EncodedGraph> out;
    for (const auto& spec : dataset::benchmark_suite()) {
      for (const dataset::Variant variant :
           {dataset::Variant::kCpu, dataset::Variant::kGpuMem}) {
        for (const auto* sizes :
             {&spec.default_sizes.front(), &spec.default_sizes.back()}) {
          if (out.size() == 32) return out;
          const auto parsed = frontend::parse_source(
              dataset::instantiate_source(spec, variant, *sizes, 80, 128));
          const auto g = graph::build_graph(parsed.root(), {});
          out.push_back(model::encode_graph(g, g.max_child_weight()));
        }
      }
    }
    return out;
  }();
  return graphs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  for (int a = 1; a + 1 < argc; ++a)
    if (std::strcmp(argv[a], "--json") == 0) json_path = argv[a + 1];

  pg::Rng rng(42);
  bench::JsonReport report("micro_kernels");
  report.add("simd_max_level",
             tensor::simd::level_name(tensor::simd::max_supported_level()));
  report.add("nproc",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));

  // matmul at the model's conv shape (99 nodes, feature 32 -> hidden 24)
  // and at a square generic-width shape.
  {
    const Matrix a = random_matrix(99, 32, rng);
    const Matrix b = random_matrix(32, 24, rng);
    Matrix c(99, 24);
    report_kernel(report, "matmul_99x32x24", 20000, 2.0 * 99 * 32 * 24,
                  [&](const KernelTable& k) {
                    k.matmul(a.data().data(), b.data().data(),
                             c.data().data(), 99, 32, 24);
                  });
  }
  {
    const Matrix a = random_matrix(192, 192, rng);
    const Matrix b = random_matrix(192, 192, rng);
    Matrix c(192, 192);
    report_kernel(report, "matmul_192cubed", 300, 2.0 * 192 * 192 * 192,
                  [&](const KernelTable& k) {
                    k.matmul(a.data().data(), b.data().data(),
                             c.data().data(), 192, 192, 192);
                  });
  }
  {
    const Matrix a = random_matrix(99, 24, rng);
    const Matrix b = random_matrix(99, 24, rng);
    Matrix c(24, 24);
    report_kernel(report, "matmul_t_a_acc_24", 20000, 2.0 * 99 * 24 * 24,
                  [&](const KernelTable& k) {
                    k.matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                     c.data().data(), 24, 99, 24);
                  });
  }
  // The backward kernels at the conv shapes (99 nodes, hidden 24, the
  // 45-wide node encoding as conv1's input).
  {
    // dx = dpre * W_self^T (RGAT self path, Linear dx).
    const Matrix a = random_matrix(99, 24, rng);
    const Matrix b = random_matrix(24, 24, rng);
    Matrix c(99, 24);
    report_kernel(report, "matmul_t_b_99x24x24", 20000, 2.0 * 99 * 24 * 24,
                  [&](const KernelTable& k) {
                    k.matmul_t_b(a.data().data(), b.data().data(),
                                 c.data().data(), 99, 24, 24, nullptr);
                  });
  }
  {
    // dx[nodes[i]] += dg[i] * W_r^T over a relation touching 60 of 99 rows,
    // and dW_r += gather(x)^T dg over the same rows with a one-hot input.
    std::vector<std::uint32_t> nodes;
    for (std::uint32_t i = 0; i < 60; ++i) nodes.push_back(i + i / 2);
    const Matrix dg = random_matrix(60, 24, rng);
    const Matrix w = random_matrix(24, 24, rng);
    Matrix dx(99, 24);
    report_kernel(report, "matmul_t_b_scatter_60x24x24", 20000,
                  2.0 * 60 * 24 * 24, [&](const KernelTable& k) {
                    k.matmul_t_b(dg.data().data(), w.data().data(),
                                 dx.data().data(), 60, 24, 24, nodes.data());
                  });
    Matrix x(99, 45);
    for (std::size_t i = 0; i < 99; ++i) {
      x(i, i % 44) = 1.0f;
      x(i, 44) = 0.5f;
    }
    Matrix dw(45, 24);
    report_kernel(report, "matmul_t_a_acc_gather_60x45x24", 20000,
                  2.0 * 60 * 2 * 24, [&](const KernelTable& k) {
                    k.matmul_t_a_acc(x.data().data(), nodes.data(),
                                     dg.data().data(), dw.data().data(), 45,
                                     60, 24);
                  });
  }
  {
    // Attention backward over one relation: 99 nodes, 240 edges.
    std::vector<nn::RelEdge> edges;
    for (std::uint32_t e = 0; e < 240; ++e)
      edges.push_back({(e * 37) % 99, (e * 11) % 97, 0.5f});
    const nn::RelationEdges rel = nn::RelationEdges::from_edges(edges);
    const std::size_t na = rel.num_active_nodes();
    const Matrix alpha = random_matrix(1, 240, rng);
    const Matrix lrg = random_matrix(1, 240, rng);
    const Matrix g = random_matrix(na, 24, rng);
    const Matrix dpre = random_matrix(99, 24, rng);
    const Matrix a_src = random_matrix(1, 24, rng);
    const Matrix a_dst = random_matrix(1, 24, rng);
    Matrix dscore(1, 240), dg(na, 24), ds_src(1, na), ds_dst(1, na);
    Matrix da_src(1, 24), da_dst(1, 24);
    tensor::simd::RgatEdgeBackward args;
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
    args.dscore = dscore.data().data();
    args.dg = dg.data().data();
    args.ds_src = ds_src.data().data();
    args.ds_dst = ds_dst.data().data();
    args.da_src = da_src.data().data();
    args.da_dst = da_dst.data().data();
    args.out = 24;
    report_kernel(report, "rgat_edge_backward_240e_24", 20000, 0.0,
                  [&](const KernelTable& k) { k.rgat_edge_backward(args); });
  }
  {
    // 64 segments of 99 rows: the fused-batch read-out shape.
    const Matrix a = random_matrix(64 * 99, 24, rng);
    Matrix out(64, 24);
    std::vector<std::uint32_t> offsets(65);
    for (std::size_t s = 0; s < offsets.size(); ++s)
      offsets[s] = static_cast<std::uint32_t>(99 * s);
    report_kernel(report, "segment_row_mean_64x99x24", 5000,
                  static_cast<double>(64 * 99 * 24),
                  [&](const KernelTable& k) {
                    k.segment_row_mean(out.data().data(), a.data().data(),
                                       offsets.data(), 64, 24);
                  });
  }
  {
    const Matrix bias = random_matrix(1, 24, rng);
    Matrix y = random_matrix(99, 24, rng);
    report_kernel(report, "add_bias_rows_99x24", 50000,
                  static_cast<double>(99 * 24), [&](const KernelTable& k) {
                    k.add_bias_rows(y.data().data(), bias.data().data(), 99,
                                    24);
                  });
  }
  {
    const Matrix x = random_matrix(1, 99 * 24, rng);
    Matrix y(1, 99 * 24);
    report_kernel(report, "relu_2376", 50000, 0.0, [&](const KernelTable& k) {
      k.relu(y.data().data(), x.data().data(), 99 * 24);
    });
    report_kernel(report, "leaky_relu_grad_2376", 50000, 0.0,
                  [&](const KernelTable& k) {
                    k.leaky_relu_grad(y.data().data(), x.data().data(), 0.2f,
                                      99 * 24);
                  });
  }
  {
    const std::size_t n = 24 * 24;
    Matrix theta = random_matrix(1, n, rng);
    const Matrix g = random_matrix(1, n, rng);
    Matrix m(1, n), v(1, n);
    tensor::simd::AdamStep step;
    step.bias1 = 0.1;
    step.bias2 = 0.001;
    report_kernel(report, "adam_update_576", 20000, 0.0,
                  [&](const KernelTable& k) {
                    k.adam_update(theta.data().data(), g.data().data(),
                                  m.data().data(), v.data().data(), n, step);
                  });
  }

  // Substrate numbers under both levels: warm single-graph predict and the
  // 256-graph engine batch (the BENCH_substrate.json methodology).
  {
    const auto& enc = mm_encoded();
    model::ModelConfig config;
    config.hidden_dim = 24;
    model::ParaGraphModel m(config);
    const std::array<float, 2> aux = {0.5f, 0.5f};
    constexpr std::size_t kBatch = 256;
    std::vector<model::EncodedGraph> graphs(kBatch, enc);
    std::vector<std::array<float, 2>> batch_aux(kBatch, aux);
    std::vector<double> out(kBatch);
    volatile double sink = 0.0;

    const auto saved = tensor::simd::active_level();
    for (const auto& [level, suffix] :
         {std::pair{tensor::simd::SimdLevel::kScalar, "_scalar"},
          std::pair{tensor::simd::max_supported_level(), "_simd"}}) {
      tensor::simd::set_active_level(level);
      tensor::Workspace warm;
      report.add(std::string("predict_warm_ns") + suffix,
                 median_ns(2000, [&] { sink = sink + m.predict(enc, aux, warm); }));
      model::InferenceEngine engine(m);
      const double batch_ns =
          median_ns(32, [&] { engine.predict_batch(graphs, batch_aux, out); });
      report.add(std::string("engine_batch256_graphs_per_s") + suffix,
                 1e9 * kBatch / batch_ns);
    }
    tensor::simd::set_active_level(saved);
  }

  // Forward vs forward+backward per graph on one packed batch of 32 suite
  // graphs: the trainer's unit of work, split into its two halves.
  {
    const auto& graphs = suite_batch32();
    model::GraphBatch batch;
    batch.pack(graphs);
    Matrix aux(graphs.size(), 2, 0.5f);
    const std::vector<double> targets(graphs.size(), 0.5);
    std::vector<double> out(graphs.size());
    model::ParaGraphModel m(model::ModelConfig{});
    std::vector<Matrix> grads;
    for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
    const double per_graph = 1e-3 / static_cast<double>(graphs.size());
    const auto saved = tensor::simd::active_level();
    for (const auto& [level, suffix] :
         {std::pair{tensor::simd::SimdLevel::kScalar, "_scalar"},
          std::pair{tensor::simd::max_supported_level(), "_simd"}}) {
      tensor::simd::set_active_level(level);
      tensor::Workspace ws;
      report.add(std::string("batch32_fwd_us_per_graph") + suffix,
                 per_graph * median_ns(50, [&] {
                   m.predict_batch(batch, aux, out, ws);
                 }));
      report.add(std::string("batch32_fwd_bwd_us_per_graph") + suffix,
                 per_graph * median_ns(50, [&] {
                   (void)m.accumulate_gradients_batch(batch, aux, targets,
                                                      1.0, grads, ws);
                 }));
    }
    tensor::simd::set_active_level(saved);
  }

  report.write(json_path);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

// Thread-scaling bench for the fused InferenceEngine: sweeps thread counts
// (1..pg::thread_count()) x graph-size skew (uniform | zipf | one_giant)
// over synthetic encoded graphs, and writes BENCH_scaling.json (flags:
// --json PATH, --threads N to cap the sweep, --emit-fixture for the quick
// CI smoke that still gates on parity). PARAGRAPH_SCALE=smoke shrinks
// batches and iteration counts.
//
// Each (mix, threads) throughput is the median over `reps` timed rounds of
// `iters` predict_batch calls, with the min and max written beside it. The
// rounds visit the thread counts in turn (t = 1..N, then again), so a
// drift in host speed over the run lands on every thread count alike
// instead of on whichever configuration ran during it.
//
// Every configuration's predictions are compared bitwise against the
// 1-thread reference for its mix — the bench doubles as an end-to-end
// determinism gate across thread counts (the unit-level version lives in
// tests/schedule_test.cpp). Any mismatch makes the bench exit non-zero.
//
// Headline derived metrics:
//   * uniform_efficiency_at_cores — batch-256 throughput at the machine's
//     core count divided by (cores x 1-thread throughput); 1.0 = linear.
//   * one_giant_speedup — 1-thread time / best time for a batch dominated
//     by a single ~10k-node graph, i.e. what intra-batch parallelism buys
//     where chunk fan-out alone cannot help.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "model/schedule.hpp"
#include "nn/relational_graph.hpp"
#include "support/parallel.hpp"

namespace {

using pg::model::EncodedGraph;
using pg::model::InferenceEngine;
using pg::model::ModelConfig;
using pg::model::ParaGraphModel;

/// Deterministic 64-bit mix (splitmix64) — the bench must produce the same
/// graphs on every run and machine.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A synthetic encoded graph: one-hot node features plus literal column,
/// and per-relation edges with realistic shape — a tree-like "child"
/// relation covering every node, a sequential chain, and sparse random
/// relations — so the cost model sees corpus-like node/edge ratios.
EncodedGraph make_graph(std::size_t nodes, std::uint64_t seed) {
  EncodedGraph g;
  const std::size_t feat = pg::model::kNodeFeatureDim;
  g.features = pg::tensor::Matrix(nodes, feat);
  std::uint64_t rng = seed;
  for (std::size_t i = 0; i < nodes; ++i) {
    auto row = g.features.row_span(i);
    row[mix64(rng) % (feat - 1)] = 1.0f;
    row[feat - 1] = static_cast<float>((mix64(rng) % 7)) * 0.25f;
  }

  const std::size_t num_relations = ModelConfig{}.num_relations;
  g.relations.num_nodes = nodes;
  g.relations.relations.resize(num_relations);
  std::vector<pg::nn::RelEdge> edges;
  for (std::size_t r = 0; r < num_relations; ++r) {
    edges.clear();
    if (r == 0) {
      // Tree: every node but the root points at a parent (gated).
      for (std::uint32_t i = 1; i < nodes; ++i)
        edges.push_back({i, static_cast<std::uint32_t>(i / 2),
                         0.25f + 0.5f * static_cast<float>(mix64(rng) % 3)});
    } else if (r == 1) {
      // Sequential chain.
      for (std::uint32_t i = 0; i + 1 < nodes; ++i)
        edges.push_back({i, i + 1, 1.0f});
    } else {
      // Sparse random relation touching ~a quarter of the nodes.
      const std::size_t count = nodes / 4;
      for (std::size_t e = 0; e < count; ++e) {
        const auto src = static_cast<std::uint32_t>(mix64(rng) % nodes);
        const auto dst = static_cast<std::uint32_t>(mix64(rng) % nodes);
        edges.push_back({src, dst, 1.0f});
      }
    }
    g.relations.relations[r] = pg::nn::RelationEdges::from_edges(edges);
  }
  return g;
}

struct Mix {
  std::string name;
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  std::uint64_t total_cost = 0;
};

Mix make_mix(const std::string& name, const std::vector<std::size_t>& sizes) {
  Mix mix;
  mix.name = name;
  std::uint64_t rng = 0x5ca1ab1e;
  mix.graphs.reserve(sizes.size());
  mix.aux.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    mix.graphs.push_back(make_graph(sizes[i], mix64(rng)));
    const float t =
        static_cast<float>(i + 1) / static_cast<float>(sizes.size());
    mix.aux.push_back({t, 1.0f - t});
    mix.total_cost += pg::model::schedule::graph_cost(mix.graphs.back());
  }
  return mix;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* option_value(int argc, char** argv, const char* flag) {
  for (int a = 1; a + 1 < argc; ++a)
    if (std::strcmp(argv[a], flag) == 0) return argv[a + 1];
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int a = 1; a < argc; ++a)
    if (std::strcmp(argv[a], flag) == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = pg::run_scale_from_env() == pg::RunScale::kSmoke ||
                     has_flag(argc, argv, "--emit-fixture");
  const std::string json_path = pg::bench::json_path_from_args(argc, argv);

  int max_threads = pg::thread_count();
  if (const char* cap = option_value(argc, argv, "--threads"))
    max_threads = std::max(1, std::min(max_threads, std::atoi(cap)));

  // Batch shapes. The three mixes stress different scheduler behaviours:
  // uniform (chunk fan-out), zipf (cost balancing under skew), one_giant
  // (intra-batch parallelism — chunking alone cannot split one graph).
  const std::size_t batch = smoke ? 64 : 256;
  const std::size_t uniform_nodes = 99;
  const std::size_t giant_nodes = smoke ? 4096 : 10000;
  const std::size_t small_nodes = 50;
  const int reps = smoke ? 1 : 15;
  const int iters = smoke ? 1 : 5;

  std::vector<Mix> mixes;
  {
    std::vector<std::size_t> uniform(batch, uniform_nodes);
    mixes.push_back(make_mix("uniform", uniform));

    std::vector<std::size_t> zipf;
    const std::size_t zipf_max = smoke ? 1000 : 2000;
    for (std::size_t i = 0; i < batch; ++i)
      zipf.push_back(std::max<std::size_t>(30, zipf_max / (i + 1)));
    mixes.push_back(make_mix("zipf", zipf));

    std::vector<std::size_t> giant(batch, small_nodes);
    giant[0] = giant_nodes;
    mixes.push_back(make_mix("one_giant", giant));
  }

  ParaGraphModel model(ModelConfig{});
  pg::bench::JsonReport report("bench_thread_scaling");
  report.add("scale", smoke ? "smoke" : "default");
  report.add("machine_threads", static_cast<std::size_t>(max_threads));
  report.add("nproc",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  report.add("reps", reps);
  report.add("iters", iters);
  report.add("batch", batch);
  report.add("giant_nodes", giant_nodes);

  std::printf("=== thread scaling: fused engine ===\n");
  std::printf("threads 1..%d, %zu-graph batches\n\n", max_threads, batch);

  // Per-mix bitwise reference: 1 thread.
  std::vector<std::vector<double>> reference(mixes.size());
  bool parity_ok = true;

  // tput[mix][threads] in graphs/s (median of reps).
  std::vector<std::vector<double>> tput(
      mixes.size(),
      std::vector<double>(static_cast<std::size_t>(max_threads) + 1, 0.0));
  pg::model::ScheduleStats giant_stats{};

  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const Mix& mix = mixes[m];
    std::vector<double> out(mix.graphs.size());
    // One engine per thread count, warmed (and parity-checked) up front.
    std::deque<InferenceEngine> engines;
    for (int t = 1; t <= max_threads; ++t) {
      pg::set_thread_count(t);
      engines.emplace_back(model);
      engines.back().predict_batch(mix.graphs, mix.aux, out);
      if (t == 1) {
        reference[m] = out;
      } else if (out != reference[m]) {
        parity_ok = false;
        std::fprintf(stderr, "PARITY MISMATCH: mix=%s threads=%d\n",
                     mix.name.c_str(), t);
      }
    }

    // times[t - 1] holds one seconds-per-call sample per round.
    std::vector<std::vector<double>> times(
        static_cast<std::size_t>(max_threads));
    for (int r = 0; r < reps; ++r) {
      for (int t = 1; t <= max_threads; ++t) {
        pg::set_thread_count(t);
        InferenceEngine& engine = engines[static_cast<std::size_t>(t - 1)];
        const double t0 = now_s();
        for (int it = 0; it < iters; ++it)
          engine.predict_batch(mix.graphs, mix.aux, out);
        times[static_cast<std::size_t>(t - 1)].push_back((now_s() - t0) /
                                                         iters);
      }
    }
    if (m == 2) giant_stats = engines.back().schedule_stats();

    const auto graphs = static_cast<double>(mix.graphs.size());
    for (int t = 1; t <= max_threads; ++t) {
      std::vector<double>& samples = times[static_cast<std::size_t>(t - 1)];
      std::sort(samples.begin(), samples.end());
      const auto ti = static_cast<std::size_t>(t);
      tput[m][ti] = graphs / samples[samples.size() / 2];
      const double lo = graphs / samples.back();
      const double hi = graphs / samples.front();
      const std::string key = mix.name + "_t" + std::to_string(t);
      report.add(key + "_graphs_per_s", tput[m][ti]);
      report.add(key + "_graphs_per_s_min", lo);
      report.add(key + "_graphs_per_s_max", hi);
      std::printf("%-10s t=%d: %10.1f graphs/s  [%.1f, %.1f]\n",
                  mix.name.c_str(), t, tput[m][ti], lo, hi);
    }
  }
  pg::set_thread_count(max_threads);

  const auto tmax = static_cast<std::size_t>(max_threads);
  const double uniform_eff =
      tput[0][tmax] / (static_cast<double>(max_threads) * tput[0][1]);
  const double giant_speedup = tput[2][tmax] / tput[2][1];
  report.add("uniform_efficiency_at_cores", uniform_eff);
  report.add("one_giant_speedup", giant_speedup);
  report.add("giant_chunks", giant_stats.chunks);
  report.add("giant_intra_chunks", giant_stats.intra_chunks);
  report.add("giant_rows_per_chunk",
             giant_stats.chunks > 0
                 ? static_cast<double>(giant_stats.rows) /
                       static_cast<double>(giant_stats.chunks)
                 : 0.0);
  report.add("giant_last_imbalance", giant_stats.last_imbalance);
  report.add("parity_ok", parity_ok ? 1 : 0);

  std::printf("\nuniform efficiency at %d threads: %.3f\n", max_threads,
              uniform_eff);
  std::printf("one-giant speedup at %d threads:  %.3fx\n", max_threads,
              giant_speedup);

  if (!json_path.empty() && !report.write(json_path)) return 1;
  if (!parity_ok) {
    std::fprintf(stderr,
                 "bench_thread_scaling: bitwise parity FAILED across thread "
                 "counts\n");
    return 1;
  }
  std::printf("parity: all configurations bitwise-equal to 1-thread "
              "reference\n");
  return 0;
}

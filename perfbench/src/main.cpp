// pgperf: runs one benchmark workload and prints its result.
//
//   pgperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --run-dir <dir> [--env-json <json>]
//
// Prints a human-readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Writes
// results.json (and, traced, spans.csv) into --run-dir. Exit codes: 0 ok,
// 1 an output check failed, 3 the trace did not cover enough of the wall
// time (result still printed); 2 bad usage or a crash (no result).
#include <omp.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "tensor/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const std::vector<Metric> kEndToEnd = {
    {"setup_s", 0, "s"},
    {"peak_rss_mb", 0, "MiB"},
    {"p50_us", 0, "us"},
    {"graphs_per_s", 0, "graphs/s"},
};

// A layer a workload does not exercise reads 0 (see README.md).
const std::vector<Metric> kPerLayer = {
    {"dataset.generate_s", 0, "s"},
    {"dataset.sample_build_s", 0, "s"},
    {"dataset.instantiate_us", 0, "us"},
    {"frontend.parse_us", 0, "us"},
    {"graph.build_us", 0, "us"},
    {"graph.nodes_per_graph", 0, "count"},
    {"graph.edges_per_graph", 0, "count"},
    {"model.encode_us", 0, "us"},
    {"model.engine.batch_us", 0, "us"},
    {"model.engine.graphs_per_call", 0, "count"},
    {"model.engine.chunks_per_call", 0, "count"},
    {"model.engine.rows_per_chunk", 0, "count"},
    {"model.engine.plan_imbalance", 0, "ratio"},
    {"model.engine.workspace_growth_bytes", 0, "bytes"},
    {"model.checkpoint_save_s", 0, "s"},
    {"model.checkpoint_load_s", 0, "s"},
    {"model.trainer.epoch_s", 0, "s"},
    {"model.trainer.val_predict_s", 0, "s"},
    {"model.fwd_bwd_us_per_graph", 0, "us"},
    {"nn.adam_step_us", 0, "us"},
    {"io.sample_decode_us", 0, "us"},
    {"io.dataset_decode_us", 0, "us"},
    {"io.view_open_us", 0, "us"},
    {"io.corpus_write_s", 0, "s"},
    {"serve.graphs_per_batch", 0, "count"},
    {"serve.frames_per_write", 0, "count"},
    {"serve.busy_share", 0, "ratio"},
    {"serve.read_gated", 0, "count"},
    {"serve.backlog_end", 0, "count"},
    {"serve.cache.hit_ratio", 0, "ratio"},
    {"serve.cache.evictions", 0, "count"},
    {"serve.residual_us", 0, "us"},
    {"loadgen.lateness_p50_us", 0, "us"},
    {"loadgen.lateness_p99_us", 0, "us"},
    {"trace.coverage", 0, "ratio"},
    {"trace.overhead", 0, "ratio"},
};

// A traced advise run is valid only if its spans cover this share of the
// decisions' wall time. The other workloads report their coverage but are
// not held to it: the trainer's steps and the server's request path run
// inside single calls the benchmark can time only from outside.
constexpr double kMinCoverage = 0.9;

int usage() {
  std::fprintf(stderr,
               "usage: pgperf --workload serve_uniform|serve_zipf_cache|"
               "advise|train_stream --seed N --seconds S --trace 0|1 "
               "--run-dir DIR [--env-json JSON]\n");
  return 2;
}

std::string environment_json(const RunConfig& cfg) {
  namespace simd = pg::tensor::simd;
  Json env;
  env.integer("nproc", std::thread::hardware_concurrency())
      .integer("omp_max_threads", static_cast<std::uint64_t>(omp_get_max_threads()))
      .str("simd_active", simd::level_name(simd::active_level()))
      .str("simd_best", simd::level_name(simd::max_supported_level()))
      .str("compiler", PGPERF_COMPILER)
      .str("build_type", PGPERF_BUILD_TYPE)
      .raw("runner", cfg.env_json.empty() ? "{}" : cfg.env_json);
  return env.render();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  Json m;
  for (const Metric& metric : metrics) {
    Json v;
    v.num("value", metric.value).str("unit", metric.unit);
    m.raw(metric.name, v.render());
  }
  return m.render();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return usage();
    const std::string value = argv[++a];
    if (flag == "--workload") cfg.workload = value;
    else if (flag == "--seed") cfg.seed = std::stoull(value);
    else if (flag == "--seconds") cfg.seconds = std::stod(value);
    else if (flag == "--trace") cfg.trace = value == "1";
    else if (flag == "--run-dir") cfg.run_dir = value;
    else if (flag == "--env-json") cfg.env_json = value;
    else return usage();
  }
  if (cfg.run_dir.empty() || cfg.seconds <= 0.0) return usage();

  Outcome out;
  out.metrics = cfg.trace ? kPerLayer : kEndToEnd;
  const std::int64_t start = now_ns();
  trace::set_enabled(cfg.trace);
  try {
    if (cfg.workload == "serve_uniform") run_serve(cfg, false, out);
    else if (cfg.workload == "serve_zipf_cache") run_serve(cfg, true, out);
    else if (cfg.workload == "advise") run_advise(cfg, out);
    else if (cfg.workload == "train_stream") run_train_stream(cfg, out);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgperf: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }
  const double wall_s = seconds_since(start);

  int code = out.correct ? 0 : 1;
  Json results;
  results.str("workload", cfg.workload)
      .integer("seed", cfg.seed)
      .num("seconds", cfg.seconds)
      .boolean("trace", cfg.trace)
      .num("wall_s", wall_s)
      .raw("environment", environment_json(cfg))
      .boolean("correct", out.correct)
      .integer("attempted", out.attempted)
      .integer("failed", out.failed)
      .integer("mismatches", out.mismatches)
      .raw("metrics", metrics_json(out.metrics));
  if (!out.details.empty()) results.raw("details", out.details.render());

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  if (cfg.trace) {
    trace::set_enabled(false);
    const auto spans = trace::collect();
    const auto table = trace::self_time_table(spans);
    results.raw("layers", trace::table_json(table, wall_s));
    trace::write_csv(spans, cfg.run_dir + "/spans.csv");
    std::printf("  %-28s %10s %12s %12s\n", "span", "calls", "total_s",
                "self_s");
    for (const auto& row : table)
      std::printf("  %-28s %10llu %12.6f %12.6f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.total_s,
                  row.self_s);
    double coverage = 0.0;
    for (const Metric& m : out.metrics)
      if (m.name == "trace.coverage") coverage = m.value;
    if (cfg.workload == "advise" && coverage < kMinCoverage) {
      out.notes.push_back("trace coverage below " +
                          Json::number(kMinCoverage) + ": run invalid");
      if (code == 0) code = 3;
    }
  }
  results.raw("notes", [&] {
    std::string list = "[";
    for (std::size_t i = 0; i < out.notes.size(); ++i)
      list += (i > 0 ? ", " : "") + Json::quote(out.notes[i]);
    return list + "]";
  }());
  std::ofstream(cfg.run_dir + "/results.json") << results.render() << "\n";

  for (const Metric& m : out.metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& note : out.notes) std::printf("  note: %s\n", note.c_str());
  Json line;
  line.boolean("correct", out.correct)
      .integer("attempted", out.attempted)
      .integer("failed", out.failed)
      .raw("metrics", metrics_json(out.metrics));
  std::printf("%s\n", line.render().c_str());
  return code;
}

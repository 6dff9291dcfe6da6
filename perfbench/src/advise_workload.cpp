// advise: the paper's use case as a closed loop from one caller. A decision
// takes one (kernel, size) pair, instantiates every candidate variant's
// source (CPU variants x {8, 22} threads on POWER9, GPU variants x 3 launch
// configurations on V100), parses it, builds and encodes its graph, ranks
// the candidates with one predict_batch per device model and returns the
// argmin of the predicted runtimes. No sockets are involved.
//
// Set-up and every timed pass are bracketed by host-speed probes
// (hostspeed.hpp), and their times are corrected for the host's speed.
#include <algorithm>
#include <cstring>
#include <memory>

#include "dataset/kernel_spec.hpp"
#include "dataset/sample_builder.hpp"
#include "dataset/variants.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "hostspeed.hpp"
#include "layers.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "sim/platform.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kTrainEpochs = 1;

struct Candidate {
  bool gpu = false;
  pg::dataset::Variant variant{};
  std::int64_t teams = 1;
  std::int64_t threads = 1;
};

struct Decision {
  const pg::dataset::KernelSpec* spec = nullptr;
  pg::dataset::SizePoint size;
  std::vector<Candidate> candidates;
  std::vector<double> want_scaled;  // predict_one reference per candidate
  std::size_t want_choice = 0;      // reference argmin
};

struct Device {
  pg::model::SampleSet set;
  std::unique_ptr<pg::model::ParaGraphModel> model;  // loaded from file
  std::unique_ptr<pg::model::InferenceEngine> engine;
};

struct AdviseState {
  Device cpu, gpu;
  std::vector<Decision> decisions;
};

std::vector<Decision> enumerate_decisions() {
  const std::vector<std::int64_t> cpu_threads = {8, 22};
  const std::vector<std::pair<std::int64_t, std::int64_t>> gpu_configs = {
      {64, 128}, {256, 256}, {1024, 256}};
  std::vector<Decision> out;
  for (const auto& spec : pg::dataset::benchmark_suite()) {
    std::vector<pg::dataset::SizePoint> sizes = spec.default_sizes;
    sizes.insert(sizes.end(), spec.extra_full_sizes.begin(),
                 spec.extra_full_sizes.end());
    for (const auto& size : sizes) {
      Decision d;
      d.spec = &spec;
      d.size = size;
      for (const auto v : pg::dataset::applicable_variants(spec, false))
        for (const std::int64_t t : cpu_threads)
          d.candidates.push_back({false, v, 1, t});
      for (const auto v : pg::dataset::applicable_variants(spec, true))
        for (const auto& [teams, threads] : gpu_configs)
          d.candidates.push_back({true, v, teams, threads});
      out.push_back(std::move(d));
    }
  }
  return out;
}

/// The graph-building options of one candidate (the paper's static-schedule
/// division rule: threads on a CPU, teams x threads on a GPU).
pg::graph::BuildOptions build_options(const Candidate& c) {
  pg::graph::BuildOptions options;
  options.parallel_workers = c.gpu ? c.teams * c.threads : c.threads;
  return options;
}

std::array<float, 2> aux_of(const Device& d, const Candidate& c) {
  return {static_cast<float>(
              d.set.teams_scaler.transform(static_cast<double>(c.teams))),
          static_cast<float>(
              d.set.threads_scaler.transform(static_cast<double>(c.threads)))};
}

Device make_device(const pg::sim::Platform& platform, const RunConfig& cfg,
                   const std::string& checkpoint) {
  Device d;
  d.set = build_samples(generate(platform, cfg.seed));
  pg::model::ParaGraphModel trained{pg::model::ModelConfig{}};
  train(trained, d.set, kTrainEpochs, cfg.seed);
  d.model = std::make_unique<pg::model::ParaGraphModel>(pg::model::ModelConfig{});
  (void)save_and_reload(checkpoint, trained,
                        pg::model::CheckpointScalers::from_sample_set(d.set),
                        *d.model);
  d.engine = std::make_unique<pg::model::InferenceEngine>(*d.model);
  return d;
}

/// Set-up, with a host-speed probe after each of its three parts so that
/// its corrected time follows the host within it.
std::unique_ptr<AdviseState> set_up(const RunConfig& cfg,
                                    hostspeed::Timeline& host) {
  auto s = std::make_unique<AdviseState>();
  s->cpu = make_device(pg::sim::summit_power9(), cfg, cfg.run_dir + "/cpu.pgckpt");
  host.probe();
  s->gpu = make_device(pg::sim::summit_v100(), cfg, cfg.run_dir + "/gpu.pgckpt");
  host.probe();
  s->decisions = enumerate_decisions();
  // Reference answers through the one-graph path: build_point_graph and
  // predict_one per candidate, argmin over the runtimes.
  for (Decision& d : s->decisions) {
    double best = 0.0;
    for (std::size_t i = 0; i < d.candidates.size(); ++i) {
      const Candidate& c = d.candidates[i];
      const Device& dev = c.gpu ? s->gpu : s->cpu;
      pg::dataset::RawDataPoint point;
      point.variant = std::string(pg::dataset::variant_name(c.variant));
      point.num_teams = c.teams;
      point.num_threads = c.threads;
      point.source = pg::dataset::instantiate_source(*d.spec, c.variant,
                                                     d.size, c.teams, c.threads);
      const auto graph = pg::dataset::build_point_graph(
          point, pg::graph::Representation::kParaGraph);
      const auto enc =
          pg::model::encode_graph(graph, dev.set.child_weight_scale);
      const double scaled = dev.engine->predict_one(enc, aux_of(dev, c));
      d.want_scaled.push_back(scaled);
      const double us = dev.set.from_target(scaled);
      if (i == 0 || us < best) {
        best = us;
        d.want_choice = i;
      }
    }
  }
  return s;
}

struct DecisionScratch {
  std::vector<pg::model::EncodedGraph> graphs[2];  // [cpu, gpu]
  std::vector<std::array<float, 2>> aux[2];
  std::vector<std::size_t> index[2];  // candidate index of each graph
  std::vector<double> scaled[2];
  std::uint64_t built = 0, nodes = 0, edges = 0;  // graph sizes, all passes
};

/// One decision: source -> graph -> encoding per candidate, one
/// predict_batch per device, argmin. Returns the chosen candidate.
std::size_t decide(AdviseState& s, const Decision& d, std::uint64_t unit,
                   DecisionScratch& x) {
  const trace::Scope root("advise.decision", 0, unit);
  for (int k = 0; k < 2; ++k) {
    x.graphs[k].clear();
    x.aux[k].clear();
    x.index[k].clear();
  }
  for (std::size_t i = 0; i < d.candidates.size(); ++i) {
    const Candidate& c = d.candidates[i];
    const Device& dev = c.gpu ? s.gpu : s.cpu;
    std::string source;
    {
      const trace::Scope span("dataset.instantiate", root.id(), unit);
      source = pg::dataset::instantiate_source(*d.spec, c.variant, d.size,
                                               c.teams, c.threads);
    }
    pg::frontend::ParseResult parsed;
    {
      const trace::Scope span("frontend.parse", root.id(), unit);
      parsed = pg::frontend::parse_source(source);
    }
    pg::check(parsed.ok(), "advise: candidate source failed to parse");
    pg::graph::ProgramGraph graph;
    {
      const trace::Scope span("graph.build", root.id(), unit);
      graph = pg::graph::build_graph(parsed.root(), build_options(c));
    }
    ++x.built;
    x.nodes += graph.num_nodes();
    x.edges += graph.num_edges();
    const int k = c.gpu ? 1 : 0;
    {
      const trace::Scope span("model.encode", root.id(), unit);
      x.graphs[k].push_back(
          pg::model::encode_graph(graph, dev.set.child_weight_scale));
    }
    x.aux[k].push_back(aux_of(dev, c));
    x.index[k].push_back(i);
  }
  std::size_t choice = 0;
  double best = 0.0;
  bool first = true;
  for (int k = 0; k < 2; ++k) {
    if (x.graphs[k].empty()) continue;
    const Device& dev = k == 1 ? s.gpu : s.cpu;
    x.scaled[k].resize(x.graphs[k].size());
    {
      const trace::Scope span("model.engine.batch", root.id(), unit);
      dev.engine->predict_batch(x.graphs[k], x.aux[k], x.scaled[k]);
    }
    for (std::size_t j = 0; j < x.scaled[k].size(); ++j) {
      const double us = dev.set.from_target(x.scaled[k][j]);
      if (first || us < best) {
        best = us;
        choice = x.index[k][j];
        first = false;
      }
    }
  }
  return choice;
}

/// Checks one decision against the reference; returns the candidates ranked.
std::size_t check_decision(const Decision& d, std::size_t choice,
                           const DecisionScratch& x, Outcome& out) {
  std::size_t ranked = 0;
  for (int k = 0; k < 2; ++k)
    for (std::size_t j = 0; j < x.scaled[k].size(); ++j, ++ranked)
      if (std::memcmp(&x.scaled[k][j], &d.want_scaled[x.index[k][j]], 8) != 0)
        out.mismatch("batched prediction != predict_one for " + d.spec->kernel);
  if (choice != d.want_choice)
    out.mismatch("argmin differs from the reference for " + d.spec->kernel);
  return ranked;
}

}  // namespace

void run_advise(const RunConfig& cfg, Outcome& out) {
  hostspeed::Timeline host;
  std::vector<double> setup_s;
  std::unique_ptr<AdviseState> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();
    host.probe();
    const std::int64_t t0 = now_ns();
    s = set_up(cfg, host);
    const std::int64_t t1 = now_ns();
    host.probe();
    setup_s.push_back(host.corrected_seconds(t0, t1));
  }
  pg::check(!s->decisions.empty(), "advise: no decisions");

  const bool traced = trace::enabled();
  pg::Rng rng(cfg.seed);
  std::vector<std::size_t> order(s->decisions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  DecisionScratch scratch;

  // Pass 0 warms every arena and is checked but not timed. Each timed
  // pass's time is corrected by the host-speed probes on either side of it.
  std::vector<double> latency_us, graph_rate, pass_p50;  // timed passes
  std::vector<double> raw_rate, corrections;
  std::uint64_t ranked = 0, decided = 0, unit = 0;
  double timed_s = 0.0;
  // Traced runs alternate untraced and traced passes for trace.overhead.
  double plain_s = 0.0, traced_s = 0.0;
  std::uint64_t plain_graphs = 0, traced_graphs = 0;
  std::size_t ws0 = 0;
  pg::model::ScheduleStats sched0[2];
  host.probe();
  const std::int64_t start = now_ns();
  for (int pass = 0;; ++pass) {
    if (pass == 1) {
      ws0 = s->cpu.engine->workspace_bytes() + s->gpu.engine->workspace_bytes();
      sched0[0] = s->cpu.engine->schedule_stats();
      sched0[1] = s->gpu.engine->schedule_stats();
    }
    const bool record_pass = traced && pass % 2 == 1;
    trace::set_enabled(record_pass);
    rng.shuffle(order);
    const std::int64_t p0 = now_ns();
    const std::size_t pass_first = latency_us.size();
    std::uint64_t pass_graphs = 0;
    for (const std::size_t i : order) {
      const Decision& d = s->decisions[i];
      const std::int64_t t0 = now_ns();
      const std::size_t choice = decide(*s, d, ++unit, scratch);
      const std::int64_t t1 = now_ns();
      pass_graphs += check_decision(d, choice, scratch, out);
      if (pass > 0) latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    const std::int64_t p1 = now_ns();
    host.probe();
    const double pass_s = static_cast<double>(p1 - p0) * 1e-9;
    const double k = host.factor(p0, p1);
    out.attempted += order.size();
    if (pass > 0) {
      timed_s += pass_s;
      ranked += pass_graphs;
      decided += order.size();
      (record_pass ? traced_s : plain_s) += pass_s * k;
      raw_rate.push_back(static_cast<double>(pass_graphs) / pass_s);
      corrections.push_back(k);
      graph_rate.push_back(raw_rate.back() / k);
      pass_p50.push_back(k * median(std::vector<double>(
          latency_us.begin() + static_cast<std::ptrdiff_t>(pass_first),
          latency_us.end())));
      (record_pass ? traced_graphs : plain_graphs) += pass_graphs;
    }
    if (pass >= 2 && seconds_since(start) >= cfg.seconds) break;
  }
  trace::set_enabled(traced);
  const std::size_t ws1 =
      s->cpu.engine->workspace_bytes() + s->gpu.engine->workspace_bytes();

  Json details;
  details.integer("decisions_per_pass", s->decisions.size())
      .integer("decisions_timed", decided)
      .integer("graphs_ranked", ranked)
      .num("timed_s", timed_s)
      .num("raw_p50_us", quantile(latency_us, 0.5))
      .num("raw_p99_us", quantile(latency_us, 0.99))
      .num("raw_graphs_per_s", median(raw_rate))
      .raw("pass_graphs_per_s", json_array(graph_rate))
      .raw("pass_raw_graphs_per_s", json_array(raw_rate))
      .raw("pass_host_correction", json_array(corrections))
      .num("failed_share", out.attempted > 0
                               ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 0.0);
  out.details.raw("advise", details.render());

  if (!traced) {
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", peak_rss_mib(), "MiB");
    out.set("p50_us", median(pass_p50), "us");
    out.set("graphs_per_s", median(graph_rate), "graphs/s");
    return;
  }

  probe_training_layers(*s->gpu.model, s->gpu.set);
  const auto spans = trace::collect();
  common_layer_metrics(spans, out);
  out.set("dataset.instantiate_us", trace::mean_us(spans, "dataset.instantiate"),
          "us");
  out.set("frontend.parse_us", trace::mean_us(spans, "frontend.parse"), "us");
  out.set("graph.build_us", trace::mean_us(spans, "graph.build"), "us");
  out.set("model.encode_us", trace::mean_us(spans, "model.encode"), "us");
  out.set("graph.nodes_per_graph",
          static_cast<double>(scratch.nodes) / static_cast<double>(scratch.built),
          "count");
  out.set("graph.edges_per_graph",
          static_cast<double>(scratch.edges) / static_cast<double>(scratch.built),
          "count");
  std::uint64_t calls = 0, graphs = 0, chunks = 0, rows = 0;
  double imbalance = 0.0;
  for (int k = 0; k < 2; ++k) {
    const auto now = (k == 0 ? s->cpu : s->gpu).engine->schedule_stats();
    calls += now.batches - sched0[k].batches;
    graphs += now.graphs - sched0[k].graphs;
    chunks += now.chunks - sched0[k].chunks;
    rows += now.rows - sched0[k].rows;
    imbalance = std::max(imbalance, now.last_imbalance);
  }
  out.set("model.engine.batch_us", trace::mean_us(spans, "model.engine.batch"),
          "us");
  out.set("model.engine.graphs_per_call",
          static_cast<double>(graphs) / static_cast<double>(calls), "count");
  out.set("model.engine.chunks_per_call",
          static_cast<double>(chunks) / static_cast<double>(calls), "count");
  out.set("model.engine.rows_per_chunk",
          static_cast<double>(rows) / static_cast<double>(chunks), "count");
  out.set("model.engine.plan_imbalance", imbalance, "ratio");
  out.set("model.engine.workspace_growth_bytes",
          static_cast<double>(ws1 - ws0), "bytes");
  out.set("trace.coverage", trace::coverage(spans, "advise.decision"), "ratio");
  out.set("trace.overhead",
          (static_cast<double>(plain_graphs) / plain_s) /
                  (static_cast<double>(traced_graphs) / traced_s) -
              1.0,
          "ratio");
}

}  // namespace perfbench

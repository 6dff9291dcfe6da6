// train_stream: out-of-core training. Set-up writes the V100 default sample
// set to a format-v2 .pgds and opens it with io::DatasetView; the timed part
// repeats train_model_streaming for kEpochs epochs from a fresh model, with
// a window smaller than the training split so every epoch decodes its
// samples from the mapping. It is the only workload that runs backward,
// Adam, the ordered gradient reduction and .pgds record decode.
//
// graphs_per_s is the training samples per second of whole repeats, decode
// and validation included. p50_us is the time of one optimizer step with no
// decode in it: the trainer fills its window, then runs the window's batches,
// so the gap between the last decode of one window fill and the first of the
// next is that many steps. The window before each epoch's end is not used,
// as its gap also holds the validation pass. Both, and setup_s, are
// corrected for the host's speed by probes around each repeat and after
// each window fill (hostspeed.hpp).
//
// Output checks: every repeat's model, after a checkpoint save and reload,
// has the same fingerprint, and it equals the fingerprint of in-RAM
// train_model over the same samples and seed.
#include <algorithm>
#include <array>
#include <mutex>
#include <sstream>
#include <utility>

#include "hostspeed.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "layers.hpp"
#include "model/engine.hpp"
#include "model/trainer.hpp"
#include "sim/platform.hpp"
#include "support/check.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kEpochs = 1;
constexpr std::size_t kWindow = 512;  // < the 1523-sample training split

/// The training records of a view (the writer puts them first), decoded on
/// demand. Each decode is one io.dataset_decode span under the current
/// epoch's span, and its start and end times are kept, in call order, for
/// the step-time gaps. The last decode of each window fill (and of the
/// trainer's prepass over all n records) is followed by a host-speed probe,
/// so every run of optimizer steps between two fills is bracketed by
/// probes. The trainer runs its loads on one thread (OMP_NUM_THREADS=1).
class TrainStore final : public pg::model::SampleStore {
 public:
  TrainStore(const pg::io::DatasetView& view, std::size_t n,
             std::size_t window, const std::uint64_t& epoch_span,
             hostspeed::Timeline& host)
      : view_(view), n_(n), window_(window), epoch_span_(epoch_span),
        host_(host) {}
  [[nodiscard]] std::size_t size() const override { return n_; }
  void load(std::size_t i, pg::model::TrainingSample& out) const override {
    std::int64_t t0 = 0, t1 = 0;
    {
      const trace::Scope span("io.dataset_decode", epoch_span_, i);
      t0 = now_ns();
      view_.decode(i, out);
      t1 = now_ns();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_.push_back({t0, t1});
    const std::size_t pos = (calls_.size() - 1) % n_ + 1;  // in this pass
    if (pos % window_ == 0 || pos == n_) host_.probe();
  }

  /// Start and end of every decode since the last call, in call order.
  std::vector<std::array<std::int64_t, 2>> take_calls() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, {});
  }

 private:
  const pg::io::DatasetView& view_;
  std::size_t n_;
  std::size_t window_;
  const std::uint64_t& epoch_span_;
  hostspeed::Timeline& host_;
  mutable std::mutex mutex_;
  mutable std::vector<std::array<std::int64_t, 2>> calls_;
};

/// Per-step times in microseconds from one train_model_streaming call's
/// decodes: a cost prepass of n decodes, then per epoch a fill of each
/// window. The gap after every fill but an epoch's last is window / batch
/// steps; its length is corrected for host speed by `host`.
void step_gaps(const std::vector<std::array<std::int64_t, 2>>& calls,
               std::size_t n, std::size_t window, int epochs,
               const hostspeed::Timeline& host, std::vector<double>& step_us) {
  pg::check(calls.size() == n * static_cast<std::size_t>(epochs + 1),
            "train_stream: unexpected decode count");
  const double steps = static_cast<double>(window / kBatchSize);
  auto span_of = [&](std::size_t lo, std::size_t hi) {
    std::int64_t first = calls[lo][0], last = calls[lo][1];
    for (std::size_t k = lo; k < hi; ++k) {
      first = std::min(first, calls[k][0]);
      last = std::max(last, calls[k][1]);
    }
    return std::array<std::int64_t, 2>{first, last};
  };
  for (int e = 0; e < epochs; ++e) {
    const std::size_t base = n * static_cast<std::size_t>(e + 1);
    for (std::size_t lo = 0; lo + window < n; lo += window) {
      const auto fill = span_of(base + lo, base + lo + window);
      const auto next =
          span_of(base + lo + window, base + std::min(n, lo + 2 * window));
      step_us.push_back(host.corrected_seconds(fill[1], next[0]) * 1e6 /
                        steps);
    }
  }
}

struct TrainState {
  pg::model::SampleSet set;
  std::unique_ptr<pg::io::DatasetView> view;
};

std::unique_ptr<TrainState> set_up(const RunConfig& cfg,
                                   const std::string& corpus) {
  auto s = std::make_unique<TrainState>();
  s->set = build_samples(generate(pg::sim::summit_v100(), cfg.seed));
  {
    const trace::Scope span("io.corpus_write");
    pg::io::write_sample_set_file(corpus, s->set, "NVIDIA V100 (GPU)",
                                  "ParaGraph", cfg.seed);
  }
  {
    const trace::Scope span("io.view_open");
    s->view = std::make_unique<pg::io::DatasetView>(corpus);
  }
  pg::check(s->view->size() == s->set.train.size() + s->set.validation.size(),
            "train_stream: corpus record count");
  return s;
}

pg::model::TrainConfig base_config(std::uint64_t seed) {
  pg::model::TrainConfig config;
  config.epochs = kEpochs;
  config.batch_size = kBatchSize;
  config.shuffle_seed = seed;
  return config;
}

}  // namespace

void run_train_stream(const RunConfig& cfg, Outcome& out) {
  const std::string corpus = cfg.run_dir + "/train.pgds";
  hostspeed::Timeline host;
  std::vector<double> setup_s;
  std::unique_ptr<TrainState> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();  // unmaps the previous repeat's corpus before rewriting it
    host.probe();
    const std::int64_t t0 = now_ns();
    s = set_up(cfg, corpus);
    const std::int64_t t1 = now_ns();
    host.probe();
    setup_s.push_back(host.corrected_seconds(t0, t1));
  }
  const std::size_t n = s->set.train.size();
  const bool traced = trace::enabled();

  std::uint64_t epoch_span = 0;
  TrainStore store(*s->view, n, kWindow, epoch_span, host);
  pg::model::StreamTrainConfig stream;
  stream.base = base_config(cfg.seed);
  stream.window = kWindow;

  // Each repeat's times are corrected by the host-speed probes before it,
  // after it and after each of its window fills.
  std::vector<double> rep_rate, step_us, plain_rate, traced_rate;
  std::vector<double> raw_rate, corrections;
  std::uint64_t want_fingerprint = 0;
  const std::int64_t timed_start = now_ns();
  for (int rep = 0;; ++rep) {
    // Repeat 0 is checked but not timed: it takes the first page faults of
    // the mapping. Traced runs alternate untraced and traced repeats for
    // trace.overhead.
    const bool timed = rep > 0;
    const bool record = traced && rep % 2 == 1;
    trace::set_enabled(record);
    pg::model::ParaGraphModel model{pg::model::ModelConfig{}};
    std::int64_t epoch_start = now_ns();
    epoch_span = trace::new_id();
    stream.base.on_epoch = [&](int, double, double) {
      const std::int64_t now = now_ns();
      trace::record("model.trainer.epoch", epoch_span, 0, 0, epoch_start, now);
      epoch_start = now;
      epoch_span = trace::new_id();
    };
    host.probe();
    const std::int64_t t0 = now_ns();
    (void)pg::model::train_model_streaming(model, store, s->set, stream);
    const std::int64_t t1 = now_ns();
    trace::set_enabled(traced);
    host.probe();
    const auto calls = store.take_calls();
    const double samples = static_cast<double>(n) * kEpochs;
    if (timed) {
      step_gaps(calls, n, kWindow, kEpochs, host, step_us);
      // The raw rate includes the probes taken inside the repeat.
      raw_rate.push_back(samples / (static_cast<double>(t1 - t0) * 1e-9));
      corrections.push_back(host.factor(t0, t1));
      rep_rate.push_back(samples / host.corrected_seconds(t0, t1));
      (record ? traced_rate : plain_rate).push_back(rep_rate.back());
    }

    pg::model::ParaGraphModel reloaded{pg::model::ModelConfig{}};
    (void)save_and_reload(cfg.run_dir + "/train.pgckpt", model,
                          pg::model::CheckpointScalers::from_sample_set(s->set),
                          reloaded);
    const std::uint64_t fingerprint =
        pg::model::checkpoint_fingerprint(reloaded);
    out.attempted += 1;
    if (rep == 0) {
      want_fingerprint = fingerprint;
    } else if (fingerprint != want_fingerprint) {
      out.mismatch("streaming repeat " + std::to_string(rep) +
                   " trained a different model");
    }
    if (rep >= 2 && seconds_since(timed_start) >= cfg.seconds) break;
  }

  // Reference: the in-RAM trainer over the same samples and seed.
  pg::model::ParaGraphModel in_ram{pg::model::ModelConfig{}};
  (void)pg::model::train_model(in_ram, s->set, base_config(cfg.seed));
  out.attempted += 1;
  if (pg::model::checkpoint_fingerprint(in_ram) != want_fingerprint)
    out.mismatch("streaming training != in-RAM train_model");

  Json details;
  details.integer("train_samples", n)
      .integer("window", kWindow)
      .integer("epochs_per_repeat", kEpochs)
      .integer("repeats", rep_rate.size())
      .raw("repeat_graphs_per_s", json_array(rep_rate))
      .raw("repeat_raw_graphs_per_s", json_array(raw_rate))
      .raw("repeat_host_correction", json_array(corrections))
      .raw("step_us", json_array(step_us))
      .str("model_fingerprint", std::to_string(want_fingerprint));
  out.details.raw("train_stream", details.render());

  if (!traced) {
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", peak_rss_mib(), "MiB");
    out.set("p50_us", median(step_us), "us");
    out.set("graphs_per_s", median(rep_rate), "graphs/s");
    return;
  }

  {
    // io.sample_decode: the same samples through the .psample codec.
    std::vector<std::string> bytes;
    for (const auto& sample : s->set.train) {
      std::ostringstream os(std::ios::binary);
      pg::io::write_sample(os, sample);
      bytes.push_back(os.str());
    }
    for (const auto& b : bytes) {
      const trace::Scope span("io.sample_decode");
      std::istringstream is(b);
      (void)pg::io::read_sample(is);
    }
  }
  // The engine as the trainer's validation pass uses it.
  pg::model::InferenceEngine engine(in_ram);
  (void)engine.predict_samples_us(s->set.validation, s->set);
  const std::size_t ws0 = engine.workspace_bytes();
  const auto sched0 = engine.schedule_stats();
  for (int r = 0; r < 8; ++r) {
    const trace::Scope span("model.engine.batch");
    (void)engine.predict_samples_us(s->set.validation, s->set);
  }
  const auto sched1 = engine.schedule_stats();
  const double calls = static_cast<double>(sched1.batches - sched0.batches);
  out.set("model.engine.graphs_per_call",
          static_cast<double>(sched1.graphs - sched0.graphs) / calls, "count");
  out.set("model.engine.chunks_per_call",
          static_cast<double>(sched1.chunks - sched0.chunks) / calls, "count");
  out.set("model.engine.rows_per_chunk",
          static_cast<double>(sched1.rows - sched0.rows) /
              static_cast<double>(sched1.chunks - sched0.chunks),
          "count");
  out.set("model.engine.plan_imbalance", sched1.last_imbalance, "ratio");
  out.set("model.engine.workspace_growth_bytes",
          static_cast<double>(engine.workspace_bytes() - ws0), "bytes");
  probe_training_layers(in_ram, s->set);

  const auto spans = trace::collect();
  common_layer_metrics(spans, out);
  out.set("io.sample_decode_us", trace::mean_us(spans, "io.sample_decode"), "us");
  out.set("model.engine.batch_us", trace::mean_us(spans, "model.engine.batch"),
          "us");
  out.set("io.dataset_decode_us", trace::mean_us(spans, "io.dataset_decode"),
          "us");
  out.set("io.view_open_us", trace::mean_us(spans, "io.view_open"), "us");
  out.set("io.corpus_write_s", trace::mean_us(spans, "io.corpus_write") * 1e-6,
          "s");
  // Only the decodes are timed inside an epoch: the steps and the
  // validation pass run inside train_model_streaming.
  out.set("trace.coverage", trace::coverage(spans, "model.trainer.epoch"),
          "ratio");
  out.set("trace.overhead", median(plain_rate) / median(traced_rate) - 1.0,
          "ratio");
}

}  // namespace perfbench

#include "layers.hpp"

#include <algorithm>

#include "dataset/sample_builder.hpp"
#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/trainer.hpp"
#include "nn/adam.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {

std::vector<pg::dataset::RawDataPoint> generate(const pg::sim::Platform& platform,
                                                std::uint64_t seed) {
  const trace::Scope span("dataset.generate");
  pg::dataset::GenerationConfig gen;
  gen.scale = pg::RunScale::kDefault;
  gen.seed = seed;
  return pg::dataset::generate_dataset(platform, gen);
}

pg::model::SampleSet build_samples(
    const std::vector<pg::dataset::RawDataPoint>& points) {
  const trace::Scope span("dataset.sample_build");
  return pg::dataset::build_sample_set(points, {});
}

void train(pg::model::ParaGraphModel& model, const pg::model::SampleSet& set,
           int epochs, std::uint64_t shuffle_seed) {
  pg::model::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = kBatchSize;
  config.shuffle_seed = shuffle_seed;
  std::int64_t epoch_start = now_ns();
  config.on_epoch = [&](int, double, double) {
    const std::int64_t now = now_ns();
    trace::record("model.trainer.epoch", trace::new_id(), 0, 0, epoch_start,
                  now);
    epoch_start = now;
  };
  (void)pg::model::train_model(model, set, config);
}

pg::model::CheckpointScalers save_and_reload(
    const std::string& path, const pg::model::ParaGraphModel& trained,
    const pg::model::CheckpointScalers& scalers,
    pg::model::ParaGraphModel& reloaded) {
  {
    const trace::Scope span("model.checkpoint_save");
    pg::model::save_checkpoint_file(path, trained, scalers);
  }
  pg::model::CheckpointScalers loaded;
  {
    const trace::Scope span("model.checkpoint_load");
    loaded = pg::model::load_checkpoint_file(path, reloaded);
  }
  return loaded;
}

void probe_training_layers(pg::model::ParaGraphModel& model,
                           const pg::model::SampleSet& set) {
  {
    pg::model::InferenceEngine engine(model);
    (void)engine.predict_samples_us(set.validation, set);  // warm the arenas
    const trace::Scope span("model.trainer.val_predict");
    (void)engine.predict_samples_us(set.validation, set);
  }

  // One packed batch of the trainer's size, on a copy so the probe's Adam
  // steps leave the workload's model untouched.
  pg::model::ParaGraphModel scratch = model;
  const std::size_t n = std::min<std::size_t>(kBatchSize, set.train.size());
  std::vector<const pg::model::EncodedGraph*> graphs;
  pg::tensor::Matrix aux(n, 2);
  std::vector<double> targets;
  for (std::size_t i = 0; i < n; ++i) {
    graphs.push_back(&set.train[i].graph);
    aux(i, 0) = set.train[i].aux[0];
    aux(i, 1) = set.train[i].aux[1];
    targets.push_back(set.train[i].target_scaled);
  }
  pg::model::GraphBatch batch;
  batch.pack(graphs);
  pg::nn::Adam adam(scratch.parameters());
  auto grads = adam.make_gradient_buffer();
  pg::tensor::Workspace ws;
  constexpr int kRepeats = 12;
  for (int r = 0; r <= kRepeats; ++r) {
    for (auto& g : grads) g.fill(0.0f);
    {
      // Repeat 0 warms the workspace and is not recorded.
      const bool keep = r > 0;
      const std::int64_t t0 = now_ns();
      (void)scratch.accumulate_gradients_batch(
          batch, aux, targets, 1.0 / static_cast<double>(n), grads, ws);
      if (keep)
        trace::record("model.fwd_bwd", trace::new_id(), 0, n, t0, now_ns());
      const std::int64_t t1 = now_ns();
      adam.step(grads);
      if (keep)
        trace::record("nn.adam_step", trace::new_id(), 0, 0, t1, now_ns());
    }
  }
}

void common_layer_metrics(const std::vector<trace::Span>& spans,
                          Outcome& out) {
  const double repeats = kSetupRepeats;
  out.set("dataset.generate_s", trace::total_s(spans, "dataset.generate") / repeats,
          "s");
  out.set("dataset.sample_build_s",
          trace::total_s(spans, "dataset.sample_build") / repeats, "s");
  out.set("model.trainer.epoch_s",
          trace::mean_us(spans, "model.trainer.epoch") * 1e-6, "s");
  out.set("model.trainer.val_predict_s",
          trace::mean_us(spans, "model.trainer.val_predict") * 1e-6, "s");
  out.set("model.checkpoint_save_s",
          trace::mean_us(spans, "model.checkpoint_save") * 1e-6, "s");
  out.set("model.checkpoint_load_s",
          trace::mean_us(spans, "model.checkpoint_load") * 1e-6, "s");
  out.set("model.fwd_bwd_us_per_graph",
          trace::mean_us(spans, "model.fwd_bwd") / kBatchSize, "us");
  out.set("nn.adam_step_us", trace::mean_us(spans, "nn.adam_step"), "us");
}

}  // namespace perfbench

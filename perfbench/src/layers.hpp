// Calls into the program's public functions that several workloads share,
// each wrapped in the span of the layer it exercises. Span names are the
// per-layer metric names without their unit suffix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "dataset/generator.hpp"
#include "model/checkpoint.hpp"
#include "model/paragraph_model.hpp"
#include "model/sample.hpp"
#include "trace.hpp"

namespace perfbench {

/// dataset.generate: the default sweep of one platform.
std::vector<pg::dataset::RawDataPoint> generate(const pg::sim::Platform& platform,
                                                std::uint64_t seed);

/// dataset.sample_build: parse, build, encode, scale and split.
pg::model::SampleSet build_samples(
    const std::vector<pg::dataset::RawDataPoint>& points);

/// In-RAM training; every epoch is one model.trainer.epoch span.
void train(pg::model::ParaGraphModel& model, const pg::model::SampleSet& set,
           int epochs, std::uint64_t shuffle_seed);

/// model.checkpoint_save then model.checkpoint_load into `reloaded` (same
/// architecture), the way a deployment reloads a trained model. Returns the
/// loaded scalers.
pg::model::CheckpointScalers save_and_reload(
    const std::string& path, const pg::model::ParaGraphModel& trained,
    const pg::model::CheckpointScalers& scalers,
    pg::model::ParaGraphModel& reloaded);

/// Traced-run probes of the training layers on the workload's own samples:
/// model.trainer.val_predict (one predict_samples_us over the validation
/// split), model.fwd_bwd (accumulate_gradients_batch on one packed batch of
/// the trainer's batch size) and nn.adam_step (Adam::step).
void probe_training_layers(pg::model::ParaGraphModel& model,
                           const pg::model::SampleSet& set);

/// The per-layer metrics every workload fills from its spans: set-up
/// layers, trainer epochs, checkpoints and the training probes.
void common_layer_metrics(const std::vector<trace::Span>& spans,
                          Outcome& out);

/// Trainer batch size used everywhere (the paper's 32).
inline constexpr int kBatchSize = 32;

}  // namespace perfbench

// COMPOFF baseline (Mishra et al., IPDPSW'22): a portable *static* cost
// model that predicts OpenMP offloading runtime from hand-engineered
// operation counts fed to a fully-connected feed-forward network (MLP).
//
// Feature vector — raw operation counts, per COMPOFF's "number of
// operations contained within a kernel" design:
//   [ flops, int_ops, transcendental, loads+stores, transfer bytes,
//     loop_depth, parallel iterations, collapse_depth ]
// Each feature and the target are MinMax-scaled.
//
// Two deliberate fidelity choices (both of which the ParaGraph paper calls
// out as COMPOFF's limitations):
//  * raw (not log) counts — after MinMax scaling, kernels orders of
//    magnitude below the sweep maximum compress toward the feature-space
//    origin, the small-kernel weakness of Figs. 8/9;
//  * NO launch-configuration features — COMPOFF is a per-kernel static cost
//    model; the paper's ParaGraph pipeline explicitly adds num_teams /
//    num_threads as extra features, and that difference is part of the gap
//    the comparison demonstrates.
// As in the paper, COMPOFF only models GPU execution (its CPU gap is
// ParaGraph's other headline advantage).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "dataset/generator.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"

namespace pg::compoff {

constexpr std::size_t kNumFeatures = 8;

/// Raw (unscaled) feature vector for one kernel instance.
std::array<double, kNumFeatures> extract_features(
    const dataset::RawDataPoint& point);

struct CompoffConfig {
  std::vector<std::size_t> hidden = {64, 64};
  int epochs = 400;
  int batch_size = 64;
  double learning_rate = 1e-3;
  std::uint64_t seed = 77;
  double validation_fraction = 0.1;
  std::uint64_t split_seed = 13;  // match ParaGraph's split for comparability
};

/// Trained COMPOFF model with its scalers.
class CompoffModel {
 public:
  CompoffModel(const CompoffConfig& config, std::size_t num_features);

  /// Trains on the points' features/runtimes; returns per-epoch train MSE.
  std::vector<double> train(const std::vector<dataset::RawDataPoint>& train_points);

  /// Predicted runtime in microseconds (clamped to the observed minimum),
  /// through the calling thread's workspace.
  [[nodiscard]] double predict_us(const dataset::RawDataPoint& point) const;

  /// Batched predict_us calls, in parallel (out.size() must equal
  /// points.size()).
  void predict_batch_us(std::span<const dataset::RawDataPoint> points,
                        std::span<double> out) const;

 private:
  CompoffConfig config_;
  nn::Mlp mlp_;
  std::vector<nn::MinMaxScaler> feature_scalers_;
  nn::MinMaxScaler target_scaler_;
  bool trained_ = false;
};

/// Convenience: 9:1 split + train + validation predictions, mirroring the
/// ParaGraph pipeline so Figs. 8/9 compare like for like.
struct CompoffEvaluation {
  std::vector<double> actual_us;       // validation ground truth
  std::vector<double> predicted_us;    // validation predictions
  double rmse_us = 0.0;
  double norm_rmse = 0.0;
};

CompoffEvaluation train_and_evaluate(
    const std::vector<dataset::RawDataPoint>& points, const CompoffConfig& config);

}  // namespace pg::compoff

// COMPOFF implementation: hand-picked static kernel features and the small
// per-device regression fitted on them (the paper's non-GNN baseline).
#include "compoff/compoff.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "tensor/workspace.hpp"

namespace pg::compoff {

std::array<double, kNumFeatures> extract_features(
    const dataset::RawDataPoint& point) {
  const sim::KernelProfile& p = point.profile;
  return {
      p.flops,
      p.int_ops,
      p.transcendental,
      p.loads + p.stores,
      p.transfer_bytes(),
      static_cast<double>(p.loop_depth),
      static_cast<double>(p.parallel_iterations),
      static_cast<double>(p.collapse_depth),
  };
}

CompoffModel::CompoffModel(const CompoffConfig& config, std::size_t num_features)
    : config_(config), mlp_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(num_features);
        for (std::size_t h : config.hidden) sizes.push_back(h);
        sizes.push_back(1);
        pg::Rng rng(config.seed);
        return nn::Mlp(sizes, rng);
      }()) {
  feature_scalers_.resize(num_features);
}

std::vector<double> CompoffModel::train(
    const std::vector<dataset::RawDataPoint>& train_points) {
  check(!train_points.empty(), "CompoffModel::train: empty training set");

  // Fit scalers.
  std::vector<std::array<double, kNumFeatures>> features;
  std::vector<double> targets;
  features.reserve(train_points.size());
  for (const auto& point : train_points) {
    features.push_back(extract_features(point));
    targets.push_back(point.runtime_us);
  }
  for (std::size_t f = 0; f < kNumFeatures; ++f) {
    std::vector<double> column(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) column[i] = features[i][f];
    feature_scalers_[f].fit(column);
  }
  target_scaler_.fit(targets);

  nn::AdamConfig adam_config;
  adam_config.learning_rate = config_.learning_rate;
  nn::Adam adam(mlp_.parameters(), adam_config);
  std::vector<tensor::Matrix> grads = adam.make_gradient_buffer();

  std::vector<std::size_t> order(train_points.size());
  std::iota(order.begin(), order.end(), 0);
  pg::Rng shuffle_rng(config_.seed + 1);

  std::vector<double> epoch_losses;
  epoch_losses.reserve(config_.epochs);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(config_.batch_size));

      // Dense batch: rows = samples.
      tensor::Matrix x(end - start, kNumFeatures);
      std::vector<double> y(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const auto& f = features[order[i]];
        for (std::size_t c = 0; c < kNumFeatures; ++c)
          x(i - start, c) = static_cast<float>(feature_scalers_[c].transform(f[c]));
        y[i - start] = target_scaler_.transform(targets[order[i]]);
      }

      nn::Mlp::Cache cache;
      tensor::Matrix pred = mlp_.forward(x, cache);
      tensor::Matrix dpred(pred.rows(), 1);
      const double inv_batch = 1.0 / static_cast<double>(pred.rows());
      for (std::size_t i = 0; i < pred.rows(); ++i) {
        const double p = pred(i, 0);
        epoch_loss += nn::mse_loss(p, y[i]);
        dpred(i, 0) = static_cast<float>(nn::mse_grad(p, y[i]) * inv_batch);
      }
      (void)mlp_.backward(dpred, cache, grads);
      adam.step(grads);
      for (auto& g : grads) g.zero();
    }
    epoch_losses.push_back(epoch_loss / static_cast<double>(order.size()));
  }
  trained_ = true;
  return epoch_losses;
}

double CompoffModel::predict_us(const dataset::RawDataPoint& point) const {
  check(trained_, "CompoffModel::predict_us before train");
  thread_local tensor::Workspace ws;
  ws.reset();
  const auto f = extract_features(point);
  tensor::Matrix& x = ws.acquire(1, kNumFeatures);
  for (std::size_t c = 0; c < kNumFeatures; ++c)
    x(0, c) = static_cast<float>(feature_scalers_[c].transform(f[c]));
  const double scaled = mlp_.forward(x, ws)(0, 0);
  // Clamp only at the physical floor. Small kernels sit at ~0 in COMPOFF's
  // MinMax-scaled count features, so the MLP extrapolates there — the
  // small-runtime weakness the paper's Fig. 8 shows.
  return std::max(target_scaler_.inverse(scaled), 0.0);
}

void CompoffModel::predict_batch_us(std::span<const dataset::RawDataPoint> points,
                                    std::span<double> out) const {
  check(points.size() == out.size(),
        "CompoffModel::predict_batch_us: span length mismatch");
  parallel_for(points.size(), 16, [&](std::size_t i, int) {
    out[i] = predict_us(points[i]);
  });
}

CompoffEvaluation train_and_evaluate(
    const std::vector<dataset::RawDataPoint>& points,
    const CompoffConfig& config) {
  check(points.size() >= 10, "COMPOFF evaluation needs a non-trivial dataset");

  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  pg::Rng rng(config.split_seed);
  rng.shuffle(order);
  const std::size_t val_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(points.size()) *
                                  config.validation_fraction));
  const std::size_t train_count = points.size() - val_count;

  std::vector<dataset::RawDataPoint> train_points;
  train_points.reserve(train_count);
  for (std::size_t k = 0; k < train_count; ++k)
    train_points.push_back(points[order[k]]);

  CompoffModel model(config, kNumFeatures);
  model.train(train_points);

  CompoffEvaluation eval;
  std::vector<dataset::RawDataPoint> val_points;
  val_points.reserve(points.size() - train_count);
  for (std::size_t k = train_count; k < points.size(); ++k) {
    const auto& point = points[order[k]];
    val_points.push_back(point);
    eval.actual_us.push_back(point.runtime_us);
  }
  eval.predicted_us.resize(val_points.size());
  model.predict_batch_us(val_points, eval.predicted_us);
  eval.rmse_us = stats::rmse(eval.actual_us, eval.predicted_us);
  const double range = stats::max(eval.actual_us) - stats::min(eval.actual_us);
  eval.norm_rmse = range > 0.0 ? eval.rmse_us / range : 0.0;
  return eval;
}

}  // namespace pg::compoff

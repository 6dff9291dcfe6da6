// Tests for the COMPOFF baseline: feature extraction and the MLP cost model.
#include <gtest/gtest.h>

#include <omp.h>

#include <vector>

#include "compoff/compoff.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace pg::compoff {
namespace {

dataset::RawDataPoint make_point(double flops, double transfer,
                                 std::int64_t teams, std::int64_t threads) {
  dataset::RawDataPoint p;
  p.app = "MM";
  p.kernel = "matmul";
  p.variant = transfer > 0 ? "gpu_mem" : "gpu";
  p.num_teams = teams;
  p.num_threads = threads;
  p.profile.flops = flops;
  p.profile.int_ops = flops * 0.1;
  p.profile.loads = flops * 0.5;
  p.profile.stores = flops * 0.1;
  p.profile.transfer_to_bytes = transfer;
  p.profile.loop_depth = 3;
  p.profile.parallel_iterations = static_cast<std::int64_t>(flops / 100.0) + 1;
  p.profile.collapse_depth = 1;
  // A plausible synthetic runtime: work / throughput + transfer.
  p.runtime_us = flops / 1e4 + transfer / 1e4 + 30.0;
  return p;
}

std::vector<dataset::RawDataPoint> synthetic_points(std::size_t n) {
  std::vector<dataset::RawDataPoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double flops = 1e5 * static_cast<double>(1 + (i % 23));
    const double transfer = (i % 2 == 0) ? 1e6 : 0.0;
    points.push_back(make_point(flops, transfer, 1 << (i % 5), 64));
  }
  return points;
}

TEST(CompoffFeatures, VectorHasDocumentedLayout) {
  const auto p = make_point(1e6, 2e6, 128, 256);
  const auto f = extract_features(p);
  ASSERT_EQ(f.size(), kNumFeatures);
  EXPECT_DOUBLE_EQ(f[0], 1e6);  // flops (raw counts, per COMPOFF's design)
  EXPECT_DOUBLE_EQ(f[4], 2e6);  // transfer bytes
  EXPECT_DOUBLE_EQ(f[5], 3.0);  // loop depth
  EXPECT_DOUBLE_EQ(f[7], 1.0);  // collapse depth
}

TEST(CompoffFeatures, NoLaunchConfigFeatures) {
  // Per-kernel static cost model: identical kernel code under different
  // launch configurations maps to the same feature vector.
  const auto a = extract_features(make_point(1e6, 0, 32, 64));
  const auto b = extract_features(make_point(1e6, 0, 1024, 256));
  EXPECT_EQ(a, b);
}

TEST(CompoffFeatures, MoreWorkBiggerFeatures) {
  const auto small = extract_features(make_point(1e4, 0, 4, 64));
  const auto big = extract_features(make_point(1e8, 0, 4, 64));
  EXPECT_GT(big[0], small[0]);
  EXPECT_GT(big[3], small[3]);
}

TEST(CompoffModel, PredictBeforeTrainThrows) {
  CompoffModel model(CompoffConfig{}, kNumFeatures);
  EXPECT_THROW((void)model.predict_us(make_point(1e6, 0, 4, 64)), InternalError);
}

TEST(CompoffModel, LearnsMonotonicRuntime) {
  CompoffConfig config;
  config.epochs = 300;
  CompoffModel model(config, kNumFeatures);
  const auto points = synthetic_points(200);
  const auto losses = model.train(points);
  ASSERT_EQ(losses.size(), 300u);
  EXPECT_LT(losses.back(), losses.front() * 0.1);

  // Predictions preserve the work ordering.
  const double small = model.predict_us(make_point(1e5, 0, 4, 64));
  const double big = model.predict_us(make_point(2.2e6, 0, 4, 64));
  EXPECT_GT(big, small);
}

TEST(CompoffModel, PredictionsClampedAtZero) {
  CompoffConfig config;
  config.epochs = 50;
  CompoffModel model(config, kNumFeatures);
  const auto points = synthetic_points(100);
  model.train(points);
  const double pred = model.predict_us(make_point(1.0, 0, 1, 1));
  EXPECT_GE(pred, 0.0);  // physical floor only, no dataset-min prior
}

TEST(CompoffModel, BatchAfterThreadCountIncreaseMatchesPredictUs) {
  // The workspace pool is sized at construction; a later, larger
  // omp_set_num_threads must not hand a point to a thread id past it.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  CompoffConfig config;
  config.epochs = 5;
  CompoffModel model(config, kNumFeatures);
  const auto points = synthetic_points(64);
  model.train(points);

  omp_set_num_threads(3);
  std::vector<double> batched(points.size());
  model.predict_batch_us(points, batched);
  omp_set_num_threads(saved_threads);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(batched[i], model.predict_us(points[i])) << i;
}

TEST(CompoffEvaluate, SplitsAndReportsMetrics) {
  const auto points = synthetic_points(300);
  CompoffConfig config;
  config.epochs = 200;
  const CompoffEvaluation eval = train_and_evaluate(points, config);
  EXPECT_EQ(eval.actual_us.size(), 30u);  // 10% validation
  EXPECT_EQ(eval.predicted_us.size(), eval.actual_us.size());
  EXPECT_GT(eval.rmse_us, 0.0);
  EXPECT_LT(eval.norm_rmse, 0.2);  // learnable synthetic problem
  // Predictions correlate strongly with actuals.
  EXPECT_GT(stats::pearson(eval.actual_us, eval.predicted_us), 0.9);
}

TEST(CompoffEvaluate, TinyDatasetThrows) {
  EXPECT_THROW(train_and_evaluate(synthetic_points(5), {}), InternalError);
}

}  // namespace
}  // namespace pg::compoff

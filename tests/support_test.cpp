// Tests for src/support: rng, stats, table, csv, env, check, parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pg {
namespace {

// ---------------------------------------------------------------- check ---

TEST(Check, PassingConditionDoesNothing) { EXPECT_NO_THROW(check(true, "ok")); }

TEST(Check, FailingConditionThrowsInternalError) {
  EXPECT_THROW(check(false, "boom"), InternalError);
}

TEST(Check, ErrorMessageCarriesLocationAndText) {
  try {
    check(false, "my-marker");
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("my-marker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(99);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng rng(42);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalJitterMedianNearOne) {
  Rng rng(5);
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) below += (rng.lognormal_jitter(0.05) < 1.0);
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(3);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (child1.next() == child2.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, IndexStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_EQ(rng.index(0), 0u);
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 2.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.5, 2.0};
  EXPECT_DOUBLE_EQ(stats::min(xs), -1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 7.5);
}

TEST(Stats, RmsePerfectPredictionIsZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::rmse(a, a), 0.0);
}

TEST(Stats, RmseKnownValue) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> p = {3.0, 4.0};
  EXPECT_NEAR(stats::rmse(a, p), std::sqrt(12.5), 1e-12);
}

TEST(Stats, NormalizedRmseDividesByRange) {
  const std::vector<double> a = {0.0, 10.0};
  const std::vector<double> p = {1.0, 9.0};
  EXPECT_NEAR(stats::normalized_rmse(a, p), 0.1, 1e-12);
}

TEST(Stats, RelativeErrorMeanAbsOverRange) {
  const std::vector<double> a = {0.0, 10.0};
  const std::vector<double> p = {2.0, 10.0};
  EXPECT_NEAR(stats::relative_error(a, p), 0.1, 1e-12);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {3.0, 2.0, 1.0};
  EXPECT_NEAR(stats::pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::pearson(x, y), 0.0);
}

TEST(Stats, TenSecondBinBoundaries) {
  EXPECT_EQ(stats::ten_second_bin(0.0), 0u);
  EXPECT_EQ(stats::ten_second_bin(9.999e6), 0u);
  EXPECT_EQ(stats::ten_second_bin(10.0e6), 1u);
  EXPECT_EQ(stats::ten_second_bin(95.0e6), 9u);
  EXPECT_EQ(stats::ten_second_bin(100.0e6), 10u);
  EXPECT_EQ(stats::ten_second_bin(1e9), 10u);  // clamped to last bin
}

TEST(Stats, SizeMismatchThrows) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> p = {1.0};
  EXPECT_THROW(stats::rmse(a, p), InternalError);
}

TEST(Stats, EmptyInputThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), InternalError);
  EXPECT_THROW(stats::stddev(empty), InternalError);
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersHeaderSeparatorAndRows) {
  TextTable t({"A", "B"});
  t.add_row({"1", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TextTable, ColumnsPadToWidestCell) {
  TextTable t({"X", "Y"});
  t.add_row({"longvalue", "z"});
  const std::string out = t.render();
  // Header row must be padded to the data width: "X        " before " | ".
  EXPECT_NE(out.find("X         | Y"), std::string::npos);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), InternalError);
}

TEST(FormatDouble, SignificantDigits) {
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(1234.0, 2), "1.2e+03");
}

TEST(FormatSci, PaperStyle) {
  EXPECT_EQ(format_sci(0.009, 1), "9 x 10^-3");
  EXPECT_EQ(format_sci(0.0), "0");
}

// ------------------------------------------------------------------ csv ---

TEST(CsvWriter, WritesHeaderAndQuotedCells) {
  const auto path = std::filesystem::temp_directory_path() / "pg_csv_test.csv";
  {
    CsvWriter csv(path.string(), {"name", "value"});
    csv.add_row({"plain", "1"});
    csv.add_row({"with,comma", "quote\"inside"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
  std::filesystem::remove(path);
}

TEST(CsvWriter, ArityMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "pg_csv_test2.csv";
  CsvWriter csv(path.string(), {"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), InternalError);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------ env ---

TEST(Env, StringFallbackWhenUnset) {
  ::unsetenv("PG_TEST_UNSET_VAR");
  EXPECT_EQ(env_string("PG_TEST_UNSET_VAR", "fallback"), "fallback");
}

TEST(Env, IntParsesAndFallsBack) {
  ::setenv("PG_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("PG_TEST_INT", 0), 42);
  ::setenv("PG_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env_int("PG_TEST_INT", 7), 7);
  ::unsetenv("PG_TEST_INT");
}

TEST(Env, RunScaleParsing) {
  ::setenv("PARAGRAPH_SCALE", "smoke", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kSmoke);
  ::setenv("PARAGRAPH_SCALE", "full", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kFull);
  ::setenv("PARAGRAPH_SCALE", "anything-else", 1);
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
  ::unsetenv("PARAGRAPH_SCALE");
  EXPECT_EQ(run_scale_from_env(), RunScale::kDefault);
}

TEST(Env, ScaleNames) {
  EXPECT_STREQ(to_string(RunScale::kSmoke), "smoke");
  EXPECT_STREQ(to_string(RunScale::kDefault), "default");
  EXPECT_STREQ(to_string(RunScale::kFull), "full");
}

// ------------------------------------------------------------- parallel ---

/// Restores the calling thread's thread count when a test ends.
class ParallelFor : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(saved_threads_); }
  int saved_threads_ = thread_count();
};

TEST_F(ParallelFor, RethrowsTheLowestIndexExceptionAtOneAndFourThreads) {
  for (int threads : {1, 4}) {
    set_thread_count(threads);
    std::vector<char> ran(1000, 0);
    try {
      parallel_for(ran.size(), 7, [&](std::size_t i, int) {
        ran[i] = 1;
        // Index 300 throws last, after higher failing indices have thrown.
        if (i == 300)
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (i == 300 || i == 301 || i == 900)
          throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "300") << threads << " threads";
    }
    // Every index below the failure ran, as in a sequential pass.
    for (std::size_t i = 0; i <= 300; ++i)
      ASSERT_EQ(ran[i], 1) << i << " at " << threads << " threads";
  }
}

TEST_F(ParallelFor, NestedCallRunsInlineOnItsCaller) {
  set_thread_count(4);
  constexpr std::size_t kOuter = 16;
  std::vector<char> inline_ok(kOuter, 0);
  std::vector<int> inner_threads(kOuter, 0);
  parallel_for(kOuter, 1, [&](std::size_t i, int) {
    const std::thread::id caller = std::this_thread::get_id();
    inner_threads[i] = thread_count();
    std::vector<std::size_t> order;
    bool ok = true;
    parallel_for(5, 1, [&](std::size_t j, int worker) {
      order.push_back(j);
      ok = ok && worker == 0 && std::this_thread::get_id() == caller;
    });
    inline_ok[i] = ok && order == std::vector<std::size_t>{0, 1, 2, 3, 4};
  });
  for (std::size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(inline_ok[i], 1) << i;
    EXPECT_EQ(inner_threads[i], 1) << i;
  }
}

TEST_F(ParallelFor, OneThreadRunsAscendingOnTheCallingThread) {
  set_thread_count(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool same_thread = true;
  int max_worker = 0;
  parallel_for(100, 8, [&](std::size_t i, int worker) {
    order.push_back(i);
    same_thread = same_thread && std::this_thread::get_id() == caller;
    max_worker = std::max(max_worker, worker);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(max_worker, 0);
}

TEST_F(ParallelFor, WorkerIndexStaysBelowThreadCount) {
  for (int threads : {1, 2, 3, 4}) {
    set_thread_count(threads);
    const int team = thread_count();
    std::vector<int> worker_of(2000, -1);
    parallel_for(worker_of.size(), 3, [&](std::size_t i, int worker) {
      worker_of[i] = worker;
    });
    for (std::size_t i = 0; i < worker_of.size(); ++i) {
      EXPECT_GE(worker_of[i], 0) << i;
      EXPECT_LT(worker_of[i], team) << i;
    }
  }
}

TEST_F(ParallelFor, BlocksCoverTheRangeOnce) {
  set_thread_count(4);
  std::vector<int> hits(1001, 0);
  parallel_for_blocks(hits.size(), 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST_F(ParallelFor, ThreadCountBelowOneThrows) {
  EXPECT_THROW(set_thread_count(0), InternalError);
}

}  // namespace
}  // namespace pg

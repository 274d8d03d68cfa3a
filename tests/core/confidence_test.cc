#include "core/confidence.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

ResultColumns rtt_results(const PathTable& table) {
  return analyze_alternate_columns(table, AnalyzerOptions{}).value();
}

TEST(Confidence, TallyFractionsSumToOne) {
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 10);
  add_invocations(ds, 0, 2, 30.0, 10);
  add_invocations(ds, 2, 1, 30.0, 10);
  add_invocations(ds, 0, 3, 80.0, 10);
  add_invocations(ds, 3, 1, 80.0, 10);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto tally = classify_significance(rtt_results(table)).value();
  EXPECT_GT(tally.pairs, 0u);
  EXPECT_NEAR(tally.better + tally.worse + tally.indeterminate + tally.zero,
              1.0, 1e-12);
}

TEST(Confidence, ClearWinnerClassifiedBetter) {
  // Constant samples -> tiny variance -> decisive verdicts.
  auto ds = make_dataset(3);
  for (int i = 0; i < 20; ++i) {
    add_invocation(ds, 0, 1, {100.0 + (i % 3), 100.0, 100.0});
    add_invocation(ds, 0, 2, {30.0 + (i % 3), 30.0, 30.0});
    add_invocation(ds, 2, 1, {30.0 + (i % 3), 30.0, 30.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto results = rtt_results(table);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto t = stats::welch_ttest(results.default_estimate(i),
                                      results.alternate_estimate(i));
    if (results.src[i] == 0 && results.dst[i] == 1) {
      EXPECT_EQ(t.verdict, stats::Significance::kBetter);
    } else {
      EXPECT_EQ(t.verdict, stats::Significance::kWorse);
    }
  }
}

TEST(Confidence, NoisyTieIndeterminate) {
  auto ds = make_dataset(3);
  Rng rng{9};
  for (int i = 0; i < 15; ++i) {
    add_invocation(ds, 0, 1, {60.0 + rng.normal(0, 20), 60.0 + rng.normal(0, 20),
                              60.0 + rng.normal(0, 20)});
    add_invocation(ds, 0, 2, {30.0 + rng.normal(0, 20), 30.0 + rng.normal(0, 20),
                              30.0 + rng.normal(0, 20)});
    add_invocation(ds, 2, 1, {30.0 + rng.normal(0, 20), 30.0 + rng.normal(0, 20),
                              30.0 + rng.normal(0, 20)});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto tally = classify_significance(rtt_results(table)).value();
  EXPECT_GT(tally.indeterminate, 0.0);
}

TEST(Confidence, LossZeroClass) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 10);  // no losses anywhere
  add_invocations(ds, 0, 2, 10.0, 10);
  add_invocations(ds, 2, 1, 10.0, 10);
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  const auto tally =
      classify_significance(analyze_alternate_columns(table, opt).value())
          .value();
  EXPECT_DOUBLE_EQ(tally.zero, 1.0);
}

TEST(Confidence, CdfSortedWithFractions) {
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 8);
  add_invocations(ds, 0, 2, 30.0, 8);
  add_invocations(ds, 2, 1, 30.0, 8);
  add_invocations(ds, 0, 3, 50.0, 8);
  add_invocations(ds, 3, 1, 55.0, 8);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto points = confidence_cdf(rtt_results(table));
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].difference, points[i].difference);
    EXPECT_LT(points[i - 1].fraction, points[i].fraction);
  }
  EXPECT_NEAR(points.back().fraction, 1.0, 1e-12);
  for (const auto& p : points) {
    EXPECT_GE(p.half_width, 0.0);
  }
}

TEST(Confidence, EmptyInputHandled) {
  const auto tally = classify_significance(ResultColumns{}).value();
  EXPECT_EQ(tally.pairs, 0u);
  EXPECT_TRUE(confidence_cdf(ResultColumns{}).empty());
}

}  // namespace
}  // namespace pathsel::core

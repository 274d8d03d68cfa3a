// Differential tests of stats::welch_verdict (one t-CDF call inside a guard
// band) against welch_ttest(...).verdict (the bisected t-quantile):
//   * every row of the catalog datasets at scale 0.2 (the six traceroute
//     ones; the TCP ones never reach a t-test), rtt and loss, at several
//     confidence levels, and through annotate_significance and
//     classify_significance at 1/4/8 threads;
//   * an adversarial boundary corpus that puts diff / sqrt(var) within
//     k ulps of the exact bisection quantile, where the shortcut must fall
//     back (and the test fails if it never does);
//   * the degenerate inputs: +-0 differences, zero, infinite and NaN
//     variance, NaN and infinite means, and an overflowing dof;
//   * the core.confidence.verdicts / verdicts_exact counters.
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/confidence.h"
#include "core/coverage.h"
#include "meas/catalog.h"
#include "stats/tdist.h"
#include "stats/ttest.h"
#include "test_util.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pathsel::stats {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kUlp = std::numeric_limits<double>::epsilon();
constexpr std::array<double, 5> kConfidences{0.8, 0.9, 0.95, 0.99, 0.9999};

// Checks one input at one confidence and returns whether the shortcut fell
// back to the exact path.
bool expect_same_verdict(const MeanEstimate& a, const MeanEstimate& b,
                         double confidence) {
  bool exact = false;
  const Significance fast = welch_verdict(a, b, confidence, &exact);
  const Significance want = welch_ttest(a, b, confidence).verdict;
  EXPECT_EQ(fast, want) << "mean " << a.mean << " - " << b.mean << ", var "
                        << a.var_of_mean << " + " << b.var_of_mean
                        << ", dof_denom " << a.dof_denom << " + "
                        << b.dof_denom << ", confidence " << confidence;
  return exact;
}

// The estimate pair whose difference is `diff`, variance `var` and
// Welch-Satterthwaite dof `dof` (up to the rounding of var^2 / dof).
std::array<MeanEstimate, 2> pair_with(double diff, double var, double dof) {
  return {MeanEstimate{diff, var, var * var / dof}, MeanEstimate{}};
}

// The dof welch_ttest derives from pair_with(., var, dof).
double effective_dof(double var, double dof) {
  return std::max(var * var / (var * var / dof), 1.0);
}

// --- catalog rows --------------------------------------------------------

struct CatalogColumns {
  std::string name;
  core::ResultColumns columns;
};

const std::vector<CatalogColumns>& catalog_columns() {
  static const std::vector<CatalogColumns> all = [] {
    std::vector<CatalogColumns> out;
    meas::Catalog catalog{meas::CatalogConfig{.seed = 7, .scale = 0.2}};
    for (const std::string& name : meas::Catalog::dataset_names()) {
      // N2 and N2-NA are TCP transfer datasets: they have no per-probe rtt
      // or loss, and bandwidth analysis never runs a t-test.
      const meas::Dataset& ds = catalog.by_name(name);
      if (ds.kind != meas::MeasurementKind::kTraceroute) continue;
      for (const core::Metric metric :
           {core::Metric::kRtt, core::Metric::kLoss}) {
        core::AnalyzerOptions analyze;
        analyze.metric = metric;
        auto swept = core::analyze_with_coverage(
            ds, test::min_samples(3), analyze);
        EXPECT_TRUE(swept.is_ok()) << name << ": "
                                   << swept.status().to_string();
        if (!swept.is_ok()) continue;
        out.push_back({name + (metric == core::Metric::kRtt ? "/rtt" : "/loss"),
                       std::move(swept.value().columns)});
      }
    }
    return out;
  }();
  return all;
}

TEST(WelchVerdictDiff, EveryCatalogRowAtEveryConfidence) {
  std::size_t rows = 0;
  for (const auto& [name, cols] : catalog_columns()) {
    SCOPED_TRACE(name);
    ASSERT_GT(cols.size(), 0u);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      for (const double c : kConfidences) {
        expect_same_verdict(cols.default_estimate(i),
                            cols.alternate_estimate(i), c);
      }
    }
    rows += cols.size();
  }
  EXPECT_GT(rows, 1000u);
}

TEST(WelchVerdictDiff, AnnotateAndTallyMatchTheExactPathAtAnyThreadCount) {
  for (const auto& [name, source] : catalog_columns()) {
    SCOPED_TRACE(name);
    std::array<std::size_t, 4> want_counts{};
    std::vector<std::int8_t> want(source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      const Significance v = welch_ttest(source.default_estimate(i),
                                         source.alternate_estimate(i))
                                 .verdict;
      want[i] = static_cast<std::int8_t>(v);  // same order as the class enum
      ++want_counts[static_cast<std::size_t>(v)];
    }
    const auto n = static_cast<double>(source.size());
    for (const int threads : {1, 4, 8}) {
      core::ResultColumns cols = source;
      ASSERT_TRUE(core::annotate_significance(cols, 0.95, threads).is_ok());
      EXPECT_EQ(cols.significance, want) << threads << " threads";
      const auto tally =
          core::classify_significance(source, 0.95, threads);
      ASSERT_TRUE(tally.is_ok());
      EXPECT_EQ(tally.value().better, static_cast<double>(want_counts[0]) / n);
      EXPECT_EQ(tally.value().worse, static_cast<double>(want_counts[1]) / n);
      EXPECT_EQ(tally.value().indeterminate,
                static_cast<double>(want_counts[2]) / n);
      EXPECT_EQ(tally.value().zero, static_cast<double>(want_counts[3]) / n);
    }
  }
}

// --- adversarial boundary corpus -----------------------------------------

TEST(WelchVerdictDiff, BoundaryCorpusFallsBackInsideTheBand) {
  const std::vector<double> dofs{1.0,    1.0000001, 1.5,  2.7,    3.25,
                                 7.125,  12.5,      30.0, 99.9,   1e3,
                                 12345.678, 5e5 + 0.5, 1e6};
  const std::vector<double> vars{1.0, 2.5, 1e-6, 3.7e4};
  std::size_t fallbacks = 0;
  std::size_t shortcuts = 0;
  for (const double c : kConfidences) {
    for (const double dof : dofs) {
      for (const double var : vars) {
        const double q = student_t_quantile(1.0 - (1.0 - c) / 2.0,
                                            effective_dof(var, dof));
        // k ulps of q: inside the band up to 1e6, outside it from 1e12.
        for (const double k : {0.0, 1.0, 2.0, 3.0, 10.0, 1e2, 1e3, 1e4, 1e5,
                               1e6, 1e9, 1e12, 1e13}) {
          for (const double sign : {-1.0, 1.0}) {
            const double t = q * (1.0 + sign * k * kUlp);
            for (const double side : {-1.0, 1.0}) {
              const auto [a, b] =
                  pair_with(side * t * std::sqrt(var), var, dof);
              SCOPED_TRACE(::testing::Message()
                           << "dof " << dof << " var " << var << " k "
                           << sign * k << " side " << side);
              const bool exact = expect_same_verdict(a, b, c);
              // The CDF moves by under 1e-10 over 1e6 ulps of q, so the tail
              // is inside the 1e-9 band and only the exact path decides.
              if (k <= 1e6) {
                EXPECT_TRUE(exact);
              } else if (k >= 1e12) {
                EXPECT_FALSE(exact);
              }
              (exact ? fallbacks : shortcuts) += 1;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(shortcuts, 0u);
}

TEST(WelchVerdictDiff, GuardedRegionsTakeTheExactPath) {
  // dof above 1e6, two-sided alpha below 2e-6 or above 0.2.
  for (const double dof : {1e6 * (1.0 + 4 * kUlp), 1e7, 1e9, 1e12, 1e300}) {
    const double q = student_t_quantile(0.975, effective_dof(1.0, dof));
    for (const double t : {0.0, 0.5 * q, q, 2.0 * q, 1e3}) {
      const auto [a, b] = pair_with(t, 1.0, dof);
      EXPECT_TRUE(expect_same_verdict(a, b, 0.95)) << "dof " << dof;
    }
  }
  for (const double c : {1.0 - 1e-7, 1.0 - 1e-12, 0.5, 0.1, 1e-6}) {
    for (const double dof : {1.0, 4.5, 30.0}) {
      const double q = student_t_quantile(1.0 - (1.0 - c) / 2.0, dof);
      for (const double t : {0.0, 0.5 * q, q, 2.0 * q, 1e5}) {
        const auto [a, b] = pair_with(t, 1.0, dof);
        EXPECT_TRUE(expect_same_verdict(a, b, c)) << "confidence " << c;
      }
    }
  }
}

TEST(WelchVerdictDiff, SeededRandomEstimates) {
  Rng rng{2024};
  std::size_t shortcuts = 0;
  for (int i = 0; i < 20000; ++i) {
    const double var_a = std::pow(10.0, rng.uniform(-8.0, 4.0));
    const double var_b = std::pow(10.0, rng.uniform(-8.0, 4.0));
    const MeanEstimate a{rng.uniform(0.0, 300.0), var_a,
                         var_a * var_a / rng.uniform(0.5, 200.0)};
    const MeanEstimate b{rng.uniform(0.0, 300.0), var_b,
                         var_b * var_b / rng.uniform(0.5, 200.0)};
    const double c = kConfidences[static_cast<std::size_t>(i) %
                                  kConfidences.size()];
    if (!expect_same_verdict(a, b, c)) ++shortcuts;
  }
  EXPECT_GT(shortcuts, 19000u);
}

// --- degenerate inputs ---------------------------------------------------

TEST(WelchVerdictDiff, DegenerateInputs) {
  const std::vector<MeanEstimate> estimates{
      {0.0, 0.0, 0.0},    {-0.0, 0.0, 0.0},   {0.0, 1.0, 0.1},
      {-0.0, 1.0, 0.1},   {5.0, 0.0, 0.0},    {5.0, 2.0, 0.0},
      {5.0, 2.0, kInf},   {kNaN, 1.0, 0.1},   {kNaN, 0.0, 0.0},
      {kInf, 1.0, 0.1},   {-kInf, 1.0, 0.1},  {kInf, 0.0, 0.0},
      {5.0, kInf, 0.1},   {5.0, kInf, kInf},  {5.0, kInf, 0.0},
      {5.0, kNaN, 0.1},   {5.0, 1e200, 1.0},  {5.0, 1e-300, 1e-300},
      {1e300, 1e-300, 0.0}, {5.0, 1.0, kNaN},
  };
  for (const double c : {0.8, 0.95, 0.9999, 1.0 - 1e-9}) {
    for (const MeanEstimate& a : estimates) {
      for (const MeanEstimate& b : estimates) {
        expect_same_verdict(a, b, c);
      }
    }
  }
}

TEST(WelchVerdictDiff, OverflowedVarianceIsIndeterminateWithInfiniteWidth) {
  // An RTT of 1e300 overflows the Welford sum of squares: var is +inf.
  for (const MeanEstimate& a :
       {MeanEstimate{1e300, kInf, kInf}, MeanEstimate{5.0, kInf, 0.0},
        MeanEstimate{5.0, 1e200, 1.0}, MeanEstimate{5.0, kNaN, 1.0}}) {
    const MeanEstimate b{1.0, 0.5, 0.01};
    const TTestResult r = welch_ttest(a, b);
    EXPECT_EQ(r.verdict, Significance::kIndeterminate);
    EXPECT_EQ(r.half_width, kInf);
    EXPECT_EQ(welch_verdict(a, b), Significance::kIndeterminate);
  }
}

// --- counters ------------------------------------------------------------

TEST(WelchVerdictDiff, VerdictCountersCountRowsAndFallbacks) {
  const core::ResultColumns& source = catalog_columns().front().columns;
  std::uint64_t want_exact = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    bool exact = false;
    (void)welch_verdict(source.default_estimate(i),
                        source.alternate_estimate(i), 0.95, &exact);
    want_exact += exact ? 1 : 0;
  }
  MetricsRegistry& m = MetricsRegistry::global();
  m.reset();
  m.enable(true);
  core::ResultColumns cols = source;
  ASSERT_TRUE(core::annotate_significance(cols, 0.95, 4).is_ok());
  ASSERT_TRUE(core::classify_significance(cols, 0.95, 4).is_ok());
  const MetricsSnapshot snap = m.snapshot();
  m.enable(false);
  m.reset();
  std::uint64_t verdicts = 0;
  std::uint64_t exact = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "core.confidence.verdicts") verdicts = value;
    if (name == "core.confidence.verdicts_exact") exact = value;
  }
  EXPECT_EQ(verdicts, 2 * source.size());
  EXPECT_EQ(exact, 2 * want_exact);

  // Off: nothing is recorded.
  ASSERT_TRUE(core::annotate_significance(cols, 0.95, 4).is_ok());
  EXPECT_TRUE(m.snapshot().counters.empty());
}

}  // namespace
}  // namespace pathsel::stats

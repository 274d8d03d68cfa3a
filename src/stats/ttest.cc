#include "stats/ttest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/tdist.h"
#include "util/expect.h"

namespace pathsel::stats {

namespace {

// Welch-Satterthwaite degrees of freedom, at least 1 (std::max keeps a NaN).
double welch_dof(const MeanEstimate& default_path,
                 const MeanEstimate& alternate, double var) noexcept {
  const double dof_denom = default_path.dof_denom + alternate.dof_denom;
  return std::max(dof_denom > 0.0 ? var * var / dof_denom : 1.0, 1.0);
}

}  // namespace

TTestResult welch_ttest(const MeanEstimate& default_path,
                        const MeanEstimate& alternate,
                        double confidence) noexcept {
  PATHSEL_EXPECT(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
  TTestResult r;
  r.difference = default_path.mean - alternate.mean;

  const double var = default_path.var_of_mean + alternate.var_of_mean;
  if (var <= 0.0) {
    // No variance at all: both paths were perfectly consistent.  With equal
    // means (the loss-rate zero/zero case) the difference is exactly zero.
    if (r.difference == 0.0) {
      r.verdict = Significance::kZero;
    } else {
      r.verdict = r.difference > 0.0 ? Significance::kBetter
                                     : Significance::kWorse;
    }
    return r;
  }

  r.dof = welch_dof(default_path, alternate, var);
  if (!std::isfinite(var) || !std::isfinite(r.dof)) {
    // An overflowed sum of squares carries no usable spread: the interval is
    // unbounded, so nothing is significant.
    r.half_width = std::numeric_limits<double>::infinity();
    return r;
  }

  const double p = 1.0 - (1.0 - confidence) / 2.0;
  r.half_width = student_t_quantile(p, r.dof) * std::sqrt(var);

  if (r.difference - r.half_width > 0.0) {
    r.verdict = Significance::kBetter;
  } else if (r.difference + r.half_width < 0.0) {
    r.verdict = Significance::kWorse;
  } else {
    r.verdict = Significance::kIndeterminate;
  }
  return r;
}

Significance welch_verdict(const MeanEstimate& default_path,
                           const MeanEstimate& alternate, double confidence,
                           bool* exact) noexcept {
  PATHSEL_EXPECT(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
  if (exact != nullptr) *exact = false;
  const double var = default_path.var_of_mean + alternate.var_of_mean;
  // Without variance welch_ttest() decides from the means, with no quantile.
  if (var <= 0.0) {
    return welch_ttest(default_path, alternate, confidence).verdict;
  }
  const double difference = default_path.mean - alternate.mean;

  // The band and every fallback condition are argued in ttest.h.
  constexpr double kBand = 1e-9;
  const double dof = welch_dof(default_path, alternate, var);
  const double t = std::fabs(difference) / std::sqrt(var);
  const double half_alpha = (1.0 - confidence) / 2.0;
  if (std::isfinite(t) && dof <= 1e6 && half_alpha >= 1e-6 &&
      half_alpha <= 0.1) {
    const double tail =
        t == 0.0 ? 0.5
                 : 0.5 * incomplete_beta(0.5 * dof, 0.5, dof / (dof + t * t));
    if (tail < half_alpha - kBand) {
      return difference > 0.0 ? Significance::kBetter : Significance::kWorse;
    }
    if (tail > half_alpha + kBand) return Significance::kIndeterminate;
  }
  if (exact != nullptr) *exact = true;
  return welch_ttest(default_path, alternate, confidence).verdict;
}

const char* to_string(Significance s) noexcept {
  switch (s) {
    case Significance::kBetter: return "better";
    case Significance::kWorse: return "worse";
    case Significance::kIndeterminate: return "indeterminate";
    case Significance::kZero: return "zero";
  }
  return "?";
}

}  // namespace pathsel::stats

// Welch's t-test between composed mean estimates.
//
// Tables 2 and 3 of the paper classify each host pair by whether the
// difference between the default path's mean and the best alternate path's
// mean is significantly above zero, below zero, or indeterminate at the 95%
// confidence level; loss rate adds an "is zero" class for pairs with no
// measured losses on either path.
//
// welch_ttest() computes the interval, inverting the t CDF by bisection
// (student_t_quantile, 45-60 CDF calls).  welch_verdict() returns the same
// verdict from one CDF call: with t = |diff| / sqrt(var), tail = P(T > t)
// and a = (1 - confidence) / 2, a tail below a - 1e-9 is significant, above
// a + 1e-9 indeterminate, and inside that band welch_ttest() decides.
//
// Why they agree: the bisection ends on a bracket [lo, hi] with
// cdf(lo) < 1 - a <= cdf(hi) and hi - lo < 1e-12 * (1 + hi), and returns its
// midpoint q.  Over that bracket the computed CDF moves by under 1e-11: the
// density times the width is under 1e-12, and its rounding steps and
// non-monotone wiggles measure at most 8.6e-12 and 5.6e-15 over every double
// of the bracket, for dof in [1, 1e6] and a in [1e-6, 0.1].  So a tail below
// a - 1e-9 puts t above hi, where diff clears the half-width q * sqrt(var),
// and a tail above a + 1e-9 puts t below lo.  The band is 100x wider than
// what it covers.  Outside that measured region the shortcut always falls
// back: non-finite t or dof; dof > 1e6 (x = dof / (dof + t^2) rounds near 1
// and the steps grow with dof, to about 1e-10 at 1e7); a < 1e-6 (the dof = 1
// quantile nears the bisection's +-1e6 bracket); a > 0.1 (the steps grow as
// the quantile nears zero).
#pragma once

#include "stats/summary.h"

namespace pathsel::stats {

enum class Significance {
  kBetter,         // alternate significantly better (default - alternate > 0)
  kWorse,          // alternate significantly worse
  kIndeterminate,  // confidence interval crosses zero
  kZero,           // both estimates exactly zero (loss-rate-only class)
};

struct TTestResult {
  double difference = 0.0;  // default mean - alternate mean
  double half_width = 0.0;  // t[.975; v] * stddev of the difference
  double dof = 0.0;
  Significance verdict = Significance::kIndeterminate;
};

/// Classifies `default_path - alternate` at the given confidence level
/// (default 95%).  Both estimates must come from MeanEstimate composition so
/// variance and Welch-Satterthwaite degrees of freedom are propagated.
/// A non-finite variance or dof (an overflowed sum of squares) gives
/// kIndeterminate with half_width = +inf.
[[nodiscard]] TTestResult welch_ttest(const MeanEstimate& default_path,
                                      const MeanEstimate& alternate,
                                      double confidence = 0.95) noexcept;

/// welch_ttest(default_path, alternate, confidence).verdict without the
/// quantile (see the header comment).  When `exact` is non-null it is set to
/// whether the verdict came from the welch_ttest() fallback.
[[nodiscard]] Significance welch_verdict(const MeanEstimate& default_path,
                                         const MeanEstimate& alternate,
                                         double confidence = 0.95,
                                         bool* exact = nullptr) noexcept;

[[nodiscard]] const char* to_string(Significance s) noexcept;

}  // namespace pathsel::stats

// Confidence analysis (§6.2: Figures 7/8, Tables 2/3).
//
// For every pair the difference between the default mean and the best
// alternate's composed mean carries a 95% confidence interval computed as in
// the paper ((a - b) ± t[.975; v] · s, Jain's formulation) with
// Welch-Satterthwaite degrees of freedom from the per-edge sample statistics.
// Tables 2/3 classify pairs as better / worse / indeterminate (loss adds a
// "zero" class for pairs that saw no losses at all on either path).  Every
// function here reads the ResultColumns of one sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/result_columns.h"
#include "stats/ttest.h"

namespace pathsel::core {

struct SignificanceTally {
  std::size_t pairs = 0;
  double better = 0.0;         // fraction of pairs
  double indeterminate = 0.0;
  double worse = 0.0;
  double zero = 0.0;           // loss-rate only
};

/// Tallies the per-pair verdicts of classify_pair().  `threads` <= 0 means
/// util::default_thread_count(); 1 forces the serial path; the tally is
/// bit-identical for every thread count.  `cancel` is polled before every
/// chunk, and a tripped token surfaces as its Status (kDeadlineExceeded or
/// kCancelled).
[[nodiscard]] Result<SignificanceTally> classify_significance(
    const ResultColumns& results, double confidence = 0.95, int threads = 0,
    const CancelToken* cancel = nullptr);

/// Verdicts given by classify_pair() and how many of them took
/// stats::welch_verdict()'s exact-quantile fallback.  Sweeps keep one per
/// chunk and the serve engine one per flush; record() adds them to the
/// core.confidence.verdicts and core.confidence.verdicts_exact counters.
struct VerdictCount {
  std::uint64_t verdicts = 0;
  std::uint64_t exact = 0;

  void record() const;
};

/// The verdict annotate_significance() writes for one pair, and the one the
/// tallies count: stats::welch_verdict(), equal to welch_ttest().verdict.
/// Exposed so the serve engine can re-classify just the rows an incremental
/// update touched and land on exactly the bytes a full annotate sweep would
/// produce.  Adds the verdict to `count` when it is non-null.
[[nodiscard]] SignificanceClass classify_pair(const ResultColumns& results,
                                              std::size_t i, double confidence,
                                              VerdictCount* count = nullptr);

/// Fills the significance column with the per-pair welch_ttest verdicts the
/// tallies above count (same confidence, same chunking — bit-identical for
/// every thread count).  Serialized files then carry the classification, so
/// a --results-in consumer can re-tally without the estimate sweeps.
[[nodiscard]] Status annotate_significance(ResultColumns& results,
                                           double confidence = 0.95,
                                           int threads = 0,
                                           const CancelToken* cancel = nullptr);

/// One point of the Figure 7/8 plot: the pair's mean difference, its
/// cumulative fraction, and the CI half-width to draw as an error bar.
struct CiPoint {
  double difference = 0.0;
  double fraction = 0.0;
  double half_width = 0.0;
};

/// Points sorted by difference (the CDF), each with its own half-width;
/// bit-identical for every thread count.
[[nodiscard]] std::vector<CiPoint> confidence_cdf(
    const ResultColumns& results, double confidence = 0.95, int threads = 0);

}  // namespace pathsel::core

// analyze_uw3: the paper's full offline analysis, one client, closed loop.
//
// Set-up generates UW3 at scale 1 and serializes it to text.  Each op parses
// that text and runs the §6 pipeline for RTT and loss: path graph, best
// alternate per pair, columns, per-pair Welch t-test verdicts (Tables 2/3),
// the Figure 7/8 confidence CDF and the Figure 1/3 improvement CDF.  Each
// op's serialized columns and figure digest must equal a reference computed
// in set-up on the serial (threads = 1) path.
#include <cstdio>
#include <istream>
#include <sstream>
#include <streambuf>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "harness.h"
#include "meas/catalog.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"

namespace pathsel::perfbench {
namespace {

constexpr core::Metric kMetrics[] = {core::Metric::kRtt, core::Metric::kLoss};

struct Analysis {
  std::string columns;           // serialize_result_columns of both metrics
  std::uint32_t figures_crc = 0;  // CI points, CDF order statistics, fractions
};

/// Reads a string in place.  A std::istringstream would copy the whole text
/// first (an 8 MB memcpy and about 8000 page faults per op), work that
/// reading a dataset file through std::ifstream never does.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& text) {
    // The get area is only read from; streambuf's interface is non-const.
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

void fold(std::string& digest, const void* data, std::size_t size) {
  digest.append(static_cast<const char*>(data), size);
}

Analysis analyze(const std::string& text, int threads, Tracer& tracer) {
  meas::Dataset ds;
  {
    auto span = tracer.span("meas.read_dataset");
    StringViewBuf buf{text};
    std::istream is{&buf};
    std::string error;
    auto parsed = meas::read_dataset(is, &error);
    if (!parsed.has_value()) throw std::runtime_error("UW3 parse: " + error);
    ds = std::move(*parsed);
    span.set_amount(static_cast<double>(text.size()));
  }
  core::BuildOptions build;
  build.threads = threads;
  core::PathTable table = [&] {
    auto span = tracer.span("core.path_table.build");
    return core::PathTable::build(ds, build);
  }();

  std::vector<core::ResultColumns> sets;
  std::string figures;
  for (const core::Metric metric : kMetrics) {
    core::AnalyzerOptions options;
    options.metric = metric;
    options.threads = threads;
    std::vector<core::PairResult> pairs;
    {
      auto span = tracer.span("core.alternate.sweep");
      pairs = core::analyze_alternate_paths(table, options);
    }
    core::ResultColumns cols;
    {
      auto span = tracer.span("core.result_columns.from_pairs");
      cols = core::from_pairs(pairs, metric);
    }
    {
      auto span = tracer.span("core.confidence.annotate");
      if (!core::annotate_significance(cols, 0.95, threads).is_ok()) {
        throw std::runtime_error("annotate_significance failed");
      }
    }
    std::vector<core::CiPoint> ci;
    {
      auto span = tracer.span("core.confidence.ci_cdf");
      ci = core::confidence_cdf(cols, 0.95, threads);
    }
    double improved = 0.0;
    double above = 0.0;
    double median = 0.0;
    {
      auto span = tracer.span("core.figures");
      const stats::EmpiricalCdf cdf = core::improvement_cdf(cols, threads);
      above = cdf.fraction_above(0.0);
      median = cdf.value_at_fraction(0.5);
      improved = core::fraction_improved(cols, threads);
    }
    fold(figures, ci.data(), ci.size() * sizeof(core::CiPoint));
    fold(figures, &improved, sizeof improved);
    fold(figures, &above, sizeof above);
    fold(figures, &median, sizeof median);
    sets.push_back(std::move(cols));
  }
  return {core::serialize_result_columns(sets), crc32(figures)};
}

class AnalyzeUw3 final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    meas::CatalogConfig config;
    config.seed = seed;
    config.scale = 1.0;
    meas::Catalog catalog{config};
    std::ostringstream os;
    meas::write_dataset(os, catalog.uw3());
    text_ = os.str();
  }

  void prepare_reference(bool tamper) override {
    Tracer off{false};
    reference_ = analyze(text_, 1, off);
    if (tamper) reference_.columns[reference_.columns.size() / 2] ^= 1;
  }

  void run(const Options& options, Tracer& tracer, Outcome& out) override {
    Analysis last;
    closed_loop(
        options, tracer, out,
        [&](std::uint64_t) {
          try {
            last = analyze(text_, kThreads, tracer);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "analyze_uw3: %s\n", e.what());
            last = {};
          }
        },
        [&](std::uint64_t) {
          return last.columns == reference_.columns &&
                 last.figures_crc == reference_.figures_crc;
        });
  }

  [[nodiscard]] int pool_threads() const override { return kThreads; }

 private:
  std::string text_;
  Analysis reference_;
};

}  // namespace

std::unique_ptr<Workload> make_analyze_uw3() {
  return std::make_unique<AnalyzeUw3>();
}

}  // namespace pathsel::perfbench

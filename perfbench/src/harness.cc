#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <string>

#include "stats/quantile.h"

namespace pathsel::perfbench {

namespace {

/// Registry counters are averaged over the first this-many traced ops.  The
/// fault workload cycles through 15 fault seeds and traces every other op,
/// so the first 15 traced ops cover the cycle once: the per-op counts are
/// then exact and repeat run to run.
constexpr std::size_t kCountedOps = 15;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The order and units here are the ones BENCHMARK.json lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"meas.read_dataset.ms", "ms"},
    {"meas.read_dataset.MB_per_s", "MB/s"},
    {"meas.write_dataset.ms", "ms"},
    {"meas.write_dataset.MB_per_s", "MB/s"},
    {"meas.collect.ms", "ms"},
    {"meas.collect.measurements", "count"},
    {"core.path_table.build.ms", "ms"},
    {"core.alternate.sweep.ms", "ms"},
    {"core.result_columns.from_pairs.ms", "ms"},
    {"core.confidence.annotate.ms", "ms"},
    {"core.confidence.ci_cdf.ms", "ms"},
    {"core.figures.ms", "ms"},
    {"serve.submit.us", "us"},
    {"serve.flush.ms", "ms"},
    {"serve.updates.applied", "count"},
    {"serve.updates.shed", "count"},
    {"serve.snapshots.published", "count"},
    {"serve.apply_ratio", "ratio"},
    {"serve.query_per_s", "1/s"},
    {"serve.query_ns_p50", "ns"},
    {"serve.query_ns_p99", "ns"},
    {"core.serve.apply.ms", "ms"},
    {"core.serve.publish.ms", "ms"},
    {"sim.replay.ms", "ms"},
    {"route.bgp.table_builds", "count"},
    {"route.bgp.destinations_computed", "count"},
    {"sim.fault.routing_rebuilds", "count"},
    {"sim.survivability.segments", "count"},
    {"util.thread_pool.busy_frac", "ratio"},
    {"unattributed.ms", "ms"},
    {"trace.attributed_frac", "ratio"},
    {"trace.op_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

// Layer spans reported as mean inclusive milliseconds per traced op.
constexpr const char* kSpanLayers[] = {
    "meas.read_dataset",           "meas.write_dataset",
    "meas.collect",                "core.path_table.build",
    "core.alternate.sweep",        "core.result_columns.from_pairs",
    "core.confidence.annotate",    "core.confidence.ci_cdf",
    "core.figures",                "serve.flush",
    "sim.replay",
};

constexpr const char* kRegistryCounters[] = {
    "route.bgp.table_builds",
    "route.bgp.destinations_computed",
    "sim.fault.routing_rebuilds",
    "sim.survivability.segments",
};

constexpr const char* kRegistryPhases[] = {"core.serve.apply",
                                           "core.serve.publish"};

constexpr std::string_view kBusyGaugePrefix = "util.thread_pool.executor_busy_ms.";

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// stats::quantile, or 0 for an empty sample (a run too short for a traced
/// or an untraced op).
double quantile_or_0(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : stats::quantile(v, q);
}

struct SpanTotals {
  double incl_ms = 0.0;
  double amount = 0.0;
  std::uint64_t calls = 0;
};

std::map<std::string, double> per_layer(const Workload& workload,
                                        const Outcome& out,
                                        const Tracer& tracer) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) m[def.name] = 0.0;

  // Self time: a span's duration minus what its children cover.
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string_view, SpanTotals> totals;
  std::vector<std::uint64_t> roots;  // op ids of traced ops, in order
  double op_ms_sum = 0.0;
  double unattributed_ms_sum = 0.0;
  double collect_amount_first = 0.0;
  std::size_t collect_first = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    if (s.parent < 0) {
      roots.push_back(s.op);
      op_ms_sum += ms(dur);
      unattributed_ms_sum += ms(dur - std::min(dur, child_ns[i]));
      continue;
    }
    SpanTotals& t = totals[s.name];
    t.incl_ms += ms(dur);
    t.amount += s.amount;
    ++t.calls;
    if (s.name == "meas.collect" && roots.size() <= kCountedOps) {
      collect_amount_first += s.amount;
      ++collect_first;
    }
  }
  const auto n = static_cast<double>(roots.size());
  if (roots.empty()) return m;

  for (const char* layer : kSpanLayers) {
    const auto it = totals.find(layer);
    if (it != totals.end()) m[std::string{layer} + ".ms"] = it->second.incl_ms / n;
  }
  for (const char* layer : {"meas.read_dataset", "meas.write_dataset"}) {
    const auto it = totals.find(layer);
    if (it != totals.end() && it->second.incl_ms > 0.0) {
      m[std::string{layer} + ".MB_per_s"] =
          (it->second.amount / 1e6) / (it->second.incl_ms / 1e3);
    }
  }
  if (collect_first > 0) {
    m["meas.collect.measurements"] =
        collect_amount_first / static_cast<double>(collect_first);
  }
  if (const auto it = totals.find("serve.submit");
      it != totals.end() && it->second.calls > 0) {
    m["serve.submit.us"] =
        it->second.incl_ms * 1e3 / static_cast<double>(it->second.calls);
  }

  // Registry folds: phases and busy time over every traced op, counters
  // over the first kCountedOps (exact, repeatable per-op counts).
  const std::vector<MetricsSnapshot>& reg = tracer.registry();
  double busy_ms = 0.0;
  std::map<std::string, double> phase_ms;
  std::map<std::string, double> counter_sum;
  const std::size_t counted = std::min(reg.size(), kCountedOps);
  for (std::size_t i = 0; i < reg.size(); ++i) {
    for (const auto& [name, stat] : reg[i].phases) phase_ms[name] += ms(stat.wall_ns);
    for (const auto& [name, value] : reg[i].gauges) {
      if (name.starts_with(kBusyGaugePrefix)) busy_ms += value;
    }
    if (i < counted) {
      for (const auto& [name, value] : reg[i].counters) {
        counter_sum[name] += static_cast<double>(value);
      }
    }
  }
  for (const char* phase : kRegistryPhases) {
    m[std::string{phase} + ".ms"] = phase_ms[phase] / static_cast<double>(reg.size());
  }
  for (const char* counter : kRegistryCounters) {
    m[counter] = counted == 0 ? 0.0
                              : counter_sum[counter] / static_cast<double>(counted);
  }
  if (op_ms_sum > 0.0) {
    m["util.thread_pool.busy_frac"] =
        busy_ms / (static_cast<double>(workload.pool_threads()) * op_ms_sum);
    m["trace.attributed_frac"] = 1.0 - unattributed_ms_sum / op_ms_sum;
  }
  m["unattributed.ms"] = unattributed_ms_sum / n;
  m["trace.op_ms"] = op_ms_sum / n;
  m["trace.overhead_ms"] = quantile_or_0(tracer.traced_ms(), 0.5) -
                           quantile_or_0(tracer.untraced_ms(), 0.5);

  for (const auto& [name, value] : out.layer) m[name] = value;
  return m;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, std::string_view name) {
  if (!tracer.op_traced_) return;
  tracer_ = &tracer;
  index_ = tracer.spans_.size();
  tracer.spans_.push_back(
      {name, now_ns(), 0, tracer.current_, tracer.op_, 0.0});
  tracer.current_ = static_cast<std::int64_t>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord& rec = tracer_->spans_[index_];
  rec.end_ns = now_ns();
  tracer_->current_ = rec.parent;
}

void Tracer::Span::set_amount(double amount) noexcept {
  if (tracer_ != nullptr) tracer_->spans_[index_].amount = amount;
}

void Tracer::begin_op(std::uint64_t op) {
  op_ = op;
  op_traced_ = enabled_ && op % 2 == 0;
  if (op_traced_) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.reset();
    reg.enable(true);
    current_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({"op", 0, 0, -1, op, 0.0});
  }
  op_start_ns_ = now_ns();
  if (op_traced_) spans_[static_cast<std::size_t>(current_)].start_ns = op_start_ns_;
}

void Tracer::end_op() {
  const std::uint64_t end = now_ns();
  const double wall_ms = ms(end - op_start_ns_);
  if (!op_traced_) {
    untraced_ms_.push_back(wall_ms);
    return;
  }
  spans_[static_cast<std::size_t>(current_)].end_ns = end;
  current_ = -1;
  traced_ms_.push_back(wall_ms);
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.enable(false);
  registry_.push_back(reg.snapshot());
  op_traced_ = false;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os{path};
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"op\": " << s.op
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"amount\": " << number(s.amount)
       << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os.flush());
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mb() {
  std::ifstream is{"/proc/self/status"};
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
    is.ignore(1 << 20, '\n');
  }
  return 0.0;
}

void print_report(const Options& options, const Workload& workload,
                  const Outcome& out, const Tracer& tracer) {
  const std::vector<double>& op_ms = tracer.untraced_ms();
  std::string metrics;
  const auto append = [&metrics](const MetricDef& def, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string{"\""} + def.name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + def.unit + "\"}";
  };
  if (options.trace) {
    const std::map<std::string, double> layer = per_layer(workload, out, tracer);
    for (const MetricDef& def : kPerLayer) append(def, layer.at(def.name));
  } else {
    const double by_name[] = {
        *std::min_element(out.setup_s.begin(), out.setup_s.end()),
        quantile_or_0(op_ms, 0.9),
        out.peak_rss_mb,
    };
    static_assert(std::size(by_name) == std::size(kEndToEnd));
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      append(kEndToEnd[i], by_name[i]);
    }
  }
  std::printf("# %s seed=%llu trace=%d ops=%llu timed_s=%.3f ops_per_s=%.4g "
              "op_ms p10=%.4g p50=%.4g p90=%.4g over %zu untraced ops\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              static_cast<unsigned long long>(out.ops), out.timed_s,
              out.timed_s > 0.0 ? static_cast<double>(out.ops) / out.timed_s : 0.0,
              quantile_or_0(op_ms, 0.1), quantile_or_0(op_ms, 0.5),
              quantile_or_0(op_ms, 0.9),
              op_ms.size());
  std::printf("# setup_s repeats:");
  for (const double s : out.setup_s) std::printf(" %.4g", s);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace pathsel::perfbench

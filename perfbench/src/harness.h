// Shared machinery of the end-to-end benchmark: options, the closed-loop op
// runner, the span tracer, and the report printer.
//
// Every layer is timed from outside: a workload wraps its own calls into the
// public functions of meas, core, serve and sim in Tracer spans.  Spans are
// recorded only in a traced run (--trace 1), and there only on every other
// op, so one traced run yields both the per-layer breakdown and the tracing
// overhead (traced minus untraced op median).  Traced ops also enable the
// library's MetricsRegistry, reset before the op, so its counters and phases
// fold into the per-layer report as exact per-op deltas.  Untraced runs read
// no clock inside an op and leave the registry disabled.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"

namespace pathsel::perfbench {

/// Thread budget of every workload (the benchmark host's core count).
inline constexpr int kThreads = 4;

/// Set-up runs this many times per run, half before the timed phase and half
/// after it; setup_s is their minimum.  On a shared host the set-up time is
/// bimodal (a quiet and a contended mode, about 1.7x apart, each lasting
/// seconds to minutes), so a median flips between the modes from run to run
/// while the minimum stays in the quiet mode whenever any repeat lands there.
inline constexpr int kSetupRepeats = 10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after this many ops even before `seconds` elapse; 0 = no cap.
  std::uint64_t max_ops = 0;
  /// Corrupts the workload's reference digest, so every checked op must
  /// fail (the smoke test's proof that the checks bite).
  bool tamper_reference = false;
  /// Where a traced run writes its spans (JSON); empty = do not write.
  std::string trace_out;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] inline std::uint64_t now_ns() noexcept { return wall_clock_ns(); }

/// One benchmark span.  `name` must be a string literal.
struct SpanRecord {
  std::string_view name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into Tracer::spans(); -1 for op roots
  std::uint64_t op = 0;
  /// Work the span did (bytes parsed or written, measurements collected);
  /// 0 when the layer has no natural count.
  double amount = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  /// RAII span around one layer call; inert when the current op is untraced.
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void set_amount(double amount) noexcept;

   private:
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Span span(std::string_view name) { return Span{*this, name}; }

  /// Starts op `op`: decides whether it is traced, and if so resets and
  /// enables the metrics registry and opens the op's root span.
  void begin_op(std::uint64_t op);
  /// Ends the op started last, records its wall time, and (traced ops) folds
  /// the registry snapshot and disables the registry again.
  void end_op();

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Registry deltas of each traced op, in op order.
  [[nodiscard]] const std::vector<MetricsSnapshot>& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const std::vector<double>& untraced_ms() const noexcept {
    return untraced_ms_;
  }
  [[nodiscard]] const std::vector<double>& traced_ms() const noexcept {
    return traced_ms_;
  }

  /// Writes every span as a JSON array; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  bool op_traced_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t op_start_ns_ = 0;
  std::int64_t current_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<MetricsSnapshot> registry_;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
};

/// What a workload hands back to the report.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;
  double timed_s = 0.0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  // read right after the timed phase
  /// Per-layer values only the workload can compute (serve counters and
  /// reader latencies); keys are per-layer metric names.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the timed phase that a user of the system also pays:
  /// dataset generation, serialization, engine creation.  Repeated
  /// kSetupRepeats times; each call replaces the previous state.
  virtual void setup(std::uint64_t seed) = 0;
  /// Reference results the ops are checked against (untimed).
  virtual void prepare_reference(bool tamper) = 0;
  /// The timed phase: ops until the deadline, each checked.
  virtual void run(const Options& options, Tracer& tracer, Outcome& out) = 0;
  /// Executors of the thread pool the ops use (busy-fraction denominator).
  [[nodiscard]] virtual int pool_threads() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_analyze_uw3();
[[nodiscard]] std::unique_ptr<Workload> make_serve_uw3();
[[nodiscard]] std::unique_ptr<Workload> make_fault_replay();

/// Runs ops back to back (closed loop, one client) until the deadline or
/// Options::max_ops, at least one.  `op(i)` is timed; `check(i)` runs after
/// the op's clock stops and returns whether the op's output was correct.
template <class Op, class Check>
void closed_loop(const Options& options, Tracer& tracer, Outcome& out, Op&& op,
                 Check&& check) {
  const std::uint64_t start = now_ns();
  const auto budget =
      static_cast<std::uint64_t>(options.seconds * 1e9 > 0 ? options.seconds * 1e9 : 0);
  std::uint64_t i = 0;
  while (i == 0 || now_ns() - start < budget) {
    if (options.max_ops != 0 && i >= options.max_ops) break;
    tracer.begin_op(i);
    op(i);
    tracer.end_op();
    ++out.attempted;
    if (!check(i)) ++out.failed;
    ++i;
  }
  out.ops = i;
  out.timed_s = static_cast<double>(now_ns() - start) / 1e9;
}

/// Returns set-up garbage to the OS and restarts the peak-RSS count, so
/// peak_rss_mb() covers what the timed phase holds and touches.
void reset_peak_rss();

/// Peak resident set of this process in MB (VmHWM), 0 if unavailable.
[[nodiscard]] double peak_rss_mb();

/// Prints the result object as the last stdout line.
void print_report(const Options& options, const Workload& workload,
                  const Outcome& out, const Tracer& tracer);

}  // namespace pathsel::perfbench

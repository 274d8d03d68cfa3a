// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload analyze_uw3|serve_uw3|fault_replay --seed N
//             --seconds S --trace 0|1 [--max-ops N]
//             [--trace-out FILE] [--tamper-reference]
//
// Runs one workload in this process: set-up (repeated, timed), reference
// results (untimed), then a closed loop of checked ops for S seconds.  The
// last stdout line is one JSON object: correct, attempted, failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 when every op checked out, 1 when any failed, 2 on usage
// errors.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "harness.h"

namespace pathsel::perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload analyze_uw3|serve_uw3|fault_replay "
               "--seed N --seconds S --trace 0|1 [--max-ops N] "
               "[--trace-out FILE] [--tamper-reference]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

int run(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tamper-reference") {
      options.tamper_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for a flag");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("bad --trace");
      options.trace = n == 1;
    } else if (flag == "--max-ops") {
      if (!parse_u64(value, options.max_ops)) return usage("bad --max-ops");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_seed) return usage("missing --seed");

  std::unique_ptr<Workload> workload;
  if (options.workload == "analyze_uw3") {
    workload = make_analyze_uw3();
  } else if (options.workload == "serve_uw3") {
    workload = make_serve_uw3();
  } else if (options.workload == "fault_replay") {
    workload = make_fault_replay();
  } else {
    return usage("unknown --workload");
  }

  Outcome out;
  const auto timed_setups = [&](int count) {
    for (int r = 0; r < count; ++r) {
      const std::uint64_t start = now_ns();
      workload->setup(options.seed);
      out.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
  };
  timed_setups(kSetupRepeats / 2);
  workload->prepare_reference(options.tamper_reference);
  reset_peak_rss();

  Tracer tracer{options.trace};
  workload->run(options, tracer, out);
  out.peak_rss_mb = peak_rss_mb();
  // The other half of the set-up repeats runs after the timed phase, so
  // setup_s samples the host's speed at both ends of the run.
  timed_setups(kSetupRepeats - kSetupRepeats / 2);
  if (options.trace && !options.trace_out.empty() &&
      !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 2;
  }
  print_report(options, *workload, out, tracer);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pathsel::perfbench

int main(int argc, char** argv) { return pathsel::perfbench::run(argc, argv); }

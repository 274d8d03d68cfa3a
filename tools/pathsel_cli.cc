// pathsel command-line tool.
//
//   pathsel_cli generate   regenerate one of the paper's Table 1 datasets
//   pathsel_cli info       print a saved dataset's Table 1 row
//   pathsel_cli analyze    default-vs-alternate path analysis of a dataset
//   pathsel_cli campaign   crash-safe regeneration of a set of datasets
//   pathsel_cli matrix     a scenario grid fanned out over forked workers
//   pathsel_cli serve      online path selection driven by a request trace
//   pathsel_cli version    the tool and every stable on-disk format version
//
// Each subcommand declares its flags once, in the flag table beside its
// options struct; the parser and the usage text both read the tables, and
// every flag is validated before any file is touched.
//
// Split runs.  `analyze --results-out FILE` stops after the sweep and writes
// the columnar results (core/result_columns.h format, atomic + CRC-checked);
// `analyze --results-in FILE` starts from such a file, skipping the dataset
// and the sweep — the interchange the scenario-matrix workers use.  The
// first prints only the `path graph:` line and the second the `pairs
// analyzed:` lines onward, so the two stdouts concatenate to exactly the
// fused run's output (a golden-enforced contract).
//
// Interruption.  The long-running commands (analyze, campaign, matrix,
// serve) honour --deadline SEC and SIGINT/SIGTERM: the run drains
// cooperatively at the next chunk/event boundary, a campaign writes a final
// checkpoint, and the process exits 5.  Setting PATHSEL_WATCHDOG=1 starts a
// stall watchdog (poll cadence derived from PATHSEL_WATCHDOG_STALL_S,
// default 30s); with PATHSEL_WATCHDOG_TRIP=1 a detected stall also cancels
// the run.
//
// Every command also accepts --metrics[=table|json]: enables the metrics
// registry for the run and dumps its snapshot to stderr on exit.  Metrics
// are passive — stdout is byte-identical with and without the flag.
//
// Exit codes: 0 success; 1 data error (dataset cannot support the request);
// 2 usage error (unknown command/flag, missing or malformed value);
// 3 input file unreadable; 4 input file fails to parse; 5 interrupted
// (deadline, signal, or watchdog — campaigns leave a valid checkpoint).
#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/disjoint.h"
#include "core/confidence.h"
#include "core/coverage.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "matrix/cell.h"
#include "matrix/engine.h"
#include "matrix/grid.h"
#include "meas/campaign.h"
#include "meas/catalog.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "serve/engine.h"
#include "serve/journal.h"
#include "serve/trace.h"
#include "util/atomic_io.h"
#include "util/bench_report.h"
#include "util/cancel.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/watchdog.h"

namespace {

using namespace pathsel;

enum ExitCode : int {
  kExitOk = 0,
  kExitDataError = 1,
  kExitUsage = 2,
  kExitUnreadable = 3,
  kExitParseError = 4,
  kExitInterrupted = 5,
};

// Main()-scoped cancellation shared by the long-running commands: trips on
// --deadline, SIGINT/SIGTERM, or the watchdog.
CancelToken g_cancel;

// Maps a failed Status to the documented exit-code contract.
int exit_code_for(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
      return kExitInterrupted;
    case ErrorCode::kIoError:
      return kExitUnreadable;
    case ErrorCode::kParseError:
      return kExitParseError;
    default:
      return kExitDataError;
  }
}

// Prints a failed Status, prefixed with `context` when given, and returns its
// exit code.
int fail(const Status& status, const std::string& context = {}) {
  std::fprintf(stderr, "%s%s%s\n", context.c_str(), context.empty() ? "" : ": ",
               status.to_string().c_str());
  return exit_code_for(status);
}

// PATHSEL_TEST_CRASH_AFTER=N hard-kills the process (SIGKILL, no cleanup)
// right after its N-th durable write — a campaign checkpoint, a matrix cell
// or a serve journal append; the kill-and-resume tests use it to place a
// machine crash at a reproducible instant.  0 when unset or not positive.
std::size_t test_crash_after() {
  const char* env = std::getenv("PATHSEL_TEST_CRASH_AFTER");
  const long n = env == nullptr ? 0 : std::strtol(env, nullptr, 10);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

// ---------------------------------------------------------------------------
// Flag tables.  A row names a flag once and says how it takes its value, how
// the value parses and which options-struct member it fills; the struct's
// member initializers are the defaults.  Presence rules that do not depend
// on any value (a flag that is required, needs another, or excludes others)
// are row data too.

enum class Arity {
  kValue,   // --flag VALUE
  kBare,    // --flag
  kInline,  // --flag or --flag=VALUE
};

struct Value {
  Arity arity = Arity::kValue;
  std::string meta;  // the value's placeholder in the usage text
  std::function<bool(std::string_view)> set;  // false: malformed/out of range
  std::string_view implicit = {};             // a bare kInline flag's value
};

struct Flag {
  const char* name;
  Value value;
  bool required = false;
  const char* needs = nullptr;          // a flag that must be given with it
  std::vector<const char*> excludes{};  // flags that must not be
};

Value bare(bool& field) {
  return {Arity::kBare, "", [&field](std::string_view) {
            field = true;
            return true;
          }};
}

// A path or other free-form string; `field` is a string or an optional one.
template <typename Field>
Value path(Field& field, std::string meta = "FILE") {
  return {Arity::kValue, std::move(meta), [&field](std::string_view v) {
            field = std::string{v};
            return true;
          }};
}

// A whole-token number (util/parse.h) in [lo, hi]: no leading space or '+',
// no '-' on an unsigned T, no trailing characters.
template <typename T, typename Field>
Value number(Field& field, T lo, T hi, std::string meta = "N") {
  return {Arity::kValue, std::move(meta), [&field, lo, hi](std::string_view v) {
            T x{};
            if (!parse_number(v, x) || !(x >= lo) || !(x <= hi)) return false;
            field = x;
            return true;
          }};
}

// One of a fixed list of names, each mapped to the value it stores.
template <typename Field>
Value choice(Field& field,
             std::vector<std::pair<std::string_view, Field>> choices) {
  std::string meta;
  for (const auto& [name, value] : choices) {
    if (!meta.empty()) meta += '|';
    meta += name;
  }
  return {Arity::kValue, std::move(meta),
          [&field, choices = std::move(choices)](std::string_view v) {
            for (const auto& [name, value] : choices) {
              if (v == name) {
                field = value;
                return true;
              }
            }
            return false;
          }};
}

Value choice(std::string& field,
             std::initializer_list<std::string_view> names) {
  std::vector<std::pair<std::string_view, std::string>> choices;
  for (const std::string_view name : names) choices.emplace_back(name, name);
  return choice(field, std::move(choices));
}

std::vector<std::string> split_csv(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// A comma-separated, non-empty list of catalog dataset names.
Value dataset_list(std::vector<std::string>& field) {
  return {Arity::kValue, "A,B,...", [&field](std::string_view v) {
            field = split_csv(v);
            return !field.empty() &&
                   std::ranges::all_of(field, meas::Catalog::is_dataset_name);
          }};
}

// Parses `args` against `flags`: every token must be a flag of the table,
// value flags need a value, and every value must parse; then the presence
// rules.  Prints a one-line diagnostic and returns false on any violation.
bool parse_flags(const char* command, std::span<char* const> args,
                 const std::vector<Flag>& flags) {
  std::set<std::string_view> given;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view token = args[i];
    if (!token.starts_with("--")) {
      std::fprintf(stderr, "unexpected argument: %s\n", args[i]);
      return false;
    }
    const std::size_t eq = token.find('=');
    const std::string_view name = token.substr(2, eq - 2);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [name](const Flag& f) { return name == f.name; });
    if (flag == flags.end() ||
        (eq != std::string_view::npos && flag->value.arity != Arity::kInline)) {
      std::fprintf(stderr, "unknown flag: %s\n", args[i]);
      return false;
    }
    std::string_view value;
    if (flag->value.arity == Arity::kInline) {
      value = eq == std::string_view::npos ? flag->value.implicit
                                          : token.substr(eq + 1);
    } else if (flag->value.arity == Arity::kValue) {
      if (i + 1 == args.size()) {
        std::fprintf(stderr, "--%s needs a value\n", flag->name);
        return false;
      }
      value = args[++i];
    }
    if (!flag->value.set(value)) {
      std::fprintf(stderr, "invalid value for --%s: %.*s\n", flag->name,
                   static_cast<int>(value.size()), value.data());
      return false;
    }
    given.insert(flag->name);
  }
  for (const Flag& flag : flags) {
    if (!given.contains(flag.name)) {
      if (flag.required) {
        std::fprintf(stderr, "%s needs --%s\n", command, flag.name);
        return false;
      }
      continue;
    }
    if (flag.needs != nullptr && !given.contains(flag.needs)) {
      std::fprintf(stderr, "--%s requires --%s\n", flag.name, flag.needs);
      return false;
    }
    for (const char* other : flag.excludes) {
      if (given.contains(other)) {
        std::fprintf(stderr, "--%s cannot be combined with --%s\n", flag.name,
                     other);
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// generate / campaign

// The catalog knobs generate and campaign share, appended to `rows`.
std::vector<Flag> with_catalog_flags(meas::CatalogConfig& c,
                                     std::vector<Flag> rows) {
  rows.push_back({"scale", number(c.scale, 1e-6, 1.0, "S")});
  rows.push_back({"seed", number<std::uint64_t>(c.seed, 0, UINT64_MAX)});
  rows.push_back({"faults", number(c.fault_intensity, 0.0, 1.0, "F")});
  rows.push_back(
      {"fault-seed", number<std::uint64_t>(c.fault_seed, 0, UINT64_MAX)});
  return rows;
}

struct GenerateFlags {
  std::string dataset;
  std::string out;
  meas::CatalogConfig catalog;
};

std::vector<Flag> generate_flags(GenerateFlags& o) {
  return with_catalog_flags(
      o.catalog,
      {{.name = "dataset",
        .value = {Arity::kValue, "NAME",
                  [&o](std::string_view v) {
                    o.dataset = v;
                    return meas::Catalog::is_dataset_name(v);
                  }},
        .required = true},
       {.name = "out", .value = path(o.out), .required = true}});
}

int cmd_generate(const GenerateFlags& o) {
  meas::Catalog catalog{o.catalog};
  const meas::Dataset& ds = catalog.by_name(o.dataset);

  std::ofstream os{o.out};
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", o.out.c_str());
    return kExitUnreadable;
  }
  meas::write_dataset(os, ds);
  if (!os.flush()) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return kExitUnreadable;
  }
  std::printf("wrote %s: %zu hosts, %zu measurements (%zu completed)\n",
              o.out.c_str(), ds.hosts.size(), ds.measurements.size(),
              ds.completed_count());
  return kExitOk;
}

struct CampaignFlags {
  meas::CampaignOptions campaign;
  std::optional<double> checkpoint_every_hours;
};

std::vector<Flag> campaign_flags(CampaignFlags& o) {
  meas::CampaignOptions& c = o.campaign;
  return with_catalog_flags(
      c.catalog,
      {{.name = "out-dir",
        .value = path(c.output_dir, "DIR"),
        .required = true},
       {"datasets", dataset_list(c.datasets)},
       {"checkpoint-dir", path(c.checkpoint_dir, "DIR")},
       {.name = "resume", .value = bare(c.resume), .needs = "checkpoint-dir"},
       {"checkpoint-every-hours",
        number(o.checkpoint_every_hours, 1e-9, 1e9, "H")},
       // K also folds into the checkpoint fingerprint, so resuming under a
       // different K discards the stale checkpoint instead of splicing runs.
       {"disjoint", number(c.disjoint_k, 1, 1'000'000, "K")}});
}

// Writes the campaign-level disjoint report for one finished dataset:
// deterministic TSV (stable column set, %.6g values, table.edges() order),
// written atomically next to the dataset output.  The min-samples floor
// scales with the campaign's --scale (same convention as the bench suite's
// scaled_min_samples) so a reduced-scale campaign still yields a populated
// graph instead of filtering every edge.  Nonzero return is the process
// exit code.
int write_disjoint_report(const std::string& out_dir, const std::string& name,
                          int k, double scale) {
  const auto loaded = meas::load_dataset(out_dir + "/" + name + ".ds");
  if (!loaded.is_ok()) return fail(loaded.status(), name);
  core::BuildOptions build;
  build.min_samples =
      std::max(3, static_cast<int>(std::llround(30.0 * scale)));
  build.cancel = &g_cancel;
  const auto built = core::PathTable::build_checked(loaded.value(), build);
  if (!built.is_ok()) return fail(built.status(), name);
  const core::PathTable& table = built.value();
  const Status valid = core::validate_disjoint_k(k, table.hosts().size());
  if (!valid.is_ok()) return fail(valid, name);
  core::DisjointOptions opt;
  opt.k = k;
  opt.cancel = &g_cancel;
  const auto swept = core::compute_disjoint_alternates(table, opt);
  if (!swept.is_ok()) return fail(swept.status(), name);
  std::string tsv;
  tsv += "# disjoint alternates: dataset=" + name + " mode=" +
         core::to_string(opt.mode) + " k=" + std::to_string(k) +
         " metric=rtt min_samples=" + std::to_string(build.min_samples) +
         "\n";
  tsv += core::render_disjoint_rows(swept.value(), '\t');
  const std::string tsv_path = out_dir + "/" + name + ".disjoint.tsv";
  const Status wrote = write_file_atomic(tsv_path, tsv);
  if (!wrote.is_ok()) return fail(wrote);
  std::printf("wrote %s\n", tsv_path.c_str());
  return kExitOk;
}

int cmd_campaign(const CampaignFlags& o) {
  meas::CampaignOptions options = o.campaign;
  if (o.checkpoint_every_hours) {
    options.checkpoint_interval = Duration::hours(*o.checkpoint_every_hours);
  }
  options.cancel = &g_cancel;
  if (const std::size_t crash_after = test_crash_after(); crash_after > 0) {
    options.after_checkpoint = [crash_after](std::size_t writes) {
      if (writes >= crash_after) std::raise(SIGKILL);
    };
  }

  const meas::CampaignReport report = meas::run_campaign(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  for (const std::string& name : report.loaded) {
    std::printf("kept %s (finished in a previous run)\n", name.c_str());
  }
  for (const std::string& name : report.completed) {
    const bool resumed = std::find(report.resumed.begin(),
                                   report.resumed.end(),
                                   name) != report.resumed.end();
    std::printf("wrote %s%s\n", name.c_str(),
                resumed ? " (resumed from checkpoint)" : "");
  }
  if (!report.status.is_ok()) {
    const int rc = fail(report.status);
    if (!report.stopped_in.empty()) {
      std::fprintf(stderr, "interrupted in %s%s\n", report.stopped_in.c_str(),
                   options.checkpoint_dir.empty() ? ""
                                                  : "; checkpoint written");
    }
    return rc;
  }
  if (options.disjoint_k > 0) {
    // Reports cover every dataset the run left finished on disk, whether it
    // was produced now or kept from a previous run — a resumed campaign
    // ends with the same set of .disjoint.tsv files as an uninterrupted one.
    for (const auto* names : {&report.completed, &report.loaded}) {
      for (const std::string& name : *names) {
        const int rc = write_disjoint_report(options.output_dir, name,
                                             options.disjoint_k,
                                             options.catalog.scale);
        if (rc != kExitOk) return rc;
      }
    }
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// matrix

struct MatrixFlags {
  std::string grid;
  matrix::MatrixOptions matrix;
};

std::vector<Flag> matrix_flags(MatrixFlags& o) {
  return {{.name = "grid", .value = path(o.grid), .required = true},
          {.name = "work-dir",
           .value = path(o.matrix.work_dir, "DIR"),
           .required = true},
          {"workers", number(o.matrix.workers, 0, matrix::kMaxWorkers)},
          {"threads", number(o.matrix.threads, 1, 4096)},
          {"resume", bare(o.matrix.resume)}};
}

// `matrix` expands a declarative grid file into scenario cells and fans them
// out over N forked workers coordinating through a flock work queue; the
// merged report is byte-identical for any worker count and across
// kill/resume.  The grid file is parsed and rejected (exit 2) before any
// work-dir I/O happens, so a typo never scribbles on a previous run's state.
int cmd_matrix(const MatrixFlags& o) {
  const Result<std::string> text = read_file(o.grid);
  if (!text.is_ok()) return fail(text.status());
  const Result<matrix::GridConfig> grid = matrix::parse_grid(text.value());
  if (!grid.is_ok()) {
    // A malformed grid is a usage error by contract, whatever code the
    // parser classified it under — and nothing has been written yet.
    std::fprintf(stderr, "%s: %s\n", o.grid.c_str(),
                 grid.status().message().c_str());
    return kExitUsage;
  }

  matrix::MatrixOptions options = o.matrix;
  options.grid = grid.value();
  options.cancel = &g_cancel;
  // Same crash-injection contract as `campaign`, plus a worker selector so
  // the multi-worker kill-and-resume test can kill one specific worker.
  options.crash_after = test_crash_after();
  if (const char* worker_env = std::getenv("PATHSEL_MATRIX_CRASH_WORKER")) {
    const long crash_worker = std::strtol(worker_env, nullptr, 10);
    if (crash_worker >= 0 && crash_worker < matrix::kMaxWorkers) {
      options.crash_worker = static_cast<int>(crash_worker);
    }
  }

  const matrix::MatrixReport report = matrix::run_matrix(options);
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (!report.status.is_ok()) return fail(report.status);
  std::fprintf(stderr, "matrix: %zu cells (%zu reused), report %s\n",
               report.cells_total, report.cells_reused,
               report.report_path.c_str());
  // stdout carries exactly the merged report bytes (== report.txt), so
  // `pathsel_cli matrix ... > out` and the file can be cmp'd interchangeably.
  std::fwrite(report.report.data(), 1, report.report.size(), stdout);
  return kExitOk;
}

// ---------------------------------------------------------------------------
// info / analyze

struct InfoFlags {
  std::string in;
};

std::vector<Flag> info_flags(InfoFlags& o) {
  return {{.name = "in", .value = path(o.in), .required = true}};
}

int cmd_info(const InfoFlags& o) {
  const auto loaded = meas::load_dataset(o.in);
  if (!loaded.is_ok()) return fail(loaded.status());
  const meas::Dataset& ds = loaded.value();
  Table table{"dataset " + ds.name};
  table.set_header({"field", "value"});
  table.add_row({"kind", ds.kind == meas::MeasurementKind::kTraceroute
                             ? "traceroute"
                             : "tcp transfers"});
  table.add_row({"duration", Table::fmt(ds.duration.total_days(), 1) + " days"});
  table.add_row({"hosts", std::to_string(ds.hosts.size())});
  table.add_row({"measurements", std::to_string(ds.measurements.size())});
  table.add_row({"completed", std::to_string(ds.completed_count())});
  table.add_row({"paths covered",
                 std::to_string(ds.covered_paths()) + " / " +
                     std::to_string(ds.potential_paths())});
  table.add_row({"episodes", std::to_string(ds.episode_count)});
  // Fault-aware datasets carry failure causes; legacy ones add no rows here.
  std::array<std::size_t, meas::kFailureReasonCount> failures{};
  bool any_reason = false;
  for (const auto& m : ds.measurements) {
    if (m.completed || m.failure == meas::FailureReason::kNone) continue;
    ++failures[static_cast<std::size_t>(m.failure)];
    any_reason = true;
  }
  if (any_reason) {
    for (std::size_t r = 1; r < meas::kFailureReasonCount; ++r) {
      if (failures[r] == 0) continue;
      table.add_row(
          {std::string{"failed: "} +
               meas::to_string(static_cast<meas::FailureReason>(r)),
           std::to_string(failures[r])});
    }
  }
  table.print(std::cout);
  return kExitOk;
}

void print_coverage(const core::CoverageSummary& c) {
  Table table{"coverage"};
  table.set_header({"field", "value"});
  table.add_row({"hosts", std::to_string(c.hosts)});
  table.add_row({"pairs covered", std::to_string(c.covered_pairs) + " / " +
                                      std::to_string(c.potential_pairs) + " (" +
                                      Table::fmt(100.0 * c.coverage(), 1) +
                                      "%)"});
  table.add_row({"pairs attempted", std::to_string(c.attempted_pairs)});
  table.add_row({"usable paths", std::to_string(c.usable_edges)});
  table.add_row({"under-sampled paths", std::to_string(c.under_sampled_edges)});
  table.add_row({"disconnected pairs", std::to_string(c.disconnected_edges)});
  table.add_row({"attempts", std::to_string(c.attempts)});
  table.add_row({"completed", std::to_string(c.completed)});
  for (std::size_t r = 1; r < meas::kFailureReasonCount; ++r) {
    if (c.failures_by_reason[r] == 0) continue;
    table.add_row({std::string{"failed: "} +
                       meas::to_string(static_cast<meas::FailureReason>(r)),
                   std::to_string(c.failures_by_reason[r])});
  }
  table.print(std::cout);
}

// The post-sweep half of `analyze` — everything after the sweep reads the
// columnar results, whether they came from this process's sweep (fused run)
// or a --results-in file (split run).  Prints the `pairs analyzed:` line
// onward; coverage is nullptr for split runs (it summarizes the dataset,
// which a results file deliberately does not carry).
int run_post_processing(const core::ResultColumns& columns, int threads,
                        const core::CoverageSummary* coverage, bool csv) {
  const auto cdf = core::improvement_cdf(columns, threads);
  const auto classified =
      core::classify_significance(columns, 0.95, threads, &g_cancel);
  if (!classified.is_ok()) return fail(classified.status());
  const core::SignificanceTally& tally = classified.value();
  std::printf("pairs analyzed: %zu\n", columns.size());
  std::printf("better alternate exists: %.0f%%\n",
              100.0 * cdf.fraction_above(0.0));
  std::printf("95%% significant: better %.0f%%, indeterminate %.0f%%, "
              "worse %.0f%%\n",
              100.0 * tally.better, 100.0 * tally.indeterminate,
              100.0 * tally.worse);
  if (coverage != nullptr) print_coverage(*coverage);
  if (csv) {
    const auto series = cdf.to_series("improvement");
    std::printf("improvement,fraction\n");
    for (std::size_t i = 0; i < series.x.size(); ++i) {
      std::printf("%.6g,%.6g\n", series.x[i], series.y[i]);
    }
  }
  return kExitOk;
}

struct AnalyzeFlags {
  std::optional<std::string> in;
  std::string metric = "rtt";
  int min_samples = 30;
  bool one_hop = false;
  bool csv = false;
  bool coverage = false;
  int threads = 0;  // 0: $PATHSEL_THREADS, else the hardware thread count
  std::optional<core::Kernel> kernel;
  std::optional<core::SimdMode> simd;
  int disjoint_k = 0;  // 0: the alternate-path sweep, not the disjoint analyzer
  core::DisjointMode disjoint_mode = core::DisjointMode::kLinkDisjoint;
  std::optional<std::string> results_out;
  std::optional<std::string> results_in;
};

// --kernel picks the one-hop sweep's engine and --simd the dense kernel's
// instruction path; stdout is byte-identical for every choice.  --disjoint K
// switches to the Suurballe/Bhandari k-disjoint analyzer; a K beyond the
// graph's N-2 ceiling is a data error (exit 1) found after the dataset loads.
// --results-out stops after the sweep (post-processing flags would do
// nothing) and --results-in starts after it (sweep-shaping flags could not be
// honoured), hence their exclusions.
std::vector<Flag> analyze_flags(AnalyzeFlags& o) {
  using core::Kernel;
  using core::SimdMode;
  return {
      {"in", path(o.in)},
      {"metric", choice(o.metric, {"rtt", "loss", "bandwidth"})},
      {"min-samples", number(o.min_samples, 1, 1'000'000)},
      {"one-hop", bare(o.one_hop)},
      {"csv", bare(o.csv)},
      {"coverage", bare(o.coverage)},
      {"threads", number(o.threads, 0, 4096)},
      {"kernel", choice(o.kernel, {{"auto", Kernel::kAuto},
                                   {"dense", Kernel::kDense},
                                   {"search", Kernel::kSearch}})},
      {"simd", choice(o.simd, {{"auto", SimdMode::kAuto},
                               {"avx2", SimdMode::kAvx2},
                               {"scalar", SimdMode::kScalar}})},
      {.name = "disjoint",
       .value = number(o.disjoint_k, 1, 1'000'000, "K"),
       .excludes = {"one-hop", "kernel", "simd"}},
      {.name = "disjoint-mode",
       .value = choice(o.disjoint_mode,
                       {{"link", core::DisjointMode::kLinkDisjoint},
                        {"node", core::DisjointMode::kNodeDisjoint}}),
       .needs = "disjoint"},
      {.name = "results-out",
       .value = path(o.results_out),
       .excludes = {"results-in", "csv", "coverage", "disjoint"}},
      {.name = "results-in",
       .value = path(o.results_in),
       .excludes = {"in", "metric", "min-samples", "one-hop", "kernel", "simd",
                    "coverage", "disjoint", "disjoint-mode"}},
  };
}

// The disjoint analyzer's output: a requested-k / found-k table, then the
// per-pair rows with --csv.
void print_disjoint(const std::vector<core::PairDisjointResult>& results,
                    const core::DisjointOptions& opt, bool csv) {
  std::printf("disjoint analysis: mode=%s, requested k=%d\n",
              core::to_string(opt.mode), opt.k);
  std::printf("pairs analyzed: %zu\n", results.size());
  std::vector<std::size_t> found_hist(static_cast<std::size_t>(opt.k) + 1, 0);
  std::size_t beats_direct = 0;
  for (const core::PairDisjointResult& r : results) {
    ++found_hist[static_cast<std::size_t>(r.found_k())];
    if (!r.paths.empty() && r.paths.front().value < r.default_value) {
      ++beats_direct;
    }
  }
  Table table_out{"requested k / found k"};
  table_out.set_header({"found", "pairs", "fraction"});
  for (std::size_t j = 0; j < found_hist.size(); ++j) {
    table_out.add_row(
        {std::to_string(j) + " / " + std::to_string(opt.k),
         std::to_string(found_hist[j]),
         Table::fmt(results.empty()
                        ? 0.0
                        : 100.0 * static_cast<double>(found_hist[j]) /
                              static_cast<double>(results.size()),
                    1) +
             "%"});
  }
  table_out.print(std::cout);
  std::printf("best disjoint alternate beats direct: %.0f%%\n",
              results.empty()
                  ? 0.0
                  : 100.0 * static_cast<double>(beats_direct) /
                        static_cast<double>(results.size()));
  if (csv) {
    const std::string rows = core::render_disjoint_rows(results, ',');
    std::fwrite(rows.data(), 1, rows.size(), stdout);
  }
}

int cmd_analyze(const AnalyzeFlags& o) {
  // The rules that depend on a value; like the table's, they are checked
  // before any file is touched.
  if (o.metric == "bandwidth" &&
      (o.kernel || o.simd || o.disjoint_k > 0 || o.results_out)) {
    std::fprintf(stderr, "--kernel, --simd, --disjoint and --results-out do "
                         "not apply to bandwidth analysis\n");
    return kExitUsage;
  }
  if (o.kernel == core::Kernel::kDense && !o.one_hop) {
    std::fprintf(stderr, "--kernel dense requires --one-hop\n");
    return kExitUsage;
  }
  if (!o.in && !o.results_in) {
    std::fprintf(stderr, "analyze needs --in FILE or --results-in FILE\n");
    return kExitUsage;
  }

  if (o.results_in) {
    const auto sets = core::read_result_columns(*o.results_in);
    if (!sets.is_ok()) return fail(sets.status());
    if (sets.value().size() != 1) {
      std::fprintf(stderr,
                   "%s holds %zu column sets; analyze --results-in needs "
                   "exactly one\n",
                   o.results_in->c_str(), sets.value().size());
      return kExitDataError;
    }
    if (sets.value().front().empty()) {
      return fail(Status::error(ErrorCode::kInsufficientData,
                                *o.results_in + " holds no analyzed pairs"));
    }
    return run_post_processing(sets.value().front(), o.threads, nullptr,
                               o.csv);
  }

  const auto loaded = meas::load_dataset(*o.in);
  if (!loaded.is_ok()) return fail(loaded.status());
  const meas::Dataset& ds = loaded.value();
  core::BuildOptions build;
  build.min_samples = o.min_samples;
  build.threads = o.threads;
  build.cancel = &g_cancel;
  const core::Metric metric =
      o.metric == "rtt" ? core::Metric::kRtt : core::Metric::kLoss;

  if (o.metric == "bandwidth") {
    if (ds.kind != meas::MeasurementKind::kTcpTransfer) {
      std::fprintf(stderr, "bandwidth analysis needs a tcp dataset\n");
      return kExitDataError;
    }
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) return fail(built.status());
    const core::PathTable& table = built.value();
    std::printf("path graph: %zu measured paths over %zu hosts\n",
                table.edges().size(), table.hosts().size());
    if (table.edges().empty()) {
      std::fprintf(stderr, "no path met the min_samples filter\n");
      return kExitDataError;
    }
    for (const auto& [label, comp] :
         {std::pair{"optimistic", core::LossComposition::kOptimistic},
          std::pair{"pessimistic", core::LossComposition::kPessimistic}}) {
      const auto results = core::analyze_bandwidth(table, comp);
      if (results.empty()) {
        return fail(Status::error(ErrorCode::kInsufficientData,
                                  "no measured pair has a one-hop alternate"));
      }
      const auto cdf = core::bandwidth_improvement_cdf(results);
      std::printf("%s: %zu pairs, %.0f%% with a better one-hop alternate\n",
                  label, results.size(), 100.0 * cdf.fraction_above(0.0));
    }
    if (o.coverage) print_coverage(core::summarize_coverage(ds, table));
    return kExitOk;
  }

  if (o.disjoint_k > 0) {
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) return fail(built.status());
    const core::PathTable& table = built.value();
    std::printf("path graph: %zu measured paths over %zu hosts\n",
                table.edges().size(), table.hosts().size());
    const Status valid =
        core::validate_disjoint_k(o.disjoint_k, table.hosts().size());
    if (!valid.is_ok()) return fail(valid);
    core::DisjointOptions opt;
    opt.metric = metric;
    opt.k = o.disjoint_k;
    opt.mode = o.disjoint_mode;
    opt.threads = o.threads;
    opt.cancel = &g_cancel;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    if (!swept.is_ok()) return fail(swept.status());
    print_disjoint(swept.value(), opt, o.csv);
    return kExitOk;
  }

  core::AnalyzerOptions analyze;
  analyze.metric = metric;
  if (o.one_hop) analyze.max_intermediate_hosts = 1;
  analyze.threads = o.threads;
  analyze.cancel = &g_cancel;
  analyze.kernel = o.kernel.value_or(core::Kernel::kAuto);
  analyze.simd = o.simd.value_or(core::SimdMode::kAuto);

  auto result = core::analyze_with_coverage(ds, build, analyze);
  if (!result.is_ok()) return fail(result.status());
  core::DegradedAnalysis& analysis = result.value();
  std::printf("path graph: %zu measured paths over %zu hosts\n",
              analysis.coverage.usable_edges, analysis.coverage.hosts);
  if (o.results_out) {
    // Stop after the sweep: classify (so the file carries the verdicts) and
    // write the columns.  stdout holds only the `path graph:` line, so a
    // later --results-in run's stdout concatenates to the fused output.
    const Status annotated = core::annotate_significance(
        analysis.columns, 0.95, o.threads, &g_cancel);
    if (!annotated.is_ok()) return fail(annotated);
    const Status wrote = core::write_result_columns(
        *o.results_out,
        std::span<const core::ResultColumns>{&analysis.columns, 1});
    if (!wrote.is_ok()) return fail(wrote);
    std::fprintf(stderr, "wrote %s\n", o.results_out->c_str());
    return kExitOk;
  }
  return run_post_processing(analysis.columns, o.threads,
                             o.coverage ? &analysis.coverage : nullptr, o.csv);
}

// ---------------------------------------------------------------------------
// serve

struct ServeFlags {
  std::string in;
  std::string trace;
  int readers = 1;
  bool strict_updates = false;
  serve::ServeOptions serve;
};

// Query responses print to stdout, byte-identical for every --readers count;
// diagnostics (rejected updates, journal recovery notes, the closing summary)
// go to stderr.  --resume replays the journal (plus the newest compacted
// state snapshot) so a killed server reconverges to its exact pre-crash
// state.  --strict-updates turns any rejected update into exit 1.
std::vector<Flag> serve_flags(ServeFlags& o) {
  serve::ServeOptions& s = o.serve;
  return {
      {.name = "in", .value = path(o.in), .required = true},
      {.name = "trace", .value = path(o.trace, "FILE|-"), .required = true},
      {"readers", number(o.readers, 1, 256)},
      {"queue-cap", number<std::size_t>(s.queue_capacity, 1, 1'000'000'000)},
      {"stale-after-ms",
       number<std::int64_t>(s.stale_after_ms, 0, std::int64_t{1} << 60, "MS")},
      {"journal-dir", path(s.journal_dir, "DIR")},
      {.name = "resume", .value = bare(s.resume), .needs = "journal-dir"},
      {"compact-every",
       number<std::uint64_t>(s.compact_every, 0, 1'000'000'000)},
      {"min-samples", number(s.build.min_samples, 1, 1'000'000'000)},
      {"threads", number(s.threads, 1, 4096)},
      {"strict-updates", bare(o.strict_updates)},
  };
}

int cmd_serve(const ServeFlags& o) {
  const auto loaded = meas::load_dataset(o.in);
  if (!loaded.is_ok()) return fail(loaded.status());

  serve::ServeOptions options = o.serve;
  options.build.cancel = &g_cancel;
  options.cancel = &g_cancel;
  options.max_reader_slots = static_cast<std::size_t>(o.readers);
  // The crash point is right after the N-th journal append — after the
  // record is durable but before it mutates anything.
  options.crash_after_appends = test_crash_after();

  auto engine = serve::ServeEngine::create(loaded.value(), options);
  if (!engine.is_ok()) return fail(engine.status());
  for (const std::string& note : engine.value()->recovery_log()) {
    std::fprintf(stderr, "serve: %s\n", note.c_str());
  }

  std::istringstream trace_file;
  std::istream* trace_in = &std::cin;
  if (o.trace != "-") {
    Result<std::string> text = read_file(o.trace);
    if (!text.is_ok()) return fail(text.status());
    trace_file.str(std::move(text.value()));
    trace_in = &trace_file;
  }

  serve::TraceOptions trace_options;
  trace_options.readers = o.readers;
  const Result<serve::TraceStats> stats = serve::run_trace(
      *engine.value(), *trace_in, std::cout, std::cerr, trace_options);
  if (!stats.is_ok()) return fail(stats.status());
  const serve::ServeCounters counters = engine.value()->counters();
  std::fprintf(stderr,
               "serve: %zu ops, %zu queries, %zu updates accepted, "
               "%zu rejected, %llu applied, %llu shed, %llu snapshots\n",
               stats.value().lines, stats.value().queries,
               stats.value().updates, stats.value().rejected,
               static_cast<unsigned long long>(counters.updates_applied),
               static_cast<unsigned long long>(counters.updates_shed),
               static_cast<unsigned long long>(counters.snapshots_published));
  if (o.strict_updates && stats.value().rejected > 0) {
    std::fprintf(stderr, "serve: --strict-updates and %zu rejections\n",
                 stats.value().rejected);
    return kExitDataError;
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// version, metrics and dispatch

#ifndef PATHSEL_VERSION
#define PATHSEL_VERSION "unknown"
#endif

// The version report names every stable format a release promises to keep
// readable, so operators can check compatibility without consulting docs.
int print_version() {
  std::printf("pathsel_cli %s\n", PATHSEL_VERSION);
  std::printf("formats:\n");
  std::printf("  dataset      pathsel-dataset v1\n");
  std::printf("  checkpoint   PSCK v%u\n", meas::kCheckpointVersion);
  std::printf("  results      PSRC v%u\n", core::kResultColumnsVersion);
  std::printf("  grid         pathsel-grid v%u\n", matrix::kGridFormatVersion);
  std::printf("  matrix-cell  PSMC v%u\n", matrix::kCellSummaryVersion);
  std::printf("  journal      PSJL v%u\n", serve::kJournalVersion);
  std::printf("  serve-state  PSSV v%u\n", serve::kServeStateVersion);
  std::printf("  bench-json   schema_version 1\n");
  return kExitOk;
}

// Dumps the registry snapshot to stderr in the requested format.  stderr
// keeps stdout byte-identical to a metrics-off run (metrics are passive).
void dump_metrics(const std::string& format) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  if (format == "json") {
    std::fprintf(stderr, "%s\n", metrics_to_json(snap).c_str());
    return;
  }
  std::fprintf(stderr, "-- metrics --\n");
  for (const auto& [name, value] : snap.counters) {
    std::fprintf(stderr, "counter  %-45s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::fprintf(stderr, "gauge    %-45s %.3f\n", name.c_str(), value);
  }
  for (const auto& [name, p] : snap.phases) {
    std::fprintf(stderr,
                 "phase    %-45s calls=%llu wall=%.2fms cpu=%.2fms "
                 "self=%.2fms\n",
                 name.c_str(), static_cast<unsigned long long>(p.calls),
                 static_cast<double>(p.wall_ns) / 1e6,
                 static_cast<double>(p.cpu_ns) / 1e6,
                 static_cast<double>(p.self_wall_ns()) / 1e6);
  }
  for (const auto& [name, h] : snap.histograms) {
    std::fprintf(stderr, "histo    %-45s total=%llu\n", name.c_str(),
                 static_cast<unsigned long long>(h.total));
  }
}

// The options every command shares: --metrics on all of them, --deadline on
// the interruptible ones.
struct CommonFlags {
  std::string metrics;  // empty: registry off
  std::optional<double> deadline;
};

Flag metrics_flag(CommonFlags& o) {
  Value value = choice(o.metrics, {"table", "json"});
  value.arity = Arity::kInline;
  value.implicit = "table";
  return {"metrics", std::move(value)};
}

// The usage words for a table: required flags bare, the rest bracketed.
std::vector<std::string> usage_words(const std::vector<Flag>& flags) {
  std::vector<std::string> words;
  for (const Flag& flag : flags) {
    std::string word = std::string{"--"} + flag.name;
    if (flag.value.arity == Arity::kValue) word += " " + flag.value.meta;
    if (flag.value.arity == Arity::kInline) {
      word += "[=" + flag.value.meta + "]";
    }
    words.push_back(flag.required ? word : "[" + word + "]");
  }
  return words;
}

struct Command {
  const char* name;
  std::function<std::vector<std::string>()> usage;
  std::function<int(std::span<char* const>)> run;
};

// A dispatch entry: the subcommand's flag table over its options struct and
// the function that runs it.  Interruptible commands also take --deadline,
// drain on SIGINT/SIGTERM and run under the optional stall watchdog.
template <typename Opts>
Command command(const char* name, std::vector<Flag> (*table)(Opts&),
                int (*run)(const Opts&), bool interruptible) {
  const auto flags = [table, interruptible](Opts& opts, CommonFlags& common) {
    std::vector<Flag> rows = table(opts);
    if (interruptible) {
      rows.push_back({"deadline", number(common.deadline, 0.0, 1e9, "SEC")});
    }
    return rows;
  };
  return {name,
          [flags] {
            Opts opts;
            CommonFlags common;
            return usage_words(flags(opts, common));
          },
          [=](std::span<char* const> args) -> int {
            Opts opts;
            CommonFlags common;
            std::vector<Flag> rows = flags(opts, common);
            rows.push_back(metrics_flag(common));
            if (!parse_flags(name, args, rows)) return kExitUsage;
            // A deadline of 0 trips immediately.
            if (common.deadline) {
              g_cancel.set_deadline_after_seconds(*common.deadline);
            }
            Watchdog dog;
            if (interruptible) {
              g_cancel.arm_signal(SIGINT);
              g_cancel.arm_signal(SIGTERM);
              Watchdog::start_from_env(dog, &g_cancel);
            }
            if (!common.metrics.empty()) MetricsRegistry::global().enable();
            const int rc = run(opts);
            if (!common.metrics.empty()) dump_metrics(common.metrics);
            dog.stop();
            return rc;
          }};
}

int usage(const std::vector<Command>& commands) {
  std::string text = "usage:\n";
  for (const Command& cmd : commands) {
    const std::string head = std::string{"  pathsel_cli "} + cmd.name;
    std::string line = head;
    for (const std::string& word : cmd.usage()) {
      if (line.size() + 1 + word.size() > 79) {
        text += line + "\n";
        line.assign(head.size(), ' ');
      }
      line += " " + word;
    }
    text += line + "\n";
  }
  text += "  pathsel_cli version | --version\n";
  text += "datasets:";
  for (const std::string& name : meas::Catalog::dataset_names()) {
    text += " " + name;
  }
  CommonFlags common;
  text += "\n" + usage_words({metrics_flag(common)}).front() +
          " on every command dumps run metrics to stderr on exit\n"
          "--threads defaults to the hardware thread count\n"
          "exit codes: 0 ok, 1 data error, 2 usage, 3 unreadable file,\n"
          "            4 parse error, 5 interrupted (deadline/signal)\n";
  std::fputs(text.c_str(), stderr);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Command> commands = {
      command("generate", generate_flags, cmd_generate, false),
      command("info", info_flags, cmd_info, false),
      command("analyze", analyze_flags, cmd_analyze, true),
      command("campaign", campaign_flags, cmd_campaign, true),
      command("matrix", matrix_flags, cmd_matrix, true),
      command("serve", serve_flags, cmd_serve, true),
  };
  if (argc < 2) return usage(commands);
  const std::string_view name = argv[1];
  if (name == "version" || name == "--version") {
    if (argc != 2) {
      std::fprintf(stderr, "version takes no arguments\n");
      return kExitUsage;
    }
    return print_version();
  }
  for (const Command& cmd : commands) {
    if (name == cmd.name) {
      return cmd.run({argv + 2, static_cast<std::size_t>(argc - 2)});
    }
  }
  std::fprintf(stderr, "unknown command: %s\n", argv[1]);
  return usage(commands);
}

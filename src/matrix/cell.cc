#include "matrix/cell.h"

#include <filesystem>

#include "core/confidence.h"
#include "core/coverage.h"
#include "core/disjoint.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "matrix/queue.h"
#include "meas/campaign.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "util/codec.h"
#include "util/metrics.h"

namespace pathsel::matrix {

namespace {

// PSMC layout after magic and version, LE:
//   u64 grid_fp | u64 cell_fp | u64 index | str dataset | f64 fault
//   | str metric | str policy | i32 min_samples | u64 seed | u8 ok
//   | ok=0: str error
//   | ok=1: u64 hosts, measurements, completed, usable_edges, pairs
//           | f64 coverage, better | u8 has_sig
//           | f64 sig_better, sig_indeterminate, sig_worse, found_full
//   | u64 n, n x {str rel_path, u64 size, u32 crc} artifacts | u32 crc
// magic, version, the fixed ok=0 fields, an empty error and no artifacts.
constexpr std::size_t kMinPayload = 8 + 3 * 8 + 4 * 8 + 4 + 8 + 1 + 8 + 8;
constexpr std::size_t kMaxText = 4096;

Status parse_fail(const std::string& what) {
  return Status::error(ErrorCode::kParseError, "cell summary: " + what);
}

// Identity of a cell's collection: everything that shapes the dataset bytes
// (dataset name, seed, scale, fault intensity) folded with the grid
// fingerprint.  Cells sharing the identity share one collection; an edited
// grid changes the fold and forces a fresh one (satellite contract: stale
// state is discarded, never merged).
std::uint64_t dataset_key(const CellContext& ctx, const CellSpec& cell) {
  const std::string params = cell.dataset + "|" + std::to_string(cell.seed) +
                             "|" + fmt17(ctx.grid->scale) + "|" +
                             fmt17(cell.fault);
  return meas::fold_fingerprint(ctx.grid_fp, crc32(params));
}

// Is infrastructure (abort the worker) as opposed to data-shaped (degrade
// the cell)?
bool infrastructure_failure(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kIoError:
    case ErrorCode::kParseError:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
      return true;
    default:
      return false;
  }
}

// Ensures the cell's dataset exists under datasets/<key>: reuses a finished
// collection, or claims the per-dataset lock and collects it with
// checkpoint/resume.  `busy` is set when another live worker holds the
// collection right now.
Status ensure_dataset(const CellContext& ctx, const CellSpec& cell,
                      std::string& ds_path, bool& busy) {
  busy = false;
  const std::uint64_t key = dataset_key(ctx, cell);
  const std::string dir = datasets_dir(ctx.work_dir) + "/" + hex16(key);
  const std::string done_path = dir + "/DONE";
  ds_path = dir + "/" + cell.dataset + ".ds";
  std::error_code ec;
  if (std::filesystem::exists(done_path, ec)) return Status::ok();

  Result<FileLock> lock = FileLock::try_acquire(dir + ".lock");
  if (!lock.is_ok()) return lock.status();
  if (!lock.value().held()) {
    busy = true;
    return Status::ok();
  }
  // Re-check under the lock: the previous holder may have just finished.
  if (std::filesystem::exists(done_path, ec)) return Status::ok();

  meas::CampaignOptions options;
  options.datasets = {cell.dataset};
  options.output_dir = dir;
  options.checkpoint_dir = dir + "/ckpt";
  options.resume = true;  // a reclaimed cell continues the dead worker's run
  options.catalog.seed = cell.seed;
  options.catalog.scale = ctx.grid->scale;
  options.catalog.fault_intensity = cell.fault;
  options.catalog.fault_seed = cell.seed;
  options.extra_fingerprint = key;
  options.cancel = ctx.cancel;
  options.after_checkpoint = ctx.after_checkpoint;

  const meas::CampaignReport report = meas::run_campaign(options);
  if (ctx.note) {
    for (const std::string& note : report.notes) {
      ctx.note("cell " + std::to_string(cell.index) + ": " + note);
    }
    for (const std::string& name : report.resumed) {
      ctx.note("cell " + std::to_string(cell.index) + ": dataset " + name +
               " resumed from checkpoint");
    }
  }
  if (!report.status.is_ok()) return report.status;
  MetricsRegistry::global().count("matrix.datasets.collected");
  return write_file_atomic(done_path, hex16(key) + "\n");
}

Status write_artifact(const CellContext& ctx, CellSummary& summary,
                      const std::string& rel_path, const std::string& bytes) {
  const Status wrote = write_file_atomic(ctx.work_dir + "/" + rel_path, bytes);
  if (!wrote.is_ok()) return wrote;
  CellSummary::Artifact artifact;
  artifact.rel_path = rel_path;
  artifact.size = bytes.size();
  artifact.crc = crc32(bytes);
  summary.artifacts.push_back(std::move(artifact));
  return Status::ok();
}

// The analysis half of a cell.  Data-shaped failures mark the summary
// degraded and return ok; infrastructure failures propagate.
Status analyze_cell(const CellContext& ctx, const CellSpec& cell,
                    const meas::Dataset& ds, const std::string& cell_dir,
                    const std::string& cell_rel_dir, CellSummary& summary) {
  auto degrade = [&summary](const Status& status) {
    summary.ok = false;
    summary.error = status.to_string();
    MetricsRegistry::global().count("matrix.cells.degraded");
    return Status::ok();
  };

  core::BuildOptions build;
  build.min_samples = summary.min_samples;
  build.threads = ctx.threads;
  build.cancel = ctx.cancel;

  if (cell.policy.kind == PolicyKind::kDisjoint) {
    const auto built = core::PathTable::build_checked(ds, build);
    if (!built.is_ok()) {
      return infrastructure_failure(built.status()) ? built.status()
                                                    : degrade(built.status());
    }
    const core::PathTable& table = built.value();
    const core::CoverageSummary cov = core::summarize_coverage(ds, table);
    summary.hosts = cov.hosts;
    summary.usable_edges = cov.usable_edges;
    summary.coverage = cov.coverage();
    const Status valid =
        core::validate_disjoint_k(cell.policy.k, table.hosts().size());
    if (!valid.is_ok()) return degrade(valid);
    core::DisjointOptions opt;
    opt.metric = cell.metric;
    opt.k = cell.policy.k;
    opt.threads = ctx.threads;
    opt.cancel = ctx.cancel;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    if (!swept.is_ok()) {
      return infrastructure_failure(swept.status()) ? swept.status()
                                                    : degrade(swept.status());
    }
    const std::vector<core::PairDisjointResult>& results = swept.value();
    summary.pairs = results.size();
    std::size_t beats = 0;
    std::size_t full = 0;
    for (const core::PairDisjointResult& r : results) {
      if (!r.paths.empty() && r.paths.front().value < r.default_value) ++beats;
      if (r.found_k() == opt.k) ++full;
    }
    const double n = results.empty() ? 1.0 : static_cast<double>(results.size());
    summary.better = static_cast<double>(beats) / n;
    summary.found_full = static_cast<double>(full) / n;
    std::string tsv = "# disjoint alternates: dataset=" + cell.dataset +
                      " mode=" + core::to_string(opt.mode) +
                      " k=" + std::to_string(opt.k) + " metric=" +
                      metric_label(cell.metric) + " min_samples=" +
                      std::to_string(summary.min_samples) + "\n";
    tsv += core::render_disjoint_rows(results, '\t');
    return write_artifact(ctx, summary, cell_rel_dir + "/disjoint.tsv", tsv);
  }

  core::AnalyzerOptions analyze;
  analyze.metric = cell.metric;
  if (cell.policy.kind == PolicyKind::kOneHop) {
    analyze.max_intermediate_hosts = 1;
    analyze.kernel = cell.policy.kernel;
  }
  analyze.threads = ctx.threads;
  analyze.cancel = ctx.cancel;
  auto result = core::analyze_with_coverage(ds, build, analyze);
  if (!result.is_ok()) {
    return infrastructure_failure(result.status()) ? result.status()
                                                   : degrade(result.status());
  }
  core::DegradedAnalysis& analysis = result.value();
  summary.hosts = analysis.coverage.hosts;
  summary.usable_edges = analysis.coverage.usable_edges;
  summary.coverage = analysis.coverage.coverage();
  summary.pairs = analysis.columns.size();
  const auto cdf = core::improvement_cdf(analysis.columns, ctx.threads);
  summary.better = cdf.fraction_above(0.0);
  const auto tally = core::classify_significance(analysis.columns, 0.95,
                                                 ctx.threads, ctx.cancel);
  if (!tally.is_ok()) {
    return infrastructure_failure(tally.status()) ? tally.status()
                                                  : degrade(tally.status());
  }
  summary.has_sig = true;
  summary.sig_better = tally.value().better;
  summary.sig_indeterminate = tally.value().indeterminate;
  summary.sig_worse = tally.value().worse;
  const Status annotated = core::annotate_significance(
      analysis.columns, 0.95, ctx.threads, ctx.cancel);
  if (!annotated.is_ok()) return annotated;
  const std::string psrc = core::serialize_result_columns(
      std::span<const core::ResultColumns>{&analysis.columns, 1});
  (void)cell_dir;
  return write_artifact(ctx, summary, cell_rel_dir + "/results.psrc", psrc);
}

}  // namespace

std::string serialize_cell_summary(const CellSummary& s) {
  codec::Writer out;
  out.u32(kCellSummaryMagic);
  out.u32(kCellSummaryVersion);
  out.u64(s.grid_fp);
  out.u64(s.cell_fp);
  out.u64(s.index);
  out.str(s.dataset);
  out.f64(s.fault);
  out.str(s.metric);
  out.str(s.policy);
  out.i32(s.min_samples);
  out.u64(s.seed);
  out.u8(s.ok ? 1 : 0);
  if (!s.ok) {
    out.str(s.error);
  } else {
    out.u64(s.hosts);
    out.u64(s.measurements);
    out.u64(s.completed);
    out.u64(s.usable_edges);
    out.u64(s.pairs);
    out.f64(s.coverage);
    out.f64(s.better);
    out.u8(s.has_sig ? 1 : 0);
    out.f64(s.sig_better);
    out.f64(s.sig_indeterminate);
    out.f64(s.sig_worse);
    out.f64(s.found_full);
  }
  out.u64(s.artifacts.size());
  for (const CellSummary::Artifact& a : s.artifacts) {
    out.str(a.rel_path);
    out.u64(a.size);
    out.u32(a.crc);
  }
  return std::move(out).seal();
}

Result<CellSummary> parse_cell_summary(std::string_view bytes) {
  Result<codec::Reader> opened = codec::open_sealed(
      bytes, {kCellSummaryMagic, kCellSummaryVersion, "PSMC cell summary",
              kMinPayload + 4});
  if (!opened.is_ok()) return parse_fail(opened.status().message());
  codec::Reader& in = opened.value();
  // A flag byte other than 0 or 1 is corruption, not "true".
  const auto flag = [&in](const char* what, bool& out) {
    const std::uint8_t v = in.u8(what);
    out = v == 1;
    return v <= 1;
  };

  CellSummary s;
  s.grid_fp = in.u64("grid_fp");
  s.cell_fp = in.u64("cell_fp");
  s.index = in.u64("index");
  s.dataset = in.str("dataset", kMaxText);
  s.fault = in.f64("fault");
  s.metric = in.str("metric", kMaxText);
  s.policy = in.str("policy", kMaxText);
  s.min_samples = in.i32("min_samples");
  s.seed = in.u64("seed");
  if (!flag("ok flag", s.ok)) return parse_fail("bad ok flag");
  if (!s.ok) {
    s.error = in.str("error", kMaxText);
  } else {
    s.hosts = in.u64("hosts");
    s.measurements = in.u64("measurements");
    s.completed = in.u64("completed");
    s.usable_edges = in.u64("usable_edges");
    s.pairs = in.u64("pairs");
    s.coverage = in.f64("coverage");
    s.better = in.f64("better");
    if (!flag("has_sig", s.has_sig)) return parse_fail("bad has_sig");
    s.sig_better = in.f64("sig_better");
    s.sig_indeterminate = in.f64("sig_indeterminate");
    s.sig_worse = in.f64("sig_worse");
    s.found_full = in.f64("found_full");
  }
  if (in.failed()) return parse_fail(in.error());
  if (s.min_samples < 0 || s.min_samples > 1'000'000) {
    return parse_fail("bad min_samples");
  }

  const std::uint64_t artifacts = in.u64("artifact count");
  // Each artifact takes at least its 8-byte path length, size and crc.
  if (!in.fits(artifacts, 8 + 8 + 4)) return parse_fail("bad artifact count");
  s.artifacts.resize(artifacts);
  for (CellSummary::Artifact& a : s.artifacts) {
    a.rel_path = in.str("artifact path", kMaxText);
    a.size = in.u64("artifact size");
    a.crc = in.u32("artifact crc");
  }
  if (in.failed()) return parse_fail(in.error());
  if (in.remaining() != 0) return parse_fail("trailing bytes after fields");
  return s;
}

Result<CellOutcome> run_cell(const CellContext& ctx, const CellSpec& cell) {
  const ScopedTimer timer{"matrix.cell"};
  const std::uint64_t cell_fp = cell_fingerprint(ctx.grid_fp, cell);

  std::string ds_path;
  bool busy = false;
  {
    const ScopedTimer collect_timer{"matrix.collect"};
    const Status ensured = ensure_dataset(ctx, cell, ds_path, busy);
    if (!ensured.is_ok()) return ensured;
  }
  if (busy) return CellOutcome::kDatasetBusy;

  Result<meas::Dataset> ds = meas::load_dataset(ds_path);
  if (!ds.is_ok()) return ds.status();

  CellSummary summary;
  summary.grid_fp = ctx.grid_fp;
  summary.cell_fp = cell_fp;
  summary.index = cell.index;
  summary.dataset = cell.dataset;
  summary.fault = cell.fault;
  summary.metric = metric_label(cell.metric);
  summary.policy = cell.policy.label();
  summary.min_samples = effective_min_samples(*ctx.grid, cell);
  summary.seed = cell.seed;
  summary.measurements = ds.value().measurements.size();
  summary.completed = ds.value().completed_count();

  const std::string cell_dir = cell_work_dir(ctx.work_dir, cell.index, cell_fp);
  const Status made = ensure_directory(cell_dir);
  if (!made.is_ok()) return made;
  // Artifact paths are recorded relative to the work dir so a work dir can
  // be archived or moved wholesale.
  const std::string cell_rel_dir =
      cell_dir.substr(ctx.work_dir.size() + 1);

  {
    const ScopedTimer analyze_timer{"matrix.analyze"};
    const Status analyzed =
        analyze_cell(ctx, cell, ds.value(), cell_dir, cell_rel_dir, summary);
    if (!analyzed.is_ok()) return analyzed;
  }

  const Status published = write_file_atomic(
      cell_summary_path(ctx.work_dir, cell.index),
      serialize_cell_summary(summary));
  if (!published.is_ok()) return published;
  MetricsRegistry::global().count("matrix.cells.run");
  MetricsRegistry::global().count("matrix.pairs", summary.pairs);
  return CellOutcome::kRan;
}

}  // namespace pathsel::matrix

// serve_uw3: writes beside reads on one snapshot layer.
//
// Set-up builds a ServeEngine over UW3 at scale 1, with no journal (an fsync
// per flush would measure the host's disk, not the engine).  The timed
// phase runs one writer and two readers.  Each writer op submits 8 updates
// to distinct measured pairs, values drawn from the seed, then flush()es:
// the incremental row recompute and re-classification, then one snapshot
// publish.  Meanwhile each reader loops query_best over every measured pair
// for both metrics, timing batches of 64 consecutive queries.
//
// Checks: every submit and flush succeeds; every query answers kOk or
// kNoAlternate; and after the timed phase the pinned snapshot's columns are
// byte-identical to a batch one-hop analyze + annotate of its own table.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/result_columns.h"
#include "harness.h"
#include "meas/catalog.h"
#include "serve/engine.h"
#include "util/rng.h"

namespace pathsel::perfbench {
namespace {

constexpr int kReaders = 2;
constexpr int kUpdatesPerOp = 8;
constexpr int kQueryBatch = 64;
/// Pre-drawn update batches; ops cycle through them.
constexpr std::size_t kBatches = 4096;
/// The engine's own pool for its creation-time sweeps; with the two readers
/// and the writer this keeps the process at kThreads threads.
constexpr int kEngineThreads = kThreads - kReaders;

/// Latencies in log-spaced buckets 0.5% wide, so a reader can record every
/// batch of a long run in fixed memory.
class LogHistogram {
 public:
  void add(double v) {
    const double x = v < 1.0 ? 1.0 : v;
    auto b = static_cast<std::size_t>(std::log(x) / kLogStep);
    if (b >= counts_.size()) b = counts_.size() - 1;
    ++counts_[b];
    ++total_;
  }
  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  /// Value at fraction q, interpolated inside its bucket.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && seen + c >= rank) {
        const double lo = std::exp(static_cast<double>(i) * kLogStep);
        const double hi = std::exp(static_cast<double>(i + 1) * kLogStep);
        return lo + (hi - lo) * ((rank - seen) / c);
      }
      seen += c;
    }
    return std::exp(static_cast<double>(counts_.size()) * kLogStep);
  }

 private:
  static constexpr double kLogStep = 0.00498754151103897;  // ln(1.005)
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(6000, 0);
  std::uint64_t total_ = 0;
};

struct ReaderStats {
  std::uint64_t queries = 0;
  std::uint64_t bad = 0;
  double wall_s = 0.0;
  LogHistogram query_ns;
};

void read_loop(serve::ServeEngine& engine,
               std::span<const std::pair<topo::HostId, topo::HostId>> pairs,
               std::size_t slot, const std::atomic<bool>& stop,
               ReaderStats& stats) {
  std::size_t next = (slot * pairs.size()) / (kReaders + 1);
  const std::uint64_t start = now_ns();
  while (!stop.load(std::memory_order_acquire)) {
    const std::uint64_t t0 = now_ns();
    for (int q = 0; q < kQueryBatch; ++q) {
      const core::Metric metric = q % 2 == 0 ? core::Metric::kRtt : core::Metric::kLoss;
      const auto& [a, b] = pairs[next];
      const serve::BestResponse r = engine.query_best(metric, a, b, slot);
      if (r.kind != serve::BestResponse::Kind::kOk &&
          r.kind != serve::BestResponse::Kind::kNoAlternate) {
        ++stats.bad;
      }
      if (q % 2 == 1 && ++next == pairs.size()) next = 0;
    }
    stats.query_ns.add(static_cast<double>(now_ns() - t0) / kQueryBatch);
    stats.queries += kQueryBatch;
  }
  stats.wall_s = static_cast<double>(now_ns() - start) / 1e9;
}

std::string batch_reference(const serve::ServeSnapshot& snap) {
  std::vector<core::ResultColumns> sets;
  for (const core::Metric metric : {core::Metric::kRtt, core::Metric::kLoss}) {
    core::AnalyzerOptions analyzer;
    analyzer.metric = metric;
    analyzer.max_intermediate_hosts = 1;
    analyzer.threads = 1;
    core::ResultColumns cols =
        core::from_pairs(core::analyze_alternate_paths(snap.table, analyzer), metric);
    if (!core::annotate_significance(cols, 0.95, 1).is_ok()) return {};
    sets.push_back(std::move(cols));
  }
  return core::serialize_result_columns(sets);
}

class ServeUw3 final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    engine_.reset();
    meas::CatalogConfig config;
    config.seed = seed;
    config.scale = 1.0;
    meas::Catalog catalog{config};
    serve::ServeOptions options;
    options.threads = kEngineThreads;
    auto created = serve::ServeEngine::create(catalog.uw3(), options);
    if (!created.is_ok()) {
      std::fprintf(stderr, "serve_uw3: %s\n", created.status().to_string().c_str());
      std::exit(2);
    }
    engine_ = std::move(created.value());
  }

  void prepare_reference(bool tamper) override {
    tamper_ = tamper;
    const serve::SnapshotBoard::Pin pin = engine_->pin(0);
    pairs_.clear();
    std::vector<double> mean_rtt;
    for (const core::PathEdge& e : pin->table.edges()) {
      pairs_.emplace_back(e.a, e.b);
      mean_rtt.push_back(e.rtt.count() > 0 ? e.rtt.mean() : 100.0);
    }
    // Distinct pairs per batch; RTTs scattered around the pair's mean so
    // the served answers drift the way live probes would move them.
    Rng rng{seed_ ^ 0x5e27e5e27e5eULL};
    batches_.assign(kBatches, {});
    for (std::vector<serve::EdgeUpdate>& batch : batches_) {
      std::vector<std::size_t> picked;
      while (picked.size() < kUpdatesPerOp) {
        const auto i = static_cast<std::size_t>(rng.uniform_u64(pairs_.size()));
        if (std::find(picked.begin(), picked.end(), i) != picked.end()) continue;
        picked.push_back(i);
        serve::EdgeUpdate u;
        u.a = pairs_[i].first;
        u.b = pairs_[i].second;
        u.lost = rng.uniform() < 0.05;
        u.rtt_ms = mean_rtt[i] * rng.uniform(0.8, 1.25);
        batch.push_back(u);
      }
    }
  }

  void run(const Options& options, Tracer& tracer, Outcome& out) override {
    const serve::ServeCounters before = engine_->counters();
    std::atomic<bool> stop{false};
    std::vector<ReaderStats> stats(kReaders);
    std::vector<std::thread> readers;
    {
      // Joins the readers on every path out of this scope.
      struct Joiner {
        std::atomic<bool>& stop;
        std::vector<std::thread>& threads;
        ~Joiner() {
          stop.store(true, std::memory_order_release);
          for (std::thread& t : threads) t.join();
        }
      } joiner{stop, readers};
      for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back(read_loop, std::ref(*engine_),
                             std::span<const std::pair<topo::HostId, topo::HostId>>{pairs_},
                             static_cast<std::size_t>(r + 1), std::cref(stop),
                             std::ref(stats[static_cast<std::size_t>(r)]));
      }
      bool op_ok = true;
      closed_loop(
          options, tracer, out,
          [&](std::uint64_t i) {
            op_ok = true;
            for (const serve::EdgeUpdate& u : batches_[i % kBatches]) {
              auto span = tracer.span("serve.submit");
              op_ok = engine_->submit(u).is_ok() && op_ok;
            }
            auto span = tracer.span("serve.flush");
            op_ok = engine_->flush().is_ok() && op_ok;
          },
          [&](std::uint64_t) { return op_ok; });
    }
    const serve::ServeCounters after = engine_->counters();

    LogHistogram query_ns;
    double query_per_s = 0.0;
    for (const ReaderStats& s : stats) {
      out.attempted += s.queries;
      out.failed += s.bad;
      query_ns.merge(s.query_ns);
      if (s.wall_s > 0.0) query_per_s += static_cast<double>(s.queries) / s.wall_s;
    }
    const serve::SnapshotBoard::Pin pin = engine_->pin(0);
    const std::vector<core::ResultColumns> served{pin->rtt, pin->loss};
    std::string reference = batch_reference(*pin);
    if (tamper_ && !reference.empty()) reference[reference.size() / 2] ^= 1;
    ++out.attempted;
    if (core::serialize_result_columns(served) != reference) {
      std::fprintf(stderr, "serve_uw3: served columns differ from batch analyze\n");
      ++out.failed;
    }

    const auto ops = static_cast<double>(out.ops);
    const auto applied = static_cast<double>(after.updates_applied - before.updates_applied);
    const auto accepted =
        static_cast<double>(after.updates_accepted - before.updates_accepted);
    out.layer["serve.updates.applied"] = applied / ops;
    out.layer["serve.updates.shed"] =
        static_cast<double>(after.updates_shed - before.updates_shed) / ops;
    out.layer["serve.snapshots.published"] =
        static_cast<double>(after.snapshots_published - before.snapshots_published) / ops;
    out.layer["serve.apply_ratio"] = accepted > 0.0 ? applied / accepted : 0.0;
    out.layer["serve.query_per_s"] = query_per_s;
    out.layer["serve.query_ns_p50"] = query_ns.quantile(0.5);
    out.layer["serve.query_ns_p99"] = query_ns.quantile(0.99);
  }

  [[nodiscard]] int pool_threads() const override { return kEngineThreads; }

 private:
  std::uint64_t seed_ = 0;
  bool tamper_ = false;
  std::unique_ptr<serve::ServeEngine> engine_;
  std::vector<std::pair<topo::HostId, topo::HostId>> pairs_;
  std::vector<std::vector<serve::EdgeUpdate>> batches_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_uw3() { return std::make_unique<ServeUw3>(); }

}  // namespace pathsel::perfbench

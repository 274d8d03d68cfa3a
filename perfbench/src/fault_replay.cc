// fault_replay: collection, serialization and survivability replay under
// one fault draw per op, one client, closed loop, UW3 at scale 0.2.
//
// Set-up collects UW3 fault-free, builds its path graph, and freezes the
// direct path plus the k = 2 link-disjoint alternates (Suurballe) of a fixed
// 64-pair subset drawn from the seed.  Each op takes the next fault seed of
// a 15-entry cycle derived from the workload seed and, at intensity 0.15:
// collects UW3 with a fresh Catalog (world build, routing, the collector's
// event loop), write_dataset()s the result, and replays the fault plan of
// that same draw against the frozen paths.
//
// Checks: a repeated fault seed must reproduce the dataset's CRC; every
// availability lies in [0, 1]; each group's availability is at least that
// of its best member.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/disjoint.h"
#include "core/path_table.h"
#include "harness.h"
#include "meas/catalog.h"
#include "meas/serialize.h"
#include "sim/fault.h"
#include "sim/survivability.h"
#include "util/atomic_io.h"
#include "util/rng.h"

namespace pathsel::perfbench {
namespace {

constexpr double kScale = 0.2;
constexpr double kIntensity = 0.15;
constexpr std::size_t kPairs = 64;
/// Fault draws differ a lot in cost (routing rebuilds per draw), so a run
/// cycles through many of them to keep its p90 from resting on one or two
/// draws.  Odd, so the traced run (every other op) still visits every one.
constexpr std::size_t kFaultSeeds = 15;
/// The paper's 30-measurement floor scaled to the trace length.
constexpr int kMinSamples = 6;

std::vector<topo::HostId> hops(topo::HostId a, const std::vector<topo::HostId>& via,
                               topo::HostId b) {
  std::vector<topo::HostId> out{a};
  out.insert(out.end(), via.begin(), via.end());
  out.push_back(b);
  return out;
}

bool availabilities_valid(const std::vector<sim::PairSurvivability>& results,
                          const std::vector<sim::PairSpec>& specs) {
  if (results.size() != specs.size()) return false;
  const auto in_unit = [](const sim::PathAvailability& p) {
    return p.availability >= 0.0 && p.availability <= 1.0;
  };
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::PairSurvivability& r = results[i];
    if (!std::all_of(r.paths.begin(), r.paths.end(), in_unit) ||
        !std::all_of(r.groups.begin(), r.groups.end(), in_unit) ||
        r.groups.size() != specs[i].groups.size()) {
      return false;
    }
    for (std::size_t g = 0; g < r.groups.size(); ++g) {
      double best = 0.0;
      for (const std::size_t m : specs[i].groups[g].members) {
        best = std::max(best, r.paths[m].availability);
      }
      if (r.groups[g].availability < best) return false;
    }
  }
  return true;
}

class FaultReplay final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    catalog_ = std::make_unique<meas::Catalog>(config(0.0, 0));
    const meas::Dataset& ds = catalog_->uw3();

    core::BuildOptions build;
    build.min_samples = kMinSamples;
    build.threads = kThreads;
    const core::PathTable table = core::PathTable::build(ds, build);
    core::DisjointOptions disjoint;
    disjoint.k = 2;
    disjoint.mode = core::DisjointMode::kLinkDisjoint;
    disjoint.threads = kThreads;
    const auto swept = core::compute_disjoint_alternates(table, disjoint);
    if (!swept.is_ok()) {
      std::fprintf(stderr, "fault_replay: %s\n", swept.status().to_string().c_str());
      std::exit(2);
    }

    // The fixed subset: pairs with two disjoint alternates, seed-shuffled.
    std::vector<const core::PairDisjointResult*> eligible;
    for (const core::PairDisjointResult& r : swept.value()) {
      if (r.found_k() == 2) eligible.push_back(&r);
    }
    Rng rng{seed ^ 0xfa017ULL};
    for (std::size_t i = eligible.size(); i > 1; --i) {
      std::swap(eligible[i - 1], eligible[rng.uniform_u64(i)]);
    }
    eligible.resize(std::min(eligible.size(), kPairs));
    specs_.clear();
    for (const core::PairDisjointResult* r : eligible) {
      sim::PairSpec spec;
      spec.paths.push_back({"direct", hops(r->a, {}, r->b)});
      sim::PathGroup any2{"any2", {}};
      for (const core::DisjointPath& p : r->paths) {
        any2.members.push_back(spec.paths.size());
        spec.paths.push_back({"disjoint", hops(r->a, p.via, r->b)});
      }
      spec.groups.push_back(std::move(any2));
      specs_.push_back(std::move(spec));
    }
    const meas::DatasetSpec uw3 = catalog_->spec("UW3");
    trace_ = uw3.config.duration;
    fault_tag_ = uw3.fault_tag;
  }

  void prepare_reference(bool tamper) override {
    tamper_ = tamper;
    if (specs_.size() < kPairs) {
      std::fprintf(stderr, "fault_replay: only %zu pairs with 2 disjoint alternates\n",
                   specs_.size());
      std::exit(2);
    }
    Rng rng{seed_ ^ 0xfa5eedULL};
    fault_seeds_.clear();
    for (std::size_t i = 0; i < kFaultSeeds; ++i) fault_seeds_.push_back(rng.next_u64());
    crc_by_seed_.assign(kFaultSeeds, std::nullopt);
  }

  void run(const Options& options, Tracer& tracer, Outcome& out) override {
    const sim::Network& net = catalog_->world98();
    std::string text;
    Result<std::vector<sim::PairSurvivability>> replayed{std::vector<sim::PairSurvivability>{}};
    closed_loop(
        options, tracer, out,
        [&](std::uint64_t i) {
          const std::uint64_t fault_seed = fault_seeds_[i % kFaultSeeds];
          meas::Catalog catalog{config(kIntensity, fault_seed)};
          {
            auto span = tracer.span("meas.collect");
            span.set_amount(static_cast<double>(catalog.uw3().measurements.size()));
          }
          {
            auto span = tracer.span("meas.write_dataset");
            std::ostringstream os;
            meas::write_dataset(os, catalog.uw3());
            text = os.str();
            span.set_amount(static_cast<double>(text.size()));
          }
          auto span = tracer.span("sim.replay");
          const sim::FaultPlan plan{
              sim::FaultConfig::at_intensity(kIntensity, fault_seed ^ fault_tag_),
              net.topology(), trace_};
          sim::SurvivabilityOptions replay;
          replay.threads = kThreads;
          replayed = sim::replay_survivability(net, plan, specs_, replay);
        },
        [&](std::uint64_t i) {
          std::optional<std::uint32_t>& expected = crc_by_seed_[i % kFaultSeeds];
          const std::uint32_t crc = crc32(text);
          if (!expected.has_value()) expected = tamper_ ? crc ^ 1U : crc;
          return *expected == crc && replayed.is_ok() &&
                 availabilities_valid(replayed.value(), specs_);
        });
  }

  [[nodiscard]] int pool_threads() const override { return kThreads; }

 private:
  [[nodiscard]] meas::CatalogConfig config(double intensity,
                                           std::uint64_t fault_seed) const {
    meas::CatalogConfig c;
    c.seed = seed_;
    c.scale = kScale;
    c.fault_intensity = intensity;
    c.fault_seed = fault_seed;
    return c;
  }

  std::uint64_t seed_ = 0;
  bool tamper_ = false;
  std::unique_ptr<meas::Catalog> catalog_;
  std::vector<sim::PairSpec> specs_;
  Duration trace_{};
  std::uint64_t fault_tag_ = 0;
  std::vector<std::uint64_t> fault_seeds_;
  std::vector<std::optional<std::uint32_t>> crc_by_seed_;
};

}  // namespace

std::unique_ptr<Workload> make_fault_replay() {
  return std::make_unique<FaultReplay>();
}

}  // namespace pathsel::perfbench

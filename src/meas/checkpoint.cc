#include "meas/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "meas/serialize.h"
#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/rng.h"

namespace pathsel::meas {

namespace {

// PSCK layout after magic and version, LE:
//   i64 now_ms (at byte 8) | u64 fingerprint | u8 kind (0 traceroute, 1 tcp)
//   | u64 next_seq | i32 episodes | u64 injector_epoch | u64 rng[4]
//   | str dataset | u64 n, n x u64[4] server rngs
//   | u64 n, n x {u8 kind, i64 t_ms, u64 seq, i32 a, i32 b, i64 first_ms,
//                 i32 episode, i32 tried} pending events
//   | str measurements (v1 dataset rows, each ending in '\n') | u32 crc
constexpr std::size_t kFixedBytes = 8 + 8 + 8 + 1 + 8 + 4 + 8 + 32 + 4 * 8;
constexpr std::size_t kEventBytes = 1 + 8 + 8 + 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kMaxName = 4096;

std::uint64_t mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t s = h;
  return h = splitmix64(s);
}

Status corrupt(const std::string& what) {
  return Status::error(ErrorCode::kParseError, "corrupt checkpoint: " + what);
}

std::string sanitize_filename(const std::string& dataset) {
  std::string out = dataset;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::uint64_t fold_fingerprint(std::uint64_t base, std::uint64_t value) {
  std::uint64_t h = base;
  return mix(h, value);
}

std::uint64_t checkpoint_fingerprint(std::string_view dataset,
                                     const CollectorConfig& config,
                                     std::span<const topo::HostId> hosts) {
  std::uint64_t h = 0x70617468'73656c00ULL;  // "pathsel"
  for (const char c : dataset) mix(h, static_cast<unsigned char>(c));
  mix(h, config.seed);
  mix(h, static_cast<std::uint64_t>(config.discipline));
  mix(h, static_cast<std::uint64_t>(config.kind));
  mix(h, static_cast<std::uint64_t>(config.duration.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.mean_interval.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.episode_window.total_millis()));
  mix(h, config.allow_rate_limited_targets ? 1 : 0);
  mix(h, config.first_sample_loss_only ? 1 : 0);
  mix(h, static_cast<std::uint64_t>(config.retry.max_retries));
  mix(h, static_cast<std::uint64_t>(
             config.retry.initial_backoff.total_millis()));
  mix(h, static_cast<std::uint64_t>(config.retry.backoff_multiplier * 1e6));
  mix(h, config.availability.seed);
  mix(h, static_cast<std::uint64_t>(config.availability.dead_fraction * 1e9));
  mix(h, static_cast<std::uint64_t>(config.availability.flaky_fraction * 1e9));
  mix(h,
      static_cast<std::uint64_t>(config.availability.min_down_fraction * 1e9));
  mix(h,
      static_cast<std::uint64_t>(config.availability.max_down_fraction * 1e9));
  mix(h, static_cast<std::uint64_t>(config.availability.mean_up.total_millis()));
  if (config.faults != nullptr && config.faults->enabled()) {
    const sim::FaultConfig& f = config.faults->config();
    mix(h, f.seed);
    mix(h, static_cast<std::uint64_t>(f.link_flap_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.exchange_outage_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.host_crash_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.icmp_storm_fraction * 1e9));
    mix(h, static_cast<std::uint64_t>(f.probe_stuck_rate * 1e9));
  }
  mix(h, hosts.size());
  for (const topo::HostId host : hosts) {
    mix(h, static_cast<std::uint64_t>(host.value()));
  }
  return h;
}

std::string serialize_checkpoint(const CampaignCheckpoint& cp,
                                 MeasurementKind kind,
                                 std::uint64_t fingerprint) {
  std::ostringstream rows;
  for (const Measurement& m : cp.measurements) write_measurement(rows, m, kind);
  const std::string block = std::move(rows).str();

  codec::Writer out{kFixedBytes + cp.dataset_name.size() +
                    cp.server_rng_states.size() * 32 +
                    cp.pending.size() * kEventBytes + block.size() + 4};
  out.u32(kCheckpointMagic);
  out.u32(kCheckpointVersion);
  out.i64(cp.now.since_start().total_millis());
  out.u64(fingerprint);
  out.u8(kind == MeasurementKind::kTraceroute ? 0 : 1);
  out.u64(cp.next_seq);
  out.i32(cp.episode_count);
  out.u64(cp.injector_epoch);
  for (const std::uint64_t word : cp.rng_state) out.u64(word);
  out.str(cp.dataset_name);
  out.u64(cp.server_rng_states.size());
  for (const auto& state : cp.server_rng_states) {
    for (const std::uint64_t word : state) out.u64(word);
  }
  out.u64(cp.pending.size());
  for (const CampaignEvent& ev : cp.pending) {
    out.u8(static_cast<std::uint8_t>(ev.kind));
    out.i64(ev.t.since_start().total_millis());
    out.u64(ev.seq);
    out.i32(ev.a);
    out.i32(ev.b);
    out.i64(ev.first.since_start().total_millis());
    out.i32(ev.episode);
    out.i32(ev.tried);
  }
  out.str(block);
  return std::move(out).seal();
}

Result<CampaignCheckpoint> parse_checkpoint(std::string_view bytes,
                                            MeasurementKind expected_kind,
                                            std::uint64_t expected_fingerprint) {
  Result<codec::Reader> opened = codec::open_sealed(
      bytes, {kCheckpointMagic, kCheckpointVersion, "PSCK checkpoint",
              kFixedBytes + 4});
  if (!opened.is_ok()) return corrupt(opened.status().message());
  codec::Reader& in = opened.value();

  CampaignCheckpoint cp;
  const std::int64_t now_ms = in.i64("now_ms");
  const std::uint64_t fingerprint = in.u64("fingerprint");
  const std::uint8_t kind = in.u8("kind");
  cp.next_seq = in.u64("next_seq");
  cp.episode_count = in.i32("episodes");
  cp.injector_epoch = in.u64("injector_epoch");
  for (std::uint64_t& word : cp.rng_state) word = in.u64("rng state");
  if (in.failed()) return corrupt(in.error());
  if (kind > 1) return corrupt("unknown kind: " + std::to_string(kind));
  if ((kind == 0) != (expected_kind == MeasurementKind::kTraceroute)) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "checkpoint kind does not match this campaign");
  }
  if (fingerprint != expected_fingerprint) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "checkpoint fingerprint does not match this campaign (different "
        "config, seed, faults, or host list)");
  }
  if (now_ms < 0) return corrupt("invalid now_ms");
  if (cp.episode_count < 0) return corrupt("invalid episodes");
  cp.now = SimTime::at(Duration::millis(now_ms));
  cp.dataset_name = in.str("dataset name", kMaxName);

  const std::uint64_t servers = in.u64("server rng count");
  if (!in.fits(servers, 32)) return corrupt("invalid server_rngs count");
  cp.server_rng_states.resize(servers);
  for (auto& state : cp.server_rng_states) {
    for (std::uint64_t& word : state) word = in.u64("server rng state");
  }

  const std::uint64_t pending = in.u64("pending count");
  if (!in.fits(pending, kEventBytes)) return corrupt("invalid pending count");
  cp.pending.resize(pending);
  for (CampaignEvent& ev : cp.pending) {
    const std::uint8_t ev_kind = in.u8("event kind");
    const std::int64_t t_ms = in.i64("event time");
    ev.seq = in.u64("event seq");
    ev.a = in.i32("event a");
    ev.b = in.i32("event b");
    const std::int64_t first_ms = in.i64("event first time");
    ev.episode = in.i32("event episode");
    ev.tried = in.i32("event tried");
    if (in.failed()) return corrupt(in.error());
    if (ev_kind >= kCampaignEventKindCount || t_ms < 0 || first_ms < 0 ||
        ev.episode < -1 || ev.tried < 0 || ev.tried > 255) {
      return corrupt("pending event out of range");
    }
    ev.kind = static_cast<CampaignEventKind>(ev_kind);
    ev.t = SimTime::at(Duration::millis(t_ms));
    ev.first = SimTime::at(Duration::millis(first_ms));
  }

  // The measurements are v1 dataset rows, one per line: the one encoding a
  // resumed campaign re-serializes byte-identically.
  std::string_view block = in.str("measurements", in.remaining());
  if (in.failed()) return corrupt(in.error());
  if (in.remaining() != 0) return corrupt("trailing data after payload");
  if (!block.empty() && block.back() != '\n') {
    return corrupt("measurement rows do not end in a newline");
  }
  cp.measurements.reserve(
      static_cast<std::size_t>(std::count(block.begin(), block.end(), '\n')));
  while (!block.empty()) {
    const std::size_t eol = block.find('\n');
    Measurement m;
    std::string error;
    if (!parse_measurement(block.substr(0, eol), expected_kind, m, &error)) {
      return corrupt(error);
    }
    cp.measurements.push_back(std::move(m));
    block.remove_prefix(eol + 1);
  }
  return cp;
}

CheckpointLoad load_newest_checkpoint(const std::string& dir,
                                      const std::string& dataset,
                                      MeasurementKind kind,
                                      std::uint64_t fingerprint) {
  CheckpointLoad out;
  const std::string base = dir + "/" + sanitize_filename(dataset) + ".ckpt.";
  for (const int generation : {0, 1}) {
    const std::string path = base + std::to_string(generation);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const Result<std::string> text = read_file(path);
    if (!text.is_ok()) {
      out.discarded.push_back(path + ": " + text.status().message());
      continue;
    }
    Result<CampaignCheckpoint> parsed =
        parse_checkpoint(text.value(), kind, fingerprint);
    if (!parsed.is_ok()) {
      out.discarded.push_back(path + ": " + parsed.status().message());
      continue;
    }
    CampaignCheckpoint& cp = parsed.value();
    const bool newer =
        !out.checkpoint.has_value() || out.checkpoint->now < cp.now ||
        (out.checkpoint->now == cp.now && out.checkpoint->next_seq < cp.next_seq);
    if (newer) out.checkpoint = std::move(cp);
  }
  return out;
}

std::string CheckpointStore::generation_path(const std::string& dataset,
                                             int generation) const {
  return dir_ + "/" + sanitize_filename(dataset) + ".ckpt." +
         std::to_string(generation);
}

Status CheckpointStore::save(const CampaignCheckpoint& cp,
                             MeasurementKind kind, std::uint64_t fingerprint) {
  const Status made = ensure_directory(dir_);
  if (!made.is_ok()) return made;

  // First save for this dataset: continue alternating from whatever
  // generation currently holds the newest valid checkpoint.
  int* next = nullptr;
  for (auto& [name, generation] : next_generation_) {
    if (name == cp.dataset_name) next = &generation;
  }
  if (next == nullptr) {
    int start = 0;
    SimTime newest = SimTime::start();
    bool found = false;
    for (const int generation : {0, 1}) {
      const std::string path = generation_path(cp.dataset_name, generation);
      const Result<std::string> text = read_file(path);
      if (!text.is_ok()) continue;
      const Result<CampaignCheckpoint> parsed =
          parse_checkpoint(text.value(), kind, fingerprint);
      if (!parsed.is_ok()) continue;
      if (!found || newest < parsed.value().now) {
        newest = parsed.value().now;
        start = 1 - generation;
        found = true;
      }
    }
    next_generation_.emplace_back(cp.dataset_name, start);
    next = &next_generation_.back().second;
  }

  const Status wrote =
      write_file_atomic(generation_path(cp.dataset_name, *next),
                        serialize_checkpoint(cp, kind, fingerprint));
  if (!wrote.is_ok()) return wrote;
  *next = 1 - *next;
  return Status::ok();
}

}  // namespace pathsel::meas

// Frozen on-disk bytes of the five sealed formats (PSRC results, PSJL
// journal, PSSV serve state, PSCK campaign checkpoint, PSMC matrix cell
// summary).  The other suites round-trip writer -> reader,
// which a writer and reader that drifted together would still pass; this one
// pins each fixed input to a hex image, so any change to the encoding — byte
// order, field order, padding, CRC coverage — fails here.  Each image must
// also parse back to exactly the input it was made from.
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/dense_kernel.h"
#include "core/result_columns.h"
#include "matrix/cell.h"
#include "meas/checkpoint.h"
#include "serve/journal.h"

namespace pathsel {
namespace {

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xfu]);
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

// ---- PSRC ----------------------------------------------------------------

// Two column sets: a kNoRelay row, a two-hop relay sequence, -0.0 and
// every significance class between them.
std::vector<core::ResultColumns> psrc_input() {
  using core::SignificanceClass;
  const auto sig = [](SignificanceClass c) {
    return static_cast<std::int8_t>(c);
  };
  core::ResultColumns rtt;
  rtt.metric = core::Metric::kRtt;
  rtt.src = {1, 7};
  rtt.dst = {2, 9};
  rtt.default_value = {-0.0, 120.25};
  rtt.alternate_value = {0.0, 80.5};
  rtt.default_mean = {10.0, 0.1 + 0.2};
  rtt.default_var = {0.5, 1e-300};
  rtt.default_dof_denom = {0.25, 3.0};
  rtt.alternate_mean = {11.0, -0.0};
  rtt.alternate_var = {0.75, 2.0};
  rtt.alternate_dof_denom = {0.125, 4.0};
  rtt.relay = {core::kNoRelay, 4};
  rtt.hop_count = {0, 2};
  rtt.significance = {sig(SignificanceClass::kUnclassified),
                      sig(SignificanceClass::kBetter)};
  rtt.via = {4, 5};
  rtt.via_offset = {0, 0};

  core::ResultColumns loss;
  loss.metric = core::Metric::kLoss;
  loss.src = {3, 0, 6};
  loss.dst = {8, 2147483647, 5};
  loss.default_value = {0.05, 0.0, 1.0};
  loss.alternate_value = {0.01, 0.0, 0.5};
  loss.default_mean = {0.05, 0.0, 1.0};
  loss.default_var = {1e-4, 0.0, 0.0};
  loss.default_dof_denom = {1e-8, 0.0, 0.0};
  loss.alternate_mean = {0.01, 0.0, 0.5};
  loss.alternate_var = {2e-5, 0.0, 0.25};
  loss.alternate_dof_denom = {4e-10, 0.0, 0.0625};
  loss.relay = {12, 1, 3};
  loss.hop_count = {1, 1, 1};
  loss.significance = {sig(SignificanceClass::kWorse),
                       sig(SignificanceClass::kIndeterminate),
                       sig(SignificanceClass::kZero)};
  loss.via = {12, 1, 3};
  loss.via_offset = {0, 1, 2};
  return {rtt, loss};
}

constexpr std::string_view kPsrcHex =
    "5053524301000000020000000000000002000000000000000200000000000000"
    "01000000070000000200000009000000ffffffff040000000000000002000000"
    "ff0000000000000000800000000000105e400000000000000000000000000020"
    "54400000000000002440343333333333d33f000000000000e03f59f3f8c21f6e"
    "a501000000000000d03f00000000000008400000000000002640000000000000"
    "0080000000000000e83f0000000000000040000000000000c03f000000000000"
    "1040040000000500000001000000030000000000000003000000000000000300"
    "0000000000000600000008000000ffffff7f050000000c000000010000000300"
    "00000100000001000000010000000102039a9999999999a93f00000000000000"
    "00000000000000f03f7b14ae47e17a843f0000000000000000000000000000e0"
    "3f9a9999999999a93f0000000000000000000000000000f03f2d431cebe2361a"
    "3f000000000000000000000000000000003a8c30e28e79453e00000000000000"
    "0000000000000000007b14ae47e17a843f0000000000000000000000000000e0"
    "3ff168e388b5f8f43e0000000000000000000000000000d03fbbbdd7d9df7cfb"
    "3d0000000000000000000000000000b03f0c0000000100000003000000275330"
    "4b";

void expect_columns_equal(const core::ResultColumns& a,
                          const core::ResultColumns& b) {
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.relay, b.relay);
  EXPECT_EQ(a.hop_count, b.hop_count);
  EXPECT_EQ(a.significance, b.significance);
  EXPECT_EQ(a.via, b.via);
  EXPECT_EQ(a.via_offset, b.via_offset);
  expect_same_bits(a.default_value, b.default_value);
  expect_same_bits(a.alternate_value, b.alternate_value);
  expect_same_bits(a.default_mean, b.default_mean);
  expect_same_bits(a.default_var, b.default_var);
  expect_same_bits(a.default_dof_denom, b.default_dof_denom);
  expect_same_bits(a.alternate_mean, b.alternate_mean);
  expect_same_bits(a.alternate_var, b.alternate_var);
  expect_same_bits(a.alternate_dof_denom, b.alternate_dof_denom);
}

TEST(FormatBytes, ResultColumnsImageIsFrozen) {
  const std::vector<core::ResultColumns> input = psrc_input();
  EXPECT_EQ(to_hex(core::serialize_result_columns(input)), kPsrcHex);

  const auto parsed = core::parse_result_columns(from_hex(kPsrcHex));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().size(), input.size());
  for (std::size_t s = 0; s < input.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "column set " << s);
    expect_columns_equal(parsed.value()[s], input[s]);
  }
}

// ---- PSJL ----------------------------------------------------------------

constexpr std::uint64_t kFingerprint = 0x0123456789ABCDEF;

std::vector<serve::JournalRecord> psjl_records() {
  serve::JournalRecord first;
  first.seq = 41;
  first.update = {topo::HostId{2}, topo::HostId{11}, 0.1 + 0.2, false};
  serve::JournalRecord second;
  second.seq = 42;
  second.update = {topo::HostId{0}, topo::HostId{65536}, 250.0, true};
  return {first, second};
}

constexpr std::string_view kPsjlHex =
    "50534a4c01000000efcdab896745230103000000000000002900000000000000"
    "7884513b190000004e5760532900000000000000020000000b00000034333333"
    "3333d33f0019000000ca81e37b2a000000000000000000000000000100000000"
    "0000406f4001";

TEST(FormatBytes, JournalImageIsFrozen) {
  const std::vector<serve::JournalRecord> records = psjl_records();
  std::string bytes = serve::serialize_journal_header(kFingerprint, 3, 41);
  for (const serve::JournalRecord& r : records) {
    bytes += serve::serialize_journal_record(r);
  }
  EXPECT_EQ(to_hex(bytes), kPsjlHex);

  const std::string frozen = from_hex(kPsjlHex);
  const serve::JournalScan scan = serve::scan_journal(frozen, kFingerprint);
  ASSERT_TRUE(scan.usable) << scan.reject_reason;
  EXPECT_FALSE(scan.truncated) << scan.truncation_reason;
  EXPECT_EQ(scan.generation, 3u);
  EXPECT_EQ(scan.start_seq, 41u);
  EXPECT_EQ(scan.valid_bytes, frozen.size());
  ASSERT_EQ(scan.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const serve::JournalRecord& got = scan.records[i];
    EXPECT_EQ(got.seq, records[i].seq);
    EXPECT_EQ(got.update.a, records[i].update.a);
    EXPECT_EQ(got.update.b, records[i].update.b);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.update.rtt_ms),
              std::bit_cast<std::uint64_t>(records[i].update.rtt_ms));
    EXPECT_EQ(got.update.lost, records[i].update.lost);
  }
}

// ---- PSSV ----------------------------------------------------------------

serve::ServeStateImage pssv_input() {
  serve::ServeStateImage image;
  image.seq = 1234;
  serve::ServeStateImage::EdgeState first;
  first.a = 1;
  first.b = 2;
  first.invocations = 17;
  first.rtt = {16, 42.5, 3.0 / 7.0, -0.0, 99.75};
  first.loss = {17, 0.125, 1.5, 0.0, 1.0};
  serve::ServeStateImage::EdgeState second;
  second.a = 3;
  second.b = 40000;
  second.invocations = -1;
  second.rtt = {0, 0.0, 0.0, 0.0, 0.0};
  second.loss = {9007199254740993, 1e-300, 2.0, -1.0, 1e300};
  image.edges = {first, second};
  return image;
}

constexpr std::string_view kPssvHex =
    "5053535601000000efcdab8967452301d2040000000000000200000000000000"
    "0100000002000000110000000000000010000000000000000000000000404540"
    "dbb66ddbb66ddb3f00000000000000800000000000f058401100000000000000"
    "000000000000c03f000000000000f83f0000000000000000000000000000f03f"
    "03000000409c0000ffffffffffffffff00000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000100000000002000"
    "59f3f8c21f6ea5010000000000000040000000000000f0bf9c7500883ce4377e"
    "b5acf30d";

void expect_raw_equal(const stats::Summary::Raw& a,
                      const stats::Summary::Raw& b) {
  EXPECT_EQ(a.n, b.n);
  expect_same_bits({a.mean, a.m2, a.min, a.max}, {b.mean, b.m2, b.min, b.max});
}

TEST(FormatBytes, ServeStateImageIsFrozen) {
  const serve::ServeStateImage input = pssv_input();
  EXPECT_EQ(to_hex(serve::serialize_serve_state(input, kFingerprint)),
            kPssvHex);

  const auto parsed =
      serve::parse_serve_state(from_hex(kPssvHex), kFingerprint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seq, input.seq);
  ASSERT_EQ(parsed.value().edges.size(), input.edges.size());
  for (std::size_t i = 0; i < input.edges.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "edge " << i);
    const serve::ServeStateImage::EdgeState& got = parsed.value().edges[i];
    EXPECT_EQ(got.a, input.edges[i].a);
    EXPECT_EQ(got.b, input.edges[i].b);
    EXPECT_EQ(got.invocations, input.edges[i].invocations);
    expect_raw_equal(got.rtt, input.edges[i].rtt);
    expect_raw_equal(got.loss, input.edges[i].loss);
  }
}

// ---- PSCK ----------------------------------------------------------------

// Every section: the campaign RNG, two server RNG streams, a kRetry event
// and a fault-aware failed row beside a completed one with a lost sample.
meas::CampaignCheckpoint psck_input() {
  meas::CampaignCheckpoint cp;
  cp.dataset_name = "UW1";
  cp.now = SimTime::at(Duration::millis(120000));
  cp.next_seq = 40;
  cp.episode_count = 3;
  cp.rng_state = {1, 2, 3, 0xFFFFFFFFFFFFFFFF};
  cp.server_rng_states = {{5, 6, 7, 8}, {9, 10, 11, 12}};
  cp.injector_epoch = 17;

  meas::CampaignEvent retry;
  retry.t = SimTime::at(Duration::millis(150000));
  retry.seq = 39;
  retry.kind = meas::CampaignEventKind::kRetry;
  retry.a = 1;
  retry.b = 2;
  retry.first = cp.now;
  retry.episode = -1;
  retry.tried = 1;
  cp.pending.push_back(retry);

  meas::Measurement ok;
  ok.when = SimTime::at(Duration::millis(1000));
  ok.src = topo::HostId{0};
  ok.dst = topo::HostId{1};
  ok.completed = true;
  ok.samples[0].rtt_ms = 10.5;
  ok.samples[1].lost = true;
  ok.samples[2].rtt_ms = 0.1 + 0.2;
  ok.as_path = {topo::AsId{7}, topo::AsId{3}};
  meas::Measurement failed;
  failed.when = SimTime::at(Duration::millis(60000));
  failed.src = topo::HostId{1};
  failed.dst = topo::HostId{2};
  failed.completed = false;
  failed.failure = meas::FailureReason::kEndpointDown;
  failed.attempts = 2;
  cp.measurements = {ok, failed};
  return cp;
}

constexpr std::string_view kPsckHex =
    "5053434b02000000c0d4010000000000efcdab89674523010028000000000000"
    "0003000000110000000000000001000000000000000200000000000000030000"
    "0000000000ffffffffffffffff03000000000000005557310200000000000000"
    "0500000000000000060000000000000007000000000000000800000000000000"
    "09000000000000000a000000000000000b000000000000000c00000000000000"
    "010000000000000004f049020000000000270000000000000001000000020000"
    "00c0d4010000000000ffffffff010000005e000000000000006d203130303020"
    "302031202d31203120302031302e3520312030203020302e3330303030303030"
    "3030303030303030342032203720330a6d20363030303020312032202d312030"
    "203020302030203020302030203020662031206120320abe23f04a";

TEST(FormatBytes, CheckpointImageIsFrozen) {
  const meas::CampaignCheckpoint input = psck_input();
  EXPECT_EQ(to_hex(meas::serialize_checkpoint(
                input, meas::MeasurementKind::kTraceroute, kFingerprint)),
            kPsckHex);

  const auto parsed = meas::parse_checkpoint(
      from_hex(kPsckHex), meas::MeasurementKind::kTraceroute, kFingerprint);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const meas::CampaignCheckpoint& got = parsed.value();
  EXPECT_EQ(got.dataset_name, input.dataset_name);
  EXPECT_EQ(got.now, input.now);
  EXPECT_EQ(got.next_seq, input.next_seq);
  EXPECT_EQ(got.episode_count, input.episode_count);
  EXPECT_EQ(got.rng_state, input.rng_state);
  EXPECT_EQ(got.server_rng_states, input.server_rng_states);
  EXPECT_EQ(got.injector_epoch, input.injector_epoch);
  ASSERT_EQ(got.pending.size(), 1u);
  EXPECT_EQ(got.pending[0].kind, meas::CampaignEventKind::kRetry);
  EXPECT_EQ(got.pending[0].t, input.pending[0].t);
  EXPECT_EQ(got.pending[0].seq, input.pending[0].seq);
  EXPECT_EQ(got.pending[0].a, input.pending[0].a);
  EXPECT_EQ(got.pending[0].b, input.pending[0].b);
  EXPECT_EQ(got.pending[0].first, input.pending[0].first);
  EXPECT_EQ(got.pending[0].episode, input.pending[0].episode);
  EXPECT_EQ(got.pending[0].tried, input.pending[0].tried);
  ASSERT_EQ(got.measurements.size(), 2u);
  EXPECT_EQ(got.measurements[0].as_path, input.measurements[0].as_path);
  EXPECT_TRUE(got.measurements[0].samples[1].lost);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.measurements[0].samples[2].rtt_ms),
            std::bit_cast<std::uint64_t>(input.measurements[0].samples[2].rtt_ms));
  EXPECT_EQ(got.measurements[1].failure, meas::FailureReason::kEndpointDown);
  EXPECT_EQ(got.measurements[1].attempts, 2);
}

// ---- PSMC ----------------------------------------------------------------

matrix::CellSummary psmc_ok_input() {
  matrix::CellSummary s;
  s.grid_fp = 0x1122334455667788;
  s.cell_fp = 0x99aabbccddeeff00;
  s.index = 3;
  s.dataset = "UW3";
  s.fault = 0.15;
  s.metric = "rtt";
  s.policy = "one-hop";
  s.min_samples = 3;
  s.seed = 1999;
  s.hosts = 20;
  s.measurements = 1200;
  s.completed = 1100;
  s.usable_edges = 150;
  s.pairs = 380;
  s.coverage = 0.71;
  s.better = 0.1 + 0.2;
  s.has_sig = true;
  s.sig_better = 0.25;
  s.sig_indeterminate = 0.5;
  s.sig_worse = 0.25;
  s.found_full = -0.0;
  s.artifacts.push_back(
      {"cells/cell-00003-99aabbccddeeff00/results.psrc", 4242, 0xdeadbeef});
  return s;
}

matrix::CellSummary psmc_degraded_input() {
  matrix::CellSummary s;
  s.grid_fp = 0x0102030405060708;
  s.cell_fp = 0xfffefdfcfbfaf9f8;
  s.index = 0;
  s.dataset = "D2";
  s.fault = 1.0;
  s.metric = "loss";
  s.policy = "disjoint:2";
  s.min_samples = 0;
  s.seed = 0;
  s.ok = false;
  s.error = "insufficient data: no path met the min_samples filter";
  return s;
}

constexpr std::string_view kPsmcOkHex =
    "50534d4302000000887766554433221100ffeeddccbbaa990300000000000000"
    "0300000000000000555733333333333333c33f03000000000000007274740700"
    "0000000000006f6e652d686f7003000000cf0700000000000001140000000000"
    "0000b0040000000000004c0400000000000096000000000000007c0100000000"
    "0000b81e85eb51b8e63f343333333333d33f01000000000000d03f0000000000"
    "00e03f000000000000d03f000000000000008001000000000000002e00000000"
    "00000063656c6c732f63656c6c2d30303030332d393961616262636364646565"
    "666630302f726573756c74732e707372639210000000000000efbeadde263e65"
    "40";
constexpr std::string_view kPsmcDegradedHex =
    "50534d43020000000807060504030201f8f9fafbfcfdfeff0000000000000000"
    "02000000000000004432000000000000f03f04000000000000006c6f73730a00"
    "0000000000006469736a6f696e743a3200000000000000000000000000350000"
    "0000000000696e73756666696369656e7420646174613a206e6f207061746820"
    "6d657420746865206d696e5f73616d706c65732066696c746572000000000000"
    "000069c0456c";

void expect_summaries_equal(const matrix::CellSummary& a,
                            const matrix::CellSummary& b) {
  EXPECT_EQ(a.grid_fp, b.grid_fp);
  EXPECT_EQ(a.cell_fp, b.cell_fp);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.min_samples, b.min_samples);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_EQ(a.measurements, b.measurements);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.usable_edges, b.usable_edges);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.has_sig, b.has_sig);
  expect_same_bits({a.fault, a.coverage, a.better, a.sig_better,
                    a.sig_indeterminate, a.sig_worse, a.found_full},
                   {b.fault, b.coverage, b.better, b.sig_better,
                    b.sig_indeterminate, b.sig_worse, b.found_full});
  ASSERT_EQ(a.artifacts.size(), b.artifacts.size());
  for (std::size_t i = 0; i < a.artifacts.size(); ++i) {
    EXPECT_EQ(a.artifacts[i].rel_path, b.artifacts[i].rel_path);
    EXPECT_EQ(a.artifacts[i].size, b.artifacts[i].size);
    EXPECT_EQ(a.artifacts[i].crc, b.artifacts[i].crc);
  }
}

TEST(FormatBytes, CellSummaryImagesAreFrozen) {
  for (const auto& [input, hex] :
       {std::pair{psmc_ok_input(), kPsmcOkHex},
        std::pair{psmc_degraded_input(), kPsmcDegradedHex}}) {
    SCOPED_TRACE(testing::Message() << "ok=" << input.ok);
    EXPECT_EQ(to_hex(matrix::serialize_cell_summary(input)), hex);
    const auto parsed = matrix::parse_cell_summary(from_hex(hex));
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    expect_summaries_equal(parsed.value(), input);
  }
}

}  // namespace
}  // namespace pathsel

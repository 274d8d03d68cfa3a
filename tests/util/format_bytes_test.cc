// Frozen on-disk bytes of the three binary formats (PSRC results, PSJL
// journal, PSSV serve state).  The other suites round-trip writer -> reader,
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

}  // namespace
}  // namespace pathsel

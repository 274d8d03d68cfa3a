// util/codec: the little-endian writer/reader pair and the CRC-32 seal that
// every sealed format (PSRC, PSJL, PSSV, PSCK, PSMC) is built from.
#include "util/codec.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace pathsel::codec {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CodecRoundTrip, EveryWidthKeepsItsBits) {
  const std::vector<std::uint8_t> u8s = {0, 1, 0x7f, 0x80, 0xff};
  const std::vector<std::uint32_t> u32s = {
      0, 1, 0x80000000u, std::numeric_limits<std::uint32_t>::max()};
  const std::vector<std::uint64_t> u64s = {
      0, 1, 0x8000000000000000ull, std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::int32_t> i32s = {
      0, -1, std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()};
  const std::vector<std::int64_t> i64s = {
      0, -1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  const std::vector<double> f64s = {
      0.0,
      -0.0,
      0.1 + 0.2,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::infinity(),
      std::bit_cast<double>(0x7ff8000000000123ull),  // NaN with a payload
  };

  Writer w;
  for (const auto v : u8s) w.u8(v);
  for (const auto v : u32s) w.u32(v);
  for (const auto v : u64s) w.u64(v);
  for (const auto v : i32s) w.i32(v);
  for (const auto v : i64s) w.i64(v);
  for (const auto v : f64s) w.f64(v);
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), u8s.size() + 4 * (u32s.size() + i32s.size()) +
                              8 * (u64s.size() + i64s.size() + f64s.size()));

  Reader r{bytes};
  for (const auto v : u8s) EXPECT_EQ(r.u8("u8"), v);
  for (const auto v : u32s) EXPECT_EQ(r.u32("u32"), v);
  for (const auto v : u64s) EXPECT_EQ(r.u64("u64"), v);
  for (const auto v : i32s) EXPECT_EQ(r.i32("i32"), v);
  for (const auto v : i64s) EXPECT_EQ(r.i64("i64"), v);
  for (const auto v : f64s) EXPECT_EQ(bits(r.f64("f64")), bits(v));
  EXPECT_FALSE(r.failed()) << r.error();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CodecRoundTrip, FieldsAreLittleEndian) {
  Writer w;
  w.u32(0x01020304u);
  w.i32(-2);
  w.u64(0x0102030405060708ull);
  w.f64(1.0);
  EXPECT_EQ(std::move(w).take(),
            std::string("\x04\x03\x02\x01"
                        "\xfe\xff\xff\xff"
                        "\x08\x07\x06\x05\x04\x03\x02\x01"
                        "\x00\x00\x00\x00\x00\x00\xf0\x3f",
                        24));
}

TEST(CodecRoundTrip, ColumnsMatchFieldByFieldWrites) {
  const std::vector<std::int8_t> i8s = {-1, 0, 3, -128, 127};
  const std::vector<std::int32_t> i32s = {-1, 7, 2147483647};
  const std::vector<double> f64s = {-0.0, 1e-300, 42.5};
  Writer columns;
  columns.column(i8s);
  columns.column(i32s);
  columns.column(f64s);
  columns.column(std::vector<double>{});
  Writer fields;
  for (const auto v : i8s) fields.u8(static_cast<std::uint8_t>(v));
  for (const auto v : i32s) fields.i32(v);
  for (const auto v : f64s) fields.f64(v);
  const std::string bytes = std::move(columns).take();
  EXPECT_EQ(bytes, std::move(fields).take());

  Reader r{bytes};
  std::vector<std::int8_t> i8_back;
  std::vector<std::int32_t> i32_back;
  std::vector<double> f64_back{1.0};
  std::vector<double> empty_back{2.0};
  r.column(i8_back, i8s.size(), "i8 column");
  r.column(i32_back, i32s.size(), "i32 column");
  r.column(f64_back, f64s.size(), "f64 column");
  r.column(empty_back, 0, "empty column");
  EXPECT_FALSE(r.failed()) << r.error();
  EXPECT_EQ(i8_back, i8s);
  EXPECT_EQ(i32_back, i32s);
  ASSERT_EQ(f64_back.size(), f64s.size());
  for (std::size_t i = 0; i < f64s.size(); ++i) {
    EXPECT_EQ(bits(f64_back[i]), bits(f64s[i]));
  }
  EXPECT_TRUE(empty_back.empty());
}

// One image of named fields; a prefix cut anywhere must fail on exactly the
// first field that no longer fits, and say which one.
TEST(CodecReader, TruncationAtEveryOffsetNamesTheShortField) {
  Writer w;
  w.u32(0xabcdef01u);
  w.u8(9);
  w.u64(123456789ull);
  w.column(std::vector<std::int32_t>{1, 2, 3});
  w.f64(2.5);
  w.i64(-5);
  const std::string full = std::move(w).take();
  struct Field {
    const char* name;
    std::size_t end;  // offset one past the field's last byte
  };
  const std::vector<Field> fields = {{"magic", 4},        {"flag", 5},
                                     {"count", 13},       {"src column", 25},
                                     {"mean", 33},        {"invocations", 41}};
  ASSERT_EQ(full.size(), fields.back().end);

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
    Reader r{std::string_view{full}.substr(0, cut)};
    (void)r.u32("magic");
    (void)r.u8("flag");
    (void)r.u64("count");
    std::vector<std::int32_t> column;
    r.column(column, 3, "src column");
    (void)r.f64("mean");
    (void)r.i64("invocations");
    ASSERT_TRUE(r.failed());
    std::size_t first_short = 0;
    while (fields[first_short].end <= cut) ++first_short;
    EXPECT_EQ(r.error(), std::string{"truncated file: expected "} +
                             fields[first_short].name);
  }
}

TEST(CodecRoundTrip, StringsAreLengthPrefixedAndBounded) {
  Writer w;
  w.str("UW3");
  w.str("");
  w.str(std::string_view{"a\0b", 3});
  const std::string bytes = std::move(w).take();
  EXPECT_EQ(bytes.substr(0, 11), std::string("\x03\0\0\0\0\0\0\0UW3", 11));

  Reader r{bytes};
  EXPECT_EQ(r.str("name", 3), "UW3");
  EXPECT_EQ(r.str("empty", 0), "");
  EXPECT_EQ(r.str("nul", 16), std::string_view("a\0b", 3));
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);

  // A declared length over the bound fails before any byte is taken, and a
  // length past the end of the input is a truncation.
  Reader bounded{bytes};
  EXPECT_EQ(bounded.str("name", 2), "");
  EXPECT_TRUE(bounded.failed());
  EXPECT_EQ(bounded.error(), "name is longer than 2 bytes");
  Reader cut{std::string_view{bytes}.substr(0, 10)};
  EXPECT_EQ(cut.str("name", 3), "");
  EXPECT_EQ(cut.error(), "truncated file: expected name");
}

TEST(CodecReader, KeepsTheFirstErrorAndReadsZeroAfterIt) {
  const std::string bytes(6, '\x11');
  Reader r{bytes};
  EXPECT_EQ(r.u32("header"), 0x11111111u);
  EXPECT_EQ(r.u64("count"), 0u);
  EXPECT_TRUE(r.failed());
  // The two bytes still present are not consumed by a later, shorter read.
  EXPECT_EQ(r.u8("flag"), 0u);
  EXPECT_TRUE(r.bytes(1, "payload").empty());
  EXPECT_EQ(r.error(), "truncated file: expected count");
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(CodecReader, FitsRefusesCountsBeyondTheRemainingBytes) {
  const std::string bytes(10, '\0');
  Reader r{bytes};
  EXPECT_TRUE(r.fits(10, 1));
  EXPECT_FALSE(r.fits(11, 1));
  EXPECT_TRUE(r.fits(2, 4));
  EXPECT_FALSE(r.fits(3, 4));
  EXPECT_TRUE(r.fits(0, 81));
  EXPECT_FALSE(r.fits(std::numeric_limits<std::uint64_t>::max(), 8));
  (void)r.u32("header");
  EXPECT_TRUE(r.fits(6, 1));
  EXPECT_FALSE(r.fits(7, 1));

  // A column longer than the input fails without filling (or allocating
  // for) the destination.
  std::vector<double> column{1.0};
  r.column(column, std::size_t{1} << 60, "huge column");
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(column.empty());
  EXPECT_EQ(column.capacity(), 1u);
  EXPECT_EQ(r.error(), "truncated file: expected huge column");
}

TEST(CodecSeal, VerifyAcceptsTheSealAndRejectsEveryBitFlip) {
  Writer w;
  w.u32(0x4c4a5350u);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  const std::string sealed = std::move(w).seal();
  ASSERT_EQ(sealed.size(), 24u);
  const std::optional<std::string_view> verified = verify(sealed);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(*verified, std::string_view{sealed}.substr(0, 20));

  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = sealed;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_FALSE(verify(flipped).has_value())
          << "flip of bit " << bit << " in byte " << byte;
    }
  }
  EXPECT_FALSE(verify(std::string_view{sealed}.substr(0, 3)).has_value());
  EXPECT_TRUE(verify(std::move(Writer{}).seal()).has_value());
}

constexpr Format kTestFormat{0x54534554u, 2, "TEST file", 16};

std::string sealed_image(std::uint32_t magic, std::uint32_t version) {
  Writer w{20};
  w.u32(magic);
  w.u32(version);
  w.u64(77);
  return std::move(w).seal();
}

TEST(CodecSeal, OpenSealedChecksSizeMagicVersionAndTrailer) {
  const std::string good = sealed_image(kTestFormat.magic, 2);
  Result<Reader> opened = open_sealed(good, kTestFormat);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value().u64("body"), 77u);
  EXPECT_EQ(opened.value().remaining(), 0u);  // the trailer is not payload
  EXPECT_TRUE(open_sealed(sealed_image(kTestFormat.magic, 1), kTestFormat)
                  .is_ok());

  const auto rejects = [](std::string_view bytes, const std::string& why) {
    SCOPED_TRACE(why);
    const Result<Reader> r = open_sealed(bytes, kTestFormat);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
    EXPECT_EQ(r.status().message(), why);
  };
  rejects(std::string_view{good}.substr(0, 15),
          "truncated file: 15 bytes is smaller than the smallest TEST file "
          "(16 bytes)");
  rejects(sealed_image(0x54534555u, 2), "bad magic: not a TEST file");
  rejects(sealed_image(kTestFormat.magic, 0),
          "TEST file version 0 is not supported by this build (it reads "
          "versions 1..2)");
  rejects(sealed_image(kTestFormat.magic, 3),
          "TEST file version 3 is not supported by this build (it reads "
          "versions 1..2)");
  std::string corrupt = good;
  corrupt[10] = static_cast<char>(corrupt[10] ^ 0x40);
  rejects(corrupt, "CRC-32 mismatch: TEST file is corrupted or torn");
}

}  // namespace
}  // namespace pathsel::codec

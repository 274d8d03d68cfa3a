// The one binary codec behind every sealed file pathsel writes: PSRC
// results (core/result_columns.h), the PSJL update journal and the PSSV
// serve-state snapshot (serve/journal.h), the PSCK campaign checkpoint
// (meas/checkpoint.h) and the PSMC matrix cell summary (matrix/cell.h).
// Those headers own their byte layouts; this one owns the encoding they
// share:
//
//   * Writer — little-endian u8/u32/u64/i32/i64/f64 fields, u64-length-
//     prefixed strings and whole columns, appended to one std::string the
//     caller sizes up front.
//   * Reader — the bounds-checked mirror.  A short read yields 0, records
//     the first error ("truncated file: expected <field>") and turns every
//     later read into a no-op, so a parser checks failed() once per group
//     of fields; fits() guards a declared count before anything allocates.
//   * Writer::seal, verify, open_sealed — the CRC-32 trailer (util/atomic_io
//     crc32, stored LE after every byte it covers) and the size + magic +
//     version + trailer gate every format opens with.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pathsel::codec {

// Fields and columns are copied in host byte order, which is the formats'
// little-endian order on every target pathsel builds for.  A big-endian port
// stops here rather than write different bytes.
static_assert(std::endian::native == std::endian::little,
              "util/codec copies host bytes; port it to byte-swap first");

class Writer {
 public:
  /// `capacity` reserves the whole image; a serializer that knows its exact
  /// size passes it so no field append ever reallocates.
  explicit Writer(std::size_t capacity = 0) { out_.reserve(capacity); }

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }  // IEEE-754 bit pattern, -0.0 and NaN kept

  /// Appends every element of `values` as a contiguous LE plane.
  template <typename T>
  void column(const std::vector<T>& values) {
    static_assert(std::is_arithmetic_v<T>);
    out_.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
  }

  /// Appends raw bytes verbatim (an already-encoded payload).
  void bytes(std::string_view raw) { out_ += raw; }

  /// Appends `text` as a u64 byte count followed by the bytes.
  void str(std::string_view text) {
    u64(text.size());
    bytes(text);
  }

  /// The encoded image.
  [[nodiscard]] std::string take() && { return std::move(out_); }
  /// The encoded image followed by its CRC-32 trailer.
  [[nodiscard]] std::string seal() &&;

 private:
  template <typename T>
  void put(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) noexcept : bytes_{bytes} {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// The first error, naming the field that ran short.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// True when `count` elements of `elem_size` bytes are still present —
  /// the guard for a count read from the input, before allocating for it.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t elem_size) const
      noexcept {
    return count <= remaining() / elem_size;
  }

  [[nodiscard]] std::uint8_t u8(const char* what) {
    return get<std::uint8_t>(what);
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    return get<std::uint32_t>(what);
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    return get<std::uint64_t>(what);
  }
  [[nodiscard]] std::int32_t i32(const char* what) {
    return get<std::int32_t>(what);
  }
  [[nodiscard]] std::int64_t i64(const char* what) {
    return get<std::int64_t>(what);
  }
  [[nodiscard]] double f64(const char* what) { return get<double>(what); }

  /// The next `n` bytes, verbatim (empty on a shortfall).
  [[nodiscard]] std::string_view bytes(std::size_t n, const char* what) {
    if (!need(n, what)) return {};
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  /// A string written by Writer::str (empty on a shortfall).  A declared
  /// length over `max_len` fails too, naming the field.
  [[nodiscard]] std::string_view str(const char* what, std::size_t max_len) {
    const std::uint64_t n = u64(what);
    if (!failed_ && n > max_len) {
      failed_ = true;
      error_ = std::string{what} + " is longer than " +
               std::to_string(max_len) + " bytes";
      return {};
    }
    return bytes(static_cast<std::size_t>(n), what);
  }

  /// Replaces `out` with the next `n` elements.  On a shortfall `out` is
  /// left empty and nothing is allocated.
  template <typename T>
  void column(std::vector<T>& out, std::size_t n, const char* what) {
    out.clear();
    if (failed_) return;
    if (!fits(n, sizeof(T))) {
      fail(what);
      return;
    }
    const std::string_view raw = bytes(n * sizeof(T), what);
    if (raw.empty()) return;
    out.resize(n);
    // out.size() * sizeof(T), not raw.size(): the same count, but one the
    // compiler can bound by the vector's max_size when it inlines this.
    std::memcpy(out.data(), raw.data(), out.size() * sizeof(T));
  }

 private:
  template <typename T>
  T get(const char* what) {
    T v{};
    if (need(sizeof(T), what)) {
      std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
    return v;
  }

  bool need(std::size_t n, const char* what) {
    if (failed_) return false;
    if (remaining() < n) {
      fail(what);
      return false;
    }
    return true;
  }

  void fail(const char* what) {
    failed_ = true;
    error_ = std::string{"truncated file: expected "} + what;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// The payload of a sealed buffer (Writer::seal) when its trailer matches;
/// nullopt on a mismatch or a buffer shorter than the trailer.
[[nodiscard]] std::optional<std::string_view> verify(
    std::string_view sealed) noexcept;

/// What a sealed format opens with: u32 magic, u32 version (1..version are
/// readable), and a CRC-32 trailer over everything before it.
struct Format {
  std::uint32_t magic;
  std::uint32_t version;
  const char* name;       // "PSRC results file", for diagnostics
  std::size_t min_bytes;  // the smallest well-formed image, trailer included
};

/// Checks, in order, the size, magic, version and CRC trailer of `sealed`.
/// Returns a Reader over the payload (trailer excluded) positioned after the
/// version field, or kParseError naming the first check that failed.
[[nodiscard]] Result<Reader> open_sealed(std::string_view sealed,
                                         const Format& format);

}  // namespace pathsel::codec

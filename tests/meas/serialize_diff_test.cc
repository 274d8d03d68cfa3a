// Differential tests of the dataset text codec against a frozen copy of the
// istringstream/operator>> codec it replaced (serialize_oracle.h):
//   * the writer's bytes equal the oracle's on every catalog dataset;
//   * on catalog files, a seeded mutation corpus, every-byte truncations and
//     a table of edge tokens, the reader accepts exactly when the oracle
//     does and then yields the same Dataset, doubles compared bit for bit —
//     except for the enumerated strict-grammar classes below, where the
//     reader rejects text the oracle's lenient >> accepted;
//   * stream reads are chunk-size invariant and bounded in memory.
//
// Strict-grammar rejections (new rejects, oracle accepts).  None of these
// can come out of write_dataset, which the test proves per input by
// re-serializing the oracle's parse and checking it differs from the input:
//   kLeadingPlus   "+5": operator>> and strtoll take a leading '+'.
//   kMinusOnCount  "-0" (or "-N") as the hosts or AS-path count: >> into
//                  size_t negates modulo 2^64 like strtoull, so "-0" is 0.
//   kSplitToken    "0.5" in an integer field, "5f", "3-0", ...: >> stops at
//                  the first character that cannot extend the number and
//                  the rest of the token becomes the next field.
//   kUnderflow     "1e-400": strtod underflows to 0 and >> keeps it;
//                  from_chars reports it out of range.
//   kNulByte       "2\0x" as a header number or fault-token argument:
//                  strtoll stops at the NUL of the C string.
#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "meas/catalog.h"
#include "meas/serialize.h"
#include "serialize_oracle.h"
#include "test_util.h"

// Largest single allocation while `g_track_allocations` is set, so tests can
// show that adversarial counts or ids never turn into a large buffer.
namespace {
bool g_track_allocations = false;
std::size_t g_largest_allocation = 0;
}  // namespace

// GCC flags the malloc/free pairing once these are inlined into new/delete
// expressions; the replacement pair is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_track_allocations) {
    g_largest_allocation = std::max(g_largest_allocation, size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pathsel::meas {
namespace {

// ---------------------------------------------------------------------------
// Helpers

std::string write_new(const Dataset& ds) {
  std::ostringstream os;
  write_dataset(os, ds);
  return os.str();
}

std::string write_oracle(const Dataset& ds) {
  std::ostringstream os;
  oracle::write_dataset(os, ds);
  return os.str();
}

std::optional<Dataset> read_oracle(const std::string& text) {
  std::istringstream is{text};
  std::string error;
  return oracle::read_dataset(is, &error);
}

// Empty when the byte streams are equal, else the first differing line.
// (gtest's own string diff is quadratic in lines, far too big here.)
std::string mismatch(const std::string& got, const std::string& want) {
  if (got == want) return {};
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const std::size_t from = at == 0 ? 0 : got.rfind('\n', at - 1) + 1;
  const auto line = [from, at](const std::string& s) {
    return s.substr(from, s.find('\n', at) - from);
  };
  return "byte " + std::to_string(at) + ": got \"" + line(got) +
         "\" want \"" + line(want) + "\"";
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Empty when equal field by field (doubles bitwise), else the first mismatch.
std::string difference(const Dataset& a, const Dataset& b) {
  if (a.name != b.name) return "name";
  if (a.kind != b.kind) return "kind";
  if (a.duration != b.duration) return "duration";
  if (a.first_sample_loss_only != b.first_sample_loss_only) {
    return "first_sample_loss_only";
  }
  if (a.episode_count != b.episode_count) return "episode_count";
  if (a.hosts != b.hosts) return "hosts";
  if (a.measurements.size() != b.measurements.size()) return "row count";
  for (std::size_t i = 0; i < a.measurements.size(); ++i) {
    const Measurement& x = a.measurements[i];
    const Measurement& y = b.measurements[i];
    const std::string row = "row " + std::to_string(i) + ": ";
    if (x.when != y.when) return row + "when";
    if (x.src != y.src || x.dst != y.dst) return row + "endpoints";
    if (x.episode != y.episode) return row + "episode";
    if (x.completed != y.completed) return row + "completed";
    if (x.failure != y.failure) return row + "failure";
    if (x.attempts != y.attempts) return row + "attempts";
    for (std::size_t s = 0; s < x.samples.size(); ++s) {
      if (x.samples[s].lost != y.samples[s].lost ||
          bits(x.samples[s].rtt_ms) != bits(y.samples[s].rtt_ms)) {
        return row + "sample " + std::to_string(s);
      }
    }
    if (x.as_path != y.as_path) return row + "as_path";
    if (bits(x.bandwidth_kBps) != bits(y.bandwidth_kBps) ||
        bits(x.tcp_rtt_ms) != bits(y.tcp_rtt_ms) ||
        bits(x.tcp_loss_rate) != bits(y.tcp_loss_rate)) {
      return row + "transfer fields";
    }
  }
  return {};
}

// Printable form of a corpus entry for failure messages.
std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text.substr(0, 600)) {
    if (c == '\n') {
      out += "\\n\n";
    } else if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned char>(c));
      out += hex;
    } else {
      out += c;
    }
  }
  if (text.size() > 600) out += "...";
  return out;
}

// A stream buffer that hands out at most `chunk` bytes per sgetn and records
// the largest request, so tests can vary the refill pattern and show the
// reader asks for bounded pieces.
class ChunkedBuf : public std::streambuf {
 public:
  ChunkedBuf(std::string_view text, std::size_t chunk)
      : text_{text}, chunk_{chunk} {}

  [[nodiscard]] std::streamsize largest_request() const { return largest_; }
  [[nodiscard]] int requests() const { return requests_; }

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    largest_ = std::max(largest_, n);
    ++requests_;
    const std::size_t take = std::min({static_cast<std::size_t>(n), chunk_,
                                       text_.size() - pos_});
    std::memcpy(s, text_.data() + pos_, take);
    pos_ += take;
    return static_cast<std::streamsize>(take);
  }
  int_type underflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_])
                               : traits_type::eof();
  }

 private:
  std::string_view text_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
  std::streamsize largest_ = 0;
  int requests_ = 0;
};

// Reads fail on the third request, as a file on a failing disk would.
class FailingBuf : public ChunkedBuf {
 public:
  using ChunkedBuf::ChunkedBuf;

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    if (requests() == 2) throw std::ios_base::failure("read failed");
    return ChunkedBuf::xsgetn(s, n);
  }
};

std::optional<Dataset> read_chunked(std::string_view text, std::size_t chunk,
                                    std::string* error = nullptr) {
  ChunkedBuf buf{text, chunk};
  std::istream is{&buf};
  return read_dataset(is, error);
}

// ---------------------------------------------------------------------------
// Strict-grammar classification

enum class Leniency {
  kUnexplained,
  kLeadingPlus,
  kMinusOnCount,
  kSplitToken,
  kUnderflow,
  kNulByte,
  kBareHeaderKey,
};

const char* name_of(Leniency l) {
  switch (l) {
    case Leniency::kUnexplained: return "unexplained";
    case Leniency::kLeadingPlus: return "leading_plus";
    case Leniency::kMinusOnCount: return "minus_on_count";
    case Leniency::kSplitToken: return "split_token";
    case Leniency::kUnderflow: return "underflow";
    case Leniency::kNulByte: return "nul_byte";
    case Leniency::kBareHeaderKey: return "bare_header_key";
  }
  return "?";
}

enum class Field { kCount, kInteger, kReal, kTag };

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    std::size_t j = i;
    while (j < line.size() && !is_space(line[j])) ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

template <typename T>
bool whole(std::string_view t, T& v) {
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  return ec == std::errc{} && ptr == t.data() + t.size();
}

bool strict(std::string_view t, Field f) {
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0;
  switch (f) {
    case Field::kCount: return whole(t, u);
    case Field::kInteger: return whole(t, i);
    case Field::kReal: return whole(t, d);
    case Field::kTag: return !t.empty();
  }
  return false;
}

// Why the lenient reader took a token the strict grammar refuses.
Leniency classify_token(std::string_view t, Field f) {
  if (t.empty()) return Leniency::kUnexplained;
  if (t.find('\0') != std::string_view::npos) return Leniency::kNulByte;
  if (t.front() == '+') return Leniency::kLeadingPlus;
  if (f == Field::kCount && t.front() == '-') {
    return Leniency::kMinusOnCount;
  }
  const std::string z{t};
  char* end = nullptr;
  const double v = std::strtod(z.c_str(), &end);
  double strict_value = 0;
  if (f == Field::kReal && *end == '\0' && std::isfinite(v) &&
      std::from_chars(t.data(), t.data() + t.size(), strict_value).ec ==
          std::errc::result_out_of_range) {
    return Leniency::kUnderflow;
  }
  // A numeric prefix the lenient reader stopped after.
  std::size_t n = (t.front() == '-') ? 1 : 0;
  if (f == Field::kReal) {
    n = static_cast<std::size_t>(end - z.c_str());
  } else {
    const std::size_t digits_from = n;
    while (n < t.size() && t[n] >= '0' && t[n] <= '9') ++n;
    if (n == digits_from) n = 0;
  }
  if (n > 0 && n < t.size()) return Leniency::kSplitToken;
  return Leniency::kUnexplained;
}

// Walks the v1 layout in file order and classifies the first token the
// strict grammar refuses — the point where the new reader stops.
Leniency classify(const std::string& text) {
  std::vector<std::string_view> lines;
  std::string_view rest{text};
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    lines.push_back(rest.substr(0, nl));
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  }
  if (lines.size() < 7) return Leniency::kUnexplained;
  // Header values after "name".  A key alone on its line makes the lenient
  // reader's getline fail and reuse the previous field's value.  Numbers are
  // the value after the key, leading separators allowed.
  for (std::size_t h = 2; h <= 5; ++h) {
    std::string_view v = lines[h];
    while (!v.empty() && is_space(v.front())) v.remove_prefix(1);
    while (!v.empty() && !is_space(v.front())) v.remove_prefix(1);
    if (v.empty()) return Leniency::kBareHeaderKey;
    if (h != 3 && h != 5) continue;
    if (v.front() == ' ') v.remove_prefix(1);
    while (!v.empty() && is_space(v.front())) v.remove_prefix(1);
    if (!strict(v, Field::kInteger)) return classify_token(v, Field::kInteger);
  }
  const auto kind = split_tokens(lines[2]);
  const bool tcp = kind.size() == 2 && kind[1] == "tcp";

  std::vector<Field> fields;
  const auto check = [&](std::string_view line) -> std::optional<Leniency> {
    const auto tokens = split_tokens(line);
    for (std::size_t i = 1; i < tokens.size() && i < fields.size(); ++i) {
      if (!strict(tokens[i], fields[i])) {
        return classify_token(tokens[i], fields[i]);
      }
      // A count extends the layout by that many integers.
      std::uint64_t n = 0;
      if (fields[i] == Field::kCount && whole(tokens[i], n) && n <= 5000) {
        fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      static_cast<std::size_t>(n), Field::kInteger);
      }
    }
    return std::nullopt;
  };

  fields = {Field::kTag, Field::kCount};
  if (const auto l = check(lines[6])) return *l;
  for (std::size_t li = 7; li < lines.size(); ++li) {
    if (lines[li].empty()) continue;
    fields = {Field::kTag, Field::kInteger, Field::kInteger, Field::kInteger,
              Field::kInteger, Field::kInteger};
    if (tcp) {
      fields.insert(fields.end(), {Field::kReal, Field::kReal, Field::kReal});
    } else {
      for (int s = 0; s < 3; ++s) {
        fields.insert(fields.end(), {Field::kInteger, Field::kReal});
      }
      fields.push_back(Field::kCount);
    }
    // Trailing fault tokens: up to two (tag, argument) pairs.
    fields.insert(fields.end(),
                  {Field::kTag, Field::kInteger, Field::kTag, Field::kInteger});
    if (const auto l = check(lines[li])) return *l;
  }
  return Leniency::kUnexplained;
}

struct Tally {
  std::size_t both_accept = 0;
  std::size_t both_reject = 0;
  std::map<Leniency, std::size_t> strict_only;

  void print(const char* what) const {
    std::cout << what << ": both accept " << both_accept << ", both reject "
              << both_reject;
    for (const auto& [l, n] : strict_only) {
      std::cout << ", " << name_of(l) << " " << n;
    }
    std::cout << "\n";
  }
};

// Holds the reader to the oracle on one input; returns whether both accept.
bool agree(const std::string& text, Tally& tally) {
  const std::optional<Dataset> old = read_oracle(text);
  std::string error;
  const std::optional<Dataset> neu =
      read_dataset(std::string_view{text}, &error);
  std::istringstream is{text};
  const std::optional<Dataset> streamed = read_dataset(is);
  EXPECT_EQ(neu.has_value(), streamed.has_value()) << escaped(text);
  if (neu.has_value() && streamed.has_value()) {
    EXPECT_EQ(difference(*neu, *streamed), "") << escaped(text);
  }
  if (!neu.has_value()) {
    EXPECT_FALSE(error.empty()) << escaped(text);
  }

  if (!old.has_value()) {
    EXPECT_FALSE(neu.has_value())
        << "accepted what the oracle rejects:\n" << escaped(text);
    ++tally.both_reject;
    return false;
  }
  if (neu.has_value()) {
    EXPECT_EQ(difference(*old, *neu), "") << escaped(text);
    ++tally.both_accept;
    return true;
  }
  const Leniency why = classify(text);
  EXPECT_NE(why, Leniency::kUnexplained)
      << "rejected (" << error << ") what the oracle accepts:\n"
      << escaped(text);
  EXPECT_TRUE(write_oracle(*old) != text)
      << "rejected writer output:\n" << escaped(text);
  ++tally.strict_only[why];
  return false;
}

// ---------------------------------------------------------------------------
// Corpus: the eight catalog datasets at scale 0.2 plus a faulted UW3 whose
// rows carry f/a tokens, each serialized by the oracle.

struct CorpusFile {
  std::string name;
  std::string text;
};

const std::vector<CorpusFile>& corpus() {
  static const std::vector<CorpusFile> files = [] {
    std::vector<CorpusFile> out;
    Catalog catalog{CatalogConfig{.seed = 7, .scale = 0.2}};
    for (const std::string& name : Catalog::dataset_names()) {
      out.push_back({name, write_oracle(catalog.by_name(name))});
    }
    Catalog faulted{CatalogConfig{
        .seed = 7, .scale = 0.2, .fault_intensity = 0.15, .fault_seed = 11}};
    out.push_back({"UW3-faulted", write_oracle(faulted.uw3())});
    return out;
  }();
  return files;
}

const std::string& corpus_text(std::string_view name) {
  for (const CorpusFile& f : corpus()) {
    if (f.name == name) return f.text;
  }
  throw std::invalid_argument("no corpus file " + std::string{name});
}

// Header plus the rows [first, first + count) of a serialized dataset.
std::string slice(const std::string& text, std::size_t first,
                  std::size_t count) {
  std::size_t pos = 0;
  for (int h = 0; h < 7; ++h) pos = text.find('\n', pos) + 1;
  std::string out = text.substr(0, pos);
  for (std::size_t row = 0; row < first + count && pos < text.size(); ++row) {
    const std::size_t end = text.find('\n', pos) + 1;
    if (row >= first) out.append(text, pos, end - pos);
    pos = end;
  }
  return out;
}

// Small valid bases for mutation: the head of every corpus file, and a run
// of the faulted file that contains f and a tokens.
std::vector<std::string> mutation_bases() {
  std::vector<std::string> bases;
  for (const CorpusFile& f : corpus()) bases.push_back(slice(f.text, 0, 24));
  const std::string& faulted = corpus_text("UW3-faulted");
  const std::size_t f_at = faulted.find(" f ");
  const std::size_t a_at = faulted.find(" a ");
  EXPECT_NE(f_at, std::string::npos);
  EXPECT_NE(a_at, std::string::npos);
  for (const std::size_t at : {f_at, a_at}) {
    const std::size_t row =
        static_cast<std::size_t>(std::count(
            faulted.begin(), faulted.begin() + static_cast<std::ptrdiff_t>(at),
            '\n')) -
        7;
    bases.push_back(slice(faulted, row > 4 ? row - 4 : 0, 16));
  }
  return bases;
}

constexpr std::array<std::string_view, 24> kEdgeTokens = {
    "+5",    "-0",     "0.5",    "1e3", ".5",
    "inf",   "nan",    "1e999",  "1e-320", "1e-400",
    "007",   "12345678901234567890", "-1", "+0", "5.",
    "1.0",   "0x10",   "-.5",    "1e",  std::string_view{"2\0x", 3},
    "5f",    "3-0",    "-nan",   "99999999999"};

std::string edge_token(std::size_t i) { return std::string{kEdgeTokens[i]}; }

// Byte spans of whitespace-separated tokens.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    std::size_t j = i;
    while (j < text.size() && !is_space(text[j])) ++j;
    if (j > i) out.emplace_back(i, j - i);
    i = j;
  }
  return out;
}

std::string mutate(const std::string& base, std::mt19937_64& rng) {
  static constexpr char kByteSet[] = "0123456789 \t\r\v\f\n+-.eExfam\0\x7f";
  static constexpr std::string_view kBytes{kByteSet, sizeof kByteSet - 1};
  std::string text = base;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const int steps = 1 + static_cast<int>(rng() % 4 == 0);
  for (int step = 0; step < steps && !text.empty(); ++step) {
    const auto spans = token_spans(text);
    const auto [at, len] = spans[pick(spans.size())];
    switch (rng() % 7) {
      case 0:  // bit flip
        text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // byte substitution
        text[pick(text.size())] = kBytes[pick(kBytes.size())];
        break;
      case 2:  // byte insertion
        text.insert(pick(text.size() + 1), 1, kBytes[pick(kBytes.size())]);
        break;
      case 3:  // token deletion, with its following separator
        text.erase(at, len + (at + len < text.size() ? 1 : 0));
        break;
      case 4:  // token duplication
        text.insert(at, text.substr(at, len) + " ");
        break;
      case 5:  // edge token substitution
        text.replace(at, len, edge_token(pick(kEdgeTokens.size())));
        break;
      default: {  // separator substitution
        const std::size_t sep = at + len;
        if (sep < text.size() && text[sep] == ' ') {
          text[sep] = "\t\r\v\f"[pick(4)];
        }
        break;
      }
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// Writer

TEST(SerializeDiff, WriterBytesMatchOracleOnCatalogDatasets) {
  Catalog catalog{CatalogConfig{.seed = 7, .scale = 0.2}};
  for (const std::string& name : Catalog::dataset_names()) {
    const Dataset& ds = catalog.by_name(name);
    ASSERT_FALSE(ds.measurements.empty()) << name;
    EXPECT_EQ(mismatch(write_new(ds), write_oracle(ds)), "") << name;
  }
  Catalog faulted{CatalogConfig{
      .seed = 7, .scale = 0.2, .fault_intensity = 0.15, .fault_seed = 11}};
  const std::string text = write_new(faulted.uw3());
  EXPECT_NE(text.find(" f "), std::string::npos);
  EXPECT_NE(text.find(" a "), std::string::npos);
  EXPECT_EQ(mismatch(text, write_oracle(faulted.uw3())), "");
}

TEST(SerializeDiff, WriterBytesMatchOracleOnExtremeValues) {
  auto ds = test::make_dataset(3);
  ds.hosts.push_back(topo::HostId{std::numeric_limits<std::int32_t>::max()});
  ds.duration = Duration::millis(std::numeric_limits<std::int64_t>::max());
  for (const double rtt :
       {0.0, -0.0, 1e-320, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0,
        123456789.125, 1e21, 1e-7, 100.0, std::nextafter(1.0, 2.0)}) {
    test::add_invocation(ds, 0, 1, {rtt, rtt, rtt});
    ds.measurements.back().samples[1].rtt_ms = -rtt;
  }
  Measurement failed;
  failed.when = SimTime::at(
      Duration::millis(std::numeric_limits<std::int64_t>::max()));
  failed.src = topo::HostId{2};
  failed.dst = topo::HostId{std::numeric_limits<std::int32_t>::max()};
  failed.episode = std::numeric_limits<std::int32_t>::min();
  failed.failure = FailureReason::kStuckProbe;
  failed.attempts = 255;
  for (int i = 0; i < 5000; ++i) {
    failed.as_path.push_back(
        topo::AsId{std::numeric_limits<std::int32_t>::max() - i});
  }
  ds.measurements.push_back(failed);
  EXPECT_EQ(mismatch(write_new(ds), write_oracle(ds)), "");

  Dataset tcp;
  tcp.kind = MeasurementKind::kTcpTransfer;
  tcp.hosts = {topo::HostId{0}, topo::HostId{1}};
  test::add_transfer(tcp, 0, 1, 1e300, 5e-324, 1.0);
  test::add_transfer(tcp, 1, 0, 0.0, 2.5, 1.0 / 7.0);
  EXPECT_EQ(mismatch(write_new(tcp), write_oracle(tcp)), "");
}

TEST(SerializeDiff, WriterLeavesStreamFormattingAlone) {
  auto ds = test::make_dataset(2);
  test::add_invocation(ds, 0, 1, {1.0 / 3.0, 2.0, 3.0});
  std::ostringstream os;
  os.precision(3);
  write_dataset(os, ds);
  EXPECT_EQ(os.precision(), 3);
  EXPECT_EQ(mismatch(os.str(), write_oracle(ds)), "");
}

// ---------------------------------------------------------------------------
// Reader

TEST(SerializeDiff, ReaderMatchesOracleOnCatalogFiles) {
  Tally tally;
  for (const CorpusFile& f : corpus()) {
    EXPECT_TRUE(agree(f.text, tally)) << f.name;
  }
  EXPECT_EQ(tally.both_accept, corpus().size());
}

TEST(SerializeDiff, ReaderMatchesOracleOnMutationCorpus) {
  std::mt19937_64 rng{20260101};
  Tally tally;
  for (const std::string& base : mutation_bases()) {
    ASSERT_TRUE(agree(base, tally));
    for (int i = 0; i < 600; ++i) agree(mutate(base, rng), tally);
  }
  tally.print("mutation corpus");
  // The corpus must exercise both outcomes, not just one.
  EXPECT_GT(tally.both_accept, 500u);
  EXPECT_GT(tally.both_reject, 2000u);
}

TEST(SerializeDiff, ReaderMatchesOracleOnEveryTruncation) {
  Tally tally;
  for (const std::string& small :
       {slice(corpus_text("UW3-faulted"), 0, 6),
        slice(corpus_text("N2"), 0, 4)}) {
    for (std::size_t cut = 0; cut <= small.size(); ++cut) {
      agree(small.substr(0, cut), tally);
    }
  }
  tally.print("truncations");
  EXPECT_TRUE(tally.strict_only.empty());
}

// Every edge token in every field of the header, the hosts line and a row.
TEST(SerializeDiff, ReaderMatchesOracleOnEdgeTokens) {
  const std::string base =
      "pathsel-dataset v1\nname e\nkind traceroute\nduration_ms 10\n"
      "first_sample_loss_only 0\nepisodes 1\nhosts 3 0 1 2\n"
      "m 5 0 1 -1 0 1 2.5 0 3 0 4 2 7 8 f 2 a 3\n";
  const std::string tcp_base =
      "pathsel-dataset v1\nname e\nkind tcp\nduration_ms 10\n"
      "first_sample_loss_only 0\nepisodes 1\nhosts 2 0 1\n"
      "m 5 0 1 -1 1 100 2.5 0.25\n";
  Tally tally;
  for (const std::string& text : {base, tcp_base}) {
    ASSERT_TRUE(agree(text, tally));
    const auto spans = token_spans(text);
    for (const auto& [at, len] : spans) {
      for (std::size_t e = 0; e < kEdgeTokens.size(); ++e) {
        std::string edited = text;
        edited.replace(at, len, edge_token(e));
        agree(edited, tally);
      }
    }
    // Every separator as every kind of C-locale whitespace.
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] != ' ') continue;
      for (const char sep : {'\t', '\r', '\v', '\f'}) {
        std::string edited = text;
        edited[i] = sep;
        agree(edited, tally);
      }
    }
  }
  tally.print("edge tokens");
  // Spot checks of the documented classes.
  const auto strict_only = [](const std::string& text) {
    return read_oracle(text).has_value() &&
           !read_dataset(std::string_view{text}).has_value();
  };
  const std::string head =
      "pathsel-dataset v1\nname e\nkind traceroute\nduration_ms 10\n"
      "first_sample_loss_only 0\nepisodes 1\n";
  EXPECT_TRUE(strict_only(
      "pathsel-dataset v1\nname e\nkind traceroute\nduration_ms +10\n"
      "first_sample_loss_only 0\nepisodes 1\nhosts 0\n"));
  EXPECT_TRUE(strict_only(head + "hosts -0\n"));
  EXPECT_TRUE(strict_only(head + "hosts 2 3-0\n"));
  EXPECT_TRUE(strict_only(head + "hosts 2 0 1\nm 0 0 1 -1 1 0.5 0 1 0 1 0\n"));
  EXPECT_TRUE(
      strict_only(head + "hosts 2 0 1\nm 0 0 1 -1 1 0 1e-400 0 1 0 1 0\n"));
  // A bare key takes the previous field's value in the oracle: "tcp" from
  // the name, episodes 0 from first_sample_loss_only.
  for (const char* bare :
       {"pathsel-dataset v1\nname tcp\nkind\nduration_ms 10\n"
        "first_sample_loss_only 0\nepisodes 1\nhosts 0\n",
        "pathsel-dataset v1\nname e\nkind traceroute\nduration_ms 10\n"
        "first_sample_loss_only 0\nepisodes\nhosts 0\n"}) {
    const std::string text = bare;
    EXPECT_TRUE(strict_only(text)) << escaped(text);
    EXPECT_EQ(classify(text), Leniency::kBareHeaderKey) << escaped(text);
  }
  for (const auto& [l, n] : tally.strict_only) {
    EXPECT_NE(l, Leniency::kUnexplained);
  }
  // Accepted alike: leading zeros, exponents, bare fractions, subnormals,
  // "-0" in a signed field, tabs and carriage returns as separators.
  for (const char* row :
       {"m 007 0 1 -0 1 0 1e3 0 .5 0 1e-320 0\n",
        "m 5\t0\r1 -1 1 0 5. 0 1 0 1 0\r\n"}) {
    const std::string text = head + "hosts 2 0 1\n" + row;
    const auto parsed = read_dataset(std::string_view{text});
    ASSERT_TRUE(parsed.has_value()) << row;
    EXPECT_EQ(difference(*parsed, *read_oracle(text)), "") << row;
  }
}

// ---------------------------------------------------------------------------
// Chunked reading

TEST(SerializeChunks, SgetnSizesGiveTheSameDataset) {
  std::vector<std::string> files;
  for (const CorpusFile& f : corpus()) files.push_back(f.text);
  std::mt19937_64 rng{7};
  for (const std::string& base : mutation_bases()) {
    for (int i = 0; i < 40; ++i) files.push_back(mutate(base, rng));
  }
  for (const std::string& text : files) {
    std::string want_error;
    const auto want = read_dataset(std::string_view{text}, &want_error);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
      if (chunk == 1 && text.size() > 200'000) continue;  // keep it quick
      std::string error;
      const auto got = read_chunked(text, chunk, &error);
      ASSERT_EQ(got.has_value(), want.has_value())
          << chunk << "\n" << escaped(text);
      EXPECT_EQ(error, want_error);
      if (got.has_value()) {
        EXPECT_EQ(difference(*got, *want), "");
      }
    }
  }
}

TEST(SerializeChunks, OneByteChunksOnAFullCatalogFile) {
  const std::string& text = corpus_text("UW3-faulted");
  const auto got = read_chunked(text, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(difference(*got, *read_oracle(text)), "");
}

TEST(SerializeChunks, ReadsBoundedPiecesNeverTheWholeStream) {
  const std::string& text = corpus_text("UW3");
  ASSERT_GT(text.size(), 1'000'000u);
  ChunkedBuf buf{text, text.size()};
  std::istream is{&buf};
  ASSERT_TRUE(read_dataset(is).has_value());
  EXPECT_LE(buf.largest_request(), 64 * 1024);
}

TEST(SerializeChunks, LineLongerThanTheBuffer) {
  // A 1024-hop row is accepted; padding its separators pushes the line past
  // the 64 KiB read size so the buffer has to grow mid-line.
  auto ds = test::make_dataset(2);
  test::add_invocation(ds, 0, 1, {1.5, 2.5, 3.5});
  for (int i = 0; i < 1024; ++i) {
    ds.measurements.back().as_path.push_back(topo::AsId{1'000'000 + i});
  }
  const std::string text = write_new(ds);
  ASSERT_EQ(mismatch(text, write_oracle(ds)), "");
  // Header lines keep their single spaces; only row separators are padded.
  const std::size_t hosts_end = text.find("\nm ") + 1;
  std::string padded = text.substr(0, hosts_end);
  for (const char c : text.substr(hosts_end)) {
    padded += c;
    if (c == ' ') padded.append(130, '\t');
  }
  ASSERT_GT(padded.size(), 2u * 64 * 1024);
  const std::string& long_line = padded;
  for (const std::string* in : {&text, &long_line}) {
    const auto old = read_oracle(*in);
    ASSERT_TRUE(old.has_value());
    for (const std::size_t chunk :
         {std::size_t{7}, std::size_t{4096}, in->size()}) {
      std::string error;
      const auto got = read_chunked(*in, chunk, &error);
      ASSERT_TRUE(got.has_value()) << error;
      EXPECT_EQ(difference(*got, *old), "");
      EXPECT_EQ(got->measurements[0].as_path.size(), 1024u);
    }
  }
  // The buffer grows geometrically: a handful of reads, not one per byte.
  ChunkedBuf whole_file{padded, padded.size()};
  std::istream is{&whole_file};
  ASSERT_TRUE(read_dataset(is).has_value());
  EXPECT_LT(whole_file.requests(), 10);
  // One hop more is over the cap for both readers.
  ds.measurements.back().as_path.push_back(topo::AsId{1});
  Tally tally;
  EXPECT_FALSE(agree(write_new(ds), tally));
  EXPECT_EQ(tally.both_reject, 1u);
}

TEST(SerializeChunks, UnterminatedLastLineAtTheBufferEdge) {
  // The last row has no '\n' and ends where a read does, so the final empty
  // read comes after the tail was moved (the whole file is one 64 KiB read)
  // or the buffer grew (a 64 KiB or 128 KiB row).  The row is padded with
  // tabs after its tag.
  const std::string head =
      "pathsel-dataset v1\nname e\nkind traceroute\nduration_ms 10\n"
      "first_sample_loss_only 0\nepisodes 1\nhosts 2 0 1\n"
      "m 5 0 1 -1 1 0 1 0 2 0 3 0\n";
  const std::string_view fields = " 6 1 0 -1 1 0 1.5 0 2.5 0 3.5 0";
  const auto file = [&](std::size_t row_bytes) {
    std::string text = head + "m";
    text.append(row_bytes - 1 - fields.size(), '\t');
    text += fields;
    return text;
  };
  const std::size_t k64 = 64 * 1024;
  const std::vector<std::string> files = {file(k64 - head.size()), file(k64),
                                          file(2 * k64)};
  ASSERT_EQ(files[0].size(), k64);
  for (const std::string& text : files) {
    const auto want = read_dataset(std::string_view{text});
    ASSERT_TRUE(want.has_value());
    ASSERT_EQ(want->measurements.size(), 2u);
    EXPECT_EQ(want->measurements[1].samples[2].rtt_ms, 3.5);
    EXPECT_EQ(difference(*want, *read_oracle(text)), "");
    for (const std::size_t chunk : {std::size_t{4096}, text.size()}) {
      std::string error;
      const auto got = read_chunked(text, chunk, &error);
      ASSERT_TRUE(got.has_value()) << text.size() << "/" << chunk << ": "
                                   << error;
      EXPECT_EQ(difference(*got, *want), "") << text.size() << "/" << chunk;
    }
  }
}

TEST(SerializeChunks, ReadErrorIsAnErrorNotATruncatedDataset) {
  FailingBuf buf{corpus_text("UW3"), 4096};
  std::istream is{&buf};
  std::string error;
  EXPECT_FALSE(read_dataset(is, &error).has_value());
  EXPECT_EQ(error, "read error");
}

TEST(SerializeChunks, HugeHostIdNeedsNoLargeAllocation) {
  const std::string text =
      "pathsel-dataset v1\nname big\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 2 0 2147483647\n"
      "m 0 0 2147483647 -1 1 0 1 0 1 0 1 0\n";
  g_largest_allocation = 0;
  g_track_allocations = true;
  const auto from_view = read_dataset(std::string_view{text});
  std::istringstream is{text};
  const auto from_stream = read_dataset(is);
  const auto lone = read_dataset(std::string_view{
      "pathsel-dataset v1\nname big\nkind traceroute\nduration_ms 1\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 1 2147483647\n"});
  g_track_allocations = false;
  ASSERT_TRUE(from_view.has_value());
  ASSERT_TRUE(from_stream.has_value());
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->hosts, std::vector<topo::HostId>{topo::HostId{2147483647}});
  EXPECT_EQ(difference(*from_view, *read_oracle(text)), "");
  // The 64 KiB read buffer is the largest thing the reader allocates.
  EXPECT_LE(g_largest_allocation, 64u * 1024u);
}

}  // namespace
}  // namespace pathsel::meas

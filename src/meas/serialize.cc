#include "meas/serialize.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "util/parse.h"

namespace pathsel::meas {

namespace {

// Hard caps against adversarial counts: far above anything the collectors
// produce, far below anything that could exhaust memory while "parsing".
constexpr std::size_t kMaxHosts = 1'000'000;
constexpr std::size_t kMaxAsPath = 1024;

// Stream reads pull this much at a time.
constexpr std::size_t kChunk = 64 * 1024;

bool fail(std::string* error, std::string_view reason,
          std::string_view detail = {}) {
  if (error != nullptr) {
    error->assign(reason);
    error->append(detail);
  }
  return false;
}

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }

// C-locale isspace.  Newline never occurs inside a line; accepting it keeps
// parse_measurement tolerant of a row passed with its terminator.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

std::string_view trim_leading_space(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  return s;
}

// Whitespace-separated tokens of one line.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_{line} {}

  /// The next token; empty once the line is exhausted.
  std::string_view next() {
    rest_ = trim_leading_space(rest_);
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    const std::string_view token = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return token;
  }

  template <typename T>
  bool next(T& out) {
    return parse_number(next(), out);
  }

  /// The unconsumed rest of the line, starting at the separator (if any)
  /// after the last token returned.
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

// Hands out lines either from text in memory or from a stream buffer read in
// kChunk pieces.  Before each read the unconsumed tail moves to the front of
// the buffer, which grows only when a single line fills it.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : pending_{text} {}
  explicit LineReader(std::streambuf* source)
      : source_{source}, buffer_(kChunk), pending_{buffer_.data(), 0} {}

  /// Sets `line` to the next line without its '\n'; false at the end of the
  /// input or on a read error.  `line` stays valid until the next call.
  bool next(std::string_view& line) {
    std::size_t scanned = 0;
    for (;;) {
      const std::size_t nl = pending_.find('\n', scanned);
      if (nl != std::string_view::npos) {
        line = pending_.substr(0, nl);
        pending_.remove_prefix(nl + 1);
        return true;
      }
      scanned = pending_.size();
      if (!refill()) break;
    }
    if (failed_ || pending_.empty()) return false;
    line = pending_;  // a last line without a newline
    pending_.remove_prefix(pending_.size());
    return true;
  }

  [[nodiscard]] bool failed() const { return failed_; }

 private:
  // Appends the next piece of the stream after the tail; false at its end.
  // `pending_` is re-pointed at the moved tail before reading, so it stays
  // valid however the read ends.
  bool refill() {
    if (source_ == nullptr) return false;
    const std::size_t size = pending_.size();
    if (pending_.data() != buffer_.data()) {
      std::memmove(buffer_.data(), pending_.data(), size);
    }
    if (size == buffer_.size()) buffer_.resize(2 * size);
    pending_ = std::string_view{buffer_.data(), size};
    std::streamsize got = 0;
    try {
      got = source_->sgetn(buffer_.data() + size,
                           static_cast<std::streamsize>(buffer_.size() - size));
    } catch (...) {
      // A stream buffer signals a read error (e.g. a directory opened as a
      // file) by throwing; istream would have swallowed it into badbit.
      failed_ = true;
    }
    if (got <= 0) return false;
    pending_ = std::string_view{buffer_.data(),
                                size + static_cast<std::size_t>(got)};
    return true;
  }

  std::streambuf* source_ = nullptr;
  std::vector<char> buffer_;
  std::string_view pending_;
  bool failed_ = false;
};

// The fields of a row after its "m" tag.  `declared_hosts` (sorted; null for
// a lone row) restricts src/dst.
bool parse_row(Tokens& tokens, std::string_view line, MeasurementKind kind,
               const std::vector<std::int32_t>* declared_hosts,
               Measurement& m, std::string* error) {
  const auto declared = [declared_hosts](std::int32_t id) {
    return std::binary_search(declared_hosts->begin(), declared_hosts->end(),
                              id);
  };
  std::int64_t when_ms = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  int completed = 0;
  if (!tokens.next(when_ms) || !tokens.next(src) || !tokens.next(dst) ||
      !tokens.next(m.episode) || !tokens.next(completed)) {
    return fail(error, "malformed measurement line: ", line);
  }
  if (when_ms < 0) {
    return fail(error, "negative measurement time: ", line);
  }
  if (declared_hosts != nullptr && (!declared(src) || !declared(dst))) {
    return fail(error, "measurement references undeclared host: ", line);
  }
  if (src < 0 || dst < 0) {
    return fail(error, "negative host id: ", line);
  }
  if (src == dst) {
    return fail(error, "measurement with src == dst: ", line);
  }
  if (m.episode < -1 || completed < 0 || completed > 1) {
    return fail(error, "malformed measurement line: ", line);
  }
  m.when = SimTime::at(Duration::millis(when_ms));
  m.src = topo::HostId{src};
  m.dst = topo::HostId{dst};
  m.completed = completed != 0;
  if (kind == MeasurementKind::kTraceroute) {
    for (auto& s : m.samples) {
      int lost = 0;
      if (!tokens.next(lost) || !tokens.next(s.rtt_ms)) {
        return fail(error, "malformed traceroute samples: ", line);
      }
      if (lost < 0 || lost > 1 || !finite_nonneg(s.rtt_ms)) {
        return fail(error, "sample out of range: ", line);
      }
      s.lost = lost != 0;
    }
    std::size_t as_count = 0;
    if (!tokens.next(as_count)) {
      return fail(error, "missing AS path length: ", line);
    }
    if (as_count > kMaxAsPath) {
      return fail(error, "AS path length out of range: ", line);
    }
    m.as_path.reserve(as_count);
    for (std::size_t i = 0; i < as_count; ++i) {
      std::int32_t as = 0;
      if (!tokens.next(as)) {
        return fail(error, "AS path shorter than its count: ", line);
      }
      if (as < 0) {
        return fail(error, "negative AS id: ", line);
      }
      m.as_path.push_back(topo::AsId{as});
    }
  } else {
    if (!tokens.next(m.bandwidth_kBps) || !tokens.next(m.tcp_rtt_ms) ||
        !tokens.next(m.tcp_loss_rate)) {
      return fail(error, "malformed transfer fields: ", line);
    }
    if (!finite_nonneg(m.bandwidth_kBps) || !finite_nonneg(m.tcp_rtt_ms) ||
        !finite_nonneg(m.tcp_loss_rate) || m.tcp_loss_rate > 1.0) {
      return fail(error, "transfer fields out of range: ", line);
    }
  }
  // Optional fault-aware tokens, each at most once, in any order.
  bool saw_failure = false;
  bool saw_attempts = false;
  for (std::string_view token = tokens.next(); !token.empty();
       token = tokens.next()) {
    std::int64_t v = 0;
    if (!tokens.next(v)) {
      return fail(error, "malformed trailing token: ", line);
    }
    if (token == "f" && !saw_failure) {
      if (v < 1 || v >= static_cast<std::int64_t>(kFailureReasonCount)) {
        return fail(error, "failure reason out of range: ", line);
      }
      if (m.completed) {
        return fail(error, "completed measurement with a failure reason: ",
                    line);
      }
      m.failure = static_cast<FailureReason>(v);
      saw_failure = true;
    } else if (token == "a" && !saw_attempts) {
      if (v < 1 || v > 255) {
        return fail(error, "attempts out of range: ", line);
      }
      m.attempts = static_cast<std::uint8_t>(v);
      saw_attempts = true;
    } else {
      return fail(error, "unexpected trailing token: ", line);
    }
  }
  return true;
}

std::optional<Dataset> parse_dataset(LineReader& lines, std::string* error) {
  std::string_view line;
  if (!lines.next(line) || line != "pathsel-dataset v1") {
    fail(error, "missing or unsupported header");
    return std::nullopt;
  }

  Dataset ds;
  // Fixed header block in order.  `value` views the line buffer and is only
  // valid until the next line is read.
  std::string_view value;
  auto expect_field = [&](std::string_view key) -> bool {
    if (!lines.next(line)) return fail(error, "missing field ", key);
    Tokens tokens{line};
    if (tokens.next() != key) return fail(error, "expected field ", key);
    value = tokens.rest();
    if (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    return true;
  };

  if (!expect_field("name")) return std::nullopt;
  ds.name = value;
  if (!expect_field("kind")) return std::nullopt;
  if (value == "traceroute") {
    ds.kind = MeasurementKind::kTraceroute;
  } else if (value == "tcp") {
    ds.kind = MeasurementKind::kTcpTransfer;
  } else {
    fail(error, "unknown kind: ", value);
    return std::nullopt;
  }
  std::int64_t parsed = 0;
  if (!expect_field("duration_ms")) return std::nullopt;
  if (!parse_number(trim_leading_space(value), parsed) || parsed < 0) {
    fail(error, "invalid duration_ms: ", value);
    return std::nullopt;
  }
  ds.duration = Duration::millis(parsed);
  if (!expect_field("first_sample_loss_only")) return std::nullopt;
  if (value != "0" && value != "1") {
    fail(error, "invalid first_sample_loss_only: ", value);
    return std::nullopt;
  }
  ds.first_sample_loss_only = value == "1";
  if (!expect_field("episodes")) return std::nullopt;
  if (!parse_number(trim_leading_space(value), parsed) || parsed < 0 ||
      parsed > std::numeric_limits<std::int32_t>::max()) {
    fail(error, "invalid episodes: ", value);
    return std::nullopt;
  }
  ds.episode_count = static_cast<std::int32_t>(parsed);

  if (!lines.next(line)) {
    fail(error, "missing hosts line");
    return std::nullopt;
  }
  // Declared ids, sorted for lookup: memory follows the ids present, never
  // their magnitude.
  std::vector<std::int32_t> host_ids;
  {
    Tokens tokens{line};
    std::size_t count = 0;
    if (tokens.next() != "hosts" || !tokens.next(count)) {
      fail(error, "malformed hosts line");
      return std::nullopt;
    }
    if (count > kMaxHosts) {
      fail(error, "hosts count out of range");
      return std::nullopt;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::int32_t id = 0;
      if (!tokens.next(id)) {
        fail(error, "hosts line shorter than its count");
        return std::nullopt;
      }
      if (id < 0) {
        fail(error, "negative host id");
        return std::nullopt;
      }
      host_ids.push_back(id);
      ds.hosts.push_back(topo::HostId{id});
    }
    std::sort(host_ids.begin(), host_ids.end());
    if (std::adjacent_find(host_ids.begin(), host_ids.end()) !=
        host_ids.end()) {
      fail(error, "duplicate host id");
      return std::nullopt;
    }
    if (!tokens.next().empty()) {
      fail(error, "trailing tokens on hosts line");
      return std::nullopt;
    }
  }

  // Fault-aware campaigns (meas/collector with a FaultPlan or retries) stamp
  // a reason onto every failed row; legacy fault-free campaigns stamp
  // nothing.  Mixing the two within one file can only come from corruption
  // (a torn rewrite, spliced runs), so it is rejected after the scan.
  bool any_fault_token = false;
  bool any_failed_without_reason = false;
  while (lines.next(line)) {
    if (line.empty()) continue;
    Tokens tokens{line};
    if (tokens.next() != "m") {
      fail(error, "unexpected line: ", line);
      return std::nullopt;
    }
    Measurement m;
    if (!parse_row(tokens, line, ds.kind, &host_ids, m, error)) {
      return std::nullopt;
    }
    if (m.failure != FailureReason::kNone || m.attempts > 1) {
      any_fault_token = true;
    }
    if (!m.completed && m.failure == FailureReason::kNone) {
      any_failed_without_reason = true;
    }
    ds.measurements.push_back(std::move(m));
  }
  if (any_fault_token && any_failed_without_reason) {
    fail(error,
         "fault-aware dataset has failed measurements without a failure "
         "reason (file mixes fault-aware and legacy rows)");
    return std::nullopt;
  }
  return ds;
}

// Appends " <number>" to a row: integers in full, reals as "%.17g".
class RowFormatter {
 public:
  explicit RowFormatter(std::string& row) : row_{row} {}

  template <typename T>
  RowFormatter& integer(T v) {
    return put(std::to_chars(digits_ + 1, std::end(digits_), v).ptr);
  }
  RowFormatter& real(double v) {
    return put(std::to_chars(digits_ + 1, std::end(digits_), v,
                             std::chars_format::general, 17)
                   .ptr);
  }

 private:
  RowFormatter& put(const char* end) {
    row_.append(digits_, static_cast<std::size_t>(end - digits_));
    return *this;
  }

  std::string& row_;
  // The separator, then room for the widest number: "%.17g" of a double
  // takes at most 24 characters, an int64 20.
  char digits_[32] = {' '};
};

}  // namespace

void write_dataset(std::ostream& os, const Dataset& dataset) {
  os << "pathsel-dataset v1\n";
  os << "name " << dataset.name << '\n';
  os << "kind "
     << (dataset.kind == MeasurementKind::kTraceroute ? "traceroute" : "tcp")
     << '\n';
  os << "duration_ms " << dataset.duration.total_millis() << '\n';
  os << "first_sample_loss_only " << (dataset.first_sample_loss_only ? 1 : 0)
     << '\n';
  os << "episodes " << dataset.episode_count << '\n';
  os << "hosts " << dataset.hosts.size();
  for (const auto h : dataset.hosts) os << ' ' << h.value();
  os << '\n';

  for (const auto& m : dataset.measurements) {
    write_measurement(os, m, dataset.kind);
  }
}

void write_measurement(std::ostream& os, const Measurement& m,
                       MeasurementKind kind) {
  // Reused across rows, so formatting a row allocates nothing.
  thread_local std::string text;
  text.clear();
  text += 'm';
  RowFormatter row{text};
  row.integer(m.when.since_start().total_millis())
      .integer(m.src.value())
      .integer(m.dst.value())
      .integer(m.episode)
      .integer(m.completed ? 1 : 0);
  if (kind == MeasurementKind::kTraceroute) {
    for (const auto& s : m.samples) row.integer(s.lost ? 1 : 0).real(s.rtt_ms);
    row.integer(m.as_path.size());
    for (const auto as : m.as_path) row.integer(as.value());
  } else {
    row.real(m.bandwidth_kBps).real(m.tcp_rtt_ms).real(m.tcp_loss_rate);
  }
  // Fault-aware extras; omitted at their defaults so fault-free datasets
  // keep the historical byte stream.
  if (m.failure != FailureReason::kNone) {
    text += " f";
    row.integer(static_cast<int>(m.failure));
  }
  if (m.attempts > 1) {
    text += " a";
    row.integer(static_cast<int>(m.attempts));
  }
  text += '\n';
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::optional<Dataset> read_dataset(std::istream& is, std::string* error) {
  // Like getline, a stream that is not good() yields no input.
  LineReader lines{is.good() ? is.rdbuf() : nullptr};
  std::optional<Dataset> ds = parse_dataset(lines, error);
  if (lines.failed()) {
    // Whatever was parsed ends early; the cause is the stream, not the text.
    fail(error, "read error");
    return std::nullopt;
  }
  return ds;
}

std::optional<Dataset> read_dataset(std::string_view text, std::string* error) {
  LineReader lines{text};
  return parse_dataset(lines, error);
}

bool parse_measurement(std::string_view line, MeasurementKind kind,
                       Measurement& out, std::string* error) {
  Tokens tokens{line};
  if (tokens.next() != "m") {
    return fail(error, "malformed measurement line: ", line);
  }
  Measurement m;
  if (!parse_row(tokens, line, kind, nullptr, m, error)) return false;
  out = std::move(m);
  return true;
}

Result<Dataset> load_dataset(const std::string& path) {
  std::ifstream is{path};
  if (!is) {
    return Status::error(ErrorCode::kIoError, "cannot open " + path + ": " +
                                                  std::strerror(errno));
  }
  LineReader lines{is.rdbuf()};
  std::string error;
  std::optional<Dataset> ds = parse_dataset(lines, &error);
  if (lines.failed()) {
    return Status::error(ErrorCode::kIoError, "cannot read " + path);
  }
  if (!ds.has_value()) {
    return Status::error(ErrorCode::kParseError, path + ": " + error);
  }
  return std::move(*ds);
}

}  // namespace pathsel::meas

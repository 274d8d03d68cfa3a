#include "serve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>

#include "util/atomic_io.h"
#include "util/codec.h"
#include "util/parse.h"

namespace pathsel::serve {

namespace {

Status io_error(const std::string& what, const std::string& path) {
  return Status::error(ErrorCode::kIoError,
                       what + " " + path + ": " + std::strerror(errno));
}

void put_summary_raw(codec::Writer& out, const stats::Summary::Raw& raw) {
  out.i64(raw.n);
  out.f64(raw.mean);
  out.f64(raw.m2);
  out.f64(raw.min);
  out.f64(raw.max);
}

stats::Summary::Raw get_summary_raw(codec::Reader& in) {
  stats::Summary::Raw raw;
  raw.n = in.i64("summary count");
  raw.mean = in.f64("summary mean");
  raw.m2 = in.f64("summary m2");
  raw.min = in.f64("summary min");
  raw.max = in.f64("summary max");
  return raw;
}

// PSSV: magic, version, fingerprint, seq and edge count plus the CRC-32
// trailer (an empty snapshot), then a fixed size per edge.
constexpr std::size_t kEmptyStateBytes = 4 + 4 + 8 + 8 + 8 + 4;
constexpr std::size_t kEdgeStateBytes = 4 + 4 + 8 + 2 * 5 * 8;

}  // namespace

Result<EdgeUpdate> parse_update(std::string_view spec) {
  // Tokenize on single spaces; extra or missing fields are their own errors.
  std::vector<std::string> tokens;
  std::string cur;
  for (const char ch : spec) {
    if (ch == ' ' || ch == '\t') {
      if (!cur.empty()) tokens.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));

  auto bad = [&](const std::string& why) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "malformed update '" + std::string{spec} + "': " + why);
  };
  if (tokens.size() != 5) {
    return bad("want 'sample A B RTT LOST' (5 fields, got " +
               std::to_string(tokens.size()) + ")");
  }
  if (tokens[0] != "sample") {
    return bad("unknown update kind '" + tokens[0] + "' (want 'sample')");
  }

  auto parse_host = [&](const std::string& tok, const char* which,
                        std::int32_t& out) -> Status {
    if (!parse_number(tok, out) || out < 0) {
      return bad(std::string{which} + " host id '" + tok +
                 "' is not a non-negative integer");
    }
    return Status::ok();
  };
  std::int32_t a = 0;
  std::int32_t b = 0;
  if (Status s = parse_host(tokens[1], "first", a); !s.is_ok()) return s;
  if (Status s = parse_host(tokens[2], "second", b); !s.is_ok()) return s;
  if (a == b) return bad("a path needs two distinct hosts");

  double rtt = 0.0;
  if (!parse_number(tokens[3], rtt) || !std::isfinite(rtt) || rtt < 0.0) {
    return bad("rtt '" + tokens[3] + "' is not a finite non-negative number");
  }
  if (tokens[4] != "0" && tokens[4] != "1") {
    return bad("lost flag '" + tokens[4] + "' must be 0 or 1");
  }

  EdgeUpdate u;
  u.a = topo::HostId{std::min(a, b)};
  u.b = topo::HostId{std::max(a, b)};
  u.rtt_ms = rtt;
  u.lost = tokens[4] == "1";
  return u;
}

std::string serialize_journal_header(std::uint64_t fingerprint,
                                     std::uint64_t generation,
                                     std::uint64_t start_seq) {
  codec::Writer out{kJournalHeaderBytes};
  out.u32(kJournalMagic);
  out.u32(kJournalVersion);
  out.u64(fingerprint);
  out.u64(generation);
  out.u64(start_seq);
  return std::move(out).seal();
}

std::string serialize_journal_record(const JournalRecord& r) {
  codec::Writer payload{kRecordPayloadBytes};
  payload.u64(r.seq);
  payload.i32(r.update.a.value());
  payload.i32(r.update.b.value());
  payload.f64(r.update.rtt_ms);
  payload.u8(r.update.lost ? 1 : 0);
  const std::string bytes = std::move(payload).take();
  codec::Writer out{8 + bytes.size()};
  out.u32(static_cast<std::uint32_t>(bytes.size()));
  out.u32(crc32(bytes));
  out.bytes(bytes);
  return std::move(out).take();
}

JournalScan scan_journal(std::string_view bytes, std::uint64_t fingerprint) {
  JournalScan scan;
  Result<codec::Reader> header = codec::open_sealed(
      bytes.substr(0, kJournalHeaderBytes),
      {kJournalMagic, kJournalVersion, "PSJL journal header",
       kJournalHeaderBytes});
  if (!header.is_ok()) {
    scan.reject_reason = header.status().message();
    return scan;
  }
  codec::Reader& h = header.value();
  const std::uint64_t fp = h.u64("fingerprint");
  scan.generation = h.u64("generation");
  scan.start_seq = h.u64("start seq");
  if (fp != fingerprint) {
    scan.reject_reason = "journal belongs to a different dataset/options "
                         "(fingerprint mismatch)";
    return scan;
  }
  scan.usable = true;
  scan.valid_bytes = kJournalHeaderBytes;

  // Any shortfall from here on is a torn tail, described and cut, never an
  // error: the records before it are intact and replayable.
  codec::Reader c{bytes.substr(kJournalHeaderBytes)};
  std::uint64_t prev_seq = 0;
  while (c.remaining() > 0) {
    const std::uint32_t len = c.u32("record length");
    const std::uint32_t rec_crc = c.u32("record CRC");
    if (c.failed()) {
      scan.truncated = true;
      scan.truncation_reason = "torn record frame (partial length/CRC)";
      break;
    }
    if (len != kRecordPayloadBytes) {
      scan.truncated = true;
      scan.truncation_reason =
          "record length " + std::to_string(len) + " is not the v1 payload size";
      break;
    }
    const std::string_view payload = c.bytes(len, "record payload");
    if (c.failed()) {
      scan.truncated = true;
      scan.truncation_reason = "torn record payload (file ends mid-record)";
      break;
    }
    if (crc32(payload) != rec_crc) {
      scan.truncated = true;
      scan.truncation_reason = "record CRC mismatch";
      break;
    }
    codec::Reader p{payload};
    JournalRecord r;
    r.seq = p.u64("seq");
    r.update.a = topo::HostId{p.i32("host a")};
    r.update.b = topo::HostId{p.i32("host b")};
    r.update.rtt_ms = p.f64("rtt");
    r.update.lost = p.u8("lost flag") != 0;
    if (prev_seq != 0 && r.seq != prev_seq + 1) {
      scan.truncated = true;
      scan.truncation_reason =
          "sequence break (record " + std::to_string(r.seq) + " after " +
          std::to_string(prev_seq) + ")";
      break;
    }
    prev_seq = r.seq;
    scan.records.push_back(r);
    scan.valid_bytes = kJournalHeaderBytes + c.pos();
  }
  return scan;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status JournalWriter::open(const std::string& path, std::size_t offset) {
  close();
  if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
    return io_error("cannot truncate journal", path);
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return io_error("cannot open journal", path);
  path_ = path;
  return Status::ok();
}

Status JournalWriter::append(const JournalRecord& r) {
  if (fd_ < 0) {
    return Status::error(ErrorCode::kIoError, "journal is not open");
  }
  const std::string frame = serialize_journal_record(r);
  const char* data = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error("cannot append to journal", path_);
      close();
      return s;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    const Status s = io_error("cannot fsync journal", path_);
    close();
    return s;
  }
  return Status::ok();
}

ServeStateImage capture_serve_state(const core::PathTable& table,
                                    std::uint64_t seq) {
  ServeStateImage image;
  image.seq = seq;
  image.edges.reserve(table.edges().size());
  for (const core::PathEdge& e : table.edges()) {
    ServeStateImage::EdgeState s;
    s.a = e.a.value();
    s.b = e.b.value();
    s.invocations = e.invocations;
    s.rtt = e.rtt.raw();
    s.loss = e.loss.raw();
    image.edges.push_back(s);
  }
  return image;
}

Status restore_serve_state(const ServeStateImage& image,
                           core::PathTable& table) {
  if (image.edges.size() != table.edges().size()) {
    return Status::error(
        ErrorCode::kParseError,
        "state snapshot holds " + std::to_string(image.edges.size()) +
            " edges but the dataset builds " +
            std::to_string(table.edges().size()));
  }
  for (std::size_t i = 0; i < image.edges.size(); ++i) {
    const ServeStateImage::EdgeState& s = image.edges[i];
    core::PathEdge* e = table.find_mutable(topo::HostId{s.a}, topo::HostId{s.b});
    if (e == nullptr || &table.edges()[i] != e) {
      return Status::error(ErrorCode::kParseError,
                           "state snapshot edge (" + std::to_string(s.a) +
                               ", " + std::to_string(s.b) +
                               ") does not match the dataset's edge order");
    }
    e->invocations = s.invocations;
    e->rtt = stats::Summary::from_raw(s.rtt);
    e->loss = stats::Summary::from_raw(s.loss);
  }
  return Status::ok();
}

std::string serialize_serve_state(const ServeStateImage& image,
                                  std::uint64_t fingerprint) {
  codec::Writer out{kEmptyStateBytes + image.edges.size() * kEdgeStateBytes};
  out.u32(kServeStateMagic);
  out.u32(kServeStateVersion);
  out.u64(fingerprint);
  out.u64(image.seq);
  out.u64(image.edges.size());
  for (const ServeStateImage::EdgeState& s : image.edges) {
    out.i32(s.a);
    out.i32(s.b);
    out.i64(s.invocations);
    put_summary_raw(out, s.rtt);
    put_summary_raw(out, s.loss);
  }
  return std::move(out).seal();
}

Result<ServeStateImage> parse_serve_state(std::string_view bytes,
                                          std::uint64_t fingerprint) {
  auto parse_error = [](const std::string& why) {
    return Status::error(ErrorCode::kParseError,
                         "serve state snapshot: " + why);
  };
  Result<codec::Reader> opened = codec::open_sealed(
      bytes, {kServeStateMagic, kServeStateVersion, "PSSV serve state file",
              kEmptyStateBytes});
  if (!opened.is_ok()) return parse_error(opened.status().message());
  codec::Reader& c = opened.value();
  if (c.u64("fingerprint") != fingerprint) {
    return parse_error(
        "fingerprint mismatch (snapshot from a different dataset/options)");
  }
  ServeStateImage image;
  image.seq = c.u64("seq");
  const std::uint64_t count = c.u64("edge count");
  if (!c.fits(count, kEdgeStateBytes) ||
      count * kEdgeStateBytes != c.remaining()) {
    return parse_error("edge count does not match the file size");
  }
  image.edges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ServeStateImage::EdgeState s;
    s.a = c.i32("edge host a");
    s.b = c.i32("edge host b");
    s.invocations = c.i64("edge invocations");
    s.rtt = get_summary_raw(c);
    s.loss = get_summary_raw(c);
    image.edges.push_back(s);
  }
  return image;
}

}  // namespace pathsel::serve

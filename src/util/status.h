// Error propagation for data-shaped failures.
//
// PATHSEL_EXPECT (util/expect.h) remains the tool for programmer errors —
// violated algorithmic invariants abort, because silently-wrong results are
// worse than dead processes.  Status is the return path for everything the
// *data* can get wrong: unreadable files, malformed input, datasets too
// sparse or too disconnected to analyze.  Those are expected in a measurement
// study (the paper's own traces are full of them) and must degrade, not
// abort.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "util/expect.h"

namespace pathsel {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kIoError,            // file unreadable/unwritable
  kParseError,         // malformed serialized input
  kInvalidArgument,    // caller-supplied option outside its domain
  kInsufficientData,   // dataset too sparse for the requested analysis
  kDisconnected,       // the measured graph cannot answer the question
  kDeadlineExceeded,   // cancelled by a wall-clock deadline (util/cancel.h)
  kCancelled,          // cancelled by request, signal, or the stall watchdog
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

class Status {
 public:
  Status() noexcept = default;  // ok

  [[nodiscard]] static Status ok() noexcept { return Status{}; }
  [[nodiscard]] static Status error(ErrorCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "ok" or "<code>: <message>" for diagnostics.
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// A value or the Status explaining its absence.
template <typename T>
class Result {
 public:
  Result(T value) : value_{std::move(value)} {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_{std::move(status)} {  // NOLINT(google-explicit-constructor)
    PATHSEL_EXPECT(!status_.is_ok(), "Result built from an ok Status needs a value");
  }

  [[nodiscard]] bool is_ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Requires is_ok().  On a temporary Result the value is moved out.
  [[nodiscard]] T& value() & {
    PATHSEL_EXPECT(value_.has_value(), "Result::value() on an error result");
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    PATHSEL_EXPECT(value_.has_value(), "Result::value() on an error result");
    return *value_;
  }
  [[nodiscard]] T&& value() && { return std::move(value()); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace pathsel

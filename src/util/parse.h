// Whole-token number parsing: the one rule for numbers read from text, used
// by the dataset reader (meas/serialize), the command-line flags, the
// scenario grid (matrix/grid) and the serve trace and update lines.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace pathsel {

/// Parses all of `token` as one T with std::from_chars: no leading
/// whitespace or '+', a '-' only where T is signed, no trailing characters,
/// no overflow.  Reals are decimal in general format (no hex); from_chars
/// also takes "inf" and "nan", which callers exclude by range.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace pathsel

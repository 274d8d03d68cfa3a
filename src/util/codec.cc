#include "util/codec.h"

#include "util/atomic_io.h"

namespace pathsel::codec {

std::string Writer::seal() && {
  u32(crc32(out_));
  return std::move(out_);
}

std::optional<std::string_view> verify(std::string_view sealed) noexcept {
  if (sealed.size() < 4) return std::nullopt;
  const std::string_view payload = sealed.substr(0, sealed.size() - 4);
  std::uint32_t stored = 0;
  std::memcpy(&stored, sealed.data() + payload.size(), sizeof(stored));
  if (stored != crc32(payload)) return std::nullopt;
  return payload;
}

Result<Reader> open_sealed(std::string_view sealed, const Format& format) {
  const auto error = [](std::string message) {
    return Status::error(ErrorCode::kParseError, std::move(message));
  };
  const std::string name = format.name;
  if (sealed.size() < format.min_bytes) {
    return error("truncated file: " + std::to_string(sealed.size()) +
                 " bytes is smaller than the smallest " + name + " (" +
                 std::to_string(format.min_bytes) + " bytes)");
  }
  Reader header{sealed};
  if (header.u32("magic") != format.magic) {
    return error("bad magic: not a " + name);
  }
  const std::uint32_t version = header.u32("version");
  if (version == 0 || version > format.version) {
    return error(name + " version " + std::to_string(version) +
                 " is not supported by this build (it reads versions 1.." +
                 std::to_string(format.version) + ")");
  }
  // The trailer is checked before any structural field is trusted, so a bit
  // flip anywhere — counts included — reads as corruption, not as whatever
  // structure the flipped bytes happen to spell.
  const std::optional<std::string_view> payload = verify(sealed);
  if (!payload) {
    return error("CRC-32 mismatch: " + name + " is corrupted or torn");
  }
  Reader reader{*payload};
  (void)reader.bytes(8, "magic and version");
  return reader;
}

}  // namespace pathsel::codec

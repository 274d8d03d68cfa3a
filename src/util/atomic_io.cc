#include "util/atomic_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace pathsel {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Status io_error(const std::string& what, const std::string& path) {
  return Status::error(ErrorCode::kIoError,
                       what + " " + path + ": " + std::strerror(errno));
}

// fsync a path opened read-only (used for the containing directory, so the
// rename itself is durable).  Best effort: some filesystems refuse directory
// fsync; a failure there is not a torn file, so it is not fatal.
void fsync_directory(const std::string& dir) noexcept {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// 0: unlimited.  Nonzero: write_file_atomic fails with ENOSPC once this many
// bytes have been written (see testing::set_write_file_cap_for_testing).
std::size_t g_write_cap_bytes = 0;

}  // namespace

void set_write_file_cap_for_testing(std::size_t cap_bytes) noexcept {
  g_write_cap_bytes = cap_bytes;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

Status write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("cannot open", tmp);

  const char* data = contents.data();
  std::size_t left = contents.size();
  std::size_t written = 0;
  while (left > 0) {
    if (g_write_cap_bytes != 0 && written >= g_write_cap_bytes) {
      errno = ENOSPC;  // injected disk-full (see set_write_file_cap_for_testing)
      const Status s = io_error("cannot write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    std::size_t attempt = left;
    if (g_write_cap_bytes != 0) {
      attempt = std::min(attempt, g_write_cap_bytes - written);
    }
    const ssize_t n = ::write(fd, data, attempt);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = io_error("cannot write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status s = io_error("cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    const Status s = io_error("cannot close", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = io_error("cannot rename over", path);
    ::unlink(tmp.c_str());
    return s;
  }
  const auto slash = path.find_last_of('/');
  fsync_directory(slash == std::string::npos ? std::string{"."}
                                             : path.substr(0, slash));
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_error("cannot open", path);
  // read() itself, not a stream, so a failed read (EISDIR on a directory,
  // EIO) is an error instead of an empty file.
  std::string out;
  std::array<char, 1 << 16> chunk{};
  for (;;) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n > 0) {
      out.append(chunk.data(), static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      const Status s = io_error("cannot read", path);
      ::close(fd);
      return s;
    }
  }
  ::close(fd);
  return out;
}

Status ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::error(ErrorCode::kIoError,
                         "cannot create directory " + path + ": " + ec.message());
  }
  return Status::ok();
}

FileLock::FileLock(FileLock&& other) noexcept : fd_{other.fd_} {
  other.fd_ = -1;
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FileLock::~FileLock() { release(); }

Result<FileLock> FileLock::try_acquire(const std::string& path) {
  // O_CLOEXEC keeps the descriptor (and hence the lock) from leaking into
  // exec'd children; fork'd children of the holder share it by design.
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("cannot open lock file", path);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK || err == EINTR) return FileLock{};  // busy
    errno = err;
    return io_error("cannot lock", path);
  }
  FileLock lock;
  lock.fd_ = fd;
  return lock;
}

void FileLock::release() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);  // closing the last descriptor drops the flock
    fd_ = -1;
  }
}

}  // namespace pathsel

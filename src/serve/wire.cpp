#include "serve/wire.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace hpf90d::serve {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
}

void put_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xff);
  out += static_cast<char>((v >> 8) & 0xff);
  out += static_cast<char>((v >> 16) & 0xff);
  out += static_cast<char>((v >> 24) & 0xff);
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint16_t>(static_cast<unsigned char>(p[1]) << 8);
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

/// poll() until fd is readable/writable; returns false on timeout.
bool wait_fd(int fd, short events, int timeout_ms) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw WireError(std::string("poll failed: ") + std::strerror(errno));
  }
}

/// Reads exactly `n` bytes into `out` (appending). `allow_eof_at_start`
/// lets a clean close before the first byte report Eof instead of
/// throwing. Timeout mid-read is an error — framing would desynchronize.
ReadStatus read_exact(int fd, std::string& out, std::size_t n, int timeout_ms,
                      bool allow_eof_at_start) {
  std::size_t got = 0;
  char buf[4096];
  while (got < n) {
    if (!wait_fd(fd, POLLIN, got == 0 ? timeout_ms : -1)) {
      if (got == 0) return ReadStatus::Timeout;
      throw WireError("timed out mid-frame");
    }
    const std::size_t want = std::min(n - got, sizeof buf);
    const ssize_t rc = ::recv(fd, buf, want, 0);
    if (rc > 0) {
      out.append(buf, static_cast<std::size_t>(rc));
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (got == 0 && allow_eof_at_start) return ReadStatus::Eof;
      throw WireError("peer closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw WireError(std::string("recv failed: ") + std::strerror(errno));
  }
  return ReadStatus::Ok;
}

/// Validates a complete 12-byte header; returns the payload length.
std::uint32_t parse_header(const char* h, MsgType& type) {
  if (std::memcmp(h, kMagic, sizeof kMagic) != 0) {
    throw WireError("bad frame magic");
  }
  const std::uint16_t version = get_u16(h + 4);
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  type = static_cast<MsgType>(get_u16(h + 6));
  const std::uint32_t len = get_u32(h + 8);
  if (len > kMaxPayload) {
    throw WireError("oversized frame payload: " + std::to_string(len) + " bytes");
  }
  return len;
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayload) {
    throw WireError("refusing to encode oversized payload: " +
                    std::to_string(frame.payload.size()) + " bytes");
  }
  std::string out;
  out.reserve(kHeaderSize + frame.payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(frame.type));
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

void write_frame(int fd, const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    (void)wait_fd(fd, POLLOUT, -1);
    const ssize_t rc =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (rc >= 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    throw WireError(std::string("send failed: ") + std::strerror(errno));
  }
}

ReadStatus try_read_frame(int fd, Frame& out, int timeout_ms) {
  std::string header;
  header.reserve(kHeaderSize);
  const ReadStatus st = read_exact(fd, header, kHeaderSize, timeout_ms,
                                   /*allow_eof_at_start=*/true);
  if (st != ReadStatus::Ok) return st;
  out.payload.clear();
  const std::uint32_t len = parse_header(header.data(), out.type);
  if (len > 0) {
    out.payload.reserve(len);
    // the header arrived, so the payload is owed: block until it is here
    (void)read_exact(fd, out.payload, len, -1, /*allow_eof_at_start=*/false);
  }
  return ReadStatus::Ok;
}

Frame read_frame(int fd, int timeout_ms) {
  Frame frame;
  switch (try_read_frame(fd, frame, timeout_ms)) {
    case ReadStatus::Ok: return frame;
    case ReadStatus::Eof: throw WireError("peer closed the connection");
    case ReadStatus::Timeout: throw WireError("timed out waiting for a frame");
  }
  throw WireError("unreachable");
}

}  // namespace hpf90d::serve

// socket.hpp — thin RAII + loopback-TCP helpers under the serving layer.
//
// Everything the reactor needs from the kernel surface in one place: an
// owning fd wrapper, nonblocking loopback listeners/connections, and
// errno-tolerant read/write wrappers. TCP on 127.0.0.1 only — the serving
// layer measures the maps under a real socket path (syscalls, kernel
// buffers, EPOLLOUT flow control), not a networking stack's feature grid.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

namespace cachetrie::net {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() noexcept = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

inline bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Disables Nagle so a request/reply ping-pong is not serialized on delayed
/// ACKs; loopback ignores it mostly, but the knob documents intent.
inline void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Shrinks kernel buffers — the backpressure tests use this to make "slow
/// client" reproducible without megabytes of traffic (the kernel rounds the
/// value up to its floor, typically a few KiB).
inline void set_buffer_sizes(int fd, int snd_bytes, int rcv_bytes) noexcept {
  if (snd_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &snd_bytes, sizeof(snd_bytes));
  }
  if (rcv_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv_bytes, sizeof(rcv_bytes));
  }
}

/// Nonblocking listener on 127.0.0.1:`port` (0 = kernel-assigned). On
/// success `*bound_port` holds the actual port. Invalid Fd on failure.
inline Fd listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                          int backlog = 128) noexcept {
  Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) return Fd{};
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Fd{};
  }
  if (::listen(fd.get(), backlog) != 0) return Fd{};
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&got), &len) != 0) {
    return Fd{};
  }
  if (bound_port != nullptr) *bound_port = ntohs(got.sin_port);
  return fd;
}

/// Blocking connect to 127.0.0.1:`port`. The caller decides whether to flip
/// the socket nonblocking afterwards (the client does: its I/O thread polls
/// both directions, and its in-flight window, not the kernel send buffer,
/// bounds what it queues). Buffer sizes must be applied before connect to
/// take effect on the window, hence the parameters here (0 = kernel
/// default).
inline Fd connect_loopback(std::uint16_t port, int snd_bytes = 0,
                           int rcv_bytes = 0) noexcept {
  Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) return Fd{};
  set_buffer_sizes(fd.get(), snd_bytes, rcv_bytes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Fd{};
  }
  set_nodelay(fd.get());
  return fd;
}

/// read() that retries EINTR. Returns >0 bytes, 0 on orderly EOF, -1 with
/// errno EAGAIN/EWOULDBLOCK when drained, -2 on a hard error.
inline long read_some(int fd, void* buf, std::size_t cap) noexcept {
  while (true) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) return static_cast<long>(n);
    if (n == 0) return 0;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

/// send(MSG_NOSIGNAL) that retries EINTR — a reply racing a client death
/// must surface as EPIPE (-2), not a process-killing SIGPIPE. Returns bytes
/// written (possibly short), -1 when the kernel buffer is full, -2 on a
/// hard error.
inline long write_some(int fd, const void* buf, std::size_t len) noexcept {
  while (true) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return -2;
  }
}

/// Writes the whole buffer on a blocking socket; false on any hard error.
inline bool write_all(int fd, const void* buf, std::size_t len) noexcept {
  const unsigned char* p = static_cast<const unsigned char*>(buf);
  while (len > 0) {
    const long n = write_some(fd, p, len);
    if (n == -2 || n == 0) return false;
    if (n < 0) continue;  // blocking socket: EAGAIN only under SO_SNDTIMEO
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace cachetrie::net

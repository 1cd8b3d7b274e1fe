// The thin syscall seam under UdpBackend.
//
// UdpBackend's transmit logic (batch chunking, partial-return handling,
// requeue-vs-drop classification) is where the bugs live, so it is
// tested against a mocked SocketApi that can return partial sendmmsg
// counts, EAGAIN storms, and hard errors deterministically.  Production
// uses RealSocketApi, a 1:1 pass-through to the libc calls.
//
// All functions return the raw syscall convention (fd or -1, count or
// -1) with errno left for the caller -- the mock sets errno the same way.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>
#include <string>

namespace midrr::io {

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  /// socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0)
  virtual int open_udp() = 0;

  /// bind() to a local source address (optional; -1 on failure).
  virtual int bind_source(int fd, const sockaddr* addr, socklen_t len) = 0;

  /// setsockopt(SOL_SOCKET, SO_BINDTODEVICE, ...) (optional; needs
  /// CAP_NET_RAW in practice -- callers treat failure as non-fatal).
  virtual int bind_to_device(int fd, const std::string& device) = 0;

  /// setsockopt(SOL_UDP, UDP_SEGMENT, 0): 0 iff the kernel knows UDP
  /// GSO.  A kernel without it (< 4.18) ignores the per-message cmsg and
  /// would send a whole run as one datagram, so a failed probe keeps the
  /// socket on one datagram per message.
  virtual int probe_udp_segment(int fd) = 0;

  /// sendmmsg(fd, msgs, count, 0): number of messages sent, or -1.
  virtual int send_many(int fd, mmsghdr* msgs, unsigned int count) = 0;

  virtual int close_fd(int fd) = 0;
};

/// Pass-through to the real syscalls.
class RealSocketApi final : public SocketApi {
 public:
  int open_udp() override;
  int bind_source(int fd, const sockaddr* addr, socklen_t len) override;
  int bind_to_device(int fd, const std::string& device) override;
  int probe_udp_segment(int fd) override;
  int send_many(int fd, mmsghdr* msgs, unsigned int count) override;
  int close_fd(int fd) override;
};

}  // namespace midrr::io

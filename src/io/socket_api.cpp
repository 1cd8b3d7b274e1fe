#include "io/socket_api.hpp"

#include <netinet/udp.h>
#include <unistd.h>

#include <cstring>

namespace midrr::io {

int RealSocketApi::open_udp() {
  return ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

int RealSocketApi::bind_source(int fd, const sockaddr* addr, socklen_t len) {
  return ::bind(fd, addr, len);
}

int RealSocketApi::bind_to_device(int fd, const std::string& device) {
#ifdef SO_BINDTODEVICE
  return ::setsockopt(fd, SOL_SOCKET, SO_BINDTODEVICE, device.c_str(),
                      static_cast<socklen_t>(device.size()));
#else
  (void)fd;
  (void)device;
  errno = ENOTSUP;
  return -1;
#endif
}

int RealSocketApi::probe_udp_segment(int fd) {
  const int off = 0;
  return ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &off, sizeof(off));
}

int RealSocketApi::send_many(int fd, mmsghdr* msgs, unsigned int count) {
  return ::sendmmsg(fd, msgs, count, 0);
}

int RealSocketApi::close_fd(int fd) { return ::close(fd); }

}  // namespace midrr::io

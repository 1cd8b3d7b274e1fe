// Egress I/O subsystem, deterministically: WireHeader codec edges,
// SimBackend's zero-overhead contract, and UdpBackend's transmit logic
// against a scripted SocketApi -- partial sendmmsg returns mid-burst,
// EAGAIN storms (everything requeued, nothing lost), hard errors
// (counted, remainder dropped terminally), oversize rejection (counted
// apart from socket errors), batch chunking, sequence-number rewind on
// requeue, and UDP GSO runs (run shape and caps, run-level partial
// returns, the EIO/EINVAL fallback, a failed capability probe) against a
// mock that splits GSO messages the way the kernel does.  The
// runtime-level tests then close the loop: the requeue
// stash preserves exactly-once dequeue accounting end to end, and a UDP
// run over an always-accepting mock produces the same per-flow delivery
// totals as the sim backend on the same offered load.
#include <gtest/gtest.h>

#include <netinet/udp.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "io/sim_backend.hpp"
#include "io/socket_api.hpp"
#include "io/udp_backend.hpp"
#include "io/uring_backend.hpp"
#include "io/wire.hpp"
#include "net/packet.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/promlint.hpp"

namespace midrr::io {
namespace {

/// Polls `done` until it returns true or `seconds` elapse.
bool wait_for(double seconds, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- WireHeader ------------------------------------------------------------

TEST(WireHeader, RoundTripsThroughEncodeDecode) {
  WireHeader header;
  header.payload_bytes = 1234;
  header.flow = 42;
  header.seq = 0x0102030405060708ull;
  header.size_bytes = 9000;

  std::vector<net::Byte> buf(WireHeader::kSize);
  net::BufWriter writer(buf);
  header.encode(writer);

  const auto parsed = WireHeader::decode(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_bytes, header.payload_bytes);
  EXPECT_EQ(parsed->flow, header.flow);
  EXPECT_EQ(parsed->seq, header.seq);
  EXPECT_EQ(parsed->size_bytes, header.size_bytes);
}

TEST(WireHeader, DecodeRejectsShortBadMagicAndBadVersion) {
  WireHeader header;
  std::vector<net::Byte> buf(WireHeader::kSize);
  net::BufWriter writer(buf);
  header.encode(writer);

  EXPECT_FALSE(WireHeader::decode(
                   std::span<const net::Byte>(buf.data(), buf.size() - 1))
                   .has_value())
      << "short buffer";

  std::vector<net::Byte> bad_magic = buf;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(WireHeader::decode(bad_magic).has_value());

  std::vector<net::Byte> bad_version = buf;
  bad_version[4] = WireHeader::kVersion + 1;
  EXPECT_FALSE(WireHeader::decode(bad_version).has_value());
}

TEST(WireHeader, TxTimestampTrailerRoundTrips) {
  WireHeader header;
  header.flags = WireHeader::kFlagTxTimestamp;
  header.flow = 7;
  header.seq = 9;
  header.size_bytes = 1500;
  header.tx_timestamp_ns = 0x1122334455667788ull;
  ASSERT_TRUE(header.has_tx_timestamp());
  EXPECT_EQ(header.wire_size(), WireHeader::kSize + WireHeader::kTimestampSize);

  std::vector<net::Byte> buf(header.wire_size());
  net::BufWriter writer(buf);
  header.encode(writer);

  const auto parsed = WireHeader::decode(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->has_tx_timestamp());
  EXPECT_EQ(parsed->tx_timestamp_ns, header.tx_timestamp_ns);
  EXPECT_EQ(parsed->flow, 7u);

  // A flagged header whose buffer is too short for the trailer must be
  // rejected whole, not parsed with a garbage timestamp.
  EXPECT_FALSE(WireHeader::decode(
                   std::span<const net::Byte>(buf.data(), buf.size() - 1))
                   .has_value());
  EXPECT_FALSE(WireHeader::decode(
                   std::span<const net::Byte>(buf.data(), WireHeader::kSize))
                   .has_value());

  // An untraced header is byte-identical to the pre-trailer format: the
  // flag byte is zero and decode never looks past kSize.
  WireHeader untraced;
  untraced.flow = 7;
  std::vector<net::Byte> plain(WireHeader::kSize);
  net::BufWriter plain_writer(plain);
  untraced.encode(plain_writer);
  const auto plain_parsed = WireHeader::decode(plain);
  ASSERT_TRUE(plain_parsed.has_value());
  EXPECT_FALSE(plain_parsed->has_tx_timestamp());
  EXPECT_EQ(plain_parsed->tx_timestamp_ns, 0u);
}

// --- SimBackend -------------------------------------------------------------

TEST(SimBackend, AccountsWholeBurstWithoutTouchingDispositions) {
  SimBackend backend;
  backend.attach({"if0", "if1"});
  std::vector<Packet> burst = {Packet(1, 1000), Packet(2, 500)};
  std::vector<SendDisposition> dispositions;  // stays empty: clean result
  const EgressResult result =
      backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.sent, 2u);
  EXPECT_EQ(result.sent_bytes, 1500u);
  EXPECT_EQ(result.requeued, 0u);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_TRUE(dispositions.empty())
      << "clean path must not pay for per-packet dispositions";
  EXPECT_EQ(backend.syscalls(), 0u);
  EXPECT_EQ(backend.send_errors(0), 0u);
}

// --- The scripted socket layer ----------------------------------------------

/// One datagram as the "kernel" saw it: reassembled iovecs, parsed header.
struct CapturedDatagram {
  int fd = -1;
  std::size_t wire_bytes = 0;
  WireHeader header;
};

/// The UDP_SEGMENT size a message carries, or 0 for a plain message.
std::size_t gso_size_of(const msghdr& hdr) {
  for (const cmsghdr* cmsg = CMSG_FIRSTHDR(&hdr); cmsg != nullptr;
       cmsg = CMSG_NXTHDR(const_cast<msghdr*>(&hdr),
                          const_cast<cmsghdr*>(cmsg))) {
    if (cmsg->cmsg_level == SOL_UDP && cmsg->cmsg_type == UDP_SEGMENT) {
      std::uint16_t size = 0;
      std::memcpy(&size, CMSG_DATA(cmsg), sizeof(size));
      return size;
    }
  }
  return 0;
}

/// SocketApi whose send_many consumes a scripted plan and acts like the
/// kernel's UDP GSO.  An empty plan accepts everything; a step either
/// accepts the first `accept` messages of the call or fails with `err`.
/// Each message is taken or refused whole; a message with a UDP_SEGMENT
/// cmsg is split into its datagrams, and one with more than 64 segments,
/// more than 65507 bytes, or a short segment that is not the last is
/// refused with EINVAL.  Captures every accepted datagram.
class MockSocketApi final : public SocketApi {
 public:
  struct Step {
    int accept = -1;  ///< -1 = fail with `err`; >= 0 = take min(accept, n)
    int err = 0;
  };

  std::deque<Step> plan;       // guarded by mu_ (worker threads send)
  int forced_errno = 0;        ///< != 0: every call fails with this errno
  int open_result = 100;       ///< next fd; < 0 simulates socket() failure
  bool gso_supported = true;   ///< probe_udp_segment succeeds

  int open_udp() override {
    std::lock_guard<std::mutex> lock(mu_);
    ++opened_;
    return open_result < 0 ? -1 : open_result++;
  }
  int bind_source(int, const sockaddr*, socklen_t) override { return 0; }
  int bind_to_device(int, const std::string& device) override {
    std::lock_guard<std::mutex> lock(mu_);
    devices_.push_back(device);
    return device == "denied0" ? -1 : 0;
  }
  int probe_udp_segment(int) override {
    if (gso_supported) return 0;
    errno = ENOPROTOOPT;
    return -1;
  }
  int close_fd(int) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++closed_;
    return 0;
  }

  int send_many(int fd, mmsghdr* msgs, unsigned int count) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    std::size_t offered = 0;
    for (unsigned int m = 0; m < count; ++m) {
      const std::size_t gso = gso_size_of(msgs[m].msg_hdr);
      if (gso != 0) ++gso_messages_;
      offered += gso == 0 ? 1 : (bytes_of(msgs[m]) + gso - 1) / gso;
    }
    call_datagrams_.push_back(offered);
    if (forced_errno != 0) {
      errno = forced_errno;
      return -1;
    }
    Step step{static_cast<int>(count), 0};
    if (!plan.empty()) {
      step = plan.front();
      plan.pop_front();
    }
    if (step.accept < 0) {
      errno = step.err;
      return -1;
    }
    const unsigned int take =
        std::min(count, static_cast<unsigned int>(step.accept));
    for (unsigned int m = 0; m < take; ++m) {
      std::vector<CapturedDatagram> dgrams;
      if (!split(fd, msgs[m], dgrams)) {
        // The kernel stops at the first message it refuses.
        ++refused_;
        if (m == 0) {
          errno = EINVAL;
          return -1;
        }
        return static_cast<int>(m);
      }
      message_segments_.push_back(dgrams.size());
      captured_.insert(captured_.end(), dgrams.begin(), dgrams.end());
    }
    return static_cast<int>(take);
  }

  // Accessors lock so worker-thread writes are safely visible.
  std::vector<CapturedDatagram> captured() const {
    std::lock_guard<std::mutex> lock(mu_);
    return captured_;
  }
  /// Datagrams per accepted message, in send order.
  std::vector<std::size_t> message_segments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return message_segments_;
  }
  /// Datagrams offered per send_many call, accepted or not.
  std::vector<std::size_t> call_datagrams() const {
    std::lock_guard<std::mutex> lock(mu_);
    return call_datagrams_;
  }
  /// Messages offered with a UDP_SEGMENT cmsg, accepted or not.
  std::size_t gso_messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gso_messages_;
  }
  /// Messages refused by the kernel-rule check (not by the plan).
  std::size_t refused() const {
    std::lock_guard<std::mutex> lock(mu_);
    return refused_;
  }
  std::size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  int opened() const {
    std::lock_guard<std::mutex> lock(mu_);
    return opened_;
  }
  int closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  std::vector<std::string> devices() const {
    std::lock_guard<std::mutex> lock(mu_);
    return devices_;
  }
  void set_forced_errno(int err) {
    std::lock_guard<std::mutex> lock(mu_);
    forced_errno = err;
  }

 private:
  static std::size_t bytes_of(const mmsghdr& msg) {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < msg.msg_hdr.msg_iovlen; ++k) {
      bytes += msg.msg_hdr.msg_iov[k].iov_len;
    }
    return bytes;
  }

  /// The datagrams the kernel would put on the wire for `msg`; false if
  /// it would refuse the message.  Datagram boundaries are found from
  /// each header's own length, so a misplaced short segment shows.
  static bool split(int fd, const mmsghdr& msg,
                    std::vector<CapturedDatagram>& out) {
    std::vector<net::Byte> data;
    for (std::size_t k = 0; k < msg.msg_hdr.msg_iovlen; ++k) {
      const auto* base =
          static_cast<const net::Byte*>(msg.msg_hdr.msg_iov[k].iov_base);
      data.insert(data.end(), base, base + msg.msg_hdr.msg_iov[k].iov_len);
    }
    const std::size_t gso = gso_size_of(msg.msg_hdr);
    if (gso != 0 && (data.size() > UdpBackend::kMaxDatagramBytes ||
                     data.size() > UdpBackend::kMaxSegments * gso)) {
      return false;
    }
    std::size_t offset = 0;
    do {
      const auto header = WireHeader::decode(
          std::span<const net::Byte>(data).subspan(offset));
      if (!header.has_value()) {
        ADD_FAILURE() << "backend emitted an unparsable header";
        return false;
      }
      const std::size_t len = header->wire_size() + header->payload_bytes;
      const bool last = offset + len >= data.size();
      if (gso == 0 ? offset + len != data.size()
                   : len > gso || (len < gso && !last)) {
        if (gso == 0) ADD_FAILURE() << "datagram length != its header's";
        return false;
      }
      CapturedDatagram dgram;
      dgram.fd = fd;
      dgram.wire_bytes = len;
      dgram.header = *header;
      out.push_back(dgram);
      offset += len;
    } while (offset < data.size());
    return offset == data.size();
  }

  mutable std::mutex mu_;
  std::vector<CapturedDatagram> captured_;
  std::vector<std::size_t> message_segments_;
  std::vector<std::size_t> call_datagrams_;
  std::size_t gso_messages_ = 0;
  std::size_t refused_ = 0;
  std::size_t calls_ = 0;
  int opened_ = 0;
  int closed_ = 0;
  std::vector<std::string> devices_;
};

UdpBackendOptions mock_options(MockSocketApi& api, std::size_t max_batch = 64) {
  UdpBackendOptions options;
  options.base_port = 20000;
  options.max_batch = max_batch;
  options.api = &api;
  return options;
}

std::shared_ptr<const net::Frame> frame_of(std::size_t bytes) {
  return std::make_shared<const net::Frame>(net::ByteBuffer(bytes, 0xAB));
}

// --- UdpBackend: attach -----------------------------------------------------

TEST(UdpBackend, AttachResolvesExplicitAndFallbackDestinations) {
  MockSocketApi api;
  UdpBackendOptions options = mock_options(api);
  UdpDestination dest;
  dest.host = "127.0.0.2";
  dest.port = 7777;
  options.dest_by_name["if1"] = dest;
  UdpBackend backend(options);
  backend.attach({"if0", "if1"});
  EXPECT_EQ(backend.dest_port(0), 20000u) << "base_port + global index";
  EXPECT_EQ(backend.dest_port(1), 7777u) << "explicit mapping wins";
  EXPECT_EQ(api.opened(), 2);
}

TEST(UdpBackend, AttachRejectsUnmappedInterfaceWithoutFallback) {
  MockSocketApi api;
  UdpBackendOptions options = mock_options(api);
  options.base_port = 0;
  UdpDestination dest;
  dest.host = "127.0.0.1";
  dest.port = 7000;
  options.dest_by_name["if0"] = dest;
  UdpBackend backend(options);
  EXPECT_THROW(backend.attach({"if0", "if1"}), std::runtime_error);
}

TEST(UdpBackend, AttachRejectsBadAddressAndFailedSocket) {
  {
    MockSocketApi api;
    UdpBackendOptions options = mock_options(api);
    options.default_host = "not-an-address";
    UdpBackend backend(options);
    EXPECT_THROW(backend.attach({"if0"}), std::runtime_error);
  }
  {
    MockSocketApi api;
    api.open_result = -1;
    UdpBackend backend(mock_options(api));
    EXPECT_THROW(backend.attach({"if0"}), std::runtime_error);
  }
}

TEST(UdpBackend, BindToDeviceFailureIsNonFatal) {
  MockSocketApi api;
  UdpBackendOptions options = mock_options(api);
  UdpDestination dest;
  dest.host = "127.0.0.1";
  dest.port = 7000;
  dest.device = "denied0";
  options.dest_by_name["if0"] = dest;
  UdpBackend backend(options);
  backend.attach({"if0"});  // must not throw: needs CAP_NET_RAW in prod
  ASSERT_EQ(api.devices().size(), 1u);
  EXPECT_EQ(api.devices()[0], "denied0");
}

// --- UdpBackend: serialization and happy path -------------------------------

TEST(UdpBackend, StampsHeadersWithPerFlowSequencesAndCappedPayload) {
  MockSocketApi api;
  UdpBackendOptions options = mock_options(api);
  options.max_payload_bytes = 100;
  UdpBackend backend(options);
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(3, 1000), Packet(5, 700),
                               Packet(3, 1000)};
  burst[0].frame = frame_of(250);  // truncated to 100
  burst[1].frame = frame_of(40);   // fits whole
  // burst[2] frameless: header-only datagram

  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.sent, 3u);
  EXPECT_EQ(result.sent_bytes, 2700u) << "scheduler bytes, not wire bytes";

  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].header.flow, 3u);
  EXPECT_EQ(captured[0].header.seq, 0u);
  EXPECT_EQ(captured[0].header.size_bytes, 1000u);
  EXPECT_EQ(captured[0].header.payload_bytes, 100u);
  EXPECT_EQ(captured[0].wire_bytes, WireHeader::kSize + 100u);
  EXPECT_EQ(captured[1].header.flow, 5u);
  EXPECT_EQ(captured[1].header.seq, 0u);
  EXPECT_EQ(captured[1].header.payload_bytes, 40u);
  EXPECT_EQ(captured[2].header.flow, 3u);
  EXPECT_EQ(captured[2].header.seq, 1u) << "per-flow sequence advances";
  EXPECT_EQ(captured[2].header.payload_bytes, 0u);
  EXPECT_EQ(captured[2].wire_bytes, WireHeader::kSize);
  EXPECT_EQ(backend.sent_datagrams(0), 3u);
  EXPECT_EQ(backend.sent_wire_bytes(0),
            3 * WireHeader::kSize + 100u + 40u);
}

TEST(UdpBackend, StageTracedPacketsCarryTxTimestampTrailer) {
  MockSocketApi api;
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(1, 500), Packet(2, 500)};
  burst[0].trace = 0x42;  // stage-traced: gets the 8-byte trailer
  burst[0].frame = frame_of(20);
  burst[1].frame = frame_of(20);  // untraced: zero extra bytes

  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(result.sent, 2u);

  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_TRUE(captured[0].header.has_tx_timestamp());
  EXPECT_GT(captured[0].header.tx_timestamp_ns, 0u)
      << "traced datagrams stamp CLOCK_MONOTONIC at egress";
  EXPECT_EQ(captured[0].wire_bytes,
            WireHeader::kSize + WireHeader::kTimestampSize + 20u);
  EXPECT_FALSE(captured[1].header.has_tx_timestamp());
  EXPECT_EQ(captured[1].wire_bytes, WireHeader::kSize + 20u)
      << "untraced packets pay zero extra bytes";
}

TEST(UdpBackend, ChunksLargeBurstsToMaxBatch) {
  MockSocketApi api;
  UdpBackend backend(mock_options(api, /*max_batch=*/4));
  backend.attach({"if0"});
  std::vector<Packet> burst;
  for (std::uint32_t i = 0; i < 10; ++i) burst.emplace_back(1, 100);
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.sent, 10u);
  EXPECT_EQ(api.calls(), 3u) << "4 + 4 + 2";
  EXPECT_EQ(backend.syscalls(), 3u);
}

// --- UdpBackend: pushback and error classification --------------------------

TEST(UdpBackend, PartialReturnRequeuesSuffixAndRewindsSequences) {
  MockSocketApi api;
  api.plan.push_back({.accept = 2});  // kernel takes 2 of 5, then stops
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});

  // Increasing frame sizes keep each datagram its own message, so the
  // partial return splits the burst at a datagram.
  std::vector<Packet> burst;
  for (std::uint32_t i = 0; i < 5; ++i) {
    burst.emplace_back(7, 100);
    burst.back().frame = frame_of(10 + i);
  }
  std::vector<SendDisposition> dispositions;
  const EgressResult first = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(first.clean);
  EXPECT_EQ(first.sent, 2u);
  EXPECT_EQ(first.requeued, 3u);
  EXPECT_EQ(first.dropped, 0u);
  ASSERT_EQ(dispositions.size(), 5u);
  EXPECT_EQ(dispositions[0], SendDisposition::kSent);
  EXPECT_EQ(dispositions[1], SendDisposition::kSent);
  EXPECT_EQ(dispositions[2], SendDisposition::kRequeued);
  EXPECT_EQ(dispositions[4], SendDisposition::kRequeued);
  EXPECT_EQ(backend.requeue_events(0), 1u);
  EXPECT_EQ(backend.send_errors(0), 0u) << "pushback is not an error";

  // The runtime retries the requeued suffix as the next burst; the wire
  // must carry a continuous per-flow sequence with no gap and no reuse.
  std::vector<Packet> retry(burst.begin() + 2, burst.end());
  const EgressResult second = backend.send_burst(0, retry, 0, dispositions);
  EXPECT_TRUE(second.clean);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 5u);
  for (std::uint64_t m = 0; m < 5; ++m) {
    EXPECT_EQ(captured[m].header.seq, m) << "datagram " << m;
  }
}

TEST(UdpBackend, EagainStormRequeuesEverythingWithoutLoss) {
  MockSocketApi api;
  api.plan.push_back({.accept = -1, .err = EAGAIN});
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});
  std::vector<Packet> burst = {Packet(1, 100), Packet(1, 100),
                               Packet(2, 100)};
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.sent, 0u);
  EXPECT_EQ(result.requeued, 3u);
  EXPECT_EQ(result.requeued_bytes, 300u);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_EQ(backend.send_errors(0), 0u);
  EXPECT_EQ(backend.syscalls(), 1u);

  // Retry sends the same sequence numbers (rewound, not reconsumed).
  const EgressResult retry = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(retry.clean);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].header.seq, 0u);
  EXPECT_EQ(captured[1].header.seq, 1u);
  EXPECT_EQ(captured[2].header.seq, 0u) << "flow 2's first datagram";
}

TEST(UdpBackend, RepeatedEnobufsBurstsKeepSequencesGapFree) {
  MockSocketApi api;
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});

  // Three consecutive pushback bursts, each making partial progress
  // before the NIC queue fills again: accept 2, choke, accept 1, choke,
  // choke again with zero progress, then drain.  Every choke rewinds the
  // unsent suffix's sequences; a single off-by-one in any rewind leaves a
  // permanent receiver-visible gap or duplicate.
  api.plan.push_back({.accept = 2});
  api.plan.push_back({.accept = -1, .err = ENOBUFS});
  api.plan.push_back({.accept = 1});
  api.plan.push_back({.accept = -1, .err = ENOBUFS});
  api.plan.push_back({.accept = -1, .err = ENOBUFS});

  // Increasing frame sizes keep each datagram its own message, so every
  // accept count above is a datagram count.
  std::vector<Packet> pending;
  for (std::uint32_t i = 0; i < 8; ++i) {
    pending.emplace_back(i % 2 == 0 ? 1 : 2, 100);
    pending.back().frame = frame_of(10 + i);
  }
  std::vector<SendDisposition> dispositions;
  std::uint64_t drops = 0;
  for (int round = 0; round < 8 && !pending.empty(); ++round) {
    const EgressResult r = backend.send_burst(0, pending, 0, dispositions);
    drops += r.dropped;
    // The stash contract: the requeued suffix is retried verbatim as the
    // FRONT of the next burst (nothing new is dequeued past it).
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(
                                        pending.size() - r.requeued));
  }
  ASSERT_TRUE(pending.empty());
  EXPECT_EQ(drops, 0u) << "ENOBUFS is pushback, never loss";
  EXPECT_EQ(backend.send_errors(0), 0u);

  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 8u);
  std::uint64_t next_seq[3] = {0, 0, 0};
  for (const CapturedDatagram& dgram : captured) {
    ASSERT_LT(dgram.header.flow, 3u);
    EXPECT_EQ(dgram.header.seq, next_seq[dgram.header.flow]++)
        << "flow " << dgram.header.flow
        << " skipped or repeated a sequence across the choke/rewind cycles";
  }
  EXPECT_EQ(next_seq[1], 4u);
  EXPECT_EQ(next_seq[2], 4u);
}

TEST(UdpBackend, ZeroReturnIsDefensivelyRequeuedNotSpun) {
  MockSocketApi api;
  api.plan.push_back({.accept = 0});
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});
  std::vector<Packet> burst = {Packet(1, 100)};
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(result.requeued, 1u);
  EXPECT_EQ(api.calls(), 1u) << "one call, then hand control back";
}

TEST(UdpBackend, HardErrorCountsAndDropsRemainderTerminally) {
  MockSocketApi api;
  api.plan.push_back({.accept = 1});
  api.plan.push_back({.accept = -1, .err = EPERM});
  UdpBackend backend(mock_options(api, /*max_batch=*/1));
  backend.attach({"if0"});
  std::vector<Packet> burst = {Packet(9, 100), Packet(9, 100),
                               Packet(9, 100)};
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.sent, 1u);
  EXPECT_EQ(result.dropped, 2u);
  EXPECT_EQ(result.requeued, 0u);
  EXPECT_EQ(backend.send_errors(0), 1u);
  EXPECT_EQ(dispositions[1], SendDisposition::kDropped);
  EXPECT_EQ(dispositions[2], SendDisposition::kDropped);

  // Terminal drops keep their consumed sequence numbers: the next packet
  // of flow 9 is seq 3, and the receiver-side gap (1, 2) IS the loss.
  std::vector<Packet> next = {Packet(9, 100)};
  const EgressResult after = backend.send_burst(0, next, 0, dispositions);
  EXPECT_TRUE(after.clean);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].header.seq, 0u);
  EXPECT_EQ(captured[1].header.seq, 3u);
}

TEST(UdpBackend, OversizeDatagramIsDroppedUpfrontAndCountedDistinctly) {
  MockSocketApi api;
  UdpBackendOptions options = mock_options(api);
  options.max_payload_bytes = 70000;  // cap above the datagram limit
  UdpBackend backend(options);
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(1, 100), Packet(2, 66000),
                               Packet(1, 100)};
  burst[1].frame = frame_of(66000);  // header + payload > 65507
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.sent, 2u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(result.dropped_bytes, 66000u);
  EXPECT_EQ(dispositions[1], SendDisposition::kDropped);
  EXPECT_EQ(backend.oversize_drops(0), 1u);
  EXPECT_EQ(backend.send_errors(0), 0u)
      << "oversize is a config problem, not a socket error";
  EXPECT_EQ(api.captured().size(), 2u) << "never offered to the kernel";
}

// --- UdpBackend: UDP GSO runs ------------------------------------------------

/// `count` packets of flow `flow`, each carrying a `frame_bytes` frame.
std::vector<Packet> equal_packets(std::size_t count, FlowId flow,
                                  std::size_t frame_bytes) {
  std::vector<Packet> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(flow, 100);
    out.back().frame = frame_of(frame_bytes);
  }
  return out;
}

TEST(UdpBackend, CoalescesEqualSizeRunsIntoGsoMessages) {
  MockSocketApi api;
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});
  ASSERT_TRUE(backend.gso_enabled(0));

  // Frames: 3 x 64 B and a 40 B one, whose shorter datagram ends that
  // run; then 7 x 64 B where the third is traced: its 8-byte trailer
  // breaks the run, it starts a longer one, and the next untraced
  // datagram joins that as its shorter last; then a lone 200 B frame.
  std::vector<Packet> burst = equal_packets(3, 1, 64);
  burst.emplace_back(1, 100);
  burst.back().frame = frame_of(40);
  for (const Packet& p : equal_packets(7, 2, 64)) burst.push_back(p);
  burst[6].trace = 0x7;
  burst.emplace_back(1, 100);
  burst.back().frame = frame_of(200);

  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_TRUE(result.clean);
  EXPECT_EQ(result.sent, burst.size());
  EXPECT_EQ(api.calls(), 1u);
  EXPECT_EQ(api.refused(), 0u);
  EXPECT_EQ(api.message_segments(),
            (std::vector<std::size_t>{4, 2, 2, 3, 1}));
  EXPECT_EQ(api.gso_messages(), 4u) << "a run of one carries no cmsg";

  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), burst.size());
  std::uint64_t next_seq[3] = {0, 0, 0};
  std::uint64_t wire = 0;
  for (std::size_t d = 0; d < captured.size(); ++d) {
    EXPECT_EQ(captured[d].header.flow, burst[d].flow) << d;
    EXPECT_EQ(captured[d].header.seq, next_seq[burst[d].flow]++) << d;
    EXPECT_EQ(captured[d].header.has_tx_timestamp(), burst[d].trace != 0)
        << d;
    wire += captured[d].wire_bytes;
  }
  EXPECT_EQ(captured[3].wire_bytes, WireHeader::kSize + 40u);
  EXPECT_EQ(backend.sent_datagrams(0), burst.size());
  EXPECT_EQ(backend.sent_wire_bytes(0), wire);
}

TEST(UdpBackend, RunCapsSegmentsBytesAndMaxBatch) {
  {  // 64 segments per message, one call for all 130 datagrams
    MockSocketApi api;
    UdpBackend backend(mock_options(api, /*max_batch=*/256));
    backend.attach({"if0"});
    std::vector<SendDisposition> dispositions;
    EXPECT_TRUE(
        backend.send_burst(0, equal_packets(130, 1, 64), 0, dispositions)
            .clean);
    EXPECT_EQ(api.message_segments(),
              (std::vector<std::size_t>{64, 64, 2}));
    EXPECT_EQ(api.call_datagrams(), (std::vector<std::size_t>{130}));
    EXPECT_EQ(api.captured().size(), 130u);
  }
  {  // 65507 bytes per message: 46 x 1424 B fit, a 47th would not
    MockSocketApi api;
    UdpBackend backend(mock_options(api));
    backend.attach({"if0"});
    std::vector<SendDisposition> dispositions;
    EXPECT_TRUE(
        backend.send_burst(0, equal_packets(50, 1, 2000), 0, dispositions)
            .clean);
    ASSERT_EQ(api.message_segments(), (std::vector<std::size_t>{46, 4}));
    EXPECT_EQ(api.captured()[0].wire_bytes, WireHeader::kSize + 1400u);
    EXPECT_LE(46 * (WireHeader::kSize + 1400), UdpBackend::kMaxDatagramBytes);
    EXPECT_GT(47 * (WireHeader::kSize + 1400), UdpBackend::kMaxDatagramBytes);
  }
  {  // max_batch counts datagrams: runs close where a call fills up
    MockSocketApi api;
    UdpBackend backend(mock_options(api, /*max_batch=*/4));
    backend.attach({"if0"});
    std::vector<Packet> burst = equal_packets(3, 1, 64);
    for (const Packet& p : equal_packets(7, 1, 80)) burst.push_back(p);
    std::vector<SendDisposition> dispositions;
    EXPECT_TRUE(backend.send_burst(0, burst, 0, dispositions).clean);
    EXPECT_EQ(api.message_segments(),
              (std::vector<std::size_t>{3, 1, 4, 2}));
    EXPECT_EQ(api.call_datagrams(), (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(backend.syscalls(), 3u);
  }
  {  // max_batch = 1 still means one datagram per syscall
    MockSocketApi api;
    UdpBackend backend(mock_options(api, /*max_batch=*/1));
    backend.attach({"if0"});
    std::vector<SendDisposition> dispositions;
    EXPECT_TRUE(
        backend.send_burst(0, equal_packets(5, 1, 64), 0, dispositions)
            .clean);
    EXPECT_EQ(api.calls(), 5u);
    EXPECT_EQ(api.gso_messages(), 0u);
  }
}

TEST(UdpBackend, RunLevelPartialReturnRequeuesTheSecondRun) {
  MockSocketApi api;
  api.plan.push_back({.accept = 1});  // the kernel takes run 1 of 2
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});

  std::vector<Packet> burst = equal_packets(3, 4, 64);
  for (const Packet& p : equal_packets(4, 4, 128)) burst.push_back(p);
  std::vector<SendDisposition> dispositions;
  const EgressResult first = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(first.clean);
  EXPECT_EQ(first.sent, 3u);
  EXPECT_EQ(first.requeued, 4u);
  EXPECT_EQ(first.dropped, 0u);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(dispositions[i], i < 3 ? SendDisposition::kSent
                                     : SendDisposition::kRequeued)
        << i;
  }
  EXPECT_EQ(backend.sent_datagrams(0), 3u);
  EXPECT_EQ(backend.send_errors(0), 0u);

  std::vector<Packet> retry(burst.begin() + 3, burst.end());
  EXPECT_TRUE(backend.send_burst(0, retry, 0, dispositions).clean);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 7u);
  for (std::uint64_t d = 0; d < 7; ++d) {
    EXPECT_EQ(captured[d].header.seq, d) << "rewound and re-stamped";
  }
  EXPECT_EQ(api.message_segments(), (std::vector<std::size_t>{3, 4}));
}

TEST(UdpBackend, GsoSendFailureFallsBackPerDatagramWithoutLoss) {
  for (const int err : {EIO, EINVAL}) {
    MockSocketApi api;
    api.plan.push_back({.accept = -1, .err = err});
    UdpBackend backend(mock_options(api));
    backend.attach({"if0"});
    const std::vector<Packet> burst = equal_packets(6, 3, 64);
    std::vector<SendDisposition> dispositions;
    const EgressResult first = backend.send_burst(0, burst, 0, dispositions);
    EXPECT_EQ(first.requeued, 6u) << err;
    EXPECT_EQ(first.dropped, 0u) << err;
    EXPECT_EQ(backend.send_errors(0), 0u) << "a refused run is not an error";
    EXPECT_FALSE(backend.gso_enabled(0));

    EXPECT_TRUE(backend.send_burst(0, burst, 0, dispositions).clean);
    EXPECT_EQ(api.message_segments(), std::vector<std::size_t>(6, 1));
    EXPECT_EQ(api.gso_messages(), 1u) << "only the refused attempt";
    const auto captured = api.captured();
    ASSERT_EQ(captured.size(), 6u);
    for (std::uint64_t d = 0; d < 6; ++d) EXPECT_EQ(captured[d].header.seq, d);

    // Without GSO an EINVAL is about the datagram itself: a hard error.
    api.plan.push_back({.accept = -1, .err = EINVAL});
    const EgressResult hard = backend.send_burst(0, burst, 0, dispositions);
    EXPECT_EQ(hard.dropped, 6u);
    EXPECT_EQ(backend.send_errors(0), 1u);
  }
}

TEST(UdpBackend, FailedProbeNeverEmitsTheCmsg) {
  MockSocketApi api;
  api.gso_supported = false;
  UdpBackend backend(mock_options(api));
  backend.attach({"if0"});
  EXPECT_FALSE(backend.gso_enabled(0));
  telemetry::MetricsRegistry registry;
  backend.register_metrics(registry);

  std::vector<SendDisposition> dispositions;
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(
        backend.send_burst(0, equal_packets(20, 1, 64), 0, dispositions)
            .clean);
  }
  EXPECT_EQ(api.gso_messages(), 0u);
  EXPECT_EQ(api.message_segments(), std::vector<std::size_t>(60, 1));
  EXPECT_EQ(api.calls(), 3u) << "still one sendmmsg per burst";
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find(
                "midrr_io_gso_enabled{backend=\"udp\",iface=\"if0\"} 0"),
            std::string::npos);
  EXPECT_TRUE(telemetry::lint_prometheus(text).empty())
      << "the io exposition must pass midrr_lint";
}

TEST(UdpBackend, RegistersIoMetricsSeries) {
  MockSocketApi api;
  UdpBackend backend(mock_options(api));
  backend.attach({"if0", "if1"});
  telemetry::MetricsRegistry registry;
  backend.register_metrics(registry);
  std::vector<Packet> burst = {Packet(1, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("midrr_io_syscalls_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_send_errors_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_batch_size"), std::string::npos);
  EXPECT_NE(text.find("iface=\"if1\""), std::string::npos);
}

// --- io_uring stub gate -----------------------------------------------------

TEST(UringBackend, GateMatchesCompileTimeConfiguration) {
#if MIDRR_WITH_URING
  EXPECT_TRUE(uring_supported());
  const auto backend = make_uring_backend();
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->name(), "uring");
#else
  EXPECT_FALSE(uring_supported());
  EXPECT_THROW(make_uring_backend(), std::runtime_error);
#endif
}

// --- Runtime integration: the requeue stash end to end ----------------------

using rt::IngressPort;
using rt::Runtime;
using rt::RuntimeOptions;
using rt::RuntimeStats;
using rt::RtFlowSpec;

TEST(RuntimeEgress, EagainStormStashesAndDeliversEverything) {
  MockSocketApi api;
  // The first several transmit attempts are storm: everything comes back
  // EAGAIN and must land in the per-interface stash, charged to the pacer
  // exactly once, then drain on later passes with zero loss.
  for (int i = 0; i < 5; ++i) api.plan.push_back({.accept = -1,
                                                  .err = EAGAIN});
  UdpBackend backend(mock_options(api));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 100; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().sent == 100; }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.dequeued, 100u);
  EXPECT_EQ(stats.sent, 100u);
  EXPECT_EQ(stats.io_drops, 0u) << "a storm is pushback, never loss";
  EXPECT_EQ(stats.io_pending, 0u);
  EXPECT_GT(stats.io_requeued, 0u);
  EXPECT_EQ(stats.io_send_errors, 0u);
  EXPECT_EQ(api.captured().size(), 100u);
}

TEST(RuntimeEgress, RepeatedEnobufsBurstsDrainInOrderWithoutGaps) {
  MockSocketApi api;
  // Not one storm but several: the socket chokes, recovers a little,
  // chokes again -- so the runtime's per-interface stash is refilled
  // across multiple pushback cycles while fresh dequeues keep arriving
  // behind it.  The stash must always retry BEFORE new dequeues and the
  // rewound sequences must re-stamp identically, or the receiver ledger
  // shows gaps/duplicates that never happened on the wire.
  for (int burst = 0; burst < 6; ++burst) {
    api.plan.push_back({.accept = -1, .err = ENOBUFS});
    api.plan.push_back({.accept = 3});
    api.plan.push_back({.accept = -1, .err = ENOBUFS});
  }
  UdpBackend backend(mock_options(api));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 100; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().sent == 100; }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.sent, 100u);
  EXPECT_EQ(stats.io_drops, 0u) << "every choke cycle is pushback, not loss";
  EXPECT_EQ(stats.io_pending, 0u);
  EXPECT_EQ(stats.io_send_errors, 0u);
  EXPECT_GT(stats.io_requeued, 0u) << "the chokes actually happened";

  // Gap-free AND duplicate-free: the flow's captured sequence numbers
  // are exactly 0..99 in order, through every stash refill.
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 100u);
  for (std::uint64_t m = 0; m < captured.size(); ++m) {
    EXPECT_EQ(captured[m].header.seq, m) << "datagram " << m;
  }
}

TEST(RuntimeEgress, StopFlushDropsUndeliverableStashWithCount) {
  MockSocketApi api;
  api.set_forced_errno(EAGAIN);  // the socket never accepts anything
  UdpBackend backend(mock_options(api));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 10; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  // The first dequeued burst lands in the stash and sits there as paid
  // pacer debt; while the stash is non-empty the interface dequeues
  // nothing further (bounded at one burst, per-flow order preserved).
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().io_pending > 0; }));
  runtime.stop();  // final flush retries, then converts the stash to drops
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.sent, 0u);
  EXPECT_GT(stats.io_drops, 0u) << "counted, never silent";
  EXPECT_EQ(stats.io_pending, 0u) << "the stash must be empty after stop";
  EXPECT_EQ(stats.dequeued, stats.sent + stats.io_drops)
      << "egress split of the conservation identity";
}

TEST(RuntimeEgress, SendErrorsSurfaceInStatsAndPerIfaceAccessor) {
  MockSocketApi api;
  api.set_forced_errno(EPERM);  // hard failure: count and drop
  UdpBackend backend(mock_options(api));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 10; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.dequeued == 10 && s.io_drops == 10;
  }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.sent, 0u);
  EXPECT_GT(stats.io_send_errors, 0u);
  EXPECT_EQ(runtime.iface_send_errors(0), stats.io_send_errors);
  EXPECT_EQ(runtime.egress().name(), "udp");
}

TEST(RuntimeEgress, UdpMatchesSimPerFlowDeliveryOnIdenticalLoad) {
  // The backend-vs-sim equivalence claim: on the same deterministic
  // offered load over unpaced interfaces, the UDP backend (over an
  // always-accepting socket) must produce the identical per-flow delivery
  // totals the sim backend does -- the egress layer may add latency, but
  // it must never change WHAT is delivered.
  constexpr int kFlows = 4;
  constexpr int kPerFlow = 250;
  const auto run = [](EgressBackend* egress) {
    RuntimeOptions options;
    options.workers = 2;
    options.egress = egress;
    Runtime runtime(options);
    runtime.add_interface("if0");
    runtime.add_interface("if1");
    std::vector<FlowId> flows;
    for (int i = 0; i < kFlows; ++i) {
      flows.push_back(runtime.control().add_flow(
          {.willing = {static_cast<IfaceId>(i % 2),
                       static_cast<IfaceId>((i + 1) % 2)},
           .queue_capacity_bytes = 0}));
    }
    runtime.start();
    {
      IngressPort port = runtime.port(0);
      for (int i = 0; i < kPerFlow; ++i) {
        for (const FlowId f : flows) {
          while (!port.offer(f, 1000)) std::this_thread::yield();
        }
      }
    }
    EXPECT_TRUE(wait_for(10.0, [&] {
      return runtime.stats().sent ==
             static_cast<std::uint64_t>(kFlows) * kPerFlow;
    }));
    runtime.stop();
    std::vector<std::uint64_t> per_flow;
    for (const FlowId f : flows) per_flow.push_back(runtime.sent_bytes(f));
    const RuntimeStats s = runtime.stats();
    EXPECT_EQ(s.sent, s.dequeued);
    EXPECT_EQ(s.io_drops, 0u);
    return per_flow;
  };

  MockSocketApi api;
  UdpBackend udp(mock_options(api));
  const std::vector<std::uint64_t> via_udp = run(&udp);
  const std::vector<std::uint64_t> via_sim = run(nullptr);  // default sim
  EXPECT_EQ(via_udp, via_sim);
  for (const std::uint64_t bytes : via_udp) {
    EXPECT_EQ(bytes, static_cast<std::uint64_t>(kPerFlow) * 1000u);
  }
  // Receiver-side view of the same claim: the headers the "kernel" took
  // credit each flow with exactly its scheduler bytes.
  std::vector<std::uint64_t> credited(kFlows, 0);
  for (const CapturedDatagram& dgram : api.captured()) {
    ASSERT_LT(dgram.header.flow, static_cast<FlowId>(kFlows));
    credited[dgram.header.flow] += dgram.header.size_bytes;
  }
  for (int i = 0; i < kFlows; ++i) {
    EXPECT_EQ(credited[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(kPerFlow) * 1000u);
  }
}

}  // namespace
}  // namespace midrr::io

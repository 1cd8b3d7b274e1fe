// UringBackend's submission/completion logic against a scripted UringApi:
// one submit per burst, CQE verdict classification (success / short write /
// transient / hard errno), internal retry with the SAME sequence number
// (never a phantom receiver gap), SQ-full and slot-exhaustion pushback
// (unstamped, no seq consumed), CQE overflow surfacing, the SEND_ZC
// two-CQE slot lifetime (frame pinned until the buffer-release
// notification), and the registered-buffer fixed path sending straight
// from PacketPool slab memory (pointer identity -- zero payload copies).
// The runtime-level tests close the extended conservation identity
//   dequeued == sent + io_drops + io_pending + io_inflight
// through a clean run, a transient/hard-error chaos run, and a shutdown
// where the "kernel" swallows completions and reclaim must close the
// ledger.  All of it runs without io_uring support on the host -- that is
// the point of the seam.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "io/uring_api.hpp"
#include "io/uring_backend.hpp"
#include "io/wire.hpp"
#include "net/frame_pool.hpp"
#include "net/packet.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace midrr::io {
namespace {

bool wait_for(double seconds, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// Sockets are only opened/closed by the uring backend (sends go through
/// the ring); a stub is all the tests need.
class StubSocketApi final : public SocketApi {
 public:
  int open_udp() override { return next_fd_++; }
  int bind_source(int, const sockaddr*, socklen_t) override { return 0; }
  int bind_to_device(int, const std::string&) override { return 0; }
  int probe_udp_segment(int) override { return 0; }
  int send_many(int, mmsghdr*, unsigned int) override {
    errno = ENOSYS;
    return -1;  // the uring backend must never fall back to sendmmsg
  }
  int close_fd(int) override { return 0; }

 private:
  int next_fd_ = 300;
};

/// One accepted op as the "kernel" saw it at success-CQE time.
struct CapturedSend {
  UringOp::Kind kind = UringOp::Kind::kSendmsg;
  const void* buf = nullptr;       ///< kSendZcFixed: registered-range start
  std::uint16_t buf_index = 0;
  std::size_t wire_bytes = 0;
  WireHeader header;
};

/// UringApi whose completions follow a scripted plan.  Each op submitted
/// consumes one Verdict (an empty plan accepts everything): `res` is the
/// CQE result (kOk = the op's full wire length), ZC ops post the result
/// CQE (F_MORE) plus a notification that can be parked until the test
/// calls release_notifs(), and `swallow` produces NO CQE at all (the
/// reclaim-at-shutdown scenario).
class MockUringApi final : public UringApi {
 public:
  static constexpr std::int32_t kOk = std::numeric_limits<std::int32_t>::max();

  struct Verdict {
    std::int32_t res = kOk;
    bool defer_notif = false;   ///< ZC only: park the F_NOTIF CQE
    bool more_on_error = false; ///< ZC only: failed result still posts F_MORE
    bool swallow = false;       ///< no CQE ever (slot left unanswered)
  };

  std::deque<Verdict> plan;  // guarded by mu_ (worker threads submit)
  std::size_t sq_capacity = 1024;
  bool zerocopy = true;
  int register_result = 0;
  int register_fail_at = -1;  ///< fail the Nth register_buffer call (0-based)
  bool mark_zc_copied = false;
  std::uint64_t overflows = 0;

  int ring_create(unsigned, unsigned) override {
    std::lock_guard<std::mutex> lock(mu_);
    return rings_created_++;
  }
  void ring_destroy(int) override {}

  int register_buffer(int, unsigned index, void* base,
                      std::size_t len) override {
    std::lock_guard<std::mutex> lock(mu_);
    const int call = register_calls_++;
    if (register_result != 0) return register_result;
    if (call == register_fail_at) return -ENOMEM;
    registered_.push_back({index, base, len});
    return 0;
  }

  bool supports_zerocopy(int) override { return zerocopy; }

  bool push(int, const UringOp& op) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (pushed_.size() >= sq_capacity) return false;
    pushed_.push_back(op);
    return true;
  }

  int submit(int) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++submits_;
    const int n = static_cast<int>(pushed_.size());
    for (const UringOp& op : pushed_) complete(op);
    pushed_.clear();
    return n;
  }

  int reap(int, UringCqe* out, unsigned max, std::uint64_t) override {
    std::lock_guard<std::mutex> lock(mu_);
    unsigned n = 0;
    while (n < max && !ready_.empty()) {
      out[n++] = ready_.front();
      ready_.pop_front();
    }
    return static_cast<int>(n);
  }

  std::uint64_t overflow_count(int) override {
    std::lock_guard<std::mutex> lock(mu_);
    return overflows;
  }

  std::uint64_t syscalls() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return submits_;
  }

  /// Moves every parked F_NOTIF CQE into the ready queue.
  void release_notifs() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const UringCqe& cqe : deferred_notifs_) ready_.push_back(cqe);
    deferred_notifs_.clear();
  }

  std::vector<CapturedSend> captured() const {
    std::lock_guard<std::mutex> lock(mu_);
    return captured_;
  }
  std::uint64_t submits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return submits_;
  }
  struct Registered {
    unsigned index;
    void* base;
    std::size_t len;
  };
  std::vector<Registered> registered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return registered_;
  }

 private:
  static std::size_t wire_len_of(const UringOp& op) {
    if (op.kind == UringOp::Kind::kSendZcFixed) return op.len;
    std::size_t total = 0;
    for (std::size_t k = 0; k < op.msg->msg_iovlen; ++k) {
      total += op.msg->msg_iov[k].iov_len;
    }
    return total;
  }

  void complete(const UringOp& op) {
    Verdict verdict;
    if (!plan.empty()) {
      verdict = plan.front();
      plan.pop_front();
    }
    if (verdict.swallow) return;
    const std::size_t wire = wire_len_of(op);
    const std::int32_t res =
        verdict.res == kOk ? static_cast<std::int32_t>(wire) : verdict.res;
    const bool zc_op = op.kind != UringOp::Kind::kSendmsg;
    const bool post_notif =
        zc_op && (res >= 0 || verdict.more_on_error);
    UringCqe result;
    result.user_data = op.user_data;
    result.res = res;
    result.more = post_notif;
    ready_.push_back(result);
    if (post_notif) {
      UringCqe notif;
      notif.user_data = op.user_data;
      notif.notif = true;
      notif.zc_copied = mark_zc_copied;
      if (verdict.defer_notif) {
        deferred_notifs_.push_back(notif);
      } else {
        ready_.push_back(notif);
      }
    }
    if (res == static_cast<std::int32_t>(wire)) capture(op, wire);
  }

  void capture(const UringOp& op, std::size_t wire) {
    std::vector<net::Byte> bytes;
    if (op.kind == UringOp::Kind::kSendZcFixed) {
      const auto* base = static_cast<const net::Byte*>(op.buf);
      bytes.assign(base, base + op.len);
    } else {
      for (std::size_t k = 0; k < op.msg->msg_iovlen; ++k) {
        const auto* base =
            static_cast<const net::Byte*>(op.msg->msg_iov[k].iov_base);
        bytes.insert(bytes.end(), base, base + op.msg->msg_iov[k].iov_len);
      }
    }
    CapturedSend send;
    send.kind = op.kind;
    send.buf = op.buf;
    send.buf_index = op.buf_index;
    send.wire_bytes = wire;
    const auto header = WireHeader::decode(bytes);
    ASSERT_TRUE(header.has_value()) << "backend emitted an unparsable header";
    send.header = *header;
    captured_.push_back(send);
  }

  mutable std::mutex mu_;
  int rings_created_ = 0;
  int register_calls_ = 0;
  std::uint64_t submits_ = 0;
  std::vector<UringOp> pushed_;
  std::deque<UringCqe> ready_;
  std::vector<UringCqe> deferred_notifs_;
  std::vector<CapturedSend> captured_;
  std::vector<Registered> registered_;
};

UringBackendOptions mock_options(MockUringApi& api, StubSocketApi& sockets) {
  UringBackendOptions options;
  options.base_port = 21000;
  options.api = &api;
  options.sockets = &sockets;
  return options;
}

/// Drains poll_completions for a fixed number of rounds.  Fixed, not
/// until-quiet: each poll reaps BEFORE resubmitting internal retries, so
/// a round that stages no completion may still have made progress (the
/// retried op's CQE becomes reapable only on the NEXT round).
std::vector<EgressCompletion> drain(UringBackend& backend, IfaceId iface) {
  std::vector<EgressCompletion> out;
  for (int round = 0; round < 8; ++round) {
    backend.poll_completions(iface, out);
  }
  return out;
}

// --- Submission batching and completion verdicts ---------------------------

TEST(UringBackend, OneSubmitPerBurstAndCompletionsResolveSent) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst;
  for (std::uint32_t i = 0; i < 8; ++i) burst.emplace_back(3, 500);
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_FALSE(result.clean) << "fates are deferred, dispositions are truth";
  EXPECT_EQ(result.inflight, 8u);
  EXPECT_EQ(result.sent, 0u) << "nothing is 'sent' until its CQE says so";
  ASSERT_EQ(dispositions.size(), 8u);
  for (const SendDisposition d : dispositions) {
    EXPECT_EQ(d, SendDisposition::kInflight);
  }
  EXPECT_EQ(api.submits(), 1u) << "the whole burst amortizes to ONE enter";

  const auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 8u);
  for (const EgressCompletion& c : done) {
    EXPECT_EQ(c.verdict, SendDisposition::kSent);
  }
  EXPECT_EQ(backend.inflight_packets(0), 0u);
  EXPECT_EQ(backend.sent_datagrams(0), 8u);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 8u);
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_EQ(captured[m].header.seq, m) << "per-flow sequence advances";
    EXPECT_EQ(captured[m].header.size_bytes, 500u);
  }
}

TEST(UringBackend, ShortWriteCqeIsTerminalDrop) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.res = 10});  // header is 24 bytes: short
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(1, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  const auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kDropped);
  EXPECT_EQ(backend.short_writes(0), 1u);
  EXPECT_EQ(backend.error_drops(0), 1u);
  EXPECT_EQ(backend.sent_datagrams(0), 0u);
  EXPECT_EQ(backend.inflight_packets(0), 0u);
}

TEST(UringBackend, TransientCqeRetriesInternallyWithSameSequence) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.res = -EAGAIN});
  api.plan.push_back({.res = -ENOBUFS});  // retried op fails once more
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(7, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(dispositions[0], SendDisposition::kInflight)
      << "a transient CQE is never handed back to the runtime";

  const auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kSent);
  EXPECT_EQ(backend.cqe_requeues(0), 2u);
  EXPECT_EQ(backend.send_errors(0), 0u) << "transient pushback is not an error";

  // The retry reused the serialized slot: exactly one datagram on the
  // wire, sequence 0 -- and the NEXT packet takes sequence 1.  No gap, no
  // reuse: the receiver ledger stays exact through the retry storm.
  std::vector<Packet> next = {Packet(7, 100)};
  backend.send_burst(0, next, 0, dispositions);
  drain(backend, 0);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].header.seq, 0u);
  EXPECT_EQ(captured[1].header.seq, 1u);
}

TEST(UringBackend, HardErrnoCqeCountsAndKeepsConsumedSequence) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.res = -EPERM});
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(9, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  const auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kDropped);
  EXPECT_EQ(backend.send_errors(0), 1u);
  EXPECT_EQ(backend.error_drops(0), 1u);

  // The dropped packet consumed seq 0; the receiver-side gap IS the loss.
  std::vector<Packet> next = {Packet(9, 100)};
  backend.send_burst(0, next, 0, dispositions);
  drain(backend, 0);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].header.seq, 1u);
}

// --- Submission-time pushback ----------------------------------------------

TEST(UringBackend, SqFullSuffixIsRequeuedUnstampedWithoutSequenceGap) {
  MockUringApi api;
  StubSocketApi sockets;
  api.sq_capacity = 2;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst;
  for (std::uint32_t i = 0; i < 5; ++i) burst.emplace_back(4, 100);
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(result.inflight, 2u);
  EXPECT_EQ(result.requeued, 3u);
  EXPECT_EQ(dispositions[0], SendDisposition::kInflight);
  EXPECT_EQ(dispositions[1], SendDisposition::kInflight);
  EXPECT_EQ(dispositions[2], SendDisposition::kRequeued);
  EXPECT_EQ(dispositions[4], SendDisposition::kRequeued);
  drain(backend, 0);

  // The runtime's stash retries the suffix as the next burst (re-offering
  // the still-requeued tail each pass, exactly like the drain loop does);
  // sequences must be continuous because pushed-back packets never
  // consumed one.
  std::vector<Packet> retry(burst.begin() + 2, burst.end());
  for (int round = 0; round < 8 && !retry.empty(); ++round) {
    const EgressResult r = backend.send_burst(0, retry, 0, dispositions);
    drain(backend, 0);
    retry.erase(retry.begin(),
                retry.begin() +
                    static_cast<std::ptrdiff_t>(retry.size() - r.requeued));
  }
  ASSERT_TRUE(retry.empty()) << "the tail never fit into the tiny SQ";
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 5u);
  for (std::uint64_t m = 0; m < 5; ++m) {
    EXPECT_EQ(captured[m].header.seq, m) << "datagram " << m;
  }
  EXPECT_EQ(backend.fallback_sends(0), 5u)
      << "path counters tick once per ring-ACCEPTED SQE, not per attempt";
}

TEST(UringBackend, SlotArenaExhaustionRequeuesSuffix) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackendOptions options = mock_options(api, sockets);
  options.inflight_limit = 2;
  UringBackend backend(options);
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst;
  for (std::uint32_t i = 0; i < 5; ++i) burst.emplace_back(1, 100);
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(result.inflight, 2u);
  EXPECT_EQ(result.requeued, 3u);
  EXPECT_EQ(backend.inflight_packets(0), 2u);
  drain(backend, 0);
  EXPECT_EQ(backend.inflight_packets(0), 0u)
      << "completions free the arena for the next burst";
}

TEST(UringBackend, OversizeDatagramDroppedUpfront) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackendOptions options = mock_options(api, sockets);
  options.max_payload_bytes = 70000;
  UringBackend backend(options);
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(2, 66000)};
  burst[0].frame =
      std::make_shared<const net::Frame>(net::ByteBuffer(66000, net::Byte{1}));
  std::vector<SendDisposition> dispositions;
  const EgressResult result = backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(dispositions[0], SendDisposition::kDropped);
  EXPECT_EQ(backend.oversize_drops(0), 1u);
  EXPECT_EQ(api.captured().size(), 0u) << "never offered to the kernel";
  EXPECT_EQ(api.submits(), 0u) << "an empty burst must not pay a syscall";
}

TEST(UringBackend, CqOverflowCountSurfaces) {
  MockUringApi api;
  StubSocketApi sockets;
  api.overflows = 7;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});
  EXPECT_EQ(backend.cq_overflows(), 7u);
}

// --- Zero-copy: registered buffers and the two-CQE slot lifetime ------------

net::FramePool headroom_pool() {
  PacketPoolOptions options;
  options.buffer_bytes = 512;
  options.slab_slots = 16;
  options.max_slabs = 1;
  options.precarve = true;  // freeze the slab directory for registration
  return net::FramePool(options, kWireScratchBytes);
}

TEST(UringBackend, RegisteredPoolFrameSendsZeroCopyFromSlabMemory) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});
  EXPECT_TRUE(backend.zerocopy_active());

  net::FramePool pool = headroom_pool();
  ASSERT_TRUE(backend.register_frame_pool(pool));
  EXPECT_EQ(backend.registered_buffers(), 1u);
  const auto regions = api.registered();
  ASSERT_EQ(regions.size(), 1u);

  auto frame = pool.make_filled(64, net::Byte{0x5A});
  const net::Byte* payload_ptr = frame->bytes().data();
  std::vector<Packet> burst = {Packet(6, 64)};
  burst[0].frame = std::move(frame);  // sole ownership: fixed path eligible

  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  const auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kSent);
  EXPECT_EQ(backend.fixed_sends(0), 1u);
  EXPECT_EQ(backend.fallback_sends(0), 0u);
  EXPECT_EQ(backend.zc_notifs(0), 1u);

  // Pointer identity is the zero-copy proof: the op's buffer IS the slab
  // memory (header written into the frame's headroom, immediately before
  // the payload), tagged with the registered table index -- no user-space
  // copy of the payload exists anywhere.
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].kind, UringOp::Kind::kSendZcFixed);
  EXPECT_EQ(captured[0].buf, payload_ptr - WireHeader::kSize);
  EXPECT_EQ(captured[0].buf_index, regions[0].index);
  EXPECT_EQ(captured[0].wire_bytes, WireHeader::kSize + 64u);
  EXPECT_EQ(captured[0].header.flow, 6u);
  EXPECT_EQ(captured[0].header.payload_bytes, 64u);
  const auto* base = static_cast<const net::Byte*>(captured[0].buf);
  EXPECT_EQ(base[WireHeader::kSize], net::Byte{0x5A})
      << "payload bytes untouched by the in-place header";
}

TEST(UringBackend, ZcSlotPinsFrameUntilBufferReleaseNotification) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.defer_notif = true});
  api.mark_zc_copied = true;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  net::FramePool pool = headroom_pool();
  ASSERT_TRUE(backend.register_frame_pool(pool));
  auto frame = pool.make_filled(64, net::Byte{1});
  std::weak_ptr<const net::Frame> watch = frame;
  std::vector<Packet> burst = {Packet(1, 64)};
  burst[0].frame = std::move(frame);

  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  burst.clear();  // the runtime's burst scratch is gone after the call
  auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kSent)
      << "the packet resolves on the result CQE, before the notif";
  done.clear();  // the runtime dropped its completion copy

  // The kernel may still be reading the slab bytes: the slot must keep
  // the frame alive until the F_NOTIF buffer release arrives.
  EXPECT_FALSE(watch.expired())
      << "slab slot freed while the send was still in flight";
  EXPECT_EQ(backend.zc_notifs(0), 0u);

  api.release_notifs();
  drain(backend, 0);
  EXPECT_TRUE(watch.expired()) << "notif must release the frame reference";
  EXPECT_EQ(backend.zc_notifs(0), 1u);
  EXPECT_EQ(backend.zc_copied(0), 1u) << "loopback honesty signal recorded";
}

TEST(UringBackend, TransientZcResultRetriesAfterNotification) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back(
      {.res = -ENOBUFS, .defer_notif = true, .more_on_error = true});
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  net::FramePool pool = headroom_pool();
  ASSERT_TRUE(backend.register_frame_pool(pool));
  auto frame = pool.make_filled(64, net::Byte{1});
  std::vector<Packet> burst = {Packet(2, 64)};
  burst[0].frame = std::move(frame);

  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  auto done = drain(backend, 0);
  EXPECT_TRUE(done.empty())
      << "a transient ZC failure must wait for its notif, then retry";
  EXPECT_EQ(backend.cqe_requeues(0), 1u);

  api.release_notifs();  // buffer released: the slot may resubmit now
  done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].verdict, SendDisposition::kSent);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].header.seq, 0u) << "same sequence, no phantom gap";
}

TEST(UringBackend, SharedFrameTakesCopyingFallback) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  net::FramePool pool = headroom_pool();
  ASSERT_TRUE(backend.register_frame_pool(pool));
  auto frame = pool.make_filled(64, net::Byte{1});
  std::vector<Packet> burst = {Packet(1, 64)};
  burst[0].frame = frame;  // the test still holds a reference: shared

  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  drain(backend, 0);
  EXPECT_EQ(backend.fixed_sends(0), 0u)
      << "a shared frame's headroom must not be scribbled on";
  EXPECT_EQ(backend.fallback_sends(0), 1u);
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].kind, UringOp::Kind::kSendmsg);
}

TEST(UringBackend, RegisterFramePoolRefusalsAreNonFatal) {
  {
    // No SEND_ZC support: registration declines, fallback path serves.
    MockUringApi api;
    StubSocketApi sockets;
    api.zerocopy = false;
    UringBackend backend(mock_options(api, sockets));
    backend.attach_topology({0});
    backend.attach({"if0"});
    net::FramePool pool = headroom_pool();
    EXPECT_FALSE(backend.register_frame_pool(pool));
    EXPECT_FALSE(backend.zerocopy_active());
  }
  {
    // No headroom: the contiguous [header|payload] trick cannot work.
    MockUringApi api;
    StubSocketApi sockets;
    UringBackend backend(mock_options(api, sockets));
    backend.attach_topology({0});
    backend.attach({"if0"});
    PacketPoolOptions options;
    options.precarve = true;
    options.max_slabs = 1;
    net::FramePool pool(options, 0);
    EXPECT_FALSE(backend.register_frame_pool(pool));
  }
  {
    // Kernel rejects the registration (memlock): slab takes the fallback.
    MockUringApi api;
    StubSocketApi sockets;
    api.register_result = -ENOMEM;
    UringBackend backend(mock_options(api, sockets));
    backend.attach_topology({0});
    backend.attach({"if0"});
    net::FramePool pool = headroom_pool();
    EXPECT_FALSE(backend.register_frame_pool(pool));
    EXPECT_EQ(backend.registered_buffers(), 0u);
  }
}

TEST(UringBackend, PartialBufferRegistrationBurnsTableIndex) {
  MockUringApi api;
  StubSocketApi sockets;
  api.register_fail_at = 1;  // slab A registers on ring 0, fails on ring 1
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0, 1});  // two workers -> two rings
  backend.attach({"if0", "if1"});

  PacketPoolOptions options;
  options.buffer_bytes = 512;
  options.slab_slots = 4;
  options.max_slabs = 2;
  options.precarve = true;
  net::FramePool pool(options, kWireScratchBytes);

  EXPECT_TRUE(backend.register_frame_pool(pool));
  EXPECT_EQ(backend.registered_buffers(), 1u) << "only the clean slab";
  // Slab A's partial registration left table index 0 occupied on ring 0;
  // slab B must take a FRESH index on both rings, never silently replace
  // the half-registered one.
  const auto regs = api.registered();
  ASSERT_EQ(regs.size(), 3u);
  EXPECT_EQ(regs[0].index, 0u) << "slab A on ring 0 (before the failure)";
  EXPECT_EQ(regs[1].index, 1u) << "slab B burns past the poisoned index";
  EXPECT_EQ(regs[2].index, 1u) << "slab B, same index on the second ring";
  EXPECT_EQ(regs[1].base, regs[2].base);
  EXPECT_NE(regs[1].base, regs[0].base);
}

// --- Shutdown reclaim -------------------------------------------------------

TEST(UringBackend, ReclaimForceDropsUnansweredSlots) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.swallow = true});
  api.plan.push_back({.swallow = true});
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(1, 100), Packet(1, 100),
                               Packet(2, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  drain(backend, 0);
  EXPECT_EQ(backend.inflight_packets(0), 2u) << "two CQEs never arrived";

  backend.flush(0);
  std::vector<EgressCompletion> out;
  const std::size_t reclaimed = backend.reclaim_inflight(0, out);
  EXPECT_EQ(reclaimed, 2u);
  ASSERT_EQ(out.size(), 2u);
  for (const EgressCompletion& c : out) {
    EXPECT_EQ(c.verdict, SendDisposition::kDropped);
  }
  EXPECT_EQ(backend.inflight_packets(0), 0u)
      << "reclaim must close the in-flight term of the identity";
  EXPECT_EQ(backend.error_drops(0), 2u);
}

TEST(UringBackend, FlushClassifiesWaitedForCompletions) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackendOptions options = mock_options(api, sockets);
  options.submit_coalesce_polls = 4;  // hold the doorbell past send_burst
  UringBackend backend(options);
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(1, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  EXPECT_EQ(api.submits(), 0u) << "coalescing deferred the submit";

  // flush submits the straggler and then waits for its CQE.  The waited-
  // for completion must be CLASSIFIED, not merely consumed: a discarded
  // CQE leaves the slot kInflight and reclaim would misreport the sent
  // packet as a drop.
  backend.flush(0);
  std::vector<EgressCompletion> out;
  const std::size_t n = backend.reclaim_inflight(0, out);
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].verdict, SendDisposition::kSent);
  EXPECT_EQ(backend.sent_datagrams(0), 1u);
  EXPECT_EQ(backend.error_drops(0), 0u) << "nothing was force-dropped";
  EXPECT_EQ(backend.inflight_packets(0), 0u);
}

TEST(UringBackend, ReclaimDoesNotResubmitParkedRetries) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.res = -ENOBUFS});
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  std::vector<Packet> burst = {Packet(3, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);  // transient CQE parks a retry
  EXPECT_EQ(backend.cqe_requeues(0), 1u);

  // Shutdown reclaim must turn the parked retry into a forced drop, not
  // a fresh SQE: resubmitting here would free the slot with a completion
  // still owed by the kernel, landing the late CQE on a recycled slot.
  std::vector<EgressCompletion> out;
  const std::size_t n = backend.reclaim_inflight(0, out);
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].verdict, SendDisposition::kDropped);
  EXPECT_EQ(api.submits(), 1u) << "reclaim must not ring the doorbell";
  EXPECT_EQ(backend.inflight_packets(0), 0u);
  EXPECT_EQ(backend.error_drops(0), 1u);
}

TEST(UringBackend, LateNotifAfterReclaimRetiresSlotSilently) {
  MockUringApi api;
  StubSocketApi sockets;
  api.plan.push_back({.defer_notif = true});
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});

  net::FramePool pool = headroom_pool();
  ASSERT_TRUE(backend.register_frame_pool(pool));
  auto frame = pool.make_filled(64, net::Byte{1});
  std::vector<Packet> burst = {Packet(1, 64)};
  burst[0].frame = std::move(frame);
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  auto done = drain(backend, 0);
  ASSERT_EQ(done.size(), 1u) << "resolved; only the ZC notif is missing";

  std::vector<EgressCompletion> out;
  EXPECT_EQ(backend.reclaim_inflight(0, out), 0u);
  EXPECT_TRUE(out.empty()) << "the packet was already handed back";

  // The buffer-release notification lands AFTER reclaim parked the slot:
  // it must retire the slot silently, not trip the slot-state asserts or
  // stage a bogus completion.
  api.release_notifs();
  out.clear();
  EXPECT_EQ(backend.poll_completions(0, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(UringBackend, RegistersUringMetricsSeries) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackend backend(mock_options(api, sockets));
  backend.attach_topology({0});
  backend.attach({"if0"});
  telemetry::MetricsRegistry registry;
  backend.register_metrics(registry);
  std::vector<Packet> burst = {Packet(1, 100)};
  std::vector<SendDisposition> dispositions;
  backend.send_burst(0, burst, 0, dispositions);
  drain(backend, 0);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("midrr_io_uring_sqe_batch"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_cqe_batch"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_inflight_packets"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_fixed_sends_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_zc_notifs_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_cq_overflows_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_syscalls_total"), std::string::npos);
  EXPECT_NE(text.find("midrr_io_uring_registered_buffers"), std::string::npos);
}

// --- Runtime integration: the extended conservation identity ----------------

using rt::IngressPort;
using rt::Runtime;
using rt::RuntimeOptions;
using rt::RuntimeStats;

TEST(RuntimeUring, CleanRunClosesIdentityWithInflightTerm) {
  MockUringApi api;
  StubSocketApi sockets;
  UringBackend backend(mock_options(api, sockets));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 200; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().sent == 200; }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.dequeued, 200u);
  EXPECT_EQ(stats.sent, 200u);
  EXPECT_EQ(stats.io_drops, 0u);
  EXPECT_EQ(stats.io_pending, 0u);
  EXPECT_EQ(stats.io_inflight, 0u) << "quiescence drains the in-flight term";
  EXPECT_EQ(stats.dequeued,
            stats.sent + stats.io_drops + stats.io_pending + stats.io_inflight);
  // Wire ledger: one datagram per dequeued packet, contiguous sequences.
  const auto captured = api.captured();
  ASSERT_EQ(captured.size(), 200u);
  for (std::uint64_t m = 0; m < captured.size(); ++m) {
    EXPECT_EQ(captured[m].header.seq, m);
  }
}

TEST(RuntimeUring, TransientAndHardErrorChaosStillClosesIdentity) {
  MockUringApi api;
  StubSocketApi sockets;
  // A hostile kernel: bursts of transient pushback with scattered hard
  // failures.  Every packet must end as exactly one of sent / io_drops.
  for (int i = 0; i < 40; ++i) {
    api.plan.push_back({.res = -ENOBUFS});
    api.plan.push_back({});
    if (i % 8 == 3) api.plan.push_back({.res = -ECONNREFUSED});
    if (i % 8 == 6) api.plan.push_back({.res = -EAGAIN});
  }
  UringBackend backend(mock_options(api, sockets));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 300; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.dequeued == 300 && s.sent + s.io_drops == 300;
  }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.dequeued, 300u);
  EXPECT_EQ(stats.dequeued, stats.sent + stats.io_drops);
  EXPECT_EQ(stats.io_pending, 0u);
  EXPECT_EQ(stats.io_inflight, 0u);
  EXPECT_GT(backend.cqe_requeues(0), 0u) << "the storm actually happened";
  EXPECT_GT(stats.io_send_errors, 0u) << "the hard errors actually happened";
  // Exact wire ledger modulo drops: every consumed sequence reaches the
  // wire AT MOST once (internal retries keep the same seq, so a retry can
  // reorder but never duplicate), drawn from exactly the 300 stamped
  // values; hard drops leave gaps, which the receiver counts as loss.
  const auto captured = api.captured();
  EXPECT_EQ(captured.size(), stats.sent);
  std::set<std::uint64_t> seqs;
  for (const CapturedSend& send : captured) {
    EXPECT_TRUE(seqs.insert(send.header.seq).second)
        << "sequence " << send.header.seq << " hit the wire twice";
    EXPECT_LT(send.header.seq, 300u);
  }
}

TEST(RuntimeUring, SwallowedCompletionsAreReclaimedAsCountedDropsAtStop) {
  MockUringApi api;
  StubSocketApi sockets;
  for (int i = 0; i < 5; ++i) api.plan.push_back({.swallow = true});
  UringBackend backend(mock_options(api, sockets));

  RuntimeOptions options;
  options.egress = &backend;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 50; ++i) {
      while (!port.offer(f, 1000)) std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.dequeued == 50 && s.sent == 45;
  }));
  EXPECT_EQ(runtime.stats().io_inflight, 5u)
      << "unanswered slots show up in the in-flight gauge";
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.sent, 45u);
  EXPECT_EQ(stats.io_drops, 5u) << "reclaimed, counted, never silent";
  EXPECT_EQ(stats.io_inflight, 0u);
  EXPECT_EQ(stats.io_pending, 0u);
  EXPECT_EQ(stats.dequeued, stats.sent + stats.io_drops);
}

}  // namespace
}  // namespace midrr::io

// perfbench_rt: one measured run of the wall-clock runtime (src/runtime)
// on one named workload.  Invoked by run.py; prints one JSON result line.
//
// The benchmark drives the runtime only through its public API:
//   * Runtime / RuntimeOptions (topology, start/stop, stats()),
//   * IngressPort::offer from one load-producer thread,
//   * ControlPlane deltas (move_member / reweight_class) from the main
//     thread, timed per call,
//   * RuntimeOptions::egress, through EgressProbe: a decorator around the
//     real backend that sees every packet at the egress seam.  It returns
//     closed-loop credits, records latency, and checks per-flow order and
//     the preference matrix Pi on every packet.
//
// End-to-end metrics come from untraced runs.  A traced run (--trace 1)
// alternates untraced and traced segments.  The traced segments switch on
// the runtime's StageTracer and time every call into each layer from the
// benchmark's side; the run also replays the udp_egress / prefs_churn
// configurations through the standalone Scheduler API.  Spans are kept in
// memory and written out when the run ends.
#include <dirent.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairness/maxmin.hpp"
#include "io/sim_backend.hpp"
#include "io/udp_backend.hpp"
#include "net/frame_pool.hpp"
#include "runtime/runtime.hpp"
#include "runtime/spsc_ring.hpp"
#include "sched/observer.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace pb {

using midrr::FlowId;
using midrr::IfaceId;
using midrr::Packet;
using midrr::SimTime;
namespace io = midrr::io;
namespace rt = midrr::rt;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_rt: %s\n", message.c_str());
  std::exit(2);
}

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
std::uint64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }

/// Increment of a counter with one writer thread (readers load relaxed).
void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Thread placement ---------------------------------------------------------
// With at least four usable CPUs every thread of a run gets its own CPU:
// the producer, the runtime's workers, and the main thread.  The runtime
// is not told; the benchmark pins its threads from outside, by thread id.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_thread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

/// Thread ids of this process other than the calling thread.
std::vector<pid_t> other_threads() {
  std::vector<pid_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const pid_t self = static_cast<pid_t>(gettid());
  while (const dirent* e = readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid > 0 && tid != self) out.push_back(static_cast<pid_t>(tid));
  }
  closedir(dir);
  return out;
}

// --- Histogram ---------------------------------------------------------------
// Log-linear buckets (8 per octave, the LatencyHistogram layout).  One
// writer thread per histogram; readers snapshot relaxed counts, so a
// sample costs a load and a store, never a locked instruction.
constexpr std::size_t kBuckets = 512;

std::size_t bucket_of(std::uint64_t v) {
  if (v < 16) return static_cast<std::size_t>(v);
  const unsigned octave = 63u - static_cast<unsigned>(__builtin_clzll(v));
  return (static_cast<std::size_t>(octave) << 3) |
         static_cast<std::size_t>((v >> (octave - 3)) & 7u);
}
double bucket_lo(std::size_t i) {
  if (i < 16) return static_cast<double>(i);
  const unsigned octave = static_cast<unsigned>(i >> 3);
  return static_cast<double>((1ull << octave) | ((i & 7u) << (octave - 3)));
}
double bucket_width(std::size_t i) {
  return i < 16 ? 1.0 : static_cast<double>(1ull << ((i >> 3) - 3));
}

struct Hist {
  std::atomic<std::uint64_t> c[kBuckets];
  void record(std::uint64_t v) { bump(c[bucket_of(v)], 1); }
  void add_to(std::vector<std::uint64_t>& out) const {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out[i] += c[i].load(std::memory_order_relaxed);
    }
  }
};

using Counts = std::vector<std::uint64_t>;

double counts_quantile(const Counts& counts, double q) {
  std::uint64_t total = 0;
  for (auto x : counts) total += x;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      const double into = std::clamp(
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]),
          0.0, 1.0);
      return bucket_lo(i) + bucket_width(i) * into;
    }
    seen += counts[i];
  }
  return bucket_lo(counts.size() - 1);
}

// --- Spans -------------------------------------------------------------------
// Kept in memory (bounded per source) and written as JSON lines at the end
// of a traced run.
struct Span {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t items;
  std::uint32_t where;
};

struct SpanLog {
  std::size_t cap = 0;
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  void reserve(std::size_t n) {
    cap = n;
    spans.reserve(n);
  }
  void add(const Span& s) {
    if (spans.size() < cap) {
      spans.push_back(s);
    } else {
      ++dropped;
    }
  }
};

// --- Workloads -----------------------------------------------------------------

struct Workload {
  std::string name;
  midrr::Policy policy = midrr::Policy::kMiDrr;
  std::size_t ifaces = 8;
  std::vector<double> caps_bps;  ///< empty = unpaced interfaces
  std::size_t flows = 1024;
  std::uint32_t packet_bytes = 1000;
  std::uint32_t window = 4;      ///< packets in flight per flow
  bool udp = false;              ///< UdpBackend to loopback, pooled frames
  std::size_t shards = 2;
  bool churn = false;            ///< dwell-period preference switching
  bool registry = false;         ///< MetricsRegistry attached
};

Workload workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "udp_egress") {
    w.ifaces = 4;
    w.flows = 256;
    w.packet_bytes = 64;
    w.window = 8;
    w.udp = true;
  } else if (name == "prefs_churn") {
    w.policy = midrr::Policy::kHierMiDrr;
    w.ifaces = 4;
    w.caps_bps = {400e6, 200e6, 100e6, 50e6};
    // One shard: the paper's coupled interfaces, so delivery can be held
    // to the weighted max-min solver (cross-shard coupling is absent by
    // design in the runtime).
    w.shards = 1;
    w.churn = true;
    w.registry = true;
    // A flow must hold more than one DRR turn's worth of packets (up to
    // phi_max / phi_min * 1500 B = 6 packets) to stay backlogged.
    w.window = 16;
  } else {
    die("unknown workload '" + name + "'");
  }
  return w;
}

/// One flow group: flows with one (phi, Pi row, queue bound), i.e. one
/// class of the control plane.
struct Group {
  double weight = 1.0;
  std::uint32_t row = 0;  ///< Pi row as an interface bitmask
  std::uint64_t cap = 512 * 1024;
};

std::vector<IfaceId> row_ifaces(std::uint32_t row) {
  std::vector<IfaceId> out;
  for (IfaceId j = 0; j < 32; ++j) {
    if ((row >> j) & 1u) out.push_back(j);
  }
  return out;
}

/// A preference configuration: group table plus flow -> group.
struct Config {
  std::vector<Group> groups;
  std::vector<std::uint32_t> group_of;
};

/// Inputs generated from the seed.
struct Inputs {
  Config a;                          ///< the configuration set up first
  Config b;                          ///< prefs_churn's second configuration
  std::vector<FlowId> churn_movers;  ///< prefs_churn: flows moved A <-> B
  std::vector<FlowId> move_order;    ///< udp_egress: flows to move, in order
  std::vector<FlowId> start_order;   ///< initial offer order
};

/// Flow -> group with `sizes[g]` members per group.  Flows register in id
/// order, so flow g (g < groups) opens group order[g] and every class
/// exists after the first `groups` registrations, whatever the seed; the
/// seed decides which group each later flow joins.
std::vector<std::uint32_t> assign_groups(std::uint32_t flows,
                                         const std::vector<std::uint32_t>& sizes,
                                         std::mt19937_64& rng) {
  const auto groups = static_cast<std::uint32_t>(sizes.size());
  std::vector<std::uint32_t> order(groups);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::uint32_t> rest;
  for (std::uint32_t g = 0; g < groups; ++g) rest.insert(rest.end(), sizes[g] - 1, g);
  std::shuffle(rest.begin(), rest.end(), rng);
  std::vector<std::uint32_t> out(order);
  out.insert(out.end(), rest.begin(), rest.end());
  if (out.size() != flows) die("group sizes do not add up to the flow count");
  return out;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995ull);
  Inputs in;
  const auto n = static_cast<std::uint32_t>(w.flows);
  std::vector<FlowId> perm(n);
  std::iota(perm.begin(), perm.end(), FlowId{0});
  if (!w.churn) {
    // A ring of interfaces; each flow is willing on two adjacent ones.
    // Equal numbers of flows per pair (the seed picks which flows), so
    // every shard sees the same offered share.
    const auto m = static_cast<std::uint32_t>(w.ifaces);
    for (std::uint32_t j = 0; j < m; ++j) {
      Group g;
      g.row = (1u << j) | (1u << ((j + 1) % m));
      in.a.groups.push_back(g);
    }
    in.a.group_of = assign_groups(n, std::vector<std::uint32_t>(m, n / m), rng);
    std::shuffle(perm.begin(), perm.end(), rng);
    in.move_order = perm;
    std::shuffle(in.move_order.begin(), in.move_order.end(), rng);
  } else {
    // 64 classes: 32 singletons and 32 of 31 members.  Pi rows follow the
    // paper's patterns (one interface; a pair; all interfaces), spread
    // over the four interfaces; phi in {1, 2, 4}.
    static const std::uint32_t kRows[] = {0b0001, 0b0010, 0b0011, 0b0110,
                                          0b1100, 0b1111, 0b0111, 0b1110,
                                          0b1001, 0b0101, 0b1010, 0b1011};
    static const double kWeights[] = {1.0, 2.0, 4.0};
    constexpr std::uint32_t kGroups = 64;
    constexpr std::uint32_t kSingletons = 32;
    // The class table is fixed, so every seed measures the same allocation;
    // the seed decides which flows form each class and which members move.
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      Group grp;
      grp.row = kRows[g % std::size(kRows)];
      const std::size_t wi = (g + g / std::size(kRows)) % 3;
      grp.weight = kWeights[wi];
      // A distinct queue bound per group keeps every group its own class
      // whatever phi and Pi it takes on.
      grp.cap = 512 * 1024 + 64ull * g;
      in.a.groups.push_back(grp);
      Group gb = grp;
      gb.weight = kWeights[(wi + 1 + g % 2) % 3];
      in.b.groups.push_back(gb);
    }
    std::vector<std::uint32_t> sizes(kGroups, 1);
    for (std::uint32_t g = kSingletons; g < kGroups; ++g) {
      sizes[g] = (n - kSingletons) / (kGroups - kSingletons);
    }
    in.a.group_of = assign_groups(n, sizes, rng);
    in.b.group_of = in.a.group_of;
    // Two members of every multi-member group move to another group; the
    // first member of each group (its anchor) never moves.
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<std::uint32_t> moved_from(kGroups, 0);
    for (const FlowId f : perm) {
      if (f < kGroups || sizes[in.a.group_of[f]] == 1) continue;
      const std::uint32_t g = in.a.group_of[f];
      if (moved_from[g] == 2) continue;
      ++moved_from[g];
      in.b.group_of[f] = (g + 7 * moved_from[g]) % kGroups;
      in.churn_movers.push_back(f);
    }
  }
  in.start_order = perm;
  std::shuffle(in.start_order.begin(), in.start_order.end(), rng);
  return in;
}

rt::ClassSpec spec_of(const Group& g) {
  rt::ClassSpec spec;
  spec.weight = g.weight;
  spec.willing = row_ifaces(g.row);
  spec.queue_capacity_bytes = g.cap;
  return spec;
}

// --- Preference matrix bookkeeping for the Pi check ----------------------------
struct FlowPi {
  std::atomic<std::uint32_t> cur{0};
  std::atomic<std::uint32_t> prev{0};
  std::atomic<std::int64_t> switched_at{0};
};

// --- The egress decorator ---------------------------------------------------

struct alignas(64) IfaceProbe {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> sent_bytes{0};
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> requeued{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> order_violations{0};
  std::atomic<std::uint64_t> pi_violations{0};
  std::atomic<std::uint64_t> credit_overflow{0};
  Hist latency;                                   ///< ns from offer
  std::vector<SimTime> last_stamp;                ///< per flow (order check)
  std::unique_ptr<std::atomic<std::uint64_t>[]> flow_bytes;  ///< per flow
  std::unique_ptr<rt::SpscRing<FlowId>> credits;  ///< back to the producer
  SpanLog spans;
};

class EgressProbe final : public io::EgressBackend {
 public:
  EgressProbe(io::EgressBackend& inner, std::size_t ifaces, std::size_t flows,
              std::size_t credit_capacity, const FlowPi* pi, bool traced,
              std::uint64_t inject_delay_ns)
      : inner_(inner),
        flows_(flows),
        pi_(pi),
        traced_(traced),
        inject_delay_ns_(inject_delay_ns) {
    for (std::size_t j = 0; j < ifaces; ++j) {
      auto p = std::make_unique<IfaceProbe>();
      p->last_stamp.assign(flows, 0);
      p->flow_bytes = std::make_unique<std::atomic<std::uint64_t>[]>(flows);
      p->credits = std::make_unique<rt::SpscRing<FlowId>>(credit_capacity);
      if (traced) p->spans.reserve(500);
      probes_.push_back(std::move(p));
    }
  }

  std::string name() const override { return inner_.name(); }
  void attach(const std::vector<std::string>& names) override {
    inner_.attach(names);
  }
  void attach_topology(const std::vector<std::uint32_t>& w) override {
    inner_.attach_topology(w);
  }
  void flush(IfaceId iface) override { inner_.flush(iface); }
  std::uint64_t send_errors(IfaceId iface) const override {
    return inner_.send_errors(iface);
  }
  std::uint64_t syscalls() const override { return inner_.syscalls(); }
  void register_metrics(midrr::telemetry::MetricsRegistry& r) override {
    inner_.register_metrics(r);
  }

  io::EgressResult send_burst(IfaceId iface, std::span<const Packet> burst,
                              SimTime now,
                              std::vector<io::SendDisposition>& disp) override {
    IfaceProbe& p = *probes_[iface];
    std::uint64_t t_start = 0;
    if (traced_ || inject_delay_ns_ != 0) t_start = mono_ns();
    if (inject_delay_ns_ != 0) {  // --self-test: a slower egress seam
      const std::uint64_t spin = inject_delay_ns_ * burst.size();
      while (mono_ns() - t_start < spin) {
      }
    }
    const std::uint64_t t_inner = traced_ ? mono_ns() : 0;
    const io::EgressResult r = inner_.send_burst(iface, burst, now, disp);
    if (traced_) {
      const std::uint64_t t_end = mono_ns();
      bump(p.busy_ns, t_end - t_inner);
      p.spans.add({"io", "send_burst", t_inner, t_end, burst.size(), iface});
    }
    bump(p.submitted, burst.size());
    if (r.clean) {
      for (const Packet& packet : burst) on_sent(p, iface, packet, now);
      return r;
    }
    for (std::size_t i = 0; i < burst.size(); ++i) {
      switch (disp[i]) {
        case io::SendDisposition::kSent:
          on_sent(p, iface, burst[i], now);
          break;
        case io::SendDisposition::kRequeued:
          bump(p.requeued, 1);
          break;
        case io::SendDisposition::kDropped:  // counted by RuntimeStats::io_drops
        case io::SendDisposition::kInflight:  // no completion-driven backend
          break;
      }
    }
    return r;
  }

  IfaceProbe& probe(IfaceId iface) { return *probes_[iface]; }
  std::size_t iface_count() const { return probes_.size(); }

 private:
  void on_sent(IfaceProbe& p, IfaceId iface, const Packet& packet,
               SimTime now) {
    const FlowId f = packet.flow;
    if (f >= flows_) {
      bump(p.pi_violations, 1);
      return;
    }
    bump(p.sent, 1);
    bump(p.sent_bytes, packet.size_bytes);
    bump(p.flow_bytes[f], packet.size_bytes);
    // Per-flow order at the seam: one interface drains one shard FIFO.
    if (packet.enqueued_at < p.last_stamp[f]) bump(p.order_violations, 1);
    p.last_stamp[f] = packet.enqueued_at;
    // Pi: the interface must be in the flow's row, or in its previous row
    // for a packet offered before the change returned (only such a packet
    // can have been dequeued under the old row; `now` is read after the
    // dequeue releases the shard lock, so it cannot date the dequeue).
    const FlowPi& pi = pi_[f];
    if (((pi.cur.load(std::memory_order_acquire) >> iface) & 1u) == 0) {
      const std::int64_t switched = pi.switched_at.load(std::memory_order_acquire);
      const bool was = (pi.prev.load(std::memory_order_relaxed) >> iface) & 1u;
      if (!was || packet.enqueued_at > switched) bump(p.pi_violations, 1);
    }
    p.latency.record(now > packet.enqueued_at
                         ? static_cast<std::uint64_t>(now - packet.enqueued_at)
                         : 0);
    FlowId credit = f;
    if (!p.credits->push(std::move(credit))) bump(p.credit_overflow, 1);
  }

  io::EgressBackend& inner_;
  std::size_t flows_;
  const FlowPi* pi_;
  bool traced_;
  std::uint64_t inject_delay_ns_;
  std::vector<std::unique_ptr<IfaceProbe>> probes_;
};

// --- Loopback receivers for the UDP workload ----------------------------------
// Bound, never read: the kernel discards datagrams once a receive buffer
// is full.  Only the sending side is measured; no extra thread runs.
struct Receivers {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  explicit Receivers(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      if (fd < 0) die("socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        die("bind() on loopback failed");
      }
      socklen_t len = sizeof addr;
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
      fds.push_back(fd);
      ports.push_back(ntohs(addr.sin_port));
    }
  }
  ~Receivers() {
    for (int fd : fds) ::close(fd);
  }
  Receivers(const Receivers&) = delete;
  Receivers& operator=(const Receivers&) = delete;
};

std::string iface_name(std::size_t j) { return "if" + std::to_string(j); }

// --- One runtime instance with everything it borrows --------------------------

struct Rig {
  // Declaration order is teardown order reversed: the runtime goes first.
  std::unique_ptr<midrr::telemetry::MetricsRegistry> registry;
  std::unique_ptr<midrr::net::FramePool> pool;
  std::unique_ptr<io::EgressBackend> inner;
  std::unique_ptr<EgressProbe> probe;
  std::unique_ptr<rt::Runtime> runtime;

  void reset() {
    runtime.reset();
    probe.reset();
    inner.reset();
    pool.reset();
    registry.reset();
  }
};

struct RunContext {
  const Workload& w;
  const Inputs& in;
  bool traced = false;
  std::uint64_t inject_delay_ns = 0;
  const Receivers* receivers = nullptr;
};

/// Builds and starts one runtime; returns the set-up time in seconds
/// (construction through start(), the `setup_s` span).
double build_rig(const RunContext& ctx, Rig& rig, const FlowPi* pi) {
  const Workload& w = ctx.w;
  if (w.registry) {
    rig.registry = std::make_unique<midrr::telemetry::MetricsRegistry>();
  }
  if (w.udp) {
    rig.pool = std::make_unique<midrr::net::FramePool>();
    // The pool is warmed to twice the packets the producer can have in
    // flight.  Left to grow, it carved a 1.1 MiB slab whenever the workers
    // fell behind in returning frames, so the run's resident memory
    // followed the host's scheduling (a slab or two more in some runs).
    std::vector<std::shared_ptr<const midrr::net::Frame>> warm(2 * w.flows * w.window);
    for (auto& f : warm) f = rig.pool->make_filled(w.packet_bytes, midrr::net::Byte{0x5a});
    io::UdpBackendOptions uo;
    for (std::size_t j = 0; j < w.ifaces; ++j) {
      uo.dest_by_name[iface_name(j)] =
          io::UdpDestination{"127.0.0.1", ctx.receivers->ports[j], "", ""};
    }
    uo.max_batch = 64;
    rig.inner = std::make_unique<io::UdpBackend>(uo);
  } else {
    rig.inner = std::make_unique<io::SimBackend>();
  }
  std::size_t credit_cap = 1;
  while (credit_cap < w.flows * w.window) credit_cap <<= 1;
  rig.probe = std::make_unique<EgressProbe>(*rig.inner, w.ifaces, w.flows,
                                            credit_cap, pi, ctx.traced,
                                            ctx.inject_delay_ns);
  rt::RuntimeOptions options;
  options.policy = w.policy;
  options.workers = 2;
  options.shards = w.shards;
  options.producers = 1;
  options.max_flows = 4096;
  options.egress = rig.probe.get();
  options.metrics = rig.registry.get();
  options.stage_sample_every = ctx.traced ? 64 : 0;

  const std::uint64_t t0 = mono_ns();
  rig.runtime = std::make_unique<rt::Runtime>(options);
  rt::Runtime& runtime = *rig.runtime;
  for (std::size_t j = 0; j < w.ifaces; ++j) {
    if (w.caps_bps.empty()) {
      runtime.add_interface(iface_name(j));
    } else {
      runtime.add_interface(iface_name(j), midrr::RateProfile(w.caps_bps[j]));
    }
  }
  const Config& cfg = ctx.in.a;
  for (std::size_t f = 0; f < w.flows; ++f) {
    const FlowId id =
        runtime.control().add_flow(spec_of(cfg.groups[cfg.group_of[f]]));
    if (id != f) die("flow ids are not dense from 0");
  }
  runtime.start();
  return static_cast<double>(mono_ns() - t0) * 1e-9;
}

// --- Producer ---------------------------------------------------------------------

struct ProducerStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> refused{0};
  std::uint64_t timed_offers = 0;  ///< traced: offers inside timed spans
  std::uint64_t timed_ns = 0;
  SpanLog spans;
};

void run_closed_producer(const RunContext& ctx, Rig& rig, ProducerStats& ps,
                         const std::atomic<bool>& stop) {
  const Workload& w = ctx.w;
  rt::IngressPort port = rig.runtime->port(0);
  if (rig.pool) rig.pool->pool().bind_owner();
  // Credits waiting to be spent, in order; refused offers stay at the head.
  std::vector<FlowId> todo;
  todo.reserve(w.flows * w.window);
  for (std::uint32_t k = 0; k < w.window; ++k) {
    for (FlowId f : ctx.in.start_order) todo.push_back(f);
  }
  std::size_t head = 0;
  std::vector<FlowId> popped;
  popped.reserve(4096);
  const bool paced = !w.caps_bps.empty();
  constexpr std::size_t kBatch = 64;
  while (!stop.load(std::memory_order_relaxed)) {
    for (std::size_t j = 0; j < w.ifaces; ++j) {
      popped.clear();
      rig.probe->probe(static_cast<IfaceId>(j)).credits->pop_batch(popped, 4096);
      todo.insert(todo.end(), popped.begin(), popped.end());
    }
    if (head == todo.size()) {
      todo.clear();
      head = 0;
      if (paced) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      } else {
        cpu_relax();
      }
      continue;
    }
    while (head < todo.size()) {
      const std::size_t end = std::min(todo.size(), head + kBatch);
      const std::uint64_t t0 = ctx.traced ? mono_ns() : 0;
      std::size_t sent = 0;
      bool refused = false;
      for (std::size_t i = head; i < end; ++i) {
        const FlowId f = todo[i];
        bool ok;
        if (rig.pool) {
          ok = port.offer(f, w.packet_bytes,
                          rig.pool->make_filled(w.packet_bytes, midrr::net::Byte{0x5a}));
        } else {
          ok = port.offer(f, w.packet_bytes);
        }
        if (!ok) {
          bump(ps.refused, 1);
          refused = true;
          break;
        }
        ++sent;
      }
      if (ctx.traced && sent > 0) {
        const std::uint64_t t1 = mono_ns();
        ps.timed_ns += t1 - t0;
        ps.timed_offers += sent;
        ps.spans.add({"runtime", "offer_batch", t0, t1, sent, 0});
      }
      bump(ps.accepted, sent);
      head += sent;
      if (refused) break;  // ring full: let the workers drain first
    }
    if (head == todo.size()) {
      todo.clear();
      head = 0;
    } else if (head > 4096 && 2 * head > todo.size()) {
      todo.erase(todo.begin(), todo.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  port.flush_counters();
}

// --- Snapshots and per-window metrics ---------------------------------------------

struct Snapshot {
  std::uint64_t t_ns = 0;  ///< runtime clock
  std::uint64_t proc_cpu = 0, main_cpu = 0, producer_cpu = 0;
  std::uint64_t sent = 0;
  std::vector<std::uint64_t> iface_bytes;
  std::vector<std::uint64_t> flow_bytes;
  Counts latency = Counts(kBuckets, 0);
  rt::RuntimeStats stats;
  std::uint64_t syscalls = 0;
};

Snapshot take_snapshot(Rig& rig, clockid_t producer_clock) {
  Snapshot s;
  EgressProbe& probe = *rig.probe;
  s.t_ns = static_cast<std::uint64_t>(rig.runtime->now_ns());
  s.proc_cpu = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  s.main_cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID);
  s.producer_cpu = clock_ns(producer_clock);
  const std::size_t nflows = probe.probe(0).last_stamp.size();
  s.flow_bytes.assign(nflows, 0);
  for (std::size_t j = 0; j < probe.iface_count(); ++j) {
    IfaceProbe& p = probe.probe(static_cast<IfaceId>(j));
    s.sent += p.sent.load(std::memory_order_relaxed);
    s.iface_bytes.push_back(p.sent_bytes.load(std::memory_order_relaxed));
    for (std::size_t f = 0; f < nflows; ++f) {
      s.flow_bytes[f] += p.flow_bytes[f].load(std::memory_order_relaxed);
    }
    p.latency.add_to(s.latency);
  }
  s.stats = rig.runtime->stats();
  s.syscalls = rig.runtime->egress().syscalls();
  return s;
}

/// Resident memory of this process now (VmRSS), after the allocator has
/// handed its free pages back.  Sampled at the end of each window and
/// reported as the median, not as the peak (VmHWM): the kernel updates
/// VmHWM lazily, at unmaps, so after teardown it read the resident size of
/// whichever unmap came first rather than the peak.  Without the trim, the
/// free pages glibc kept in its per-thread arenas, which depend on which
/// thread drew which arena, moved the reading by 0.8 MiB between runs.
double rss_mib() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  die("VmRSS not found in /proc/self/status");
}

struct WindowResult {
  double pps = 0, lat_p50_us = 0, lat_p99_us = 0, cpu_ns_per_pkt = 0;
  double fair_min = 0;
  double rss_mib = 0;
  double pref_p90_us = 0;  ///< of the preference calls made in this window
  std::uint64_t sent = 0;
  double parks = 0, dequeued = 0, bursts = 0, syscalls = 0;
};

/// Weighted max-min rates per group for `cfg`, with `caps_bps` per
/// interface.  Groups are solved as aggregate rows (weight = sum of member
/// weights), which gives the same per-member rates as solving per flow.
std::vector<double> solve_groups(const Config& cfg,
                                 const std::vector<double>& caps_bps) {
  const std::size_t m = caps_bps.size();
  std::vector<double> members(cfg.groups.size(), 0.0);
  for (auto g : cfg.group_of) members[g] += 1.0;
  midrr::fair::MaxMinInput input;
  input.capacities_bps = caps_bps;
  std::vector<std::size_t> index;
  for (std::size_t g = 0; g < cfg.groups.size(); ++g) {
    if (members[g] == 0) continue;
    index.push_back(g);
    input.weights.push_back(cfg.groups[g].weight * members[g]);
    std::vector<bool> row(m, false);
    for (std::size_t j = 0; j < m; ++j) row[j] = (cfg.groups[g].row >> j) & 1u;
    input.willing.push_back(row);
  }
  const auto res = midrr::fair::solve_max_min(input);
  std::vector<double> rates(cfg.groups.size(), 0.0);
  for (std::size_t i = 0; i < index.size(); ++i) rates[index[i]] = res.rates_bps[i];
  return rates;
}

// --- One measured segment ------------------------------------------------------

struct SegmentResult {
  std::vector<WindowResult> windows;
  std::vector<double> setup_s;
  std::vector<double> pref_us;     ///< every timed preference call
  std::vector<double> reweight_us;
  std::vector<double> move_us;
  std::vector<double> scrape_ms;
  std::uint64_t moves = 0;
  std::uint64_t reader_lag_max = 0;
  // Whole-segment totals (quiescent, after stop()).
  rt::RuntimeStats final_stats;
  std::uint64_t probe_sent = 0, probe_requeued = 0,
                probe_submitted = 0, busy_ns = 0;
  std::uint64_t order_violations = 0, pi_violations = 0, credit_overflow = 0;
  std::uint64_t accepted = 0, refused = 0;
  std::uint64_t timed_offers = 0, timed_offer_ns = 0;
  bool quiesced = true;
  std::vector<std::string> failures;
  // Fairness correctness (prefs_churn): per config, per group bytes and
  // measured seconds, accumulated over that config's windows.
  std::vector<std::vector<double>> cfg_group_bytes;
  std::vector<double> cfg_seconds;
  // Traced extras.
  double stage_q[3][2] = {};
  midrr::PacketPoolStats pool_stats{};
  bool has_pool = false;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;  ///< past the per-source bound
};

struct ControlTimer {
  rt::Runtime& runtime;
  SegmentResult& out;
  bool traced;
  SpanLog& spans;
  bool measuring = false;

  template <typename Fn>
  void call(const char* name, std::vector<double>* kind, Fn&& fn) {
    const std::uint64_t t0 = mono_ns();
    fn();
    const std::uint64_t t1 = mono_ns();
    if (!measuring) return;
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    out.pref_us.push_back(us);
    if (kind != nullptr) kind->push_back(us);
    if (traced) spans.add({"control", name, t0, t1, 1, 0});
  }
};

void move_flow(ControlTimer& timer, std::vector<FlowPi>& pi, FlowId f,
               const Group& to) {
  FlowPi& p = pi[f];
  p.prev.store(p.cur.load(std::memory_order_relaxed), std::memory_order_relaxed);
  p.switched_at.store(INT64_MAX, std::memory_order_release);
  p.cur.store(to.row, std::memory_order_release);
  timer.call("move_member", &timer.out.move_us,
             [&] { timer.runtime.control().move_member(f, spec_of(to)); });
  p.switched_at.store(timer.runtime.now_ns(), std::memory_order_release);
  ++timer.out.moves;
}

SegmentResult run_segment(const RunContext& ctx, std::size_t seconds,
                          std::size_t setups) {
  const Workload& w = ctx.w;
  const Inputs& in = ctx.in;
  SegmentResult out;
  // Sized and touched for every call of the segment up front, so that
  // recording a call never adds to the resident memory `rss_mb` reads:
  // filling merely reserved pages added 32 KiB a second to it.
  for (std::vector<double>* v : {&out.pref_us, &out.move_us}) {
    v->resize(2000 * (seconds + 1) + 256);
    v->clear();
  }

  std::vector<FlowPi> pi(w.flows);
  auto reset_pi = [&] {
    for (std::size_t f = 0; f < w.flows; ++f) {
      const std::uint32_t row = in.a.groups[in.a.group_of[f]].row;
      pi[f].cur.store(row);
      pi[f].prev.store(row);
      pi[f].switched_at.store(0);
    }
  };
  // Set-up is measured `setups` times; all but the last rig are torn down.
  Rig rig;
  for (std::size_t i = 0; i < setups; ++i) {
    rig.reset();
    reset_pi();
    out.setup_s.push_back(build_rig(ctx, rig, pi.data()));
    if (i + 1 < setups) rig.runtime->stop();
  }
  rt::Runtime& runtime = *rig.runtime;

  ProducerStats ps;
  if (ctx.traced) ps.spans.reserve(2000);
  std::atomic<bool> stop{false};
  SpanLog control_spans;
  if (ctx.traced) control_spans.reserve(2000);
  ControlTimer timer{runtime, out, ctx.traced, control_spans};
  Config current = in.a;

  // The set-up rigs are stopped, so the only other threads now are this
  // runtime's workers.
  const std::vector<int> cpus = usable_cpus();
  const bool pin = cpus.size() >= 4;
  if (pin) {
    const std::vector<pid_t> workers = other_threads();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      pin_thread(workers[i], cpus[1 + i % 2]);
    }
    pin_thread(static_cast<pid_t>(gettid()), cpus[3]);
  }

  // udp_egress times its preference changes on an idle twin: the
  // same topology and flows in a runtime that is never started, so no
  // packet contends with the calls.  Through the measured windows, flows
  // (in the seed's order) move to the next interface pair and back, 2000
  // calls a second.  Timed beside a saturated data path instead, the p99 of
  // these calls followed the host's CPU contention (0.26 to 1.97 ms over
  // ten runs); in one burst before the load, it followed the host's speed
  // in that instant.
  std::unique_ptr<rt::Runtime> twin;
  std::size_t twin_moves = 0;
  if (!w.churn) {
    rt::RuntimeOptions options;
    options.policy = w.policy;
    options.workers = 2;
    options.shards = w.shards;
    options.max_flows = 4096;
    twin = std::make_unique<rt::Runtime>(options);
    for (std::size_t j = 0; j < w.ifaces; ++j) twin->add_interface(iface_name(j));
    for (std::size_t f = 0; f < w.flows; ++f) {
      twin->control().add_flow(spec_of(in.a.groups[in.a.group_of[f]]));
    }
  }
  auto twin_pair = [&] {
    const FlowId f = in.move_order[twin_moves++ % in.move_order.size()];
    const std::uint32_t home = in.a.group_of[f];
    for (const std::uint32_t g : {(home + 1) % static_cast<std::uint32_t>(w.ifaces), home}) {
      timer.call("move_member", &out.move_us, [&] {
        twin->control().move_member(f, spec_of(in.a.groups[g]));
      });
    }
  };
  std::thread producer([&] {
    if (pin) pin_thread(static_cast<pid_t>(gettid()), cpus[0]);
    run_closed_producer(ctx, rig, ps, stop);
  });
  // Stops and joins the producer on every way out of this function.
  struct ProducerJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ProducerJoin() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } producer_join{stop, producer};
  clockid_t producer_clock{};
  pthread_getcpuclockid(producer.native_handle(), &producer_clock);

  // prefs_churn: every dwell period the configuration switches between A
  // and B (every class reweighted, 64 members moved), beside the load.
  // Each group's first flow never moves; it names the group's class.
  std::vector<FlowId> anchor(in.a.groups.size(), midrr::kInvalidFlow);
  if (w.churn) {
    for (FlowId f = 0; f < in.a.groups.size(); ++f) anchor[in.a.group_of[f]] = f;
  }
  bool in_b = false;
  auto churn_switch = [&] {
    const Config& to = in_b ? in.a : in.b;
    for (std::size_t g = 0; g < to.groups.size(); ++g) {
      const midrr::ClassId cls = runtime.control().class_of(anchor[g]);
      const double weight = to.groups[g].weight;
      timer.call("reweight_class", &out.reweight_us,
                 [&] { runtime.control().reweight_class(cls, weight); });
      current.groups[g].weight = weight;
    }
    for (FlowId f : in.churn_movers) {
      current.group_of[f] = to.group_of[f];
      move_flow(timer, pi, f, current.groups[current.group_of[f]]);
    }
    in_b = !in_b;
    out.reader_lag_max =
        std::max(out.reader_lag_max, runtime.control().max_reader_lag());
  };

  // Metrics are medians over windows: half a second on udp_egress, the
  // measured part of each one-second dwell on prefs_churn.
  const std::uint64_t second_ns = 1'000'000'000;
  const std::uint64_t window_ns = w.churn ? second_ns : second_ns / 2;
  const std::size_t windows = seconds * (second_ns / window_ns);
  const std::uint64_t settle_ns = w.churn ? 250'000'000 : 0;
  auto now = [&] { return static_cast<std::uint64_t>(runtime.now_ns()); };
  // Twin calls come in bursts of 200 every 100 ms.  One call per
  // millisecond, each after a sleep, gave a p99 that followed how fast the
  // host woke the idle vCPU (20-28 us over ten runs); in a burst, the cold
  // first call stays under 1% of the samples.
  std::uint64_t next_burst = 0;
  auto sleep_until = [&](std::uint64_t t) {
    while (true) {
      const std::uint64_t n = now();
      if (n >= t) return;
      std::uint64_t until = t;
      if (twin) {
        if (n >= next_burst) {
          for (int i = 0; i < 100; ++i) twin_pair();
          next_burst = n + 100'000'000;
        }
        until = std::min(t, next_burst);
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - n));
    }
  };

  // Warm-up: 0.5 s (udp_egress) or the first dwell (prefs_churn).
  const std::uint64_t warm_end = now() + (w.churn ? second_ns : second_ns / 2);
  sleep_until(warm_end);
  timer.measuring = true;
  Snapshot prev = take_snapshot(rig, producer_clock);
  std::uint64_t next_scrape = now() + second_ns / 2;
  for (std::size_t win = 0; win < windows; ++win) {
    const std::size_t pref_begin = out.pref_us.size();
    const std::uint64_t dwell_start = now();
    if (w.churn) {
      churn_switch();
      sleep_until(dwell_start + settle_ns);
      prev = take_snapshot(rig, producer_clock);
    }
    const std::uint64_t end = (w.churn ? dwell_start : prev.t_ns) + window_ns;
    if (ctx.traced && rig.registry) {
      while (next_scrape < end) {
        sleep_until(next_scrape);
        const std::uint64_t t0 = mono_ns();
        const std::string page =
            midrr::telemetry::render_prometheus(*rig.registry);
        const std::uint64_t t1 = mono_ns();
        if (page.empty()) out.failures.push_back("empty Prometheus page");
        out.scrape_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        next_scrape += second_ns;
      }
    }
    sleep_until(end);
    Snapshot cur = take_snapshot(rig, producer_clock);
    WindowResult r;
    const double dt = static_cast<double>(cur.t_ns - prev.t_ns) * 1e-9;
    r.sent = cur.sent - prev.sent;
    r.pps = static_cast<double>(r.sent) / dt;
    Counts lat(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) lat[i] = cur.latency[i] - prev.latency[i];
    r.lat_p50_us = counts_quantile(lat, 0.50) * 1e-3;
    r.lat_p99_us = counts_quantile(lat, 0.99) * 1e-3;
    const double cpu = static_cast<double>(cur.proc_cpu - prev.proc_cpu) -
                       static_cast<double>(cur.main_cpu - prev.main_cpu) -
                       static_cast<double>(cur.producer_cpu - prev.producer_cpu);
    r.cpu_ns_per_pkt = r.sent > 0 ? cpu / static_cast<double>(r.sent) : 0.0;
    r.parks = static_cast<double>(cur.stats.parks - prev.stats.parks);
    r.dequeued = static_cast<double>(cur.stats.dequeued - prev.stats.dequeued);
    r.bursts = static_cast<double>(cur.stats.bursts - prev.stats.bursts);
    r.syscalls = static_cast<double>(cur.syscalls - prev.syscalls);
    r.rss_mib = rss_mib();
    r.pref_p90_us = percentile(
        std::vector<double>(out.pref_us.begin() + static_cast<std::ptrdiff_t>(pref_begin),
                            out.pref_us.end()),
        0.90);
    // Fairness: delivered / reference, minimum over flows (or groups).
    double fair_min = 1e300;
    std::vector<double> caps = w.caps_bps;
    if (caps.empty()) {
      for (std::size_t j = 0; j < w.ifaces; ++j) {
        caps.push_back(
            static_cast<double>(cur.iface_bytes[j] - prev.iface_bytes[j]) *
            8.0 / dt);
      }
    }
    const std::vector<double> group_rate = solve_groups(current, caps);
    std::vector<double> members(current.groups.size(), 0.0);
    std::vector<double> group_bytes(current.groups.size(), 0.0);
    for (std::size_t f = 0; f < w.flows; ++f) {
      members[current.group_of[f]] += 1.0;
      group_bytes[current.group_of[f]] +=
          static_cast<double>(cur.flow_bytes[f] - prev.flow_bytes[f]);
    }
    if (w.churn) {
      for (std::size_t g = 0; g < current.groups.size(); ++g) {
        if (members[g] == 0 || group_rate[g] <= 0) continue;
        fair_min = std::min(fair_min, group_bytes[g] * 8.0 / dt / group_rate[g]);
      }
      const std::size_t c = in_b ? 1 : 0;
      if (out.cfg_group_bytes.empty()) {
        out.cfg_group_bytes.assign(2, std::vector<double>(current.groups.size(), 0.0));
        out.cfg_seconds.assign(2, 0.0);
      }
      for (std::size_t g = 0; g < current.groups.size(); ++g) {
        out.cfg_group_bytes[c][g] += group_bytes[g];
      }
      out.cfg_seconds[c] += dt;
    } else {
      for (std::size_t f = 0; f < w.flows; ++f) {
        const std::uint32_t g = current.group_of[f];
        const double ref = group_rate[g] / members[g];
        if (ref <= 0) continue;
        const double got =
            static_cast<double>(cur.flow_bytes[f] - prev.flow_bytes[f]) *
            8.0 / dt;
        fair_min = std::min(fair_min, got / ref);
      }
    }
    r.fair_min = fair_min == 1e300 ? 0.0 : fair_min;
    out.reader_lag_max =
        std::max(out.reader_lag_max, runtime.control().max_reader_lag());
    out.windows.push_back(r);
    prev = std::move(cur);
  }
  timer.measuring = false;

  // Quiesce: stop offering, let every accepted packet reach the seam.
  stop.store(true);
  producer.join();  // before the counters below are read
  const std::uint64_t deadline = now() + 10'000'000'000ull;
  while (true) {
    const rt::RuntimeStats s = runtime.stats();
    const std::uint64_t gone = s.dequeued + s.fanin_drops + s.tail_drops +
                               s.shed_drops + s.straggler_drops;
    if (s.offered == gone && s.io_pending == 0 && s.io_inflight == 0) break;
    if (now() > deadline) {
      out.quiesced = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (ctx.traced && runtime.stage_tracer() != nullptr) {
    const auto* tracer = runtime.stage_tracer();
    for (std::size_t st = 0; st < 3; ++st) {
      midrr::LatencyHistogram merged;
      for (IfaceId j = 0; j < w.ifaces; ++j) {
        merged.merge_from(
            tracer->stage_grid(j, static_cast<midrr::telemetry::Stage>(st)));
      }
      out.stage_q[st][0] = merged.quantile(0.50) * 1e-3;
      out.stage_q[st][1] = merged.quantile(0.99) * 1e-3;
    }
  }
  runtime.stop();
  out.final_stats = runtime.stats();
  if (pin) {
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int c : cpus) CPU_SET(c, &all);
    sched_setaffinity(static_cast<pid_t>(gettid()), sizeof all, &all);
  }
  EgressProbe& probe = *rig.probe;
  for (std::size_t j = 0; j < probe.iface_count(); ++j) {
    IfaceProbe& p = probe.probe(static_cast<IfaceId>(j));
    out.probe_sent += p.sent.load();
    out.probe_requeued += p.requeued.load();
    out.probe_submitted += p.submitted.load();
    out.busy_ns += p.busy_ns.load();
    out.order_violations += p.order_violations.load();
    out.pi_violations += p.pi_violations.load();
    out.credit_overflow += p.credit_overflow.load();
    for (const Span& s : p.spans.spans) out.spans.push_back(s);
    out.spans_dropped += p.spans.dropped;
  }
  out.accepted = ps.accepted.load();
  out.refused = ps.refused.load();
  out.timed_offers = ps.timed_offers;
  out.timed_offer_ns = ps.timed_ns;
  for (const Span& s : ps.spans.spans) out.spans.push_back(s);
  for (const Span& s : control_spans.spans) out.spans.push_back(s);
  out.spans_dropped += ps.spans.dropped + control_spans.dropped;
  if (rig.pool) {
    out.has_pool = true;
    rig.runtime.reset();  // frames released before the pool books close
    out.pool_stats = rig.pool->pool().stats();
  }
  return out;
}

// --- Correctness checks --------------------------------------------------------

void check_segment(SegmentResult& s) {
  auto fail = [&](const std::string& m) { s.failures.push_back(m); };
  const rt::RuntimeStats& st = s.final_stats;
  if (!s.quiesced) fail("runtime did not quiesce within 10 s");
  if (st.offered != st.dequeued + st.fanin_drops + st.tail_drops +
                        st.shed_drops + st.straggler_drops) {
    fail("ingress identity: offered != dequeued + drops");
  }
  if (st.dequeued != st.sent + st.io_drops + st.io_pending + st.io_inflight) {
    fail("egress identity: dequeued != sent + io_drops + io_pending + io_inflight");
  }
  if (s.probe_sent != st.sent) fail("egress seam saw a different sent count");
  if (s.accepted != st.offered) fail("producer accepted != runtime offered");
  if (s.order_violations != 0) fail("per-flow order broken at the egress seam");
  if (s.pi_violations != 0) fail("packet sent on an interface outside Pi");
  if (s.credit_overflow != 0) fail("closed-loop credit ring overflowed");
}

/// Adds a segment's delivery per configuration and class to `total`.
void add_delivery(SegmentResult& total, const SegmentResult& s) {
  if (s.cfg_seconds.empty()) return;
  if (total.cfg_seconds.empty()) {
    total.cfg_group_bytes = s.cfg_group_bytes;
    total.cfg_seconds = s.cfg_seconds;
    return;
  }
  for (std::size_t c = 0; c < s.cfg_seconds.size(); ++c) {
    total.cfg_seconds[c] += s.cfg_seconds[c];
    for (std::size_t g = 0; g < s.cfg_group_bytes[c].size(); ++g) {
      total.cfg_group_bytes[c][g] += s.cfg_group_bytes[c][g];
    }
  }
}

/// prefs_churn: every class's rate, over the windows of `s` under each
/// configuration, is within the bound of
/// RuntimeFairness.StaticScenarioWithinTenPercentOfMaxMin.  An untraced
/// run checks the windows of all its segments together; a traced run
/// checks each segment.
void check_fairness(const Workload& w, const Inputs& in, const SegmentResult& s,
                    std::vector<std::string>& failures) {
  if (!w.churn || s.cfg_seconds.empty()) return;
  const Config* cfgs[2] = {&in.a, &in.b};
  for (std::size_t c = 0; c < 2; ++c) {
    if (s.cfg_seconds[c] <= 0) continue;
    const auto rates = solve_groups(*cfgs[c], w.caps_bps);
    for (std::size_t g = 0; g < rates.size(); ++g) {
      if (rates[g] <= 0) continue;
      const double got = s.cfg_group_bytes[c][g] * 8.0 / s.cfg_seconds[c];
      if (std::abs(got - rates[g]) > 0.10 * rates[g]) {
        std::ostringstream m;
        m << "config " << (c == 0 ? 'A' : 'B') << " class " << g
          << " delivered " << got / 1e6 << " Mb/s vs max-min "
          << rates[g] / 1e6 << " Mb/s (outside 10%)";
        failures.push_back(m.str());
      }
    }
  }
}

// --- Standalone scheduler replay (traced runs) ----------------------------------

class SkipCounter final : public midrr::SchedulerObserver {
 public:
  std::uint64_t grants = 0;
  std::uint64_t skips = 0;
  void on_turn_granted(SimTime, FlowId, IfaceId, std::int64_t) override {
    ++grants;
  }
  void on_flag_skip(SimTime, FlowId, IfaceId) override { ++skips; }
};

struct ReplayResult {
  double enqueue_ns = 0;
  double dequeue_ns = 0;
  double skips_per_grant = 0;
};

ReplayResult replay(midrr::Policy policy, const Workload& w, const Config& cfg,
                    std::uint32_t per_flow, bool observe) {
  std::vector<double> enq, deq;
  ReplayResult out;
  for (int rep = 0; rep < 5; ++rep) {
    SkipCounter counter;
    midrr::SchedulerOptions so;
    so.observer = observe ? &counter : nullptr;
    auto sched = midrr::make_scheduler(policy, so);
    for (std::size_t j = 0; j < w.ifaces; ++j) sched->add_interface(iface_name(j));
    for (std::size_t f = 0; f < w.flows; ++f) {
      const Group& g = cfg.groups[cfg.group_of[f]];
      midrr::FlowSpec spec;
      spec.weight = g.weight;
      spec.willing = row_ifaces(g.row);
      spec.queue_capacity_bytes = 0;
      sched->add_flow(spec);
    }
    std::vector<Packet> batch;
    batch.reserve(w.flows);
    std::uint64_t total = 0;
    const std::uint64_t t0 = mono_ns();
    for (std::uint32_t k = 0; k < per_flow; ++k) {
      batch.clear();
      for (FlowId f = 0; f < w.flows; ++f) batch.emplace_back(f, w.packet_bytes);
      total += sched->enqueue_batch(batch, 0).accepted;
    }
    const std::uint64_t t1 = mono_ns();
    std::vector<Packet> out_pkts;
    out_pkts.reserve(1024);
    std::uint64_t drained = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (IfaceId j = 0; j < w.ifaces; ++j) {
        out_pkts.clear();
        const std::size_t n = sched->dequeue_burst(j, 64 * 1024, 0, out_pkts);
        drained += n;
        progress = progress || n > 0;
      }
    }
    const std::uint64_t t2 = mono_ns();
    if (drained != total) die("scheduler replay lost packets");
    enq.push_back(static_cast<double>(t1 - t0) / static_cast<double>(total));
    deq.push_back(static_cast<double>(t2 - t1) / static_cast<double>(total));
    if (observe && counter.grants > 0) {
      out.skips_per_grant = static_cast<double>(counter.skips) /
                            static_cast<double>(counter.grants);
    }
  }
  out.enqueue_ns = median(enq);
  out.dequeue_ns = median(deq);
  return out;
}

// --- Output --------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median of one field over a run's windows.
double window_median(const std::vector<WindowResult>& ws,
                     double WindowResult::*field) {
  std::vector<double> v;
  for (const auto& w : ws) v.push_back(w.*field);
  return median(v);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t seconds = 10;
  bool trace = false;
  std::uint64_t inject_delay_ns = 0;
  std::string spans_dir = ".bench_build/spans";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stoull(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--inject-egress-delay-ns") {
      a.inject_delay_ns = std::stoull(v);
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      die("unknown argument " + k);
    }
  }
  if (a.workload.empty()) die("--workload is required");
  if (a.seconds < 1 || a.seconds > 60) die("--seconds must be in [1, 60]");
  return a;
}

int main(int argc, char** argv) {
  // Large blocks are mapped fresh on every set-up, as in a new process.
  // Left to glibc's sliding threshold, which rises when a mapped block is
  // freed, a runtime's construction took 90 or 290 us depending on what
  // earlier set-ups had freed, and set-up medians differed by 1.7x
  // between runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args args = parse(argc, argv);
  const Workload w = workload_named(args.workload);
  const Inputs in = make_inputs(w, args.seed);
  std::unique_ptr<Receivers> receivers;
  if (w.udp) receivers = std::make_unique<Receivers>(w.ifaces);

  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const SegmentResult& s) {
    const rt::RuntimeStats& st = s.final_stats;
    const std::uint64_t lost = st.fanin_drops + st.tail_drops + st.shed_drops +
                               st.straggler_drops + st.io_drops;
    attempted += s.accepted;
    failed += lost;
    for (const auto& f : s.failures) failures.push_back(f);
  };

  if (!args.trace) {
    // The run is cut into segments of its own set-ups, warm-up and
    // windows, and each metric pools them all.  The host's speed shifts
    // over seconds: set-ups in one burst gave medians from 0.63 to
    // 1.08 ms between runs.
    RunContext ctx{w, in, false, args.inject_delay_ns, receivers.get()};
    const std::size_t segments = std::min<std::size_t>(5, args.seconds);
    SegmentResult s;
    for (std::size_t i = 0; i < segments; ++i) {
      SegmentResult seg = run_segment(ctx, args.seconds / segments, 9);
      check_segment(seg);
      account(seg);
      s.windows.insert(s.windows.end(), seg.windows.begin(), seg.windows.end());
      s.pref_us.insert(s.pref_us.end(), seg.pref_us.begin(), seg.pref_us.end());
      s.setup_s.insert(s.setup_s.end(), seg.setup_s.begin(), seg.setup_s.end());
      add_delivery(s, seg);
    }
    check_fairness(w, in, s, failures);
    metrics = {
        {"sent_pps", window_median(s.windows, &WindowResult::pps), "pkt/s"},
        {"lat_p50_us", window_median(s.windows, &WindowResult::lat_p50_us), "us"},
        {"lat_p99_us", window_median(s.windows, &WindowResult::lat_p99_us), "us"},
        {"cpu_ns_per_pkt", window_median(s.windows, &WindowResult::cpu_ns_per_pkt), "ns"},
        {"fair_share_min", window_median(s.windows, &WindowResult::fair_min), "ratio"},
        {"pref_apply_p90_us", window_median(s.windows, &WindowResult::pref_p90_us), "us"},
        {"setup_s", median(s.setup_s), "s"},
        {"rss_mb", window_median(s.windows, &WindowResult::rss_mib), "MiB"},
    };
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"windows\": %zu, \"pref_calls\": %zu, \"loss_ratio\": %s"
                ", \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"cxx_flags\": \"%s\"}}\n",
                w.name.c_str(), args.seed, s.windows.size(), s.pref_us.size(),
                num(attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0).c_str(),
                PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str());
  } else {
    // Untraced and traced segments alternate (U T U T) so drift on the
    // host hits both sides alike; per-layer numbers come from T only.
    const std::size_t seg_seconds = std::max<std::size_t>(1, args.seconds / 4);
    std::vector<SegmentResult> untraced, traced;
    for (int i = 0; i < 2; ++i) {
      for (bool t : {false, true}) {
        RunContext ctx{w, in, t, args.inject_delay_ns, receivers.get()};
        SegmentResult s = run_segment(ctx, seg_seconds, 1);
        check_segment(s);
        check_fairness(w, in, s, failures);
        account(s);
        (t ? traced : untraced).push_back(std::move(s));
      }
    }
    auto all_windows = [](const std::vector<SegmentResult>& segs) {
      std::vector<WindowResult> v;
      for (const auto& s : segs) v.insert(v.end(), s.windows.begin(), s.windows.end());
      return v;
    };
    const auto uw = all_windows(untraced);
    const auto tw = all_windows(traced);
    double sent = 0, parks = 0, dequeued = 0, bursts = 0, syscalls = 0;
    for (const auto& r : tw) {
      sent += static_cast<double>(r.sent);
      parks += r.parks;
      dequeued += r.dequeued;
      bursts += r.bursts;
      syscalls += r.syscalls;
    }
    std::uint64_t refused = 0, timed_offers = 0, timed_ns = 0, submitted = 0,
                  requeued = 0, busy = 0, moves = 0, stragglers = 0,
                  lag_max = 0, total_sent = 0;
    std::vector<double> reweight, move, scrape;
    double stage_q[3][2] = {};
    midrr::PacketPoolStats pool{};
    bool has_pool = false;
    for (const auto& s : traced) {
      refused += s.refused;
      timed_offers += s.timed_offers;
      timed_ns += s.timed_offer_ns;
      submitted += s.probe_submitted;
      requeued += s.probe_requeued;
      busy += s.busy_ns;
      moves += s.moves;
      stragglers += s.final_stats.straggler_drops;
      lag_max = std::max(lag_max, s.reader_lag_max);
      total_sent += s.final_stats.sent;
      reweight.insert(reweight.end(), s.reweight_us.begin(), s.reweight_us.end());
      move.insert(move.end(), s.move_us.begin(), s.move_us.end());
      scrape.insert(scrape.end(), s.scrape_ms.begin(), s.scrape_ms.end());
      for (int st = 0; st < 3; ++st) {
        for (int q = 0; q < 2; ++q) stage_q[st][q] += s.stage_q[st][q] / 2.0;
      }
      if (s.has_pool) {
        has_pool = true;
        pool.acquired += s.pool_stats.acquired;
        pool.released += s.pool_stats.released;
        pool.misses += s.pool_stats.misses;
        pool.cross_thread_returns += s.pool_stats.cross_thread_returns;
      }
    }
    // Overhead: traced / untraced throughput where the workers are the
    // bottleneck; traced / untraced CPU per packet where the pacers fix
    // the rate.
    const bool paced = !w.caps_bps.empty();
    const double overhead =
        paced ? window_median(tw, &WindowResult::cpu_ns_per_pkt) /
                    window_median(uw, &WindowResult::cpu_ns_per_pkt)
              : window_median(tw, &WindowResult::pps) /
                    window_median(uw, &WindowResult::pps);
    const Workload ring = workload_named("udp_egress");
    const Workload churn = workload_named("prefs_churn");
    const ReplayResult flat = replay(midrr::Policy::kMiDrr, ring,
                                     make_inputs(ring, args.seed).a, 64, false);
    const ReplayResult hier = replay(midrr::Policy::kHierMiDrr, churn,
                                     make_inputs(churn, args.seed).a, 64, true);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    metrics = {
        {"runtime.offer_ns", ratio(static_cast<double>(timed_ns), static_cast<double>(timed_offers)), "ns"},
        {"runtime.refused_per_kpkt", ratio(1000.0 * static_cast<double>(refused), static_cast<double>(total_sent)), "count"},
        {"runtime.parks_per_kpkt", ratio(1000.0 * parks, sent), "count"},
        {"runtime.pkts_per_burst", ratio(dequeued, bursts), "count"},
        {"runtime.stage_ring_p50_us", stage_q[0][0], "us"},
        {"runtime.stage_ring_p99_us", stage_q[0][1], "us"},
        {"runtime.stage_queue_p50_us", stage_q[1][0], "us"},
        {"runtime.stage_queue_p99_us", stage_q[1][1], "us"},
        {"runtime.stage_egress_p50_us", stage_q[2][0], "us"},
        {"runtime.stage_egress_p99_us", stage_q[2][1], "us"},
        {"runtime.trace_overhead", overhead, "ratio"},
        {"sched.enqueue_ns_pkt", flat.enqueue_ns, "ns"},
        {"sched.dequeue_ns_pkt", flat.dequeue_ns, "ns"},
        {"sched.hmidrr_dequeue_ns_pkt", hier.dequeue_ns, "ns"},
        {"sched.skips_per_grant", hier.skips_per_grant, "ratio"},
        {"io.send_ns_pkt", ratio(static_cast<double>(busy), static_cast<double>(submitted)), "ns"},
        {"io.pkts_per_syscall", ratio(sent, syscalls), "count"},
        {"io.requeue_ratio", ratio(static_cast<double>(requeued), static_cast<double>(submitted)), "ratio"},
        {"pool.miss_ratio", has_pool ? ratio(static_cast<double>(pool.misses), static_cast<double>(pool.acquired + pool.misses)) : 0.0, "ratio"},
        {"pool.cross_thread_ratio", has_pool ? ratio(static_cast<double>(pool.cross_thread_returns), static_cast<double>(pool.released)) : 0.0, "ratio"},
        {"control.reweight_p50_us", percentile(reweight, 0.5), "us"},
        {"control.move_p50_us", percentile(move, 0.5), "us"},
        {"control.move_p99_us", percentile(move, 0.99), "us"},
        {"control.reader_lag_max", static_cast<double>(lag_max), "count"},
        {"control.straggler_per_move", ratio(static_cast<double>(stragglers), static_cast<double>(moves)), "ratio"},
        {"telemetry.scrape_ms", median(scrape), "ms"},
    };
    // Spans of the traced segments, one JSON object per line.
    std::error_code ec;
    std::filesystem::create_directories(args.spans_dir, ec);
    const std::string run_id = w.name + "-s" + std::to_string(args.seed) + "-p" +
                               std::to_string(::getpid());
    const std::string path = args.spans_dir + "/" + run_id + ".jsonl";
    std::ofstream spans(path);
    std::size_t written = 0;
    std::uint64_t spans_dropped = 0;
    for (std::size_t seg = 0; seg < traced.size(); ++seg) {
      spans_dropped += traced[seg].spans_dropped;
      for (const Span& s : traced[seg].spans) {
        spans << "{\"run\":\"" << run_id << "\",\"workload\":\"" << w.name
              << "\",\"segment\":" << seg << ",\"layer\":\"" << s.layer
              << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
              << ",\"end_ns\":" << s.end_ns << ",\"items\":" << s.items
              << ",\"where\":" << s.where << "}\n";
        ++written;
      }
    }
    if (!spans) failures.push_back("could not write spans to " + path);
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"spans_file\": \"%s\", \"spans\": %zu, \"spans_dropped\": %" PRIu64
                "}}\n",
                w.name.c_str(), args.seed, json_escape(path).c_str(), written,
                spans_dropped);
  }

  for (const auto& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::ostringstream line;
  line << "{\"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace pb

int main(int argc, char** argv) { return pb::main(argc, argv); }

// rt_throughput: sweep the real-time runtime and record packets/s plus
// enqueue->dequeue latency percentiles into BENCH_rt.json.
//
//   rt_throughput [--duration S] [--out FILE] [--scale-only]
//
// Every load cell is an rt::RunSpec run by rt::run() (runtime/run.hpp),
// the path midrr_rt takes; a cell here is the midrr_rt command line in
// its comment.  Nine sweeps, each cell `--duration` seconds:
//   1. workers in {1, 2, 4, 8} (shards = workers) at 256 and 1024 flows
//      over 8 unpaced interfaces, each cell twice: telemetry off and on
//      (`--telemetry 0`: a live MetricsRegistry with the full runtime and
//      per-shard scheduler instrumentation, the fairness-drift sampler and
//      an idle HTTP server; no tracing).  The on/off pps ratio is the
//      metrics overhead.
//   2. fan-in batch size in {128 .. 2048} at the single-worker cell.
//   3. payload mode none/heap/pooled at the single-worker cell (pool
//      counters included for the pooled cell).
//   4. latency attribution at the single-worker cell: stage tracing off
//      vs 1-in-64 sampling; the pps ratio is the tracing overhead, and the
//      traced cell carries the per-stage breakdown.
//   5. slo burn: 2x overload of one paced interface with a tight p99
//      objective; sustained overload must push the burn rate above 1.
//   6. overload shedding: the same 2x overload with the fan-in watermark
//      off and on; Jain index and utilization over the settled window.
//   7. adaptive shedding: the same overload, watermark derived live from a
//      5 ms p99 objective (`--supervise --shed-target-p99-ms 5`).
//   8. egress backends: sim, udp at sendmmsg batch 1/32/256, and io_uring
//      with and without SEND_ZC, pooled payloads over loopback.
//   9. class scale: 1000 classes at 10k and 1M flows -- control-plane
//      registration, RSS and publish latency; not a run, so bespoke.
//      `--scale-only` runs just this sweep (what CI gates).
// NOTE: results depend on the host's core count; the JSON records
// std::thread::hardware_concurrency() so a reader can tell a 1-core box
// (where workers time-slice one core and pps cannot scale) from a real
// multicore run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/run.hpp"
#include "util/json.hpp"

namespace {

using midrr::rt::RunReport;
using midrr::rt::RunSpec;
using midrr::rt::Runtime;
using PayloadMode = midrr::rt::LoadGeneratorOptions::PayloadMode;

const char* payload_name(PayloadMode mode) {
  switch (mode) {
    case PayloadMode::kHeap: return "heap";
    case PayloadMode::kPooled: return "pooled";
    default: return "none";
  }
}

double pps(const RunReport& r, std::uint64_t packets) {
  return static_cast<double>(packets) / r.duration_s;
}

double pkts_per_syscall(const RunReport& r) {
  return r.stats.io_syscalls > 0 ? static_cast<double>(r.stats.sent) /
                                       static_cast<double>(r.stats.io_syscalls)
                                 : 0.0;
}

/// `--flows F --ifaces 8 --workers W`: the unpaced scaling configuration.
RunSpec sweep_spec(std::size_t flows, std::size_t workers, double duration_s) {
  RunSpec spec;
  spec.flows = flows;
  spec.ifaces = 8;
  spec.workers = workers;
  spec.duration_s = duration_s;
  return spec;
}

// The overload cells: one interface paced at 200 Mb/s, 8 equal flows, the
// generator offering twice its capacity in 1000-byte packets
// (`--flows 8 --ifaces 1 --rate 200mbps --load-pps 50000`).
constexpr double kOverloadCapacityBps = 200e6;
constexpr double kOverload = 2.0;
constexpr std::uint64_t kTargetP99Ns = 5'000'000;

RunSpec overload_spec(double duration_s) {
  RunSpec spec;
  spec.flows = 8;
  spec.ifaces = 1;
  spec.rate_bps = kOverloadCapacityBps;
  spec.load_pps = kOverload * kOverloadCapacityBps / (8.0 * 1000.0);
  spec.duration_s = duration_s;
  return spec;
}

/// Per-flow goodput over the settled window: the Jain index the shedding
/// watermark is supposed to protect, and utilization of the paced link.
struct Settled {
  double jain = 0;
  double utilization = 0;
  double duration_s = 0;
};

/// Warms up for a quarter of the run (the adaptive loop seeds its drain
/// EWMA and converges), then measures goodput over the rest.  Flow ids are
/// dense from 0 in registration order.
RunSpec settled_window(RunSpec spec, Settled& out) {
  spec.while_running = [&out, flows = spec.flows, warmup = spec.duration_s / 4](
                           Runtime& rt, RunSpec::Clock::time_point deadline) {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    std::vector<std::uint64_t> before;
    for (std::size_t i = 0; i < flows; ++i) {
      before.push_back(rt.sent_bytes(static_cast<midrr::FlowId>(i)));
    }
    const auto t0 = RunSpec::Clock::now();
    std::this_thread::sleep_until(deadline);
    double sum = 0, sq = 0;
    for (std::size_t i = 0; i < flows; ++i) {
      const double x = static_cast<double>(
          rt.sent_bytes(static_cast<midrr::FlowId>(i)) - before[i]);
      sum += x;
      sq += x * x;
    }
    out.duration_s =
        std::chrono::duration<double>(RunSpec::Clock::now() - t0).count();
    out.jain = sq > 0 ? sum * sum / (static_cast<double>(flows) * sq) : 1.0;
    out.utilization = sum * 8.0 / out.duration_s / kOverloadCapacityBps;
  };
  return spec;
}

// Egress cell: 4 unpaced interfaces, 64 flows, 2 workers, pooled payloads,
// drained into the sim sink or real sockets over loopback (destination
// ports nobody listens on -- the kernel pays the full loopback delivery
// path and then drops, which is exactly the send cost to meter without a
// receiver skewing the box).  The udp cells sweep the sendmmsg batch cap:
// batch 1 is one sendmmsg per packet, 256 the deep-burst limit.  HONESTY
// NOTE: loopback is not NIC-bound -- these numbers bound per-syscall and
// serialization overhead, not wire throughput.
RunSpec egress_spec(const std::string& backend, std::size_t max_batch,
                    double duration_s, std::uint64_t& peak_inflight) {
  RunSpec spec;
  spec.flows = 64;
  spec.workers = 2;
  spec.duration_s = duration_s;
  spec.payload = PayloadMode::kPooled;  // real bytes on the wire
  // Deep dequeue bursts (4000 packets at 1000 B) so the PER-CALL caps --
  // sendmmsg's max_batch vs one io_uring submit for the whole burst -- are
  // what bound syscall amortization, not the dequeue window itself.
  spec.burst_bytes = 4 * 1024 * 1024;
  spec.egress = backend == "uring-copy" ? "uring" : backend;
  spec.udp.base_port = 19800;  // unbound on purpose; see the note above
  spec.udp.max_batch = max_batch;
  // uring: one submit swallows a whole deep burst, and doorbell coalescing
  // lets SQEs from several bursts share one io_uring_enter -- the knob
  // swept against sendmmsg's max_batch.  32 quiet polls of headroom means
  // the half-SQ threshold (2048 SQEs), not the idle trigger, usually
  // rings the doorbell.  "uring-copy" forces the sendmsg fallback: on
  // loopback the kernel copies either way, so it isolates what SEND_ZC's
  // notification CQE costs.
  spec.uring.sq_entries = 4096;
  spec.uring.inflight_limit = 8192;
  spec.uring.submit_coalesce_polls = 32;
  spec.uring.zerocopy = backend == "uring";
  if (spec.egress == "uring") {
    spec.pool.max_slabs = 32;  // 16k slots >> inflight_limit
  }
  // Sample the in-flight depth while the load runs.
  spec.while_running = [&peak_inflight, ifaces = spec.ifaces](
                           Runtime& rt, RunSpec::Clock::time_point deadline) {
    while (RunSpec::Clock::now() < deadline) {
      std::uint64_t inflight = 0;
      for (std::size_t j = 0; j < ifaces; ++j) {
        const auto id = static_cast<midrr::IfaceId>(j);
        inflight += rt.egress().inflight_packets(id);
      }
      peak_inflight = std::max(peak_inflight, inflight);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  return spec;
}

/// The egress cell's label: the backend, "uring-copy" without SEND_ZC.
std::string egress_label(const RunSpec& spec) {
  return spec.egress == "uring" && !spec.uring.zerocopy ? "uring-copy"
                                                        : spec.egress;
}

// Million-flow scale cell: flows register in classes of `flows_per_class`
// (one ClassSpec, one publish per batch), so the snapshot the control
// plane publishes is O(classes), not O(flows).  Both sweep cells use the
// SAME class count (1000) at 100x different flow counts; if publish cost
// really is O(classes), the single-member publish latency must come out
// ~equal -- that ratio is the number CI bounds.  RSS is read from
// /proc/self/statm around registration, so rss_bytes_per_flow is the
// marginal footprint of a registered flow (directory slot, queue, class
// membership), not the process baseline.
struct ScaleCell {
  std::size_t flows = 0;
  std::size_t flows_per_class = 0;
  std::size_t classes = 0;
  double register_s = 0;
  long long rss_delta_bytes = 0;
  double rss_bytes_per_flow = 0;
  double publish_p50_ns = 0;
  double pps = 0;
  std::uint64_t dequeued = 0;
  double duration_s = 0;
};

long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

ScaleCell run_scale_cell(std::size_t flows, std::size_t flows_per_class,
                         double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kIfaces = 4;
  RuntimeOptions options;
  options.workers = 1;
  options.shards = 1;
  options.producers = 1;
  options.max_flows = flows + 128;  // headroom for the publish probes
  options.policy = Policy::kHierMiDrr;

  Runtime runtime(options);
  for (std::size_t j = 0; j < kIfaces; ++j) {
    runtime.add_interface("if" + std::to_string(j));
  }

  ScaleCell cell;
  cell.flows = flows;
  cell.flows_per_class = flows_per_class;

  const long long rss0 = resident_bytes();
  const auto reg0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < flows; i += flows_per_class) {
    const std::size_t batch = std::min(flows_per_class, flows - i);
    const std::size_t group = i / flows_per_class;
    ClassSpec spec;
    spec.name = std::string("c").append(std::to_string(group));
    spec.willing.push_back(static_cast<IfaceId>(group % kIfaces));
    spec.willing.push_back(static_cast<IfaceId>((group + 1) % kIfaces));
    // Classes intern by (weight, willing, queue capacity); a per-group
    // capacity keeps the 1000 groups from collapsing into 4 willing-pairs.
    spec.queue_capacity_bytes = 512 * 1024 + group;
    runtime.control().add_members(spec, batch);
  }
  cell.register_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - reg0)
          .count();
  cell.rss_delta_bytes = resident_bytes() - rss0;
  cell.rss_bytes_per_flow =
      static_cast<double>(cell.rss_delta_bytes) / static_cast<double>(flows);
  cell.classes = runtime.control().class_count();

  // Publish latency for a one-member delta against the fully loaded
  // table: join an existing class (no new snapshot entry), then leave.
  ClassSpec probe;
  probe.name = "c0";
  probe.willing.push_back(0);
  probe.willing.push_back(1);
  std::vector<double> lat_ns;
  for (int i = 0; i < 33; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const FlowId f = runtime.control().add_members(probe, 1);
    lat_ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    runtime.control().remove_member(f);
  }
  std::sort(lat_ns.begin(), lat_ns.end());
  cell.publish_p50_ns = lat_ns[lat_ns.size() / 2];

  runtime.start();
  LoadGeneratorOptions load;
  load.producers = 1;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  const auto t0 = std::chrono::steady_clock::now();
  generator.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  generator.stop();
  runtime.stop();
  cell.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const RuntimeStats stats = runtime.stats();
  cell.dequeued = stats.dequeued;
  cell.pps = static_cast<double>(stats.dequeued) / cell.duration_s;
  return cell;
}

void emit_cell_common(midrr::JsonWriter& w, const RunReport& r) {
  w.field("pps", pps(r, r.stats.dequeued)).field("dequeued", r.stats.dequeued);
  w.field("duration_s", r.duration_s);
  w.field("latency_p50_ns", r.stats.latency_p50_ns);
  w.field("latency_p99_ns", r.stats.latency_p99_ns);
}

RunReport run_logged(const RunSpec& spec, const std::string& label) {
  std::cerr << "rt_throughput: " << label << "..." << std::flush;
  RunReport r = midrr::rt::run(spec);
  std::cerr << " " << pps(r, r.stats.dequeued) / 1e6 << " Mpps, p50 "
            << r.stats.latency_p50_ns / 1e3 << " us, p99 "
            << r.stats.latency_p99_ns / 1e3 << " us\n";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 2.0;
  std::string out_path = "BENCH_rt.json";
  bool scale_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--scale-only") scale_only = true;
    else if (key == "--duration" && i + 1 < argc)
      duration_s = std::stod(argv[++i]);
    else if (key == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: rt_throughput [--duration S] [--out FILE] "
                   "[--scale-only]\n";
      return 2;
    }
  }

  std::vector<RunReport> cells, batch_cells, payload_cells, attribution_cells;
  std::vector<RunReport> slo_cells;
  std::vector<std::pair<RunReport, Settled>> overload_cells, adaptive_cells;
  std::vector<std::pair<RunReport, std::uint64_t>> egress_cells;
  try {
    if (!scale_only) {
      for (const std::size_t flows : {std::size_t{256}, std::size_t{1024}}) {
        for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
          for (const bool telemetry : {false, true}) {
            RunSpec spec = sweep_spec(flows, workers, duration_s);
            if (telemetry) spec.telemetry_port = 0;
            cells.push_back(run_logged(
                spec, std::to_string(flows) + " flows, " +
                          std::to_string(workers) + " workers, telemetry " +
                          (telemetry ? "on" : "off")));
          }
        }
      }
      // Fan-in batch sweep: how RuntimeOptions::fanin_batch trades
      // shard-lock/wakeup amortization against burstiness.
      for (const std::size_t batch : {128u, 256u, 512u, 1024u, 2048u}) {
        RunSpec spec = sweep_spec(256, 1, duration_s);
        spec.fanin_batch = batch;
        batch_cells.push_back(
            run_logged(spec, "fanin_batch " + std::to_string(batch)));
      }
      // Payload sweep: what real payload bytes cost, and the pool's share.
      for (const PayloadMode mode :
           {PayloadMode::kNone, PayloadMode::kHeap, PayloadMode::kPooled}) {
        RunSpec spec = sweep_spec(256, 1, duration_s);
        spec.payload = mode;
        payload_cells.push_back(
            run_logged(spec, std::string("payload ") + payload_name(mode)));
      }
      // Latency attribution: stage tracing off vs 1-in-64 sampling.
      for (const std::uint64_t sample : {0u, 64u}) {
        RunSpec spec = sweep_spec(256, 1, duration_s);
        spec.stage_sample = sample;
        attribution_cells.push_back(
            run_logged(spec, "stage_sample " + std::to_string(sample)));
      }
      // SLO burn under sustained 2x overload: a 5 ms p99 objective against
      // ~20 ms queue residence must burn far above 1 on both windows.  The
      // 8 equal flows intern into one class, named after its first member.
      {
        RunSpec spec = overload_spec(duration_s);
        spec.slo = {"class=f0:p99_ms=5"};
        slo_cells.push_back(run_logged(spec, "slo burn, 2x overload"));
      }
      // Overload shedding: the fan-in watermark off and on.  "Off" still
      // has per-flow queue caps (tail drops); "on" sheds weight-aware at
      // fan-in and must hold Jain >= 0.9.
      for (const std::uint64_t shed : {0u, 262144u}) {
        Settled settled;
        RunSpec spec = overload_spec(duration_s);
        spec.shed_bytes = shed;
        RunReport r = run_logged(settled_window(spec, settled),
                                 "2x overload, shed_bytes " +
                                     std::to_string(shed));
        overload_cells.emplace_back(std::move(r), settled);
      }
      // Adaptive shedding: the watermark derived live from measured drain
      // rate + a 5 ms p99 objective instead of a fixed byte count.
      {
        Settled settled;
        RunSpec spec = overload_spec(duration_s);
        spec.supervise = true;
        spec.shed_target_p99_ms = static_cast<double>(kTargetP99Ns) / 1e6;
        RunReport r = run_logged(settled_window(spec, settled),
                                 "2x overload, adaptive shed");
        adaptive_cells.emplace_back(std::move(r), settled);
      }
      // Egress backends.  io_uring is skipped VISIBLY when the build or
      // kernel lacks it -- a silent skip would read as "not faster"
      // instead of "not measured".
      std::vector<std::pair<std::string, std::size_t>> egress = {
          {"sim", 0}, {"udp", 1}, {"udp", 32}, {"udp", 256}};
      if (!midrr::io::uring_supported()) {
        std::cerr << "rt_throughput: egress uring SKIPPED (built without "
                     "-DMIDRR_WITH_URING=ON)\n";
      } else if (int probe_errno = 0;
                 !midrr::io::uring_runtime_available(&probe_errno)) {
        std::cerr << "rt_throughput: egress uring SKIPPED (kernel denies "
                     "io_uring_setup: "
                  << std::strerror(probe_errno) << ")\n";
      } else {
        egress.emplace_back("uring", 0);
        egress.emplace_back("uring-copy", 0);
      }
      for (const auto& [backend, batch] : egress) {
        std::uint64_t peak_inflight = 0;
        std::cerr << "rt_throughput: egress " << backend << " " << batch
                  << "..." << std::flush;
        const RunReport r = midrr::rt::run(
            egress_spec(backend, batch, duration_s, peak_inflight));
        std::cerr << " " << pps(r, r.stats.sent) / 1e6 << " Mpps, "
                  << pkts_per_syscall(r) << " pkts/syscall, peak inflight "
                  << peak_inflight << "\n";
        egress_cells.emplace_back(r, peak_inflight);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "\nerror: " << e.what() << "\n";
    return 1;
  }

  // Class-aggregation scale sweep: same 1000 classes at 10k and 1M flows.
  // Registration batches by class, the runtime schedules hmidrr, and the
  // publish probe measures a one-member delta against the loaded table.
  std::vector<ScaleCell> scale_cells;
  for (const auto& cfg : std::vector<std::pair<std::size_t, std::size_t>>{
           {10'000, 10}, {1'000'000, 1'000}}) {
    std::cerr << "rt_throughput: scale " << cfg.first << " flows / "
              << cfg.second << " per class..." << std::flush;
    const ScaleCell cell =
        run_scale_cell(cfg.first, cfg.second, std::min(duration_s, 2.0));
    std::cerr << " " << cell.classes << " classes, register "
              << cell.register_s << " s, publish p50 "
              << cell.publish_p50_ns / 1e3 << " us, rss/flow "
              << cell.rss_bytes_per_flow << " B, " << cell.pps / 1e6
              << " Mpps\n";
    scale_cells.push_back(cell);
  }

  midrr::JsonWriter w;
  w.begin_object().field("bench", "rt_throughput").field("ifaces", 8);
  w.field("producers", 1).field("packet_bytes", 1000);
  w.field("shards", "= workers");
  w.field("hardware_concurrency", std::thread::hardware_concurrency());
  w.field("note",
          "pps scaling across workers requires as many free cores; on a "
          "1-core host the sweep measures overhead, not speedup");
  w.key("cells").begin_array();
  for (const RunReport& c : cells) {
    w.begin_object().field("flows", c.spec.flows);
    w.field("workers", c.spec.workers);
    w.field("telemetry", c.spec.telemetry_port >= 0);
    emit_cell_common(w, c);
    w.end_object();
  }
  // Adjacent off/on pairs share a configuration; their ratio isolates the
  // metrics cost (relaxed atomic bumps in the observer + workers).
  w.end_array().key("telemetry_overhead").begin_array();
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const double off = pps(cells[i], cells[i].stats.dequeued);
    const double on = pps(cells[i + 1], cells[i + 1].stats.dequeued);
    w.begin_object().field("flows", cells[i].spec.flows);
    w.field("workers", cells[i].spec.workers);
    w.field("pps_off", off).field("pps_on", on);
    w.field("on_over_off", off > 0 ? on / off : 0.0);
    w.end_object();
  }
  w.end_array().key("fanin_batch_sweep").begin_array();
  for (const RunReport& c : batch_cells) {
    w.begin_object().field("fanin_batch", c.spec.fanin_batch);
    emit_cell_common(w, c);
    w.end_object();
  }
  w.end_array().key("payload_sweep").begin_array();
  for (const RunReport& c : payload_cells) {
    w.begin_object().field("payload", payload_name(c.spec.payload));
    emit_cell_common(w, c);
    if (c.spec.payload == PayloadMode::kPooled) {
      w.key("pool").begin_object().field("slabs", c.pool.slabs);
      w.field("acquired", c.pool.acquired);
      w.field("released", c.pool.released).field("misses", c.pool.misses);
      w.field("cross_thread_returns", c.pool.cross_thread_returns);
      w.field("overflow_returns", c.pool.overflow_returns).end_object();
    }
    w.end_object();
  }
  // Tracing off vs 1-in-64 at the same configuration.  No gate bounds
  // traced_over_base yet: CI runs only --scale-only.
  w.end_array().key("latency_attribution");
  if (attribution_cells.size() == 2 && attribution_cells[1].stage) {
    const RunReport& base = attribution_cells[0];
    const RunReport& traced = attribution_cells[1];
    const midrr::rt::StageReport& st = *traced.stage;
    const double pps_base = pps(base, base.stats.dequeued);
    const double pps_traced = pps(traced, traced.stats.dequeued);
    w.begin_object().field("sample_every", st.sample_every);
    w.field("pps_base", pps_base).field("pps_traced", pps_traced);
    w.field("traced_over_base", pps_base > 0 ? pps_traced / pps_base : 0.0);
    w.key("trace").begin_object().field("started", st.started);
    w.field("completed", st.completed).field("lost", st.lost);
    w.field("dropped", st.dropped).end_object();
    w.field("reconciliation_error", st.reconciliation_error);
    w.key("stages").begin_array();
    for (std::size_t s = 0; s < midrr::telemetry::kStageCount; ++s) {
      w.begin_object().field(
          "stage", midrr::telemetry::to_string(
                       static_cast<midrr::telemetry::Stage>(s)));
      w.field("p50_ns", st.p50_ns[s]).field("p99_ns", st.p99_ns[s]);
      w.end_object();
    }
    w.end_array().key("e2e").begin_object();
    w.field("p50_ns", st.e2e_p50_ns).field("p99_ns", st.e2e_p99_ns);
    w.end_object().end_object();
  } else {
    w.raw("null");
  }
  w.key("slo_burn");
  if (!slo_cells.empty()) {
    const RunReport& c = slo_cells.front();
    const midrr::JsonValue doc = midrr::JsonValue::parse(c.slo_json);
    const midrr::JsonValue& row = doc.find("slos")->as_array().at(0);
    const auto count = [&row](const char* key) {
      return static_cast<std::uint64_t>(row.find(key)->as_number());
    };
    w.begin_object().field("target_p99_ns", kTargetP99Ns);
    w.field("overload", kOverload).field("samples", count("samples"));
    w.field("violations", count("violations"));
    w.field("burn_short", row.find("burn_short")->as_number());
    w.field("burn_long", row.find("burn_long")->as_number());
    w.field("duration_s", c.duration_s).end_object();
  } else {
    w.raw("null");
  }
  w.key("overload_shedding").begin_array();
  for (const auto& [r, settled] : overload_cells) {
    w.begin_object().field("shed_bytes", r.spec.shed_bytes);
    w.field("overload", kOverload).field("jain", settled.jain);
    w.field("utilization", settled.utilization);
    w.field("shed_drops", r.stats.shed_drops);
    w.field("tail_drops", r.stats.tail_drops);
    w.field("duration_s", settled.duration_s).end_object();
  }
  w.end_array().key("adaptive_shedding");
  if (!adaptive_cells.empty() && adaptive_cells.front().first.adapt) {
    const auto& [r, settled] = adaptive_cells.front();
    const midrr::rt::AdaptReport& a = *r.adapt;
    w.begin_object().field("target_p99_ns", kTargetP99Ns);
    w.field("overload", kOverload).field("jain", settled.jain);
    w.field("utilization", settled.utilization);
    w.field("final_shed_bytes", a.shed_bytes);
    w.field("windowed_p99_ns", a.windowed_p99_ns);
    w.field("correction", a.correction).field("retunes", a.retunes);
    w.field("shed_engages", a.shed_engages);
    w.field("shed_drops", r.stats.shed_drops);
    w.field("tail_drops", r.stats.tail_drops);
    w.field("duration_s", settled.duration_s).end_object();
  } else {
    w.raw("null");
  }
  // The note travels with the data because these cells are easy to
  // misread as a NIC throughput claim.
  w.field("egress_sweep_note",
          "loopback is not NIC-bound: udp and uring cells meter "
          "serialization overhead and syscall amortization (sendmmsg "
          "max_batch vs coalesced io_uring submits), not wire throughput; "
          "SEND_ZC on loopback always copies kernel-side (zero-copy cannot "
          "pay off here, and the per-packet notification CQE plus "
          "completion-driven double handling cost a single-core host some "
          "pps vs sendmmsg), so uring-copy (sendmsg fallback, one CQE per "
          "packet) isolates the notification cost");
  w.key("egress_sweep").begin_array();
  for (const auto& [r, peak_inflight] : egress_cells) {
    w.begin_object().field("backend", egress_label(r.spec));
    if (r.spec.egress == "udp") w.field("max_batch", r.spec.udp.max_batch);
    w.field("pps", pps(r, r.stats.sent)).field("sent", r.stats.sent);
    w.field("syscalls", r.stats.io_syscalls);
    w.field("pkts_per_syscall", pkts_per_syscall(r));
    w.field("io_requeued", r.stats.io_requeued);
    w.field("io_drops", r.stats.io_drops);
    if (r.uring) {
      w.field("peak_inflight", peak_inflight);
      w.field("fixed_sends", r.uring->fixed_sends);
      w.field("fallback_sends", r.uring->fallback_sends);
    }
    w.field("latency_p50_ns", r.stats.latency_p50_ns);
    w.field("latency_p99_ns", r.stats.latency_p99_ns);
    w.field("duration_s", r.duration_s).end_object();
  }
  // Equal class counts at 100x different flow counts: the publish-latency
  // ratio is the evidence that control-plane cost tracks classes, not
  // flows.  CI bounds the ratio and the per-flow resident bytes.
  w.end_array().key("scale_sweep").begin_array();
  for (const ScaleCell& c : scale_cells) {
    w.begin_object().field("flows", c.flows);
    w.field("flows_per_class", c.flows_per_class);
    w.field("classes", c.classes).field("register_s", c.register_s);
    w.field("rss_delta_bytes", c.rss_delta_bytes);
    w.field("rss_bytes_per_flow", c.rss_bytes_per_flow);
    w.field("publish_p50_ns", c.publish_p50_ns);
    w.field("pps", c.pps).field("dequeued", c.dequeued);
    w.field("duration_s", c.duration_s).end_object();
  }
  w.end_array().field(
      "scale_publish_ratio",
      scale_cells.size() == 2 && scale_cells[0].publish_p50_ns > 0
          ? scale_cells[1].publish_p50_ns / scale_cells[0].publish_p50_ns
          : 0.0);
  w.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << w.str() << '\n';
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

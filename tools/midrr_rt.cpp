// midrr_rt: drive the real-time runtime from the command line.
//
//   midrr_rt --flows 1024 --ifaces 8 --workers 4 --duration 10
//
// Turns the flags into an rt::RunSpec, runs it (runtime/run.hpp: interfaces
// optionally paced, flows willing on two adjacent interfaces, the load
// generator saturating or pacing them for `--duration` seconds) and prints
// the run's JSON report on stdout: throughput, conservation counters,
// enqueue->dequeue latency percentiles and every optional layer's state.
// Exit status 2 for a bad command line, 1 for a run that failed.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_text.hpp"  // parse_rate_bps
#include "runtime/run.hpp"
#include "util/json.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: midrr_rt [options]\n"
         "  --flows N       flows, willing on 2 interfaces each (default 64)\n"
         "  --flows-per-class N  register flows in batches of N with one Pi\n"
         "                  row and weight (default 1); batches with equal\n"
         "                  rows share a class, so at most --ifaces classes.\n"
         "                  Pair with --policy hmidrr for two-level DRR\n"
         "  --ifaces N      interfaces (default 4)\n"
         "  --workers N     worker threads (default 1)\n"
         "  --shards N      scheduler shards (default = workers)\n"
         "  --producers N   load-generator threads (default 1)\n"
         "  --duration S    seconds to run (default 2)\n"
         "  --rate R        per-interface capacity, e.g. 100mbps"
         " (default: unpaced)\n"
         "  --load-pps R    aggregate offered rate in packets/s (default 0\n"
         "                  = saturate; pace it to study latency under a\n"
         "                  controlled load instead of full overload)\n"
         "  --packet B      packet size in bytes (default 1000)\n"
         "  --payload M     none|heap|pooled: what each packet carries\n"
         "                  (default none; pooled uses per-producer frame\n"
         "                  pools with cross-thread recycling)\n"
         "  --fanin-batch N max packets per ingress ring per fan-in pass\n"
         "                  (default 1024)\n"
         "  --burst-bytes B max bytes per dequeue burst (default 65536)\n"
         "  --policy P      midrr|hmidrr|drr|wfq|rr|fifo|priority\n"
         "                  (default midrr; hmidrr = miDRR across classes,\n"
         "                  DRR among a class's members)\n"
         "  --churn         exercise the control plane during the run\n"
         "  --fault-plan F  inject the deterministic fault plan in JSON\n"
         "                  file F (see docs/ROBUSTNESS.md for the schema)\n"
         "  --supervise     run the fault supervisor: link-death detection\n"
         "                  and re-steering, worker watchdog, Theorem-2\n"
         "                  replay; /healthz reports degraded links\n"
         "  --backpressure-bytes B  refuse offers for shards holding >= B\n"
         "                  bytes of backlog (0 = off, the default)\n"
         "  --shed-bytes B  weight-aware overload shedding at fan-in past\n"
         "                  B bytes of shard backlog (0 = off, the default)\n"
         "  --shed-target-p99-ms T  adaptive shedding (needs --supervise):\n"
         "                  derive the shed watermark live from measured\n"
         "                  drain rates + traced p99 to hold end-to-end p99\n"
         "                  near T ms; retune via /adapt?target_p99_ms=X\n"
         "                  (implies --stage-sample 64 if unset; overrides\n"
         "                  --shed-bytes once the first probe lands)\n"
         "  --record-faults F  record observed transitions (link dead/\n"
         "                  revive edges, capacity droops, worker stalls,\n"
         "                  shed episodes) as a replayable FaultPlan JSON\n"
         "                  at F on exit (needs --supervise)\n"
         "  --egress B      sim|udp|uring|auto: where dequeued bursts go\n"
         "                  (default sim = pacer-only sink; udp emits real\n"
         "                  datagrams via sendmmsg, see --udp-* below;\n"
         "                  uring needs -DMIDRR_WITH_URING=ON; auto probes\n"
         "                  at startup: uring if built and the kernel\n"
         "                  permits io_uring_setup, else udp if a --udp-*\n"
         "                  destination is configured, else sim)\n"
         "  --udp-dest D    iface=host:port destination mapping, repeatable\n"
         "                  (e.g. --udp-dest if0=127.0.0.1:9000)\n"
         "  --udp-base-port P  fallback for unmapped interfaces: iface j\n"
         "                  sends to 127.0.0.1:P+j (pairs with midrr_rx)\n"
         "  --udp-batch N   datagrams per sendmmsg call (default 64)\n"
         "  --udp-payload B frame bytes copied per datagram after the\n"
         "                  24-byte header (default 1400, truncating)\n"
         "  --stage-sample N  trace every Nth packet per flow through the\n"
         "                  ring/queue/egress stages (0 = off, the default;\n"
         "                  exports midrr_stage_* latency breakdowns)\n"
         "  --slo S         declare an objective \"class=NAME:p99_ms=X\"\n"
         "                  (repeatable; enables burn-rate gauges and the\n"
         "                  /slo route; implies --stage-sample 64 if unset)\n"
         "  --flight-dump F arm the flight recorder: post-mortem JSON to F\n"
         "                  on /healthz degrade or a conservation-identity\n"
         "                  trip at stop (fatal signals write F.fatal)\n"
         "  --telemetry P   serve /metrics, /healthz, /flows, /classes,\n"
         "                  /buildinfo (/slo with --slo, /adapt with\n"
         "                  --shed-target-p99-ms) on 127.0.0.1:P\n"
         "                  (0 = ephemeral; bound port printed to stderr)\n"
         "  --trace-out F   capture scheduler events + worker spans, write\n"
         "                  Chrome trace-event JSON to F after the run\n";
  return 2;
}

std::uint16_t parse_port(const std::string& flag, const std::string& text) {
  const unsigned long port = std::stoul(text);
  if (port > 65535) {
    throw std::runtime_error(flag + " must name a port <= 65535");
  }
  return static_cast<std::uint16_t>(port);
}

/// `iface=host:port` into the destination map.
void parse_dest(const std::string& text, midrr::io::UdpBackendOptions& udp) {
  const auto eq = text.find('=');
  const auto colon = text.rfind(':');
  if (eq == std::string::npos || colon == std::string::npos || colon < eq) {
    throw std::runtime_error("bad --udp-dest (want iface=host:port): " + text);
  }
  midrr::io::UdpDestination dest;
  dest.host = text.substr(eq + 1, colon - eq - 1);
  dest.port = parse_port("--udp-dest", text.substr(colon + 1));
  udp.dest_by_name[text.substr(0, eq)] = dest;
}

/// Control-plane churn while the datapath runs: add a flow, reweight it,
/// widen its willing set, and retire the oldest beyond 8, once per ms.
std::uint64_t churn_until(midrr::rt::Runtime& runtime, std::size_t ifaces,
                          midrr::rt::RunSpec::Clock::time_point deadline) {
  using namespace midrr;
  auto& control = runtime.control();
  std::vector<FlowId> extra;
  std::uint64_t ops = 0;
  while (rt::RunSpec::Clock::now() < deadline) {
    rt::RtFlowSpec spec;
    spec.name = "churn" + std::to_string(ops);
    spec.willing.push_back(static_cast<IfaceId>(ops % ifaces));
    const FlowId id = control.add_flow(spec);
    control.set_weight(id, 2.0);
    control.set_willing(id, static_cast<IfaceId>((ops + 1) % ifaces), true);
    extra.push_back(id);
    if (extra.size() > 8) {
      control.remove_flow(extra.front());
      extra.erase(extra.begin());
    }
    ++ops;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return ops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace midrr;
  using namespace midrr::rt;
  using PayloadMode = LoadGeneratorOptions::PayloadMode;

  RunSpec spec;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
        return argv[++i];
      };
      try {
        if (key == "--flows") spec.flows = std::stoul(value());
        else if (key == "--flows-per-class")
          spec.flows_per_class = std::stoul(value());
        else if (key == "--ifaces") spec.ifaces = std::stoul(value());
        else if (key == "--workers") spec.workers = std::stoul(value());
        else if (key == "--shards") spec.shards = std::stoul(value());
        else if (key == "--producers") spec.producers = std::stoul(value());
        else if (key == "--duration") spec.duration_s = std::stod(value());
        else if (key == "--rate") spec.rate_bps = parse_rate_bps(value());
        else if (key == "--load-pps") spec.load_pps = std::stod(value());
        else if (key == "--packet")
          spec.packet_bytes = static_cast<std::uint32_t>(std::stoul(value()));
        else if (key == "--payload") {
          const std::string mode = value();
          if (mode == "none") spec.payload = PayloadMode::kNone;
          else if (mode == "heap") spec.payload = PayloadMode::kHeap;
          else if (mode == "pooled") spec.payload = PayloadMode::kPooled;
          else throw std::runtime_error("unknown payload mode: " + mode);
        }
        else if (key == "--fanin-batch") spec.fanin_batch = std::stoul(value());
        else if (key == "--burst-bytes")
          spec.burst_bytes = std::stoull(value());
        else if (key == "--policy") spec.policy = parse_policy(value());
        else if (key == "--churn") spec.churn = true;
        else if (key == "--fault-plan") spec.fault_plan = value();
        else if (key == "--supervise") spec.supervise = true;
        else if (key == "--backpressure-bytes")
          spec.backpressure_bytes = std::stoull(value());
        else if (key == "--shed-bytes") spec.shed_bytes = std::stoull(value());
        else if (key == "--shed-target-p99-ms")
          spec.shed_target_p99_ms = std::stod(value());
        else if (key == "--record-faults") spec.record_faults = value();
        else if (key == "--egress") spec.egress = value();
        else if (key == "--udp-dest") parse_dest(value(), spec.udp);
        else if (key == "--udp-base-port")
          spec.udp.base_port = parse_port(key, value());
        else if (key == "--udp-batch") spec.udp.max_batch = std::stoul(value());
        else if (key == "--udp-payload")
          spec.udp.max_payload_bytes = std::stoul(value());
        else if (key == "--telemetry") spec.telemetry_port = std::stoi(value());
        else if (key == "--trace-out") spec.trace_out = value();
        else if (key == "--stage-sample")
          spec.stage_sample = std::stoull(value());
        else if (key == "--slo") spec.slo.push_back(value());
        else if (key == "--flight-dump") spec.flight_dump = value();
        else return usage();
      } catch (const std::logic_error&) {  // std::sto*: not a number
        throw std::runtime_error("bad value for " + key + ": " + argv[i]);
      }
    }
    validate(spec);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  std::uint64_t churn_ops = 0;
  if (spec.churn) {
    spec.while_running = [&churn_ops, ifaces = spec.ifaces](
                             Runtime& runtime,
                             RunSpec::Clock::time_point deadline) {
      churn_ops = churn_until(runtime, ifaces, deadline);
    };
  }
  try {
    RunReport report = run(spec);
    report.churn_ops = churn_ops;
    JsonWriter w;
    write_json(w, report);
    std::cout << w.str() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

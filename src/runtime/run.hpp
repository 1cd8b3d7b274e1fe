// One wall-clock run of the runtime: RunSpec -> run() -> RunReport.
//
// A RunSpec describes a run the way midrr_rt's flags do (same names, same
// defaults): interfaces (optionally paced), flows registered in classes
// willing on two adjacent interfaces, the load generator, the egress
// backend, and the optional layers -- fault plan, supervisor with adaptive
// shedding, stage tracing, SLOs, flight recorder, telemetry server, Chrome
// trace.  run() wires them in the one safe order, drives the load for
// `duration_s` seconds, shuts everything down, and returns what the run
// measured.  write_json() is the only rendering of a report: midrr_rt
// prints it, and the gates in ci/gates.py read its keys.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "io/udp_backend.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/stage_latency.hpp"

namespace midrr {
class JsonWriter;
}

namespace midrr::rt {

struct RunSpec {
  using Clock = std::chrono::steady_clock;

  // --- Topology and load ------------------------------------------------
  std::size_t flows = 64;
  /// Flows registered per batch under one class (one Pi row, one weight).
  std::size_t flows_per_class = 1;
  std::size_t ifaces = 4;
  std::size_t workers = 1;
  std::size_t shards = 0;     ///< 0 = match workers
  std::size_t producers = 1;  ///< load-generator threads
  double duration_s = 2.0;    ///< finite and > 0
  double rate_bps = 0.0;      ///< per-interface capacity; 0 = unpaced
  double load_pps = 0.0;      ///< aggregate offered rate; 0 = saturate
  std::uint32_t packet_bytes = 1000;
  LoadGeneratorOptions::PayloadMode payload =
      LoadGeneratorOptions::PayloadMode::kNone;
  std::size_t fanin_batch = 0;    ///< 0 = RuntimeOptions default
  std::uint64_t burst_bytes = 0;  ///< 0 = RuntimeOptions default
  Policy policy = Policy::kMiDrr;
  /// Sizes the flow-id arena for a `while_running` hook that adds about
  /// one flow per millisecond (ids are never reused).
  bool churn = false;

  // --- Faults and overload ----------------------------------------------
  std::string fault_plan;  ///< FaultPlan JSON file to inject; empty = none
  bool supervise = false;  ///< link supervisor, watchdog, adaptive loop
  std::uint64_t backpressure_bytes = 0;
  std::uint64_t shed_bytes = 0;
  /// Adaptive shedding toward this p99 (needs supervise); 0 = static.
  double shed_target_p99_ms = 0.0;
  /// Observed transitions as a replayable FaultPlan (needs supervise).
  std::string record_faults;

  // --- Egress -----------------------------------------------------------
  std::string egress = "sim";  ///< sim|udp|uring|auto
  /// Destinations, batch and payload cap.  The destinations and the
  /// payload cap apply to the uring backend too, which otherwise runs with
  /// its default ring; with no destination at all, interface j sends to
  /// 127.0.0.1:19000+j (midrr_rx's default).
  io::UdpBackendOptions udp{};

  // --- Observability ----------------------------------------------------
  /// Trace every Nth packet per flow (0 = off, at most 2^32 - 1).  A
  /// declared SLO or adaptive shedding turns it on at 64 when unset.
  std::uint64_t stage_sample = 0;
  std::vector<std::string> slo;  ///< objectives "class=NAME:p99_ms=X"
  std::string flight_dump;       ///< post-mortem JSON path; empty = off
  int telemetry_port = -1;       ///< HTTP port; < 0 = off, 0 = ephemeral
  std::string trace_out;         ///< Chrome trace JSON path; empty = off

  /// Runs on the calling thread from load start until `deadline` in place
  /// of a plain sleep (control-plane churn, mid-run sampling).  Must
  /// return at the deadline.
  std::function<void(Runtime&, Clock::time_point deadline)> while_running;
};

struct StageReport {
  std::uint32_t sample_every = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t dropped = 0;
  double reconciliation_error = 0;
  /// Quantiles over every interface's grid merged into one.
  double p50_ns[telemetry::kStageCount]{};
  double p99_ns[telemetry::kStageCount]{};
  double e2e_p50_ns = 0;
  double e2e_p99_ns = 0;
};

struct UringReport {  ///< sums over interfaces
  bool zerocopy_active = false;
  std::size_t registered_buffers = 0;
  std::uint64_t fixed_sends = 0;
  std::uint64_t fallback_sends = 0;
  std::uint64_t cqe_requeues = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t zc_notifs = 0;
  std::uint64_t zc_copied = 0;
  std::uint64_t cq_overflows = 0;
};

struct FaultReport {
  std::uint64_t ingress_drops = 0;
  std::uint64_t ingress_dups = 0;
  std::uint64_t ingress_delays = 0;
  std::uint64_t pool_rejects = 0;
  std::uint64_t worker_stalls = 0;
  std::uint64_t iface_transitions = 0;
};

struct SupervisorReport {
  std::uint64_t link_transitions = 0;
  std::uint64_t restarts_attempted = 0;
  std::uint64_t restarts_succeeded = 0;
  std::uint64_t restarts_refused = 0;
  std::uint64_t clustering_checks = 0;
  std::uint64_t clustering_violations = 0;
  std::vector<std::string> verdict_sequence;
};

/// The adaptive loop's state: the /adapt route's body and the report's
/// "adapt" object.
struct AdaptReport {
  struct Iface {
    std::string name;
    double drift_ratio = 1.0;
    bool drooped = false;
  };
  std::int64_t target_p99_ns = 0;
  std::uint64_t shed_bytes = 0;  ///< the runtime's current watermark
  bool shedding_active = false;
  double windowed_p99_ns = 0;
  double correction = 0;
  std::uint64_t updates = 0;
  std::uint64_t retunes = 0;
  std::uint64_t shed_engages = 0;
  std::uint64_t droop_enters = 0;
  std::uint64_t droop_exits = 0;
  std::vector<Iface> ifaces;
};

struct RunReport {
  /// The spec as run: shards, stage_sample and egress resolved.
  RunSpec spec;
  std::size_t classes = 0;
  double duration_s = 0;  ///< wall time from load start to shutdown
  RuntimeStats stats;
  std::uint64_t churn_ops = 0;  ///< filled in by a churning hook's owner
  std::size_t metrics_series = 0;
  PacketPoolStats pool{};  ///< reported when payload == kPooled
  std::optional<UringReport> uring;
  std::optional<StageReport> stage;
  /// The /slo document at shutdown; empty when no SLO was declared.
  std::string slo_json;
  struct Flight {
    std::uint64_t events = 0;
    std::uint64_t dumps = 0;
  };
  std::optional<Flight> flight;
  std::optional<FaultReport> fault;
  std::optional<SupervisorReport> supervisor;
  std::optional<AdaptReport> adapt;
};

/// Throws std::invalid_argument, naming the flag, for a spec no run can
/// honour (non-finite or non-positive duration, non-finite rates, ports or
/// sample rates out of range, layers missing their prerequisite).
void validate(const RunSpec& spec);

/// Validates, wires, runs and tears down one run.  Throws
/// std::invalid_argument for a bad spec and std::runtime_error for what
/// fails while running (unreadable plan, unwritable trace, bad SLO).
RunReport run(const RunSpec& spec);

/// The run's one report: every key the CI gates read, in a fixed order.
void write_json(JsonWriter& w, const RunReport& report);

}  // namespace midrr::rt

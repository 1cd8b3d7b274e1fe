// Scenario: declarative description of a multi-interface scheduling
// experiment, and ScenarioRunner: the harness that executes it on the
// discrete-event simulator under any scheduling policy.
//
// This is the top of the library for simulation studies: every evaluation
// figure (Fig 1, 6, 8, 10-ish) is "build a Scenario, run it under a Policy,
// read the per-flow rate time series / cluster snapshots".
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fairness/clusters.hpp"
#include "flow/source.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace midrr {

// SourceFactory (flow/source.hpp): each run needs fresh source state.

struct InterfaceSpec {
  std::string name;
  RateProfile profile;
  /// Optional failure injection: the interface is administratively down
  /// during [down_from, down_until).
  std::optional<SimTime> down_from;
  std::optional<SimTime> down_until;
};

/// Declarative description of one flow in a scenario.  (Distinct from
/// midrr::FlowSpec, the scheduler-level registration record: this one names
/// interfaces by string, carries a start time and a traffic source.)
struct ScenarioFlowSpec {
  std::string name;
  double weight = 1.0;
  std::vector<std::string> ifaces;  ///< names of willing interfaces
  SimTime start = 0;                ///< when the flow appears
  SourceFactory make_source;
};

class Scenario {
 public:
  /// Adds an interface with a (possibly time-varying) capacity profile.
  Scenario& interface(std::string name, RateProfile profile);

  /// Adds an interface that goes down during [from, until).
  Scenario& interface_with_outage(std::string name, RateProfile profile,
                                  SimTime down_from, SimTime down_until);

  /// Adds a flow.
  Scenario& flow(ScenarioFlowSpec spec);

  /// Convenience: a backlogged flow (optionally volume-bounded) with fixed
  /// `packet_size`-byte packets.
  Scenario& backlogged_flow(std::string name, double weight,
                            std::vector<std::string> ifaces,
                            std::uint64_t total_bytes = 0,
                            std::uint32_t packet_size = 1500,
                            SimTime start = 0);

  const std::vector<InterfaceSpec>& interfaces() const { return ifaces_; }
  const std::vector<ScenarioFlowSpec>& flows() const { return flows_; }

 private:
  std::vector<InterfaceSpec> ifaces_;
  std::vector<ScenarioFlowSpec> flows_;
};

struct ClusterSnapshot {
  SimTime at = 0;
  fair::ClusterAnalysis analysis;
  std::string rendering;  ///< human-readable "{a | if1} @3Mb/s ..." line
};

struct FlowResult {
  std::string name;
  FlowId id = kInvalidFlow;
  double weight = 1.0;
  TimeSeries rate_mbps{""};            ///< sampled smoothed rate over time
  std::uint64_t bytes_sent = 0;        ///< across all interfaces
  std::vector<std::uint64_t> bytes_per_iface;
  std::optional<SimTime> completed_at;  ///< last byte departed & source done
  /// Queueing delay (enqueue -> transmission complete) of every packet, in
  /// nanoseconds; feeds the latency side of the quantum trade-off.
  EmpiricalCdf delay_ns;
  /// Tail drops (only non-zero with RunnerOptions::queue_capacity_bytes).
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;

  /// Mean of the sampled rate over [from, to), in Mb/s.
  double mean_rate_mbps(SimTime from, SimTime to) const {
    return rate_mbps.mean_over(from, to);
  }
};

struct InterfaceResult {
  std::string name;
  IfaceId id = kInvalidIface;
  std::uint64_t bytes_sent = 0;
  SimDuration busy_time = 0;
};

struct ScenarioResult {
  std::string policy;
  SimTime duration = 0;
  std::vector<FlowResult> flows;
  std::vector<InterfaceResult> ifaces;
  std::vector<ClusterSnapshot> clusters;

  const FlowResult& flow_named(const std::string& name) const;
};

struct RunnerOptions {
  std::uint32_t quantum_base = 1500;   ///< DRR-family quantum scale (bytes)
  SimDuration sample_interval = 100 * kMillisecond;
  std::size_t rate_window_bins = 10;   ///< smoothing: window = bins * interval
  SimDuration cluster_interval = 0;    ///< 0 = no cluster snapshots
  std::uint64_t seed = 1;
  std::uint64_t queue_capacity_bytes = 0;  ///< per-flow cap; 0 = unbounded
  /// Per-transmission service-time jitter fraction (see
  /// LinkTransmitter::set_jitter); 0 = fully deterministic links.
  double link_jitter = 0.0;
  /// Batched transmission: when positive, each link drains up to this much
  /// transmission time per simulator event (LinkTransmitter::set_burst fed
  /// by Scheduler::dequeue_burst) instead of one event per packet.
  /// Departure timestamps stay per-packet; scheduling decisions within a
  /// burst all see the burst-start clock.  0 = classic per-packet events.
  SimDuration burst_opportunity = 0;
};

class ScenarioRunner {
 public:
  ScenarioRunner(const Scenario& scenario, Policy policy,
                 RunnerOptions options = {});
  ~ScenarioRunner();

  /// Runs the scenario for `duration` of simulated time.
  ScenarioResult run(SimTime duration);

  /// The scheduler driving the run (white-box inspection in tests).
  Scheduler& scheduler() { return *scheduler_; }
  Simulator& simulator() { return sim_; }

 private:
  struct FlowRuntime;

  void start_flow(std::size_t index);
  void enqueue_for(std::size_t index, std::uint32_t size);
  void refill_source(FlowId flow, std::uint32_t dequeued_bytes);
  std::size_t index_of(FlowId flow) const;
  void pump_arrivals(std::size_t index);
  void kick_transmitters(FlowId flow);
  void on_departure(IfaceId iface, const Packet& packet, SimTime at);
  void sample_rates();
  void snapshot_clusters();
  // Sample, then schedule the next tick.
  void sample_tick();
  void cluster_tick();
  fair::MaxMinInput current_input() const;

  const Scenario& scenario_;
  RunnerOptions options_;
  Simulator sim_;
  std::unique_ptr<Scheduler> scheduler_;
  Rng rng_;
  std::vector<std::unique_ptr<LinkTransmitter>> links_;
  std::vector<std::unique_ptr<FlowRuntime>> flows_;
  std::vector<std::size_t> index_by_flow_id_;  // FlowId -> flows_ index
  std::vector<std::vector<std::uint64_t>> window_bytes_;  // [flow][iface]
  std::vector<ClusterSnapshot> cluster_log_;
  SimTime horizon_ = 0;
  bool armed_ = false;
};

}  // namespace midrr

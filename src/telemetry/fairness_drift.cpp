#include "telemetry/fairness_drift.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "fairness/maxmin.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace midrr::telemetry {

namespace {

std::string flow_label(const FairnessFlowSample& flow) {
  return flow.name.empty() ? std::string("f").append(std::to_string(flow.id))
                           : flow.name;
}

}  // namespace

FairnessDriftSampler::FairnessDriftSampler(FairnessSource& source,
                                           MetricsRegistry& registry,
                                           FairnessDriftOptions options)
    : source_(source),
      registry_(registry),
      options_(options),
      samples_total_(registry.counter("midrr_fairness_samples_total",
                                      "Fairness-drift solver runs")),
      solver_ns_(registry.histogram("midrr_fairness_solver_ns",
                                    "Max-min reference solver latency (ns)")),
      jain_(registry.gauge("midrr_fairness_jain_index",
                           "Jain's index over actual/max-min rate ratios")),
      ratio_min_(registry.gauge("midrr_fairness_ratio_min",
                                "Smallest actual/max-min ratio this window")),
      ratio_max_(registry.gauge("midrr_fairness_ratio_max",
                                "Largest actual/max-min ratio this window")),
      ratio_mean_(registry.gauge("midrr_fairness_ratio_mean",
                                 "Mean actual/max-min ratio this window")),
      compared_flows_(registry.gauge("midrr_fairness_flows",
                                     "Flows compared in the last window")) {}

FairnessDriftSampler::~FairnessDriftSampler() { stop(); }

void FairnessDriftSampler::start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void FairnessDriftSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    running_ = false;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void FairnessDriftSampler::run() {
  // Prime the window immediately so the first report lands after ONE
  // interval instead of two.
  sample_once();
  std::unique_lock<std::mutex> lock(run_mu_);
  while (running_) {
    run_cv_.wait_for(lock, std::chrono::nanoseconds(options_.interval_ns),
                     [this] { return !running_; });
    if (!running_) break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

void FairnessDriftSampler::sample_once() {
  FairnessSample sample = source_.fairness_sample();
  if (!has_prev_) {
    prev_ = std::move(sample);
    has_prev_ = true;
    return;
  }
  const double window_s = to_seconds(sample.at_ns - prev_.at_ns);
  if (window_s <= 0.0) return;  // clock did not advance; keep prev_

  // Join flows live in BOTH samples by id (flows that churned mid-window
  // have no meaningful window rate).
  struct Joined {
    const FairnessFlowSample* now;
    double actual_bps;
  };
  std::vector<Joined> joined;
  joined.reserve(sample.flows.size());
  for (const FairnessFlowSample& flow : sample.flows) {
    const auto it = std::find_if(
        prev_.flows.begin(), prev_.flows.end(),
        [&](const FairnessFlowSample& p) { return p.id == flow.id; });
    if (it == prev_.flows.end()) continue;
    const std::uint64_t delta =
        flow.sent_bytes >= it->sent_bytes ? flow.sent_bytes - it->sent_bytes
                                          : 0;
    joined.push_back({&flow, static_cast<double>(delta) * 8.0 / window_s});
  }

  // Capacities: paced interfaces report the profile's current rate;
  // unpaced ones substitute the measured drain rate over the window.
  const std::size_t iface_count = sample.capacities_bps.size();
  std::vector<double> capacities(iface_count, 0.0);
  for (std::size_t j = 0; j < iface_count; ++j) {
    if (sample.capacities_bps[j] >= 0.0) {
      capacities[j] = sample.capacities_bps[j];
    } else if (j < sample.iface_sent_bytes.size() &&
               j < prev_.iface_sent_bytes.size() &&
               sample.iface_sent_bytes[j] >= prev_.iface_sent_bytes[j]) {
      capacities[j] = static_cast<double>(sample.iface_sent_bytes[j] -
                                          prev_.iface_sent_bytes[j]) *
                      8.0 / window_s;
    }
  }

  DriftReport report;
  report.at_ns = sample.at_ns;
  report.window_s = window_s;

  if (!joined.empty() && iface_count > 0) {
    fair::MaxMinInput input;
    input.capacities_bps = capacities;
    input.weights.reserve(joined.size());
    input.willing.reserve(joined.size());
    for (const Joined& j : joined) {
      // A class row represents `members` flows sharing one phi: it claims
      // weight phi x members in the reference program, so the solve stays
      // O(classes) while preserving exactly the rates a per-flow program
      // would hand the members in aggregate.
      const double base = j.now->weight > 0.0 ? j.now->weight : 1.0;
      const double members =
          j.now->members > 0 ? static_cast<double>(j.now->members) : 1.0;
      input.weights.push_back(base * members);
      std::vector<bool> row(iface_count, false);
      for (std::size_t k = 0; k < iface_count && k < j.now->willing.size();
           ++k) {
        row[k] = j.now->willing[k];
      }
      input.willing.push_back(std::move(row));
    }
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const fair::MaxMinResult reference = fair::solve_max_min(input);
      const auto t1 = std::chrono::steady_clock::now();
      solver_ns_.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));

      double ratio_sum = 0.0, ratio_sq_sum = 0.0;
      double rmin = 0.0, rmax = 0.0;
      std::size_t compared = 0;
      for (std::size_t i = 0; i < joined.size(); ++i) {
        FlowDrift drift;
        drift.id = joined[i].now->id;
        drift.name = flow_label(*joined[i].now);
        drift.members = joined[i].now->members > 0 ? joined[i].now->members : 1;
        drift.actual_bps = joined[i].actual_bps;
        drift.maxmin_bps = reference.rates_bps[i];
        if (drift.maxmin_bps > 0.0) {
          drift.ratio = drift.actual_bps / drift.maxmin_bps;
          if (compared == 0) {
            rmin = rmax = drift.ratio;
          } else {
            rmin = std::min(rmin, drift.ratio);
            rmax = std::max(rmax, drift.ratio);
          }
          ratio_sum += drift.ratio;
          ratio_sq_sum += drift.ratio * drift.ratio;
          ++compared;
        }
        report.flows.push_back(std::move(drift));
      }
      if (compared > 0) {
        report.valid = true;
        report.ratio_min = rmin;
        report.ratio_max = rmax;
        report.ratio_mean = ratio_sum / static_cast<double>(compared);
        report.jain = ratio_sq_sum > 0.0
                          ? (ratio_sum * ratio_sum) /
                                (static_cast<double>(compared) * ratio_sq_sum)
                          : 0.0;
      }
    } catch (const std::exception& e) {
      MIDRR_LOG_WARN() << "fairness-drift solver failed: " << e.what();
    }
  }

  samples_total_.inc();
  if (report.valid) export_report(report);
  {
    std::lock_guard<std::mutex> lock(last_mu_);
    last_ = report;
  }
  prev_ = std::move(sample);
}

void FairnessDriftSampler::export_report(const DriftReport& report) {
  jain_.set(report.jain);
  ratio_min_.set(report.ratio_min);
  ratio_max_.set(report.ratio_max);
  ratio_mean_.set(report.ratio_mean);
  compared_flows_.set(static_cast<double>(report.flows.size()));
  std::size_t labeled = 0;
  for (const FlowDrift& drift : report.flows) {
    if (labeled++ >= options_.max_labeled_flows) break;
    const LabelSet labels{{"flow", drift.name}};
    registry_
        .gauge("midrr_fairness_rate_ratio",
               "Per-flow actual/max-min rate ratio", labels)
        .set(drift.ratio);
    registry_
        .gauge("midrr_fairness_rate_actual_bps",
               "Per-flow measured rate over the last window", labels)
        .set(drift.actual_bps);
    registry_
        .gauge("midrr_fairness_rate_maxmin_bps",
               "Per-flow weighted max-min reference rate", labels)
        .set(drift.maxmin_bps);
    // Member gauges expand lazily: only rows that actually aggregate more
    // than one flow pay the extra label cardinality.
    if (drift.members > 1) {
      const double members = static_cast<double>(drift.members);
      registry_
          .gauge("midrr_fairness_class_members",
                 "Flows aggregated into this class row", labels)
          .set(members);
      registry_
          .gauge("midrr_fairness_rate_per_member_bps",
                 "Measured per-member rate (class aggregate / members)",
                 labels)
          .set(drift.actual_bps / members);
    }
  }
}

DriftReport FairnessDriftSampler::last() const {
  std::lock_guard<std::mutex> lock(last_mu_);
  return last_;
}

std::string flows_json(const FairnessSample& sample, const DriftReport& drift) {
  JsonWriter w;
  w.begin_object().field("at_ns", sample.at_ns);
  w.field("window_s", drift.window_s);
  w.field("jain", drift.valid ? drift.jain : 0.0).key("flows").begin_array();
  for (const FairnessFlowSample& flow : sample.flows) {
    w.begin_object().field("id", flow.id).field("name", flow_label(flow));
    w.field("weight", flow.weight).field("members", flow.members);
    w.field("sent_bytes", flow.sent_bytes);
    const auto it = std::find_if(
        drift.flows.begin(), drift.flows.end(),
        [&](const FlowDrift& d) { return d.id == flow.id; });
    if (drift.valid && it != drift.flows.end()) {
      w.field("rate_bps", it->actual_bps).field("maxmin_bps", it->maxmin_bps);
      w.field("ratio", it->ratio);
    }
    w.end_object();
  }
  return w.end_array().end_object().str();
}

}  // namespace midrr::telemetry

#include "fault/adapt.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fault/recorder.hpp"
#include "telemetry/metrics.hpp"
#include "util/assert.hpp"
#include "util/latency_histogram.hpp"

namespace midrr::fault {

AdaptiveController::AdaptiveController(SupervisedRuntime& rt,
                                       AdaptOptions options)
    : rt_(rt),
      options_(options),
      links_(rt.iface_count()),
      prev_e2e_(LatencyHistogram::kBuckets, 0),
      cur_e2e_(LatencyHistogram::kBuckets, 0),
      target_p99_ns_(options.target_p99_ns) {
  MIDRR_REQUIRE(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
                "ewma_alpha must be in (0, 1]");
  MIDRR_REQUIRE(options_.droop_enter_ratio <= options_.droop_exit_ratio,
                "droop hysteresis band inverted");
  MIDRR_REQUIRE(options_.droop_enter_probes > 0 &&
                    options_.droop_exit_probes > 0,
                "droop hysteresis thresholds must be positive");
  MIDRR_REQUIRE(options_.shed_floor_bytes <= options_.shed_ceiling_bytes,
                "shed clamp band inverted");
  MIDRR_REQUIRE(options_.correction_min > 0.0 &&
                    options_.correction_min <= options_.correction_max,
                "correction clamp band inverted");
  correction_mirror_.store(correction_, std::memory_order_relaxed);
}

void AdaptiveController::set_target_p99_ns(SimDuration target) {
  target_p99_ns_.store(std::max<SimDuration>(target, 0),
                       std::memory_order_relaxed);
  retunes_.fetch_add(1, std::memory_order_relaxed);
}

void AdaptiveController::on_probe(SimTime now, double window_s,
                                  const std::vector<double>& measured_bps,
                                  const std::vector<LinkState>& states) {
  if (window_s <= 0.0) return;
  update_drift(now, measured_bps, states);
  update_shedding(now, states);
  updates_.fetch_add(1, std::memory_order_relaxed);
}

void AdaptiveController::update_drift(SimTime now,
                                      const std::vector<double>& measured_bps,
                                      const std::vector<LinkState>& states) {
  for (IfaceId j = 0; j < links_.size(); ++j) {
    Link& link = links_[j];
    const bool dead = j < states.size() && states[j] == LinkState::kDead;
    if (dead) {
      // Topology, not drift: the supervisor's kill/re-steer machinery owns
      // dead links (and the recorder already holds the iface_down edge).
      // Close any open droop so the episodes do not overlap on replay.
      if (link.drooped) close_droop(j, link, now);
      link.low_streak = 0;
      link.high_streak = 0;
      continue;
    }
    const double configured = rt_.iface_configured_bps(j, now);
    if (configured <= 0.0) continue;  // unpaced: no baseline, never judged
    if (rt_.iface_backlog_bytes(j) == 0) {
      // No backlog: drain equals offered load and says nothing about
      // capacity.  Hold state, but break any entry streak -- an idle link
      // is not evidence of a droop.
      link.low_streak = 0;
      continue;
    }
    const double measured = j < measured_bps.size() ? measured_bps[j] : 0.0;
    link.ewma_bps = link.ewma_bps < 0.0
                        ? measured
                        : options_.ewma_alpha * measured +
                              (1.0 - options_.ewma_alpha) * link.ewma_bps;
    const double ratio = link.ewma_bps / configured;
    link.ratio.store(ratio, std::memory_order_relaxed);
    if (link.drooped) link.min_ratio = std::min(link.min_ratio, ratio);
    if (ratio < options_.droop_enter_ratio) {
      link.high_streak = 0;
      if (!link.drooped && ++link.low_streak >= options_.droop_enter_probes) {
        link.drooped = true;
        link.droop_since = now;
        link.min_ratio = ratio;
        link.low_streak = 0;
        link.drooped_mirror.store(1, std::memory_order_release);
        droop_enters_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (ratio > options_.droop_exit_ratio) {
      link.low_streak = 0;
      if (link.drooped && ++link.high_streak >= options_.droop_exit_probes) {
        close_droop(j, link, now);
      }
    } else {
      // Inside the hysteresis band: no evidence either way.
      link.low_streak = 0;
      link.high_streak = 0;
    }
  }
}

void AdaptiveController::close_droop(IfaceId iface, Link& link, SimTime now) {
  link.drooped = false;
  link.high_streak = 0;
  link.drooped_mirror.store(0, std::memory_order_release);
  droop_exits_.fetch_add(1, std::memory_order_relaxed);
  if (recorder_ != nullptr) {
    recorder_->record_iface_scale(
        iface, link.droop_since, now,
        std::clamp(link.min_ratio, options_.capacity_floor_fraction, 1.0));
  }
}

void AdaptiveController::finalize(SimTime now) {
  for (IfaceId j = 0; j < links_.size(); ++j) {
    if (links_[j].drooped) close_droop(j, links_[j], now);
  }
}

double AdaptiveController::windowed_p99(SimTime now) {
  (void)now;
  if (!rt_.sample_e2e_buckets(cur_e2e_)) return -1.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cur_e2e_.size() && i < prev_e2e_.size(); ++i) {
    const std::uint64_t c = cur_e2e_[i];
    // Swap roles: cur becomes the delta in place, prev the new snapshot.
    cur_e2e_[i] = c >= prev_e2e_[i] ? c - prev_e2e_[i] : 0;
    prev_e2e_[i] = c;
    total += cur_e2e_[i];
  }
  if (total < options_.min_window_samples) return -1.0;
  // Cumulative grids cannot be reset in place, so the estimator runs over
  // the window's bucket-count deltas.
  return LatencyHistogram::quantile(cur_e2e_, 0.99);
}

void AdaptiveController::update_shedding(SimTime now,
                                         const std::vector<LinkState>& states) {
  const SimDuration target =
      target_p99_ns_.load(std::memory_order_relaxed);
  if (target <= 0) {
    shed_active_.store(0, std::memory_order_relaxed);
    return;
  }
  const double p99 = windowed_p99(now);
  if (p99 > 0.0) {
    windowed_p99_ns_.store(p99, std::memory_order_relaxed);
    const double err = std::clamp(
        std::log(static_cast<double>(target) / p99), -1.0, 1.0);
    correction_ = std::clamp(correction_ * std::exp(options_.gain * err),
                             options_.correction_min, options_.correction_max);
    correction_mirror_.store(correction_, std::memory_order_relaxed);
  }
  // Little's law base: residence <= T needs backlog <= drain_Bps * T per
  // shard; the binding shard is the slowest one hosting any live link.
  std::vector<double> shard_bps(std::max<std::size_t>(rt_.shard_count(), 1),
                                0.0);
  for (IfaceId j = 0; j < links_.size(); ++j) {
    if (j < states.size() && states[j] == LinkState::kDead) continue;
    double rate = links_[j].ewma_bps;
    if (rate < 0.0) rate = std::max(rt_.iface_configured_bps(j, now), 0.0);
    const std::uint32_t shard = rt_.iface_shard(j);
    if (shard < shard_bps.size()) shard_bps[shard] += rate;
  }
  double min_bps = -1.0;
  for (const double bps : shard_bps) {
    if (bps > 0.0 && (min_bps < 0.0 || bps < min_bps)) min_bps = bps;
  }
  if (min_bps <= 0.0) return;  // nothing draining anywhere: keep watermark
  const double target_s = static_cast<double>(target) / 1e9;
  const double raw = (min_bps / 8.0) * target_s * correction_;
  const std::uint64_t watermark = static_cast<std::uint64_t>(std::clamp(
      raw, static_cast<double>(options_.shed_floor_bytes),
      static_cast<double>(options_.shed_ceiling_bytes)));
  rt_.set_shed_bytes(watermark);
  shed_bytes_mirror_.store(watermark, std::memory_order_relaxed);

  bool armed = false;
  for (IfaceId j = 0; j < links_.size() && !armed; ++j) {
    armed = rt_.iface_backlog_bytes(j) >= watermark;
  }
  const bool was_armed = shed_active_.load(std::memory_order_relaxed) != 0;
  if (armed != was_armed) {
    shed_active_.store(armed ? 1 : 0, std::memory_order_relaxed);
    if (armed) shed_engages_.fetch_add(1, std::memory_order_relaxed);
    if (recorder_ != nullptr) {
      std::ostringstream what;
      what << "shed " << (armed ? "engaged" : "disengaged")
           << " watermark_bytes=" << watermark;
      if (p99 > 0.0) what << " windowed_p99_ms=" << p99 / 1e6;
      recorder_->note(now, what.str());
    }
  }
}

double AdaptiveController::effective_capacity_bps(IfaceId iface,
                                                  double configured_bps) const {
  if (iface >= links_.size() || configured_bps <= 0.0) return configured_bps;
  const Link& link = links_[iface];
  if (link.drooped_mirror.load(std::memory_order_acquire) == 0) {
    return configured_bps;
  }
  const double ratio =
      std::clamp(link.ratio.load(std::memory_order_relaxed),
                 options_.capacity_floor_fraction, 1.0);
  return configured_bps * ratio;
}

double AdaptiveController::drift_ratio(IfaceId iface) const {
  return iface < links_.size()
             ? links_[iface].ratio.load(std::memory_order_relaxed)
             : 1.0;
}

bool AdaptiveController::drooped(IfaceId iface) const {
  return iface < links_.size() &&
         links_[iface].drooped_mirror.load(std::memory_order_acquire) != 0;
}

void AdaptiveController::register_metrics(
    telemetry::MetricsRegistry& registry) {
  registry.gauge_fn(
      "midrr_adapt_shed_bytes",
      "Adaptive overload watermark currently applied to the runtime", {},
      [this] { return static_cast<double>(current_shed_bytes()); });
  registry.gauge_fn(
      "midrr_adapt_target_p99_ns", "Shedding latency objective (0 = off)", {},
      [this] { return static_cast<double>(target_p99_ns()); });
  registry.gauge_fn(
      "midrr_adapt_windowed_p99_ns",
      "Traced end-to-end p99 over the last probe window", {},
      [this] { return windowed_p99_ns(); });
  registry.gauge_fn(
      "midrr_adapt_correction",
      "Multiplicative correction applied to the Little's-law watermark", {},
      [this] { return correction(); });
  registry.gauge_fn(
      "midrr_adapt_shedding_active",
      "1 while some shard backlog sits at/above the shed watermark", {},
      [this] { return shed_active() ? 1.0 : 0.0; });
  registry.counter_fn(
      "midrr_adapt_updates_total", "Adaptation passes", {},
      [this] { return static_cast<double>(updates()); });
  registry.counter_fn(
      "midrr_adapt_retunes_total",
      "Live target retunes accepted via the control plane", {},
      [this] { return static_cast<double>(retunes()); });
  registry.counter_fn(
      "midrr_adapt_droop_events_total", "Capacity-droop episodes",
      {{"edge", "enter"}},
      [this] { return static_cast<double>(droop_enters()); });
  registry.counter_fn(
      "midrr_adapt_droop_events_total", "Capacity-droop episodes",
      {{"edge", "exit"}},
      [this] { return static_cast<double>(droop_exits()); });
  for (IfaceId j = 0; j < links_.size(); ++j) {
    registry.gauge_fn(
        "midrr_supervisor_capacity_drift_ratio",
        "Measured/configured drain-rate EWMA (1.0 until judged)",
        {{"iface", rt_.iface_name(j)}},
        [this, j] { return drift_ratio(j); });
  }
}

}  // namespace midrr::fault

// Extension: half an hour in the life of a phone.
//
// Replays the Section 6.1-calibrated smartphone flow trace (the Fig 7
// generator) through the scheduler as live churn: hundreds of flows with
// heavy-tailed sizes arriving and completing over WiFi + LTE, each class
// with its own preferences.  Reports what matters at system level:
// interface utilization, completion counts, preference violations (must be
// zero), and how the policies compare under realistic churn instead of
// synthetic backlogged flows.
#include <iostream>

#include "bench/common.hpp"
#include "core/scenario.hpp"
#include "trace/smartphone.hpp"
#include "util/stats.hpp"

namespace {

using namespace midrr;

struct Built {
  Scenario scenario;
  std::size_t wifi_only = 0;
  std::size_t lte_only = 0;
  std::size_t both = 0;
};

Built build_scenario(SimTime horizon) {
  trace::SmartphoneTraceConfig cfg;
  cfg.total = horizon;
  cfg.seed = 42;
  const auto sessions = trace::generate_flow_sessions(cfg);

  Built built;
  built.scenario.interface("wifi", RateProfile(mbps(6)));
  built.scenario.interface("lte", RateProfile(mbps(3)));

  std::size_t index = 0;
  for (const auto& session : sessions) {
    // Class assignment: bursts are web (either interface); long sessions
    // rotate between streaming (LTE-preferring), sync (WiFi-only) and
    // general traffic (either).
    std::vector<std::string> ifaces;
    double weight = 1.0;
    if (session.from_burst) {
      ifaces = {"wifi", "lte"};
      built.both++;
    } else {
      switch (index % 3) {
        case 0:
          ifaces = {"lte"};
          weight = 2.0;  // streaming: keep it flowing
          built.lte_only++;
          break;
        case 1:
          ifaces = {"wifi"};
          built.wifi_only++;
          break;
        default:
          ifaces = {"wifi", "lte"};
          built.both++;
          break;
      }
    }
    // Volume sized so the session wants ~2.5 Mb/s for its duration
    // (the two links sum to 9 Mb/s, so peaks overload the system).
    const auto volume = static_cast<std::uint64_t>(
        std::max(10'000.0, to_seconds(session.duration) * 2.5e6 / 8.0));
    built.scenario.backlogged_flow(
        std::string("s").append(std::to_string(index)), weight, ifaces, volume,
        1500, session.start);
    ++index;
  }
  return built;
}

}  // namespace

int main(int, char**) {
  const SimTime horizon = 30 * 60 * kSecond;  // half an hour
  std::cout << "Extension: 30 minutes of Fig 7-calibrated flow churn "
               "through the scheduler\n";
  const Built built = build_scenario(horizon);
  std::cout << "trace: " << built.scenario.flows().size() << " flows ("
            << built.wifi_only << " wifi-only, " << built.lte_only
            << " lte-only, " << built.both << " either)\n\n";

  midrr::bench::Table table({"policy", "completed", "GB moved",
                             "mean-fct s", "wifi util%", "lte util%",
                             "violations"});
  for (const Policy policy :
       {Policy::kMiDrr, Policy::kNaiveDrr, Policy::kPerIfaceWfq,
        Policy::kFifo}) {
    ScenarioRunner runner(built.scenario, policy);
    const auto result = runner.run(horizon);
    std::size_t completed = 0;
    std::uint64_t bytes = 0;
    std::size_t violations = 0;
    OnlineStats stretch;  // completion time relative to the trace duration
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      const auto& flow = result.flows[i];
      if (flow.completed_at) {
        ++completed;
        const auto& spec = built.scenario.flows()[i];
        stretch.add(to_seconds(*flow.completed_at - spec.start));
      }
      bytes += flow.bytes_sent;
      // Preference violation = bytes on an interface outside the spec.
      const auto& spec_ifaces = built.scenario.flows()[i].ifaces;
      for (std::size_t j = 0; j < result.ifaces.size(); ++j) {
        const bool allowed =
            std::find(spec_ifaces.begin(), spec_ifaces.end(),
                      result.ifaces[j].name) != spec_ifaces.end();
        if (!allowed && j < flow.bytes_per_iface.size() &&
            flow.bytes_per_iface[j] > 0) {
          ++violations;
        }
      }
    }
    const double wifi_util =
        100.0 * to_seconds(result.ifaces[0].busy_time) / to_seconds(horizon);
    const double lte_util =
        100.0 * to_seconds(result.ifaces[1].busy_time) / to_seconds(horizon);
    table.row({to_string(policy), std::to_string(completed),
               std::to_string(static_cast<double>(bytes) / 1e9).substr(0, 5),
               std::to_string(stretch.mean()).substr(0, 6),
               std::to_string(wifi_util).substr(0, 5),
               std::to_string(lte_util).substr(0, 5),
               std::to_string(violations)});
  }
  std::cout << "\nexpected: zero preference violations everywhere (enforced "
               "structurally); miDRR beats\n"
               "the per-interface fair baselines on completions AND mean "
               "flow-completion time because\n"
               "multi-homed flows stop crowding the pinned flows' "
               "interfaces; FIFO posts competitive\n"
               "completion counts by opportunistically draining whoever "
               "arrived first -- the fairness\n"
               "metrics of bench/policy_matrix are what it sacrifices.\n";
  return 0;
}
